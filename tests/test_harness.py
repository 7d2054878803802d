from __future__ import annotations

import shutil
import time

import pytest
from conftest import (
    ARTIFACT_BODY,
    ERROR_BODY,
    ICE_BODY,
    OK_BODY,
    SLEEPER_BODY,
    TIMEPASS_HANG_BODY,
    TRIGGER_BODY,
)

from clozefuzz.harness import (
    STREAM_CAP,
    TRUNCATION_MARKER,
    CompilerConfig,
    HarnessError,
    compile_program,
    ensure_compiler,
    time_passes,
)
from clozefuzz.oracle import BugKind, classify


def fake_cfg(binary, **kw):
    kw.setdefault("kind", "scripted-fake")
    return CompilerConfig(binary_path=binary, **kw)


def test_default_timeout_is_180_seconds():
    cfg = CompilerConfig(binary_path="rustc")
    assert cfg.timeout_secs == 180.0


def test_default_flags_per_kind():
    assert CompilerConfig(binary_path="rustc").extra_flags == (
        "-C", "opt-level=0", "--emit=obj",
    )
    assert CompilerConfig(binary_path="x", kind="scripted-fake").extra_flags == ("-O0",)
    assert CompilerConfig(binary_path="x", kind="mrustc").extra_flags == ()
    # explicit flags are kept verbatim
    cfg = CompilerConfig(binary_path="rustc", extra_flags=("-Zverbose",))
    assert cfg.extra_flags == ("-Zverbose",)


def test_config_validation():
    with pytest.raises(ValueError):
        CompilerConfig(binary_path="rustc", timeout_secs=0)
    with pytest.raises(ValueError):
        CompilerConfig(binary_path="rustc", kind="gcc")


def test_clean_exit_and_artifact_detection(scripted):
    ok = fake_cfg(scripted("ok", OK_BODY))
    outcome = compile_program("fn main() {}", ok)
    assert outcome.exit_status == 0
    assert not outcome.timed_out
    assert not outcome.artifact_present

    artifact = fake_cfg(scripted("art", ARTIFACT_BODY))
    outcome = compile_program("fn main() {}", artifact)
    assert outcome.exit_status == 0
    assert outcome.artifact_present


def test_error_exit_captures_stderr(scripted):
    cfg = fake_cfg(scripted("err", ERROR_BODY))
    outcome = compile_program("fn main() {", cfg)
    assert outcome.exit_status == 1
    assert "error[E0308]" in outcome.stderr


def test_missing_binary_is_a_hard_error():
    cfg = CompilerConfig(binary_path="/no/such/compiler")
    with pytest.raises(HarnessError):
        ensure_compiler(cfg)
    with pytest.raises(HarnessError):
        compile_program("fn main() {}", cfg)


def test_timeout_kills_the_process_tree(scripted):
    cfg = fake_cfg(scripted("sleeper", SLEEPER_BODY), timeout_secs=1.0)
    started = time.monotonic()
    outcome = compile_program("fn main() {}", cfg)
    elapsed = time.monotonic() - started
    assert outcome.timed_out
    assert outcome.wall_time >= 1.0
    assert elapsed < 5.0


def test_stream_cap_truncates_large_output(scripted):
    body = f"""
    head -c {STREAM_CAP * 2} /dev/zero | tr '\\0' 'x'
    exit 0
    """
    cfg = fake_cfg(scripted("noisy", body))
    outcome = compile_program("fn main() {}", cfg)
    assert outcome.stdout.endswith(TRUNCATION_MARKER)
    assert len(outcome.stdout) <= STREAM_CAP + len(TRUNCATION_MARKER)


def test_stream_cap_counts_bytes_of_multibyte_output(scripted):
    # 2 MB of a two-byte character: a cap applied to characters would
    # keep twice the byte budget
    body = f"""
    yes 'é' | tr -d '\\n' | head -c {STREAM_CAP * 2} >&2
    exit 1
    """
    cfg = fake_cfg(scripted("accents", body))
    outcome = compile_program("fn main() {}", cfg)
    assert outcome.stderr.endswith(TRUNCATION_MARKER)
    kept = outcome.stderr[: -len(TRUNCATION_MARKER)]
    assert set(kept) == {"é"}
    assert len(outcome.stderr.encode("utf-8")) <= STREAM_CAP + len(
        TRUNCATION_MARKER.encode("utf-8")
    )


def test_environment_is_allowlisted(scripted, monkeypatch):
    monkeypatch.setenv("SECRET_TOKEN_FOR_TEST", "leaky")
    body = """
    echo "secret=[$SECRET_TOKEN_FOR_TEST] bt=[$RUST_BACKTRACE]"
    exit 0
    """
    cfg = fake_cfg(scripted("envdump", body))
    outcome = compile_program("fn main() {}", cfg)
    assert "secret=[]" in outcome.stdout
    assert "bt=[1]" in outcome.stdout


def test_toolchain_resolution_env_passes_through(scripted, monkeypatch):
    # rustup shims dereference these to pick the real rustc; a harness
    # that drops them rejects every candidate without ever compiling
    monkeypatch.setenv("RUSTUP_HOME", "/fake/rustup")
    monkeypatch.setenv("CARGO_HOME", "/fake/cargo")
    body = """
    echo "rustup=[$RUSTUP_HOME] cargo=[$CARGO_HOME]"
    exit 0
    """
    cfg = fake_cfg(scripted("toolchain_env", body))
    outcome = compile_program("fn main() {}", cfg)
    assert "rustup=[/fake/rustup]" in outcome.stdout
    assert "cargo=[/fake/cargo]" in outcome.stdout


def test_time_passes_parses_entries_and_truncation(scripted):
    # the pass lines printed before the timeout survive the kill
    cfg = fake_cfg(scripted("tp", TIMEPASS_HANG_BODY), timeout_secs=1.0)
    outcome = compile_program("fn main() {}", cfg)
    assert outcome.timed_out
    trace = time_passes(outcome)
    assert [name for name, _ in trace] == [
        "parse_crate",
        "expand_crate",
        "type_check",
    ]
    assert trace[0][1] == pytest.approx(0.001)


def test_time_passes_skips_malformed_seconds(scripted):
    body = """
    echo "time: 0.5 good_pass"
    echo "time: abc bad_pass"
    echo "time:"
    exit 0
    """
    cfg = fake_cfg(scripted("tp2", body))
    outcome = compile_program("fn main() {}", cfg)
    assert time_passes(outcome) == [("good_pass", 0.5)]


@pytest.mark.skipif(
    shutil.which("rustc") is None, reason="no rustc toolchain on PATH"
)
def test_default_rustc_flags_skip_the_link():
    # type-checks and codegens, but the symbol only fails to resolve
    # in the linker: without a link it is a pass, with one a reject
    program = (
        'extern "C" { fn cfz_missing_symbol(); }\n'
        "fn main() { unsafe { cfz_missing_symbol() } }\n"
    )
    unlinked = compile_program(program, CompilerConfig(binary_path="rustc"))
    assert classify(unlinked, "rustc") is BugKind.PASS, unlinked.stderr
    linked = compile_program(
        program,
        CompilerConfig(binary_path="rustc", extra_flags=("-C", "opt-level=0")),
    )
    assert classify(linked, "rustc") is BugKind.REJECT, linked.stderr
