from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
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

from clozefuzz import harness
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


def test_an_interrupt_mid_compile_kills_the_compile(scripted, tmp_path):
    pidfile = tmp_path / "pid"
    cfg = fake_cfg(scripted("sleeper", f'echo $$ > "{pidfile}"\nsleep 30\n'))

    def interrupt(signum, frame):
        # like Ctrl-C, once the compile is surely running
        if pidfile.exists() and pidfile.read_text().strip():
            raise KeyboardInterrupt
        signal.setitimer(signal.ITIMER_REAL, 0.1)

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        with pytest.raises(KeyboardInterrupt):
            compile_program("fn main() {}", cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pid = int(pidfile.read_text())
    try:
        # reaped already, so the pid no longer names a process
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    finally:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_concurrent_compiles_leave_no_compile_registered(scripted):
    cfg = fake_cfg(scripted("ok", OK_BODY))
    statuses = []

    def compile_twice():
        for _ in range(2):
            statuses.append(compile_program("fn main() {}", cfg).exit_status)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_twice) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert statuses == [0] * 16
    assert not harness._running


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


_COMPILE_IN_CHILD = """
import json, resource, sys
from clozefuzz.harness import TRUNCATION_MARKER, CompilerConfig, compile_program
from clozefuzz.oracle import classify

cfg = CompilerConfig(binary_path=sys.argv[1], kind="scripted-fake", timeout_secs=60)
outcome = compile_program("fn main() {}", cfg)
print(json.dumps({
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "kind": classify(outcome, "scripted-fake").value,
    "exit": outcome.exit_status,
    "truncated": outcome.stderr.endswith(TRUNCATION_MARKER),
}))
"""


def _compile_in_child(binary: str) -> dict:
    """One compile in a fresh interpreter, whose peak RSS is then that
    compile's."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _COMPILE_IN_CHILD, binary],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout)


def test_output_is_capped_while_it_is_read(scripted):
    # an ICE, then 100 MB more: the fuzzer keeps 1 MiB of it, and the
    # compiler runs to its own exit status instead of being cut off
    loud = scripted("loud", """
    echo "error: internal compiler error: seeded" >&2
    head -c 100000000 /dev/zero | tr '\\0' 'n' >&2
    exit 101
    """)
    quiet = _compile_in_child(scripted("quiet", "exit 0\n"))
    noisy = _compile_in_child(loud)
    assert noisy["kind"] == "ice"
    assert noisy["exit"] == 101
    assert noisy["truncated"]
    assert noisy["rss_kb"] - quiet["rss_kb"] < 10 * 1024


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


def logged(log):
    return log.read_text().splitlines() if log.exists() else []


def test_rustup_proxy_is_resolved_to_the_toolchain_rustc(rustup_layout):
    proxy, log, toolchain_rustc = rustup_layout()
    cfg = CompilerConfig(binary_path=proxy, extra_flags=("+tc", "-C", "opt-level=0"))
    for _ in range(3):
        assert compile_program("fn main() {}", cfg).exit_status == 0
    probe, *compiles = logged(log)
    # one probe, for the toolchain the leading +tc names, from the
    # directory every compile's scratch directory is made in
    cwd = os.path.realpath(tempfile.gettempdir())
    assert probe == f"probe {cwd} +tc --print sysroot"
    assert compiles == [f"{toolchain_rustc} -C opt-level=0 input.rs"] * 3
    assert cfg.command("x.rs") == [toolchain_rustc, "-C", "opt-level=0", "x.rs"]


def test_threads_racing_on_first_use_agree_on_the_command(rustup_layout):
    proxy, _, toolchain_rustc = rustup_layout()
    cfg = CompilerConfig(binary_path=proxy)
    start = threading.Barrier(8)
    commands = []

    def first_use():
        start.wait(timeout=10)
        commands.append(cfg.command("input.rs"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = [toolchain_rustc, "-C", "opt-level=0", "--emit=obj", "input.rs"]
    assert commands == [expected] * 8


@pytest.mark.parametrize("case", ["no sibling rustup", "wrapper next to rustup"])
def test_a_rustc_that_is_not_the_proxy_runs_as_given(
    rustup_layout, scripted, tmp_path, case
):
    log = tmp_path / "wrapper.log"
    body = f'echo "$0 $*" >> "{log}"\nexit 0\n'
    if case == "no sibling rustup":
        (tmp_path / "alone").mkdir()
        rustc = scripted("alone/rustc", body)
    else:
        proxy, _, _ = rustup_layout()
        os.remove(proxy)
        rustc = scripted("bin/rustc", body)
    cfg = CompilerConfig(binary_path=rustc, extra_flags=("+tc", "-C", "opt-level=0"))
    compile_program("fn main() {}", cfg)
    compile_program("fn main() {}", cfg)
    assert logged(log) == [f"{rustc} +tc -C opt-level=0 input.rs"] * 2
    assert not logged(tmp_path / "calls.log")


@pytest.mark.parametrize(
    "layout", [{"probe_exit": 1}, {"toolchain_rustc": False}],
    ids=["probe fails", "no toolchain rustc"],
)
def test_a_proxy_that_names_no_toolchain_rustc_runs_as_given(rustup_layout, layout):
    proxy, log, _ = rustup_layout(**layout)
    cfg = CompilerConfig(binary_path=proxy, extra_flags=("+tc", "--emit=obj"))
    compile_program("fn main() {}", cfg)
    compile_program("fn main() {}", cfg)
    # the probe is not retried, and the proxy keeps every flag
    assert logged(log) == [
        f"probe {os.path.realpath(tempfile.gettempdir())} +tc --print sysroot",
        "proxy +tc --emit=obj input.rs",
        "proxy +tc --emit=obj input.rs",
    ]


@pytest.mark.parametrize("where", ["alone", "proxy layout"])
def test_a_fake_compiler_is_one_spawn_per_compile_and_never_probed(
    rustup_layout, scripted, tmp_path, where
):
    if where == "alone":
        log = tmp_path / "fake.log"
        binary = scripted("fake", f'echo "$0 $*" >> "{log}"\nexit 0\n')
    else:
        # even a fake that is rustup's proxy by every other test
        binary, log, _ = rustup_layout()
    cfg = fake_cfg(binary)
    for _ in range(4):
        compile_program("fn main() {}", cfg)
    lines = logged(log)
    assert len(lines) == 4
    assert all(line.endswith(" -O0 input.rs") for line in lines)
    assert not any("--print sysroot" in line for line in lines)


def _rustup_proxy_on_path() -> bool:
    rustc = shutil.which("rustc")
    if rustc is None:
        return False
    rustup = os.path.join(os.path.dirname(rustc), "rustup")
    return os.path.exists(rustup) and os.path.samefile(rustc, rustup)


@pytest.mark.skipif(
    not _rustup_proxy_on_path(), reason="rustc on PATH is not a rustup proxy"
)
def test_live_rustup_proxy_runs_the_toolchain_rustc():
    sysroot = subprocess.run(
        ["rustc", "--print", "sysroot"],
        cwd=tempfile.gettempdir(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.strip()
    cfg = CompilerConfig(binary_path="rustc")
    outcome = compile_program("fn main() {}\n", cfg)
    assert classify(outcome, "rustc") is BugKind.PASS, outcome.stderr
    assert cfg.command("input.rs") == [
        os.path.join(sysroot, "bin", "rustc"),
        "-C", "opt-level=0", "--emit=obj", "input.rs",
    ]
