from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import (
    ARTIFACT_BODY,
    ERROR_BODY,
    ICE_BODY,
    OK_BODY,
    SLEEPER_BODY,
    TIMEPASS_HANG_BODY,
    TRIGGER_BODY,
    dead,
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


def _pid_from(pidfile, within: float = 5.0) -> int:
    give_up = time.monotonic() + within
    while not (pidfile.exists() and pidfile.read_text().strip()):
        assert time.monotonic() < give_up, "the escaped process never started"
        time.sleep(0.02)
    return int(pidfile.read_text())


@pytest.mark.parametrize(
    "case, took, timed_out",
    [
        ("straggler in the group", 0.9, False),
        ("escaped the group", 0.9, False),
        ("escaped, then hangs", 3.0, True),
    ],
)
def test_a_compile_ends_when_its_compiler_does(
    scripted, tmp_path, case, took, timed_out
):
    pidfile = tmp_path / "pid"
    if case == "straggler in the group":
        body = f'sleep 3 &\necho $! > "{pidfile}"\nexit 0\n'
    else:
        # the escaped sleep holds both pipes open, in a session of its
        # own that it has surely entered before the compiler goes on
        escape = (
            f"setsid sh -c 'echo $$ > \"{pidfile}\"; exec sleep 6' &\n"
            f'until [ -s "{pidfile}" ]; do sleep 0.01; done\n'
        )
        body = escape + ("exit 0\n" if case == "escaped the group" else "exec sleep 30\n")
    cfg = fake_cfg(scripted("leaves", body), timeout_secs=1.0)
    started = time.monotonic()
    try:
        outcome = compile_program("fn main() {}", cfg)
        elapsed = time.monotonic() - started
    finally:
        pid = _pid_from(pidfile)
        if case != "straggler in the group":
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert elapsed < took
    assert outcome.timed_out is timed_out
    if not timed_out:
        assert outcome.exit_status == 0
        assert classify(outcome, "scripted-fake") is BugKind.PASS
    if case == "straggler in the group":
        assert dead(pid)


def test_compiles_on_one_thread_share_a_directory_left_empty(scripted, tmp_path):
    outside = tmp_path / "outside.txt"
    outside.write_text("keep me\n")
    # report the directory and what it holds, then litter it with a
    # file, a subdirectory and an input.rs that links outside
    body = f"""
    pwd
    ls -A
    cat input.rs
    : > litter.o
    mkdir -p sub/deeper && : > sub/deeper/x
    rm input.rs && ln -s "{outside}" input.rs
    exit 0
    """
    cfg = fake_cfg(scripted("litter", body))
    first = compile_program("// first\n", cfg).stdout.splitlines()
    second = compile_program("// second\n", cfg).stdout.splitlines()
    assert first[1:] == ["input.rs", "// first"]
    assert second == [first[0], "input.rs", "// second"]
    assert outside.read_text() == "keep me\n"


def test_two_workers_use_at_most_two_directories(scripted, tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    cfg = fake_cfg(scripted("pwd", "pwd\nexit 0\n"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(compile_program, ["fn main() {}"] * 20, [cfg] * 20))
    dirs = {outcome.stdout.strip() for outcome in outcomes}
    assert 1 <= len(dirs) <= 2
    # each is removed when its thread ends
    assert not list(work.glob("clozefuzz-*"))


def test_a_failed_emptying_is_followed_by_a_fresh_directory(
    scripted, tmp_path, monkeypatch
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(work))
    cfg = fake_cfg(scripted("pwd_ls", "pwd\nls -A\n: > litter.o\nexit 0\n"))
    unlink = os.unlink

    def fails_once(*args, **kwargs):
        monkeypatch.setattr(os, "unlink", unlink)
        raise PermissionError("not this time")

    monkeypatch.setattr(os, "unlink", fails_once)

    def two_compiles():
        return [compile_program("fn main() {}", cfg).stdout.split() for _ in "12"]

    # on a fresh thread, whose directories are all made under work
    with ThreadPoolExecutor(max_workers=1) as pool:
        first, second = pool.submit(two_compiles).result(timeout=30)
    assert os.unlink is unlink
    assert first[1:] == second[1:] == ["input.rs"]
    assert second[0] != first[0]
    assert not list(work.glob("clozefuzz-*"))


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


@pytest.fixture
def poll_calls(monkeypatch):
    """The timeout of every ``poll`` call made on a ``select.poll``
    object, in order."""
    calls = []
    real_poll = select.poll

    class CountedPoll:
        def __init__(self):
            self._poller = real_poll()
            self.register = self._poller.register
            self.unregister = self._poller.unregister

        def poll(self, timeout=None):
            calls.append(timeout)
            return self._poller.poll(timeout)

    monkeypatch.setattr(select, "poll", CountedPoll)
    return calls


def test_a_compile_that_prints_a_little_wakes_only_at_its_exit(
    scripted, poll_calls, monkeypatch
):
    # 200 writes, as rustc prints a few KB of warnings in many: the
    # compiling thread waits for the exit, not for each write. A beat
    # longer than the compile leaves the exit as the one wakeup, however
    # slowly the compiler is scheduled
    monkeypatch.setattr(harness, "_BEAT", 10.0)
    body = """
    i=0
    while [ $i -lt 200 ]; do echo "warning: unused parens $i" >&2; i=$((i + 1)); done
    exit 0
    """
    outcome = compile_program("fn main() {}", fake_cfg(scripted("chatty", body)))
    assert outcome.exit_status == 0
    lines = [f"warning: unused parens {i}\n" for i in range(200)]
    assert outcome.stderr == "".join(lines)
    assert len(poll_calls) == 1


def test_a_loud_compiler_is_read_eagerly_once_a_pipe_fills(scripted):
    # 64 times what a pipe holds by default: read only once a beat, it
    # would block the compiler for beats on end and time out
    body = """
    head -c 4194304 /dev/zero | tr '\\0' 'w' >&2
    sleep 0.5
    exit 0
    """
    cfg = fake_cfg(scripted("loud", body), timeout_secs=5.0)
    outcome = compile_program("fn main() {}", cfg)
    assert not outcome.timed_out
    assert classify(outcome, "scripted-fake") is BugKind.PASS
    assert outcome.stderr == "w" * STREAM_CAP + TRUNCATION_MARKER
    assert outcome.wall_time < 2.5


def test_a_pipe_that_ends_while_the_compiler_runs_is_no_longer_watched(scripted):
    # stderr is found full, then closed while the compiler sleeps on: a
    # pipe still watched at its end would wake every poll at once
    body = """
    head -c 4194304 /dev/zero | tr '\\0' 'w' >&2
    exec 2>&-
    sleep 0.5
    exit 0
    """
    cfg = fake_cfg(scripted("closes", body), timeout_secs=5.0)
    cpu = time.thread_time()
    outcome = compile_program("fn main() {}", cfg)
    cpu = time.thread_time() - cpu
    assert outcome.exit_status == 0
    assert outcome.stderr == "w" * STREAM_CAP + TRUNCATION_MARKER
    assert cpu < 0.2


def test_an_escapee_writing_forever_does_not_hold_the_compile(
    scripted, tmp_path, monkeypatch
):
    # one byte a read under a 64 KiB cap, a pipe's default size: the
    # escapee refills the pipe faster than it is read, so the last drain
    # would go on for as long as the escapee writes, but for the cap
    monkeypatch.setattr(harness, "_READ_SIZE", 1)
    monkeypatch.setattr(harness, "STREAM_CAP", 1 << 16)
    pidfile = tmp_path / "pid"
    body = (
        f"setsid sh -c 'echo $$ > \"{pidfile}\"; exec yes escaped' >&2 &\n"
        f'until [ -s "{pidfile}" ]; do sleep 0.01; done\n'
        "exit 0\n"
    )
    cfg = fake_cfg(scripted("spews", body), timeout_secs=5.0)
    outcomes = []
    worker = threading.Thread(
        target=lambda: outcomes.append(compile_program("fn main() {}", cfg))
    )
    started = time.monotonic()
    worker.start()
    try:
        worker.join(timeout=3.0)
        elapsed = time.monotonic() - started
    finally:
        try:
            os.killpg(_pid_from(pidfile), signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert elapsed < 1.0
    (outcome,) = outcomes
    assert not outcome.timed_out and outcome.exit_status == 0
    assert outcome.stderr.startswith("escaped\n")
    assert len(outcome.stderr) <= (1 << 16) + len(TRUNCATION_MARKER)


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


def test_a_targets_environment_is_read_once_at_first_use(scripted, monkeypatch):
    body = """
    echo "lang=[$LANG]"
    exit 0
    """
    monkeypatch.setenv("LANG", "first")
    cfg = fake_cfg(scripted("lang", body))
    assert compile_program("fn main() {}", cfg).stdout == "lang=[first]\n"
    monkeypatch.setenv("LANG", "second")
    assert compile_program("fn main() {}", cfg).stdout == "lang=[first]\n"
    later = fake_cfg(cfg.binary_path)
    assert compile_program("fn main() {}", later).stdout == "lang=[second]\n"


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
    assert probe == f"probe {cwd} which --toolchain tc rustc"
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
    "layout",
    [
        {"probe_exit": 1},
        {"toolchain_rustc": False},
        {"prints": os.path.join("toolchain", "bin", "rustc")},
    ],
    ids=["probe fails", "no toolchain rustc", "relative path"],
)
def test_a_proxy_that_names_no_toolchain_rustc_runs_as_given(
    rustup_layout, layout, tmp_path, monkeypatch
):
    proxy, log, _ = rustup_layout(**layout)
    # a relative answer names the toolchain rustc from here, and is
    # still refused
    monkeypatch.chdir(tmp_path)
    cfg = CompilerConfig(binary_path=proxy, extra_flags=("+tc", "--emit=obj"))
    compile_program("fn main() {}", cfg)
    compile_program("fn main() {}", cfg)
    # the probe is not retried, and the proxy keeps every flag
    assert logged(log) == [
        f"probe {os.path.realpath(tempfile.gettempdir())} which --toolchain tc rustc",
        "proxy +tc --emit=obj input.rs",
        "proxy +tc --emit=obj input.rs",
    ]


def test_a_clippy_driver_proxy_runs_the_toolchain_clippy_driver(rustup_layout):
    proxy, log, driver = rustup_layout(name="clippy-driver")
    # the toolchain's rustc sits beside it, and must not be run
    rustc = Path(driver).with_name("rustc")
    rustc.write_text(f'#!/bin/sh\necho "rustc $*" >> "{log}"\n')
    rustc.chmod(0o755)
    cfg = CompilerConfig(binary_path=proxy)
    assert compile_program("fn main() {}", cfg).exit_status == 0
    assert logged(log) == [
        f"probe {os.path.realpath(tempfile.gettempdir())} which clippy-driver",
        f"{driver} -C opt-level=0 --emit=obj input.rs",
    ]
    assert cfg.command("x.rs")[0] == driver


@pytest.mark.skipif(
    shutil.which("clippy-driver") is None, reason="no clippy-driver on PATH"
)
def test_live_clippy_driver_lints_as_clippy():
    outcome = compile_program(
        "fn main() { let x = 1; if x == x {} }\n",
        CompilerConfig(binary_path="clippy-driver"),
    )
    # clippy::eq_op is deny by default; plain rustc passes this program
    assert classify(outcome, "rustc") is not BugKind.PASS, outcome.stderr
    assert "eq_op" in outcome.stderr


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
    assert not any(line.startswith("probe ") for line in lines)


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


def _nightly_installed() -> bool:
    if not _rustup_proxy_on_path():
        return False
    rustup = os.path.join(os.path.dirname(shutil.which("rustc")), "rustup")
    which = subprocess.run(
        [rustup, "which", "--toolchain", "nightly", "rustc"],
        cwd=tempfile.gettempdir(),
        capture_output=True,
        timeout=60,
    )
    return which.returncode == 0


@pytest.mark.skipif(
    not _nightly_installed(), reason="no rustup proxy with a nightly toolchain"
)
def test_live_plus_toolchain_runs_that_toolchain_rustc():
    sysroot = subprocess.run(
        ["rustc", "+nightly", "--print", "sysroot"],
        cwd=tempfile.gettempdir(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.strip()
    cfg = CompilerConfig(
        binary_path="rustc", extra_flags=("+nightly", "-C", "opt-level=0", "--emit=obj")
    )
    outcome = compile_program("fn main() {}\n", cfg)
    assert classify(outcome, "rustc") is BugKind.PASS, outcome.stderr
    assert cfg.command("input.rs") == [
        os.path.join(sysroot, "bin", "rustc"),
        "-C", "opt-level=0", "--emit=obj", "input.rs",
    ]


# compiles once and prints its scratch directory; then, with "hold",
# keeps it until its stdin closes
SCRATCH_CHILD = """
import sys
from clozefuzz.harness import CompilerConfig, compile_program
cfg = CompilerConfig(binary_path=sys.argv[1], kind="scripted-fake")
print(compile_program("fn main() {}", cfg).stdout.strip(), flush=True)
if sys.argv[2] == "hold":
    sys.stdin.read()
"""


def test_the_first_compile_sweeps_what_killed_processes_left(scripted, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    compiler = scripted("pwd", "pwd\nexit 0\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "TMPDIR": str(tmp), "PYTHONPATH": src}

    def start(mode):
        proc = subprocess.Popen(
            [sys.executable, "-c", SCRATCH_CHILD, compiler, mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        return proc, proc.stdout.readline().strip()

    live, live_dir = start("hold")
    killed, killed_dir = start("hold")
    try:
        killed.kill()
        killed.wait(timeout=30)
        killed.stdin.close()
        killed.stdout.close()
        assert os.path.basename(killed_dir).startswith(f"clozefuzz-{killed.pid}-")
        assert os.path.isdir(killed_dir)
        # named like a dead process's directory, but not a real directory
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "keep").write_text("keep me\n")
        link = tmp / f"clozefuzz-{killed.pid}-link"
        link.symlink_to(outside)
        plain = tmp / f"clozefuzz-{killed.pid}-file"
        plain.write_text("keep me\n")

        done = subprocess.run(
            [sys.executable, "-c", SCRATCH_CHILD, compiler, "exit"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        own_dir = done.stdout.strip()
        assert not os.path.exists(killed_dir)
        assert os.path.isdir(live_dir)
        assert link.is_symlink() and (outside / "keep").is_file()
        assert plain.read_text() == "keep me\n"
        assert not os.path.exists(own_dir)
    finally:
        live.stdin.close()
        live.wait(timeout=30)
        live.stdout.close()
    assert sorted(p.name for p in tmp.iterdir()) == sorted([link.name, plain.name])
