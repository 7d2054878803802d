"""The fork server behind a rustc target's compiles.

Most tests stand ``/bin/sh -c SCRIPT`` in for the compiler: a dynamic
binary that the shim serves as it serves rustc. A script acts only on
a program that says HAZARD, so the self-check that vets each target
(two compiles of a fixed program) sees the same quiet run both ways.
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import dead

from clozefuzz import campaign, harness
from clozefuzz.campaign import CampaignConfig, run_campaign
from clozefuzz.harness import CompilerConfig, compile_program, killing_compiles
from clozefuzz.infill import InfillConfig, MockBackend

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler to build the fork server"
)

HAZARD = "// HAZARD\nfn main() {}\n"


def sh_cfg(hazard: str, timeout: float = 5.0) -> CompilerConfig:
    """/bin/sh as a compiler that runs ``hazard`` for a HAZARD program,
    after printing the pid of its parent: a server, or this process."""
    script = f'case "$(cat "$1")" in *HAZARD*) echo $PPID; {hazard} ;; esac'
    return CompilerConfig(
        binary_path="/bin/sh",
        kind="scripted-fake",
        extra_flags=("-c", script, "sh"),
        timeout_secs=timeout,
    )


def served(program: str, cfg: CompilerConfig):
    return harness._compile(program, cfg, True)


def server_pids() -> set[int]:
    return {server.proc.pid for server in list(harness._servers.values())}


def _retire_all() -> None:
    for workdir in list(harness._servers):
        harness._retire(workdir)


@pytest.fixture(autouse=True)
def no_server_left():
    _retire_all()
    yield
    _retire_all()


def _reaped(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _wait_for(path: Path, within: float = 10.0) -> list[int]:
    give_up = time.monotonic() + within
    while not (path.exists() and path.read_text().endswith("\n")):
        assert time.monotonic() < give_up, f"{path.name} was never written"
        time.sleep(0.01)
    return [int(word) for word in path.read_text().split()]


def _in_thread(fn):
    """Run ``fn`` on a thread of its own; return the thread and a list
    that receives its result."""
    results = []
    worker = threading.Thread(target=lambda: results.append(fn()))
    worker.start()
    return worker, results


@needs_cc
def test_a_compile_goes_through_the_threads_server_and_keeps_it():
    cfg = sh_cfg("echo out; echo err >&2; exit 3")
    first = served(HAZARD, cfg)
    (server,) = server_pids()
    assert first.stdout == f"{server}\nout\n"
    assert (first.stderr, first.exit_status, first.timed_out) == ("err\n", 3, False)
    assert served(HAZARD, cfg).stdout == f"{server}\nout\n"
    # a plain spawn's parent is this process
    assert harness._compile(HAZARD, cfg, False).stdout == f"{os.getpid()}\nout\n"


@needs_cc
def test_a_served_compile_that_times_out_has_its_group_killed(tmp_path):
    pidfile = tmp_path / "pid"
    cfg = sh_cfg(f'sleep 30 & echo $! > "{pidfile}"; sleep 30', timeout=0.5)
    started = time.monotonic()
    outcome = served(HAZARD, cfg)
    assert time.monotonic() - started < 3.0
    assert outcome.timed_out and outcome.exit_status == -signal.SIGKILL
    assert outcome.stdout.strip() == str(*server_pids())
    (straggler,) = _wait_for(pidfile)
    assert dead(straggler)


@needs_cc
def test_an_escapee_writing_forever_does_not_hold_a_served_compile(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(harness, "_READ_SIZE", 1)
    monkeypatch.setattr(harness, "STREAM_CAP", 1 << 16)
    pidfile = tmp_path / "pid"
    cfg = sh_cfg(
        f"setsid sh -c 'echo $$ > \"{pidfile}\"; exec yes escaped' >&2 & "
        f'until [ -s "{pidfile}" ]; do sleep 0.01; done; exit 0'
    )
    served("fn main() {}\n", cfg)  # vets the target and starts the server
    started = time.monotonic()
    worker, outcomes = _in_thread(lambda: served(HAZARD, cfg))
    try:
        worker.join(timeout=3.0)
        elapsed = time.monotonic() - started
    finally:
        (escapee,) = _wait_for(pidfile)
        try:
            os.killpg(escapee, signal.SIGKILL)
        except ProcessLookupError:
            pass
        worker.join(timeout=10.0)
    assert elapsed < 1.0
    (outcome,) = outcomes
    assert not outcome.timed_out and outcome.exit_status == 0
    assert outcome.stderr.startswith("escaped\n")


@needs_cc
def test_killing_compiles_reaches_a_served_compile_and_stops_its_server(tmp_path):
    pidfile = tmp_path / "pid"
    cfg = sh_cfg(f'echo "$PPID $$" > "{pidfile}"; exec sleep 30', timeout=30.0)
    # the worker hands out its scratch directory, so that its end does
    # not remove the directory and, with it, the server
    worker, outcomes = _in_thread(
        lambda: (served(HAZARD, cfg), harness._local.scratch)
    )
    server, compile_pid = _wait_for(pidfile)
    started = time.monotonic()
    with killing_compiles():
        worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert time.monotonic() - started < 2.0
    ((outcome, _),) = outcomes
    assert outcome.exit_status == -signal.SIGKILL and not outcome.timed_out
    # the worker has ended, so the block's exit stopped and reaped its server
    assert server not in server_pids()
    assert _reaped(server)
    assert dead(compile_pid)


@needs_cc
def test_a_server_killed_mid_compile_is_replaced_by_a_spawn(tmp_path):
    pidfile = tmp_path / "pid"
    # served, the compile waits to be cut; spawned, it answers at once
    cfg = sh_cfg(
        f'[ "$PPID" = "{os.getpid()}" ] || '
        f'{{ echo "$PPID" > "{pidfile}"; sleep 30; }}; echo spawned',
        timeout=30.0,
    )
    worker, outcomes = _in_thread(lambda: served(HAZARD, cfg))
    (server,) = _wait_for(pidfile)
    started = time.monotonic()
    os.kill(server, signal.SIGKILL)
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert time.monotonic() - started < 3.0
    (outcome,) = outcomes
    assert outcome.stdout == f"{os.getpid()}\nspawned\n"
    assert (outcome.exit_status, outcome.timed_out) == (0, False)
    assert _reaped(server)


PARENT = """
import sys
from clozefuzz import harness
from clozefuzz.harness import CompilerConfig
cfg = CompilerConfig(
    binary_path="/bin/sh", kind="scripted-fake", timeout_secs=60.0,
    extra_flags=("-c", sys.argv[1], "sh"),
)
harness._compile("// HAZARD\\n", cfg, True)
"""


@needs_cc
def test_a_killed_parent_leaves_no_server_and_no_compile(tmp_path):
    pidfile = tmp_path / "pid"
    script = (
        'case "$(cat "$1")" in *HAZARD*) '
        f'sleep 30 & echo "$PPID $$ $!" > "{pidfile}"; wait ;; esac'
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    parent = subprocess.Popen([sys.executable, "-c", PARENT, script], env=env)
    try:
        server, compile_pid, straggler = _wait_for(pidfile, within=30.0)
        parent.kill()
    finally:
        parent.wait(timeout=30)
    # the server sees its socket close, kills the compile's group and exits
    for pid in (server, compile_pid, straggler):
        assert dead(pid, within=10 * harness._BEAT), pid


@needs_cc
def test_no_server_outlives_run_campaign(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "main.rs").write_text("fn main() { let v = [1, 2]; f(v[0]); }\n")
    seen: set[int] = set()

    def compile_served(program, cfg):
        outcome = served(program, cfg)
        seen.update(server_pids())
        return outcome

    monkeypatch.setattr(campaign, "compile_program", compile_served)
    report = run_campaign(
        CampaignConfig(
            corpus_dir=corpus,
            out_dir=tmp_path / "out",
            compilers=[sh_cfg("exit 0")],
            infill=InfillConfig(backend=MockBackend(["1", "2", "3"])),
            budget_candidates=8,
            workers=2,
        )
    )
    assert report.candidates_compiled == 8
    assert seen
    assert not server_pids()
    assert all(_reaped(pid) for pid in seen)


def test_without_cc_compiles_are_spawned_and_that_is_said_once(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(harness, "_verdicts", {})
    # shell builtins only: nothing is on PATH
    cfg = CompilerConfig(
        binary_path="/bin/sh",
        kind="scripted-fake",
        extra_flags=("-c", "echo $PPID", "sh"),
    )
    with caplog.at_level(logging.WARNING, logger="clozefuzz.harness"):
        outcomes = [served(HAZARD, cfg) for _ in range(3)]
    assert [o.stdout for o in outcomes] == [f"{os.getpid()}\n"] * 3
    assert not server_pids()
    (record,) = caplog.records
    assert "compiling by spawn" in record.getMessage()
    assert "(cc)" in record.getMessage()


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory and no verdict yet for any target;
    returns the directory the shim and its verdicts would go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(harness, "_verdicts", {})
    return tmp_path / "cache" / "clozefuzz"


def spawned_with_one_warning(caplog) -> str:
    """Compile three times where no server may serve the target; return
    the one warning that said so. The script prints its parent for
    every program, with shell builtins only."""
    cfg = CompilerConfig(
        binary_path="/bin/sh",
        kind="scripted-fake",
        extra_flags=("-c", "echo $PPID", "sh"),
    )
    with caplog.at_level(logging.WARNING, logger="clozefuzz.harness"):
        outcomes = [served(HAZARD, cfg) for _ in range(3)]
    assert [o.stdout for o in outcomes] == [f"{os.getpid()}\n"] * 3
    assert not server_pids()
    (record,) = caplog.records
    assert "compiling by spawn" in record.getMessage()
    return record.getMessage()


@needs_cc
def test_a_self_check_that_differs_leaves_every_compile_spawned(fresh_cache, caplog):
    # the self-check's program prints its parent too: the server there,
    # this process when spawned
    message = spawned_with_one_warning(caplog)
    assert "differs from a spawned one" in message
    # the shim was built, but no passing verdict was kept beside it
    assert list(fresh_cache.glob("*.so"))
    assert not list(fresh_cache.glob("*.ok"))


def test_a_failing_cc_leaves_no_shim_behind(fresh_cache, tmp_path, monkeypatch, caplog):
    bindir = tmp_path / "bin"
    bindir.mkdir()
    (bindir / "cc").write_text('#!/bin/sh\necho "cc: out of order" >&2\nexit 1\n')
    (bindir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bindir))
    message = spawned_with_one_warning(caplog)
    assert "cc could not build it: cc: out of order" in message
    assert not list(fresh_cache.glob("*.so"))


def test_a_relative_cache_home_is_refused(fresh_cache, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/cache")
    assert "no absolute cache directory" in spawned_with_one_warning(caplog)


def test_a_cache_directory_others_can_use_is_refused(fresh_cache, caplog):
    fresh_cache.mkdir(parents=True)
    fresh_cache.chmod(0o755)
    message = spawned_with_one_warning(caplog)
    assert "is not a directory only this user can use" in message
    assert not list(fresh_cache.iterdir())


def test_a_server_that_never_answers_is_stopped_and_spawning_takes_over(
    monkeypatch, caplog
):
    # no shim is loaded, so the server runs the script as a compiler:
    # it sleeps, and never answers
    monkeypatch.setattr(harness, "_verdicts", {})
    monkeypatch.setattr(harness, "_vet", lambda cmd, cfg: "/nonexistent/shim.so")
    cfg = sh_cfg("sleep 30", timeout=0.5)
    started = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="clozefuzz.harness"):
        outcomes = [served(HAZARD, cfg) for _ in range(2)]
    assert time.monotonic() - started < 5.0
    assert all(o.timed_out and o.stdout == f"{os.getpid()}\n" for o in outcomes)
    assert not server_pids()
    (record,) = caplog.records
    assert "did not start" in record.getMessage()


def test_a_fake_target_never_looks_for_a_server(scripted, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scripted-fake target reached the fork server")

    monkeypatch.setattr(harness, "_server_for", refuse)
    monkeypatch.setattr(harness, "_shim", refuse)
    cfg = CompilerConfig(binary_path=scripted("ok", "exit 0\n"), kind="scripted-fake")
    assert compile_program("fn main() {}", cfg).exit_status == 0


# one program per way a compile can end. The last loops forever in
# const evaluation: rustc's deny-by-default lint would stop it at 0.2 s,
# so it is allowed, and rustc warns again and again until it is killed
LIVE_PROGRAMS = {
    "pass with warnings": "fn main() {\n    let unused = 1;\n}\n",
    "type error": 'fn main() {\n    let x: u32 = "one";\n}\n',
    "parse error": "fn main() {\n    let = ;\n}\n",
    "borrowck error": (
        "fn main() {\n    let v = vec![1];\n    let r = &v;\n    drop(v);\n"
        '    println!("{r:?}");\n}\n'
    ),
    "compile_fail doctest": "fn main() {\n    let x = 5;\n    x = 6;\n}\n",
    "hang": (
        "#![allow(long_running_const_eval)]\nconst FOO: () = loop {};\nfn main() {}\n"
    ),
}


@needs_cc
@pytest.mark.skipif(shutil.which("rustc") is None, reason="no rustc toolchain on PATH")
def test_live_rustc_compiles_the_same_served_and_spawned(monkeypatch):
    cfg = CompilerConfig(binary_path="rustc", timeout_secs=2.0)

    def outcomes(serve: bool) -> dict:
        seen = {}
        for name, text in LIVE_PROGRAMS.items():
            o = harness._compile(text, cfg, serve)
            stderr = o.stderr
            if name == "hang":
                # how many times rustc repeats its warning before the
                # kill depends on its speed, not on how it was started
                stderr = sorted(set(stderr.split("\n\n")))
            seen[name] = (o.exit_status, o.stdout, stderr, o.timed_out)
        return seen

    spawned = outcomes(False)
    # vets the target, then proves every compile after it is served
    served(LIVE_PROGRAMS["type error"], cfg)
    assert server_pids()

    def refuse(*args, **kwargs):
        raise AssertionError("compiled by spawn")

    monkeypatch.setattr(harness.subprocess, "Popen", refuse)
    assert outcomes(True) == spawned
    assert spawned["hang"][:2] == (-signal.SIGKILL, "") and spawned["hang"][3]
    assert any("taking a long time" in block for block in spawned["hang"][2])
    status, _, stderr, _ = spawned["pass with warnings"]
    assert status == 0 and "unused" in stderr
    assert all(spawned[name][0] == 1 for name in list(LIVE_PROGRAMS)[1:5])
