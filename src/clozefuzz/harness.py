"""Compiler invocation harness.

Runs a compiler on candidate programs, with a hard wall-clock limit,
process-group cleanup, and capped output capture. Each thread that
compiles keeps one scratch directory for its lifetime, emptied after
every compile. Its name holds the pid of its process, so that a later process can remove
it once that one has been killed. A compile ends when its compiler
does: its process group is killed then, so neither a straggler in the
group nor a process that escaped it can hold the compile open through
the pipes. While the compiler runs, the compiling thread waits for its
exit alone and empties the pipes once a beat, so a compile that prints
a few KB wakes it once, not once per write; a pipe found full is read
as soon as it is readable from then on. The cap holds while the
output is read: past ``STREAM_CAP`` bytes a stream is read on and
thrown away, so a compiler that prints gigabytes costs no memory.
Output printed before a timeout is kept, so ``time_passes`` can locate
a hang from the pass-timing lines of the compile that timed out (rustc
prints them under ``-Ztime-passes``, which callers opt into through
the compiler flags) without compiling the program again.
A compile is registered while it runs, so ``killing_compiles`` can
stop them all at once when a campaign ends with compiles in flight.

Supported compiler kinds: "rustc", "mrustc", and "scripted-fake" (a
stand-in executable used by the test suite and for offline dry runs).

Each target's command is resolved, and its environment read, once
(``ensure_compiler``). A rustc target that is rustup's proxy is
replaced there by its toolchain's own rustc, found with one ``--print
sysroot`` probe, because the proxy re-reads rustup's settings on every
run before it starts that same binary; a leading ``+toolchain`` flag
picks the toolchain at that point. Every other target runs as given.
"""

from __future__ import annotations

import fcntl
import os
import re
import select
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

COMPILER_KINDS = ("rustc", "mrustc", "scripted-fake")

# rustc stopped accepting -O0 long ago; opt-level=0 is the spelling
# that works. --emit=obj runs every rustc pass through LLVM codegen but
# stops before the system linker: a link failure is never a compiler
# bug, and linking is about half of a small compile. A program that
# fails only at link time therefore classifies as pass. To link
# again, give --flags "-C opt-level=0". The fake compiler tolerates
# anything.
DEFAULT_FLAGS: dict[str, tuple[str, ...]] = {
    "rustc": ("-C", "opt-level=0", "--emit=obj"),
    "mrustc": (),
    "scripted-fake": ("-O0",),
}

STREAM_CAP = 1 << 20  # bytes kept per stream
_READ_SIZE = 1 << 15  # bytes read from a pipe at a time, as subprocess reads
_BEAT = 0.1  # seconds a running compiler's output may wait to be read
TRUNCATION_MARKER = "\n...[output truncated]"

ENV_ALLOWLIST = (
    "PATH",
    "HOME",
    "TMPDIR",
    "TMP",
    "TEMP",
    "USER",
    "LANG",
    "LC_ALL",
    # rustup installs rustc as a proxy that resolves the real toolchain
    # through these. A rustc proxy is run once, for the sysroot probe,
    # and then bypassed; other targets (wrapper scripts, a proxy whose
    # probe failed) may still go through rustup on every compile, and
    # stripping these makes each of those compiles fail before it ever
    # reaches the compiler under test
    "RUSTUP_HOME",
    "CARGO_HOME",
    "RUSTUP_TOOLCHAIN",
    # custom compiler builds routinely live outside the default loader
    # paths (stage builds, separate LLVM)
    "LD_LIBRARY_PATH",
)


class HarnessError(Exception):
    """Compiler missing or not runnable."""


@dataclass
class CompilerConfig:
    binary_path: str
    kind: str = "rustc"
    extra_flags: tuple[str, ...] | None = None
    timeout_secs: float = 180.0
    # the argv before the input file and the compiler's environment,
    # both set by ensure_compiler on first use
    _argv: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _env: dict[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in COMPILER_KINDS:
            raise ValueError(f"unknown compiler kind: {self.kind!r}")
        if self.timeout_secs <= 0:
            raise ValueError("timeout_secs must be positive")
        if self.extra_flags is None:
            self.extra_flags = DEFAULT_FLAGS[self.kind]
        else:
            self.extra_flags = tuple(self.extra_flags)

    def resolved_binary(self) -> str:
        if Path(self.binary_path).is_file():
            # absolute, because compiles run from a scratch directory;
            # not resolved, because a rustup proxy dispatches on its
            # name (ensure_compiler may later bypass the proxy)
            return os.path.abspath(self.binary_path)
        found = shutil.which(self.binary_path)
        if found:
            return found
        raise HarnessError(f"compiler binary not found: {self.binary_path}")

    def command(self, input_name: str) -> list[str]:
        """The argv that compiles ``input_name``, resolved once per
        config by ``ensure_compiler``. Compiles and each bundle's
        ``repro.sh`` both use it, so a bundle reruns the exact binary
        the campaign ran."""
        return [*ensure_compiler(self), input_name]


@dataclass
class CompileOutcome:
    exit_status: int
    stdout: str
    stderr: str
    wall_time: float
    timed_out: bool
    artifact_present: bool


def ensure_compiler(cfg: CompilerConfig) -> tuple[str, ...]:
    """Resolve the binary, require it to be executable, and return the
    argv that precedes the input file.

    Raised errors here are hard: callers check availability before
    spending any compile budget. A rustc target that is rustup's proxy
    resolves to its toolchain's rustc, without a leading ``+toolchain``
    flag. The result is cached on ``cfg``, so a campaign, its preflight
    and every pool thread share one resolution and one probe; two
    threads racing on first use compute the same value. The compiler's
    environment is read from ``os.environ`` at the same point, once,
    and cached with it.
    """
    argv = cfg._argv
    if argv is None:
        binary = cfg.resolved_binary()
        if not os.access(binary, os.X_OK):
            raise HarnessError(f"compiler binary not executable: {binary}")
        env = _subprocess_env()
        direct = None
        if cfg.kind == "rustc" and _is_rustup_proxy(binary):
            direct = _toolchain_argv(binary, cfg, env)
        # the environment first: a thread that sees the argv uses both
        cfg._env = env
        argv = cfg._argv = direct or (binary, *cfg.extra_flags)
    return argv


def _is_rustup_proxy(binary: str) -> bool:
    rustup = os.path.join(os.path.dirname(binary), "rustup")
    try:
        # samefile follows rustup's symlinks and sees its hardlinks
        return os.access(rustup, os.X_OK) and os.path.samefile(binary, rustup)
    except OSError:
        return False


def _toolchain_argv(
    proxy: str, cfg: CompilerConfig, env: dict[str, str]
) -> tuple[str, ...] | None:
    """The argv that runs the toolchain rustc behind a rustup proxy
    directly, or None when the proxy cannot name one.

    The probe runs from the parent of every compile's scratch directory,
    so rustup applies the toolchain overrides a compile would see there.
    """
    flags = cfg.extra_flags
    plus = flags[:1] if flags and flags[0].startswith("+") else ()
    try:
        done = subprocess.run(
            [proxy, *plus, "--print", "sysroot"],
            cwd=tempfile.gettempdir(),
            env=env,
            capture_output=True,
            timeout=cfg.timeout_secs,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sysroot = done.stdout.decode("utf-8", errors="replace").strip()
    if done.returncode != 0 or not sysroot:
        return None
    rustc = os.path.join(sysroot, "bin", "rustc")
    if not (os.path.isfile(rustc) and os.access(rustc, os.X_OK)):
        return None
    return (rustc, *flags[len(plus):])


def _subprocess_env() -> dict[str, str]:
    env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
    # backtraces make ICE signatures much more precise
    env["RUST_BACKTRACE"] = "1"
    return env


def _cap_stream(data: bytes) -> str:
    if len(data) <= STREAM_CAP:
        return data.decode("utf-8", errors="replace")
    # the cap is in bytes, so cut the bytes, at the start of a UTF-8
    # character (at most three continuation bytes back) so the cut
    # itself adds no replacement character
    cut = STREAM_CAP
    while cut > STREAM_CAP - 3 and data[cut] & 0xC0 == 0x80:
        cut -= 1
    return data[:cut].decode("utf-8", errors="replace") + TRUNCATION_MARKER


def _drain(fd: int, kept: bytearray, limit: int) -> int | None:
    """Read what ``fd`` holds, without blocking, until it is empty or
    ``limit`` bytes were read, and keep what fits under the cap in
    ``kept``. Returns the bytes read, or None at end of stream."""
    got = 0
    while got < limit:
        try:
            chunk = os.read(fd, _READ_SIZE)
        except BlockingIOError:
            break
        if not chunk:
            return None
        got += len(chunk)
        room = STREAM_CAP + 1 - len(kept)
        if room > 0:
            kept += chunk[:room]
    return got


def _communicate(
    proc: subprocess.Popen, timeout: float
) -> tuple[bytes, bytes, bool]:
    """``proc.communicate(timeout)`` that keeps at most ``STREAM_CAP``
    + 1 bytes of each stream, enough for ``_cap_stream`` to see the
    cut, and throws the rest away as it arrives.

    While the compiler runs, only its exit is waited for, a beat
    (``_BEAT``) at a time, so a compile that prints a little wakes this
    thread once, when it exits, not once per write. Each pipe is
    emptied without blocking at every beat. A pipe found full is then
    read as soon as it is readable, so a loud compiler waits at most
    one beat on a full pipe and ends with its own exit status. On
    timeout its process group is killed. Once the compiler has exited,
    its group is killed and what the pipes already hold is read, up to
    the cap: a process that left the group may hold them open and write
    forever, and is not waited for. Returns ``(stdout, stderr, timed
    out)``.
    """
    deadline = time.monotonic() + timeout
    out, err = bytearray(), bytearray()
    kept = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    # each pipe not at end of stream, and the most one drain reads of
    # it: the pipe's size, so a drain that reads that much found it full
    open_pipes = {}
    for fd in kept:
        os.set_blocking(fd, False)
        open_pipes[fd] = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    timed_out = False
    # poll, not epoll, which makes and closes a kernel object per compile
    poller = select.poll()
    # readable once the compiler has exited, and still unreaped
    pidfd = os.pidfd_open(proc.pid)
    try:
        poller.register(pidfd, select.POLLIN)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 and not timed_out:
                timed_out = True
                _kill_process_group(proc)
            wait = None if timed_out else min(left, _BEAT) * 1000
            if any(fd == pidfd for fd, _ in poller.poll(wait)):
                break
            for fd, limit in list(open_pipes.items()):
                got = _drain(fd, kept[fd], limit)
                if got is None:
                    del open_pipes[fd]
                    with suppress(KeyError):  # watched only once found full
                        poller.unregister(fd)
                elif got >= limit:
                    poller.register(fd, select.POLLIN)  # again is a no-op
        # unreaped, the compiler still holds its group id, so the kill
        # cannot reach a group that reused it
        _kill_process_group(proc)
        # read what is already there, and stop at the cap: past it
        # nothing is kept, and no writer is left to unblock
        for fd in open_pipes:
            _drain(fd, kept[fd], STREAM_CAP + 1 - len(kept[fd]))
    finally:
        os.close(pidfd)
    proc.wait()
    return bytes(out), bytes(err), timed_out


def _kill_process_group(proc: subprocess.Popen) -> None:
    # start_new_session makes the compiler its group's leader, and a
    # session leader cannot leave its group, so the group id is its pid
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class _Scratch:
    """A thread's scratch directory, removed once nothing holds this
    object: when its thread ends, when it is dropped, or at interpreter
    exit."""

    def __init__(self) -> None:
        _sweep_stale_scratch()
        self.path = tempfile.mkdtemp(prefix=f"clozefuzz-{os.getpid()}-")
        weakref.finalize(self, shutil.rmtree, self.path, ignore_errors=True)


_SCRATCH_NAME = re.compile(r"clozefuzz-(\d{1,9})-")  # nine digits fit any pid_t
_swept = threading.Lock()  # taken by this process's first sweep, never released


def _sweep_stale_scratch() -> None:
    """Once per process, remove each ``clozefuzz-<pid>-*`` directory under
    the temp root that this user owns and whose process is gone."""
    if not _swept.acquire(blocking=False):
        return
    try:
        with os.scandir(tempfile.gettempdir()) as listing:
            entries = list(listing)
    except OSError:
        return
    for entry in entries:
        match = _SCRATCH_NAME.match(entry.name)
        if not match:  # this process's own pid is alive, so never swept
            continue
        try:
            st = entry.stat(follow_symlinks=False)
            if entry.is_dir(follow_symlinks=False) and st.st_uid == os.getuid():
                os.kill(int(match[1]), 0)  # signal 0 only asks if the pid exists
        except ProcessLookupError:
            shutil.rmtree(entry.path, ignore_errors=True)
        except OSError:
            pass  # gone meanwhile, or the pid names another user's process


# each thread's _Scratch, made on its first compile
_local = threading.local()


def _write_input(program: str) -> str:
    """Write ``program`` as input.rs into this thread's scratch
    directory, and return the directory.

    input.rs is always created anew, never opened through a link a
    compiler left. A directory that has gone, or that already holds an
    input.rs, is replaced by a fresh one.
    """
    data = program.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    scratch = getattr(_local, "scratch", None) or _Scratch()
    try:
        fd = os.open(os.path.join(scratch.path, "input.rs"), flags, 0o666)
    except (FileNotFoundError, FileExistsError):
        scratch = _Scratch()
        fd = os.open(os.path.join(scratch.path, "input.rs"), flags, 0o666)
    _local.scratch = scratch
    with open(fd, "wb") as f:
        f.write(data)
    return scratch.path


def _empty(workdir: str) -> bool:
    """Empty this thread's scratch directory after a compile, and say
    whether the compile left anything beside input.rs.

    Links are removed, never followed. A directory that cannot be
    emptied is dropped, so the thread's next compile makes a fresh one.
    """
    artifact = False
    try:
        with os.scandir(workdir) as listing:
            entries = list(listing)
        for entry in entries:
            artifact = artifact or entry.name != "input.rs"
            if entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path)
            else:
                os.unlink(entry.path)
    except OSError:
        # its finalizer removes what it can
        _local.scratch = None
    return artifact


# every compile between its spawn and its reap, so a campaign that
# stops can kill the compiles its pool threads still run
_running: set[subprocess.Popen] = set()
_running_lock = threading.Lock()
_killing = False


@contextmanager
def killing_compiles():
    """Kill every compile running in this process, and each one that
    starts before the block exits, such as a queued compile a pool
    thread takes while the pool shuts down inside the block. Their
    ``compile_program`` calls return the outcome of a killed process."""
    global _killing
    with _running_lock:
        _killing = True
        for proc in _running:
            if proc.returncode is None:
                _kill_process_group(proc)
    try:
        yield
    finally:
        with _running_lock:
            _killing = False


def compile_program(program: str, cfg: CompilerConfig) -> CompileOutcome:
    """Compile one program text and report what happened.

    The compiler runs in this thread's scratch directory, made under
    ``TMPDIR`` when it is set, with input.rs as the only file there, so
    object files and temporaries stay contained. The directory is
    emptied after the compile and kept for the thread's next one.
    A compile ends when its compiler exits or is killed on timeout;
    either way its whole process group is then killed, so rustc's
    child processes do not linger, and what it printed is kept.
    However the call ends, Ctrl-C included, a compiler still running
    is killed with its group and reaped, and the directory emptied.
    """
    cmd = cfg.command("input.rs")
    workdir = _write_input(program)
    proc = None
    try:
        started = time.monotonic()
        try:
            proc = subprocess.Popen(
                cmd,
                cwd=workdir,
                env=cfg._env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise HarnessError(f"failed to spawn {cmd[0]}: {exc}") from exc
        with _running_lock:
            _running.add(proc)
            if _killing:
                _kill_process_group(proc)
        out, err, timed_out = _communicate(proc, cfg.timeout_secs)
        wall = time.monotonic() - started
    finally:
        if proc is not None:
            with _running_lock:
                _running.discard(proc)
            # once reaped, the pid may already name another process
            if proc.returncode is None:
                _kill_process_group(proc)
            proc.stdout.close()
            proc.stderr.close()
            proc.wait()
        artifact_present = _empty(workdir)
    return CompileOutcome(
        exit_status=proc.returncode,
        stdout=_cap_stream(out),
        stderr=_cap_stream(err),
        wall_time=wall,
        timed_out=timed_out,
        artifact_present=artifact_present,
    )


def time_passes(outcome: CompileOutcome) -> list[tuple[str, float]]:
    """The ``(pass name, seconds)`` entries a compile printed, in order.

    Reads the ``time:`` lines of ``-Ztime-passes`` from the captured
    stdout and stderr; lines that do not parse are skipped. A compile
    run without pass timing yields an empty list.
    """
    entries: list[tuple[str, float]] = []
    for line in (outcome.stdout + "\n" + outcome.stderr).splitlines():
        parts = line.split()
        if len(parts) < 3 or parts[0] != "time:":
            continue
        try:
            secs = float(parts[1].rstrip(";").rstrip("s"))
        except ValueError:
            continue
        # modern rustc wedges an rss segment between seconds and the
        # pass name; the name is always the last field either way
        entries.append((parts[-1], secs))
    return entries
