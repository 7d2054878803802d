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
A compile given a ``cancel`` event is killed the same way at its first
beat after the event is set, so one caller can drop its own compiles
and leave the others running.

Every target's compiles go through a fork server, one per compiling
thread, which pays the compiler's start-up (for rustc, loading and
relocating ``librustc_driver`` and LLVM) once instead of once per
compile. The server is the target's own command, started in the
thread's scratch directory with the shim ``forkserver.c`` preloaded
(``LD_PRELOAD``, with ``LD_BIND_NOW``). A script is served through the
interpreter the kernel execs for it, since the shim is preloaded into
that. Before the compiler's ``main`` the shim takes requests on a
socket, handed over as its stdin and moved to fd 198, and forks a
ready copy per compile, which gets the compile's pipes, its own
process group and the plain environment. Every compile, served or
spawned, reads ``/dev/null`` as its stdin. The
copy is captured, timed out and killed exactly as a spawned compiler
is, and the server reaps it only once its group has been killed. The
server lives as long as the scratch directory; it exits when it is
stopped or when the socket closes because this process died, killing
a compile in flight. ``killing_compiles`` stops the servers of threads
that have ended. ``repro.sh`` stays a plain command.

The shim is built with ``cc`` at first use and kept, named by the
SHA-256 of its source, in ``$XDG_CACHE_HOME/clozefuzz`` (by default
``~/.cache/clozefuzz``), a directory that must be this user's and
closed to others. The first time a compiler build runs with a set of
flags, a fixed erroring program is compiled both ways; the server is
used only if status, stdout and stderr agree, and that verdict is kept
beside the shim, keyed on the argv and the binary's size and mtime;
a command keeps the verdict of its latest build only.
Compiles are spawned instead, and a warning says why once per process
and target, when ``cc`` is missing or the build fails, the cache
directory is unusable, the server does not answer its handshake, or
the self-check differs, times out or is cut short by
``killing_compiles``. A server lost mid-compile is dropped and that
compile run again by spawn, so a lost server changes no outcome. A
compile whose binary has gone is spawned too, so that it fails as the
compiler it cannot start.

Supported compiler kinds: "rustc", "mrustc", and "scripted-fake" (a
stand-in executable used by the test suite and for offline dry runs).

Each target's command is resolved, and its environment read, once
(``ensure_compiler``). A rustc target that is rustup's proxy is
replaced there by the toolchain's binary of the proxy's own name (a
``clippy-driver`` proxy runs clippy's driver), which one ``rustup
which`` names without starting a compiler. The proxy would re-read
rustup's settings on every run before starting that same binary. A
leading ``+toolchain`` flag picks the toolchain. Every other target,
and a proxy rustup names no binary for, runs as given.
"""

from __future__ import annotations

import fcntl
import functools
import glob
import hashlib
import logging
import os
import re
import select
import shutil
import signal
import socket
import stat
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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

_SHIM_SOURCE = Path(__file__).with_name("forkserver.c")
# compiled by spawn and through a fork server the first time a compiler
# build runs with a set of flags; the two must agree
_SELF_CHECK = 'fn main() {\n    let x: u32 = "one";\n}\n'

logger = logging.getLogger(__name__)

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
    # through these. A rustc proxy is resolved once, by ``rustup which``,
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
    resolves to its toolchain's binary of the same name, without a
    leading ``+toolchain`` flag. The result is cached on ``cfg``, so a
    campaign and every compile on its pool, seed checks included, share
    one resolution and one probe; two threads racing on first use
    compute the same value. The compiler's environment is read from
    ``os.environ`` at the same point, once, and cached with it.
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
    """The argv that runs the toolchain binary of the proxy's own name
    (rustup's clippy-driver proxy names clippy's driver, not rustc)
    directly, or None when rustup cannot name one.

    One ``rustup which`` names it without starting the compiler. It runs
    from the parent of every compile's scratch directory, so rustup
    applies the toolchain overrides a compile would see there.
    """
    flags = cfg.extra_flags
    plus = flags[:1] if flags and flags[0].startswith("+") else ()
    toolchain = ("--toolchain", plus[0][1:]) if plus else ()
    rustup = os.path.join(os.path.dirname(proxy), "rustup")
    try:
        done = subprocess.run(
            [rustup, "which", *toolchain, os.path.basename(proxy)],
            cwd=tempfile.gettempdir(),
            env=env,
            capture_output=True,
            timeout=cfg.timeout_secs,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    direct = os.fsdecode(done.stdout).strip()
    named = done.returncode == 0 and os.path.isabs(direct)
    if not (named and os.path.isfile(direct) and os.access(direct, os.X_OK)):
        return None
    return (direct, *flags[len(plus):])


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
    pid: int,
    fds: tuple[int, int],
    timeout: float,
    cancel: threading.Event | None = None,
) -> tuple[bytes, bytes, bool]:
    """Capture the compile ``pid`` until it exits, from the read ends
    ``fds`` of its stdout and stderr, keeping at most ``STREAM_CAP`` + 1
    bytes of each stream, enough for ``_cap_stream`` to see the cut, and
    throwing the rest away as it arrives.

    While the compiler runs, only its exit is waited for, a beat
    (``_BEAT``) at a time, so a compile that prints a little wakes this
    thread once, when it exits, not once per write. Each pipe is
    emptied without blocking at every beat. A pipe found full is then
    read as soon as it is readable, so a loud compiler waits at most
    one beat on a full pipe and ends with its own exit status. On
    timeout its process group is killed, and so it is at the first beat,
    the very start included, that finds ``cancel`` set; a cancelled
    compile has not timed out. Once the compiler has exited, its group
    is killed and what the pipes already hold is read, up to the cap: a
    process that left the group may hold them open and write forever,
    and is not waited for. The compiler is left unreaped, for the
    caller. Returns ``(stdout, stderr, timed out)``.
    """
    deadline = time.monotonic() + timeout
    out, err = bytearray(), bytearray()
    kept = dict(zip(fds, (out, err)))
    # each pipe not at end of stream, and the most one drain reads of
    # it: the pipe's size, so a drain that reads that much found it full
    open_pipes = {}
    for fd in kept:
        os.set_blocking(fd, False)
        open_pipes[fd] = fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ)
    killed = timed_out = False
    # poll, not epoll, which makes and closes a kernel object per compile
    poller = select.poll()
    # readable once the compiler has exited, and still unreaped
    pidfd = os.pidfd_open(pid)
    try:
        poller.register(pidfd, select.POLLIN)
        while True:
            left = deadline - time.monotonic()
            if not killed and (left <= 0 or cancel is not None and cancel.is_set()):
                killed, timed_out = True, left <= 0
                _kill_process_group(pid)
            wait = None if killed else min(left, _BEAT) * 1000
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
        _kill_process_group(pid)
        # read what is already there, and stop at the cap: past it
        # nothing is kept, and no writer is left to unblock
        for fd in open_pipes:
            _drain(fd, kept[fd], STREAM_CAP + 1 - len(kept[fd]))
    finally:
        os.close(pidfd)
    return bytes(out), bytes(err), timed_out


def _kill_process_group(pid: int) -> None:
    # every compile leads a process group of its own, so the group id is
    # its pid
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# every compile between its start and its reap, by pid, so a campaign
# that stops can kill the compiles its pool threads still run
_running: set[int] = set()
_running_lock = threading.Lock()
_killing = False


def _capture(
    start: Callable[[int, int], tuple[int, Callable[[], int | None]]],
    timeout: float,
    cancel: threading.Event | None = None,
) -> tuple[int | None, bytes, bytes, bool, float]:
    """Run one compile and capture what it prints.

    ``start(stdout, stderr)`` begins the compile with those pipe ends as
    its output and returns its pid and a function that reaps it and
    returns its exit status, or None when the status is lost. However
    the call ends, Ctrl-C included, a compiler still running is killed
    with its group and reaped; so it is once ``cancel`` is set, as
    ``_communicate`` says. Returns ``(exit status, stdout, stderr,
    timed out, wall time)``; the wall time runs from just before the
    start to the end of capture.
    """
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    reap = None
    try:
        started = time.monotonic()
        try:
            pid, reap = start(out_w, err_w)
        finally:
            os.close(out_w)
            os.close(err_w)
        with _running_lock:
            _running.add(pid)
            if _killing:
                _kill_process_group(pid)
        out, err, timed_out = _communicate(pid, (out_r, err_r), timeout, cancel)
        wall = time.monotonic() - started
    finally:
        os.close(out_r)
        os.close(err_r)
        if reap is not None:
            with _running_lock:
                _running.discard(pid)
            # before the reap, while the pid is still this compile's: a
            # repeat after _communicate, the kill of a compile cut short
            _kill_process_group(pid)
            status = reap()
    return status, out, err, timed_out, wall


def _popen(
    cmd: list[str], cwd: str, env: dict[str, str], stdout: int, stderr: int
) -> tuple[int, Callable[[], int]]:
    """Start one compile by spawning its compiler; ``_capture``'s ``start``."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=stderr,
        start_new_session=True,
    )
    return proc.pid, proc.wait


class _Server:
    """A fork server (``forkserver.c``): the command ``cmd`` started
    once, in directory ``cwd`` with the shim preloaded, that forks one
    ready copy of the compiler per compile.

    Raises OSError when it cannot be started or does not answer its
    handshake within ``timeout`` seconds; every later answer must come
    as soon. A server ends when its socket is closed, and a process
    that dies closes it, so no server outlives its process.
    """

    def __init__(
        self, shim: str, cmd: tuple[str, ...], cwd: str, env: dict[str, str],
        timeout: float,
    ) -> None:
        self.cmd, self.env = cmd, env
        self.owner = threading.current_thread()
        self.sock, theirs = socket.socketpair()
        try:
            # the socket goes in as stdin, the one fd Popen places
            self.proc = subprocess.Popen(
                cmd,
                cwd=cwd,
                env={**env, "LD_PRELOAD": shim, "LD_BIND_NOW": "1"},
                stdin=theirs,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
        except OSError:
            self.sock.close()
            raise
        finally:
            theirs.close()
        try:
            self.sock.settimeout(timeout)
            if self._answer() != self.proc.pid:
                raise ConnectionError("the fork server gave a wrong handshake")
        except OSError:
            # a compiler the shim did not reach runs as a compiler, and
            # need not stop when its stdin closes
            _kill_process_group(self.proc.pid)
            self.stop()
            raise

    def _answer(self) -> int:
        data = self.sock.recv(4, socket.MSG_WAITALL)
        if len(data) != 4:
            raise ConnectionError("the fork server hung up")
        return int.from_bytes(data, sys.byteorder, signed=True)

    def start(self, stdout: int, stderr: int) -> tuple[int, Callable[[], int | None]]:
        """Fork one compile; ``_capture``'s ``start``."""
        socket.send_fds(self.sock, [b"c"], [stdout, stderr])
        return self._answer(), self._reap

    def _reap(self) -> int | None:
        try:
            self.sock.send(b"r")
            return os.waitstatus_to_exitcode(self._answer())
        except (OSError, ValueError):
            return None

    def stop(self) -> None:
        """Close the socket, at which the server kills a compile still
        running with its group and exits, and reap the server."""
        self.sock.close()
        self.proc.wait()


class _NoServer(Exception):
    """Why a target's compiles are spawned, not served."""


# each thread's fork server, by the scratch directory it runs in
_servers: dict[str, _Server] = {}
# per target argv: the shim that serves it, or None to spawn each compile
_verdicts: dict[tuple[str, ...], str | None] = {}
_verdict_lock = threading.Lock()


def _server_for(workdir: str, cmd: list[str], cfg: CompilerConfig) -> _Server | None:
    """The fork server of this thread's scratch directory ``workdir`` for
    the target, started on first use, or None when its compiles are
    spawned. A directory keeps one server; another target replaces it.

    A target whose binary has gone is spawned, so that the spawn says
    so: a server would go on compiling with the copy it holds, or, for
    a script, fail every compile as a rejected program."""
    key = tuple(cmd)
    if not os.path.exists(key[0]):
        return None
    if key not in _verdicts:
        with _verdict_lock:
            if key not in _verdicts:
                try:
                    _verdicts[key] = _vet(key, cfg)
                except _NoServer as exc:
                    _spawn_from_now_on(key, exc)
    shim = _verdicts[key]
    if shim is None:
        return None
    server = _servers.get(workdir)
    if server is not None and server.cmd == key and server.env == cfg._env:
        return server
    _retire(workdir)
    try:
        server = _Server(shim, key, workdir, cfg._env, cfg.timeout_secs)
    except OSError as exc:
        with _verdict_lock:
            if _verdicts[key] is not None:
                _spawn_from_now_on(key, f"the fork server did not start: {exc}")
        return None
    with _running_lock:
        _servers[workdir] = server
    return server


def _spawn_from_now_on(key: tuple[str, ...], why: object) -> None:
    # the caller holds _verdict_lock, so this is said once per target
    _verdicts[key] = None
    logger.warning("%s: compiling by spawn, without a fork server: %s", key[0], why)


def _retire(workdir: str) -> None:
    """Stop the fork server of the scratch directory ``workdir``, if any."""
    with _running_lock:
        server = _servers.pop(workdir, None)
    if server is not None:
        server.stop()


def _vet(cmd: tuple[str, ...], cfg: CompilerConfig) -> str:
    """The shim that serves ``cmd``.

    The first time a compiler build runs with these flags, a compile
    through the server must print and exit as a spawned one does. Its
    passing verdict is kept beside the shim, named by the argv and by
    the binary's size and mtime, and replaces the verdicts of the
    command's earlier builds. Raises ``_NoServer``.
    """
    try:
        st = os.stat(cmd[0])
    except OSError as exc:
        raise _NoServer(f"cannot stat the compiler: {exc}") from exc
    shim = _shim()
    stem = f"{shim[:-3]}-{_digest(cmd)}"
    verdict = f"{stem}-{_digest((st.st_size, st.st_mtime_ns))}.ok"
    if not os.path.exists(verdict):
        _self_check(shim, cmd, cfg)
        with suppress(OSError):  # unrecorded, it is checked again next time
            open(verdict, "xb").close()
        # with the argv-and-build verdicts of earlier versions, unread
        old = f"{glob.escape(shim[:-3])}-{'?' * 16}.ok"
        for stale in glob.glob(f"{glob.escape(stem)}-*.ok") + glob.glob(old):
            if stale != verdict:
                with suppress(OSError):
                    os.unlink(stale)
    return shim


def _digest(key: object) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _self_check(shim: str, cmd: tuple[str, ...], cfg: CompilerConfig) -> None:
    """Compile ``_SELF_CHECK`` once by spawn and once through a fork
    server, each from a directory holding only its input.rs, and raise
    ``_NoServer`` unless the spawned one ends within the timeout, both
    give the same status, stdout, stderr and timeout, and no
    ``killing_compiles`` block has cut them short."""
    timeout = cfg.timeout_secs
    try:
        with tempfile.TemporaryDirectory(prefix=f"clozefuzz-{os.getpid()}-") as work:
            _refill(work)
            spawned = _capture(
                functools.partial(_popen, list(cmd), work, cfg._env), timeout
            )
            # a served timeout would only match it, a second timeout later
            if spawned[3]:
                raise _NoServer("the compiler timed out on the self-check")
            # the served compile starts from what the spawned one found
            _refill(work)
            server = _Server(shim, cmd, work, cfg._env, timeout)
            try:
                served = _capture(server.start, timeout)
            finally:
                server.stop()
    except OSError as exc:
        raise _NoServer(f"the fork server's self-check failed: {exc}") from exc
    # killed alike, the two compiles show nothing
    if _killing:
        raise _NoServer("the fork server's self-check was cut short")
    if served[:4] != spawned[:4]:
        raise _NoServer("a compile through the fork server differs from a spawned one")


def _refill(work: str) -> None:
    """Make the self-check's directory ``work`` anew, holding only its
    input.rs."""
    shutil.rmtree(work)
    os.mkdir(work, 0o700)
    with open(os.path.join(work, "input.rs"), "w", encoding="utf-8") as f:
        f.write(_SELF_CHECK)


def _shim() -> str:
    """The path of the built shim, made with ``cc`` at first use and kept
    in this user's cache directory under the SHA-256 of its source.
    Raises ``_NoServer``."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    cache = os.path.join(home, "clozefuzz")
    if not os.path.isabs(cache):
        raise _NoServer(f"no absolute cache directory: {cache}")
    try:
        source = _SHIM_SOURCE.read_bytes()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        st = os.lstat(cache)
        private = st.st_uid == os.getuid() and not st.st_mode & 0o077
        if not (stat.S_ISDIR(st.st_mode) and private):
            raise _NoServer(f"{cache} is not a directory only this user can use")
        name = f"forkserver-{hashlib.sha256(source).hexdigest()[:16]}.so"
        shim = os.path.join(cache, name)
        if os.path.isfile(shim):
            return shim
        cc = shutil.which("cc")
        if cc is None:
            raise _NoServer("no C compiler (cc) on PATH to build it")
        fd, built = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            done = subprocess.run(
                [cc, "-shared", "-fPIC", "-O2", "-o", built, str(_SHIM_SOURCE), "-ldl"],
                capture_output=True,
                timeout=120,
            )
            if done.returncode != 0:
                why = done.stderr.decode("utf-8", errors="replace").strip()
                raise _NoServer(f"cc could not build it: {why[-300:]}")
            os.replace(built, shim)
        finally:
            with suppress(FileNotFoundError):
                os.unlink(built)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise _NoServer(f"cannot build it in {cache}: {exc}") from exc
    return shim


class _Scratch:
    """A thread's scratch directory, removed with its fork server once
    nothing holds this object: when its thread ends, when it is
    dropped, or at interpreter exit."""

    def __init__(self) -> None:
        _sweep_stale_scratch()
        self.path = tempfile.mkdtemp(prefix=f"clozefuzz-{os.getpid()}-")
        weakref.finalize(self, _remove_scratch, self.path)


def _remove_scratch(path: str) -> None:
    _retire(path)
    shutil.rmtree(path, ignore_errors=True)


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


@contextmanager
def killing_compiles():
    """Kill every compile running in this process, and each one that
    starts before the block exits, such as a queued compile a pool
    thread takes while the pool shuts down inside the block. Their
    ``compile_program`` calls return the outcome of a killed process.
    On the way out, stop and reap the fork servers of every thread that
    has ended, such as a pool's once it has shut down inside the block."""
    global _killing
    with _running_lock:
        _killing = True
        for pid in _running:
            _kill_process_group(pid)
    try:
        yield
    finally:
        with _running_lock:
            _killing = False
            ended = [d for d, s in _servers.items() if not s.owner.is_alive()]
        for workdir in ended:
            _retire(workdir)


def compile_program(
    program: str, cfg: CompilerConfig, cancel: threading.Event | None = None
) -> CompileOutcome:
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
    Compiles go through this thread's fork server once the target
    passes its check, and are spawned otherwise; a compile whose
    server is lost is compiled again by spawn, and the thread's next
    compile starts a fresh server.
    Once ``cancel`` is set, the compile is killed within a beat, or as
    it starts, and the call returns the outcome of a killed process.
    """
    cmd = cfg.command("input.rs")
    workdir = _write_input(program)
    try:
        server = _server_for(workdir, cmd, cfg)
        ran = None
        if server is not None:
            with suppress(OSError):
                ran = _capture(server.start, cfg.timeout_secs, cancel)
            if ran is None or ran[0] is None:
                _retire(workdir)
                ran = None
        if ran is None:
            try:
                ran = _capture(
                    functools.partial(_popen, cmd, workdir, cfg._env),
                    cfg.timeout_secs,
                    cancel,
                )
            except OSError as exc:
                raise HarnessError(f"failed to spawn {cmd[0]}: {exc}") from exc
    finally:
        artifact_present = _empty(workdir)
    exit_status, out, err, timed_out, wall = ran
    return CompileOutcome(
        exit_status=exit_status,
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
