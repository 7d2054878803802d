"""Compiler invocation harness.

Runs a compiler on candidate programs in throwaway directories, with a
hard wall-clock limit, process-group cleanup, and capped output
capture. The cap holds while the output is read: past ``STREAM_CAP``
bytes a stream is read on and thrown away, so a compiler that prints
gigabytes costs no memory. Output printed before a timeout is kept,
so ``time_passes`` can locate a hang from the pass-timing lines of the
compile that timed out (rustc prints them under ``-Ztime-passes``,
which callers opt into through the compiler flags) without compiling
the program again.
A compile is registered while it runs, so ``killing_compiles`` can
stop them all at once when a campaign ends with compiles in flight.

Supported compiler kinds: "rustc", "mrustc", and "scripted-fake" (a
stand-in executable used by the test suite and for offline dry runs).

Each target's command is resolved once (``ensure_compiler``). A rustc
target that is rustup's proxy is replaced there by its toolchain's own
rustc, found with one ``--print sysroot`` probe, because the proxy
re-reads rustup's settings on every run before it starts that same
binary; a leading ``+toolchain`` flag picks the toolchain at that
point. Every other target runs as given.
"""

from __future__ import annotations

import os
import selectors
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from contextlib import contextmanager
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
    # the argv before the input file, set by ensure_compiler on first use
    _argv: tuple[str, ...] | None = field(
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
    threads racing on first use compute the same value.
    """
    argv = cfg._argv
    if argv is None:
        binary = cfg.resolved_binary()
        if not os.access(binary, os.X_OK):
            raise HarnessError(f"compiler binary not executable: {binary}")
        direct = None
        if cfg.kind == "rustc" and _is_rustup_proxy(binary):
            direct = _toolchain_argv(binary, cfg)
        argv = cfg._argv = direct or (binary, *cfg.extra_flags)
    return argv


def _is_rustup_proxy(binary: str) -> bool:
    rustup = os.path.join(os.path.dirname(binary), "rustup")
    try:
        # samefile follows rustup's symlinks and sees its hardlinks
        return os.access(rustup, os.X_OK) and os.path.samefile(binary, rustup)
    except OSError:
        return False


def _toolchain_argv(proxy: str, cfg: CompilerConfig) -> tuple[str, ...] | None:
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
            env=_subprocess_env(),
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


def _communicate(
    proc: subprocess.Popen, timeout: float
) -> tuple[bytes, bytes, bool]:
    """``proc.communicate(timeout)`` that keeps at most ``STREAM_CAP``
    + 1 bytes of each stream, enough for ``_cap_stream`` to see the
    cut, and throws the rest away as it arrives.

    Both pipes are still read to EOF, so a compiler that prints a lot
    never blocks on a full pipe and ends with its own exit status. On
    timeout its process group is killed and what it printed until then
    is kept. Returns ``(stdout, stderr, timed out)``.
    """
    deadline = time.monotonic() + timeout
    out, err = bytearray(), bytearray()
    kept = {proc.stdout.fileno(): out, proc.stderr.fileno(): err}
    timed_out = False
    # poll, as subprocess uses: for two pipes it costs fewer system
    # calls than epoll, which makes and closes a kernel object per compile
    with selectors.PollSelector() as selector:
        for fd in kept:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            left = deadline - time.monotonic()
            if left <= 0 and not timed_out:
                timed_out = True
                _kill_process_group(proc)
            # once killed, read on until every holder of a pipe is gone
            for key, _ in selector.select(None if timed_out else left):
                chunk = os.read(key.fd, _READ_SIZE)
                if not chunk:
                    selector.unregister(key.fd)
                    continue
                buf = kept[key.fd]
                room = STREAM_CAP + 1 - len(buf)
                if room > 0:
                    buf += chunk[:room]
    if not timed_out:
        # a compiler may close its pipes and still run
        try:
            proc.wait(max(deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            timed_out = True
            _kill_process_group(proc)
    proc.wait()
    return bytes(out), bytes(err), timed_out


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


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

    Each run gets a fresh scratch directory holding input.rs, under
    ``TMPDIR`` when it is set; the compiler runs there so object files
    and temporaries stay contained.
    On timeout the whole process group is killed, so rustc's child
    processes do not linger, and what it printed until then is kept.
    However the call ends, Ctrl-C included, a compiler still running
    is killed with its group and reaped, and the directory removed.
    """
    cmd = cfg.command("input.rs")
    workdir = tempfile.mkdtemp(prefix="clozefuzz-")
    proc = None
    try:
        (Path(workdir) / "input.rs").write_text(program, encoding="utf-8")
        started = time.monotonic()
        try:
            proc = subprocess.Popen(
                cmd,
                cwd=workdir,
                env=_subprocess_env(),
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
        return CompileOutcome(
            exit_status=proc.returncode,
            stdout=_cap_stream(out),
            stderr=_cap_stream(err),
            wall_time=wall,
            timed_out=timed_out,
            artifact_present=any(
                entry.name != "input.rs" for entry in Path(workdir).iterdir()
            ),
        )
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
        shutil.rmtree(workdir, ignore_errors=True)


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
