"""Compiler invocation harness.

Runs a compiler on candidate programs in throwaway directories, with a
hard wall-clock limit, process-group cleanup, and capped output
capture. Output printed before a timeout is kept, so ``time_passes``
can locate a hang from the pass-timing lines of the compile that timed
out (rustc prints them under ``-Ztime-passes``, which callers opt into
through the compiler flags) without compiling the program again.

Supported compiler kinds: "rustc", "mrustc", and "scripted-fake" (a
stand-in executable used by the test suite and for offline dry runs).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
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
    # rustup installs rustc as a shim that resolves the real toolchain
    # through these; stripping them makes every compile fail before it
    # ever reaches the compiler under test
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
            # not resolved, because a rustup shim dispatches on its name
            return os.path.abspath(self.binary_path)
        found = shutil.which(self.binary_path)
        if found:
            return found
        raise HarnessError(f"compiler binary not found: {self.binary_path}")


@dataclass
class CompileOutcome:
    exit_status: int
    stdout: str
    stderr: str
    wall_time: float
    timed_out: bool
    artifact_present: bool


def ensure_compiler(cfg: CompilerConfig) -> str:
    """Resolve the binary and require it to be executable.

    Raised errors here are hard: callers check availability before
    spending any compile budget.
    """
    binary = cfg.resolved_binary()
    if not os.access(binary, os.X_OK):
        raise HarnessError(f"compiler binary not executable: {binary}")
    return binary


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


def _kill_process_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def compile_program(program: str, cfg: CompilerConfig) -> CompileOutcome:
    """Compile one program text and report what happened.

    Each run gets a fresh scratch directory holding input.rs, under
    ``TMPDIR`` when it is set; the compiler runs there so object files
    and temporaries stay contained.
    On timeout the whole process group is killed, so rustc's child
    processes do not linger, and what it printed until then is kept.
    """
    binary = ensure_compiler(cfg)
    workdir = tempfile.mkdtemp(prefix="clozefuzz-")
    input_path = Path(workdir) / "input.rs"
    input_path.write_text(program, encoding="utf-8")

    cmd = [binary, *cfg.extra_flags, "input.rs"]
    started = time.monotonic()
    timed_out = False
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
        shutil.rmtree(workdir, ignore_errors=True)
        raise HarnessError(f"failed to spawn {binary}: {exc}") from exc

    try:
        out, err = proc.communicate(timeout=cfg.timeout_secs)
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_process_group(proc)
        out, err = proc.communicate()
    wall = time.monotonic() - started

    artifact_present = any(
        entry.name != "input.rs" for entry in Path(workdir).iterdir()
    )
    outcome = CompileOutcome(
        exit_status=proc.returncode,
        stdout=_cap_stream(out),
        stderr=_cap_stream(err),
        wall_time=wall,
        timed_out=timed_out,
        artifact_present=artifact_present,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return outcome


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
