"""Compiler invocation harness.

Runs a compiler on candidate programs in throwaway directories, with a
hard wall-clock limit, process-group cleanup, and capped output
capture. Also drives pass-timing runs for hang localization.

Supported compiler kinds: "rustc", "mrustc", and "scripted-fake" (a
stand-in executable used by the test suite and for offline dry runs).
"""

from __future__ import annotations

import logging
import os
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)

COMPILER_KINDS = ("rustc", "mrustc", "scripted-fake")

# rustc stopped accepting -O0 long ago; opt-level=0 is the spelling
# that works. The fake compiler tolerates anything.
DEFAULT_FLAGS: dict[str, tuple[str, ...]] = {
    "rustc": ("-C", "opt-level=0"),
    "mrustc": (),
    "scripted-fake": ("-O0",),
}

PASS_TIMING_FLAGS: dict[str, tuple[str, ...]] = {
    "rustc": ("-Ztime-passes",),
    "scripted-fake": ("-Ztime-passes",),
    # mrustc has no pass-timing switch
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
    workdir_root: str | None = None
    env_overrides: dict[str, str] = field(default_factory=dict)

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
        path = Path(self.binary_path)
        if path.is_file():
            return str(path)
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


@dataclass
class TimePassesTrace:
    entries: list[tuple[str, float]] = field(default_factory=list)
    truncated: bool = False
    malformed_lines: int = 0
    warning: str | None = None


def ensure_compiler(cfg: CompilerConfig) -> str:
    """Resolve the binary and require it to be executable.

    Raised errors here are hard: callers check availability before
    spending any compile budget.
    """
    binary = cfg.resolved_binary()
    if not os.access(binary, os.X_OK):
        raise HarnessError(f"compiler binary not executable: {binary}")
    return binary


def _subprocess_env(cfg: CompilerConfig) -> dict[str, str]:
    env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
    # backtraces make ICE signatures much more precise
    env.setdefault("RUST_BACKTRACE", "1")
    env.update(cfg.env_overrides)
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


def compile_program(
    program: str, cfg: CompilerConfig, flags: tuple[str, ...] | None = None
) -> CompileOutcome:
    """Compile one program text and report what happened.

    Each run gets a fresh scratch directory holding input.rs; the
    compiler runs there so object files and temporaries stay contained.
    On timeout the whole process group is killed, so rustc's child
    processes do not linger.
    """
    binary = ensure_compiler(cfg)
    use_flags = cfg.extra_flags if flags is None else flags
    workdir = tempfile.mkdtemp(prefix="clozefuzz-", dir=cfg.workdir_root)
    input_path = Path(workdir) / "input.rs"
    input_path.write_text(program, encoding="utf-8")

    cmd = [binary, *use_flags, "input.rs"]
    started = time.monotonic()
    timed_out = False
    try:
        proc = subprocess.Popen(
            cmd,
            cwd=workdir,
            env=_subprocess_env(cfg),
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


def _parse_pass_lines(text: str, trace: TimePassesTrace) -> None:
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("time:"):
            continue
        parts = stripped.split()
        if len(parts) < 3:
            trace.malformed_lines += 1
            continue
        secs_text = parts[1].rstrip(";").rstrip("s")
        try:
            secs = float(secs_text)
        except ValueError:
            trace.malformed_lines += 1
            continue
        # modern rustc wedges an rss segment between seconds and the
        # pass name; the name is always the last field either way
        trace.entries.append((parts[-1], secs))


def time_passes(program: str, cfg: CompilerConfig) -> TimePassesTrace:
    """Run the compiler with pass timing enabled and parse the trace.

    Returns whatever passes were observed; a timeout marks the trace
    truncated, and an unsupported flag degrades to an empty trace with
    a capability warning rather than an error.
    """
    trace = TimePassesTrace()
    timing_flags = PASS_TIMING_FLAGS.get(cfg.kind)
    if timing_flags is None:
        trace.warning = f"pass timing not supported for compiler kind {cfg.kind!r}"
        logger.warning(trace.warning)
        return trace

    outcome = compile_program(program, cfg, flags=cfg.extra_flags + timing_flags)
    _parse_pass_lines(outcome.stdout, trace)
    _parse_pass_lines(outcome.stderr, trace)
    trace.truncated = outcome.timed_out
    if not trace.entries and not outcome.timed_out and outcome.exit_status != 0:
        trace.warning = (
            "pass timing produced no entries; the flag may be unsupported "
            "by this compiler build"
        )
        logger.warning(trace.warning)
    return trace
