"""Crash oracle: outcome classification, bug signatures, dedup store.

Classification looks only at the observable outcome of a compile run.
A timeout is always a Hang, regardless of what the compiler managed to
print first. Internal-compiler-error detection reads one table of
needle groups per compiler kind, ``ICE_PATTERNS``; a new phrasing is
one more entry there.

Signatures strip everything volatile (paths, line numbers, addresses,
hash suffixes) so that the same underlying bug collides to the same
digest across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from .harness import CompileOutcome

logger = logging.getLogger(__name__)

HANG_TAIL_LENGTH = 3
NO_PASSES_MARKER = "timeout-no-passes"


class BugKind(Enum):
    ICE = "ice"
    HANG = "hang"
    REJECT = "reject"
    PASS = "pass"


class Novelty(Enum):
    INTERESTING = "interesting"
    DUPLICATE = "duplicate"


# Each entry is a tuple of needle groups; a group matches when every
# needle in it is present. Any matching group marks the outcome an ICE.
ICE_PATTERNS: dict[str, tuple[tuple[str, ...], ...]] = {
    "rustc": (
        ("internal compiler error",),
        ("compiler unexpectedly panicked",),
    ),
    "mrustc": (("BUG", "core dump"),),
    "scripted-fake": (
        ("internal compiler error",),
        ("compiler unexpectedly panicked",),
        ("BUG", "core dump"),
    ),
}


def _needle_present(needle: str, text: str, outcome: CompileOutcome) -> bool:
    if needle in text:
        return True
    # death by signal is a core dump even if the shell never says so
    if needle == "core dump" and outcome.exit_status is not None:
        return outcome.exit_status < 0
    return False


def classify(outcome: CompileOutcome, compiler_kind: str) -> BugKind:
    """Map one compile outcome to exactly one bug kind."""
    if outcome.timed_out:
        return BugKind.HANG
    combined = outcome.stderr + "\n" + outcome.stdout
    for group in ICE_PATTERNS.get(compiler_kind, ()):
        if all(_needle_present(needle, combined, outcome) for needle in group):
            return BugKind.ICE
    if outcome.exit_status != 0:
        return BugKind.REJECT
    return BugKind.PASS


# --- signature normalization ------------------------------------------------

_ADDR_RE = re.compile(r"0x[0-9a-fA-F]+")
_SRC_LOC_RE = re.compile(r"[\w./\\+-]*[\w./\\+-]\.rs(?::\d+){0,2}")
_PATH_RE = re.compile(r"(?:/[\w.+-]+){2,}(?::\d+){0,2}")
_BACKTICKED_RE = re.compile(r"`[^`]*`")
_QUOTED_RE = re.compile(r"'[^'\s]{1,60}'")
_INT_RE = re.compile(r"\d+")
_FRAME_HASH_RE = re.compile(r"::h[0-9a-f]{16}$")
_FRAME_LINE_RE = re.compile(r"^\s*(\d+):\s*(?:0x[0-9a-fA-F]+ - )?(.*\S)\s*$")


def normalize_message(text: str) -> str:
    """Scrub volatile detail out of a panic message. Idempotent."""
    t = _ADDR_RE.sub("<addr>", text)
    t = _SRC_LOC_RE.sub("<src>", t)
    t = _PATH_RE.sub("<path>", t)
    t = _BACKTICKED_RE.sub("`<id>`", t)
    t = _QUOTED_RE.sub("'<id>'", t)
    t = _INT_RE.sub("<n>", t)
    return t.strip()


def normalize_frame(name: str) -> str:
    """Scrub a backtrace frame name, keeping the symbol path."""
    t = _FRAME_HASH_RE.sub("", name.strip())
    t = _ADDR_RE.sub("<addr>", t)
    t = _SRC_LOC_RE.sub("<src>", t)
    return t


_PANIC_MARKERS = (
    "internal compiler error",
    "compiler unexpectedly panicked",
    "panicked at",
    "BUG",
)


def _panic_message(stderr: str) -> str:
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    for line in lines:
        if any(marker in line for marker in _PANIC_MARKERS):
            return normalize_message(line)
    return normalize_message(lines[0]) if lines else ""


def _backtrace_frames(stderr: str) -> list[str]:
    frames: list[str] = []
    for line in stderr.splitlines():
        m = _FRAME_LINE_RE.match(line)
        if m is None:
            continue
        name = normalize_frame(m.group(2))
        if name:
            frames.append(name)
    return frames


def _hang_tail(trace: list[tuple[str, float]] | None) -> list[str]:
    if not trace:
        return [NO_PASSES_MARKER]
    tail: list[str] = []
    for name, _secs in reversed(trace):
        if name not in tail:
            tail.append(name)
        if len(tail) == HANG_TAIL_LENGTH:
            break
    tail.reverse()
    return tail


@dataclass(frozen=True)
class BugSignature:
    kind: BugKind
    payload: str  # canonical JSON
    digest: str

    def payload_dict(self) -> dict:
        return json.loads(self.payload)

    def to_dict(self) -> dict:
        """Digest, kind and payload: a bundle's ``signature.json``, the
        head of a journal line and ``clozefuzz classify``'s output."""
        return {
            "digest": self.digest,
            "kind": self.kind.value,
            "payload": self.payload_dict(),
        }


def _digest_payload(payload: dict) -> tuple[str, str]:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return canonical, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def signature(
    outcome: CompileOutcome,
    kind: BugKind,
    trace: list[tuple[str, float]] | None = None,
) -> BugSignature:
    """Deduplication signature for an ICE or Hang outcome.

    ICE: normalized panic message plus the normalized backtrace frame
    sequence. Hang: the last ``HANG_TAIL_LENGTH`` distinct pass names of
    ``trace`` (the ``(pass, seconds)`` entries the compile printed
    before the clock ran out), or a fixed marker when there are none.
    """
    if kind is BugKind.ICE:
        payload = {
            "kind": kind.value,
            "panic": _panic_message(outcome.stderr),
            "frames": _backtrace_frames(outcome.stderr),
        }
    elif kind is BugKind.HANG:
        payload = {
            "kind": kind.value,
            "tail": _hang_tail(trace),
        }
    else:
        raise ValueError(f"no signature for outcome kind {kind.value!r}")
    canonical, digest = _digest_payload(payload)
    return BugSignature(kind=kind, payload=canonical, digest=digest)


class BugStoreError(Exception):
    """The store or its journal could not be written."""


class BugStore:
    """Append-only record of distinct signatures.

    The journal is a JSON-lines file; each line fully describes one
    signature and points at the first case that produced it. The store
    lives in a run's output directory, and each case path is journalled
    relative to that directory. A case is written before its journal
    line, and the line is flushed before the in-memory index is
    updated, so a crash can leave a case that a rerun writes again, but
    never a journalled digest without its case.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.journal_path = self.root / "signatures.jsonl"
        self._digests: set[str] = set()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise BugStoreError(f"cannot create bug store at {self.root}: {exc}") from exc
        if self.journal_path.exists():
            self._replay_journal()

    def _replay_journal(self) -> None:
        for line in self.journal_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            # a torn append, or valid JSON that lacks the digest
            if not isinstance(record, dict) or not isinstance(
                record.get("digest"), str
            ):
                logger.warning("skipping corrupt journal line in %s", self.journal_path)
                continue
            self._digests.add(record["digest"])

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def record_if_new(
        self, sig: BugSignature, write_case: Callable[[BugSignature], Path]
    ) -> Novelty:
        """Journal a signature the first time it is seen.

        For a first-seen digest, ``write_case(sig)`` writes the case and
        returns its path, which the journal line then records. Returns
        INTERESTING exactly once per digest; everything after that is
        DUPLICATE. An error of ``write_case`` propagates and journals
        nothing.
        """
        if sig.digest in self._digests:
            return Novelty.DUPLICATE
        case_path = write_case(sig)
        record = {
            **sig.to_dict(),
            "first_case_path": os.path.relpath(case_path, self.root.parent),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        try:
            with self.journal_path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
        except OSError as exc:
            raise BugStoreError(f"bug store write failed: {exc}") from exc
        self._digests.add(sig.digest)
        return Novelty.INTERESTING
