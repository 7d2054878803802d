"""Seed corpus: deduplicated program store with provenance tags.

Entries are keyed by a content hash computed after light
normalization (trailing whitespace per line and a single trailing
newline are ignored), so editor artifacts never create duplicates.
Persistence is a directory of plain source files plus a JSON-lines
manifest, append-friendly and easy to inspect by hand.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .lexer import count_nonspace_tokens

logger = logging.getLogger(__name__)

PROVENANCES = (
    "issue-mined",
    "test-suite",
    "glacier",
    "fuzzer-feedback",
    "user-supplied",
)

MANIFEST_NAME = "manifest.jsonl"
SEEDS_SUBDIR = "seeds"


class CorpusError(Exception):
    pass


class CorpusExhaustedError(CorpusError):
    """Sampling from an empty corpus."""


def normalize_source(text: str) -> str:
    norm = "\n".join(line.rstrip() for line in text.split("\n"))
    if norm.endswith("\n"):
        norm = norm[:-1]
    return norm


def content_hash(text: str) -> str:
    return hashlib.sha256(normalize_source(text).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    source_text: str
    content_hash: str
    provenance: str

    @cached_property
    def token_count(self) -> int:
        """Non-whitespace tokens, lexed on first use: loading lexes nothing."""
        return count_nonspace_tokens(self.source_text)


class Corpus:
    """In-memory entry set with optional directory persistence.

    When a storage directory is attached, every accepted entry is
    written out immediately: one source file under seeds/ plus one
    manifest line.
    """

    def __init__(self, storage_dir: str | Path | None = None):
        self._entries: dict[str, CorpusEntry] = {}
        self._by_hash: dict[str, str] = {}
        self._counter = 0
        self.skipped_undecodable = 0
        self.skipped_unreadable = 0
        self.preflight_rejections: list[tuple[str, str]] = []
        self.storage_dir: Path | None = None
        if storage_dir is not None:
            self.attach(storage_dir)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._by_hash

    def entries(self) -> list[CorpusEntry]:
        return list(self._entries.values())

    def get(self, entry_id: str) -> CorpusEntry:
        return self._entries[entry_id]

    def _next_id(self) -> str:
        self._counter += 1
        return f"s{self._counter:06d}"

    def _insert(self, entry: CorpusEntry, persist: bool = True) -> None:
        self._entries[entry.id] = entry
        self._by_hash[entry.content_hash] = entry.id
        m = re.fullmatch(r"s(\d+)", entry.id)
        if m:
            self._counter = max(self._counter, int(m.group(1)))
        if persist and self.storage_dir is not None:
            self._persist_entry(entry)

    def add_entry(self, text: str, provenance: str) -> tuple[str, bool]:
        """Insert a program unless its hash is already present.

        Returns (entry id, inserted flag); on a duplicate the id of the
        existing entry comes back with inserted=False.
        """
        if provenance not in PROVENANCES:
            raise CorpusError(f"unknown provenance: {provenance!r}")
        digest = content_hash(text)
        existing = self._by_hash.get(digest)
        if existing is not None:
            return existing, False
        entry = CorpusEntry(
            id=self._next_id(),
            source_text=text,
            content_hash=digest,
            provenance=provenance,
        )
        self._insert(entry)
        return entry.id, True

    def sample(self, rng: random.Random) -> CorpusEntry:
        """Uniform draw over current entries."""
        if not self._entries:
            raise CorpusExhaustedError("corpus is empty")
        keys = list(self._entries)
        return self._entries[keys[rng.randrange(len(keys))]]

    # --- persistence ---------------------------------------------------

    def _persist_entry(self, entry: CorpusEntry) -> None:
        assert self.storage_dir is not None
        seeds = self.storage_dir / SEEDS_SUBDIR
        seeds.mkdir(parents=True, exist_ok=True)
        rel = f"{SEEDS_SUBDIR}/{entry.id}.rs"
        (self.storage_dir / rel).write_text(entry.source_text, encoding="utf-8")
        record = {
            "id": entry.id,
            "hash": entry.content_hash,
            "provenance": entry.provenance,
            "path": rel,
        }
        with (self.storage_dir / MANIFEST_NAME).open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def attach(self, storage_dir: str | Path) -> None:
        """Start persisting to a directory; existing entries are
        written out as well."""
        self.storage_dir = Path(storage_dir)
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        for entry in self._entries.values():
            self._persist_entry(entry)

    @classmethod
    def open(cls, storage_dir: str | Path) -> "Corpus":
        """Load a persisted corpus from its manifest."""
        root = Path(storage_dir)
        manifest = root / MANIFEST_NAME
        if not manifest.is_file():
            raise CorpusError(f"no corpus manifest at {manifest}")
        corpus = cls()
        for line in manifest.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            text = (root / record["path"]).read_text(encoding="utf-8")
            digest = content_hash(text)
            if digest != record["hash"]:
                logger.warning(
                    "hash mismatch for %s; manifest is stale, recomputed",
                    record["id"],
                )
            if digest in corpus._by_hash:
                continue
            entry = CorpusEntry(
                id=record["id"],
                source_text=text,
                content_hash=digest,
                provenance=record["provenance"],
            )
            corpus._insert(entry, persist=False)
        corpus.storage_dir = root
        return corpus


def load_corpus(
    roots: Sequence[tuple[str | Path, str] | str | Path],
    glob: str = "*.rs",
) -> Corpus:
    """Build a corpus from directories of source files.

    Each root is either a path (provenance defaults to user-supplied)
    or a (path, provenance) pair. Files that fail to decode as UTF-8
    or to read at all are skipped with a counter bump; a missing root
    is a hard error.
    """
    corpus = Corpus()
    for root_spec in roots:
        if isinstance(root_spec, (tuple, list)):
            root, provenance = Path(root_spec[0]), root_spec[1]
        else:
            root, provenance = Path(root_spec), "user-supplied"
        if not root.is_dir():
            raise CorpusError(f"corpus root is not a directory: {root}")
        for path in sorted(root.rglob(glob)):
            if not path.is_file():
                continue
            try:
                raw = path.read_bytes()
            except OSError as exc:
                corpus.skipped_unreadable += 1
                logger.warning("skipping unreadable %s: %s", path, exc)
                continue
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                corpus.skipped_undecodable += 1
                logger.warning("skipping undecodable %s", path)
                continue
            corpus.add_entry(text, provenance)
    return corpus


def preflight_filter(corpus: Corpus, compiler_cfg) -> Corpus:
    """Drop seeds that already trip the oracle before any fuzzing.

    A seed whose unmodified compile classifies as ICE or Hang would
    flood the campaign with known-bad findings; only Pass and Reject
    seeds are kept. The compiler is validated up front so a missing
    binary fails fast rather than after a long corpus walk.
    """
    from .harness import compile_program, ensure_compiler
    from .oracle import BugKind, classify

    ensure_compiler(compiler_cfg)
    kept = Corpus()
    for entry in corpus.entries():
        outcome = compile_program(entry.source_text, compiler_cfg)
        kind = classify(outcome, compiler_cfg.kind)
        if kind in (BugKind.ICE, BugKind.HANG):
            kept.preflight_rejections.append((entry.id, kind.value))
            logger.info("preflight rejected %s: %s", entry.id, kind.value)
            continue
        # already on disk if the source corpus was managed; re-journaling
        # would duplicate manifest lines
        kept._insert(entry, persist=False)
    kept.storage_dir = corpus.storage_dir
    return kept
