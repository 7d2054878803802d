"""Seed corpus: deduplicated program store with provenance tags.

Entries are keyed by a content hash computed after light
normalization (trailing whitespace per line and a single trailing
newline are ignored), so editor artifacts never create duplicates.
Persistence is a directory of plain source files plus a JSON-lines
manifest, append-friendly and easy to inspect by hand. A campaign
works on one ``Corpus``: preflight removes the seeds it rejects from
that same object, so the files and manifest lines of a managed corpus
are never rewritten and entry ids are never handed out twice.
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

from .harness import CompilerConfig, compile_program, ensure_compiler
from .lexer import count_nonspace_tokens
from .oracle import BugKind, classify

logger = logging.getLogger(__name__)

PROVENANCES = (
    "issue-mined",
    "test-suite",
    "glacier",
    "fuzzer-feedback",
    "user-supplied",
    "augmented",
)

MANIFEST_NAME = "manifest.jsonl"
SEEDS_SUBDIR = "seeds"


class CorpusError(Exception):
    pass


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

    With a storage directory, every accepted entry is written out
    immediately: one source file under seeds/ plus one manifest line.
    """

    def __init__(self, storage_dir: str | Path | None = None):
        self._entries: dict[str, CorpusEntry] = {}
        self._by_hash: dict[str, str] = {}
        self._counter = 0
        self.storage_dir = None if storage_dir is None else Path(storage_dir)
        if self.storage_dir is not None:
            self.storage_dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[CorpusEntry]:
        return list(self._entries.values())

    def get(self, entry_id: str) -> CorpusEntry:
        return self._entries[entry_id]

    def _insert(self, entry: CorpusEntry) -> None:
        self._entries[entry.id] = entry
        self._by_hash[entry.content_hash] = entry.id

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
        self._counter += 1
        entry = CorpusEntry(
            id=f"s{self._counter:06d}",
            source_text=text,
            content_hash=digest,
            provenance=provenance,
        )
        self._insert(entry)
        if self.storage_dir is not None:
            self._persist_entry(entry)
        return entry.id, True

    def remove(self, entry_id: str) -> None:
        """Drop an entry from memory only. A managed corpus keeps its
        file and manifest line, and its id is never handed out again."""
        entry = self._entries.pop(entry_id)
        del self._by_hash[entry.content_hash]

    def sample(self, rng: random.Random) -> CorpusEntry:
        """Uniform draw over current entries."""
        if not self._entries:
            raise CorpusError("corpus is empty")
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

    @classmethod
    def open(cls, storage_dir: str | Path) -> "Corpus":
        """Load a persisted corpus from its manifest.

        A manifest line that is not JSON (a torn append) or lacks a
        field is skipped with a warning; a listed seed file that is
        missing or not UTF-8 is a CorpusError.
        """
        root = Path(storage_dir)
        manifest = root / MANIFEST_NAME
        if not manifest.is_file():
            raise CorpusError(f"no corpus manifest at {manifest}")
        corpus = cls(root)
        for line in manifest.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                logger.warning("skipping corrupt manifest line in %s", manifest)
                continue
            # every listed id counts, kept or not, so none is reissued
            m = re.fullmatch(r"s(\d+)", str(record.get("id")))
            if m:
                corpus._counter = max(corpus._counter, int(m.group(1)))
            if not all(
                isinstance(record.get(key), str)
                for key in ("id", "hash", "provenance", "path")
            ):
                logger.warning("skipping incomplete manifest line in %s", manifest)
                continue
            path = root / record["path"]
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise CorpusError(f"cannot read seed {path}: {exc}") from exc
            digest = content_hash(text)
            if digest != record["hash"]:
                logger.warning(
                    "hash mismatch for %s; manifest is stale, recomputed",
                    record["id"],
                )
            if digest in corpus._by_hash:
                continue
            corpus._insert(
                CorpusEntry(
                    id=record["id"],
                    source_text=text,
                    content_hash=digest,
                    provenance=record["provenance"],
                )
            )
        return corpus


def load_corpus(root: str | Path) -> Corpus:
    """Open the corpus in a directory: the one way every command but
    ``mine`` opens one.

    A directory holding a manifest is a managed corpus, opened with
    ``Corpus.open``. Otherwise the ``*.rs`` files under it become
    user-supplied entries of an in-memory corpus; files that fail to
    read at all or to decode as UTF-8 are skipped with a warning.
    A missing root is a hard error.
    """
    root = Path(root)
    if (root / MANIFEST_NAME).is_file():
        return Corpus.open(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root is not a directory: {root}")
    corpus = Corpus()
    for path in sorted(root.rglob("*.rs")):
        if not path.is_file():
            continue
        try:
            raw = path.read_bytes()
        except OSError as exc:
            logger.warning("skipping unreadable %s: %s", path, exc)
            continue
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            logger.warning("skipping undecodable %s", path)
            continue
        corpus.add_entry(text, "user-supplied")
    return corpus


def preflight_filter(
    corpus: Corpus, compiler_cfg: CompilerConfig, map_fn=map
) -> list[tuple[str, str]]:
    """Remove seeds that already trip the oracle before any fuzzing.

    A seed whose unmodified compile classifies as ICE or Hang would
    flood the campaign with known-bad findings; only Pass and Reject
    seeds stay in ``corpus``. Returns the removed ``(entry id, kind)``
    pairs in entry order. The compiler is validated up front so a
    missing binary fails fast rather than after a long corpus walk.
    ``map_fn`` runs the compiles and must return results in input
    order, like the builtin ``map`` or an executor's ``map``.
    """
    ensure_compiler(compiler_cfg)
    entries = corpus.entries()
    outcomes = map_fn(
        lambda entry: compile_program(entry.source_text, compiler_cfg), entries
    )
    rejected: list[tuple[str, str]] = []
    for entry, outcome in zip(entries, outcomes):
        kind = classify(outcome, compiler_cfg.kind)
        if kind in (BugKind.ICE, BugKind.HANG):
            corpus.remove(entry.id)
            rejected.append((entry.id, kind.value))
            logger.info("preflight rejected %s: %s", entry.id, kind.value)
    return rejected
