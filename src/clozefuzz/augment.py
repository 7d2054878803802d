"""Training-corpus augmentation: token deletion and statement swaps.

These transforms deliberately rough up the source a little; the output
feeds model training, not a compiler, so mild syntax damage is fine
and even useful. Statement boundaries are lexical, not grammatical.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import MANIFEST_NAME, Corpus, content_hash
from .lexer import TokenKind, lex

logger = logging.getLogger(__name__)


def default_swap_count(token_count: int) -> int:
    return max(1, token_count // 50)


@dataclass
class AugmentConfig:
    delete_prob: float = 0.2
    target_size: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delete_prob <= 1.0:
            raise ValueError("delete_prob must lie in [0, 1]")
        if self.target_size < 1:
            raise ValueError("target_size must be positive")


def random_delete(source: str, p: float, rng: random.Random) -> str:
    """Drop each non-whitespace token independently with probability p.

    Survivors are re-joined with a single space wherever the original
    had any whitespace between them; original spacing is not kept.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("deletion probability must lie in [0, 1]")
    parts: list[str] = []
    pending_space = False
    for tok in lex(source).tokens:
        if tok.kind is TokenKind.WHITESPACE:
            pending_space = True
            continue
        if rng.random() < p:
            continue
        if parts and pending_space:
            parts.append(" ")
        parts.append(tok.text)
        pending_space = False
    return "".join(parts)


def _statement_chunks(source: str) -> tuple[list[str], str]:
    """Cut a program into swappable statement-ish chunks.

    Boundaries fall after ';' at brace depth 0 or 1 and after a '}'
    that lands at depth 0 or 1. Anything after the last boundary is a
    fixed tail that never moves, so swaps can't glue tokens together.
    """
    chunks: list[str] = []
    depth = 0
    cursor = 0
    for tok in lex(source).tokens:
        boundary = False
        if tok.kind is TokenKind.OPEN_BRACKET and tok.text == "{":
            depth += 1
        elif tok.kind is TokenKind.CLOSE_BRACKET and tok.text == "}":
            depth -= 1
            boundary = depth <= 1
        elif tok.kind is TokenKind.PUNCT and tok.text == ";":
            boundary = depth <= 1
        if boundary:
            chunks.append(source[cursor : tok.end])
            cursor = tok.end
    return chunks, source[cursor:]


def random_swap(source: str, n: int, rng: random.Random) -> tuple[str, bool]:
    """Swap n pairs of statement chunks. Returns (text, any_swap_done).

    With fewer than two chunks the source comes back untouched and the
    flag is False.
    """
    if n < 0:
        raise ValueError("swap count must be non-negative")
    chunks, tail = _statement_chunks(source)
    if n == 0 or len(chunks) < 2:
        return source, False
    for _ in range(n):
        i, j = rng.sample(range(len(chunks)), 2)
        chunks[i], chunks[j] = chunks[j], chunks[i]
    return "".join(chunks) + tail, True


@dataclass
class ExportResult:
    out_dir: Path
    records: list[dict]
    reached_target: bool


def export_finetune_corpus(
    corpus: Corpus, cfg: AugmentConfig, out_dir: str | Path
) -> ExportResult:
    """Materialize a training set of cfg.target_size distinct programs.

    Originals are exported first, then deletion and swap variants are
    generated round-robin over the corpus until the target is met.
    All dedup happens on normalized content hashes. Generation is
    deterministic: every variant's rng is seeded from (global seed,
    parent id, attempt index), so reruns produce identical bytes.
    """
    if cfg.target_size < len(corpus):
        raise ValueError(
            f"target_size {cfg.target_size} is smaller than the corpus ({len(corpus)})"
        )
    entries = corpus.entries()
    if not entries:
        raise ValueError("cannot augment an empty corpus")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    seen: set[str] = set()

    def emit(text: str, op: str, parent_id: str, attempt_seed: str | None) -> None:
        digest = content_hash(text)
        if digest in seen:
            return
        seen.add(digest)
        name = f"ft_{len(records):06d}.rs"
        (out / name).write_text(text, encoding="utf-8")
        records.append(
            {
                "id": name,
                "parent_id": parent_id,
                "op": op,
                "provenance": "augmented",
                "seed": attempt_seed,
                "path": name,
                "hash": digest,
            }
        )

    for entry in entries:
        emit(entry.source_text, "original", entry.id, None)

    # alternate ops, walk parents round-robin; bounded so a degenerate
    # corpus (e.g. one token) cannot spin forever
    max_attempts = 200 * cfg.target_size
    attempt = 0
    while len(records) < cfg.target_size and attempt < max_attempts:
        entry = entries[(attempt // 2) % len(entries)]
        attempt_seed = f"{cfg.seed}:{entry.id}:{attempt}"
        rng = random.Random(attempt_seed)
        if attempt % 2 == 0:
            text = random_delete(entry.source_text, cfg.delete_prob, rng)
        else:
            n = default_swap_count(entry.token_count)
            text, _ = random_swap(entry.source_text, n, rng)
        if text.strip():
            emit(text, "delete" if attempt % 2 == 0 else "swap", entry.id, attempt_seed)
        attempt += 1

    reached = len(records) >= cfg.target_size
    if not reached:
        logger.warning(
            "augmentation stalled at %d of %d distinct programs",
            len(records),
            cfg.target_size,
        )
    manifest = out / MANIFEST_NAME
    with manifest.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return ExportResult(out_dir=out, records=records, reached_target=reached)
