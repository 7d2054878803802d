"""Cloze-style masking of bracket interiors.

Each matched bracket pair of a seed program yields one variant whose
interior is replaced by a backend-specific sentinel at render time.
The delimiters themselves always stay in the text, so the completion
model sees the syntactic scaffolding around the hole.

``cloze`` lexes a seed once and reads its tokens in one streamed pass:
each token is passed on to ``find_spans`` as it is made, and the
feature attributes are noted on the way, so no list of tokens is
built. Besides the compact token store of ``lex`` (about 9 bytes a
token) and the spans, masking holds one token at a time. A variant is
a view: it holds the seed text itself in ``source`` plus its span and
slices ``prefix``, ``suffix`` and ``original_interior`` out of it on
demand, so masking costs memory linear in the seed, whatever its span
count. An infill request is a view of its variant in turn
(``infill.CompletionRequest``): the masked text exists only while a
backend that sends or hashes it builds it with ``render``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .brackets import BracketKind, BracketSpan, find_spans
from .lexer import Token, TokenKind, lex

# compared per token and per span: a member looked up on its Enum class
# each time costs more than the comparison
_PUNCT, _IDENTIFIER = TokenKind.PUNCT, TokenKind.IDENTIFIER
_OPEN = TokenKind.OPEN_BRACKET
_WHITESPACE, _COMMENT = TokenKind.WHITESPACE, TokenKind.COMMENT
_SQUARE = BracketKind.SQUARE
# stands for the tokens before the first, which match nothing
_NOTHING = Token(_WHITESPACE, 0, 0, "")


@dataclass(frozen=True, slots=True)
class MaskedVariant:
    seed_id: str
    span: BracketSpan
    source: str
    special: bool

    @property
    def prefix(self) -> str:
        return self.source[: self.span.open_at + 1]

    @property
    def suffix(self) -> str:
        return self.source[self.span.close_at :]

    @property
    def original_interior(self) -> str:
        lo, hi = self.span.interior
        return self.source[lo:hi]


def _noting_gates(
    tokens: Iterable[Token], gates: list[tuple[int, int]]
) -> Iterator[Token]:
    """Pass on ``tokens``, which are in order, and as they go append to
    ``gates`` the offsets of the '#' and the '[' of each
    ``#[feature(`` and ``#![feature(``, modulo whitespace and comments."""
    # the last four significant tokens, newest first
    p1 = p2 = p3 = p4 = _NOTHING
    for tok in tokens:
        yield tok
        kind = tok.kind
        if kind is _WHITESPACE or kind is _COMMENT:
            continue
        if (
            kind is _OPEN
            and tok.text == "("
            and p1.kind is _IDENTIFIER
            and p1.text == "feature"
            and p2.kind is _OPEN
            and p2.text == "["
            and p3.kind is _PUNCT
        ):
            if p3.text == "#":
                gates.append((p3.start, p2.start))
            elif p3.text == "!" and p4.kind is _PUNCT and p4.text == "#":
                gates.append((p4.start, p2.start))
        p4, p3, p2, p1 = p3, p2, p1, tok


def _gate_ranges(
    gates: list[tuple[int, int]], spans: list[BracketSpan]
) -> list[tuple[int, int]]:
    """Character ranges, half-open and in textual order, of the
    feature-gate attributes noted in ``gates``: each from its '#'
    through the ']' that closes its '['. An unclosed '[' has none."""
    square_close = {s.open_at: s.close_at for s in spans if s.kind is _SQUARE}
    return [
        (hash_at, square_close[square_at] + 1)
        for hash_at, square_at in gates
        if square_at in square_close
    ]


def cloze(source: str, seed_id: str = "") -> list[MaskedVariant]:
    """One variant per matched bracket pair, in span DFS order.

    Empty interiors are masked too; widening an empty pair is a
    legitimate mutation. A variant is special when its pair lies inside
    a feature-gate attribute.
    """
    gates: list[tuple[int, int]] = []
    spans = find_spans(source, _noting_gates(lex(source).tokens, gates))
    ranges = _gate_ranges(gates, spans)
    variants: list[MaskedVariant] = []
    # spans and ranges both ascend by start: a span lies inside a range
    # exactly when it closes before the furthest end of those opened
    reach = i = 0
    for span in spans:
        while i < len(ranges) and ranges[i][0] <= span.open_at:
            reach = max(reach, ranges[i][1])
            i += 1
        variants.append(MaskedVariant(seed_id, span, source, span.close_at < reach))
    return variants


def render(variant: MaskedVariant, sentinel: str) -> str:
    """Substitute the sentinel for the masked interior."""
    if not sentinel:
        raise ValueError("sentinel must be non-empty")
    return variant.prefix + sentinel + variant.suffix
