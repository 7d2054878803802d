"""Cloze-style masking of bracket interiors.

Each matched bracket pair of a seed program yields one variant whose
interior is replaced by a backend-specific sentinel at render time.
The delimiters themselves always stay in the text, so the completion
model sees the syntactic scaffolding around the hole.

``cloze`` lexes a seed once and takes both the spans and the feature
attribute ranges from that token stream. A variant is a view: it holds
the seed text itself in ``source`` plus its span and slices ``prefix``,
``suffix`` and ``original_interior`` out of it on demand, so masking
costs memory linear in the seed, whatever its span count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brackets import BracketKind, BracketSpan, find_spans
from .lexer import Token, TokenKind, lex, significant_tokens


@dataclass(frozen=True)
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


def feature_attribute_ranges(source: str) -> list[tuple[int, int]]:
    """Character ranges of feature-gate attributes, in textual order.

    Matches `#![feature(...)]` and `#[feature(...)]` modulo whitespace,
    from the '#' through the closing ']'. Ranges are half-open.
    """
    tokens = lex(source).tokens
    return _attribute_ranges(tokens, find_spans(source, tokens))


def _attribute_ranges(
    tokens: list[Token], spans: list[BracketSpan]
) -> list[tuple[int, int]]:
    sig = significant_tokens(tokens)
    square_close = {
        s.open_at: s.close_at for s in spans if s.kind is BracketKind.SQUARE
    }

    def tok(i: int, kind: TokenKind, text: str) -> bool:
        return i < len(sig) and sig[i].kind is kind and sig[i].text == text

    ranges: list[tuple[int, int]] = []
    for i, t in enumerate(sig):
        if not (t.kind is TokenKind.PUNCT and t.text == "#"):
            continue
        j = i + 1
        if tok(j, TokenKind.PUNCT, "!"):
            j += 1
        if not tok(j, TokenKind.OPEN_BRACKET, "["):
            continue
        if not tok(j + 1, TokenKind.IDENTIFIER, "feature"):
            continue
        if not tok(j + 2, TokenKind.OPEN_BRACKET, "("):
            continue
        close_at = square_close.get(sig[j].start)
        if close_at is None:
            continue
        ranges.append((t.start, close_at + 1))
    return ranges


def cloze(source: str, seed_id: str = "") -> list[MaskedVariant]:
    """One variant per matched bracket pair, in span DFS order.

    Empty interiors are masked too; widening an empty pair is a
    legitimate mutation. A variant is special when its pair lies inside
    a feature-gate attribute.
    """
    tokens = lex(source).tokens
    spans = find_spans(source, tokens)
    ranges = _attribute_ranges(tokens, spans)
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
