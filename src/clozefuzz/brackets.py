"""Matched-bracket extraction.

Finds every matched pair of (), {}, [] and a conservative subset of
generic <> pairs in a program, then arranges the pairs into a forest
ordered by containment. Unmatched brackets are dropped silently; the
rest of the pipeline only ever sees well-formed spans.

Every stage is linear. (), {} and [] pair on one stack. Angles pair in
one pass over the significant tokens, with a depth counter per bracket
kind and a stack of pending '<' per depth tuple. Every '<' is pushed,
as a placeholder unless it follows a name, '::' or '>'. A '>' pops the
stack of the current tuple and pairs only with a plausible '<'. A ';'
clears every stack; a closer of kind k at level d drops the stacks
whose tuple has k-component d. Fused tokens (<<, >>, ->, ...) are opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .lexer import Token, TokenKind, lex, significant_tokens


class BracketKind(Enum):
    PAREN = "paren"
    BRACE = "brace"
    SQUARE = "square"
    ANGLE = "angle"


_OPEN_KIND = {"(": BracketKind.PAREN, "{": BracketKind.BRACE, "[": BracketKind.SQUARE}
_CLOSE_KIND = {")": BracketKind.PAREN, "}": BracketKind.BRACE, "]": BracketKind.SQUARE}


@dataclass
class BracketSpan:
    kind: BracketKind
    open_at: int
    close_at: int
    depth: int = 0
    children: list[BracketSpan] = field(default_factory=list)

    @property
    def interior(self) -> tuple[int, int]:
        """Half-open character range strictly between the delimiters."""
        return (self.open_at + 1, self.close_at)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "open_at": self.open_at,
            "close_at": self.close_at,
            "depth": self.depth,
            "children": [c.to_dict() for c in self.children],
        }


def _match_classical(tokens: list[Token]) -> list[tuple[BracketKind, int, int]]:
    pairs: list[tuple[BracketKind, int, int]] = []
    stack: list[tuple[BracketKind, int]] = []
    for t in tokens:
        if t.kind is TokenKind.OPEN_BRACKET:
            stack.append((_OPEN_KIND[t.text], t.start))
        elif t.kind is TokenKind.CLOSE_BRACKET:
            kind = _CLOSE_KIND[t.text]
            if stack and stack[-1][0] is kind:
                _, open_at = stack.pop()
                pairs.append((kind, open_at, t.start))
            # a closer that doesn't match the innermost opener is ignored
    return pairs


def _angle_opener_plausible(prev: Token | None) -> bool:
    # '<' can only start a generic argument list after a name, a path
    # separator, or a previous closing '>' (e.g. Foo<T>::Bar<U>)
    if prev is None:
        return False
    if prev.kind is TokenKind.IDENTIFIER:
        return True
    return prev.kind is TokenKind.PUNCT and prev.text in ("::", ">")


def _match_angles(sig: list[Token]) -> list[tuple[BracketKind, int, int]]:
    """Generic angle pairs, by the single-pass rules above."""
    pairs: list[tuple[BracketKind, int, int]] = []
    depth = {BracketKind.PAREN: 0, BracketKind.BRACE: 0, BracketKind.SQUARE: 0}
    pending: dict[tuple[int, ...], list[Token | None]] = {}
    # (kind, level) -> depth tuples filed there when their stack began;
    # stale entries are harmless and the lists stay O(number of '<')
    at_level: dict[tuple[BracketKind, int], list[tuple[int, ...]]] = {}
    prev: Token | None = None
    for t in sig:
        if t.kind is TokenKind.OPEN_BRACKET:
            depth[_OPEN_KIND[t.text]] += 1
        elif t.kind is TokenKind.CLOSE_BRACKET:
            kind = _CLOSE_KIND[t.text]
            for key in at_level.pop((kind, depth[kind]), ()):
                pending.pop(key, None)
            # a stray closer may take a counter below zero; it has just
            # dropped every pending '<', so only relative depths matter
            depth[kind] -= 1
        elif t.kind is TokenKind.PUNCT and t.text == "<":
            key = tuple(depth.values())
            if key not in pending:
                pending[key] = []
                for kind_level in zip(depth, key):
                    at_level.setdefault(kind_level, []).append(key)
            pending[key].append(t if _angle_opener_plausible(prev) else None)
        elif t.kind is TokenKind.PUNCT and t.text == ">":
            stack = pending.get(tuple(depth.values()))
            opener = stack.pop() if stack else None
            if opener is not None:
                pairs.append((BracketKind.ANGLE, opener.start, t.start))
        elif t.kind is TokenKind.PUNCT and t.text == ";":
            pending.clear()
            at_level.clear()
        prev = t
    return pairs


def _sorted_forest(source: str, tokens: list[Token] | None) -> list[BracketSpan]:
    """Every span, linked into the containment forest, in (open_at,
    -close_at) order, which is also the forest's depth-first pre-order."""
    if tokens is None:
        tokens = lex(source).tokens
    raw = _match_classical(tokens) + _match_angles(significant_tokens(tokens))

    spans = [BracketSpan(kind, open_at, close_at) for kind, open_at, close_at in raw]
    spans.sort(key=lambda s: (s.open_at, -s.close_at))

    stack: list[BracketSpan] = []
    for span in spans:
        while stack and stack[-1].close_at < span.open_at:
            stack.pop()
        if stack:
            span.depth = stack[-1].depth + 1
            stack[-1].children.append(span)
        stack.append(span)
    return spans


def find_bracket_pairs(
    source: str, tokens: list[Token] | None = None
) -> list[BracketSpan]:
    """All matched bracket spans of a program as a containment forest.

    Roots come back in textual order; each node's children are the
    spans nested directly inside it. ``tokens`` is ``lex(source).tokens``
    when the caller already has it.
    """
    return [s for s in _sorted_forest(source, tokens) if s.depth == 0]


def find_spans(source: str, tokens: list[Token] | None = None) -> list[BracketSpan]:
    """Every span of ``find_bracket_pairs`` in depth-first pre-order."""
    return _sorted_forest(source, tokens)
