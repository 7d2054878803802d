"""Matched-bracket extraction.

Finds every matched pair of (), {}, [] and a conservative subset of
generic <> pairs in a program, then arranges the pairs into a forest
ordered by containment. Unmatched brackets are dropped silently; the
rest of the pipeline only ever sees well-formed spans.

Every stage is linear. One pass over the significant tokens pairs
every kind. (), {} and [] pair on one stack. Angles pair with a depth
counter per bracket kind and a stack of pending '<' per depth tuple.
Every '<' is pushed, as a placeholder unless it follows a name, '::'
or '>'. A '>' pops the stack of the current tuple and pairs only with
a plausible '<'. A ';' clears every stack; a closer of kind k at level
d drops the stacks whose tuple has k-component d. Fused tokens (<<,
>>, ->, ...) are opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .lexer import Token, TokenKind, lex


class BracketKind(Enum):
    PAREN = "paren"
    BRACE = "brace"
    SQUARE = "square"
    ANGLE = "angle"


# a bracket's kind index is its place here, in _CLASSICAL and in the
# depth list of _match_pairs
_CLASSICAL = (BracketKind.PAREN, BracketKind.BRACE, BracketKind.SQUARE)
_INDEX = {"(": 0, ")": 0, "{": 1, "}": 1, "[": 2, "]": 2}
_OPEN, _CLOSE = TokenKind.OPEN_BRACKET, TokenKind.CLOSE_BRACKET
_PUNCT, _IDENTIFIER = TokenKind.PUNCT, TokenKind.IDENTIFIER
_WHITESPACE, _COMMENT = TokenKind.WHITESPACE, TokenKind.COMMENT


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


def _match_pairs(tokens: list[Token]) -> list[tuple[BracketKind, int, int]]:
    """Every (), {}, [] pair and every generic angle pair, by the
    single-pass rules above. Whitespace and comments are skipped, so
    ``tokens`` may be a whole token stream or its significant tokens."""
    pairs: list[tuple[BracketKind, int, int]] = []
    opened: list[tuple[int, int]] = []  # (kind index, open_at), innermost last
    depth = [0, 0, 0]  # per kind index
    pending: dict[tuple[int, ...], list[int | None]] = {}
    # (kind index, level) -> depth tuples filed there when their stack
    # began; stale entries are harmless and the lists stay O(number of '<')
    at_level: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    # a '<' can only start a generic argument list after a name, a path
    # separator, or a previous closing '>' (e.g. Foo<T>::Bar<U>)
    plausible = False
    for kind, start, _, text in tokens:
        if kind is _OPEN:
            k = _INDEX[text]
            opened.append((k, start))
            depth[k] += 1
        elif kind is _CLOSE:
            k = _INDEX[text]
            # a closer that doesn't match the innermost opener is ignored
            if opened and opened[-1][0] == k:
                pairs.append((_CLASSICAL[k], opened.pop()[1], start))
            for key in at_level.pop((k, depth[k]), ()):
                pending.pop(key, None)
            # a stray closer may take a counter below zero; it has just
            # dropped every pending '<', so only relative depths matter
            depth[k] -= 1
        elif kind is _PUNCT:
            if text == "<":
                key = tuple(depth)
                stack = pending.get(key)
                if stack is None:
                    stack = pending[key] = []
                    for level in enumerate(key):
                        at_level.setdefault(level, []).append(key)
                stack.append(start if plausible else None)
            elif text == ">":
                stack = pending.get(tuple(depth))
                open_at = stack.pop() if stack else None
                if open_at is not None:
                    pairs.append((BracketKind.ANGLE, open_at, start))
            elif text == ";":
                pending.clear()
                at_level.clear()
        elif kind is _WHITESPACE or kind is _COMMENT:
            continue
        plausible = kind is _IDENTIFIER or text == "::" or text == ">"
    return pairs


def find_spans(source: str, tokens: list[Token] | None = None) -> list[BracketSpan]:
    """Every span of ``find_bracket_pairs`` in depth-first pre-order,
    which is (open_at, -close_at) order. ``tokens`` is
    ``lex(source).tokens``, or only its significant tokens, when the
    caller already has it."""
    if tokens is None:
        tokens = lex(source).tokens
    spans = [BracketSpan(*pair) for pair in _match_pairs(tokens)]
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


def find_bracket_pairs(source: str) -> list[BracketSpan]:
    """All matched bracket spans of a program as a containment forest.

    Roots come back in textual order; each node's children are the
    spans nested directly inside it.
    """
    return [s for s in find_spans(source) if s.depth == 0]
