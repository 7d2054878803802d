"""Baseline generator: permute variable occurrences in a seed program.

A skeleton is the program with every variable occurrence cut out,
leaving ordered holes. Refilling the holes with a permutation of the
original occurrence sequence yields a variant whose token multiset
matches the seed exactly. Detection is lexical (let bindings and fn
parameters), not scope-accurate; type errors in the output are fine
because the downstream oracle only looks for crashes and hangs.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from math import factorial

from .lexer import Token, TokenKind, lex

ENUMERATION_THRESHOLD = 64
SAMPLE_SIZE = 32


@dataclass
class Skeleton:
    segments: list[str]  # len(segments) == len(occurrences) + 1
    occurrences: list[str]  # variable names in textual order

    def refill(self, names: list[str]) -> str:
        if len(names) != len(self.occurrences):
            raise ValueError(
                f"need {len(self.occurrences)} names, got {len(names)}"
            )
        parts: list[str] = []
        for segment, name in zip(self.segments, names):
            parts.append(segment)
            parts.append(name)
        parts.append(self.segments[-1])
        return "".join(parts)


# compared per token: a member looked up on its Enum class each time
# costs more than the comparison
_IDENTIFIER, _KEYWORD = TokenKind.IDENTIFIER, TokenKind.KEYWORD
_WHITESPACE, _COMMENT = TokenKind.WHITESPACE, TokenKind.COMMENT
# stands for the token before the first and the one after the last,
# which match nothing
_NOTHING = Token(_WHITESPACE, 0, 0, "")


def _significant(tokens: Iterable[Token]) -> Iterator[Token]:
    return (t for t in tokens if t.kind is not _WHITESPACE and t.kind is not _COMMENT)


def _binding_names(tokens: Iterable[Token]) -> set[str]:
    """Names bound by ``let`` or ``let mut``, and fn parameter names,
    read from ``tokens`` in one pass.

    A fn's parameter list is the first '(' after its keyword, unless a
    '{' or ';' comes first. A parameter is an identifier directly
    followed by ':' whose innermost open '(' is such a list. A stack
    says, per open '(', whether it is one.
    """
    names: set[str] = set()
    # 1 just after ``let``, 2 just after ``let mut``
    binding = 0
    # a fn keyword was seen, and no '(', '{' or ';' since
    fn_pending = False
    param_lists: list[bool] = []
    prev = _NOTHING
    for tok in _significant(tokens):
        kind, text = tok.kind, tok.text
        if binding and kind is _IDENTIFIER:
            names.add(text)
        binding = 2 if binding == 1 and text == "mut" and kind is _KEYWORD else 0
        if kind is _KEYWORD:
            if text == "let":
                binding = 1
            elif text == "fn":
                fn_pending = True
        elif text == "(":
            param_lists.append(fn_pending)
            fn_pending = False
        elif text == "{" or text == ";":
            fn_pending = False
        elif text == ")":
            if param_lists:
                param_lists.pop()
        elif (
            text == ":"
            and prev.kind is _IDENTIFIER
            and param_lists
            and param_lists[-1]
        ):
            names.add(prev.text)
        prev = tok
    return names


_SKIP_BEFORE = (".", "::")
_SKIP_AFTER = ("!", "::")


def extract_variables(source: str) -> Skeleton:
    """Cut variable occurrences out of a program.

    An occurrence is any identifier token matching a bound name,
    except path members (preceded by '.' or '::'), path roots
    (followed by '::'), macro names (followed by '!'), and fn names.
    The tokens are lexed once and read in two streamed passes, one for
    the names and one for the occurrences, each holding a token or two
    at a time.
    """
    tokens = lex(source).tokens
    names = _binding_names(tokens)
    segments: list[str] = []
    occurrences: list[str] = []
    cursor = 0
    # each token is judged once the one after it is read
    prev = cur = _NOTHING
    for nxt in chain(_significant(tokens), (_NOTHING,)):
        if (
            cur.kind is _IDENTIFIER
            and cur.text in names
            and prev.text not in _SKIP_BEFORE
            and not (prev.kind is _KEYWORD and prev.text == "fn")
            and nxt.text not in _SKIP_AFTER
        ):
            segments.append(source[cursor : cur.start])
            occurrences.append(cur.text)
            cursor = cur.end
        prev, cur = cur, nxt
    segments.append(source[cursor:])
    return Skeleton(segments=segments, occurrences=occurrences)


def permutation_count(occurrences: list[str]) -> int:
    """Number of distinct arrangements of the occurrence multiset."""
    total = factorial(len(occurrences))
    for mult in Counter(occurrences).values():
        total //= factorial(mult)
    return total


def _next_permutation(seq: list[str]) -> bool:
    """Advance to the lexicographically next arrangement in place."""
    i = len(seq) - 2
    while i >= 0 and seq[i] >= seq[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(seq) - 1
    while seq[j] <= seq[i]:
        j -= 1
    seq[i], seq[j] = seq[j], seq[i]
    seq[i + 1 :] = reversed(seq[i + 1 :])
    return True


def _all_distinct_permutations(occurrences: list[str]) -> Iterator[tuple[str, ...]]:
    seq = sorted(occurrences)
    while True:
        yield tuple(seq)
        if not _next_permutation(seq):
            return


def enumerate_fillings(
    skeleton: Skeleton,
    threshold: int = ENUMERATION_THRESHOLD,
    sample_size: int = SAMPLE_SIZE,
    rng: random.Random | None = None,
) -> list[str]:
    """Programs obtained by permuting the skeleton's occurrences.

    When the distinct-arrangement count is at most the threshold, or
    there are no more non-identity arrangements than sample_size,
    every arrangement except the identity is emitted. Otherwise exactly
    sample_size distinct non-identity arrangements are drawn uniformly
    by rejection sampling.
    """
    if not skeleton.occurrences:
        return []
    identity = tuple(skeleton.occurrences)
    count = permutation_count(skeleton.occurrences)
    if count <= threshold or count - 1 <= sample_size:
        return [
            skeleton.refill(list(arrangement))
            for arrangement in _all_distinct_permutations(skeleton.occurrences)
            if arrangement != identity
        ]
    if rng is None:
        raise ValueError("an rng is required when sampling above the threshold")
    chosen: set[tuple[str, ...]] = set()
    out: list[str] = []
    while len(out) < sample_size:
        arrangement = list(skeleton.occurrences)
        rng.shuffle(arrangement)
        key = tuple(arrangement)
        if key == identity or key in chosen:
            continue
        chosen.add(key)
        out.append(skeleton.refill(arrangement))
    return out
