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
from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .lexer import Token, TokenKind, lex, significant_tokens

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


def _is_open_paren(tok: Token) -> bool:
    return tok.kind is TokenKind.OPEN_BRACKET and tok.text == "("


def _binding_names(sig: list[Token]) -> set[str]:
    """Names bound by ``let`` or ``let mut``, and fn parameter names.

    A fn's parameter list is the first '(' after its keyword, unless a
    '{' or ';' comes first. A parameter is an identifier directly
    followed by ':' whose innermost open '(' is such a list. Linear:
    one backward pass finds each token's next stop, and one forward
    pass keeps a stack of the open parentheses.
    """
    # next_stop[i]: the first '(', '{' or ';' at or after sig[i]
    next_stop = [len(sig)] * (len(sig) + 1)
    for i in reversed(range(len(sig))):
        stop = _is_open_paren(sig[i]) or sig[i].text in ("{", ";")
        next_stop[i] = i if stop else next_stop[i + 1]
    names: set[str] = set()
    param_lists: set[int] = set()
    parens: list[int] = []
    for i, tok in enumerate(sig):
        if tok.kind is TokenKind.KEYWORD and tok.text == "let":
            j = i + 1
            if j < len(sig) and sig[j].kind is TokenKind.KEYWORD and sig[j].text == "mut":
                j += 1
            if j < len(sig) and sig[j].kind is TokenKind.IDENTIFIER:
                names.add(sig[j].text)
        elif tok.kind is TokenKind.KEYWORD and tok.text == "fn":
            stop = next_stop[i + 1]
            if stop < len(sig) and _is_open_paren(sig[stop]):
                param_lists.add(stop)
        elif _is_open_paren(tok):
            parens.append(i)
        elif tok.kind is TokenKind.CLOSE_BRACKET and tok.text == ")":
            if parens:
                parens.pop()
        elif (
            parens
            and parens[-1] in param_lists
            and tok.kind is TokenKind.IDENTIFIER
            and i + 1 < len(sig)
            and sig[i + 1].kind is TokenKind.PUNCT
            and sig[i + 1].text == ":"
        ):
            names.add(tok.text)
    return names


_SKIP_BEFORE = (".", "::")
_SKIP_AFTER = ("!", "::")


def extract_variables(source: str) -> Skeleton:
    """Cut variable occurrences out of a program.

    An occurrence is any identifier token matching a bound name,
    except path members (preceded by '.' or '::'), path roots
    (followed by '::'), macro names (followed by '!'), and fn names.
    """
    tokens = lex(source).tokens
    sig = significant_tokens(tokens)
    names = _binding_names(sig)

    holes: list[Token] = []
    for k, tok in enumerate(sig):
        if tok.kind is not TokenKind.IDENTIFIER or tok.text not in names:
            continue
        prev = sig[k - 1] if k > 0 else None
        nxt = sig[k + 1] if k + 1 < len(sig) else None
        if prev is not None and prev.text in _SKIP_BEFORE:
            continue
        if prev is not None and prev.kind is TokenKind.KEYWORD and prev.text == "fn":
            continue
        if nxt is not None and nxt.text in _SKIP_AFTER:
            continue
        holes.append(tok)

    segments: list[str] = []
    occurrences: list[str] = []
    cursor = 0
    for tok in holes:
        segments.append(source[cursor : tok.start])
        occurrences.append(tok.text)
        cursor = tok.end
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
