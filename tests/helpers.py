"""Shared test utilities.

Holds an independent character-level bracket matcher used as an oracle
against the token-based implementation, a random source generator for
property tests, and a deterministic fixture corpus builder. It also
keeps the original quadratic angle matcher and three-lex ``cloze`` as a
reference spec, with a token-soup generator to compare against it, and
the list-based ``spe.extract_variables`` as a reference for the
streamed one.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from clozefuzz.brackets import (
    BracketKind,
    BracketSpan,
    _match_pairs,
    find_spans,
)
from clozefuzz.lexer import Token, TokenKind, lex
from clozefuzz.masking import _gate_ranges, _noting_gates
from clozefuzz.spe import Skeleton


def significant_tokens(tokens: Iterable[Token]) -> list[Token]:
    """Tokens that matter for structure: everything except whitespace
    and comments."""
    return [
        t
        for t in tokens
        if t.kind is not TokenKind.WHITESPACE and t.kind is not TokenKind.COMMENT
    ]


# --- independent bracket oracle ---------------------------------------------
#
# Works directly on characters: first blank out string literals and
# comments, then run a plain stack matcher. Deliberately shares no code
# with the package. The property-test generator below only emits
# sources this scanner understands (no escapes, no nested block
# comments, no raw strings), so both sides interpret every input the
# same way.

_OPEN = {"(": "paren", "{": "brace", "[": "square"}
_CLOSE = {")": "paren", "}": "brace", "]": "square"}


def blank_noncode(text: str) -> str:
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j == -1 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            for k in range(i, j):
                out[k] = " "
            i = j
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            j = min(j + 1, n)
            for k in range(i, j):
                out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def oracle_pairs(text: str) -> set[tuple[str, int, int]]:
    """(kind, open offset, close offset) per matched non-angle pair."""
    blanked = blank_noncode(text)
    stack: list[tuple[str, int]] = []
    pairs: set[tuple[str, int, int]] = set()
    for i, c in enumerate(blanked):
        if c in _OPEN:
            stack.append((_OPEN[c], i))
        elif c in _CLOSE:
            kind = _CLOSE[c]
            if stack and stack[-1][0] == kind:
                _, open_at = stack.pop()
                pairs.add((kind, open_at, i))
            # mismatched closer: dropped, opener stays pending
    return pairs


# letters avoid r and b so a generated quote never reads as a raw or
# byte string prefix to the real lexer
_LETTERS = "cdefghij"
_FILLER = _LETTERS + "()[]{} "


def gen_bracket_source(rng: random.Random) -> str:
    """Random bracket soup with strings and comments mixed in."""
    pieces: list[str] = []
    for _ in range(rng.randrange(5, 60)):
        roll = rng.random()
        if roll < 0.45:
            pieces.append(rng.choice("()[]{}"))
        elif roll < 0.60:
            pieces.append(
                "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(1, 5)))
            )
        elif roll < 0.70:
            pieces.append(" " if rng.random() < 0.7 else "\n")
        elif roll < 0.80:
            body = "".join(rng.choice(_FILLER) for _ in range(rng.randrange(0, 8)))
            pieces.append(f'"{body}"')
        elif roll < 0.90:
            body = "".join(rng.choice(_FILLER) for _ in range(rng.randrange(0, 8)))
            pieces.append(f"//{body}\n")
        else:
            body = "".join(rng.choice(_FILLER) for _ in range(rng.randrange(0, 8)))
            pieces.append(f"/*{body}*/")
    return "".join(pieces)


# --- deterministic fixture corpus --------------------------------------------

_TEMPLATES = [
    'fn main() { let x@N@ = 1; println!("{}", x@N@); }',
    "#![feature(gate@N@, other_gate@N@)]\nfn main() { let v = vec![@N@]; }",
    "fn pair@N@<T: Clone>(a: T, b: T) -> (T, T) { (a.clone(), b) }",
    "struct S@N@ { field: [u8; 4] }\n"
    "impl S@N@ { fn get(&self) -> u8 { self.field[0] } }",
    "fn main() {\n"
    "    // comment with (brackets) [inside]\n"
    '    let s = "literal with } brace";\n'
    '    let r = r#"raw "quoted" text @N@"#;\n'
    "}",
    "fn apply@N@(f: impl Fn(i32) -> i32) -> i32 { f(@N@) }",
    "static ARR@N@: [i32; 3] = [1, 2, @N@];",
    "fn m@N@(x: Option<i32>) -> i32 { match x { Some(v) => v, None => @N@ } }",
    "mod inner@N@ { pub fn f() -> Vec<Vec<u8>> { vec![vec![@N@]] } }",
    "#[feature(custom@N@)]\nfn g@N@() { /* block (comment) */ let c = 'x'; }",
    "fn main() { let add = |a: i32, c: i32| (a + c); let _ = add(@N@, 2); }",
    "trait T@N@ { fn m(&self) -> u64; }\n"
    "impl T@N@ for u64 { fn m(&self) -> u64 { *self + @N@ } }",
]


def fixture_corpus_texts(count: int = 50) -> list[str]:
    return [
        _TEMPLATES[i % len(_TEMPLATES)].replace("@N@", str(i)) for i in range(count)
    ]


def repeated_fixture_seed(size: int) -> str:
    """The fixture corpus as one seed, repeated to at least ``size``
    characters: a large seed for the memory guards."""
    text = "\n".join(fixture_corpus_texts()) + "\n"
    return text * -(-size // len(text))


def feature_attribute_ranges(source: str) -> list[tuple[int, int]]:
    """The feature-gate attribute ranges ``cloze`` computes for ``source``."""
    gates: list[tuple[int, int]] = []
    spans = find_spans(source, _noting_gates(lex(source).tokens, gates))
    return _gate_ranges(gates, spans)


# --- reference spec: the original quadratic angle matcher --------------------
#
# The angle matcher is kept verbatim from the first implementation of
# ``clozefuzz.brackets``: every plausible '<' scans forward on its own
# for its '>'. ``reference_cloze`` is the first ``clozefuzz.masking``
# (its spans computed once, not twice): separate lexes, a scan of every
# attribute range per span, and prefix and suffix copied per variant.
# Slow (quadratic in the worst case) but plainly faithful to the rules,
# so the single-pass matcher and the single-lex ``cloze`` are checked
# against it. The (), {}, [] pairs come from the package's one-pass
# matcher, with its angle pairs left out.

_OPEN_KIND = {"(": BracketKind.PAREN, "{": BracketKind.BRACE, "[": BracketKind.SQUARE}
_CLOSE_KIND = {")": BracketKind.PAREN, "}": BracketKind.BRACE, "]": BracketKind.SQUARE}


def _angle_opener_plausible(prev: Token | None) -> bool:
    # '<' can only start a generic argument list after a name, a path
    # separator, or a previous closing '>' (e.g. Foo<T>::Bar<U>)
    if prev is None:
        return False
    if prev.kind is TokenKind.IDENTIFIER:
        return True
    return prev.kind is TokenKind.PUNCT and prev.text in ("::", ">")


def _scan_angle_close(sig: list[Token], open_idx: int) -> int | None:
    """Walk forward from a candidate '<' looking for its '>'.

    Nested (), {}, [] groups are skipped whole. The scan gives up at
    any ';', at a closer that has no opener inside the scanned region,
    or at end of input: past any of those the '<' was a comparison.
    """
    depth = {BracketKind.PAREN: 0, BracketKind.BRACE: 0, BracketKind.SQUARE: 0}
    angle = 0
    for t in sig[open_idx + 1 :]:
        if t.kind is TokenKind.PUNCT and t.text == ";":
            return None
        if t.kind is TokenKind.OPEN_BRACKET:
            depth[_OPEN_KIND[t.text]] += 1
            continue
        if t.kind is TokenKind.CLOSE_BRACKET:
            kind = _CLOSE_KIND[t.text]
            if depth[kind] == 0:
                return None
            depth[kind] -= 1
            continue
        if any(depth.values()):
            continue
        if t.kind is TokenKind.PUNCT:
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                if angle == 0:
                    return t.start
                angle -= 1
            # fused operators (<<, >>, <=, ...) are opaque here on purpose
    return None


def reference_match_angles(sig: list[Token]) -> list[tuple[BracketKind, int, int]]:
    pairs: list[tuple[BracketKind, int, int]] = []
    for idx, t in enumerate(sig):
        if t.kind is not TokenKind.PUNCT or t.text != "<":
            continue
        prev = sig[idx - 1] if idx > 0 else None
        if not _angle_opener_plausible(prev):
            continue
        close_at = _scan_angle_close(sig, idx)
        if close_at is not None:
            pairs.append((BracketKind.ANGLE, t.start, close_at))
    return pairs


def reference_find_spans(source: str) -> list[BracketSpan]:
    tokens = lex(source).tokens
    sig = significant_tokens(tokens)
    classical = [p for p in _match_pairs(tokens) if p[0] is not BracketKind.ANGLE]
    raw = classical + reference_match_angles(sig)

    spans = [BracketSpan(kind, open_at, close_at) for kind, open_at, close_at in raw]
    spans.sort(key=lambda s: (s.open_at, -s.close_at))

    roots: list[BracketSpan] = []
    stack: list[BracketSpan] = []
    for span in spans:
        while stack and stack[-1].close_at < span.open_at:
            stack.pop()
        if stack:
            span.depth = stack[-1].depth + 1
            stack[-1].children.append(span)
        else:
            span.depth = 0
            roots.append(span)
        stack.append(span)

    out: list[BracketSpan] = []

    def walk(span: BracketSpan) -> None:
        out.append(span)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return out


def preorder(roots: list[BracketSpan]) -> list[BracketSpan]:
    """Depth-first pre-order of a span forest, walked from its roots
    without recursion, so deep nests stay within the stack limit."""
    out: list[BracketSpan] = []
    todo = list(reversed(roots))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(reversed(span.children))
    return out


def reference_feature_attribute_ranges(
    source: str, spans: list[BracketSpan]
) -> list[tuple[int, int]]:
    sig = significant_tokens(lex(source).tokens)
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


def reference_cloze(source: str) -> list[tuple[str, str, str, bool]]:
    """(prefix, interior, suffix, special) per variant, in span order."""
    spans = reference_find_spans(source)
    attr_ranges = reference_feature_attribute_ranges(source, spans)
    variants = []
    for span in spans:
        lo, hi = span.interior
        special = any(a <= span.open_at and span.close_at < b for a, b in attr_ranges)
        variants.append((source[:lo], source[lo:hi], source[span.close_at :], special))
    return variants


# --- token soups for the angle matcher ---------------------------------------

_SOUP_PIECES = (
    ["a", "Vec", "T", "x1", "_"] * 3
    + ["<"] * 6
    + [">"] * 5
    + ["::"] * 2
    + [";", "<<", ">>", "->", "<=", "(", ")", "[", "]", "{", "}", ",", "||"]
    + ['"<(>"', "// < ) >\n", "/* > ] */", "'a", "#"]
)
_FEATURE_ATTRS = ("#![feature(x)]", "#[feature(a, b)]", "# ! [ feature ( c ) ]")


def gen_angle_soup(rng: random.Random, features: bool = False, pieces: int = 32) -> str:
    """Random token soup dense in '<' and '>', with fused operators,
    mismatched closers, strings, comments and, optionally, many
    feature-gate attributes, some wrapped around more soup so that
    attributes nest and spans sit inside an outer attribute after an
    inner one has closed."""
    out: list[str] = []
    for _ in range(rng.randrange(1, pieces)):
        roll = rng.random() if features else 1.0
        if roll < 0.1:
            out.append(rng.choice(_FEATURE_ATTRS))
        elif roll < 0.15 and pieces > 4:
            out.append(f"#![feature({gen_angle_soup(rng, True, pieces // 2)})]")
        else:
            out.append(rng.choice(_SOUP_PIECES))
        if rng.random() < 0.3:
            out.append(" ")
    return "".join(out)


# --- reference spec: the list-based variable extraction ----------------------
#
# ``spe.extract_variables`` as first written: it lists the significant
# tokens, finds each token's next '(', '{' or ';' with a backward pass,
# and reads each candidate's neighbours by index. The streamed version
# must cut every seed into the same skeleton.


def _is_open_paren(tok: Token) -> bool:
    return tok.kind is TokenKind.OPEN_BRACKET and tok.text == "("


def _reference_binding_names(sig: list[Token]) -> set[str]:
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


def reference_extract_variables(source: str) -> Skeleton:
    sig = significant_tokens(lex(source).tokens)
    names = _reference_binding_names(sig)

    holes: list[Token] = []
    for k, tok in enumerate(sig):
        if tok.kind is not TokenKind.IDENTIFIER or tok.text not in names:
            continue
        prev = sig[k - 1] if k > 0 else None
        nxt = sig[k + 1] if k + 1 < len(sig) else None
        if prev is not None and prev.text in (".", "::"):
            continue
        if prev is not None and prev.kind is TokenKind.KEYWORD and prev.text == "fn":
            continue
        if nxt is not None and nxt.text in ("!", "::"):
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
