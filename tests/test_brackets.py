from __future__ import annotations

import random
import time

from helpers import (
    fixture_corpus_texts,
    gen_angle_soup,
    gen_bracket_source,
    oracle_pairs,
    preorder,
    reference_find_spans,
    reference_match_angles,
)

from clozefuzz.brackets import (
    BracketKind,
    _match_pairs,
    find_bracket_pairs,
    find_spans,
)
from clozefuzz.lexer import lex, significant_tokens


def non_angle_pairs(source: str) -> set[tuple[str, int, int]]:
    return {
        (s.kind.value, s.open_at, s.close_at)
        for s in find_spans(source)
        if s.kind is not BracketKind.ANGLE
    }


def angle_spans(source: str):
    return [s for s in find_spans(source) if s.kind is BracketKind.ANGLE]


def test_fn_main_two_spans_with_empty_interiors():
    spans = find_spans("fn main() {}")
    assert len(spans) == 2
    assert [s.kind for s in spans] == [BracketKind.PAREN, BracketKind.BRACE]
    for s in spans:
        lo, hi = s.interior
        assert lo == hi


def test_feature_attribute_two_spans():
    src = "#![feature(unsize,coerce_unsized)]"
    spans = find_spans(src)
    assert [s.kind for s in spans] == [BracketKind.SQUARE, BracketKind.PAREN]
    outer, inner = spans
    lo, hi = inner.interior
    assert src[lo:hi] == "unsize,coerce_unsized"
    assert inner in outer.children
    assert (outer.depth, inner.depth) == (0, 1)


def test_comparison_is_not_an_angle_pair():
    assert angle_spans("a < b") == []
    assert angle_spans("if a < b { }") == []
    assert angle_spans("x < y; z > w") == []


def test_generic_argument_list_is_an_angle_pair():
    spans = angle_spans("Ptr<T>")
    assert len(spans) == 1
    lo, hi = spans[0].interior
    assert "Ptr<T>"[lo:hi] == "T"


def test_turbofish_and_bounds():
    assert len(angle_spans("Vec::<i32>::new()")) == 1
    src = "fn f<T: ?Sized>(x: &T) {}"
    spans = angle_spans(src)
    assert len(spans) == 1
    lo, hi = spans[0].interior
    assert src[lo:hi] == "T: ?Sized"


def test_nested_generics_with_shift_are_a_known_miss():
    # ">>" lexes as one fused token, so neither pair matches; missing
    # true pairs is allowed, inventing them is not
    assert angle_spans("Vec<Vec<u8>>") == []
    assert angle_spans("Vec<Vec<u8> >") != []


def test_angle_scan_skips_balanced_nests_and_aborts_on_unbalanced():
    spans = angle_spans("Result<(A, B), E>")
    assert len(spans) == 1
    # closer missing inside a surrounding paren: the '>' would cross
    assert angle_spans("f(a < b) > c") == []


def test_unmatched_brackets_degrade_to_fewer_spans():
    assert find_spans(")(") == []
    assert find_spans("(((") == []
    # the stray ')' is ignored; '[' at 1 still pairs with ']' at 3
    pairs = non_angle_pairs("([)]")
    assert pairs == {("square", 1, 3)}
    assert pairs == oracle_pairs("([)]")


def test_strings_and_comments_hide_brackets():
    src = 'f("(") // )\n{ }'
    pairs = non_angle_pairs(src)
    kinds = sorted(k for k, _, _ in pairs)
    assert kinds == ["brace", "paren"]


def test_tree_depth_children_and_dfs_order():
    src = "fn f(a: [u8; 2]) { g(h(1)) }"
    roots = find_bracket_pairs(src)
    spans = preorder(roots)
    assert span_keys(spans) == span_keys(find_spans(src))
    # parents precede children, open_at strictly ascends
    opens = [s.open_at for s in spans]
    assert opens == sorted(opens)
    for root in roots:
        assert root.depth == 0
        for child in root.children:
            assert child.depth == root.depth + 1
            assert root.open_at < child.open_at
            assert child.close_at < root.close_at


def test_sibling_spans_are_disjoint():
    for text in fixture_corpus_texts():
        for span in find_spans(text):
            kids = sorted(span.children, key=lambda s: s.open_at)
            for left, right in zip(kids, kids[1:]):
                assert left.close_at < right.open_at


def test_oracle_equivalence_random_sources():
    rng = random.Random(2024)
    for _ in range(300):
        text = gen_bracket_source(rng)
        assert angle_spans(text) == [], text
        assert non_angle_pairs(text) == oracle_pairs(text), text


def span_keys(spans):
    return [(s.kind, s.open_at, s.close_at, s.depth) for s in spans]


def test_single_pass_angles_match_reference_on_token_soups():
    rng = random.Random(1337)
    angles = 0
    for _ in range(10_000):
        text = gen_angle_soup(rng)
        tokens = lex(text).tokens
        sig = significant_tokens(tokens)
        expected = reference_match_angles(sig)
        found = [p for p in _match_pairs(sig) if p[0] is BracketKind.ANGLE]
        assert sorted(found) == expected, text
        spans = find_spans(text, tokens)
        assert span_keys(spans) == span_keys(reference_find_spans(text)), text
        angles += len(expected)
    assert angles > 1000  # the soups do produce generic pairs


def test_single_pass_angles_match_reference_on_fixtures():
    for text in fixture_corpus_texts() + ["Vec<Vec<u8> >", "f::<(A<B>, C)>(x)"]:
        assert span_keys(find_spans(text)) == span_keys(reference_find_spans(text))


def test_find_spans_is_linear_on_a_long_comparison_chain():
    # every '<' follows a name, so each is a plausible opener that
    # never closes: a forward scan per '<' would be quadratic
    terms = " || ".join(f"a{i} < b{i}" for i in range(3000))
    text = f"fn hostile() -> bool {{ {terms} }}\n"
    started = time.perf_counter()
    spans = find_spans(text)
    assert time.perf_counter() - started < 1.0
    assert angle_spans(text) == []
    assert len(spans) == 2


def test_find_spans_is_linear_on_an_aborting_turbofish_nest():
    # each '<' waits inside ever deeper parens and is dropped only when
    # the closers unwind past it
    levels = 2000
    text = "f::<(" * levels + "x" + ")" * levels
    started = time.perf_counter()
    spans = find_spans(text)
    assert time.perf_counter() - started < 1.0
    assert [s.kind for s in spans] == [BracketKind.PAREN] * levels
    assert spans[-1].depth == levels - 1
    assert span_keys(preorder(find_bracket_pairs(text))) == span_keys(spans)
