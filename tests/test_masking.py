from __future__ import annotations

import pytest
import random

from helpers import (
    feature_attribute_ranges,
    fixture_corpus_texts,
    gen_angle_soup,
    reference_cloze,
)

from clozefuzz.brackets import BracketKind, find_spans
from clozefuzz.masking import cloze, render

GATED = "#![feature(f1)]\nfn main() {}"


def test_cardinality_matches_span_count():
    for text in fixture_corpus_texts():
        assert len(cloze(text)) == len(find_spans(text))


def test_round_trip_identity_for_every_variant():
    for text in fixture_corpus_texts():
        for variant in cloze(text):
            assert variant.prefix + variant.original_interior + variant.suffix == text
            assert variant.source == text


def test_render_keeps_delimiters_and_substitutes_interior():
    variants = cloze("fn main() { body() }")
    brace = next(v for v in variants if v.span.kind is BracketKind.BRACE)
    masked = render(brace, "<M>")
    assert masked == "fn main() {<M>}"


def test_render_rejects_empty_sentinel():
    variant = cloze("f(x)")[0]
    with pytest.raises(ValueError):
        render(variant, "")


def test_empty_interior_is_still_masked():
    variants = cloze("fn main() {}")
    empties = [v for v in variants if v.original_interior == ""]
    assert len(empties) == 2


def test_special_flags_inside_feature_attribute():
    variants = cloze(GATED)
    by_kind = {}
    for v in variants:
        by_kind.setdefault(v.span.kind, []).append(v)

    # both the attribute's [] and its nested () are special
    squares = by_kind[BracketKind.SQUARE]
    assert len(squares) == 1 and squares[0].special
    parens = by_kind[BracketKind.PAREN]
    attr_paren = next(v for v in parens if v.original_interior == "f1")
    assert attr_paren.special
    fn_paren = next(v for v in parens if v.original_interior == "")
    assert not fn_paren.special
    braces = by_kind[BracketKind.BRACE]
    assert not braces[0].special


def test_special_matches_recomputation():
    for text in fixture_corpus_texts() + [GATED]:
        ranges = feature_attribute_ranges(text)
        for variant in cloze(text):
            span = variant.span
            inside = any(a <= span.open_at and span.close_at < b for a, b in ranges)
            assert inside == variant.special


def test_feature_ranges_cover_hash_through_closer():
    ranges = feature_attribute_ranges(GATED)
    assert len(ranges) == 1
    a, b = ranges[0]
    assert GATED[a:b] == "#![feature(f1)]"

    # outer attribute form, and whitespace between the tokens
    for src in ("#[feature(g)] fn f() {}", "# ! [ feature ( g ) ] fn f() {}"):
        ranges = feature_attribute_ranges(src)
        assert len(ranges) == 1
        a, b = ranges[0]
        assert src[a] == "#" and src[b - 1] == "]"


def test_non_feature_attributes_are_not_special():
    src = "#![allow(dead_code)]\nfn main() {}"
    assert feature_attribute_ranges(src) == []
    assert all(not v.special for v in cloze(src))


def test_seed_id_carried_through():
    for variant in cloze("f(x)", seed_id="s42"):
        assert variant.seed_id == "s42"


def _parts(variants):
    return [(v.prefix, v.original_interior, v.suffix, v.special) for v in variants]


def test_cloze_matches_reference_on_token_soups():
    rng = random.Random(5150)
    specials = 0
    for _ in range(10_000):
        text = gen_angle_soup(rng, features=True, pieces=20)
        expected = reference_cloze(text)
        assert _parts(cloze(text)) == expected, text
        specials += sum(special for *_, special in expected)
    assert specials > 1000  # the sweep was exercised, not just skipped


def test_cloze_matches_reference_on_fixtures():
    texts = fixture_corpus_texts() + [GATED, "\n".join(fixture_corpus_texts(200))]
    for text in texts:
        assert _parts(cloze(text)) == reference_cloze(text)


def test_variants_share_the_seed_text():
    # a variant is a view: memory stays linear in the seed, not in
    # seed length times span count
    text = "\n".join(fixture_corpus_texts(800))
    assert len(text) > 50_000
    variants = cloze(text)
    assert len(variants) > 3000
    assert all(v.source is text for v in variants)

