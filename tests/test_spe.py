from __future__ import annotations

import gc
import random
import time
import tracemalloc
from collections import Counter

import pytest
from helpers import (
    fixture_corpus_texts,
    gen_angle_soup,
    reference_extract_variables,
    repeated_fixture_seed,
)

from clozefuzz.lexer import TokenKind, lex
from clozefuzz.spe import (
    Skeleton,
    enumerate_fillings,
    extract_variables,
    permutation_count,
)


def token_multiset(source):
    return Counter(
        t.text for t in lex(source).tokens if t.kind is not TokenKind.WHITESPACE
    )


class TestExtraction:
    def test_let_bindings_and_uses(self):
        src = "fn main() { let a = 1; let b = a; }"
        skeleton = extract_variables(src)
        assert skeleton.occurrences == ["a", "b", "a"]
        assert len(skeleton.segments) == len(skeleton.occurrences) + 1

    def test_let_mut(self):
        skeleton = extract_variables("fn f() { let mut acc = 0; acc += 1; }")
        assert skeleton.occurrences == ["acc", "acc"]

    def test_fn_parameters(self):
        skeleton = extract_variables("fn add(x: u64, y: u64) -> u64 { x + y }")
        assert skeleton.occurrences == ["x", "y", "x", "y"]

    def test_generics_do_not_confuse_parameter_scan(self):
        skeleton = extract_variables("fn g<T: Copy>(item: T) -> T { item }")
        assert skeleton.occurrences == ["item", "item"]

    def test_fn_names_are_not_occurrences(self):
        # "a" is bound AND is the name of a second fn; the fn name spot stays
        src = "fn main() { let a = 1; a; } fn a() {}"
        skeleton = extract_variables(src)
        assert skeleton.occurrences == ["a", "a"]

    def test_macro_and_path_positions_are_skipped(self):
        src = (
            "fn main() { let v = 1; let s = 2;\n"
            "v!(s); s.v; v::s; s; }"
        )
        # skipped: v! (macro name), .v (member), v:: (path root), ::s
        # (path member); kept: both bindings, the macro argument, the
        # receiver of s.v, and the bare s
        skeleton = extract_variables(src)
        assert skeleton.occurrences == ["v", "s", "s", "s", "s"]

    @pytest.mark.parametrize(
        "src, occurrences",
        [
            # no fn ever reaches a parameter list
            ("fn f " * 10000, []),
            # every list stays open, each nested in the one before
            ("fn f(a: i32, " * 4000, ["a"] * 4000),
        ],
        ids=["no-list", "unclosed-lists"],
    )
    def test_parameter_scan_is_linear(self, src, occurrences):
        # a forward scan per fn would be quadratic on either shape
        started = time.perf_counter()
        skeleton = extract_variables(src)
        assert time.perf_counter() - started < 1.0
        assert skeleton.occurrences == occurrences

    @pytest.mark.parametrize(
        "src",
        [
            "fn f() { let let a = 1; let mut mut b = 2; let mut let c = 3; }",
            "fn fn g(a: u8) { a } fn h; (b: u8) fn k { (c: u8) }",
            "fn f(a: u8, (b: u8), g: fn(c: u8)) { a.b; b::a; a!(); ::b }",
            "fn f(a: u8",
            "let",
        ],
    )
    def test_edge_cases_match_the_reference(self, src):
        expected = reference_extract_variables(src)
        assert extract_variables(src) == expected

    def test_skeletons_match_the_reference_on_fixture_seeds(self):
        texts = fixture_corpus_texts() + [repeated_fixture_seed(20_000)]
        rng = random.Random(33)
        texts += [gen_angle_soup(rng) for _ in range(500)]
        for text in texts:
            assert extract_variables(text) == reference_extract_variables(text), text

    def test_extraction_peaks_at_most_16_bytes_per_character(self):
        # two streamed passes: no list of tokens lives beside the
        # skeleton
        text = repeated_fixture_seed(200_000)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            skeleton = extract_variables(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(skeleton.occurrences) > 5000
        assert peak / len(text) <= 16

    def test_no_bindings_no_occurrences(self):
        assert extract_variables("fn main() {}").occurrences == []
        assert extract_variables('fn main() { println!("hi"); }').occurrences == []

    def test_refill_identity_round_trip(self):
        src = "fn add(x: u64, y: u64) -> u64 { x + y }"
        skeleton = extract_variables(src)
        assert skeleton.refill(list(skeleton.occurrences)) == src

    def test_refill_arity_checked(self):
        skeleton = extract_variables("fn f() { let a = 1; }")
        with pytest.raises(ValueError):
            skeleton.refill(["a", "a"])


class TestCounting:
    def test_permutation_count_of_multisets(self):
        assert permutation_count([]) == 1
        assert permutation_count(["a"]) == 1
        assert permutation_count(["a", "b"]) == 2
        assert permutation_count(["a", "b", "a"]) == 3
        assert permutation_count(["a", "b", "c"]) == 6
        assert permutation_count(list("abcd")) == 24
        assert permutation_count(["a"] * 5) == 1


class TestEnumeration:
    def test_two_occurrences_give_one_variant(self):
        variants = enumerate_fillings(extract_variables("fn f(a: u32, b: u32) {}"))
        assert variants == ["fn f(b: u32, a: u32) {}"]

    def test_three_distinct_give_five_variants(self):
        src = "fn f() { let a = 1; let b = 2; let c = 3; }"
        variants = enumerate_fillings(extract_variables(src))
        assert len(variants) == 5
        assert len(set(variants)) == 5
        assert src not in variants

    def test_four_distinct_give_twenty_three_variants(self):
        src = "fn f() { let a = 1; let b = 2; let c = 3; let d = 4; }"
        variants = enumerate_fillings(extract_variables(src))
        assert len(variants) == 23

    def test_repeated_names_deduplicate_arrangements(self):
        # occurrences [a, a, b]: 3 distinct arrangements, identity excluded
        src = "fn f() { let a = 1; let b = a; }"
        skeleton = extract_variables(src)
        assert skeleton.occurrences == ["a", "b", "a"]
        variants = enumerate_fillings(skeleton)
        assert len(variants) == 2
        assert len(set(variants)) == 2

    def test_variants_preserve_token_multiset(self):
        src = "fn f() { let a = 1; let b = 2; let c = a; }"
        baseline = token_multiset(src)
        for variant in enumerate_fillings(extract_variables(src)):
            assert token_multiset(variant) == baseline

    def test_no_occurrences_no_variants(self):
        assert enumerate_fillings(extract_variables("fn main() {}")) == []

    def test_enumeration_is_lexicographic(self):
        skeleton = Skeleton(segments=["", " ", ""], occurrences=["b", "a"])
        assert enumerate_fillings(skeleton) == ["a b"]


class TestSampling:
    SIX = (
        "fn f() { let a = 1; let b = 2; let c = 3;"
        " let d = 4; let e = 5; let g = 6; }"
    )

    def test_above_threshold_requires_rng(self):
        with pytest.raises(ValueError):
            enumerate_fillings(extract_variables(self.SIX))

    def test_exactly_sample_size_distinct_variants(self):
        variants = enumerate_fillings(extract_variables(self.SIX), rng=random.Random(2))
        assert len(variants) == 32
        assert len(set(variants)) == 32
        assert self.SIX not in variants

    def test_sampling_is_deterministic(self):
        a = enumerate_fillings(extract_variables(self.SIX), rng=random.Random(13))
        b = enumerate_fillings(extract_variables(self.SIX), rng=random.Random(13))
        assert a == b

    def test_sampling_preserves_token_multiset(self):
        baseline = token_multiset(self.SIX)
        for variant in enumerate_fillings(extract_variables(self.SIX), rng=random.Random(0)):
            assert token_multiset(variant) == baseline

    def test_custom_threshold_and_sample_size(self):
        src = "fn f() { let a = 1; let b = 2; let c = 3; }"
        variants = enumerate_fillings(
            extract_variables(src), threshold=5, sample_size=2, rng=random.Random(1)
        )
        assert len(variants) == 2
        assert len(set(variants)) == 2
