from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from clozefuzz.augment import (
    AugmentConfig,
    default_swap_count,
    export_finetune_corpus,
    random_delete,
    random_swap,
)
from clozefuzz.corpus import Corpus, load_corpus
from clozefuzz.lexer import TokenKind, lex


def nonspace_texts(source):
    return Counter(
        t.text for t in lex(source).tokens if t.kind is not TokenKind.WHITESPACE
    )


MULTI_FN = (
    "fn alpha() { let a = 1; }\n"
    "fn beta() { let b = 2; }\n"
    "fn gamma() { let c = 3; }\n"
)


class TestRandomDelete:
    def test_p_zero_keeps_every_token(self):
        out = random_delete(MULTI_FN, 0.0, random.Random(0))
        assert nonspace_texts(out) == nonspace_texts(MULTI_FN)

    def test_p_one_deletes_everything(self):
        assert random_delete(MULTI_FN, 1.0, random.Random(0)) == ""

    def test_whitespace_collapses_to_single_spaces(self):
        out = random_delete("a   b\n\n\tc", 0.0, random.Random(0))
        assert out == "a b c"
        # adjacency without whitespace stays glued
        assert random_delete("fn main() {}", 0.0, random.Random(0)) == "fn main() {}"

    def test_deletion_fraction_tracks_p(self):
        source = " ".join(f"x{i}" for i in range(10_000))
        out = random_delete(source, 0.2, random.Random(42))
        survivors = sum(nonspace_texts(out).values())
        deleted_fraction = 1 - survivors / 10_000
        assert 0.18 <= deleted_fraction <= 0.22

    def test_deterministic_per_seed(self):
        a = random_delete(MULTI_FN, 0.5, random.Random(9))
        b = random_delete(MULTI_FN, 0.5, random.Random(9))
        c = random_delete(MULTI_FN, 0.5, random.Random(10))
        assert a == b
        assert a != c  # 14 independent coin flips; seeds 9 and 10 diverge

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            random_delete("fn main() {}", 1.5, random.Random(0))


class TestRandomSwap:
    def test_token_multiset_preserved(self):
        out, swapped = random_swap(MULTI_FN, 5, random.Random(1))
        assert swapped
        assert nonspace_texts(out) == nonspace_texts(MULTI_FN)
        assert len(out) == len(MULTI_FN)

    def test_single_swap_changes_order(self):
        out, swapped = random_swap(MULTI_FN, 1, random.Random(1))
        assert swapped and out != MULTI_FN

    def test_zero_swaps_is_identity(self):
        out, swapped = random_swap(MULTI_FN, 0, random.Random(1))
        assert out == MULTI_FN and not swapped

    def test_too_few_chunks_declines(self):
        out, swapped = random_swap("fn main() {}", 3, random.Random(1))
        assert out == "fn main() {}" and not swapped

    def test_deterministic_per_seed(self):
        a, _ = random_swap(MULTI_FN, 3, random.Random(4))
        b, _ = random_swap(MULTI_FN, 3, random.Random(4))
        assert a == b

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_swap(MULTI_FN, -1, random.Random(0))


def test_default_swap_count_scales_with_size():
    assert default_swap_count(6) == 1
    assert default_swap_count(49) == 1
    assert default_swap_count(100) == 2
    assert default_swap_count(250) == 5


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(delete_prob=-0.1)
    with pytest.raises(ValueError):
        AugmentConfig(target_size=0)


def seed_corpus(count=25):
    corpus = Corpus()
    for i in range(count):
        text = (
            f"fn case{i}() {{ let a{i} = {i}; let b{i} = a{i} + 1; }}\n"
            f"fn helper{i}() {{ let c{i} = b\"bytes\"; }}\n"
        )
        corpus.add_entry(text, "test-suite")
    return corpus


class TestExport:
    def test_reaches_target_with_distinct_programs(self, tmp_path):
        corpus = seed_corpus(25)
        cfg = AugmentConfig(target_size=100, seed=7)
        result = export_finetune_corpus(corpus, cfg, tmp_path / "ft")
        assert result.reached_target
        assert len(result.records) == 100
        hashes = {r["hash"] for r in result.records}
        assert len(hashes) == 100
        assert len(list((tmp_path / "ft").glob("ft_*.rs"))) == 100

    def test_originals_come_first(self, tmp_path):
        corpus = seed_corpus(5)
        cfg = AugmentConfig(target_size=20)
        result = export_finetune_corpus(corpus, cfg, tmp_path / "ft")
        ops = [r["op"] for r in result.records]
        assert ops[:5] == ["original"] * 5
        assert set(ops[5:]) <= {"delete", "swap"}
        assert "delete" in ops[5:] and "swap" in ops[5:]

    def test_manifest_matches_files(self, tmp_path):
        corpus = seed_corpus(4)
        cfg = AugmentConfig(target_size=10)
        result = export_finetune_corpus(corpus, cfg, tmp_path / "ft")
        lines = (tmp_path / "ft" / "manifest.jsonl").read_text().splitlines()
        assert [json.loads(ln) for ln in lines] == result.records
        for record in result.records:
            assert (tmp_path / "ft" / record["path"]).is_file()

    def test_export_opens_as_a_corpus(self, tmp_path):
        cfg = AugmentConfig(target_size=6)
        result = export_finetune_corpus(seed_corpus(2), cfg, tmp_path / "ft")
        corpus = load_corpus(tmp_path / "ft")
        assert len(corpus) == cfg.target_size
        assert sorted(e.id for e in corpus.entries()) == [
            f"ft_{i:06d}.rs" for i in range(cfg.target_size)
        ]
        assert {e.provenance for e in corpus.entries()} == {"augmented"}
        assert [corpus.get(r["id"]).content_hash for r in result.records] == [
            r["hash"] for r in result.records
        ]

    def test_two_runs_byte_identical(self, tmp_path):
        cfg = AugmentConfig(target_size=60, seed=3)
        out_a = export_finetune_corpus(seed_corpus(), cfg, tmp_path / "a")
        out_b = export_finetune_corpus(seed_corpus(), cfg, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert out_a.records == out_b.records

    def test_target_below_corpus_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_finetune_corpus(
                seed_corpus(25), AugmentConfig(target_size=10), tmp_path / "ft"
            )

    def test_empty_corpus_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_finetune_corpus(Corpus(), AugmentConfig(), tmp_path / "ft")

    def test_a_managed_corpus_is_refused_as_output(self, tmp_path):
        managed = Corpus(tmp_path / "m")
        managed.add_entry("fn main() { let a = 1; let b = 2; }\n", "issue-mined")
        manifest = tmp_path / "m" / "manifest.jsonl"
        before = manifest.read_bytes()
        with pytest.raises(ValueError, match="holds a corpus"):
            export_finetune_corpus(managed, AugmentConfig(target_size=3), tmp_path / "m")
        assert manifest.read_bytes() == before
        assert not list((tmp_path / "m").glob("ft_*"))

    def test_a_plain_seed_directory_is_refused_as_output(self, tmp_path):
        plain = tmp_path / "plain"
        plain.mkdir()
        (plain / "a.rs").write_text("fn main() { let a = 1; let b = 2; }\n")
        with pytest.raises(ValueError, match="holds a corpus"):
            export_finetune_corpus(
                load_corpus(plain), AugmentConfig(target_size=3), plain
            )
        assert sorted(p.name for p in plain.iterdir()) == ["a.rs"]

    def test_an_earlier_export_is_overwritten(self, tmp_path):
        export_finetune_corpus(seed_corpus(2), AugmentConfig(target_size=6), tmp_path / "ft")
        result = export_finetune_corpus(
            seed_corpus(3), AugmentConfig(target_size=4, seed=1), tmp_path / "ft"
        )
        lines = (tmp_path / "ft" / "manifest.jsonl").read_text().splitlines()
        assert [json.loads(ln) for ln in lines] == result.records

    def test_comments_count_toward_the_swap_count(self, tmp_path):
        # 36 tokens of code and 200 line comments: 236 tokens, 4 swaps,
        # where the code alone would give 1
        source = (
            "fn main() {\n"
            + "".join(f"    let v{i} = {i};\n" for i in range(6))
            + "}\n"
            + "// note\n" * 200
        )
        corpus = Corpus()
        corpus.add_entry(source, "test-suite")
        result = export_finetune_corpus(corpus, AugmentConfig(target_size=3), tmp_path)
        (swap,) = [r for r in result.records if r["op"] == "swap"]
        text = (tmp_path / swap["path"]).read_text()
        for n in range(8):
            expected = random_swap(source, n, random.Random(swap["seed"]))[0]
            assert (text == expected) is (n == 4)

    def test_degenerate_corpus_stalls_gracefully(self, tmp_path):
        corpus = Corpus()
        corpus.add_entry("x", "test-suite")  # one token: no variants possible
        cfg = AugmentConfig(target_size=5)
        result = export_finetune_corpus(corpus, cfg, tmp_path / "ft")
        assert not result.reached_target
        assert len(result.records) == 1
