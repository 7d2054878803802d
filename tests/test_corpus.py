from __future__ import annotations

import json
import random

import pytest
from conftest import TRIGGER_BODY

from clozefuzz.corpus import (
    Corpus,
    CorpusError,
    CorpusExhaustedError,
    content_hash,
    load_corpus,
    normalize_source,
    preflight_filter,
)
from clozefuzz.harness import CompilerConfig, HarnessError


def test_normalization_ignores_editor_artifacts():
    a = "fn main() {}\n"
    b = "fn main() {}   \n"
    c = "fn main() {}"
    assert normalize_source(a) == normalize_source(b) == normalize_source(c)
    assert content_hash(a) == content_hash(b) == content_hash(c)
    # a second trailing newline is a real difference
    assert content_hash("fn main() {}\n\n") != content_hash(a)
    assert content_hash("fn other() {}") != content_hash(a)


def test_add_entry_dedupes_by_content_hash():
    corpus = Corpus()
    first_id, inserted = corpus.add_entry("fn a() {}", "user-supplied")
    assert inserted
    again_id, inserted = corpus.add_entry("fn a() {}   \n", "issue-mined")
    assert not inserted
    assert again_id == first_id
    assert len(corpus) == 1


def test_dedupe_closure_under_repeated_adds():
    corpus = Corpus()
    texts = [f"fn f{i}() {{}}" for i in range(5)]
    for t in texts + texts:
        corpus.add_entry(t, "test-suite")
    assert len(corpus) == 5


def test_provenance_is_validated_and_recorded():
    corpus = Corpus()
    with pytest.raises(CorpusError):
        corpus.add_entry("fn x() {}", "somewhere")
    eid, _ = corpus.add_entry("fn x() {}", "glacier")
    assert corpus.get(eid).provenance == "glacier"


def test_token_count_is_lexer_derived():
    corpus = Corpus()
    eid, _ = corpus.add_entry("fn main() {}", "user-supplied")
    assert corpus.get(eid).token_count == 6


def test_loading_a_corpus_lexes_nothing(tmp_path, monkeypatch):
    import clozefuzz.corpus as corpus_module

    lexed: list[str] = []

    def counting(text: str) -> int:
        lexed.append(text)
        return 6

    monkeypatch.setattr(corpus_module, "count_nonspace_tokens", counting)
    (tmp_path / "a.rs").write_text("fn main() {}")
    corpus = load_corpus([tmp_path])
    store = tmp_path / "store"
    corpus.attach(store)
    entry = Corpus.open(store).entries()[0]
    assert lexed == []
    # counted on first use, then kept
    assert entry.token_count == entry.token_count == 6
    assert lexed == ["fn main() {}"]


def test_sampling_determinism_and_spread():
    corpus = Corpus()
    for i in range(4):
        corpus.add_entry(f"fn f{i}() {{}}", "user-supplied")

    rng1, rng2 = random.Random(11), random.Random(11)
    run1 = [corpus.sample(rng1).id for _ in range(50)]
    run2 = [corpus.sample(rng2).id for _ in range(50)]
    assert run1 == run2

    counts: dict[str, int] = {}
    rng = random.Random(3)
    for _ in range(10_000):
        eid = corpus.sample(rng).id
        counts[eid] = counts.get(eid, 0) + 1
    # uniform draw over 4 entries: each near 2500
    assert all(2200 <= c <= 2800 for c in counts.values()), counts


def test_sampling_empty_corpus_raises():
    with pytest.raises(CorpusExhaustedError):
        Corpus().sample(random.Random(0))


def test_load_corpus_from_directories(tmp_path):
    root_a = tmp_path / "a"
    root_b = tmp_path / "b" / "nested"
    root_b.mkdir(parents=True)
    root_a.mkdir()
    (root_a / "one.rs").write_text("fn one() {}")
    (root_a / "dup.rs").write_text("fn one() {}")
    (root_a / "skip.txt").write_text("not matched by glob")
    (root_b / "two.rs").write_text("fn two() {}")
    (tmp_path / "b" / "top.rs").write_text("fn top() {}")
    bad = root_a / "bad.rs"
    bad.write_bytes(b"\xff\xfe broken utf8 \xff")

    corpus = load_corpus([(root_a, "test-suite"), (tmp_path / "b", "glacier")])
    texts = {e.source_text for e in corpus.entries()}
    assert texts == {"fn one() {}", "fn two() {}", "fn top() {}"}
    assert corpus.skipped_undecodable == 1
    provs = {e.source_text: e.provenance for e in corpus.entries()}
    assert provs["fn one() {}"] == "test-suite"
    assert provs["fn two() {}"] == "glacier"


def test_load_corpus_missing_root_is_hard_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus([tmp_path / "nope"])


def test_persistence_round_trip(tmp_path):
    store = tmp_path / "corpus"
    corpus = Corpus(storage_dir=store)
    id_a, _ = corpus.add_entry("fn a() {}", "user-supplied")
    id_b, _ = corpus.add_entry("fn b() {}", "fuzzer-feedback")

    manifest_lines = (store / "manifest.jsonl").read_text().strip().splitlines()
    assert len(manifest_lines) == 2
    record = json.loads(manifest_lines[0])
    assert set(record) == {"id", "hash", "provenance", "path"}
    assert (store / record["path"]).read_text() == "fn a() {}"

    reopened = Corpus.open(store)
    assert len(reopened) == 2
    assert reopened.get(id_a).source_text == "fn a() {}"
    assert reopened.get(id_b).provenance == "fuzzer-feedback"

    # appends continue the id sequence instead of reusing ids
    id_c, _ = reopened.add_entry("fn c() {}", "user-supplied")
    assert id_c not in (id_a, id_b)
    assert len(Corpus.open(store)) == 3


def test_preflight_keeps_pass_and_reject_only(scripted, tmp_path):
    compiler = scripted("trigger", TRIGGER_BODY)
    cfg = CompilerConfig(
        binary_path=compiler, kind="scripted-fake", timeout_secs=1.0
    )
    corpus = Corpus()
    ok_id, _ = corpus.add_entry("fn ok() {}", "user-supplied")
    rej_id, _ = corpus.add_entry("fn r() {} // ERRMARK", "user-supplied")
    ice_id, _ = corpus.add_entry("fn i() {} // 0xBUG", "user-supplied")
    hang_id, _ = corpus.add_entry("fn h() {} // SLOWMARK", "user-supplied")

    kept = preflight_filter(corpus, cfg)
    kept_ids = {e.id for e in kept.entries()}
    assert kept_ids == {ok_id, rej_id}
    rejected = dict(kept.preflight_rejections)
    assert rejected == {ice_id: "ice", hang_id: "hang"}


def test_preflight_missing_compiler_fails_before_compiling():
    corpus = Corpus()
    corpus.add_entry("fn ok() {}", "user-supplied")
    cfg = CompilerConfig(binary_path="/nonexistent/rustc-missing")
    with pytest.raises(HarnessError):
        preflight_filter(corpus, cfg)
