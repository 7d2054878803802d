from __future__ import annotations

import json
import random

import pytest
from conftest import TRIGGER_BODY

from clozefuzz.corpus import (
    Corpus,
    CorpusError,
    content_hash,
    load_corpus,
    normalize_source,
    preflight_filter,
)
from clozefuzz.harness import CompilerConfig, compile_program


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
    with pytest.raises(CorpusError):
        Corpus().sample(random.Random(0))


def test_load_corpus_from_directories(tmp_path, caplog):
    nested = tmp_path / "b" / "nested"
    nested.mkdir(parents=True)
    (tmp_path / "one.rs").write_text("fn one() {}")
    (tmp_path / "dup.rs").write_text("fn one() {}")
    (tmp_path / "skip.txt").write_text("not a .rs file")
    (nested / "two.rs").write_text("fn two() {}")
    (tmp_path / "b" / "top.rs").write_text("fn top() {}")
    (tmp_path / "bad.rs").write_bytes(b"\xff\xfe broken utf8 \xff")

    corpus = load_corpus(tmp_path)
    texts = {e.source_text for e in corpus.entries()}
    assert texts == {"fn one() {}", "fn two() {}", "fn top() {}"}
    skipped = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    assert skipped == [f"skipping undecodable {tmp_path / 'bad.rs'}"]
    assert {e.provenance for e in corpus.entries()} == {"user-supplied"}


def test_load_corpus_opens_a_managed_directory(tmp_path):
    store = tmp_path / "corpus"
    corpus = Corpus(storage_dir=store)
    id_a, _ = corpus.add_entry("fn a() {}", "issue-mined")
    id_b, _ = corpus.add_entry("fn b() {}", "fuzzer-feedback")

    loaded = load_corpus(store)
    assert {(e.id, e.provenance) for e in loaded.entries()} == {
        (id_a, "issue-mined"),
        (id_b, "fuzzer-feedback"),
    }
    assert loaded.storage_dir == store


def test_load_corpus_missing_root_is_hard_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


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


def test_open_skips_a_torn_manifest_line(tmp_path, caplog):
    store = tmp_path / "corpus"
    corpus = Corpus(store)
    id_a, _ = corpus.add_entry("fn a() {}", "user-supplied")
    with (store / "manifest.jsonl").open("a") as fh:
        fh.write('{"id": "s000002", "hash": "ab')
    reopened = Corpus.open(store)
    assert [e.id for e in reopened.entries()] == [id_a]
    assert "corrupt manifest line" in caplog.text


@pytest.mark.parametrize(
    ("line", "next_id"),
    [
        ('{"id": "s000005"}', "s000006"),
        ('{"id": "s000005", "path": 7}', "s000006"),
        ("[1, 2]", "s000002"),
        ("null", "s000002"),
    ],
)
def test_open_skips_a_valid_json_manifest_line_missing_fields(
    tmp_path, caplog, line, next_id
):
    store = tmp_path / "corpus"
    corpus = Corpus(store)
    id_a, _ = corpus.add_entry("fn a() {}", "user-supplied")
    with (store / "manifest.jsonl").open("a") as fh:
        fh.write(line + "\n")
    reopened = Corpus.open(store)
    assert [e.id for e in reopened.entries()] == [id_a]
    assert "manifest line" in caplog.text
    # a skipped line's well-formed id still counts, so it is never reissued
    assert reopened.add_entry("fn b() {}", "user-supplied")[0] == next_id


@pytest.mark.parametrize("damage", ["missing", "undecodable"])
def test_open_unreadable_seed_file_is_a_corpus_error(tmp_path, damage):
    store = tmp_path / "corpus"
    corpus = Corpus(store)
    corpus.add_entry("fn a() {}", "user-supplied")
    eid, _ = corpus.add_entry("fn b() {}", "user-supplied")
    seed = store / "seeds" / f"{eid}.rs"
    if damage == "missing":
        seed.unlink()
    else:
        seed.write_bytes(b"fn b() { \xff }")
    with pytest.raises(CorpusError, match=eid):
        Corpus.open(store)


def test_open_never_reissues_a_listed_id(tmp_path):
    # a manifest line whose content repeats an earlier one is skipped,
    # but its id still counts
    store = tmp_path / "corpus"
    Corpus(store).add_entry("fn a() {}", "user-supplied")
    manifest = store / "manifest.jsonl"
    record = json.loads(manifest.read_text())
    record.update(id="s000007", path="seeds/s000007.rs")
    (store / "seeds" / "s000007.rs").write_text("fn a() {}")
    with manifest.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    reopened = Corpus.open(store)
    assert len(reopened) == 1
    assert reopened.add_entry("fn b() {}", "user-supplied") == ("s000008", True)


def test_a_seed_edited_after_its_manifest_line_keeps_its_new_hash(tmp_path, caplog):
    store = tmp_path / "corpus"
    eid, _ = Corpus(store).add_entry("fn a() {}", "test-suite")
    (store / "seeds" / f"{eid}.rs").write_text("fn b() {}", encoding="utf-8")
    with caplog.at_level("WARNING", logger="clozefuzz.corpus"):
        reopened = Corpus.open(store)
    (record,) = caplog.records
    assert "hash mismatch" in record.getMessage()
    entry = reopened.get(eid)
    assert entry.source_text == "fn b() {}"
    assert entry.content_hash == content_hash("fn b() {}") != content_hash("fn a() {}")


def check_all(corpus: Corpus, cfg: CompilerConfig) -> list[tuple[str, str]]:
    """Check every seed of ``corpus`` in entry order, as a campaign
    checks each seed it draws; returns the dropped ``(id, kind)``s."""
    dropped = []
    for entry in corpus.entries():
        outcome = compile_program(entry.source_text, cfg)
        kind = preflight_filter(corpus, entry, outcome, cfg.kind)
        if kind is not None:
            dropped.append((entry.id, kind))
    return dropped


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

    rejected = check_all(corpus, cfg)
    assert {e.id for e in corpus.entries()} == {ok_id, rej_id}
    assert dict(rejected) == {ice_id: "ice", hang_id: "hang"}


def test_preflight_removes_in_place_and_keeps_ids(scripted, tmp_path):
    cfg = CompilerConfig(
        binary_path=scripted("trigger", TRIGGER_BODY),
        kind="scripted-fake",
        timeout_secs=1.0,
    )
    store = tmp_path / "corpus"
    corpus = Corpus(store)
    ok_id, _ = corpus.add_entry("fn ok() {}", "test-suite")
    ice_id, _ = corpus.add_entry("fn i() {} // 0xBUG", "test-suite")
    manifest = (store / "manifest.jsonl").read_text()

    assert check_all(corpus, cfg) == [(ice_id, "ice")]
    assert [e.id for e in corpus.entries()] == [ok_id]
    assert corpus.storage_dir == store
    # the rejected seed stays on disk, and its id is not handed out again
    assert (store / "manifest.jsonl").read_text() == manifest
    new_id, _ = corpus.add_entry("fn new() {}", "fuzzer-feedback")
    assert new_id not in (ok_id, ice_id)
    assert (store / "seeds" / f"{ice_id}.rs").read_text() == "fn i() {} // 0xBUG"
