"""Acceptance suite: one test per shipped guarantee, each a single
pass/fail line in the summary block at the end of the run.

Every test is self-contained and uses only the mock backend and
scripted fake compilers, except the last one, which is skipped unless
a real rustc toolchain is on PATH.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from collections import Counter

import pytest
from conftest import TRIGGER_BODY
from helpers import fixture_corpus_texts, gen_bracket_source, oracle_pairs

from clozefuzz.augment import AugmentConfig, export_finetune_corpus, random_delete, random_swap
from clozefuzz.brackets import find_spans
from clozefuzz.campaign import CampaignConfig, run_campaign
from clozefuzz.cli import main as cli_main
from clozefuzz.corpus import Corpus, preflight_filter
from clozefuzz.harness import CompileOutcome, CompilerConfig, compile_program
from clozefuzz.infill import EchoBackend, InfillConfig, MockBackend, infill
from clozefuzz.lexer import TokenKind, lex
from clozefuzz.masking import cloze
from clozefuzz.oracle import BugKind, BugStore, Novelty, classify, signature
from clozefuzz.spe import enumerate_fillings, extract_variables


def test_criterion_01_bracket_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xACCE97)
    for _ in range(1000):
        source = gen_bracket_source(rng)
        mine = {
            (s.kind.value, s.open_at, s.close_at)
            for s in find_spans(source)
        }
        assert mine == oracle_pairs(source), f"disagreement on: {source!r}"
    assert time.monotonic() - started < 5.0


def test_criterion_02_cloze_cardinality_and_round_trip():
    started = time.monotonic()
    texts = fixture_corpus_texts(50)
    assert len(texts) == 50
    for text in texts:
        spans = find_spans(text)
        variants = cloze(text)
        assert len(variants) == len(spans)
        for variant in variants:
            rebuilt = variant.prefix + variant.original_interior + variant.suffix
            assert rebuilt == text
    assert time.monotonic() - started < 1.0


def test_criterion_03_identity_fills_yield_zero_candidates():
    cfg = InfillConfig(backend=EchoBackend())
    rng = random.Random(3)
    emitted = 0
    for text in fixture_corpus_texts(50):
        for variant in cloze(text):
            emitted += len(infill(variant, cfg, rng))
    assert emitted == 0


def test_criterion_04_special_masks_get_exactly_time_max_attempts():
    gated = "#![feature(unsize, coerce_unsized)]\nfn main() { touch(); }\n"
    variants = cloze(gated)
    assert any(v.special for v in variants)
    assert any(not v.special for v in variants)
    for variant in variants:
        backend = MockBackend([f"fill_{i}()" for i in range(8)])
        cfg = InfillConfig(backend=backend, time_max=4)
        infill(variant, cfg, random.Random(4))
        assert len(backend.calls) == (4 if variant.special else 1)


def test_criterion_05_oracle_table_classifies_every_labeled_outcome():
    def out(exit_status=0, stderr="", stdout="", timed_out=False):
        return CompileOutcome(
            exit_status=exit_status,
            stdout=stdout,
            stderr=stderr,
            wall_time=0.1,
            timed_out=timed_out,
            artifact_present=False,
        )

    table = [
        ("rustc", out(101, "error: internal compiler error: oops"), BugKind.ICE),
        ("rustc", out(101, "the compiler unexpectedly panicked. this is a bug."), BugKind.ICE),
        ("rustc", out(101, stdout="note: internal compiler error seen"), BugKind.ICE),
        ("rustc", out(1, "error[E0308]: mismatched types"), BugKind.REJECT),
        ("rustc", out(1, "error: expected one of `!` or `::`"), BugKind.REJECT),
        ("rustc", out(0, "warning: unused variable"), BugKind.PASS),
        ("rustc", out(0), BugKind.PASS),
        ("rustc", out(-9, "error: internal compiler error", timed_out=True), BugKind.HANG),
        ("rustc", out(-9, timed_out=True), BugKind.HANG),
        ("mrustc", out(134, "BUG: ./src/hir/expr.cpp:33: bad\nAborted (core dumped)"), BugKind.ICE),
        ("mrustc", out(-6, "BUG: ./src/hir/expr.cpp:33: bad"), BugKind.ICE),
        ("mrustc", out(1, "BUG mentioned but the process exited normally"), BugKind.REJECT),
        ("mrustc", out(1, "error: unexpected token"), BugKind.REJECT),
        ("mrustc", out(0), BugKind.PASS),
    ]
    assert len(table) >= 12
    misclassified = [
        (kind, expected, classify(outcome, kind))
        for kind, outcome, expected in table
        if classify(outcome, kind) is not expected
    ]
    assert misclassified == []


def test_criterion_06_hang_threshold_default_and_override(scripted):
    started = time.monotonic()
    assert CompilerConfig(binary_path="rustc").timeout_secs == 180.0
    sleeper = CompilerConfig(
        binary_path=scripted("sleeper", "sleep 30\nexit 0\n"),
        kind="scripted-fake",
        timeout_secs=1.0,
    )
    outcome = compile_program("fn main() {}", sleeper)
    assert classify(outcome, "scripted-fake") is BugKind.HANG
    assert time.monotonic() - started < 5.0


ICE_FIXTURE = """\
error: internal compiler error: compiler/rustc_mir/src/build.rs:210:9: mismatched arm types

thread 'rustc' panicked at compiler/rustc_mir/src/build.rs:210:9:
stack backtrace:
   0:     0x7f00aa110011 - rustc_mir::build::arm_check::h0123456789abcdef
   1:     0x7f00aa110012 - rustc_driver::catch_fatal_errors::hfedcba9876543210
"""

ICE_FIXTURE_TWIN = ICE_FIXTURE.replace("build.rs:210:9", "mir_build.rs:333:17").replace(
    "0x7f00aa11", "0x55dd0022"
).replace("h0123456789abcdef", "haaaabbbbccccdddd")


def test_criterion_07_dedup_one_interesting_nineteen_duplicates(tmp_path):
    def ice_outcome(stderr):
        return CompileOutcome(
            exit_status=101,
            stdout="",
            stderr=stderr,
            wall_time=0.1,
            timed_out=False,
            artifact_present=False,
        )

    def write_case(sig):
        path = tmp_path / "case.rs"
        path.write_text("fn main() {}", encoding="utf-8")
        return path

    store = BugStore(tmp_path / "store")
    tallies = Counter(
        store.record_if_new(
            signature(ice_outcome(ICE_FIXTURE), BugKind.ICE), write_case
        )
        for _ in range(20)
    )
    assert tallies[Novelty.INTERESTING] == 1
    assert tallies[Novelty.DUPLICATE] == 19

    original = signature(ice_outcome(ICE_FIXTURE), BugKind.ICE)
    twin = signature(ice_outcome(ICE_FIXTURE_TWIN), BugKind.ICE)
    assert original.digest == twin.digest


def test_criterion_08_spe_enumeration_counts():
    two = "fn f(a: u32, b: u32) {}"
    three = "fn f() { let a = 1; let b = 2; let c = 3; }"
    four = "fn f() { let a = 1; let b = 2; let c = 3; let d = 4; }"
    assert len(enumerate_fillings(extract_variables(two))) == 1
    assert len(enumerate_fillings(extract_variables(three))) == 5
    assert len(enumerate_fillings(extract_variables(four))) == 23

    six = (
        "fn f() { let a = 1; let b = 2; let c = 3;"
        " let d = 4; let e = 5; let g = 6; }"
    )
    sampled = enumerate_fillings(extract_variables(six), rng=random.Random(8))
    assert len(sampled) == 32
    assert len(set(sampled)) == 32
    assert six not in sampled


def test_criterion_09_augmentation_constants(tmp_path):
    started = time.monotonic()

    def nonspace(source):
        return [
            t.text for t in lex(source).tokens if t.kind is not TokenKind.WHITESPACE
        ]

    synthetic = " ".join(f"tok{i}" for i in range(10_000))
    deleted = random_delete(synthetic, 0.2, random.Random(9))
    fraction = 1 - len(nonspace(deleted)) / 10_000
    assert 0.18 <= fraction <= 0.22

    program = "fn a() { let x = 1; }\nfn b() { let y = 2; }\nfn c() { let z = 3; }\n"
    swapped, did_swap = random_swap(program, 4, random.Random(9))
    assert did_swap
    assert Counter(nonspace(swapped)) == Counter(nonspace(program))

    corpus = Corpus()
    for i in range(25):
        corpus.add_entry(
            f"fn case{i}() {{ let v{i} = {i}; let w{i} = v{i} * 2; }}\n",
            "test-suite",
        )
    result = export_finetune_corpus(
        corpus, AugmentConfig(target_size=100, seed=1), tmp_path / "ft"
    )
    assert result.reached_target
    assert len(result.records) == 100
    assert len({r["hash"] for r in result.records}) == 100
    assert time.monotonic() - started < 10.0


def test_criterion_10_end_to_end_determinism(tmp_path, scripted):
    started = time.monotonic()
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "main.rs").write_text("fn main() { helper(1); }\n", encoding="utf-8")
    (corpus_dir / "helper.rs").write_text(
        "fn helper(n: u32) { let x = n; }\n", encoding="utf-8"
    )
    compiler_bin = scripted("trigger", TRIGGER_BODY)

    # ten distinct fills; the crash marker appears in exactly one of them
    fills = [f"safe_{i}()" for i in range(9)] + ["0xBUG trigger()"]

    def one_run(label):
        cfg = CampaignConfig(
            corpus_dir=corpus_dir,
            out_dir=tmp_path / label,
            compilers=[
                CompilerConfig(
                    binary_path=compiler_bin, kind="scripted-fake", timeout_secs=5.0
                )
            ],
            infill=InfillConfig(backend=MockBackend(list(fills))),
            budget_candidates=10,
            seed=42,
        )
        run_campaign(cfg)
        report = json.loads((tmp_path / label / "report.json").read_text())
        for volatile in ("generated_at", "elapsed_seconds"):
            report.pop(volatile)
        return report

    first = one_run("run_a")
    second = one_run("run_b")
    assert first == second
    assert first["candidates_compiled"] == 10
    assert first["outcomes"]["ice"] == 1
    assert first["interesting"] == 1
    assert time.monotonic() - started < 30.0


@pytest.mark.skipif(
    shutil.which("rustc") is None, reason="no rustc toolchain on PATH"
)
def test_criterion_11_live_rustc_smoke(tmp_path):
    # the bare compile must come back PASS, not merely "retained":
    # preflight keeps Reject seeds too, so retention alone would not
    # notice a toolchain that fails before reaching the compiler
    # (e.g. a rustup shim that cannot resolve its settings)
    live = compile_program("fn main() {}", CompilerConfig(binary_path="rustc"))
    assert classify(live, "rustc") is BugKind.PASS, live.stderr

    corpus = Corpus()
    corpus.add_entry("fn main() {}", "test-suite")
    (entry,) = corpus.entries()
    assert preflight_filter(corpus, entry, live, "rustc") is None
    assert [e.source_text for e in corpus.entries()] == ["fn main() {}"]

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.rs").write_text("fn main() {}\n", encoding="utf-8")
    (corpus_dir / "b.rs").write_text("fn main() { let x = 1; }\n", encoding="utf-8")
    backend_spec = tmp_path / "backend.json"
    backend_spec.write_text(
        json.dumps({"kind": "mock", "fills": ["let ok = 1; let _ = ok;"]}),
        encoding="utf-8",
    )
    rc = cli_main(
        [
            "fuzz",
            "--corpus", str(corpus_dir),
            "--compiler", "rustc",
            "--mock-script", str(backend_spec),
            "--out", str(tmp_path / "out"),
            "--budget-candidates", "10",
            "--timeout", "60",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["candidates_compiled"] == 10
    assert report["aborted"] is None
    # body-brace variants filled with a valid statement really compile;
    # paren-parameter variants really get rebuffed by the parser
    assert report["outcomes"]["pass"] >= 1
    assert report["outcomes"]["reject"] >= 1
