from __future__ import annotations

import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from conftest import TIMEPASS_HANG_BODY, TRIGGER_BODY, bench_workloads, vetted

import clozefuzz
from clozefuzz import campaign
from clozefuzz.campaign import (
    CampaignConfig,
    ConfigError,
    report_bug,
    run_campaign,
)
from clozefuzz.corpus import Corpus, CorpusError
from clozefuzz.harness import CompilerConfig, HarnessError
from clozefuzz.infill import (
    EchoBackend,
    HttpBackend,
    InfillConfig,
    MockBackend,
    ReplayBackend,
)
from clozefuzz.oracle import BugStore, BugStoreError

SEED_MAIN = "fn main() { helper(1); }\n"
SEED_HELPER = "fn helper(n: u32) { let x = n; }\n"
# masks inside the attribute get several infill attempts, so their
# variants yield several candidates
SEED_FEATURE = (
    "#![feature(never_type, box_patterns)]\n"
    "fn main() { let v = [1, 2]; f(v[0]); }\n"
)


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "main.rs").write_text(SEED_MAIN, encoding="utf-8")
    (d / "helper.rs").write_text(SEED_HELPER, encoding="utf-8")
    return d


@pytest.fixture
def trigger_compiler(scripted):
    return CompilerConfig(
        binary_path=scripted("trigger", TRIGGER_BODY),
        kind="scripted-fake",
        timeout_secs=5.0,
    )


BUNDLE_FILES = [
    "candidate.rs",
    "masked.txt",
    "repro.sh",
    "seed-ref.txt",
    "signature.json",
    "stderr.txt",
]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False  # killed and reaped
    return True


def seeds_checked(report) -> int:
    """The seed checks a campaign ran: one per distinct seed loaded at
    start that it drew. A plain directory's seeds hold its first ids."""
    initial = {f"s{n:06d}" for n in range(1, report.corpus_size_initial + 1)}
    return report.preflight_rejected + len(initial & report.per_seed.keys())


def make_config(corpus_dir, tmp_path, compiler, fills, budget=10, **kw):
    backend = MockBackend(fills)
    return CampaignConfig(
        corpus_dir=corpus_dir,
        out_dir=tmp_path / "out",
        compilers=[compiler],
        infill=InfillConfig(backend=backend),
        budget_candidates=budget,
        **kw,
    )


class TestArithmetic:
    def test_counts_are_consistent(self, corpus_dir, tmp_path, trigger_compiler):
        fills = ["ok_one()", "0xBUG boom()", "ok_two()", "ERRMARK bad()"]
        cfg = make_config(corpus_dir, tmp_path, trigger_compiler, fills, budget=12)
        report = run_campaign(cfg)

        assert report.candidates_compiled == 12
        assert report.budget_exhausted == "candidates"
        assert sum(report.outcomes.values()) == report.candidates_compiled
        assert report.outcomes["ice"] >= 1
        assert report.outcomes["reject"] >= 1
        assert report.outcomes["pass"] >= 1
        assert report.interesting + report.duplicate == (
            report.outcomes["ice"] + report.outcomes["hang"]
        )
        assert report.seeds_sampled >= 1
        assert report.variants_masked >= report.seeds_sampled
        assert report.candidates_generated >= report.candidates_compiled
        per_seed_candidates = sum(
            s["candidates"] for s in report.per_seed.values()
        )
        assert per_seed_candidates == report.candidates_generated
        assert report.seeds_sampled == sum(
            s["sampled"] for s in report.per_seed.values()
        )
        assert report.variants_masked == sum(
            s["variants"] for s in report.per_seed.values()
        )
        assert report.interesting == len(report.bundles)

    def test_report_files_written(self, corpus_dir, tmp_path, trigger_compiler):
        cfg = make_config(corpus_dir, tmp_path, trigger_compiler, ["safe()"], budget=3)
        report = run_campaign(cfg)
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk == report.to_dict()
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "candidates_compiled: 3\n" in text
        assert report.generated_at  # timestamp was stamped before saving

    def test_a_finished_campaign_leaves_no_scratch_directory(
        self, corpus_dir, tmp_path, trigger_compiler, monkeypatch
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        cfg = make_config(
            corpus_dir, tmp_path, trigger_compiler, ["safe()", "0xBUG boom()"],
            budget=6, workers=2,
        )
        report = run_campaign(cfg)
        assert report.budget_exhausted == "candidates"
        assert report.candidates_compiled == 6
        assert not list(work.glob("clozefuzz-*"))
        assert not [
            t for t in threading.enumerate() if t.name.startswith("clozefuzz-")
        ]

    def test_all_ice_fills_dedupe_to_one_bundle(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        cfg = make_config(
            corpus_dir, tmp_path, trigger_compiler, ["0xBUG boom()"], budget=5
        )
        report = run_campaign(cfg)
        assert report.outcomes["ice"] == 5
        assert report.interesting == 1
        assert report.duplicate == 4
        assert len(report.bundles) == 1
        assert report.bundles[0].startswith("bugs/")


class TestBundles:
    def run_ice_campaign(self, corpus_dir, tmp_path, compiler):
        cfg = make_config(corpus_dir, tmp_path, compiler, ["0xBUG boom()"], budget=2)
        return run_campaign(cfg), tmp_path / "out"

    def test_bundle_contains_exactly_the_repro_kit(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        report, out = self.run_ice_campaign(corpus_dir, tmp_path, trigger_compiler)
        bundle = out / report.bundles[0]
        names = sorted(p.name for p in bundle.iterdir())
        assert names == BUNDLE_FILES
        assert "0xBUG" in (bundle / "candidate.rs").read_text()
        assert "<infill>" in (bundle / "masked.txt").read_text()
        assert "internal compiler error" in (bundle / "stderr.txt").read_text()
        assert "seed_id: " in (bundle / "seed-ref.txt").read_text()
        sig = json.loads((bundle / "signature.json").read_text())
        assert bundle.name == sig["digest"][:16]
        assert sig["kind"] == "ice"

    def test_a_finding_whose_bundle_failed_is_bundled_on_rerun(
        self, corpus_dir, tmp_path, trigger_compiler, monkeypatch
    ):
        report_bug = campaign.report_bug
        failed = []

        def full_disk_once(*args):
            if not failed:
                failed.append(1)
                raise OSError(28, "No space left on device")
            return report_bug(*args)

        monkeypatch.setattr(campaign, "report_bug", full_disk_once)
        first, out = self.run_ice_campaign(corpus_dir, tmp_path, trigger_compiler)
        assert first.aborted.startswith("cannot write findings")
        assert (first.interesting, first.bundles) == (0, [])
        assert not (out / "bugstore" / "signatures.jsonl").exists()
        assert json.loads((out / "report.json").read_text())["aborted"] == first.aborted

        rerun, _ = self.run_ice_campaign(corpus_dir, tmp_path, trigger_compiler)
        assert rerun.aborted is None
        assert rerun.interesting == 1
        bundle = out / rerun.bundles[0]
        assert sorted(p.name for p in bundle.iterdir()) == BUNDLE_FILES

    def test_repro_script_reproduces_the_crash(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        report, out = self.run_ice_campaign(corpus_dir, tmp_path, trigger_compiler)
        repro = out / report.bundles[0] / "repro.sh"
        assert repro.stat().st_mode & 0o111
        proc = subprocess.run(
            [str(repro)], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 101
        assert "internal compiler error" in proc.stderr

    def test_bugstore_journal_matches_bundles(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        report, out = self.run_ice_campaign(corpus_dir, tmp_path, trigger_compiler)
        store = BugStore(out / "bugstore")
        assert len(store) == report.interesting
        journal = (out / "bugstore" / "signatures.jsonl").read_text().splitlines()
        digests = {json.loads(line)["digest"][:16] for line in journal}
        assert digests == {b.split("/")[1] for b in report.bundles}

    def test_default_rustc_flags_reach_every_compile(
        self, corpus_dir, tmp_path, scripted
    ):
        # a rustc-kind stand-in that logs its argv, so the default
        # flags are seen without a toolchain
        log = tmp_path / "argv.log"
        body = f'echo "$*" >> {shlex.quote(str(log))}\n' + TRIGGER_BODY
        compiler = CompilerConfig(binary_path=scripted("rustc", body), timeout_secs=5.0)
        vetted(compiler)
        log.unlink(missing_ok=True)
        report, out = self.run_ice_campaign(corpus_dir, tmp_path, compiler)
        expected = ["-C", "opt-level=0", "--emit=obj"]
        # one check per seed drawn, then the two candidates
        argvs = log.read_text().splitlines()
        assert seeds_checked(report) >= 1
        assert argvs == [" ".join([*expected, "input.rs"])] * (
            seeds_checked(report) + report.candidates_compiled
        )
        repro = (out / report.bundles[0] / "repro.sh").read_text()
        assert shlex.split(repro.splitlines()[-1])[2:] == [*expected, "candidate.rs"]
        saved = json.loads((out / "report.json").read_text())
        assert saved["compilers"][0]["kind"] == "rustc"
        assert saved["compilers"][0]["flags"] == expected


class TestRustupProxy:
    def test_one_probe_per_campaign(self, corpus_dir, tmp_path, rustup_layout):
        proxy, log, toolchain_rustc = rustup_layout(TRIGGER_BODY)
        # the self-check, vetted through a config of its own, so that the
        # probe read below is the campaign's
        vetted(CompilerConfig(binary_path=proxy, timeout_secs=5.0))
        log.write_text("")
        compiler = CompilerConfig(binary_path=proxy, timeout_secs=5.0)
        cfg = make_config(
            corpus_dir, tmp_path, compiler, ["ok()", "0xBUG boom()"],
            budget=6, workers=2,
        )
        report = run_campaign(cfg)
        assert report.candidates_compiled == 6
        probe, *compiles = log.read_text().splitlines()
        assert probe == f"probe {os.path.realpath(tempfile.gettempdir())} which rustc"
        # one check per seed drawn, then the six candidates, all direct
        assert seeds_checked(report) >= 1
        assert len(compiles) == seeds_checked(report) + 6
        assert {c.split()[0] for c in compiles} == {toolchain_rustc}

    def test_repro_script_runs_what_the_campaign_ran(
        self, corpus_dir, tmp_path, rustup_layout
    ):
        proxy, log, toolchain_rustc = rustup_layout(TRIGGER_BODY)
        compiler = CompilerConfig(
            binary_path=proxy, extra_flags=("+tc", "--emit=obj"), timeout_secs=5.0
        )
        cfg = make_config(corpus_dir, tmp_path, compiler, ["0xBUG boom()"], budget=1)
        report = run_campaign(cfg)
        probe, *_, compiled = log.read_text().splitlines()
        assert probe.endswith(" which --toolchain tc rustc")
        assert compiled == f"{toolchain_rustc} --emit=obj input.rs"
        repro = tmp_path / "out" / report.bundles[0] / "repro.sh"
        proc = subprocess.run([str(repro)], capture_output=True, text=True, timeout=30)
        assert proc.returncode == 101
        # the toolchain is named by its binary, not re-resolved by rustup
        assert log.read_text().splitlines()[-2:] == [
            compiled, compiled.replace("input.rs", "candidate.rs"),
        ]
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["compilers"][0]["flags"] == ["+tc", "--emit=obj"]


class TestFeedback:
    def test_novel_finding_feeds_managed_corpus(self, tmp_path, trigger_compiler):
        managed = tmp_path / "managed"
        corpus = Corpus(managed)
        corpus.add_entry(SEED_MAIN, "test-suite")
        corpus.add_entry(SEED_HELPER, "test-suite")

        cfg = make_config(managed, tmp_path, trigger_compiler, ["0xBUG boom()"], budget=2)
        report = run_campaign(cfg)
        assert report.interesting == 1
        assert report.corpus_size_final == report.corpus_size_initial + 1

        reopened = Corpus.open(managed)
        provenances = [e.provenance for e in reopened.entries()]
        assert provenances.count("fuzzer-feedback") == 1
        fed = next(e for e in reopened.entries() if e.provenance == "fuzzer-feedback")
        assert "0xBUG" in fed.source_text

    def test_preflight_rejected_seed_keeps_its_id_and_file(
        self, tmp_path, trigger_compiler
    ):
        # the highest id is rejected, so a counter recomputed from the
        # kept seeds would hand that id to the feedback seed
        managed = tmp_path / "managed"
        corpus = Corpus(managed)
        corpus.add_entry(SEED_MAIN, "test-suite")
        rejected_id, _ = corpus.add_entry(SEED_HELPER + "// 0xBUG\n", "test-suite")
        manifest = managed / "manifest.jsonl"
        lines_before = manifest.read_text().splitlines()
        rejected_file = managed / "seeds" / f"{rejected_id}.rs"
        rejected_text = rejected_file.read_text()

        cfg = make_config(managed, tmp_path, trigger_compiler, ["0xBUG boom()"], budget=1)
        report = run_campaign(cfg)
        assert report.preflight_rejected == 1
        assert report.interesting == 1

        lines = manifest.read_text().splitlines()
        assert lines[:2] == lines_before
        assert rejected_file.read_text() == rejected_text
        ids = [json.loads(line)["id"] for line in lines]
        assert len(ids) == len(set(ids)) == 3
        reopened = Corpus.open(managed)
        assert reopened.get(rejected_id).source_text == rejected_text
        assert reopened.get(rejected_id).provenance == "test-suite"
        fed = reopened.get(ids[2])
        assert fed.provenance == "fuzzer-feedback"
        assert "boom()" in fed.source_text

    def test_plain_directory_corpus_feedback_stays_in_memory(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        cfg = make_config(corpus_dir, tmp_path, trigger_compiler, ["0xBUG x()"], budget=2)
        report = run_campaign(cfg)
        assert report.corpus_size_final == report.corpus_size_initial + 1
        # the source directory itself is untouched
        assert sorted(p.name for p in corpus_dir.iterdir()) == ["helper.rs", "main.rs"]


class TestBudgets:
    def test_candidate_budget_is_exact(self, corpus_dir, tmp_path, trigger_compiler):
        for budget in (1, 7):
            cfg = make_config(
                corpus_dir, tmp_path / f"b{budget}", trigger_compiler,
                [f"call_{i}()" for i in range(9)], budget=budget,
            )
            report = run_campaign(cfg)
            assert report.candidates_compiled == budget
            assert report.budget_exhausted == "candidates"

    def test_only_drawn_seeds_are_checked(self, tmp_path, scripted):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for n in range(40):
            (corpus / f"seed{n:02}.rs").write_text(
                f"fn main() {{ let x = {n}; }}\n", encoding="utf-8"
            )
        log = tmp_path / "argv.log"
        body = f'echo "$*" >> {shlex.quote(str(log))}\n' + TRIGGER_BODY
        compiler = vetted(
            CompilerConfig(
                binary_path=scripted("logging", body),
                kind="scripted-fake",
                timeout_secs=5.0,
            )
        )
        # one check and one candidate; with the check skipped, the candidate
        for skip, compiles in ((False, 2), (True, 1)):
            log.unlink(missing_ok=True)
            cfg = make_config(
                corpus, tmp_path / f"skip{skip}", compiler, ["ok()"],
                budget=1, skip_preflight=skip,
            )
            report = run_campaign(cfg)
            assert report.candidates_compiled == 1
            assert len(log.read_text().splitlines()) == compiles

    def test_time_budget_stops_the_loop(self, corpus_dir, tmp_path, trigger_compiler):
        backend = MockBackend([f"call_{i}()" for i in range(50)])
        cfg = CampaignConfig(
            corpus_dir=corpus_dir,
            out_dir=tmp_path / "out",
            compilers=[trigger_compiler],
            infill=InfillConfig(backend=backend),
            budget_seconds=0.6,
        )
        report = run_campaign(cfg)
        assert report.budget_exhausted == "seconds"
        assert report.elapsed_seconds >= 0.6

    @pytest.mark.parametrize(
        "seconds, candidates, compiled",
        [
            # the first pair finishes in time; the pair running at the
            # deadline is killed and not counted, the queued pair never
            # starts
            (1.5, None, 2),
            # every candidate was issued, but the pair running at the
            # deadline is killed and not counted, so the time budget is
            # what ran out
            (0.5, 4, 0),
        ],
    )
    def test_time_budget_cancels_compiles_not_yet_started(
        self, tmp_path, scripted, seconds, candidates, compiled
    ):
        compiler = CompilerConfig(
            binary_path=scripted("slow", "sleep 1\nexit 0\n"),
            kind="scripted-fake", timeout_secs=5.0,
        )
        vetted(compiler, timeout=0.2)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "many.rs").write_text(
            "fn main() { let v = [1, 2]; f(v[0]); g(3); }\n", encoding="utf-8"
        )
        backend = MockBackend([f"call_{i}()" for i in range(9)])
        cfg = CampaignConfig(
            corpus_dir=corpus,
            out_dir=tmp_path / "out",
            compilers=[compiler],
            infill=InfillConfig(backend=backend),
            budget_seconds=seconds,
            budget_candidates=candidates,
            workers=2,
            skip_preflight=True,
        )
        report = run_campaign(cfg)
        assert report.budget_exhausted == "seconds"
        assert report.candidates_compiled == compiled
        assert report.outcomes["pass"] == compiled
        assert report.elapsed_seconds < seconds + 0.5

    def test_echo_backend_stalls_instead_of_spinning(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        cfg = CampaignConfig(
            corpus_dir=corpus_dir,
            out_dir=tmp_path / "out",
            compilers=[trigger_compiler],
            infill=InfillConfig(backend=EchoBackend()),
            budget_candidates=10,
        )
        report = run_campaign(cfg)
        assert report.stalled
        assert report.budget_exhausted is None
        assert report.candidates_generated == 0
        assert report.candidates_compiled == 0
        assert report.interesting == 0


class TestHangPath:
    def test_hang_gets_pass_tail_signature(self, corpus_dir, tmp_path, scripted):
        compiler = CompilerConfig(
            binary_path=scripted("tp_hang", TIMEPASS_HANG_BODY),
            kind="scripted-fake",
            timeout_secs=1.0,
        )
        cfg = make_config(
            corpus_dir, tmp_path, compiler, ["anything()"], budget=1,
            skip_preflight=True,  # every compile hangs, including seeds
        )
        report = run_campaign(cfg)
        assert report.outcomes["hang"] == 1
        assert report.interesting == 1
        sig = json.loads(
            (tmp_path / "out" / report.bundles[0] / "signature.json").read_text()
        )
        assert sig["kind"] == "hang"
        assert sig["payload"]["tail"] == ["parse_crate", "expand_crate", "type_check"]

    def test_hang_without_pass_trace_uses_marker(
        self, corpus_dir, tmp_path, scripted
    ):
        body = "sleep 30\nexit 0\n"
        compiler = CompilerConfig(
            binary_path=scripted("mute_hang", body),
            kind="scripted-fake",
            timeout_secs=1.0,
        )
        cfg = make_config(
            corpus_dir, tmp_path, compiler, ["anything()"], budget=1,
            skip_preflight=True,
        )
        report = run_campaign(cfg)
        assert report.outcomes["hang"] == 1
        sig = json.loads(
            (tmp_path / "out" / report.bundles[0] / "signature.json").read_text()
        )
        assert sig["payload"]["tail"] == ["timeout-no-passes"]

    def test_a_hang_is_compiled_once(self, corpus_dir, tmp_path, scripted):
        log = tmp_path / "argv.log"
        body = f'echo "$@" >> "{log}"\nsleep 30\nexit 0\n'
        compiler = CompilerConfig(
            binary_path=scripted("logged_hang", body),
            kind="scripted-fake",
            timeout_secs=1.0,
        )
        vetted(compiler, timeout=0.2)
        log.unlink(missing_ok=True)
        cfg = make_config(
            corpus_dir, tmp_path, compiler, ["anything()"], budget=1,
            skip_preflight=True,
        )
        report = run_campaign(cfg)
        assert report.outcomes["hang"] == 1
        assert log.read_text().splitlines() == ["-O0 input.rs"]


class TestFailureModes:
    def test_relative_compiler_path(
        self, corpus_dir, tmp_path, scripted, monkeypatch
    ):
        scripted("trigger", TRIGGER_BODY)
        monkeypatch.chdir(tmp_path)
        compiler = CompilerConfig(
            binary_path="./trigger", kind="scripted-fake", timeout_secs=5.0
        )
        cfg = make_config(corpus_dir, tmp_path, compiler, ["0xBUG boom()"], budget=2)
        report = run_campaign(cfg)
        assert report.aborted is None
        assert report.outcomes["ice"] == 2
        repro = tmp_path / "out" / report.bundles[0] / "repro.sh"
        binary = shlex.split(repro.read_text().splitlines()[-1])[1]
        assert os.path.isabs(binary)
        assert os.path.samefile(binary, tmp_path / "trigger")
        proc = subprocess.run(
            [str(repro)], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 101

    def test_a_fill_not_encodable_as_utf8_is_an_infill_error(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        lone_surrogate = json.loads('"\\ud800"')
        cfg = make_config(
            corpus_dir, tmp_path, trigger_compiler,
            ["ok_one()", lone_surrogate, "0xBUG boom()"], budget=6,
        )
        report = run_campaign(cfg)
        assert report.aborted is None
        assert report.budget_exhausted == "candidates"
        assert report.infill_errors >= 1
        assert report.candidates_compiled == 6
        assert report.outcomes["ice"] >= 1
        assert report.outcomes["pass"] >= 1

    def test_a_dead_http_backend_counts_infill_errors(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        # nothing listens on the discard port, so every connect is refused
        backend = HttpBackend("http://127.0.0.1:9/complete", max_retries=1)
        cfg = CampaignConfig(
            corpus_dir=corpus_dir,
            out_dir=tmp_path / "out",
            compilers=[trigger_compiler],
            infill=InfillConfig(backend=backend),
            budget_candidates=6,
        )
        report = run_campaign(cfg)
        assert report.aborted is None
        assert report.candidates_compiled == 0
        assert report.infill_errors == report.variants_masked > 0

    def test_a_torn_replay_entry_with_nothing_to_ask_is_an_infill_error(
        self, corpus_dir, tmp_path, trigger_compiler
    ):
        cache = tmp_path / "cache"
        recording = make_config(corpus_dir, tmp_path, trigger_compiler, ["x"])
        recording.infill.backend = ReplayBackend(
            cache, inner=MockBackend(["ok_one()", "0xBUG boom()"])
        )
        assert run_campaign(recording).infill_errors == 0
        # the replay asks what the recording asked, in the same order,
        # up to the torn entry
        sorted(cache.iterdir())[0].write_text('{"fi', encoding="utf-8")
        replaying = make_config(
            corpus_dir, tmp_path / "again", trigger_compiler, ["x"]
        )
        replaying.infill.backend = ReplayBackend(cache)
        report = run_campaign(replaying)
        assert report.aborted is None
        assert report.infill_errors >= 1

    def test_compiler_vanishing_mid_run_stops_gracefully(
        self, corpus_dir, tmp_path, scripted, spawned
    ):
        binary = scripted("self_destruct", 'rm -f "$0"\nexit 0\n')
        compiler = CompilerConfig(binary_path=binary, kind="scripted-fake")
        cfg = make_config(
            corpus_dir, tmp_path, compiler,
            [f"call_{i}()" for i in range(9)],
            budget=50, skip_preflight=True,
        )
        report = run_campaign(cfg)
        assert report.aborted is not None
        assert "unavailable" in report.aborted
        assert report.candidates_compiled >= 1
        assert (tmp_path / "out" / "report.json").is_file()

    def test_bug_store_failure_aborts_with_partial_report(
        self, corpus_dir, tmp_path, trigger_compiler, monkeypatch
    ):
        original = BugStore.record_if_new
        calls = []

        def flaky(self, sig, write_case):
            if calls:
                raise BugStoreError("journal write failed: disk full")
            calls.append(1)
            return original(self, sig, write_case)

        monkeypatch.setattr(BugStore, "record_if_new", flaky)
        cfg = make_config(
            corpus_dir, tmp_path, trigger_compiler, ["0xBUG boom()"], budget=5
        )
        partial = run_campaign(cfg)
        assert partial.interesting == 1
        assert partial.aborted.startswith("cannot write findings")
        assert "disk full" in partial.aborted
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["aborted"] == partial.aborted

    def test_seed_corpus_that_crashes_everywhere_is_rejected(
        self, tmp_path, trigger_compiler
    ):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "bad.rs").write_text("fn main() { 0xBUG; }\n", encoding="utf-8")
        cfg = make_config(d, tmp_path, trigger_compiler, ["x()"], budget=5)
        with pytest.raises(CorpusError):
            run_campaign(cfg)

    def test_a_seed_that_hangs_on_its_check_costs_one_timeout(
        self, tmp_path, scripted
    ):
        # the check and one candidate hang side by side; the candidates
        # queued behind them are dropped with the seed, not waited for
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "slow.rs").write_text(SEED_FEATURE + "// SLOWMARK\n", encoding="utf-8")
        compiler = CompilerConfig(
            binary_path=scripted("trigger", TRIGGER_BODY),
            kind="scripted-fake",
            timeout_secs=1.0,
        )
        cfg = make_config(
            d, tmp_path, compiler, ["a()", "b()", "c()"], budget=3, workers=2
        )
        began = time.monotonic()
        with pytest.raises(CorpusError):
            run_campaign(cfg)
        assert time.monotonic() - began < 1.5
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["preflight_rejected"] == 1
        assert saved["candidates_compiled"] == saved["seeds_sampled"] == 0
        assert saved["per_seed"] == {}

    @pytest.mark.parametrize(
        "rng_seed, rejected", [(0, 1), (1, 0), (2, 0), (3, 0), (4, 0), (5, 1)]
    )
    def test_a_rejected_seeds_running_candidates_are_killed(
        self, tmp_path, scripted, rng_seed, rejected
    ):
        # a draw of the slow seed hangs its check while both workers run
        # its candidates, which hang too: once the check rejects the
        # seed they are killed, not left to their own timeout
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "slow.rs").write_text(SEED_FEATURE + "// SLOWMARK\n", encoding="utf-8")
        (d / "fast.rs").write_text(SEED_FEATURE, encoding="utf-8")
        compiler = CompilerConfig(
            binary_path=scripted("trigger", TRIGGER_BODY),
            kind="scripted-fake",
            timeout_secs=1.0,
        )
        cfg = make_config(
            d, tmp_path, compiler, ["a()", "b()", "c()"],
            budget=4, workers=2, seed=rng_seed,
        )
        began = time.monotonic()
        report = run_campaign(cfg)
        assert time.monotonic() - began < 1.5
        assert report.preflight_rejected == rejected
        assert report.candidates_compiled == 4

    def test_missing_compiler_fails_before_any_work(self, corpus_dir, tmp_path):
        compiler = CompilerConfig(binary_path="/no/such/rustc")
        cfg = make_config(corpus_dir, tmp_path, compiler, ["x()"], budget=5)
        with pytest.raises(HarnessError):
            run_campaign(cfg)
        assert not (tmp_path / "out" / "report.json").exists()

    def test_missing_corpus_dir(self, tmp_path, trigger_compiler):
        cfg = make_config(tmp_path / "nowhere", tmp_path, trigger_compiler, ["x()"])
        with pytest.raises(CorpusError):
            run_campaign(cfg)


class TestConfigValidation:
    def test_invalid_configs_rejected(self, tmp_path, trigger_compiler):
        backend = MockBackend(["x"])
        good = dict(
            corpus_dir=tmp_path,
            out_dir=tmp_path / "out",
            compilers=[trigger_compiler],
            infill=InfillConfig(backend=backend),
            budget_candidates=1,
        )
        CampaignConfig(**good)  # sanity: the base shape is accepted
        for mutation in (
            {"compilers": []},
            {"compilers": [trigger_compiler, trigger_compiler]},
            {"budget_candidates": None},
            {"budget_candidates": 0},
            {"budget_candidates": None, "budget_seconds": -1.0},
            {"workers": 0},
        ):
            with pytest.raises(ConfigError):
                CampaignConfig(**{**good, **mutation})


class TestDeterminismAcrossWorkers:
    FILLS = [
        "ok_one()", "0xBUG boom()", "ok_two()", "ERRMARK bad()",
        "ok_three()", "ok_four()", "ok_five()",
    ]

    def run_with(self, tmp_path, compiler, workers, monkeypatch):
        """One campaign on a managed corpus; returns everything that
        must not depend on the worker count."""
        root = tmp_path / f"w{workers}"
        corpus = Corpus(root / "corpus")
        # the last seed ICEs on its check and leaves the corpus
        seeds = (SEED_MAIN, SEED_HELPER, SEED_FEATURE, SEED_MAIN + "// 0xBUG\n")
        for text in seeds:
            corpus.add_entry(text, "test-suite")

        ledger = []  # seed draws, infill sizes and outcomes, in order
        cloze, infill, classify = campaign.cloze, campaign.infill, campaign.classify

        def logged_cloze(text, seed_id):
            ledger.append(("seed", seed_id))
            return cloze(text, seed_id)

        def logged_infill(*args):
            results = infill(*args)
            ledger.append(("infill", len(results)))
            return results

        def logged_classify(*args):
            kind = classify(*args)
            ledger.append(("outcome", kind.value))
            return kind

        monkeypatch.setattr(campaign, "cloze", logged_cloze)
        monkeypatch.setattr(campaign, "infill", logged_infill)
        monkeypatch.setattr(campaign, "classify", logged_classify)
        cfg = make_config(
            root / "corpus", root, compiler, list(self.FILLS),
            budget=50, workers=workers, seed=3,
        )
        report = run_campaign(cfg).to_dict()
        monkeypatch.undo()
        for volatile in ("generated_at", "elapsed_seconds", "corpus_dir"):
            report.pop(volatile)
        bundles = {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted((root / "out" / "bugs").rglob("*"))
            if path.is_file()
        }
        journal = [
            {k: v for k, v in json.loads(line).items() if k != "timestamp"}
            for line in (root / "out" / "bugstore" / "signatures.jsonl")
            .read_text()
            .splitlines()
        ]
        feedback = [
            (e.id, e.source_text)
            for e in Corpus.open(root / "corpus").entries()
            if e.provenance == "fuzzer-feedback"
        ]
        # how infill interleaves with outcomes depends on the worker
        # count; the order within each kind and each seed's outcomes do not
        draws = [entry for entry in ledger if entry[0] != "outcome"]
        per_draw = []
        for tag, value in ledger:
            if tag == "seed":
                per_draw.append([])
            elif tag == "outcome":
                per_draw[-1].append(value)
        return report, bundles, journal, feedback, draws, per_draw

    def test_worker_count_does_not_change_results(
        self, tmp_path, trigger_compiler, monkeypatch
    ):
        runs = [
            self.run_with(tmp_path, trigger_compiler, workers, monkeypatch)
            for workers in (1, 2, 4)
        ]
        report, bundles, journal, feedback, draws, per_draw = runs[0]
        # the inputs exercise what concurrency could reorder
        assert report["preflight_rejected"] == 1
        assert report["candidates_compiled"] == 50
        assert report["candidates_generated"] > 50  # budget lands mid-variant
        assert max(n for tag, n in draws if tag == "infill") > 1
        assert feedback and bundles and len(journal) == len(report["bundles"])
        assert any("ice" in outcomes[:-1] for outcomes in per_draw)  # mid-seed
        for other in runs[1:]:
            assert other == runs[0]

    def test_workers_are_kept_busy(self, tmp_path, scripted):
        # passes only when another compile overlaps it; alone it polls
        # for 2 s and then rejects, so serial compiles never pass
        markers = tmp_path / "markers"
        markers.mkdir()
        body = f"""
        dir="{markers}"
        finished=" $(ls "$dir" | sed -n 's/^done-//p' | tr '\\n' ' ') "
        me=$(mktemp "$dir/start-XXXXXX")
        me=${{me##*/start-}}
        seen=
        i=0
        while [ $i -lt 20 ]; do
          for f in "$dir"/start-*; do
            id=${{f##*/start-}}
            [ "$id" = "$me" ] && continue
            case "$finished" in *" $id "*) ;; *) seen=1 ;; esac
          done
          [ -n "$seen" ] && [ $i -ge 3 ] && break
          sleep 0.1
          i=$((i + 1))
        done
        touch "$dir/done-$me"
        [ -n "$seen" ] && exit 0
        echo "error: no peer compile ran alongside this one" >&2
        exit 1
        """
        compiler = CompilerConfig(
            binary_path=scripted("peer", body), kind="scripted-fake",
            timeout_secs=3.0,
        )
        # one seed with more masks than the budget, so the campaign ends
        # inside it and the last compile still has a peer
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "many.rs").write_text(
            "fn main() { let v = [1, 2]; f(v[0]); g(3); }\n", encoding="utf-8"
        )
        cfg = make_config(
            corpus, tmp_path, compiler, [f"call_{i}()" for i in range(9)],
            budget=4, workers=2, skip_preflight=True,
        )
        report = run_campaign(cfg)
        assert report.seeds_sampled == 1
        assert report.outcomes == {"pass": 4, "reject": 0, "ice": 0, "hang": 0}

    def test_bug_store_failure_with_compiles_in_flight(
        self, tmp_path, scripted, monkeypatch
    ):
        body = """
        for a in "$@"; do src="$a"; done
        if grep -q "0xBUG" "$src"; then
          echo "error: internal compiler error: seeded" >&2
          exit 101
        fi
        sleep 0.5
        exit 0
        """
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        compiler = CompilerConfig(
            binary_path=scripted("slow_ice", body), kind="scripted-fake",
            timeout_secs=5.0,
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "feature.rs").write_text(SEED_FEATURE, encoding="utf-8")

        def broken(self, sig, write_case):
            raise BugStoreError("journal write failed: disk full")

        monkeypatch.setattr(BugStore, "record_if_new", broken)
        cfg = make_config(
            corpus, tmp_path, compiler,
            ["0xBUG boom()", "slow_1()", "slow_2()", "slow_3()"],
            budget=20, workers=2, skip_preflight=True,
        )
        partial = run_campaign(cfg)
        assert partial.aborted.startswith("cannot write findings")
        assert partial.outcomes["ice"] == 1
        assert partial.candidates_compiled == 1
        assert (tmp_path / "out" / "report.json").is_file()
        assert not [
            t for t in threading.enumerate() if t.name.startswith("clozefuzz-")
        ]
        assert not list(work.glob("clozefuzz-*"))

    def test_interrupt_with_compiles_in_flight(self, tmp_path, scripted, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        compiler = CompilerConfig(
            binary_path=scripted("slow", "sleep 0.3\nexit 0\n"),
            kind="scripted-fake", timeout_secs=5.0,
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "feature.rs").write_text(SEED_FEATURE, encoding="utf-8")
        classify = campaign.classify

        def interrupted(*args):
            if interrupted.calls == 1:
                raise KeyboardInterrupt
            interrupted.calls += 1
            return classify(*args)

        interrupted.calls = 0
        monkeypatch.setattr(campaign, "classify", interrupted)
        cfg = make_config(
            corpus, tmp_path, compiler, [f"call_{i}()" for i in range(9)],
            budget=20, workers=2, skip_preflight=True,
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(cfg)
        assert not [
            t for t in threading.enumerate() if t.name.startswith("clozefuzz-")
        ]
        assert not list(work.glob("clozefuzz-*"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] == "interrupted"
        # the compile cut in its triage is counted nowhere
        assert report["candidates_compiled"] == 1
        assert sum(report["outcomes"].values()) == report["candidates_compiled"]

    def test_interrupt_kills_running_compiles(self, tmp_path, scripted, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        pids = tmp_path / "pids"
        pids.mkdir()
        # each compile names a file after its pid, then becomes the sleep
        compiler = CompilerConfig(
            binary_path=scripted("sleepy", f': > "{pids}/$$"\nexec sleep 20\n'),
            kind="scripted-fake", timeout_secs=30.0,
        )
        vetted(compiler, timeout=0.2)
        for pidfile in pids.iterdir():
            pidfile.unlink()
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "feature.rs").write_text(SEED_FEATURE, encoding="utf-8")
        cfg = make_config(
            corpus, tmp_path, compiler, [f"call_{i}()" for i in range(9)],
            budget=4, workers=2, skip_preflight=True,
        )
        main = threading.main_thread().ident
        sent = []
        returned = threading.Event()

        def press_ctrl_c_while_both_workers_compile():
            give_up = time.monotonic() + 25
            while not returned.is_set() and time.monotonic() < give_up:
                running = [int(p.name) for p in pids.iterdir()]
                if sent and not all(map(_alive, running)):
                    return
                # pressed again after a second, as a user would, in case
                # Python ran the first one's handler inside a finalizer,
                # where the exception is dropped
                if len(running) >= 2 and (not sent or time.monotonic() - sent[-1] > 1):
                    sent.append(time.monotonic())
                    signal.pthread_kill(main, signal.SIGINT)
                time.sleep(0.02)

        presser = threading.Thread(target=press_ctrl_c_while_both_workers_compile)
        presser.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(cfg)
        finally:
            returned.set()
            took = time.monotonic() - sent[0] if sent else None
            presser.join()
        started = [int(p.name) for p in pids.iterdir()]
        left = [pid for pid in started if _alive(pid)]
        for pid in left:
            os.killpg(pid, signal.SIGKILL)
        assert took is not None and took < 3.0
        assert len(started) == 2
        assert not left
        assert not list(work.glob("clozefuzz-*"))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["aborted"] == "interrupted"
        assert report["candidates_compiled"] == 0


class TestStops:
    """However a campaign stops, it kills the compiles still running
    and counts none of them, so it stops at once."""

    @pytest.fixture
    def sleepy(self, tmp_path, scripted, monkeypatch):
        """A compiler that names a file in ``pids/`` after its pid and
        then sleeps 20 s, or, given ``0xBUG``, ICEs after 0.3 s. Yields
        ``(config, corpus dir, pids dir, scratch root)``; any compile
        left alive is killed afterwards."""
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(work))
        pids = tmp_path / "pids"
        pids.mkdir()
        body = f"""
        for a in "$@"; do src="$a"; done
        : > "{pids}/$$"
        if grep -q "0xBUG" "$src"; then
          sleep 0.3
          echo "error: internal compiler error: seeded" >&2
          exit 101
        fi
        exec sleep 20
        """
        compiler = CompilerConfig(
            binary_path=scripted("sleepy", body), kind="scripted-fake",
            timeout_secs=30.0,
        )
        vetted(compiler, timeout=0.2)
        for pidfile in pids.iterdir():
            pidfile.unlink()
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "feature.rs").write_text(SEED_FEATURE, encoding="utf-8")
        yield compiler, corpus, pids, work
        for pid in (int(p.name) for p in pids.iterdir()):
            if _alive(pid):
                os.killpg(pid, signal.SIGKILL)

    def assert_nothing_left(self, pids, work):
        started = [int(p.name) for p in pids.iterdir()]
        assert started
        assert not [pid for pid in started if _alive(pid)]
        assert not list(work.glob("clozefuzz-*"))
        assert not [
            t for t in threading.enumerate() if t.name.startswith("clozefuzz-")
        ]

    def test_store_failure_kills_the_compiles_behind_it(
        self, tmp_path, sleepy, monkeypatch
    ):
        compiler, corpus, pids, work = sleepy

        def broken(self, sig, write_case):
            raise BugStoreError("journal write failed: disk full")

        monkeypatch.setattr(BugStore, "record_if_new", broken)
        # the ICE heads the queue; the compile beside it and the one a
        # worker takes when the ICE finishes both sleep
        cfg = make_config(
            corpus, tmp_path, compiler,
            ["0xBUG boom()", "slow_1()", "slow_2()", "slow_3()"],
            budget=20, workers=2, skip_preflight=True,
        )
        began = time.monotonic()
        partial = run_campaign(cfg)
        assert time.monotonic() - began < 2.0
        assert partial.aborted.startswith("cannot write findings")
        assert partial.candidates_compiled == 1
        self.assert_nothing_left(pids, work)

    def test_time_budget_kills_running_compiles(self, tmp_path, sleepy):
        compiler, corpus, pids, work = sleepy
        cfg = CampaignConfig(
            corpus_dir=corpus,
            out_dir=tmp_path / "out",
            compilers=[compiler],
            infill=InfillConfig(backend=MockBackend(["slow_1()", "slow_2()"])),
            budget_seconds=1,
            workers=2,
            skip_preflight=True,
        )
        began = time.monotonic()
        report = run_campaign(cfg)
        assert time.monotonic() - began < 2.0
        assert report.budget_exhausted == "seconds"
        assert report.candidates_compiled == 0
        self.assert_nothing_left(pids, work)
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["budget_exhausted"] == "seconds"
        assert saved["candidates_compiled"] == 0

    def test_time_budget_cuts_preflight_short(self, tmp_path, sleepy):
        # both seeds sleep through their preflight compiles
        compiler, corpus, pids, work = sleepy
        (corpus / "other.rs").write_text(SEED_FEATURE + "\n", encoding="utf-8")
        compiler.timeout_secs = 5.0
        cfg = CampaignConfig(
            corpus_dir=corpus,
            out_dir=tmp_path / "out",
            compilers=[compiler],
            infill=InfillConfig(backend=MockBackend(["slow_1()"])),
            budget_seconds=1,
            workers=2,
        )
        began = time.monotonic()
        report = run_campaign(cfg)
        assert time.monotonic() - began < 1.5
        assert report.budget_exhausted == "seconds"
        assert report.candidates_compiled == 0
        self.assert_nothing_left(pids, work)
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["budget_exhausted"] == "seconds"
        assert saved["candidates_compiled"] == 0


class TestReportBugUnit:
    def test_unknown_seed_id_still_produces_a_bundle(
        self, tmp_path, trigger_compiler
    ):
        from clozefuzz.harness import compile_program
        from clozefuzz.infill import InfillResult
        from clozefuzz.masking import cloze
        from clozefuzz.oracle import BugKind, classify
        from clozefuzz.oracle import signature as make_signature

        variant = cloze("fn main() { 0xBUG; }", "ghost")[0]
        result = InfillResult(
            candidate_text="fn main() { 0xBUG; }",
            variant=variant,
            temperature=0.8,
        )
        outcome = compile_program(result.candidate_text, trigger_compiler)
        assert classify(outcome, "scripted-fake") is BugKind.ICE
        sig = make_signature(outcome, BugKind.ICE)
        bundle = report_bug(
            tmp_path, sig, result, outcome, trigger_compiler, Corpus(), "<infill>"
        )
        ref = (bundle / "seed-ref.txt").read_text()
        assert "seed_id: ghost" in ref
        assert "content_hash: unknown" in ref


class TestHookPoints:
    """The campaign benchmark counts compiles and builds its outcome
    ledger by replacing these ``campaign`` module attributes; each must
    stay the one route to its work."""

    HOOKED = (
        "classify", "signature", "compile_program", "cloze", "time_passes",
        "report_bug", "preflight_filter", "load_corpus",
    )

    def test_every_compile_goes_through_the_hooked_names(
        self, corpus_dir, tmp_path, scripted, monkeypatch
    ):
        calls = dict.fromkeys(self.HOOKED, 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for name in self.HOOKED:
            monkeypatch.setattr(
                campaign, name, counting(name, getattr(campaign, name))
            )
        compiler = CompilerConfig(
            binary_path=scripted("trigger", TRIGGER_BODY),
            kind="scripted-fake",
            timeout_secs=0.3,
        )
        # preflight stays on: its compiles must not reach the hooks
        cfg = make_config(
            corpus_dir, tmp_path, compiler,
            ["0xBUG boom()", "SLOWMARK spin()", "ok()"], budget=4,
        )
        report = run_campaign(cfg)

        assert report.outcomes == {"pass": 1, "reject": 0, "ice": 2, "hang": 1}
        assert calls["classify"] == report.candidates_compiled == 4
        assert calls["compile_program"] == report.candidates_compiled
        assert calls["signature"] == report.outcomes["ice"] + report.outcomes["hang"]
        assert calls["time_passes"] == report.outcomes["hang"]
        assert calls["report_bug"] == report.interesting == 2
        assert calls["cloze"] == report.seeds_sampled
        assert calls["preflight_filter"] == 1
        assert calls["load_corpus"] == 1

    def test_benchmark_child_runs_on_this_tree(self, tmp_path, monkeypatch):
        """The benchmark child also hooks ``masking.lex``, ``brackets.lex``,
        ``masking.find_spans``, ``LexResult.tokens``, ``Corpus`` methods,
        ``BugStore.record_if_new`` and ``CampaignConfig(compilers=...)``.
        One full ``fake-mixed`` campaign untraced and one traced check
        them all."""
        root = Path(clozefuzz.__file__).resolve().parents[2]
        bench = root / "perfbench"
        workloads = bench_workloads(monkeypatch)
        base = workloads.build("fake-mixed", 1).materialise(tmp_path / "bench")
        for trace in (0, 1):
            spec = dict(
                base,
                trace=trace,
                campaign_seed=1,
                out_dir=str(tmp_path / f"out{trace}"),
                spans_path=str(tmp_path / "spans.jsonl"),
            )
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, str(bench / "child.py"), str(spec_path)],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["aborted"] is None
            report = result["report"]
            assert report["candidates_compiled"] == base["budget"] == result["ledger_len"]
            assert report["bundles"]
            if trace:
                layers = result["layers"]
                assert isinstance(layers, dict)
                assert layers["lexer.lex.calls"] > 0
                assert layers["brackets.find_spans.calls"] > 0
                assert layers["corpus.preflight_filter.s"] > 0
                assert layers["oracle.record_if_new.calls"] > 0
                assert layers["campaign.report_bug.calls"] == report["interesting"]
