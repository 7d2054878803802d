from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import ICE_BODY, TIMEPASS_HANG_BODY, TRIGGER_BODY

import clozefuzz
from clozefuzz import campaign, cli
from clozefuzz.cli import main
from clozefuzz.augment import AugmentConfig, export_finetune_corpus
from clozefuzz.corpus import Corpus, CorpusError, load_corpus
from clozefuzz.oracle import BugStore, BugStoreError

SEED_MAIN = "fn main() { helper(1); }\n"
SEED_HELPER = "fn helper(n: u32) { let x = n; }\n"


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "main.rs").write_text(SEED_MAIN, encoding="utf-8")
    (d / "helper.rs").write_text(SEED_HELPER, encoding="utf-8")
    return d


@pytest.fixture
def trigger_bin(scripted):
    return scripted("trigger", TRIGGER_BODY)


@pytest.fixture
def mock_script(tmp_path):
    path = tmp_path / "backend.json"
    path.write_text(
        json.dumps({"kind": "mock", "fills": ["ok_call()", "0xBUG boom()"]}),
        encoding="utf-8",
    )
    return path


FUZZ_REPORT_KEYS = {
    "generated_at", "elapsed_seconds", "seed", "corpus_dir", "compilers",
    "backend_id", "budgets", "budget_exhausted", "stalled", "aborted",
    "corpus_size_initial", "corpus_size_final", "preflight_rejected",
    "seeds_sampled", "variants_masked", "candidates_generated",
    "candidates_compiled", "outcomes", "interesting", "duplicate",
    "infill_errors", "bundles", "per_seed",
}
SPE_REPORT_KEYS = {"seeds", "seeds_over_threshold", "programs_generated", "aborted"}
SPE_TRIAGE_KEYS = {"pass", "reject", "ice", "hang", "interesting", "duplicate"}


def run_module(args, timeout, **env):
    """Run ``python -m clozefuzz`` on the package under test, also when
    pytest alone put it on the path, with ``env`` added to the
    environment."""
    src = str(Path(clozefuzz.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, "-m", "clozefuzz", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={
            **os.environ,
            **env,
            "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        },
    )


def fuzz_args(corpus_dir, trigger_bin, mock_script, out, *extra):
    return [
        "fuzz",
        "--corpus", str(corpus_dir),
        "--compiler", str(trigger_bin),
        "--compiler-kind", "scripted-fake",
        "--mock-script", str(mock_script),
        "--out", str(out),
        *extra,
    ]


class TestFuzzCommand:
    def test_campaign_runs_and_reports(
        self, corpus_dir, trigger_bin, mock_script, tmp_path, capsys
    ):
        rc = main(
            fuzz_args(
                corpus_dir, trigger_bin, mock_script, tmp_path / "out",
                "--budget-candidates", "6",
            )
        )
        assert rc == 0
        assert "candidates_compiled: 6\n" in capsys.readouterr().out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["candidates_compiled"] == 6
        assert report["interesting"] >= 1

    def test_flag_beats_config_beats_default(
        self, corpus_dir, trigger_bin, mock_script, tmp_path
    ):
        config = tmp_path / "campaign.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": str(corpus_dir),
                    "out": str(tmp_path / "out"),
                    "compiler": str(trigger_bin),
                    "compiler_kind": "scripted-fake",
                    "mock_script": str(mock_script),
                    "budget_candidates": 5,
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        rc = main(["fuzz", "--config", str(config), "--budget-candidates", "2"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["candidates_compiled"] == 2  # flag beat the config file
        assert report["seed"] == 9  # config beat the built-in default of 0
        assert report["compilers"][0]["timeout_secs"] == 180.0  # built-in default

    def test_missing_backend_is_a_config_error(
        self, corpus_dir, trigger_bin, tmp_path, capsys
    ):
        rc = main(
            [
                "fuzz",
                "--corpus", str(corpus_dir),
                "--compiler", str(trigger_bin),
                "--compiler-kind", "scripted-fake",
                "--out", str(tmp_path / "out"),
                "--budget-candidates", "2",
            ]
        )
        assert rc == 1
        assert "backend" in capsys.readouterr().err

    def test_both_backends_rejected(
        self, corpus_dir, trigger_bin, mock_script, tmp_path
    ):
        rc = main(
            fuzz_args(
                corpus_dir, trigger_bin, mock_script, tmp_path / "out",
                "--backend-url", "http://localhost:1/x",
                "--budget-candidates", "2",
            )
        )
        assert rc == 1

    def test_missing_budget_is_a_config_error(
        self, corpus_dir, trigger_bin, mock_script, tmp_path
    ):
        rc = main(fuzz_args(corpus_dir, trigger_bin, mock_script, tmp_path / "out"))
        assert rc == 1

    def test_bad_config_file(self, corpus_dir, trigger_bin, mock_script, tmp_path):
        assert (
            main(
                fuzz_args(
                    corpus_dir, trigger_bin, mock_script, tmp_path / "out",
                    "--config", str(tmp_path / "missing.json"),
                )
            )
            == 1
        )
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]", encoding="utf-8")
        assert (
            main(
                fuzz_args(
                    corpus_dir, trigger_bin, mock_script, tmp_path / "out",
                    "--config", str(bad),
                )
            )
            == 1
        )

    def test_missing_compiler_is_an_environment_error(
        self, corpus_dir, mock_script, tmp_path, capsys
    ):
        rc = main(
            fuzz_args(
                corpus_dir, "/no/such/rustc", mock_script, tmp_path / "out",
                "--budget-candidates", "2",
            )
        )
        assert rc == 2
        assert "environment error" in capsys.readouterr().err

    def test_missing_corpus_is_an_environment_error(
        self, trigger_bin, mock_script, tmp_path
    ):
        rc = main(
            fuzz_args(
                tmp_path / "nowhere", trigger_bin, mock_script, tmp_path / "out",
                "--budget-candidates", "2",
            )
        )
        assert rc == 2

    def test_corpus_emptied_by_its_checks_exits_2_with_its_report(
        self, trigger_bin, mock_script, tmp_path
    ):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "main.rs").write_text(SEED_MAIN + "// 0xBUG\n", encoding="utf-8")
        (corpus / "helper.rs").write_text(SEED_HELPER + "// 0xBUG\n", encoding="utf-8")
        out = tmp_path / "out"
        rc = main(
            fuzz_args(corpus, trigger_bin, mock_script, out, "--budget-candidates", "5")
        )
        assert rc == 2
        report = json.loads((out / "report.json").read_text())
        assert report["aborted"] == "no usable seeds: corpus is empty after preflight"
        assert (report["preflight_rejected"], report["corpus_size_final"]) == (2, 0)
        assert report["candidates_compiled"] == 0

    def test_aborted_campaign_exits_3(
        self, corpus_dir, mock_script, tmp_path, scripted, capsys
    ):
        vanishing = scripted("self_destruct", 'rm -f "$0"\nexit 0\n')
        rc = main(
            fuzz_args(
                corpus_dir, vanishing, mock_script, tmp_path / "out",
                "--budget-candidates", "50",
                "--skip-preflight",
            )
        )
        assert rc == 3
        assert "aborted" in capsys.readouterr().err

    def test_interrupted_campaign_exits_3_with_its_report(
        self, corpus_dir, trigger_bin, mock_script, tmp_path, capsys, monkeypatch
    ):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign, "classify", interrupt)
        out = tmp_path / "out"
        rc = main(
            fuzz_args(
                corpus_dir, trigger_bin, mock_script, out,
                "--budget-candidates", "5", "--skip-preflight",
            )
        )
        assert rc == 3
        assert "campaign aborted: interrupted" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["aborted"] == "interrupted"
        assert set(report) == FUZZ_REPORT_KEYS

    def test_report_keys_are_the_report_fields(
        self, corpus_dir, trigger_bin, mock_script, tmp_path
    ):
        rc = main(
            fuzz_args(
                corpus_dir, trigger_bin, mock_script, tmp_path / "out",
                "--budget-candidates", "2",
            )
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report) == FUZZ_REPORT_KEYS


class TestMineCommand:
    @pytest.fixture
    def fixture_dir(self, tmp_path):
        d = tmp_path / "issues"
        d.mkdir()
        (d / "1.json").write_text(
            json.dumps(
                {
                    "number": 1,
                    "title": "crash",
                    "state": "closed",
                    "labels": [{"name": "C-bug"}, {"name": "T-compiler"}],
                    "body": "```rust\nfn boom() { loop {} }\n```",
                }
            ),
            encoding="utf-8",
        )
        return d

    def test_mine_into_fresh_corpus(self, fixture_dir, tmp_path, capsys):
        corpus_dir = tmp_path / "mined"
        rc = main(
            ["mine", "--corpus", str(corpus_dir), "--fixture-dir", str(fixture_dir)]
        )
        assert rc == 0
        assert "harvested 1 new entries" in capsys.readouterr().out
        assert (corpus_dir / "manifest.jsonl").is_file()
        record = json.loads((corpus_dir / "manifest.jsonl").read_text())
        assert record["provenance"] == "issue-mined"
        assert (corpus_dir / record["path"]).read_text() == "fn boom() { loop {} }"

    def test_mine_is_idempotent(self, fixture_dir, tmp_path, capsys):
        corpus_dir = tmp_path / "mined"
        main(["mine", "--corpus", str(corpus_dir), "--fixture-dir", str(fixture_dir)])
        capsys.readouterr()
        rc = main(
            ["mine", "--corpus", str(corpus_dir), "--fixture-dir", str(fixture_dir)]
        )
        assert rc == 0
        assert "harvested 0 new entries" in capsys.readouterr().out

    def test_source_choice_is_exclusive(self, fixture_dir, tmp_path, capsys):
        mine = ["mine", "--corpus", str(tmp_path / "mined")]
        both = [*mine, "--fixture-dir", str(fixture_dir), "--repo", "o/r"]
        for argv in (mine, both):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 1
            assert capsys.readouterr().err.startswith("usage: clozefuzz mine")
        assert not (tmp_path / "mined").exists()

    def test_until_reads_a_time_without_a_zone_as_utc(self, tmp_path, capsys):
        issues = tmp_path / "issues"
        issues.mkdir()
        created = {
            1: "2023-12-31T23:59:59Z",
            2: "2024-01-01T00:00:00Z",
            3: None,
            4: "2024-01-01T00:30:00+01:00",
            5: "2024-06-01T00:00:00Z",
        }
        for number, when in created.items():
            record = {
                "number": number,
                "state": "closed",
                "labels": ["C-bug", "T-compiler"],
                "body": f"```rust\nfn r{number}() {{}}\n```",
            }
            if when:
                record["created_at"] = when
            (issues / f"{number}.json").write_text(json.dumps(record), encoding="utf-8")
        corpus_dir = tmp_path / "mined"
        argv = [
            "mine", "--corpus", str(corpus_dir), "--fixture-dir", str(issues),
            "--until", "2024-01-01",
        ]
        assert main(argv) == 0
        # before 2024-01-01T00:00Z: 1, 4 (23:30Z) and 3, which has no date
        texts = {e.source_text for e in Corpus.open(corpus_dir).entries()}
        assert texts == {"fn r1() {}", "fn r3() {}", "fn r4() {}"}

    def test_missing_fixture_dir_is_environmental(self, tmp_path):
        rc = main(
            [
                "mine",
                "--corpus", str(tmp_path / "mined"),
                "--fixture-dir", str(tmp_path / "absent"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "record",
        [
            {"title": "no number", "body": "```rust\nfn f() {}\n```"},
            [{"number": 2}],
            {"number": 2, "labels": [{"color": "red"}]},
            {"number": 2, "labels": 5},
            {"number": 2, "body": 5},
        ],
        ids=[
            "no-number", "not-an-object", "nameless-label", "labels-not-a-list",
            "body-not-text",
        ],
    )
    def test_a_malformed_record_is_environmental(
        self, fixture_dir, record, tmp_path, capsys
    ):
        bad = fixture_dir / "2.json"
        bad.write_text(json.dumps(record), encoding="utf-8")
        corpus_dir = tmp_path / "mined"
        rc = main(
            ["mine", "--corpus", str(corpus_dir), "--fixture-dir", str(fixture_dir)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err
        # 1.json, read before the bad record, stays harvested
        assert len(Corpus.open(corpus_dir)) == 1

    def test_bad_until_timestamp(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    "mine",
                    "--corpus", str(tmp_path / "mined"),
                    "--fixture-dir", str(fixture_dir),
                    "--until", "not-a-date",
                ]
            )
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: clozefuzz mine")
        assert "argument --until: invalid parse_time value: 'not-a-date'" in err


class TestAugmentCommand:
    def test_export(self, corpus_dir, tmp_path, capsys):
        rc = main(
            [
                "augment",
                "--corpus", str(corpus_dir),
                "--out", str(tmp_path / "ft"),
                "--target-size", "8",
            ]
        )
        assert rc == 0
        assert "exported 8 programs" in capsys.readouterr().out
        assert len(list((tmp_path / "ft").glob("ft_*.rs"))) == 8

    def test_out_may_not_be_a_managed_corpus(self, tmp_path, capsys):
        issues = tmp_path / "issues"
        issues.mkdir()
        (issues / "1.json").write_text(
            json.dumps(
                {
                    "number": 1,
                    "labels": ["C-bug", "T-compiler"],
                    "state": "closed",
                    "body": "```rust\nfn main() { let a = 1; let b = 2; }\n```",
                }
            ),
            encoding="utf-8",
        )
        mined = tmp_path / "m"
        assert main(["mine", "--corpus", str(mined), "--fixture-dir", str(issues)]) == 0
        before = _tree(mined)
        capsys.readouterr()
        argv = [
            "augment", "--corpus", str(mined), "--out", str(mined), "--target-size", "3"
        ]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "holds a corpus" in lines[0]
        assert _tree(mined) == before

    def test_out_with_seeds_only_in_a_subdirectory_is_refused(
        self, corpus_dir, tmp_path, capsys
    ):
        out = tmp_path / "ft"
        (out / "sub").mkdir(parents=True)
        (out / "sub" / "a.rs").write_text(SEED_MAIN, encoding="utf-8")
        before = _tree(out)
        argv = ["augment", "--corpus", str(corpus_dir), "--out", str(out)]
        assert main(argv) == 1
        assert "holds a corpus" in capsys.readouterr().err
        assert _tree(out) == before

    def test_target_smaller_than_corpus(self, corpus_dir, tmp_path):
        rc = main(
            [
                "augment",
                "--corpus", str(corpus_dir),
                "--out", str(tmp_path / "ft"),
                "--target-size", "1",
            ]
        )
        assert rc == 1


def spe_args(corpus_dir, out, *extra):
    return ["spe", "--corpus", str(corpus_dir), "--out", str(out), *extra]


@pytest.mark.parametrize("command", ["fuzz", "spe"])
def test_every_journal_line_names_a_case_file_under_out(
    command, corpus_dir, trigger_bin, mock_script, tmp_path, scripted
):
    out = tmp_path / "out"
    if command == "fuzz":
        argv = fuzz_args(
            corpus_dir, trigger_bin, mock_script, out, "--budget-candidates", "6"
        )
    else:
        argv = spe_args(
            corpus_dir, out,
            "--compiler", scripted("ice", ICE_BODY), "--compiler-kind", "scripted-fake",
        )
    assert main(argv) == 0
    journal = (out / "bugstore" / "signatures.jsonl").read_text().splitlines()
    assert len(journal) == json.loads((out / "report.json").read_text())["interesting"]
    assert journal
    for line in journal:
        case = out / json.loads(line)["first_case_path"]
        assert case.is_file()
        assert out.resolve() in case.resolve().parents
    assert [p.name for p in (out / "bugstore").iterdir()] == ["signatures.jsonl"]


class TestSpeCommand:
    @pytest.fixture
    def spe_corpus(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        # three variables, six orderings: five permuted programs
        (d / "three.rs").write_text(
            "fn f() { let a = 1; let b = 2; let c = 3; }\n", encoding="utf-8"
        )
        return d

    def test_generate_and_triage(self, tmp_path, trigger_bin, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "two.rs").write_text(
            "fn f() { let a = 1; let b = 2; }\n", encoding="utf-8"
        )
        rc = main(
            spe_args(
                corpus_dir, tmp_path / "out",
                "--compiler", str(trigger_bin),
                "--compiler-kind", "scripted-fake",
            )
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report) == SPE_REPORT_KEYS | SPE_TRIAGE_KEYS
        assert report["aborted"] is None
        assert report["seeds"] == 1
        assert report["programs_generated"] == 1
        assert report["pass"] == 1
        assert report["ice"] == 0
        variants = list((tmp_path / "out" / "candidates").glob("*.rs"))
        assert len(variants) == 1
        assert variants[0].read_text() == "fn f() { let b = 1; let a = 2; }\n"
        assert "programs_generated: 1" in capsys.readouterr().out

    def test_generate_only_report_keys(self, spe_corpus, tmp_path):
        assert main(spe_args(spe_corpus, tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert set(report) == SPE_REPORT_KEYS
        assert not (tmp_path / "out" / "bugstore").exists()

    def test_same_ice_is_one_finding(self, spe_corpus, tmp_path, scripted):
        out = tmp_path / "out"
        rc = main(
            spe_args(
                spe_corpus, out,
                "--compiler", scripted("ice", ICE_BODY),
                "--compiler-kind", "scripted-fake",
            )
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        generated = report["programs_generated"]
        assert generated == 5
        assert report["ice"] == generated
        assert report["interesting"] == 1
        assert report["duplicate"] == generated - 1
        journal = (out / "bugstore" / "signatures.jsonl").read_text()
        assert len(journal.splitlines()) == 1

    def test_a_later_run_never_rewrites_a_journalled_case(
        self, tmp_path, scripted, monkeypatch
    ):
        # five variables, 120 arrangements: each rng seed samples its own 32
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "five.rs").write_text(
            "fn f() { let a = 1; let b = 2; let c = 3; let d = 4; let e = 5; }\n",
            encoding="utf-8",
        )
        compiled = []
        compile_program = cli.compile_program

        def recording(text, target):
            compiled.append(text)
            return compile_program(text, target)

        monkeypatch.setattr(cli, "compile_program", recording)
        out = tmp_path / "out"
        ice = scripted("ice", ICE_BODY)
        for seed in ("1", "2"):
            argv = spe_args(
                corpus_dir, out, "--seed", seed,
                "--compiler", ice, "--compiler-kind", "scripted-fake",
            )
            assert main(argv) == 0
        # every compile signs the same ICE, so the first one found it
        assert len(compiled) == 64
        journal = (out / "bugstore" / "signatures.jsonl").read_text().splitlines()
        assert len(journal) == 1
        case = out / json.loads(journal[0])["first_case_path"]
        assert case.read_text(encoding="utf-8") == compiled[0]

    def test_compiler_lost_mid_run_keeps_the_report(
        self, spe_corpus, tmp_path, scripted, capsys
    ):
        out = tmp_path / "out"
        rc = main(
            spe_args(
                spe_corpus, out,
                "--compiler", scripted("self_destruct", 'rm -f "$0"\nexit 0\n'),
                "--compiler-kind", "scripted-fake",
            )
        )
        assert rc == 3
        assert "spe aborted: " in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert set(report) == SPE_REPORT_KEYS | SPE_TRIAGE_KEYS
        assert report["aborted"].startswith("compiler unavailable mid-run")
        assert report["programs_generated"] == 5
        assert report["pass"] == 1
        assert "pass: 1" in (out / "report.txt").read_text()

    def test_interrupted_run_exits_3_with_its_report(
        self, spe_corpus, tmp_path, trigger_bin, capsys, monkeypatch
    ):
        triage = cli.triage
        calls = 0

        def interrupt_second(*args):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise KeyboardInterrupt
            return triage(*args)

        monkeypatch.setattr(cli, "triage", interrupt_second)
        out = tmp_path / "out"
        rc = main(
            spe_args(
                spe_corpus, out,
                "--compiler", str(trigger_bin),
                "--compiler-kind", "scripted-fake",
            )
        )
        assert rc == 3
        assert "spe aborted: interrupted" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert set(report) == SPE_REPORT_KEYS | SPE_TRIAGE_KEYS
        assert report["aborted"] == "interrupted"
        assert "aborted: interrupted\n" in (out / "report.txt").read_text()
        assert report["programs_generated"] == 5
        assert report["pass"] == 1
        assert "pass: 1" in (out / "report.txt").read_text()

    def test_bad_timeout_is_a_config_error(
        self, spe_corpus, tmp_path, trigger_bin, capsys
    ):
        rc = main(
            spe_args(
                spe_corpus, tmp_path / "out",
                "--compiler", str(trigger_bin),
                "--timeout", "0",
            )
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("out/candidates/*.rs"))

    def test_missing_compiler_fails_before_generating(
        self, spe_corpus, tmp_path, capsys
    ):
        rc = main(
            spe_args(spe_corpus, tmp_path / "out", "--compiler", "/no/such/rustc")
        )
        assert rc == 2
        assert "environment error" in capsys.readouterr().err
        assert not list(tmp_path.glob("out/candidates/*.rs"))

    def test_a_run_leaves_no_scratch_directory(self, spe_corpus, tmp_path, scripted):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        log = tmp_path / "cwd.log"
        compiler = scripted("where", f'pwd >> "{log}"\nexit 0\n')
        out = tmp_path / "out"
        proc = run_module(
            spe_args(
                spe_corpus, out, "--compiler", compiler,
                "--compiler-kind", "scripted-fake",
            ),
            timeout=60,
            TMPDIR=str(tmp),
        )
        assert proc.returncode == 0, proc.stderr
        # every compile ran in one directory under TMPDIR, removed at exit
        cwds = set(log.read_text().splitlines())
        assert len(cwds) == 1
        assert os.path.dirname(cwds.pop()) == os.path.realpath(tmp)
        assert not list(tmp.glob("clozefuzz-*"))

    def test_fewer_arrangements_than_the_sample_do_not_hang(self, tmp_path):
        # [a, b, a, b] has 6 arrangements, so 5 besides the identity:
        # above the threshold, yet fewer than the 32 a sample asks for
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "f.rs").write_text(
            "fn f(a: u32, b: u32) { a + b; }\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        proc = run_module(spe_args(corpus_dir, out, "--threshold", "1"), timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["seeds_over_threshold"] == 1
        assert report["programs_generated"] == 5
        texts = {p.read_text() for p in (out / "candidates").glob("*.rs")}
        assert len(texts) == 5


class TestDamagedCorpus:
    @pytest.fixture
    def managed(self, tmp_path):
        root = tmp_path / "managed"
        corpus = Corpus(root)
        corpus.add_entry(SEED_MAIN, "test-suite")
        corpus.add_entry(SEED_HELPER, "test-suite")
        return root

    def test_torn_manifest_line_is_skipped(self, managed, tmp_path, caplog):
        with (managed / "manifest.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"id": "s000003", "ha')
        assert main(spe_args(managed, tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["seeds"] == 2
        assert "corrupt manifest line" in caplog.text

    @pytest.mark.parametrize("command", ["spe", "fuzz"])
    @pytest.mark.parametrize("damage", ["missing", "undecodable"])
    def test_unreadable_seed_file_is_an_environment_error(
        self, managed, tmp_path, trigger_bin, mock_script, capsys, command, damage
    ):
        seed = managed / "seeds" / "s000002.rs"
        if damage == "missing":
            seed.unlink()
        else:
            seed.write_bytes(b"fn helper() { \xff }\n")
        out = tmp_path / "out"
        if command == "spe":
            args = spe_args(managed, out)
        else:
            args = fuzz_args(
                managed, trigger_bin, mock_script, out, "--budget-candidates", "2"
            )
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "environment error" in err
        assert "s000002.rs" in err


class TestDebugCommands:
    def test_spans_dumps_a_tree(self, tmp_path, capsys):
        f = tmp_path / "x.rs"
        f.write_text("fn main() { call(1); }", encoding="utf-8")
        assert main(["spans", str(f)]) == 0
        roots = json.loads(capsys.readouterr().out)
        kinds = sorted(r["kind"] for r in roots)
        assert kinds == ["brace", "paren"]

    def test_mask_lists_and_renders(self, tmp_path, capsys):
        f = tmp_path / "x.rs"
        f.write_text("fn main() { call(1); }", encoding="utf-8")
        assert main(["mask", str(f)]) == 0
        listing = capsys.readouterr().out.splitlines()
        assert len(listing) == 3  # one line per maskable span

        assert main(["mask", str(f), "--render", "1"]) == 0
        rendered = capsys.readouterr().out
        assert "<infill>" in rendered
        assert main(["mask", str(f), "--render", "99"]) == 1

    def test_missing_input_file_is_a_clean_error(self, tmp_path, capsys):
        ghost = str(tmp_path / "ghost.rs")
        for argv in (
            ["spans", ghost],
            ["mask", ghost],
            ["classify", "--stderr", ghost],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read")
            assert ghost in err

    @pytest.mark.parametrize(
        "body, flags",
        [(ICE_BODY, ["--exit-status", "101"]), (TIMEPASS_HANG_BODY, ["--timed-out"])],
        ids=["ice", "hang"],
    )
    def test_classify_signs_a_bundle_as_its_campaign_did(
        self, body, flags, corpus_dir, mock_script, scripted, tmp_path, capsys
    ):
        out = tmp_path / "out"
        args = fuzz_args(
            corpus_dir, scripted("cc", body), mock_script, out,
            "--budget-candidates", "1", "--skip-preflight", "--timeout", "0.5",
        )
        assert main(args) == 0
        [bundle] = json.loads((out / "report.json").read_text())["bundles"]
        capsys.readouterr()
        stderr = out / bundle / "stderr.txt"
        argv = ["classify", "--compiler-kind", "scripted-fake", "--stderr", str(stderr)]
        assert main(argv + flags) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads((out / bundle / "signature.json").read_text())

    def test_classify_ice_hang_and_pass(self, tmp_path, capsys):
        stderr_file = tmp_path / "stderr.txt"
        stderr_file.write_text(
            "error: internal compiler error: oops\n", encoding="utf-8"
        )
        rc = main(
            ["classify", "--stderr", str(stderr_file), "--exit-status", "101"]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "ice"
        assert len(out["digest"]) == 64

        assert main(["classify", "--timed-out"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "hang"
        assert out["payload"]["tail"] == ["timeout-no-passes"]

        # the pass lines a timed-out compile printed sign it, as in a campaign
        pass_lines = [
            line.split('"')[1]
            for line in TIMEPASS_HANG_BODY.splitlines()
            if line.startswith("echo")
        ]
        stderr_file.write_text("\n".join(pass_lines) + "\n", encoding="utf-8")
        assert main(["classify", "--timed-out", "--stderr", str(stderr_file)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["tail"] == ["parse_crate", "expand_crate", "type_check"]

        assert main(["classify", "--exit-status", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "pass"}


def test_module_entry_point_smoke():
    proc = run_module(["--help"], timeout=30)
    assert proc.returncode == 0
    assert "fuzz" in proc.stdout
    assert "mine" in proc.stdout


def _refuse_to_record(self, sig, write_case):
    raise BugStoreError("bug store write failed: [Errno 28] No space left on device")


def _tree(root):
    return sorted(
        (str(p.relative_to(root)), p.read_bytes() if p.is_file() else None)
        for p in root.rglob("*")
    )


# (command line, exit code, the one line on stderr starts with, check).
# Each command line is built from the ``probe`` fixture's paths; each
# check looks at what the run left behind.
EXIT_TABLE = {
    "fuzz --out is a file": (
        lambda p: fuzz_args(
            p.corpus, p.trigger, p.mock, p.file, "--budget-candidates", "2"
        ),
        2,
        "environment error: ",
        lambda p: p.file.is_file(),
    ),
    "spe --out is a file": (
        lambda p: spe_args(p.corpus, p.file),
        2,
        "environment error: ",
        lambda p: p.file.is_file(),
    ),
    "augment --out is a file": (
        lambda p: ["augment", "--corpus", str(p.corpus), "--out", str(p.file)],
        2,
        "environment error: ",
        lambda p: p.file.is_file(),
    ),
    "mine --corpus is a file": (
        lambda p: ["mine", "--corpus", str(p.file), "--fixture-dir", str(p.issues)],
        2,
        "environment error: ",
        lambda p: p.file.is_file(),
    ),
    "fuzz bugstore is a file": (
        lambda p: fuzz_args(
            p.corpus, p.trigger, p.mock, p.blocked, "--budget-candidates", "2"
        ),
        2,
        "environment error: cannot create bug store",
        lambda p: not (p.blocked / "report.json").exists(),
    ),
    "spe bugstore is a file": (
        lambda p: spe_args(
            p.corpus, p.blocked,
            "--compiler", p.trigger, "--compiler-kind", "scripted-fake",
        ),
        2,
        "environment error: cannot create bug store",
        lambda p: not (p.blocked / "candidates").exists(),
    ),
    "spe store fails mid-run": (
        lambda p: spe_args(
            p.corpus, p.out,
            "--compiler", p.ice, "--compiler-kind", "scripted-fake",
        ),
        3,
        "spe aborted: cannot write findings: bug store write failed",
        lambda p: (
            json.loads((p.out / "report.json").read_text())["ice"] == 1
            and "ice: 1" in (p.out / "report.txt").read_text()
        ),
    ),
    "mine into a plain seed directory": (
        lambda p: ["mine", "--corpus", str(p.corpus), "--fixture-dir", str(p.issues)],
        1,
        "error: ",
        lambda p: _tree(p.corpus) == p.corpus_before,
    ),
}


class TestExitTable:
    @pytest.fixture
    def probe(self, tmp_path, corpus_dir, trigger_bin, mock_script, scripted):
        (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        (blocked / "bugstore").write_text("not a directory\n", encoding="utf-8")
        issues = tmp_path / "issues"
        issues.mkdir()
        return argparse.Namespace(
            corpus=corpus_dir,
            corpus_before=_tree(corpus_dir),
            trigger=str(trigger_bin),
            ice=scripted("ice", ICE_BODY),
            mock=mock_script,
            file=tmp_path / "file",
            blocked=blocked,
            issues=issues,
            out=tmp_path / "out",
        )

    @pytest.mark.parametrize("case", sorted(EXIT_TABLE))
    def test_exit_code_and_one_line_on_stderr(self, case, probe, capsys, monkeypatch):
        build, code, prefix, check = EXIT_TABLE[case]
        monkeypatch.setattr(BugStore, "record_if_new", _refuse_to_record)
        assert main(build(probe)) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        assert check(probe)

    def test_mine_refuses_seeds_in_a_subdirectory_too(
        self, tmp_path, capsys
    ):
        seeds = tmp_path / "seeds"
        (seeds / "nested").mkdir(parents=True)
        (seeds / "nested" / "user.rs").write_text(SEED_MAIN, encoding="utf-8")
        argv = ["mine", "--corpus", str(seeds), "--fixture-dir", str(tmp_path)]
        assert main(argv) == 1
        assert "no manifest.jsonl" in capsys.readouterr().err
        assert not (seeds / "manifest.jsonl").exists()


def _make_shape(root, shape):
    """Give ``root`` one of the shapes a corpus directory can have."""
    if shape == "missing":
        return
    root.mkdir()
    if shape == "top-level seeds":
        (root / "a.rs").write_text(SEED_MAIN, encoding="utf-8")
    elif shape == "nested seeds only":
        (root / "sub").mkdir()
        (root / "sub" / "a.rs").write_text(SEED_MAIN, encoding="utf-8")
    elif shape == "managed corpus":
        Corpus(root).add_entry(SEED_MAIN, "issue-mined")
    elif shape == "earlier export":
        seeds = Corpus()
        seeds.add_entry(SEED_HELPER, "user-supplied")
        export_finetune_corpus(seeds, AugmentConfig(target_size=2), root)


# shape: (provenances load_corpus finds, or None for a CorpusError;
# mine's exit code; augment --out's exit code), as the README states
CORPUS_SHAPES = {
    "missing": (None, 0, 0),
    "empty": ([], 0, 0),
    "top-level seeds": (["user-supplied"], 1, 1),
    "nested seeds only": (["user-supplied"], 1, 1),
    "managed corpus": (["issue-mined"], 0, 1),
    "earlier export": (["augmented", "augmented"], 0, 0),
}


class TestCorpusDirectoryShapes:
    """``load_corpus``, ``mine --corpus`` and ``augment --out`` read each
    shape of directory the same way."""

    @pytest.fixture(params=sorted(CORPUS_SHAPES))
    def shape(self, request):
        return request.param

    def provenances(self, root):
        return sorted(e.provenance for e in load_corpus(root).entries())

    def test_load_corpus(self, shape, tmp_path):
        root = tmp_path / "d"
        _make_shape(root, shape)
        expected = CORPUS_SHAPES[shape][0]
        if expected is None:
            with pytest.raises(CorpusError):
                load_corpus(root)
        else:
            assert self.provenances(root) == expected

    def test_mine_opens_what_load_corpus_opens(self, shape, tmp_path, capsys):
        root = tmp_path / "d"
        _make_shape(root, shape)
        before = _tree(root) if root.exists() else None
        expected, code, _ = CORPUS_SHAPES[shape]
        issues = tmp_path / "issues"
        issues.mkdir()
        argv = ["mine", "--corpus", str(root), "--fixture-dir", str(issues)]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("error: ") and "no manifest.jsonl" in err
            assert _tree(root) == before
        else:
            assert out.endswith(f"({len(expected or [])} total)\n")
            assert self.provenances(root) == (expected or [])

    def test_augment_out(self, shape, corpus_dir, tmp_path, capsys):
        root = tmp_path / "d"
        _make_shape(root, shape)
        before = _tree(root) if root.exists() else None
        code = CORPUS_SHAPES[shape][2]
        argv = [
            "augment", "--corpus", str(corpus_dir), "--out", str(root),
            "--target-size", "3",
        ]
        assert main(argv) == code
        if code:
            assert "holds a corpus" in capsys.readouterr().err
            assert _tree(root) == before
        else:
            assert self.provenances(root) == ["augmented"] * 3


class TestConfigFile:
    @pytest.fixture
    def captured(self, monkeypatch):
        """The CampaignConfig each fuzz run is given; no campaign runs."""
        configs = []

        def fake_run(cfg):
            configs.append(cfg)
            return campaign.CampaignReport(
                seed=cfg.seed, corpus_dir="", compilers=[], backend_id="", budgets={}
            )

        monkeypatch.setattr(cli, "run_campaign", fake_run)
        return configs

    def run_with(self, tmp_path, corpus_dir, trigger_bin, mock_script, **values):
        config = tmp_path / "campaign.json"
        base = {
            "corpus": str(corpus_dir),
            "out": str(tmp_path / "out"),
            "compiler": str(trigger_bin),
            "compiler_kind": "scripted-fake",
            "mock_script": str(mock_script),
            "budget_candidates": 2,
        }
        config.write_text(json.dumps({**base, **values}), encoding="utf-8")
        return main(["fuzz", "--config", str(config)])

    def test_string_values_are_converted_as_flags_are(
        self, tmp_path, corpus_dir, trigger_bin, mock_script, captured
    ):
        rc = self.run_with(
            tmp_path, corpus_dir, trigger_bin, mock_script,
            workers="2", seed="9", timeout="5", budget_seconds="1.5",
            time_max="3", base_temperature="0.5", flags="-O0 -g",
            max_fill_tokens="7",
        )
        assert rc == 0
        (cfg,) = captured
        assert (cfg.workers, cfg.seed, cfg.budget_seconds) == (2, 9, 1.5)
        target = cfg.compilers[0]
        assert (target.timeout_secs, target.extra_flags) == (5.0, ("-O0", "-g"))
        assert (cfg.infill.time_max, cfg.infill.base_temperature) == (3, 0.5)
        assert cfg.infill.max_fill_tokens == 7

    def test_numbers_are_converted_and_checked_as_flags_are(
        self, tmp_path, corpus_dir, trigger_bin, mock_script, captured, capsys
    ):
        rc = self.run_with(
            tmp_path, corpus_dir, trigger_bin, mock_script,
            timeout=5, workers=2, budget_seconds=None,
        )
        assert rc == 0
        (cfg,) = captured
        assert (cfg.workers, cfg.budget_seconds) == (2, None)
        assert repr(cfg.compilers[0].timeout_secs) == "5.0"
        with pytest.raises(SystemExit) as exc_info:
            self.run_with(tmp_path, corpus_dir, trigger_bin, mock_script, time_max=2.5)
        assert exc_info.value.code == 1
        assert "--time-max: invalid int value: '2.5'" in capsys.readouterr().err
        assert len(captured) == 1

    def test_max_fill_tokens_comes_from_the_file(
        self, tmp_path, corpus_dir, trigger_bin, mock_script, captured
    ):
        assert self.run_with(tmp_path, corpus_dir, trigger_bin, mock_script) == 0
        assert self.run_with(
            tmp_path, corpus_dir, trigger_bin, mock_script, max_fill_tokens=12
        ) == 0
        assert [cfg.infill.max_fill_tokens for cfg in captured] == [256, 12]

    def test_sentinel_reaches_a_replay_backend_and_its_inner_one(
        self, tmp_path, corpus_dir, trigger_bin, captured
    ):
        script = tmp_path / "replay.json"
        script.write_text(
            json.dumps(
                {
                    "kind": "replay",
                    "cache_dir": str(tmp_path / "cache"),
                    "inner": {"kind": "mock", "fills": ["x"]},
                }
            ),
            encoding="utf-8",
        )
        argv = fuzz_args(
            corpus_dir, trigger_bin, script, tmp_path / "out",
            "--budget-candidates", "2", "--sentinel", "<FILL>",
        )
        assert main(argv) == 0
        backend = captured[0].infill.backend
        assert backend.sentinel == backend.inner.sentinel == "<FILL>"

    @pytest.mark.parametrize("fills", ["abc", [1, 2], []])
    def test_bad_mock_fills_are_a_config_error(
        self, tmp_path, corpus_dir, trigger_bin, captured, capsys, fills
    ):
        script = tmp_path / "mock.json"
        script.write_text(json.dumps({"kind": "mock", "fills": fills}), encoding="utf-8")
        argv = fuzz_args(
            corpus_dir, trigger_bin, script, tmp_path / "out", "--budget-candidates", "2"
        )
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: mock backend needs a non-empty list of string fills"]
        assert captured == []

    def test_keys_that_name_no_fuzz_option_are_ignored(
        self, tmp_path, corpus_dir, trigger_bin, mock_script, captured
    ):
        rc = self.run_with(
            tmp_path, corpus_dir, trigger_bin, mock_script,
            func="cmd_spe", command="spe", threshold=1, target_size=3,
            compiler_kind_typo="rustc",
        )
        assert rc == 0
        (cfg,) = captured
        assert cfg.compilers[0].kind == "scripted-fake"


# every option of every subcommand, as the parser had them when the
# front end was rewritten; positionals by name
OPTIONS = {
    "fuzz": [
        "--backend-url", "--base-temperature", "--budget-candidates",
        "--budget-seconds", "--compiler", "--compiler-kind", "--config",
        "--corpus", "--flags", "--help", "--mock-script", "--out", "--seed",
        "--sentinel", "--skip-preflight", "--time-max", "--timeout", "--workers",
        "-h",
    ],
    "mine": [
        "--corpus", "--fixture-dir", "--help", "--labels", "--page-size",
        "--repo", "--state", "--until", "-h",
    ],
    "augment": [
        "--corpus", "--delete-prob", "--help", "--out", "--seed", "--target-size",
        "-h",
    ],
    "spe": [
        "--compiler", "--compiler-kind", "--corpus", "--flags", "--help", "--out",
        "--sample-size", "--seed", "--threshold", "--timeout", "-h",
    ],
    "spans": ["--help", "-h", "file"],
    "mask": ["--help", "--render", "--sentinel", "-h", "file"],
    "classify": [
        "--compiler-kind", "--exit-status", "--help", "--stderr", "--stdout",
        "--timed-out", "-h",
    ],
}


def test_no_option_is_added_or_lost():
    parser = cli.build_parser()
    (subcommands,) = [
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    found = {
        name: sorted(s for a in sub._actions for s in a.option_strings or [a.dest])
        for name, sub in subcommands.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_every_subcommand_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--help"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: clozefuzz {command} ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fuzz", "--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (["spans"], "the following arguments are required: file"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_errors_are_configuration_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: clozefuzz") and message in err
