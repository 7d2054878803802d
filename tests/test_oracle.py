from __future__ import annotations

import hashlib
import json

import pytest

from clozefuzz.harness import CompileOutcome
from clozefuzz.oracle import (
    NO_PASSES_MARKER,
    BugKind,
    BugStore,
    BugStoreError,
    Novelty,
    classify,
    normalize_frame,
    normalize_message,
    signature,
)


def outcome(exit_status=0, stdout="", stderr="", timed_out=False):
    return CompileOutcome(
        exit_status=exit_status,
        stdout=stdout,
        stderr=stderr,
        wall_time=0.1,
        timed_out=timed_out,
        artifact_present=False,
    )


RUSTC_ICE_STDERR = """\
error: internal compiler error: compiler/rustc_middle/src/ty/consts.rs:154:32: expected usize, got Const

thread 'rustc' panicked at compiler/rustc_middle/src/ty/consts.rs:154:32:
Box<dyn Any>
stack backtrace:
   0:     0x7f3a8c6e4d10 - std::backtrace_rs::backtrace::trace::h1234567890abcdef
   1:     0x7f3a8c6e4d11 - rustc_middle::ty::consts::fail::hfedcba0987654321
   2:     0x7f3a8c6e4d12 - rustc_driver::main::h00aa11bb22cc33dd
"""

# same crash observed on another machine: different build paths, line
# numbers, addresses, and symbol hash suffixes
RUSTC_ICE_STDERR_TWIN = """\
error: internal compiler error: /checkout/compiler/rustc_middle/src/ty/consts.rs:200:5: expected usize, got Const

thread 'rustc' panicked at /checkout/compiler/rustc_middle/src/ty/consts.rs:200:5:
Box<dyn Any>
stack backtrace:
   0:     0x55ff00112233 - std::backtrace_rs::backtrace::trace::habcdefabcdefabcd
   1:     0x55ff00112234 - rustc_middle::ty::consts::fail::h1111222233334444
   2:     0x55ff00112235 - rustc_driver::main::h9999888877776666
"""


class TestClassify:
    def test_timeout_always_wins(self):
        out = outcome(exit_status=-9, stderr=RUSTC_ICE_STDERR, timed_out=True)
        assert classify(out, "rustc") is BugKind.HANG

    def test_rustc_ice_phrases(self):
        out = outcome(exit_status=101, stderr=RUSTC_ICE_STDERR)
        assert classify(out, "rustc") is BugKind.ICE
        out = outcome(
            exit_status=101, stderr="the compiler unexpectedly panicked. this is a bug."
        )
        assert classify(out, "rustc") is BugKind.ICE

    def test_ice_detected_on_stdout_too(self):
        out = outcome(exit_status=101, stdout="internal compiler error: oops")
        assert classify(out, "rustc") is BugKind.ICE

    def test_plain_error_is_reject(self):
        out = outcome(exit_status=1, stderr="error[E0308]: mismatched types")
        assert classify(out, "rustc") is BugKind.REJECT

    def test_clean_exit_is_pass(self):
        assert classify(outcome(), "rustc") is BugKind.PASS

    def test_mrustc_needs_both_needles(self):
        bug_only = outcome(exit_status=1, stderr="BUG: ./src/hir/type.cpp:100: bad")
        assert classify(bug_only, "mrustc") is BugKind.REJECT
        both = outcome(
            exit_status=134,
            stderr="BUG: ./src/hir/type.cpp:100: bad\nAborted (core dumped)",
        )
        assert classify(both, "mrustc") is BugKind.ICE

    def test_mrustc_signal_death_counts_as_core_dump(self):
        out = outcome(exit_status=-6, stderr="BUG: ./src/hir/type.cpp:100: bad")
        assert classify(out, "mrustc") is BugKind.ICE

    def test_unknown_kind_falls_back_to_exit_status(self):
        out = outcome(exit_status=1, stderr="internal compiler error")
        assert classify(out, "tcc") is BugKind.REJECT


class TestNormalization:
    def test_addresses_sources_paths_quotes_digits(self):
        msg = (
            "thread panicked at src/lib.rs:12:34: index 42 out of bounds "
            "at 0x7fffDEAD in `foo::bar` near 'baz' under /usr/lib/librustc.so"
        )
        norm = normalize_message(msg)
        assert "0x" not in norm
        assert ".rs" not in norm
        assert "<addr>" in norm
        assert "<src>" in norm
        assert "<path>" in norm
        assert "`<id>`" in norm
        assert "'<id>'" in norm
        assert "42" not in norm and "<n>" in norm

    def test_idempotent(self):
        samples = [
            RUSTC_ICE_STDERR,
            "at 0xDEADBEEF",  # placeholder must not re-match as hex
            "path /a/b/c.rs:1:2 and `quoted 7` plus '8'",
            "no volatile content here",
        ]
        for text in samples:
            once = normalize_message(text)
            assert normalize_message(once) == once

    def test_frame_hash_suffix_stripped(self):
        frame = "rustc_middle::ty::consts::fail::hfedcba0987654321"
        assert normalize_frame(frame) == "rustc_middle::ty::consts::fail"
        # 15 hex digits is not a symbol hash
        short = "foo::bar::h12345678901234"
        assert normalize_frame(short) == short


class TestSignature:
    def test_perturbed_twins_collide(self):
        a = signature(outcome(101, stderr=RUSTC_ICE_STDERR), BugKind.ICE)
        b = signature(outcome(101, stderr=RUSTC_ICE_STDERR_TWIN), BugKind.ICE)
        assert a.digest == b.digest
        assert a.payload == b.payload

    def test_different_panics_do_not_collide(self):
        a = signature(outcome(101, stderr=RUSTC_ICE_STDERR), BugKind.ICE)
        other = RUSTC_ICE_STDERR.replace("expected usize", "unexpected region")
        b = signature(outcome(101, stderr=other), BugKind.ICE)
        assert a.digest != b.digest

    def test_ice_payload_structure(self):
        sig = signature(outcome(101, stderr=RUSTC_ICE_STDERR), BugKind.ICE)
        payload = sig.payload_dict()
        assert payload["kind"] == "ice"
        assert "internal compiler error" in payload["panic"]
        assert payload["frames"] == [
            "std::backtrace_rs::backtrace::trace",
            "rustc_middle::ty::consts::fail",
            "rustc_driver::main",
        ]

    def test_digest_is_sha256_of_canonical_payload(self):
        sig = signature(outcome(101, stderr=RUSTC_ICE_STDERR), BugKind.ICE)
        expect = hashlib.sha256(sig.payload.encode("utf-8")).hexdigest()
        assert sig.digest == expect
        assert sig.payload == json.dumps(
            json.loads(sig.payload), sort_keys=True, separators=(",", ":")
        )

    def test_hang_tail_last_distinct_passes(self):
        trace = [("parse", 0.1), ("expand", 0.2), ("parse", 0.3), ("mir", 9.0)]
        sig = signature(outcome(timed_out=True), BugKind.HANG, trace=trace)
        assert sig.payload_dict()["tail"] == ["expand", "parse", "mir"]

    def test_hang_tail_shorter_trace(self):
        trace = [("parse", 0.1)]
        sig = signature(outcome(timed_out=True), BugKind.HANG, trace=trace)
        assert sig.payload_dict()["tail"] == ["parse"]

    def test_hang_without_trace_uses_marker(self):
        for trace in (None, []):
            sig = signature(outcome(timed_out=True), BugKind.HANG, trace=trace)
            assert sig.payload_dict()["tail"] == [NO_PASSES_MARKER]

    def test_pass_and_reject_have_no_signature(self):
        for kind in (BugKind.PASS, BugKind.REJECT):
            with pytest.raises(ValueError):
                signature(outcome(), kind)


def case_writer(root, text):
    """A ``write_case`` that writes ``text`` beside the store under
    ``root`` and counts its calls."""

    def write_case(sig):
        write_case.calls += 1
        path = root / f"{sig.digest[:16]}.rs"
        path.write_text(text)
        return path

    write_case.calls = 0
    return write_case


class TestBugStore:
    def sig(self, text):
        return signature(outcome(101, stderr=text), BugKind.ICE)

    def test_first_seen_then_duplicate(self, tmp_path):
        store = BugStore(tmp_path / "store")
        sig = self.sig(RUSTC_ICE_STDERR)
        first = case_writer(tmp_path, "fn main() {}")
        again = case_writer(tmp_path, "fn other() {}")
        assert store.record_if_new(sig, first) is Novelty.INTERESTING
        assert store.record_if_new(sig, again) is Novelty.DUPLICATE
        assert (first.calls, again.calls) == (1, 0)
        assert len(store) == 1
        journal = store.journal_path.read_text().splitlines()
        assert [json.loads(line)["digest"] for line in journal] == [sig.digest]

    def test_twin_signature_is_duplicate(self, tmp_path):
        store = BugStore(tmp_path / "store")
        write_case = case_writer(tmp_path, "fn main() {}")
        store.record_if_new(self.sig(RUSTC_ICE_STDERR), write_case)
        twin = self.sig(RUSTC_ICE_STDERR_TWIN)
        assert store.record_if_new(twin, write_case) is Novelty.DUPLICATE

    def test_case_file_and_journal_written(self, tmp_path):
        root = tmp_path / "store"
        store = BugStore(root)
        sig = self.sig(RUSTC_ICE_STDERR)
        store.record_if_new(sig, case_writer(tmp_path, "fn crash() {}"))
        assert [p.name for p in root.iterdir()] == ["signatures.jsonl"]
        lines = (root / "signatures.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["digest"] == sig.digest
        assert record["kind"] == "ice"
        # relative to the directory that holds the store
        assert record["first_case_path"] == f"{sig.digest[:16]}.rs"
        case = tmp_path / record["first_case_path"]
        assert case.read_text() == "fn crash() {}"

    def test_a_failed_case_write_journals_nothing(self, tmp_path):
        root = tmp_path / "store"
        sig = self.sig(RUSTC_ICE_STDERR)

        def full_disk(_sig):
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            BugStore(root).record_if_new(sig, full_disk)
        assert not (root / "signatures.jsonl").exists()
        write_case = case_writer(tmp_path, "fn main() {}")
        assert BugStore(root).record_if_new(sig, write_case) is Novelty.INTERESTING
        assert write_case.calls == 1

    def test_reopen_replays_journal(self, tmp_path):
        root = tmp_path / "store"
        sig = self.sig(RUSTC_ICE_STDERR)
        write_case = case_writer(tmp_path, "fn main() {}")
        BugStore(root).record_if_new(sig, write_case)
        reopened = BugStore(root)
        assert len(reopened) == 1
        assert reopened.record_if_new(sig, write_case) is Novelty.DUPLICATE

    def test_corrupt_journal_lines_are_skipped(self, tmp_path):
        root = tmp_path / "store"
        store = BugStore(root)
        store.record_if_new(
            self.sig(RUSTC_ICE_STDERR), case_writer(tmp_path, "fn a() {}")
        )
        store.record_if_new(
            self.sig(RUSTC_ICE_STDERR.replace("usize", "u32")),
            case_writer(tmp_path, "fn b() {}"),
        )
        with (root / "signatures.jsonl").open("a") as fh:
            fh.write("{this is not json\n")
        reopened = BugStore(root)
        assert len(reopened) == 2

    def test_journal_lines_without_a_digest_are_skipped(self, tmp_path):
        root = tmp_path / "store"
        sig = self.sig(RUSTC_ICE_STDERR)
        write_case = case_writer(tmp_path, "fn a() {}")
        BugStore(root).record_if_new(sig, write_case)
        with (root / "signatures.jsonl").open("a") as fh:
            fh.write('{"kind": "ice"}\n{"digest": 3}\n[1]\n')
        reopened = BugStore(root)
        assert len(reopened) == 1
        assert reopened.record_if_new(sig, write_case) is Novelty.DUPLICATE

    def test_unwritable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(BugStoreError):
            BugStore(blocker / "store")
