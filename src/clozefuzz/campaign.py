"""Campaign orchestration: the sample-mask-infill-compile-triage loop.

The calling thread samples, masks and infills in a fixed order, so a
fixed rng seed makes the whole run reproducible. Each candidate's
compile goes to one pool of worker threads that lives as long as the
campaign, so infill and triage overlap the compiles of earlier
candidates. Results are committed in the order their compiles were
issued, and all of a seed's results are committed before the next
seed is drawn. A seed loaded at start is checked when first drawn: its
unmodified compile is queued ahead of its candidates, and the seed is
dropped when that check commits as a crash or hang. Counts, bundles,
feedback seeds and dropped seeds are therefore the same for every
worker count.

A campaign stops on a spent budget, a stall (seed draws give no fresh
candidates), a vanished compiler, a failed write or Ctrl-C. Each stop
records why in ``budget_exhausted``, ``stalled`` or ``aborted``, the
report is saved once, and the compiles still in flight are killed and
counted nowhere, so a time budget ends at its deadline. Every stop but
Ctrl-C returns the report; Ctrl-C saves it and re-raises.

``triage`` is the one oracle path: the campaign and the ``spe``
baseline both classify, sign and journal every compile through it.
``sign`` is the one signing rule, which ``clozefuzz classify`` shares.
"""

from __future__ import annotations

import json
import logging
import random
import shlex
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from . import harness
from .corpus import Corpus, CorpusEntry, CorpusError, load_corpus, preflight_filter
from .harness import (
    CompileOutcome,
    CompilerConfig,
    HarnessError,
    compile_program,
    ensure_compiler,
    killing_compiles,
    time_passes,
)
from .infill import BackendError, InfillConfig, InfillResult, infill
from .masking import cloze, render
from .oracle import (
    BugKind,
    BugSignature,
    BugStore,
    BugStoreError,
    Novelty,
    classify,
    signature,
)

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad campaign configuration; nothing was run."""


@dataclass
class CampaignConfig:
    corpus_dir: str | Path
    out_dir: str | Path
    # exactly one target, listed: the campaign benchmark builds it so
    compilers: list[CompilerConfig]
    infill: InfillConfig
    budget_candidates: int | None = None
    budget_seconds: float | None = None
    seed: int = 0
    workers: int = 1
    skip_preflight: bool = False

    def __post_init__(self) -> None:
        if len(self.compilers) != 1:
            raise ConfigError("give exactly one compiler target")
        if self.budget_candidates is None and self.budget_seconds is None:
            raise ConfigError("set a candidate budget, a time budget, or both")
        if self.budget_candidates is not None and self.budget_candidates < 1:
            raise ConfigError("candidate budget must be positive")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigError("time budget must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


@dataclass
class CampaignReport:
    seed: int
    corpus_dir: str
    compilers: list[dict]
    backend_id: str
    budgets: dict
    generated_at: str = ""
    elapsed_seconds: float = 0.0
    budget_exhausted: str | None = None
    stalled: bool = False
    aborted: str | None = None
    corpus_size_initial: int = 0
    corpus_size_final: int = 0
    preflight_rejected: int = 0
    seeds_sampled: int = 0
    variants_masked: int = 0
    candidates_generated: int = 0
    candidates_compiled: int = 0
    outcomes: dict = field(default_factory=lambda: {kind.value: 0 for kind in BugKind})
    interesting: int = 0
    duplicate: int = 0
    infill_errors: int = 0
    bundles: list[str] = field(default_factory=list)
    per_seed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        """The scalar fields and outcome tallies as ``key: value`` lines,
        then one ``bundle:`` line per bundle."""
        return report_text({**self.to_dict(), **self.outcomes}) + "".join(
            f"bundle: {path}\n" for path in self.bundles
        )


def report_text(fields: dict) -> str:
    """A report's scalar fields as sorted ``key: value`` lines."""
    return "".join(
        f"{key}: {value}\n"
        for key, value in sorted(fields.items())
        if not isinstance(value, (dict, list))
    )


def save_report(out_dir: Path, fields: dict, text: str) -> None:
    """Write a run's ``report.json`` and ``report.txt``."""
    (out_dir / "report.json").write_text(
        json.dumps(fields, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "report.txt").write_text(text, encoding="utf-8")


def sign(outcome: CompileOutcome, kind: BugKind) -> BugSignature | None:
    """An ICE's or a hang's signature, None for a pass or a reject. A
    hang is signed by the pass-timing lines its own compile printed
    before the timeout."""
    if kind not in (BugKind.ICE, BugKind.HANG):
        return None
    # both through this module's names, which the campaign benchmark counts
    trace = time_passes(outcome) if kind is BugKind.HANG else None
    return signature(outcome, kind, trace)


def triage(
    outcome: CompileOutcome,
    target: CompilerConfig,
    store: BugStore,
    outcomes: dict[str, int],
    write_case: Callable[[BugSignature], Path],
) -> Novelty | None:
    """Classify one compile and count it in ``outcomes``.

    An ICE or a hang is signed by ``sign`` and journalled in ``store``,
    which calls ``write_case`` for a first-seen signature; its novelty
    comes back. A pass or a reject returns None. The outcome is counted
    before the journal write, so a failing write still leaves it
    counted. The oracle is reached through this module's names, which
    the campaign benchmark replaces to record its outcome ledger.
    """
    kind = classify(outcome, target.kind)
    outcomes[kind.value] += 1
    sig = sign(outcome, kind)
    return None if sig is None else store.record_if_new(sig, write_case)


def report_bug(
    out_dir: Path,
    sig: BugSignature,
    result: InfillResult,
    outcome,
    target: CompilerConfig,
    corpus: Corpus,
    sentinel: str,
) -> Path:
    """Write a self-contained reproduction bundle for a fresh finding."""
    bundle = out_dir / "bugs" / sig.digest[:16]
    bundle.mkdir(parents=True, exist_ok=True)
    (bundle / "candidate.rs").write_text(result.candidate_text, encoding="utf-8")
    (bundle / "masked.txt").write_text(
        render(result.variant, sentinel), encoding="utf-8"
    )
    (bundle / "stderr.txt").write_text(outcome.stderr, encoding="utf-8")

    seed_lines = [f"seed_id: {result.variant.seed_id}"]
    try:
        entry = corpus.get(result.variant.seed_id)
        seed_lines.append(f"content_hash: {entry.content_hash}")
        seed_lines.append(f"provenance: {entry.provenance}")
    except KeyError:
        seed_lines.append("content_hash: unknown")
    (bundle / "seed-ref.txt").write_text("\n".join(seed_lines) + "\n", encoding="utf-8")

    (bundle / "signature.json").write_text(
        json.dumps(sig.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    script = (
        "#!/bin/sh\n"
        'cd "$(dirname "$0")"\n'
        f"exec {shlex.join(target.command('candidate.rs'))}\n"
    )
    repro = bundle / "repro.sh"
    repro.write_text(script, encoding="utf-8")
    repro.chmod(0o755)
    return bundle


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run the full loop until it stops, as the module docstring says.

    Unless ``cfg.skip_preflight`` is set, each seed loaded at start is
    compiled unmodified when it is first drawn, beside its first
    candidates, and one that already crashes or hangs the target leaves
    the corpus as an idle draw. Fresh ICE and hang findings get a bundle
    on disk and feed back into the corpus under fuzzer-feedback
    provenance. Every compile, seed checks included, is a job on one
    queue run by one pool of ``cfg.workers`` threads that lives as long
    as the campaign, so the time budget's deadline cuts a check too. A
    corpus left empty ends the run with ``CorpusError`` once the report
    is saved.
    """
    started = time.monotonic()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ensure_compiler(cfg.compilers[0])

    pool = ThreadPoolExecutor(
        max_workers=cfg.workers, thread_name_prefix="clozefuzz-compile"
    )
    try:
        return _run(cfg, pool, started, out_dir)
    finally:
        # the one teardown, whatever ended the run: queued compiles
        # never start and running ones are killed, not waited for
        with killing_compiles():
            pool.shutdown(cancel_futures=True)


def _run(
    cfg: CampaignConfig, pool: ThreadPoolExecutor, started: float, out_dir: Path
) -> CampaignReport:
    corpus = load_corpus(cfg.corpus_dir)
    target = cfg.compilers[0]
    backend = cfg.infill.backend
    report = CampaignReport(
        seed=cfg.seed,
        corpus_dir=str(cfg.corpus_dir),
        compilers=[
            {
                "kind": target.kind,
                "binary": str(target.binary_path),
                "flags": list(target.extra_flags),
                "timeout_secs": target.timeout_secs,
            }
        ],
        backend_id=getattr(backend, "backend_id", "unknown"),
        budgets={
            "candidates": cfg.budget_candidates,
            "seconds": cfg.budget_seconds,
        },
        corpus_size_initial=len(corpus),
    )

    rng = random.Random(cfg.seed)
    store = BugStore(out_dir / "bugstore")
    deadline = None if cfg.budget_seconds is None else started + cfg.budget_seconds
    # compiles issued and not yet committed, oldest first, each with its
    # commit rule and what the rule commits; twice the worker count
    # keeps every worker fed while the next one is infilled
    in_flight: deque[tuple[Future, Callable, object]] = deque()
    max_in_flight = 2 * cfg.workers
    issued = 0

    def spent() -> str | None:
        # past the deadline the time budget is what ran out, even with
        # every candidate issued: compiles still in flight are dropped
        if deadline is not None and time.monotonic() >= deadline:
            return "seconds"
        # counting issued rather than committed compiles keeps the
        # candidate budget exact with compiles still in flight
        if cfg.budget_candidates is not None and issued >= cfg.budget_candidates:
            return "candidates"
        return None

    # seeds loaded at start and not yet compiled unmodified; feedback
    # seeds come from compiles already triaged and are never checked
    unchecked = set() if cfg.skip_preflight else {e.id for e in corpus.entries()}

    def check(entry: CorpusEntry, outcome: CompileOutcome) -> None:
        """Commit a seed's check. A rejected seed's candidates, all that
        is queued behind its check, are dropped and not waited for."""
        unchecked.discard(entry.id)
        if preflight_filter(corpus, entry, outcome, target.kind):
            report.preflight_rejected += 1
            for future, _, _ in in_flight:
                future.cancel()
            in_flight.clear()

    def commit(result: InfillResult, outcome: CompileOutcome) -> None:
        """Triage one candidate's compile. Runs on the campaign's thread
        in issue order, so the bug store, bundles and feedback seeds
        match any worker count. A new finding's bundle is written before
        its journal line, and counts only once that line is."""
        bundle = None

        def write_case(sig: BugSignature) -> Path:
            nonlocal bundle
            bundle = report_bug(
                out_dir, sig, result, outcome, target, corpus, backend.sentinel,
            )
            return bundle / "candidate.rs"

        novelty = triage(outcome, target, store, report.outcomes, write_case)
        if novelty is None:
            return
        if novelty is Novelty.DUPLICATE:
            report.duplicate += 1
            return
        report.per_seed[result.variant.seed_id]["interesting"] += 1
        report.bundles.append(str(bundle.relative_to(out_dir)))
        corpus.add_entry(result.candidate_text, "fuzzer-feedback")

    def settle(limit: int) -> None:
        """Commit the oldest jobs until at most ``limit`` are in flight.

        Each wait ends at the time budget's deadline. Past it nothing
        more is committed: the run stops, and the compiles still in
        flight are dropped uncounted by ``run_campaign``'s teardown.
        """
        while len(in_flight) > limit:
            future, rule, job = in_flight[0]
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and (left <= 0 or not wait([future], left).done):
                return
            in_flight.popleft()
            rule(job, future.result())

    def process_seed(entry: CorpusEntry) -> int:
        """Check an unchecked seed, then mask and infill it, compile its
        candidates on the pool and commit them all. Returns the number
        of compiles issued, none for a seed its check rejects.

        The check is the seed's first job. Its verdict only stops the
        submits, so the draws and backend calls never depend on when it
        comes; a rejected seed's issued count and ``per_seed`` entry are
        taken back once all is committed."""
        nonlocal issued
        issued_before = issued
        if entry.id in unchecked:
            # through the module, past the name the campaign benchmark
            # counts candidate compiles by
            future = pool.submit(harness.compile_program, entry.source_text, target)
            in_flight.append((future, check, entry))
        stats = report.per_seed.setdefault(
            entry.id,
            {"sampled": 0, "variants": 0, "candidates": 0, "interesting": 0},
        )
        stats["sampled"] += 1
        variants = cloze(entry.source_text, entry.id)
        stats["variants"] += len(variants)

        for variant in variants:
            if spent():
                break
            try:
                results = infill(variant, cfg.infill, rng)
            except BackendError as exc:
                report.infill_errors += 1
                logger.warning("infill failed: %s", exc)
                continue
            stats["candidates"] += len(results)
            for result in results:
                settle(max_in_flight - 1)
                if spent():
                    break
                if entry.id in corpus:
                    future = pool.submit(compile_program, result.candidate_text, target)
                    in_flight.append((future, commit, result))
                issued += 1
        # the next draw may pick a feedback seed committed from this one
        settle(0)
        if entry.id not in corpus:
            issued = issued_before
            del report.per_seed[entry.id]
        return issued - issued_before

    try:
        idle_limit = max(50, 4 * len(corpus))
        idle = 0
        while True:
            if len(corpus) == 0:
                report.aborted = "no usable seeds: corpus is empty after preflight"
                raise CorpusError(report.aborted)
            report.budget_exhausted = spent()
            if report.budget_exhausted:
                break
            if idle >= idle_limit:
                report.stalled = True
                logger.warning(
                    "no fresh candidates in %d consecutive seed draws; stopping",
                    idle,
                )
                break

            entry = corpus.sample(rng)
            idle = 0 if process_seed(entry) else idle + 1
    except HarnessError as exc:
        report.aborted = f"compiler unavailable mid-run: {exc}"
        logger.error(report.aborted)
    except (BugStoreError, OSError) as exc:
        report.aborted = f"cannot write findings: {exc}"
        logger.error(report.aborted)
    except KeyboardInterrupt:
        report.aborted = "interrupted"
        raise
    finally:
        # the one save, whatever ended the run. The totals are derived,
        # so they agree with the tallies they sum even when a run is
        # cut between a compile's count and its journal write
        report.candidates_compiled = sum(report.outcomes.values())
        seeds = report.per_seed.values()
        report.seeds_sampled = sum(stats["sampled"] for stats in seeds)
        report.variants_masked = sum(stats["variants"] for stats in seeds)
        report.candidates_generated = sum(stats["candidates"] for stats in seeds)
        report.interesting = len(report.bundles)
        report.corpus_size_final = len(corpus)
        report.elapsed_seconds = time.monotonic() - started
        report.generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        try:
            save_report(out_dir, report.to_dict(), report.to_text())
        except OSError as exc:
            if report.aborted is None:
                raise
            # a cut run still says why it was cut
            logger.error("cannot save the report: %s", exc)
    return report
