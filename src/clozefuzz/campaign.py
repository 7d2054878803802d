"""Campaign orchestration: the sample-mask-infill-compile-triage loop.

The calling thread samples, masks and infills in a fixed order, so a
fixed rng seed makes the whole run reproducible. Each candidate's
compile goes to one pool of worker threads that lives as long as the
campaign, so infill and triage overlap the compiles of earlier
candidates. Results are committed in the order their compiles were
issued, and all of a seed's results are committed before the next
seed is drawn. Counts, bundles and feedback seeds are therefore the
same for every worker count.

``triage`` is the one oracle path: the campaign and the ``spe``
baseline both classify, sign and journal every compile through it.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
import shlex
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import Corpus, CorpusError, load_corpus, preflight_filter
from .harness import (
    CompileOutcome,
    CompilerConfig,
    HarnessError,
    compile_program,
    ensure_compiler,
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


class CampaignAbortedError(Exception):
    """Mid-run failure. The bug store journal survives for resumption."""

    def __init__(self, message: str, partial_report: "CampaignReport | None" = None):
        super().__init__(message)
        self.partial_report = partial_report


@dataclass
class CampaignConfig:
    corpus_dir: str | Path
    out_dir: str | Path
    compilers: list[CompilerConfig]
    infill: InfillConfig
    budget_candidates: int | None = None
    budget_seconds: float | None = None
    seed: int = 0
    workers: int = 1
    skip_preflight: bool = False

    def __post_init__(self) -> None:
        if not self.compilers:
            raise ConfigError("at least one compiler target is required")
        if self.budget_candidates is None and self.budget_seconds is None:
            raise ConfigError("set a candidate budget, a time budget, or both")
        if self.budget_candidates is not None and self.budget_candidates < 1:
            raise ConfigError("candidate budget must be positive")
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigError("time budget must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.infill.backend is None:
            raise ConfigError("campaign needs a completion backend")


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
    outcomes: dict = field(
        default_factory=lambda: {"pass": 0, "reject": 0, "ice": 0, "hang": 0}
    )
    interesting: int = 0
    duplicate: int = 0
    infill_errors: int = 0
    bundles: list[str] = field(default_factory=list)
    per_seed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            "campaign summary",
            f"  seeds sampled:        {self.seeds_sampled}",
            f"  variants masked:      {self.variants_masked}",
            f"  candidates generated: {self.candidates_generated}",
            f"  candidates compiled:  {self.candidates_compiled}",
            f"  pass:                 {self.outcomes['pass']}",
            f"  reject:               {self.outcomes['reject']}",
            f"  ice:                  {self.outcomes['ice']}",
            f"  hang:                 {self.outcomes['hang']}",
            f"  interesting (new):    {self.interesting}",
            f"  duplicates:           {self.duplicate}",
            f"  infill errors:        {self.infill_errors}",
            f"  elapsed seconds:      {self.elapsed_seconds:.2f}",
        ]
        if self.budget_exhausted:
            lines.append(f"  stopped by:           {self.budget_exhausted} budget")
        if self.stalled:
            lines.append("  stopped by:           stall (no fresh candidates)")
        if self.aborted:
            lines.append(f"  aborted:              {self.aborted}")
        for path in self.bundles:
            lines.append(f"  bundle: {path}")
        return "\n".join(lines) + "\n"

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        (out / "report.txt").write_text(self.to_text(), encoding="utf-8")


def open_corpus(path: str | Path) -> Corpus:
    """Open a managed corpus, or load a plain directory of seeds as
    user-supplied."""
    root = Path(path)
    if (root / "manifest.jsonl").is_file():
        return Corpus.open(root)
    return load_corpus(root)


def triage(
    outcome: CompileOutcome,
    text: str,
    target: CompilerConfig,
    store: BugStore,
    outcomes: dict[str, int],
) -> tuple[BugSignature, Novelty] | None:
    """Classify one compile of ``text`` and count it in ``outcomes``.

    An ICE or a hang is signed (a hang by the pass-timing lines its
    own compile printed before the timeout) and journalled in
    ``store``; the signature and its novelty come back.
    A pass or a reject returns None. The outcome is counted before the
    journal write, so a failing write still leaves it counted. The
    oracle is reached through this module's names, which the campaign
    benchmark replaces to record its outcome ledger.
    """
    kind = classify(outcome, target.kind)
    outcomes[kind.value] += 1
    if kind not in (BugKind.ICE, BugKind.HANG):
        return None
    trace = time_passes(outcome) if kind is BugKind.HANG else None
    sig = signature(outcome, kind, trace)
    return sig, store.record_if_new(sig, text)


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
        json.dumps(
            {
                "digest": sig.digest,
                "kind": sig.kind.value,
                "payload": sig.payload_dict(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    cmd = [ensure_compiler(target), *target.extra_flags, "candidate.rs"]
    script = (
        "#!/bin/sh\n"
        'cd "$(dirname "$0")"\n'
        f"exec {shlex.join(cmd)}\n"
    )
    repro = bundle / "repro.sh"
    repro.write_text(script, encoding="utf-8")
    repro.chmod(0o755)
    return bundle


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run the full loop until a budget is spent or progress stops.

    Fresh ICE and hang findings get a bundle on disk and feed back
    into the corpus under fuzzer-feedback provenance. Every compile,
    preflight included, runs on one pool of ``cfg.workers`` threads
    that lives as long as the campaign.
    """
    started = time.monotonic()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for target in cfg.compilers:
        ensure_compiler(target)

    pool = ThreadPoolExecutor(
        max_workers=cfg.workers, thread_name_prefix="clozefuzz-compile"
    )
    try:
        return _run(cfg, pool, started, out_dir)
    finally:
        # queued compiles never start; running ones finish and clean up
        pool.shutdown(cancel_futures=True)


def _run(
    cfg: CampaignConfig, pool: ThreadPoolExecutor, started: float, out_dir: Path
) -> CampaignReport:
    corpus = open_corpus(cfg.corpus_dir)
    initial_size = len(corpus)
    preflight_rejected = 0
    if not cfg.skip_preflight:
        for target in cfg.compilers:
            preflight_rejected += len(preflight_filter(corpus, target, pool.map))
    if len(corpus) == 0:
        raise CorpusError("no usable seeds: corpus is empty after preflight")

    backend = cfg.infill.backend
    report = CampaignReport(
        seed=cfg.seed,
        corpus_dir=str(cfg.corpus_dir),
        compilers=[
            {
                "kind": t.kind,
                "binary": str(t.binary_path),
                "flags": list(t.extra_flags),
                "timeout_secs": t.timeout_secs,
            }
            for t in cfg.compilers
        ],
        backend_id=getattr(backend, "backend_id", "unknown"),
        budgets={
            "candidates": cfg.budget_candidates,
            "seconds": cfg.budget_seconds,
        },
        corpus_size_initial=initial_size,
        preflight_rejected=preflight_rejected,
    )

    rng = random.Random(cfg.seed)
    store = BugStore(out_dir / "bugstore")
    deadline = None if cfg.budget_seconds is None else started + cfg.budget_seconds
    # compiles issued and not yet committed, oldest first; twice the
    # worker count keeps every worker fed while the next one is infilled
    in_flight: deque[tuple[Future, InfillResult, CompilerConfig]] = deque()
    max_in_flight = 2 * cfg.workers
    issued = 0

    def spent() -> str | None:
        # counting issued rather than committed compiles keeps the
        # candidate budget exact with compiles still in flight
        if cfg.budget_candidates is not None and issued >= cfg.budget_candidates:
            return "candidates"
        if deadline is not None and time.monotonic() >= deadline:
            return "seconds"
        return None

    idle_limit = max(50, 4 * len(corpus))
    idle = 0

    def commit(result: InfillResult, target: CompilerConfig, outcome) -> None:
        """Triage one compile. Runs on the campaign's thread in issue
        order, so the bug store, bundles and feedback seeds match any
        worker count."""
        found = triage(
            outcome, result.candidate_text, target, store, report.outcomes
        )
        if found is None:
            return
        sig, novelty = found
        if novelty is Novelty.DUPLICATE:
            report.duplicate += 1
            return
        report.interesting += 1
        report.per_seed[result.variant.seed_id]["interesting"] += 1
        bundle = report_bug(
            out_dir, sig, result, outcome, target, corpus, backend.sentinel,
        )
        report.bundles.append(str(bundle.relative_to(out_dir)))
        corpus.add_entry(result.candidate_text, "fuzzer-feedback")

    def settle(limit: int) -> None:
        """Commit the oldest compiles until at most ``limit`` are in flight.

        A wait wakes at the time budget's deadline and cancels every
        compile no worker has started, so only compiles already running
        then can overshoot the budget. A cancelled compile no longer
        counts as issued.
        """
        nonlocal issued
        while len(in_flight) > limit:
            head = in_flight[0][0]
            if deadline is not None and not head.done():
                left = deadline - time.monotonic()
                if left <= 0 or not wait([head], timeout=left).done:
                    for future, _, _ in in_flight:
                        future.cancel()
            future, result, target = in_flight.popleft()
            if future.cancelled():
                issued -= 1
            else:
                commit(result, target, future.result())

    def process_seed(entry) -> int:
        """Mask and infill one seed, compile its candidates on the pool
        and commit them all. Returns the number of compiles issued."""
        nonlocal issued
        stats = report.per_seed.setdefault(
            entry.id,
            {"sampled": 0, "variants": 0, "candidates": 0, "interesting": 0},
        )
        stats["sampled"] += 1
        variants = cloze(entry.source_text, entry.id)
        report.variants_masked += len(variants)
        stats["variants"] += len(variants)

        issued_before = issued
        for variant in variants:
            if spent():
                break
            try:
                results = infill(variant, cfg.infill, rng)
            except BackendError as exc:
                report.infill_errors += 1
                logger.warning("infill failed: %s", exc)
                continue
            report.candidates_generated += len(results)
            stats["candidates"] += len(results)
            for result, target in itertools.product(results, cfg.compilers):
                settle(max_in_flight - 1)
                if spent():
                    break
                future = pool.submit(compile_program, result.candidate_text, target)
                in_flight.append((future, result, target))
                issued += 1
        # the next draw may pick a feedback seed committed from this one
        settle(0)
        return issued - issued_before

    def finalize() -> None:
        # derived, so the tallies sum to it even when a run is cut
        # between a compile's commit and its triage
        report.candidates_compiled = sum(report.outcomes.values())
        report.corpus_size_final = len(corpus)
        report.elapsed_seconds = time.monotonic() - started
        report.generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        report.save(out_dir)

    def finalize_partial() -> None:
        """Save what a cut run has, without masking why it was cut."""
        try:
            finalize()
        except OSError as exc:
            logger.error("cannot save the partial report: %s", exc)

    try:
        while True:
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
            report.seeds_sampled += 1
            try:
                issued_this_seed = process_seed(entry)
            except HarnessError as exc:
                # compiler vanished mid-run: stop gracefully, keep findings
                report.aborted = f"compiler unavailable mid-run: {exc}"
                logger.error(report.aborted)
                break
            except (BugStoreError, OSError) as exc:
                finalize_partial()
                raise CampaignAbortedError(str(exc), partial_report=report) from exc
            idle = 0 if issued_this_seed else idle + 1
    except KeyboardInterrupt:
        # compiles committed so far keep their findings and tallies;
        # the ones still in flight are cancelled uncounted
        report.aborted = "interrupted"
        finalize_partial()
        raise

    finalize()
    return report
