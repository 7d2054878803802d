"""Command-line entry points.

Subcommands: fuzz (the campaign loop), mine (issue harvesting),
augment (training-set export), spe (variable-permutation baseline),
spans and mask (debug views of bracket extraction), classify (offline
triage of a captured compiler run).

Exit codes: 0 success, 1 configuration error, 2 environment error
(missing binary, unreachable service, unreadable corpus), 3 fuzz or
spe run aborted mid-run.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import shlex
import sys
from datetime import datetime
from pathlib import Path

from .augment import AugmentConfig, export_finetune_corpus
from .brackets import find_bracket_pairs
from .campaign import (
    CampaignAbortedError,
    CampaignConfig,
    ConfigError,
    open_corpus,
    run_campaign,
    triage,
)
from .corpus import Corpus, CorpusError
from .harness import (
    COMPILER_KINDS,
    CompileOutcome,
    CompilerConfig,
    HarnessError,
    compile_program,
    ensure_compiler,
    time_passes,
)
from .infill import DEFAULT_SENTINEL, HttpBackend, InfillConfig, backend_from_spec
from .masking import cloze, render
from .mining import DEFAULT_LABELS, MiningError, harvest
from .oracle import BugKind, BugStore, Novelty, classify, signature
from .spe import (
    ENUMERATION_THRESHOLD,
    SAMPLE_SIZE,
    enumerate_fillings,
    extract_variables,
    permutation_count,
)

logger = logging.getLogger(__name__)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _merged(args: argparse.Namespace, config: dict, key: str, fallback):
    """CLI flag beats config file beats built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return fallback


def _read_text_arg(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _build_backend(args, config) -> object:
    mock_script = _merged(args, config, "mock_script", None)
    backend_url = _merged(args, config, "backend_url", None)
    sentinel = _merged(args, config, "sentinel", DEFAULT_SENTINEL)
    if mock_script and backend_url:
        raise ConfigError("give either --backend-url or --mock-script, not both")
    if mock_script:
        try:
            spec = json.loads(Path(mock_script).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read mock script {mock_script}: {exc}") from exc
        spec.setdefault("sentinel", sentinel)
        try:
            return backend_from_spec(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if backend_url:
        return HttpBackend(backend_url, sentinel=sentinel)
    raise ConfigError("a completion backend is required: --backend-url or --mock-script")


def _compiler_from_args(args, config) -> CompilerConfig:
    binary = _merged(args, config, "compiler", None)
    if not binary:
        raise ConfigError("--compiler is required")
    flags = _merged(args, config, "flags", None)
    if isinstance(flags, str):
        flags = tuple(shlex.split(flags))
    elif flags is not None:
        flags = tuple(flags)
    try:
        return CompilerConfig(
            binary_path=binary,
            kind=_merged(args, config, "compiler_kind", "rustc"),
            extra_flags=flags,
            timeout_secs=float(_merged(args, config, "timeout", 180.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_fuzz(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    backend = _build_backend(args, config)
    try:
        infill_cfg = InfillConfig(
            time_max=int(_merged(args, config, "time_max", 4)),
            base_temperature=float(_merged(args, config, "base_temperature", 0.8)),
            max_fill_tokens=int(_merged(args, config, "max_fill_tokens", 256)),
            backend=backend,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    corpus_dir = _merged(args, config, "corpus", None)
    out_dir = _merged(args, config, "out", None)
    if not corpus_dir or not out_dir:
        raise ConfigError("--corpus and --out are required")

    budget_candidates = _merged(args, config, "budget_candidates", None)
    budget_seconds = _merged(args, config, "budget_seconds", None)
    campaign_cfg = CampaignConfig(
        corpus_dir=corpus_dir,
        out_dir=out_dir,
        compilers=[_compiler_from_args(args, config)],
        infill=infill_cfg,
        budget_candidates=(
            int(budget_candidates) if budget_candidates is not None else None
        ),
        budget_seconds=(
            float(budget_seconds) if budget_seconds is not None else None
        ),
        seed=int(_merged(args, config, "seed", 0)),
        workers=int(_merged(args, config, "workers", 1)),
        skip_preflight=bool(_merged(args, config, "skip_preflight", False)),
    )
    try:
        report = run_campaign(campaign_cfg)
    except KeyboardInterrupt:
        # the campaign saved its report before letting the interrupt out
        print("campaign aborted: interrupted", file=sys.stderr)
        return 3
    sys.stdout.write(report.to_text())
    if report.aborted:
        print(f"campaign aborted: {report.aborted}", file=sys.stderr)
        return 3
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    if (args.fixture_dir is None) == (args.repo is None):
        raise ConfigError("give exactly one of --fixture-dir or --repo")
    corpus_dir = Path(args.corpus)
    if (corpus_dir / "manifest.jsonl").is_file():
        corpus = Corpus.open(corpus_dir)
    else:
        corpus = Corpus(storage_dir=corpus_dir)
    until = None
    if args.until:
        try:
            until = datetime.fromisoformat(args.until.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ConfigError(f"bad --until timestamp: {args.until}") from exc
    labels = tuple(x for x in (args.labels or "").split(",") if x) or DEFAULT_LABELS
    inserted = harvest(
        corpus,
        fixture_dir=args.fixture_dir,
        repo=args.repo,
        labels=labels,
        state=args.state,
        until=until,
        **({"page_size": args.page_size} if args.repo else {}),
    )
    print(f"harvested {inserted} new entries into {corpus_dir} ({len(corpus)} total)")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    corpus = open_corpus(args.corpus)
    try:
        cfg = AugmentConfig(
            delete_prob=args.delete_prob,
            target_size=args.target_size,
            seed=args.seed,
        )
        result = export_finetune_corpus(corpus, cfg, args.out)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    status = "complete" if result.reached_target else "partial"
    print(
        f"exported {len(result.records)} programs to {result.out_dir} ({status})"
    )
    return 0


def cmd_spe(args: argparse.Namespace) -> int:
    target = _compiler_from_args(args, {}) if args.compiler else None
    if target is not None:
        ensure_compiler(target)
    corpus = open_corpus(args.corpus)
    out = Path(args.out)
    candidates_dir = out / "candidates"
    candidates_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    generated: list[str] = []
    over_threshold = 0
    for entry in corpus.entries():
        skeleton = extract_variables(entry.source_text)
        if (
            skeleton.occurrences
            and permutation_count(skeleton.occurrences) > args.threshold
        ):
            over_threshold += 1
        texts = enumerate_fillings(skeleton, args.threshold, args.sample_size, rng)
        for i, text in enumerate(texts):
            path = candidates_dir / f"{entry.id}_p{i:04d}.rs"
            path.write_text(text, encoding="utf-8")
        generated.extend(texts)

    summary = {
        "seeds": len(corpus),
        "seeds_over_threshold": over_threshold,
        "programs_generated": len(generated),
    }

    aborted = None
    if target is not None:
        store = BugStore(out / "bugstore")
        outcomes = {"pass": 0, "reject": 0, "ice": 0, "hang": 0}
        novelty = dict.fromkeys(Novelty, 0)
        try:
            for text in generated:
                try:
                    outcome = compile_program(text, target)
                except HarnessError as exc:
                    # compiler vanished mid-run: report the tallies so far
                    aborted = f"compiler unavailable mid-run: {exc}"
                    break
                found = triage(outcome, text, target, store, outcomes)
                if found is not None:
                    novelty[found[1]] += 1
        except KeyboardInterrupt:
            # as fuzz does: the compiles triaged so far keep their tallies
            aborted = "interrupted"
        summary.update(
            outcomes,
            interesting=novelty[Novelty.INTERESTING],
            duplicate=novelty[Novelty.DUPLICATE],
        )

    (out / "report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [f"{k}: {v}" for k, v in sorted(summary.items())]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    if aborted:
        print(f"spe aborted: {aborted}", file=sys.stderr)
        return 3
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    source = _read_text_arg(args.file, "source file")
    roots = find_bracket_pairs(source)
    print(json.dumps([r.to_dict() for r in roots], indent=2))
    return 0


def cmd_mask(args: argparse.Namespace) -> int:
    source = _read_text_arg(args.file, "source file")
    variants = cloze(source, seed_id=args.file)
    if args.render is not None:
        if not 0 <= args.render < len(variants):
            raise ConfigError(
                f"variant index out of range: {args.render} (have {len(variants)})"
            )
        sys.stdout.write(render(variants[args.render], args.sentinel))
        return 0
    for i, variant in enumerate(variants):
        span = variant.span
        print(
            f"{i:4d}  {span.kind.value:6s} depth={span.depth} "
            f"special={str(variant.special).lower()} "
            f"interior_bytes={len(variant.original_interior)}"
        )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    stderr_text = _read_text_arg(args.stderr, "stderr capture") if args.stderr else ""
    stdout_text = _read_text_arg(args.stdout, "stdout capture") if args.stdout else ""
    outcome = CompileOutcome(
        exit_status=args.exit_status,
        stdout=stdout_text,
        stderr=stderr_text,
        wall_time=0.0,
        timed_out=args.timed_out,
        artifact_present=False,
    )
    kind = classify(outcome, args.compiler_kind)
    result = {"kind": kind.value}
    if kind in (BugKind.ICE, BugKind.HANG):
        trace = time_passes(outcome) if kind is BugKind.HANG else None
        sig = signature(outcome, kind, trace)
        result["digest"] = sig.digest
        result["payload"] = sig.payload_dict()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clozefuzz",
        description="Mutate bracket interiors of seed programs, refill them "
        "with a completion backend, and hunt for compiler crashes and hangs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    fuzz.add_argument("--corpus", help="seed corpus directory")
    fuzz.add_argument("--compiler", help="compiler binary to fuzz")
    fuzz.add_argument(
        "--compiler-kind",
        dest="compiler_kind",
        choices=COMPILER_KINDS,
        help="how to interpret compiler output (default rustc)",
    )
    fuzz.add_argument("--flags", help="extra compiler flags, shell-quoted string")
    fuzz.add_argument("--timeout", type=float, help="per-compile timeout seconds")
    fuzz.add_argument("--backend-url", dest="backend_url", help="completion service URL")
    fuzz.add_argument(
        "--mock-script",
        dest="mock_script",
        help="JSON backend description for offline runs",
    )
    fuzz.add_argument(
        "--budget-candidates",
        dest="budget_candidates",
        type=int,
        help="stop after this many candidate compiles",
    )
    fuzz.add_argument(
        "--budget-seconds",
        dest="budget_seconds",
        type=float,
        help="stop after this much wall-clock time",
    )
    fuzz.add_argument("--seed", type=int, help="rng seed (default 0)")
    fuzz.add_argument("--workers", type=int, help="parallel compile workers")
    fuzz.add_argument("--out", help="output directory")
    fuzz.add_argument("--config", help="JSON config file; flags override it")
    fuzz.add_argument(
        "--skip-preflight",
        dest="skip_preflight",
        action="store_const",
        const=True,
        help="skip the seed preflight compile pass",
    )
    fuzz.add_argument("--sentinel", help="mask marker for the backend")
    fuzz.add_argument("--time-max", dest="time_max", type=int, help="attempts per special mask")
    fuzz.add_argument(
        "--base-temperature",
        dest="base_temperature",
        type=float,
        help="sampling temperature for ordinary masks",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    mine = sub.add_parser("mine", help="harvest code snippets from bug reports")
    mine.add_argument("--corpus", required=True, help="corpus directory to fill")
    mine.add_argument("--fixture-dir", dest="fixture_dir", help="local JSON issue fixtures")
    mine.add_argument("--repo", help="owner/name of a hosted repository")
    mine.add_argument("--labels", help="comma-separated label filter")
    mine.add_argument("--state", default="closed", help="issue state filter")
    mine.add_argument("--until", help="only issues created before this ISO timestamp")
    mine.add_argument("--page-size", dest="page_size", type=int, default=100)
    mine.set_defaults(func=cmd_mine)

    augment = sub.add_parser("augment", help="export an augmented training corpus")
    augment.add_argument("--corpus", required=True)
    augment.add_argument("--out", required=True)
    augment.add_argument("--target-size", dest="target_size", type=int, default=100)
    augment.add_argument("--delete-prob", dest="delete_prob", type=float, default=0.2)
    augment.add_argument("--seed", type=int, default=0)
    augment.set_defaults(func=cmd_augment)

    spe = sub.add_parser("spe", help="variable-permutation baseline generator")
    spe.add_argument("--corpus", required=True)
    spe.add_argument("--out", required=True)
    spe.add_argument("--threshold", type=int, default=ENUMERATION_THRESHOLD)
    spe.add_argument("--sample-size", dest="sample_size", type=int, default=SAMPLE_SIZE)
    spe.add_argument("--seed", type=int, default=0)
    spe.add_argument("--compiler", help="also compile and triage the output")
    spe.add_argument(
        "--compiler-kind",
        dest="compiler_kind",
        choices=COMPILER_KINDS,
        default="rustc",
    )
    spe.add_argument("--flags")
    spe.add_argument("--timeout", type=float, default=180.0)
    spe.set_defaults(func=cmd_spe)

    spans = sub.add_parser("spans", help="dump the bracket span tree of a file")
    spans.add_argument("file")
    spans.set_defaults(func=cmd_spans)

    mask = sub.add_parser("mask", help="list or render masked variants of a file")
    mask.add_argument("file")
    mask.add_argument("--render", type=int, help="print this variant's masked text")
    mask.add_argument("--sentinel", default=DEFAULT_SENTINEL)
    mask.set_defaults(func=cmd_mask)

    cls = sub.add_parser("classify", help="triage a captured compiler run")
    cls.add_argument("--stderr", help="file holding the captured stderr")
    cls.add_argument("--stdout", help="file holding the captured stdout")
    cls.add_argument("--exit-status", dest="exit_status", type=int, default=1)
    cls.add_argument("--timed-out", dest="timed_out", action="store_true")
    cls.add_argument(
        "--compiler-kind",
        dest="compiler_kind",
        choices=COMPILER_KINDS,
        default="rustc",
    )
    cls.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HarnessError, CorpusError, MiningError) as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2
    except CampaignAbortedError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
