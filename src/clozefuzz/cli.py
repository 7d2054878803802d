"""Command-line entry points.

Subcommands: fuzz (the campaign loop), mine (issue harvesting),
augment (training-set export), spe (variable-permutation baseline),
spans and mask (debug views of bracket extraction), classify (offline
triage of a captured compiler run).

Exit codes: 0 success, 1 configuration error, 2 environment error
before a run starts (missing binary, unreadable corpus, unwritable
output directory or bug store), 3 fuzz or spe run cut short. ``main``
sets each, except a usage error's 1, which ``_Parser`` exits with.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import random
import shlex
import sys
from pathlib import Path
from typing import NoReturn

from .augment import AugmentConfig, export_finetune_corpus
from .brackets import find_bracket_pairs
from .campaign import (
    CampaignConfig,
    ConfigError,
    report_text,
    run_campaign,
    save_report,
    sign,
    triage,
)
from .corpus import CorpusError, load_corpus
from .harness import (
    COMPILER_KINDS,
    CompileOutcome,
    CompilerConfig,
    HarnessError,
    compile_program,
    ensure_compiler,
)
from .infill import DEFAULT_SENTINEL, InfillConfig, backend_from_spec
from .masking import cloze, render
from .mining import DEFAULT_LABELS, MiningError, harvest, parse_time
from .mining import fetch_issues_fixture, fetch_issues_http
from .oracle import BugKind, BugStore, BugStoreError, Novelty, classify
from .spe import (
    ENUMERATION_THRESHOLD,
    SAMPLE_SIZE,
    enumerate_fillings,
    extract_variables,
    permutation_count,
)


def _read_text_arg(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _read_json_object(path: str, what: str) -> dict:
    try:
        data = json.loads(_read_text_arg(path, what))
    except ValueError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return data


def _build_backend(args: argparse.Namespace) -> object:
    if bool(args.mock_script) == bool(args.backend_url):
        raise ConfigError("give one completion backend: --backend-url or --mock-script")
    if args.mock_script:
        spec = _read_json_object(args.mock_script, "mock script")
    else:
        spec = {"kind": "http", "url": args.backend_url}
    spec.setdefault("sentinel", args.sentinel)
    try:
        return backend_from_spec(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _compiler_from_args(args: argparse.Namespace) -> CompilerConfig:
    if not args.compiler:
        raise ConfigError("--compiler is required")
    try:
        return CompilerConfig(
            binary_path=args.compiler,
            kind=args.compiler_kind,
            extra_flags=args.flags,
            timeout_secs=args.timeout,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finish(name: str, summary: str, aborted: str | None) -> int:
    """Print a run's summary; a run cut short says why and exits 3."""
    sys.stdout.write(summary)
    if aborted:
        print(f"{name} aborted: {aborted}", file=sys.stderr)
        return 3
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        infill_cfg = InfillConfig(
            time_max=args.time_max,
            base_temperature=args.base_temperature,
            # set only from a config file, so no option's type converts it
            max_fill_tokens=int(args.max_fill_tokens),
            backend=_build_backend(args),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not args.corpus or not args.out:
        raise ConfigError("--corpus and --out are required")
    campaign_cfg = CampaignConfig(
        corpus_dir=args.corpus,
        out_dir=args.out,
        compilers=[_compiler_from_args(args)],
        infill=infill_cfg,
        budget_candidates=args.budget_candidates,
        budget_seconds=args.budget_seconds,
        seed=args.seed,
        workers=args.workers,
        skip_preflight=args.skip_preflight,
    )
    try:
        report = run_campaign(campaign_cfg)
    except KeyboardInterrupt:
        # the campaign saved its report before letting the interrupt out
        return _finish("campaign", "", "interrupted")
    return _finish("campaign", report.to_text(), report.aborted)


def cmd_mine(args: argparse.Namespace) -> int:
    try:
        corpus = load_corpus(args.corpus, managed=True)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    labels = tuple(x for x in (args.labels or "").split(",") if x) or DEFAULT_LABELS
    if args.fixture_dir is not None:
        issues = fetch_issues_fixture(args.fixture_dir, labels, args.state, args.until)
    else:
        issues = fetch_issues_http(
            args.repo, labels, args.state, args.until, page_size=args.page_size
        )
    inserted = harvest(corpus, issues)
    print(f"harvested {inserted} new entries into {args.corpus} ({len(corpus)} total)")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
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
    target = _compiler_from_args(args) if args.compiler else None
    if target is not None:
        ensure_compiler(target)
    corpus = load_corpus(args.corpus)
    out = Path(args.out)
    # opened first, so a store that cannot be made leaves no candidate
    store = BugStore(out / "bugstore") if target is not None else None
    candidates_dir = out / "candidates"
    candidates_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)

    generated: list[tuple[Path, str]] = []
    over_threshold = 0
    for entry in corpus.entries():
        skeleton = extract_variables(entry.source_text)
        if (
            skeleton.occurrences
            and permutation_count(skeleton.occurrences) > args.threshold
        ):
            over_threshold += 1
        texts = enumerate_fillings(skeleton, args.threshold, args.sample_size, rng)
        for text in texts:
            # named by its text, so a later run never gives a journalled
            # name other content
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            path = candidates_dir / f"{entry.id}_{digest[:16]}.rs"
            path.write_text(text, encoding="utf-8")
            generated.append((path, text))

    summary = {
        "seeds": len(corpus),
        "seeds_over_threshold": over_threshold,
        "programs_generated": len(generated),
        "aborted": None,
    }

    if target is not None:
        outcomes = {kind.value: 0 for kind in BugKind}
        novelty = {found.value: 0 for found in Novelty}
        # as in fuzz, a stop keeps the tallies of the compiles before it
        try:
            for path, text in generated:
                outcome = compile_program(text, target)
                # a finding's case is the candidate file already written
                found = triage(outcome, target, store, outcomes, lambda _sig: path)
                if found is not None:
                    novelty[found.value] += 1
        except HarnessError as exc:
            summary["aborted"] = f"compiler unavailable mid-run: {exc}"
        except (BugStoreError, OSError) as exc:
            summary["aborted"] = f"cannot write findings: {exc}"
        except KeyboardInterrupt:
            summary["aborted"] = "interrupted"
        summary.update(outcomes, **novelty)

    summary_text = report_text(summary)
    save_report(out, summary, summary_text)
    return _finish("spe", summary_text, summary["aborted"])


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
    sig = sign(outcome, kind)
    result = {"kind": kind.value} if sig is None else sig.to_dict()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, such as an option value its type
    refuses, exit 1: they are configuration errors. Subcommand parsers
    are made of the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The parser, which holds every default. A config file's values
    (``config``) override the defaults of fuzz's options and the file-only
    ``max_fill_tokens``, converted as flags are; other keys are ignored."""
    parser = _Parser(
        prog="clozefuzz",
        description="Mutate bracket interiors of seed programs, refill them "
        "with a completion backend, and hunt for compiler crashes and hangs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the compile target: fuzz and spe take all of it, classify the kind
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument(
        "--compiler-kind",
        choices=COMPILER_KINDS,
        default="rustc",
        help="how to interpret compiler output (default rustc)",
    )
    target = argparse.ArgumentParser(add_help=False, parents=[kind])
    target.add_argument("--compiler", help="compiler binary; spe compiles only with it")
    target.add_argument("--flags", type=shlex.split, help="compiler flags, shell-quoted")
    target.add_argument(
        "--timeout",
        type=float,
        default=CompilerConfig.timeout_secs,
        help="per-compile timeout seconds",
    )

    fuzz = sub.add_parser("fuzz", parents=[target], help="run a fuzzing campaign")
    fuzz.add_argument("--corpus", help="seed corpus directory")
    fuzz.add_argument("--backend-url", help="completion service URL")
    fuzz.add_argument("--mock-script", help="JSON backend description for offline runs")
    fuzz.add_argument("--budget-candidates", type=int, help="candidate compile budget")
    fuzz.add_argument("--budget-seconds", type=float, help="wall-clock time budget")
    fuzz.add_argument("--seed", type=int, default=CampaignConfig.seed, help="rng seed")
    fuzz.add_argument(
        "--workers", type=int, default=CampaignConfig.workers, help="compile workers"
    )
    fuzz.add_argument("--out", help="output directory")
    fuzz.add_argument("--config", help="JSON config file; flags override it")
    fuzz.add_argument(
        "--skip-preflight", action="store_true",
        help="do not compile a seed before fuzzing it",
    )
    fuzz.add_argument("--sentinel", default=DEFAULT_SENTINEL, help="backend mask marker")
    fuzz.add_argument(
        "--time-max",
        type=int,
        default=InfillConfig.time_max,
        help="attempts per special mask",
    )
    fuzz.add_argument(
        "--base-temperature",
        type=float,
        default=InfillConfig.base_temperature,
        help="sampling temperature for ordinary masks",
    )
    fuzz.set_defaults(func=cmd_fuzz, max_fill_tokens=InfillConfig.max_fill_tokens)
    if config:
        types = {action.dest: action.type for action in fuzz._actions}
        # argparse converts and checks string defaults only, so numbers go as strings
        for key, value in config.items():
            if types.get(key) and isinstance(value, (int, float)):
                value = str(value)
            if key in types or key == "max_fill_tokens":
                fuzz.set_defaults(**{key: value})

    mine = sub.add_parser("mine", help="harvest code snippets from bug reports")
    mine.add_argument("--corpus", required=True, help="corpus directory to fill")
    source = mine.add_mutually_exclusive_group(required=True)
    source.add_argument("--fixture-dir", help="local JSON issue fixtures")
    source.add_argument("--repo", help="owner/name of a hosted repository")
    mine.add_argument("--labels", help="comma-separated label filter")
    mine.add_argument("--state", default="closed", help="issue state filter")
    mine.add_argument(
        "--until", type=parse_time, help="only issues created before this ISO-8601 time"
    )
    mine.add_argument("--page-size", type=int, default=100)
    mine.set_defaults(func=cmd_mine)

    augment = sub.add_parser("augment", help="export an augmented training corpus")
    augment.add_argument("--corpus", required=True)
    augment.add_argument("--out", required=True)
    augment.add_argument("--target-size", type=int, default=AugmentConfig.target_size)
    augment.add_argument("--delete-prob", type=float, default=AugmentConfig.delete_prob)
    augment.add_argument("--seed", type=int, default=AugmentConfig.seed)
    augment.set_defaults(func=cmd_augment)

    spe = sub.add_parser(
        "spe", parents=[target], help="variable-permutation baseline generator"
    )
    spe.add_argument("--corpus", required=True)
    spe.add_argument("--out", required=True)
    spe.add_argument("--threshold", type=int, default=ENUMERATION_THRESHOLD)
    spe.add_argument("--sample-size", type=int, default=SAMPLE_SIZE)
    spe.add_argument("--seed", type=int, default=0)
    spe.set_defaults(func=cmd_spe)

    spans = sub.add_parser("spans", help="dump the bracket span tree of a file")
    spans.add_argument("file")
    spans.set_defaults(func=cmd_spans)

    mask = sub.add_parser("mask", help="list or render masked variants of a file")
    mask.add_argument("file")
    mask.add_argument("--render", type=int, help="print this variant's masked text")
    mask.add_argument("--sentinel", default=DEFAULT_SENTINEL)
    mask.set_defaults(func=cmd_mask)

    cls = sub.add_parser(
        "classify", parents=[kind], help="triage a captured compiler run"
    )
    cls.add_argument("--stderr", help="file holding the captured stderr")
    cls.add_argument("--stdout", help="file holding the captured stdout")
    cls.add_argument("--exit-status", type=int, default=1)
    cls.add_argument("--timed-out", action="store_true")
    cls.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; every exit code but a usage error's is
    decided here."""
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fuzz" and args.config:
            config = _read_json_object(args.config, "config file")
            args = build_parser(config).parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HarnessError, CorpusError, MiningError, BugStoreError, OSError) as exc:
        # before a run starts; fuzz and spe end a run cut short themselves
        print(f"environment error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
