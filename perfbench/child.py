"""Run one campaign (or the scaling probe) in this process.

Usage: python3 perfbench/child.py SPEC.json

The parent benchmark starts one child per campaign so that peak RSS
and CPU time belong to that campaign alone. The child imports the
package from ``src/`` of the current directory, hooks the public
functions the campaign calls, runs ``run_campaign`` and prints one
JSON object on stdout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_stats


def _import_package() -> None:
    src = Path.cwd() / "src"
    if not (src / "clozefuzz" / "__init__.py").is_file():
        raise SystemExit(f"no clozefuzz package under {src}")
    sys.path.insert(0, str(src))
    import clozefuzz

    if Path(clozefuzz.__file__).resolve().parent != (src / "clozefuzz").resolve():
        raise SystemExit(f"imported clozefuzz from {clozefuzz.__file__}, not {src}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _chars_materialised(variants) -> int:
    # count each distinct string the variants' fields hold once, so a
    # variant that shares the seed text instead of copying it adds nothing
    seen: dict[int, int] = {}
    for v in variants:
        for f in dataclasses.fields(v):
            value = getattr(v, f.name)
            if isinstance(value, str):
                seen[id(value)] = len(value)
    return sum(seen.values())


def run_campaign(spec: dict) -> dict:
    _import_package()
    from clozefuzz import campaign, corpus, lexer, masking, brackets
    from clozefuzz.harness import CompilerConfig, HarnessError
    from clozefuzz.infill import InfillConfig, MockBackend
    from clozefuzz.oracle import BugStore, Novelty

    tracer = Tracer(bool(spec["trace"]))
    wrap = tracer.wrap
    marks: dict[str, float] = {}
    ledger: list[list[str]] = []  # [outcome, signature digest] per compile
    harness_errors = 0

    backend = MockBackend(spec["fills"])
    backend.complete = wrap("infill.backend", backend.complete)

    # hooks that run with tracing off too: the first draw's clock and
    # CPU readings, the ordered outcome ledger and compile failures
    sample = wrap("corpus.sample", corpus.Corpus.sample)

    def first_sample(self, rng):
        marks.setdefault("first_sample", time.perf_counter())
        marks.setdefault("cpu_first_sample", _cpu_s())
        return sample(self, rng)

    corpus.Corpus.sample = first_sample

    classify = wrap("oracle.classify", campaign.classify)

    def ledger_classify(*args, **kwargs):
        kind = classify(*args, **kwargs)
        ledger.append([kind.value, ""])
        return kind

    campaign.classify = ledger_classify

    signature = wrap("oracle.signature", campaign.signature)

    def ledger_signature(*args, **kwargs):
        sig = signature(*args, **kwargs)
        ledger[-1][1] = sig.digest
        return sig

    campaign.signature = ledger_signature

    compile_program = wrap(
        "harness.compile_program",
        campaign.compile_program,
        lambda out, _a: {"child_s": out.wall_time, "timed_out": int(out.timed_out)},
    )

    def counted_compile(*args, **kwargs):
        nonlocal harness_errors
        try:
            return compile_program(*args, **kwargs)
        except HarnessError:
            harness_errors += 1
            raise

    campaign.compile_program = counted_compile

    if tracer.enabled:
        lex_measure = lambda r, _a: {"tokens": len(r.tokens)}  # noqa: E731
        lexer.lex = wrap("lexer.lex", lexer.lex, lex_measure)
        masking.lex = wrap("lexer.lex", masking.lex, lex_measure)
        brackets.lex = wrap("lexer.lex", brackets.lex, lex_measure)
        masking.find_spans = wrap(
            "brackets.find_spans", masking.find_spans, lambda r, _a: {"spans": len(r)}
        )
        campaign.cloze = wrap(
            "masking.cloze",
            campaign.cloze,
            lambda r, _a: {"variants": len(r), "chars_materialised": _chars_materialised(r)},
        )
        campaign.infill = wrap(
            "infill.infill", campaign.infill, lambda r, _a: {"kept": len(r)}
        )
        campaign.time_passes = wrap("harness.time_passes", campaign.time_passes)
        campaign.report_bug = wrap("campaign.report_bug", campaign.report_bug)
        campaign.preflight_filter = wrap(
            "corpus.preflight_filter", campaign.preflight_filter
        )
        campaign.load_corpus = wrap("corpus.load", campaign.load_corpus)
        corpus.Corpus.add_entry = wrap("corpus.add_entry", corpus.Corpus.add_entry)
        BugStore.record_if_new = wrap(
            "oracle.record_if_new",
            BugStore.record_if_new,
            lambda r, _a: {"new": int(r is Novelty.INTERESTING)},
        )
    run = wrap("campaign.run_campaign", campaign.run_campaign)

    target = CompilerConfig(
        binary_path=spec["binary"], kind=spec["kind"], timeout_secs=spec["timeout_s"]
    )
    cfg = campaign.CampaignConfig(
        corpus_dir=spec["corpus_dir"],
        out_dir=spec["out_dir"],
        compilers=[target],
        infill=InfillConfig(backend=backend),
        budget_candidates=spec["budget"],
        seed=spec["campaign_seed"],
        workers=spec["workers"],
    )

    entered = time.perf_counter()
    try:
        report = run(cfg)
        aborted = report.aborted
        report_dict = report.to_dict()
    except campaign.CampaignAbortedError as exc:
        aborted = str(exc)
        report_dict = exc.partial_report.to_dict() if exc.partial_report else {}
    ended = time.perf_counter()
    cpu_end = _cpu_s()
    loop_start = marks.get("first_sample", ended)

    digest = hashlib.sha256()
    for seq, (outcome, sig) in enumerate(ledger):
        digest.update(f"{seq} {outcome} {sig}\n".encode())

    result = {
        "setup_s": loop_start - entered,
        "loop_s": ended - loop_start,
        "cpu_loop_s": cpu_end - marks.get("cpu_first_sample", cpu_end),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ledger_digest": digest.hexdigest(),
        "ledger_len": len(ledger),
        "attempts": len(backend.calls),
        "harness_errors": harness_errors,
        "aborted": aborted,
        "report": report_dict,
    }
    if tracer.enabled:
        result["layers"] = layer_stats(tracer.spans, loop_start, ended, spec["workers"])
        tracer.dump(spec["spans_path"])
    return result


def _time_call(fn, arg) -> float:
    """Fastest of repeated calls, repeating until 0.05 s is spent."""
    best = math.inf
    spent = 0.0
    while spent < 0.05:
        t0 = time.perf_counter()
        fn(arg)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
    return best


def _slope(xs: list[float], ys: list[float]) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def run_probe(spec: dict) -> dict:
    """Time lex, find_spans and cloze on each family at 1x/2x/4x size.

    A stage's growth is the log-log slope of time against seed length,
    taken over the family where it grows fastest.
    """
    _import_package()
    from clozefuzz.brackets import find_spans
    from clozefuzz.lexer import lex
    from clozefuzz.masking import cloze

    growth: dict[str, float] = {}
    timings: dict[str, dict] = {}
    for family, texts in spec["probe"].items():
        sizes = [float(len(t)) for t in texts]
        for name, fn in (
            ("lexer.lex", lex),
            ("brackets.find_spans", find_spans),
            ("masking.cloze", cloze),
        ):
            times = [_time_call(fn, t) for t in texts]
            timings[f"{family}.{name}"] = {"bytes": sizes, "s": times}
            growth[name] = max(growth.get(name, -math.inf), _slope(sizes, times))
    return {"growth": growth, "timings": timings}


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = run_probe(spec) if spec.get("probe") else run_campaign(spec)
    print(json.dumps(out))
