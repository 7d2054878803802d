"""Campaign benchmark: drives ``run_campaign`` on one generated workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fake-mixed --seed 1 --seconds 36 --trace 0

It generates the workload's inputs from ``--seed``, then runs the same
campaign back to back, one child process each, for ``--seconds``. The
first campaign warms caches and is only checked; every campaign must
log the same ordered outcomes as the first. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json as medians over campaigns;
``--trace 1`` alternates traced and untraced campaigns, reports the
per-layer metrics, the tracing overhead and the scaling probe, and
writes the spans under ``.perfbench-out/``. The last line of stdout is
the JSON result; a table for people comes before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BUNDLE_FILES = {
    "candidate.rs",
    "masked.txt",
    "stderr.txt",
    "seed-ref.txt",
    "signature.json",
    "repro.sh",
}
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_ROUNDS = 3  # measured campaigns, after one warm-up campaign


def environment(w: workloads.Workload) -> dict:
    rustc = shutil.which("rustc")
    rustc_vv = None
    if rustc:
        done = subprocess.run(
            [rustc, "-vV"], capture_output=True, text=True, timeout=60
        )
        rustc_vv = done.stdout.strip() if done.returncode == 0 else None
    return {
        "workload": w.name,
        "seed": w.seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rustc_vV": rustc_vv,
        "fake_compiler_sha256": w.compiler_hash() or None,
        "workers": w.workers,
        "budget_candidates": w.budget,
    }


def run_child(spec: dict, spec_path: Path, deadline: float) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"campaign child failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_repro(bundle: Path, scratch: Path, timeout_s: float, kind: str) -> str:
    """Rerun a bundle's repro.sh in a copy of the bundle; classify it."""
    from clozefuzz.harness import ENV_ALLOWLIST, CompileOutcome
    from clozefuzz.oracle import classify

    copy = scratch / bundle.name
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(bundle, copy)
    # the same scrubbed environment the harness gives the compiler
    env = {k: os.environ[k] for k in ENV_ALLOWLIST if k in os.environ}
    env["RUST_BACKTRACE"] = "1"
    started = time.monotonic()
    proc = subprocess.Popen(
        [str(copy / "repro.sh")],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    outcome = CompileOutcome(
        exit_status=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=err.decode("utf-8", "replace"),
        wall_time=time.monotonic() - started,
        timed_out=timed_out,
        artifact_present=False,
    )
    shutil.rmtree(copy, ignore_errors=True)
    return classify(outcome, kind).value


def check_round(w, spec, result, out_dir: Path, rng: random.Random, scratch: Path):
    """Correctness checks of one campaign. Returns (failures, yield)."""
    failures: list[str] = []
    report = result["report"]
    compiled = report.get("candidates_compiled", -1)
    if result["aborted"]:
        failures.append(f"campaign aborted: {result['aborted']}")
    if compiled != w.budget:
        failures.append(f"compiled {compiled} candidates, budget {w.budget}")
    if sum(report.get("outcomes", {}).values()) != compiled:
        failures.append(f"outcome tallies {report.get('outcomes')} != {compiled}")
    if result["ledger_len"] != compiled:
        failures.append(f"classified {result['ledger_len']} of {compiled} compiles")

    bundles = []
    per_plant: dict[str, int] = {}
    for bundle in sorted(out_dir / rel for rel in report.get("bundles", [])):
        files = {p.name for p in bundle.iterdir()}
        if files != BUNDLE_FILES:
            failures.append(f"bundle {bundle.name} holds {sorted(files)}")
            continue
        bundles.append(bundle)
        if w.plants:
            plant = workloads.plant_of((bundle / "candidate.rs").read_text("utf-8"))
            if plant is None:
                failures.append(f"bundle {bundle.name} matches no planted bug")
            else:
                per_plant[plant.bug_id] = per_plant.get(plant.bug_id, 0) + 1
    if bundles:
        bundle = rng.choice(bundles)
        expected = json.loads((bundle / "signature.json").read_text("utf-8"))["kind"]
        got = run_repro(bundle, scratch, spec["timeout_s"], spec["kind"])
        if got != expected:
            failures.append(f"repro of {bundle.name} gave {got}, bundle says {expected}")
    found = {
        "bugs_found": len(per_plant),
        "dup_bundles": sum(n - 1 for n in per_plant.values()),
        "per_plant": per_plant,
    }
    return failures, found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "clozefuzz" / "__init__.py").is_file():
        print(f"error: run from the repository root; no src/clozefuzz in {root}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = json.loads((root / "BENCHMARK.json").read_text("utf-8"))

    w = workloads.build(args.workload, args.seed)
    env = environment(w)
    if not w.script and shutil.which("rustc") is None:
        print(f"skipped: workload {w.name} needs rustc on PATH", file=sys.stderr)
        return 3
    print(json.dumps({"env": env}, sort_keys=True))
    print(workloads.describe(w))

    out_root = root / ".perfbench-out"
    work = out_root / f"{w.name}-seed{args.seed}-trace{args.trace}"
    base_spec = w.materialise(work / "inputs")
    scratch = work / "scratch"
    scratch.mkdir(parents=True)

    rounds: list[dict] = []
    failures: list[str] = []
    round_s = 0.0
    try:
        r = 0
        while r <= MIN_ROUNDS or time.monotonic() - started + round_s < args.seconds:
            # every round runs the same campaign. Round 0 warms caches
            # and is only checked; with tracing on, odd rounds are
            # traced and even ones give the untraced baseline
            round_started = time.monotonic()
            traced = bool(args.trace) and r % 2 == 1
            out_dir = work / f"round{r}"
            spec = dict(
                base_spec,
                out_dir=str(out_dir),
                campaign_seed=args.seed,
                trace=traced,
                spans_path=str(out_root / f"{w.name}-seed{args.seed}-spans.jsonl"),
            )
            result = run_child(spec, work / "spec.json", deadline)
            rng = random.Random(f"{w.name}:{args.seed}:{r}")
            bad, found = check_round(w, spec, result, out_dir, rng, scratch)
            failures += [f"round {r}: {msg}" for msg in bad]
            shutil.rmtree(out_dir, ignore_errors=True)
            report = result["report"]
            rounds.append(
                dict(
                    result,
                    traced=traced,
                    cands=report.get("candidates_compiled", 0),
                    failed_ops=result["harness_errors"] + report.get("infill_errors", 0)
                    + (1 if result["aborted"] else 0),
                    ops=result["attempts"] + report.get("candidates_compiled", 0),
                    **found,
                )
            )
            if rounds[-1]["ledger_digest"] != rounds[0]["ledger_digest"]:
                failures.append(f"round {r}: outcome digest differs from round 0")
            r += 1
            round_s = time.monotonic() - round_started
            if time.monotonic() + round_s > deadline - 20:
                break

        probe = None
        if args.trace:
            probe = run_child({"probe": w.probe}, work / "probe.json", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def rate(x: dict) -> float:
        return x["cands"] / x["loop_s"]

    measured = rounds[1:]
    plain = [x for x in measured if not x["traced"]]
    attempted = sum(x["ops"] for x in rounds)
    failed = sum(x["failed_ops"] for x in rounds)
    quality = {
        "yield.bugs_found": statistics.median(x["bugs_found"] for x in measured),
        "yield.dup_bundles": statistics.median(x["dup_bundles"] for x in measured),
        "yield.failed_ratio": failed / attempted if attempted else 0.0,
    }
    if args.trace:
        from tracing import finish_layers

        traced = [x for x in measured if x["traced"]]
        sums: dict[str, float] = {}
        for x in traced:
            for k, v in x["layers"].items():
                sums[k] = sums.get(k, 0.0) + v
        metrics = finish_layers(sums, len(traced))
        metrics.update(quality)
        metrics["tracing_overhead"] = 1.0 - statistics.median(
            map(rate, traced)
        ) / statistics.median(map(rate, plain))
        for name, value in probe["growth"].items():
            metrics[f"{name}.growth"] = value
        declared = bench["per_layer"]
    else:
        metrics = {
            "cands_per_s": statistics.median(map(rate, plain)),
            "setup_s": statistics.median(x["setup_s"] for x in plain),
            "peak_rss_mb": statistics.median(x["peak_rss_kb"] for x in plain) / 1024.0,
            "cpu_ms_per_cand": statistics.median(
                1000.0 * x["cpu_loop_s"] / x["cands"] for x in plain
            ),
            **quality,
        }
        declared = bench["end_to_end"]

    summary = {
        "env": env,
        "rounds": len(rounds),
        "per_round": [
            dict(
                {k: x[k] for k in ("traced", "setup_s", "loop_s", "cands", "cpu_loop_s",
                                   "peak_rss_kb", "ledger_digest", "per_plant")},
                outcomes=x["report"].get("outcomes"),
                seeds_sampled=x["report"].get("seeds_sampled"),
            )
            for x in rounds
        ],
        "metrics": metrics,
        "probe": probe,
        "failures": failures,
    }
    out_root.mkdir(exist_ok=True)
    (out_root / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'metric':<44} {'value':>14}  unit   ({w.name}, seed {args.seed}, "
          f"{len(measured)} campaigns measured)")
    for name in sorted(metrics):
        print(f"{name:<44} {metrics[name]:>14.6g}  {units[name]}")
    for msg in failures:
        print(f"FAILED CHECK {msg}")

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
