"""Benchmark of the ``verlinde`` package: time to certified, checked values.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --smoke             # self-check of the benchmark
    python3 perfbench/run.py --audit [--seed N]  # genus_sweep at the default precision

Run from the root of a checkout; the package is imported from ``src/``.
Each repetition of a workload runs in a fresh interpreter (so no in-process
cache carries over), which sends the workload's cases one after another to
``verlinde.cli.main`` (a closed loop with one caller) and checks every
output against a sound reference.  Repetitions continue until ``--seconds``
have passed, and the medians are reported.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: first case sent to last result checked, median over repetitions;
* ``setup_s``: interpreter launch until ``verlinde`` is imported and the CLI
  parser is built, median over several launches;
* ``pass_share``: checks passed / checks attempted (1 - fail_share);
* ``peak_rss_mb``: peak resident memory of the repetition process.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracer.py`` (medians over traced repetitions) plus
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--audit`` runs the ``genus_sweep`` cases once at the package's default
precision instead of a precision sized to each value, checks them the same
way, and reports their ``fail_share``; it exits 1 if any value is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_LAUNCHES = 12
MIN_REPETITIONS = 3
MIN_TRACED = 2
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(mode: str, cases=None, spans=None) -> dict:
    """Run one worker process to completion and return its report."""
    cmd = [sys.executable, WORKER, ROOT, mode] + ([spans] if spans else [])
    started = clock()
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(cases or []), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {mode} did not finish in {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def measure(cases, seconds: float, trace: bool, min_runs: int = MIN_REPETITIONS,
            min_traced: int = MIN_TRACED, setup_launches: int = SETUP_LAUNCHES,
            spans_path=None) -> dict:
    """Repeat the batch in fresh processes until ``seconds`` have passed."""
    start = clock()
    setups = [launch("setup")["setup_s"] for _ in range(0 if trace else setup_launches)]
    first_rep = clock()
    runs, traced = [], []
    while True:
        if trace and len(traced) < len(runs):
            report = launch("trace", cases, spans_path)
            traced.append(report)
        else:
            report = launch("run", cases)
            runs.append(report)
        setups.append(report["setup_s"])
        done = len(runs) >= min_runs and (not trace or len(traced) >= min_traced)
        per_rep = (clock() - first_rep) / (len(runs) + len(traced))
        if done and clock() + per_rep - start > seconds:
            break
    reports = runs + traced
    return {
        "runs": runs,
        "traced": traced,
        "setups": setups,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failures": sorted({f for r in reports for f in r["failures"]}),
        "absent": sorted({a for r in traced for a in r["absent"]}),
    }


def end_to_end(m: dict) -> dict:
    runs = m["runs"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(m["setups"]),
        "pass_share": 1 - m["failed"] / m["attempted"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(m: dict) -> dict:
    values = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["wall_s"] for r in m["traced"])
                            - statistics.median(r["wall_s"] for r in m["runs"]))
            continue
        samples = [r["layers"][name] for r in m["traced"]]
        values[name] = None if None in samples else statistics.median(samples)
    return values


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = W.build_cases(workload, seed, W.load_refs())
    spans_path = None
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    m = measure(cases, seconds, trace, spans_path=spans_path)
    if trace:
        metrics = with_units(per_layer(m), {k: v[0] for k, v in LAYER_METRICS.items()})
    else:
        metrics = with_units(end_to_end(m), END_TO_END)
    report(workload, seed, m, metrics, spans_path)
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def report(workload, seed, m, metrics, spans_path) -> None:
    walls = [r["wall_s"] for r in m["runs"]]
    print(f"# {workload} seed={seed}: {len(m['runs'])} untraced and {len(m['traced'])} traced"
          f" repetitions of {m['attempted'] // len(m['runs'] + m['traced'])} checks;"
          f" wall_s {min(walls):.3f}..{max(walls):.3f}")
    print(f"#   fail_share = {m['failed']}/{m['attempted']}"
          f" = {m['failed'] / m['attempted']:.4f}")
    for failure in m["failures"][:20]:
        print(f"#   FAILED {failure[:300]}")
    if len(m["failures"]) > 20:
        print(f"#   ... {len(m['failures']) - 20} more distinct failures")
    for name, entry in metrics.items():
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"#   {name:30s} {value:>14s} {entry['unit']}")
    if m["absent"]:
        print(f"#   absent layers: {', '.join(m['absent'])}")
    if spans_path:
        print(f"#   spans written to {os.path.relpath(spans_path, ROOT)}")


def smoke() -> int:
    """One small case per workload: every named metric is emitted, and a
    deliberately wrong reference is counted as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    refs = W.load_refs()
    problems = []
    for workload in W.WORKLOADS:
        cases = W.smoke_cases(workload, refs)
        m = measure(cases, 0, False, min_runs=1, setup_launches=1)
        if m["failed"]:
            problems.append(f"{workload}: {m['failures']}")
        got = end_to_end(m)
        problems += [f"{workload}: no end-to-end metric {e['name']}"
                     for e in spec["end_to_end"] if not isinstance(got.get(e["name"]), float)]
        os.makedirs(OUT_DIR, exist_ok=True)
        m = measure(cases, 0, True, min_runs=1, min_traced=1,
                    spans_path=os.path.join(OUT_DIR, f"spans-smoke-{workload}.json.gz"))
        got = per_layer(m)
        problems += [f"{workload}: no per-layer metric {e['name']}"
                     for e in spec["per_layer"] if not isinstance(got.get(e["name"]), (int, float))]
        print(f"# smoke {workload}: {m['attempted']} checks, {m['failed']} failed")
    wrong = W.smoke_cases("dense_level", refs)
    wrong[0]["expect"] = str(int(wrong[0]["expect"]) + 1)
    m = measure(wrong, 0, False, min_runs=1, setup_launches=1)
    fail_share = m["failed"] / m["attempted"]
    print(f"# smoke wrong reference: fail_share = {fail_share}")
    if not fail_share > 0:
        problems.append("a wrong reference did not raise fail_share")
    for problem in problems:
        print(f"# SMOKE PROBLEM {problem}")
    print("# smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def audit(seed: int) -> int:
    """The genus_sweep cases at the default precision, run once."""
    m = measure(W.audit_cases(seed, W.load_refs()), 0, False, min_runs=1, setup_launches=0)
    fail_share = m["failed"] / m["attempted"]
    print(f"# audit genus_sweep seed={seed} at the default precision:"
          f" fail_share = {m['failed']}/{m['attempted']} = {fail_share:.4f}")
    for failure in m["failures"]:
        print(f"#   FAILED {failure[:300]}")
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"],
                      "metrics": {"fail_share": {"value": fail_share, "unit": "ratio"}}}))
    return 1 if m["failed"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--audit", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "verlinde", "cli.py")):
        print(f"no verlinde sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 1
    try:
        if args.smoke:
            return smoke()
        if args.audit:
            return audit(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                       for w in W.WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": v for w, r in results.items()
                            for name, v in r["metrics"].items()},
            }
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
