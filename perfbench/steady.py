"""Steadiness check: two sets of runs of the same code, spread vs bound.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--workload W ...] [--out results.jsonl]

For each workload, each of the two sets runs ``perfbench/run.py`` once
per seed 1-10 (the same seeds in both sets), with the run length from
``BENCHMARK.json``.  A comparison of two versions of the program runs
ten seeds per workload in the same way, so the spread here is the one
a comparison sees: run-to-run noise and the differences between the
seeds' inputs together.  For every end-to-end metric it prints, per
set, the median and the spread (the distance between the first and
third quartiles of ``statistics.quantiles(values, n=4)``, as a share of
the median), then the shift of the second set's median from the
first's, beside the metric's bound.

A metric is ``ok`` when each spread is within its bound (``setup_s``
excepted: only its shift counts) and the shift is within the bound;
the share of failed operations must be identical in both sets and
every run correct.  Exits 1 when anything is not ok.  A spread of a
third of its bound or more is marked ``wide``: such a metric is within
its bound but leaves little room for noise.  Raw results go to
``--out`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    all_ok = True
    for workload in workloads:
        sets = []
        for index in range(SETS):
            results = []
            for seed in SEEDS:
                result = run_once(workload, seed, bench["run_seconds"])
                results.append(result)
                if out:
                    out.write(json.dumps({"workload": workload, "set": index, "seed": seed, **result}) + "\n")
                    out.flush()
            sets.append(results)
        print(f"\n{workload}: {SETS} sets x {len(SEEDS)} seeds")
        print(f"  {'metric':18s} {'median0':>10s} {'spread0':>8s} {'median1':>10s} {'spread1':>8s}"
              f" {'shift':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            medians, spreads = [], []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            shift = abs(medians[1] - medians[0]) / medians[0]
            timed = name != "setup_s"
            ok = shift <= bound and (not timed or all(s <= bound for s in spreads))
            wide = timed and any(s >= bound / 3 for s in spreads)
            all_ok &= ok
            print(f"  {name:18s} " + " ".join(f"{m:10.4g} {s:8.3f}" for m, s in zip(medians, spreads))
                  + f" {shift:8.3f} {bound:6.2f}  {'ok' if ok else 'NOT OK'}{'  wide' if wide else ''}")
        shares = [
            (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
            for results in sets
        ]
        correct = all(r["correct"] for results in sets for r in results)
        same_share = len({f / a for f, a in shares}) == 1
        all_ok &= correct and same_share
        print(f"  failed/attempted per set: {shares}; all correct: {correct}")
    if out:
        out.close()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
