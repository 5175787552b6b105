"""Steadiness of the benchmark: the figures that set and justify its bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--seconds S] [--workload W ...]
    python3 perfbench/steady.py --smoke

Runs every workload ``--runs`` times per set, one run at a time, in
alternating workload order and with a different seed each run, then prints
for every end-to-end metric of every workload, per set, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the interquartile range
and the max-min range as shares of the median, and how far the second
set's median moved from the first's (positive = worse).  A metric is
steady when every spread but that of ``setup_s`` is below a third of its
bound and the shift between sets is within the bound.

``--smoke`` runs each workload once for one second (the minimum-operation
rule still applies) and only checks that it exits cleanly with every
operation correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spreads(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle, (max(values) - min(values)) / middle


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    chosen = args.workload or workloads

    if args.smoke:
        for workload in chosen:
            result = run_once(workload, args.first_seed, 1)
            ok = result["correct"] and result["failed"] == 0
            print(f"smoke {workload}: attempted={result['attempted']} failed={result['failed']} ok={ok}")
            if not ok:
                return 1
        return 0

    # results[set][workload] -> list of metric dicts
    results = [{w: [] for w in chosen} for _ in range(args.sets)]
    seed = args.first_seed
    for index in range(args.sets):
        for run in range(args.runs):
            order = chosen if run % 2 == 0 else list(reversed(chosen))
            for workload in order:
                outcome = run_once(workload, seed, args.seconds)
                seed += 1
                share = outcome["failed"] / outcome["attempted"]
                results[index][workload].append((outcome["metrics"], share, outcome["correct"]))
                print(
                    f"set {index + 1} run {run + 1} {workload} seed={seed - 1} "
                    f"failed_share={share} correct={outcome['correct']}",
                    file=sys.stderr,
                )

    print(
        "| workload | metric | set | median | q1 | q3 | IQR/median | range/median | bound | shift |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|")
    verdict = True
    for workload in chosen:
        for entry in spec["end_to_end"]:
            name, bound, better = entry["name"], entry["bound"], entry["better"]
            medians = []
            for index in range(args.sets):
                values = [m[name]["value"] for m, _, _ in results[index][workload]]
                middle, q1, q3, iqr, span = spreads(values)
                medians.append(middle)
                shift = ""
                if index:
                    moved = (middle - medians[0]) / medians[0]
                    worse = moved if better == "lower" else -moved
                    shift = f"{worse:+.1%}"
                    verdict &= worse <= bound
                if name != "setup_s":
                    verdict &= iqr < bound
                print(
                    f"| {workload} | {name} | {index + 1} | {middle:.5g} | {q1:.5g} | {q3:.5g} "
                    f"| {iqr:.1%} | {span:.1%} | {bound:.0%} | {shift} |"
                )
        shares = {share for index in range(args.sets) for _, share, _ in results[index][workload]}
        correct = all(c for index in range(args.sets) for _, _, c in results[index][workload])
        verdict &= len(shares) == 1 and correct
        print(f"| {workload} | failed share | all | {sorted(shares)} | | | | | | correct={correct} |")
    print(f"\nsteady within bounds: {verdict}")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
