"""A-A check: does the same commit agree with itself within the bounds?

    python3 bench_e2e/aa.py [--runs 5]

Runs two interleaved sets (A1 B1 A2 B2 ...) of ``--runs`` runs of every
workload, run *i* of either set on seed *i*, and prints for every workload
and end-to-end metric both medians, their relative difference, each set's
spread (quartile distance over median, as the driver takes it), the spread of
the same runs' values as measured (before they are put at reference speed,
see harness.Speedometer) and the bound from BENCHMARK.json.  It also lists
every count that differed between the two runs of a seed: those are meant to
repeat exactly.

Exits non-zero when a pair of medians differs by more than its bound, a set's
spread is wider than the bound (the driver's two tests; it exempts the spread
of ``setup_s``) or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """One plain run; returns its end-to-end values, the same as measured,
    and its exact counts."""
    done = subprocess.run(
        [sys.executable, os.path.join(_HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=_ROOT,
    )
    if done.returncode:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    metrics = {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}
    measured = {
        line.split()[0]: float(line.split()[-1]) for line in lines if " as measured " in line
    }
    first = lines.index("counts (repeat exactly for a seed)") + 1
    counts = {}
    for line in lines[first:]:
        if not line.startswith("  "):
            break
        name, value = line.split()
        counts[name] = value
    return metrics, measured, counts


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main() -> int:
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 5)")
    args = parser.parse_args()

    raw: dict[str, dict[str, dict[str, list[float]]]] = {}
    unequal: list[str] = []
    for workload in names:
        sets = {"A": {}, "B": {}, "A measured": {}, "B measured": {}}
        for seed in range(args.runs):
            counts = {}
            for label in ("A", "B"):
                metrics, measured, counts[label] = _run(workload, seed, spec["run_seconds"])
                for name in metrics:
                    sets[label].setdefault(name, []).append(metrics[name])
                    sets[f"{label} measured"].setdefault(name, []).append(measured[name])
                print(f"# {workload} seed {seed} set {label} done", file=sys.stderr)
            unequal += [
                f"{workload} seed {seed}: {name} {counts['A'][name]} != {counts['B'].get(name)}"
                for name in counts["A"] if counts["A"][name] != counts["B"].get(name)
            ]
        raw[workload] = sets

    missed = 0
    print("| workload | metric | median A | median B | B vs A | spread A | spread B "
          "| as measured: spread A | spread B | bound |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload, sets in raw.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = statistics.median(sets["A"][name]), statistics.median(sets["B"][name])
            difference = b / a - 1.0
            spreads = [_spread(sets[label][name]) for label in ("A", "B")]
            flag = ""
            if abs(difference) > bound:
                missed += 1
                flag = " MISSED"
            if name != "setup_s" and max(spreads) > bound:
                missed += 1
                flag += " WIDE"
            print(f"| {workload} | {name} | {a:.4g} | {b:.4g} | {difference:+.1%}{flag} | "
                  f"{spreads[0]:.1%} | {spreads[1]:.1%} | "
                  f"{_spread(sets['A measured'][name]):.1%} | "
                  f"{_spread(sets['B measured'][name]):.1%} | {bound:.0%} |")
    print()
    print("counts that did not repeat exactly:", "none" if not unequal else "")
    for line in unequal:
        print(f"  {line}")
    return 1 if missed or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
