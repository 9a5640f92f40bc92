"""One command for the end-to-end benchmark.

    python3 bench_e2e/run.py --workload serve_mix --seed 0 --seconds 20 --trace 0

prints a report (every metric by name with its unit and sample count,
generator health, the counts that must repeat, operations attempted and
failed) and, as the last line, one JSON object for the driver.  ``--trace 1``
is the separate traced run that yields the per-layer metrics; ``--smoke``
shrinks every size for the test suite.  README.md explains the design.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()      # before the heavy imports: they are set-up

import argparse     # noqa: E402
import json         # noqa: E402
import math         # noqa: E402
import os           # noqa: E402
import sys          # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
OUT_DIR = os.path.join(_HERE, "out")


def _import_workloads():
    """Import the harness with the repository's ``src`` on the path."""
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit("bench_e2e needs the repository's src/repro next to it")
    # Run as a script, sys.path[0] is this directory; the package root and
    # the program's sources go first instead.
    for path in (_ROOT, os.path.join(_ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench_e2e import workloads
    return workloads


def load_spec() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _previous_untraced(path: str, seed: int, seconds: float) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
    except (OSError, ValueError):
        return None
    return saved["metrics"] if (saved["seed"], saved["seconds"]) == (seed, seconds) else None


def at_reference_speed(value: float, unit: str, box_speed: float) -> float:
    """A timing or a rate as it would have read on a box of reference speed
    (see harness.Speedometer); counts, ratios and sizes pass unchanged."""
    if unit in ("s", "ms", "us"):
        return value * box_speed
    if unit == "1/s":
        return value / box_speed
    return value


def _print_report(result, units: dict, args, end_to_end: dict, per_layer: dict,
                  untraced: dict | None) -> None:
    print(f"workload {result.workload}  seed {result.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}")
    print(f"end-to-end, at reference speed (this run's box speed: {result.box_speed:.3f})"
          + (", measured with tracing on" if args.trace else ""))
    for name, value in end_to_end.items():
        line = (f"  {name:<16}{value:>14.4f} {units[name]:<6} samples {result.samples[name]}"
                f"  as measured {result.end_to_end[name]:.4f}")
        if untraced and name in untraced:
            line += f"  untraced {untraced[name]:.4f} ({value / untraced[name] - 1.0:+.1%})"
        print(line)
    if args.trace:
        if untraced is None:
            print("  tracing overhead: run the same seed with --trace 0 first to see it")
        print("per-layer, at reference speed")
        for name, value in per_layer.items():
            print(f"  {name:<38}{value:>14.4f} {units[name]}")
        print(f"  trace written to {os.path.relpath(result.trace_path)}")
    print("generator health")
    for name, value in result.health.items():
        print(f"  {name:<32}{value}")
    print("counts (repeat exactly for a seed)")
    for name, value in result.counts.items():
        if name not in result.per_layer:        # a traced run printed those above
            print(f"  {name:<32}{value}")
    print(f"operations attempted {result.attempted} failed {result.failed}")
    for problem in result.problems:
        print(f"INCORRECT: {problem}")
    print(f"correct: {'yes' if result.correct else 'NO'}")


def main(argv: list[str] | None = None) -> int:
    workloads = _import_workloads()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="scales the work; the sizes are written for run_seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the test suite")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        _PROCESS_STARTED, OUT_DIR,
    )
    # A declared name missing from the result is a harness bug: fail loudly.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {
        m["name"]: at_reference_speed(result.end_to_end[m["name"]], m["unit"], result.box_speed)
        for m in spec["end_to_end"]
    }
    per_layer = {
        m["name"]: at_reference_speed(result.per_layer[m["name"]], m["unit"], result.box_speed)
        for m in spec["per_layer"]
    } if args.trace else {}
    metrics = {}
    for name, value in (per_layer if args.trace else end_to_end).items():
        if not math.isfinite(value):
            result.problems.append(f"{name} is not finite")
        metrics[name] = {"value": value, "unit": units[name]}

    untraced_path = os.path.join(OUT_DIR, f"e2e-{args.workload}{'-smoke' if args.smoke else ''}.json")
    untraced = None
    if args.trace:
        untraced = _previous_untraced(untraced_path, args.seed, args.seconds)
    else:
        with open(untraced_path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds, "metrics": end_to_end}, handle)
    with open(os.path.join(OUT_DIR, f"samples-{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(result.raw, handle)
    _print_report(result, units, args, end_to_end, per_layer, untraced)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    # One CPU: the GIL lets one thread run Python at a time anyway, and on two
    # vCPUs where the scheduler happens to place the event loop, the pool and
    # the replica threads puts a whole run in a fast or a slow mode, 2x apart.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass        # not Linux, or not allowed: run unpinned rather than not at all
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order every set the program iterates; pin them so a seed
        # fixes the whole run.  exec replaces this process, so nothing is
        # left behind to wait for.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
