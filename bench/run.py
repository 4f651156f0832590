#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/run.py --workload sim-hub --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Run it from the root of a checkout; it imports the package from src/.
It prints each workload's metrics by name with their units, then, as the
last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones from a traced run.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import metrics
from metrics import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's size")
    return parser


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and done.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def _format(value) -> str:
    return "%d" % value if isinstance(value, int) else "%.6g" % value


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "openweather" / "__init__.py").is_file():
        print("run.py: no package at %s; run from a checkout of the repository" % (ROOT / "src" / "openweather"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return _run_all(args)

    import workloads

    OUT.mkdir(exist_ok=True)
    inputs = workloads.GENERATORS[args.workload](args.seed, args.size)
    spans_path = OUT / ("spans-%s-%d.tsv.gz" % (args.workload, args.seed)) if args.trace else None
    if args.workload == "sim-hub":
        import simhub

        result = simhub.run(inputs, args.seconds, bool(args.trace), spans_path)
    else:
        import tcp

        result = tcp.run(args.workload, inputs, args.seconds, bool(args.trace), spans_path, OUT)

    print("# workload %s seed %d seconds %g trace %d size %s"
          % (args.workload, args.seed, args.seconds, args.trace, args.size))
    for failure in result["failures"]:
        print("# FAILED CHECK: %s" % failure)
    if args.trace:
        units, values = metrics.PER_LAYER, result["layers"]
        for name, unit in units.items():
            print("%-44s %14s %-5s %s" % (name, _format(values[name]), unit, metrics.MOVES.get(name, "")))
    else:
        units, values = metrics.END_TO_END, result["metrics"]
        for name, unit in units.items():
            own, meaning = metrics.NAMED[args.workload][name]
            print("%-28s %14s %-6s %s" % (own, _format(values[name]), unit, meaning))
        for name, value, unit, *note in result["named"]:
            print("%-28s %14s %-6s %s" % (name, _format(value), unit, note[0] if note else ""))
    attempted, failed = result["attempted"], result["failed"]
    print("%-28s %14s %-6s %d failed of %d attempted" % ("error_rate", _format(failed / attempted), "ratio",
                                                        failed, attempted))
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
