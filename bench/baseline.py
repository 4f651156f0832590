#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 bench/baseline.py --runs 10 --out bench/results/BENCH_seed.json
    python3 bench/baseline.py --runs 5 --workloads tcp-stream      # print only

For each workload it runs `run.py --trace 0` once per seed (first-seed,
first-seed+1, ...), then one `--trace 1` run on the first seed.  Spread is
the distance between the first and third quartile of the runs, as a share
of their median, the way statistics.quantiles(values, n=4) gives them.
With --sets 2 it repeats the whole set on fresh seeds and reports how far
the second set's medians moved from the first's.  The output file also
records the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, SPEC, WORKLOADS, quartile_spread  # noqa: E402


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback only (127.0.0.1); sim-hub uses the virtual network",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """One run.py invocation; returns (result line, named report values)."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900, cwd=BENCH.parent)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s" % (workload, seed, trace, done.returncode,
                                                                  done.stdout[-2000:]))
    named = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            try:
                named[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
            except ValueError:
                pass
    return json.loads(lines[-1]), named


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": quartile_spread(values), "runs": values}


def measure(workload: str, seeds: list, seconds: int) -> dict:
    runs, named_runs = [], []
    for seed in seeds:
        result, named = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            raise RuntimeError("%s seed %d: output checks failed" % (workload, seed))
        runs.append(result)
        named_runs.append(named)
        print("  %s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.4g" % (name, result["metrics"][name]["value"]) for name in END_TO_END)), flush=True)
    e2e = {name: dict(summarize([r["metrics"][name]["value"] for r in runs]), unit=unit)
           for name, unit in END_TO_END.items()}
    named = {}
    for name in named_runs[0]:
        values = [n[name]["value"] for n in named_runs if name in n]
        named[name] = {"median": statistics.median(values), "unit": named_runs[0][name]["unit"]}
    return {
        "seeds": seeds,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": e2e,
        "named": named,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    record = {"machine": machine(), "seconds": args.seconds, "runs_per_set": args.runs, "workloads": {}}
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            sets.append(measure(workload, list(range(seed, seed + args.runs)), args.seconds))
            seed += args.runs
        entry = dict(sets[0])
        if len(sets) > 1:
            entry["second_set"] = sets[1]
            entry["median_shift"] = {
                name: sets[1]["end_to_end"][name]["median"] / sets[0]["end_to_end"][name]["median"] - 1.0
                for name in END_TO_END
            }
        traced, _ = run_once(workload, args.first_seed, args.seconds, 1)
        entry["traced_seed"] = args.first_seed
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
        print("%s: metric, median, spread (bound)%s" % (workload, ", second-set shift" if len(sets) > 1 else ""))
        for name, unit in END_TO_END.items():
            stats = entry["end_to_end"][name]
            shift = " %+.3f" % entry["median_shift"][name] if len(sets) > 1 else ""
            print("  %-20s %12.5g %-4s spread %.3f (%.2f)%s" % (name, stats["median"], unit, stats["spread"],
                                                              bounds.get(name, float("nan")), shift), flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
