#!/usr/bin/env python3
"""Quick self-test of the benchmark: tiny runs of every workload.

    python3 bench/selftest.py

Checks that each workload, run at the tiny size for one second, passes
its output checks and prints every end-to-end metric (--trace 0) and every
per-layer metric (--trace 1) named in BENCHMARK.json, with its unit; that
the output checks do catch a wrong reply; and that run.py fails without
printing a result in a directory holding only BENCHMARK.json and bench/.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402

problems: list = []


def expect(condition: bool, what: str) -> None:
    if not condition:
        problems.append(what)
        print("FAIL: %s" % what, flush=True)


def run_bench(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), *arguments]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> None:
    what = "%s --trace %d" % (workload, trace)
    done = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny")
    expect(done.returncode == 0, "%s exits 0 (got %d): %s" % (what, done.returncode, done.stderr[-500:]))
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, "%s prints a JSON result line" % what)
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s result keys" % what)
    expect(result.get("correct") is True and result.get("failed") == 0, "%s output checks pass" % what)
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, "%s attempted >= 1" % what)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    printed = result.get("metrics", {})
    expect(set(printed) == {m["name"] for m in wanted}, "%s prints exactly the named metrics" % what)
    for metric in wanted:
        got = printed.get(metric["name"], {})
        expect(got.get("unit") == metric["unit"], "%s prints %s in %s" % (what, metric["name"], metric["unit"]))
        expect(isinstance(got.get("value"), (int, float)), "%s gives %s a number" % (what, metric["name"]))
        if not trace:
            expect(got.get("value", 0) > 0, "%s: end-to-end %s is not 0" % (what, metric["name"]))
    if not trace:
        report = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
        for name, unit in metrics.END_TO_END.items():
            own = metrics.NAMED[workload][name][0]
            expect(report.get(own) == unit, "%s reports %s in %s" % (what, own, unit))
        expect("error_rate" in report, "%s reports error_rate" % what)


def check_checks_fail() -> None:
    """The output checks must flag a wrong reply."""
    from openweather.simnet import Delivery

    import simhub
    import tcp

    checker = simhub._Checker()
    checker.deliver(Delivery(1000, 1, "hub", "leaf00", b'{"not": "a message"}\n'))
    expect(checker.failures.count == 1, "sim-hub check flags an undecodable frame")
    inputs = {"store": {"seed": 1, "start": "2011-07-20T16:51:29Z", "count": 2, "interval_ms": 1000},
              "peer_count": 100, "requests": [{"kind": "discover"}]}
    failures = metrics.Failures()
    handshake, _, _ = tcp._rpc_frames({"client_seed": 3, **inputs})
    tcp._check_rpc(inputs, [None], [("discover", 0, handshake.rstrip(b"\n"))], failures)
    expect(failures.count == 1, "tcp-rpc check flags a reply of the wrong type")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run_bench(bare, "--workload", "sim-hub", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(done.returncode != 0, "bare directory: non-zero exit")
        expect('"correct"' not in done.stdout, "bare directory: no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = metrics.SPEC
    check_checks_fail()
    check_bare_directory()
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            print("selftest: %s --trace %d" % (workload, trace), flush=True)
            check_run(spec, workload, trace)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
