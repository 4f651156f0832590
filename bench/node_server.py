#!/usr/bin/env python3
"""The node under test for the TCP workloads, run in its own process.

    python3 bench/node_server.py SPEC.json

SPEC names the workload's generated inputs (node seed, bootstrap file,
stored samples or sampling cadence) and where to write the result.  The
script builds a NodeRuntime the way `owp run` does, serves it with
NodeServer on a free loopback port, prints ``READY <port>`` and serves
until a line (or end of file) arrives on stdin.  It then stops the
server and writes a JSON result: wall and CPU seconds and peak RSS while
serving, sessions and peers held, and, when the spec asks for tracing, the
per-layer table of the spans recorded while serving.  With ``trace_idle``
the coordinator's wait for its next event is spanned too, as idle time.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from openweather.codec import UtmLocation, parse_timestamp  # noqa: E402
from openweather.engine import NodeConfig  # noqa: E402
from openweather.identity import random_node_id  # noqa: E402
from openweather.node import NodeRuntime  # noqa: E402
from openweather.peers import load_bootstrap  # noqa: E402
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore  # noqa: E402
from openweather.tcpnet import NodeServer, time_ms  # noqa: E402

from metrics import OBSERVERS, layer_metrics, span_durations  # noqa: E402
from tracer import IDLE, Tracer  # noqa: E402
from workloads import LOCATION  # noqa: E402


def build_runtime(spec: dict) -> NodeRuntime:
    config = NodeConfig(
        node_id=random_node_id(spec["node_seed"].to_bytes(32, "big")),
        location=UtmLocation.parse(LOCATION),
        bandwidth=6,
        port=62535,
    )
    store = SampleStore()
    if spec.get("store"):
        stored = spec["store"]
        filler = SampleGenerator(GeneratorConfig(interval_ms=stored["interval_ms"], seed=stored["seed"]))
        start = parse_timestamp(stored["start"])
        for index in range(stored["count"]):
            store.insert(filler.next_sample(start + index * stored["interval_ms"]))
    generator = SampleGenerator(GeneratorConfig(**spec["generator"])) if spec.get("generator") else None
    runtime = NodeRuntime(config, generator=generator, store=store, local_ip="127.0.0.1", start_ms=time_ms())
    if spec.get("bootstrap_path"):
        for record in load_bootstrap(spec["bootstrap_path"]):
            runtime.engine.peer_table.upsert(record)
    return runtime


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    runtime = build_runtime(spec)
    server = NodeServer(runtime, port=0)
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install(OBSERVERS)
        if spec.get("trace_idle"):
            # the coordinator's wait for the next event or the poll timeout
            tracer.add(IDLE, server._events, "get")
    wall = time.perf_counter()
    server.start()
    cpu = time.process_time()
    print("READY %d" % server.port, flush=True)
    sys.stdin.readline()
    cpu = time.process_time() - cpu
    server.stop()
    result = {
        "wall_s": time.perf_counter() - wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions_held": len(runtime.sessions),
        "table_size": len(runtime.engine.peer_table),
    }
    if tracer is not None:
        tracer.uninstall()
        facts = {"sessions_held": result["sessions_held"], "table_size": result["table_size"]}
        result["layers"] = layer_metrics(tracer, facts)
        result["on_frame_s"] = span_durations(tracer, "node.on_frame")
        result["idle_s"] = sum(span_durations(tracer, IDLE))
        tracer.write(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
