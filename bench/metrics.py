"""Metric catalog, timing summaries and the per-layer table of a traced run.

Names, units and directions of the metrics come from BENCHMARK.json at the
root of the checkout.  Every workload prints the same end-to-end metrics
on its result line; NAMED gives each workload's own name for them and what
they measure there.  MOVES says, for each per-layer metric, which
end-to-end metric on which workload it should move.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from tracer import LAYERS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

# workload -> end-to-end metric -> the workload's own name for it and what it measures
NAMED = {
    "sim-hub": {
        "throughput_per_s": ("sim_events_per_s", "trace events per wall second"),
        "latency_p50_ms": ("step_p50_ms", "wall ms to simulate one virtual second"),
        "latency_p99_ms": ("step_p99_ms", "wall ms to simulate one virtual second"),
        "wire_bytes_per_msg": ("wire_bytes_per_msg", "mean bytes per sent message"),
        "peak_rss_mb": ("peak_rss_mb", "peak RSS of the process running the simulator"),
        "setup_s": ("setup_s", "median scenario parse + SimRunner build"),
    },
    "tcp-rpc": {
        "throughput_per_s": ("req_per_s", "closed-loop requests per second, one connection"),
        "latency_p50_ms": ("req_p50_ms", "request round trip"),
        "latency_p99_ms": ("req_p99_ms", "request round trip"),
        "wire_bytes_per_msg": ("wire_bytes_per_msg", "mean bytes per message, both directions"),
        "peak_rss_mb": ("peak_rss_mb", "peak RSS of the node process"),
        "setup_s": ("setup_s", "median node start: spawn to listening"),
    },
    "tcp-stream": {
        "throughput_per_s": ("frames_per_s", "type-300 frames delivered per second, both subscribers"),
        "latency_p50_ms": ("stream_lag_p50_ms", "arrival delay behind the ideal sampling grid"),
        "latency_p99_ms": ("stream_lag_p99_ms", "arrival delay behind the ideal sampling grid"),
        "wire_bytes_per_msg": ("wire_bytes_per_msg", "mean bytes per streamed frame"),
        "peak_rss_mb": ("peak_rss_mb", "peak RSS of the node process"),
        "setup_s": ("setup_s", "median node start: spawn to listening"),
    },
}

ENCODE_TYPES = (101, 103, 105, 300, 301, 601)

# per-layer metric -> the end-to-end metric (and workload) it should move
MOVES = {
    "codec.decode.calls": "sim_events_per_s on sim-hub; req_p50_ms on tcp-rpc",
    "codec.decode.us_per_call": "sim_events_per_s on sim-hub; req_p50_ms on tcp-rpc",
    "codec.encode.calls": "req_p50_ms, req_per_s on tcp-rpc",
    "codec.encode.us_per_call": "req_p50_ms, req_per_s on tcp-rpc",
    "codec.encode.bytes_per_call": "wire_bytes_per_msg, reply_vms_* on sim-hub",
    **{
        "codec.encode.t%d.%s" % (code, part): "req_p50_ms, req_per_s on tcp-rpc; wire_bytes_per_msg"
        for code in ENCODE_TYPES
        for part in ("calls", "us_per_call", "bytes_per_call")
    },
    "codec.encode.t301_ptu_fetch.bytes_per_call": "known defect: all groups sent for a PTU fetch",
    "codec.validate.calls": "req_p50_ms on tcp-rpc",
    "codec.validate.us_per_call": "req_p50_ms on tcp-rpc",
    "codec.validate.calls_per_encode": "req_p50_ms on tcp-rpc",
    "scenario.decode.calls": "sim_events_per_s on sim-hub; none on tcp-*",
    "scenario.run.self_s": "sim_events_per_s on sim-hub",
    "scenario.trace_order_diffs": "known defect: fan-out order follows object addresses",
    "simnet.send.calls": "sim_events_per_s on sim-hub",
    "simnet.send.us_per_call": "sim_events_per_s on sim-hub",
    "simnet.advance.calls": "sim_events_per_s on sim-hub",
    "simnet.advance.us_per_call": "sim_events_per_s on sim-hub",
    "simnet.pipe_wait_vms": "stream_vms_p99, reply_vms_p99 on sim-hub",
    "simnet.pipe_wait_vms_p99": "stream_vms_p99, reply_vms_p99 on sim-hub",
    "simnet.dropped": "error_rate on sim-hub",
    "node.on_frame.calls": "req_p50_ms on tcp-rpc",
    "node.on_frame.self_us": "req_p50_ms on tcp-rpc",
    "node.on_tick.calls": "stream_lag_* on tcp-stream; sim_events_per_s",
    "node.on_tick.self_us": "stream_lag_* on tcp-stream; sim_events_per_s",
    "node.on_tick.outbound_per_call": "stream_lag_* on tcp-stream; sim_events_per_s",
    "node.encodes_per_fanout_send": "stream_lag_* on tcp-stream; sim_events_per_s",
    "node.hangups": "error_rate on sim-hub",
    "node.hangups.keep_alive": "error_rate on sim-hub",
    "node.hangups.listen_only": "known defect: listen-only streams die at the keep-alive",
    "node.sessions_held": "known defect: peak_rss_mb on tcp-rpc grows with connect churn",
    "node.sessions_opened": "connect_p50_ms on tcp-rpc",
    "engine.handle_message.calls": "req_p50_ms on tcp-rpc",
    "engine.handle_message.us_per_call": "req_p50_ms on tcp-rpc",
    "engine.unexpected_replies": "req_p50_ms on tcp-rpc; error_rate",
    "peers.select_peers.calls": "req_p99_ms on tcp-rpc",
    "peers.select_peers.us_per_call": "req_p99_ms on tcp-rpc",
    "peers.upsert.calls": "sim_events_per_s on sim-hub",
    "peers.table_size": "peak_rss_mb on sim-hub",
    "peers.table_full_drops": "error_rate on sim-hub",
    "sensors.next_sample.calls": "stream_lag_* on tcp-stream",
    "sensors.next_sample.us_per_call": "stream_lag_* on tcp-stream",
    "sensors.store.insert.calls": "stream_lag_* on tcp-stream",
    "sensors.store.insert.us_per_call": "stream_lag_* on tcp-stream",
    "sensors.store.lookup.calls": "req_p50_ms on tcp-rpc",
    "sensors.store.lookup.us_per_call": "req_p50_ms on tcp-rpc",
    "sensors.store.lookup.hit_ratio": "req_p50_ms on tcp-rpc",
    "vendor.to_data_block.calls": "stream_lag_* on tcp-stream; sim_events_per_s",
    "vendor.to_data_block.us_per_call": "stream_lag_* on tcp-stream; sim_events_per_s",
    "vendor.to_data_block.calls_per_tick": "stream_lag_* on tcp-stream; sim_events_per_s",
    "tcpnet.feed.calls": "req_p50_ms on tcp-rpc",
    "tcpnet.feed.us_per_call": "req_p50_ms on tcp-rpc",
    "tcpnet.transport_us": "req_p50_ms, connect_p50_ms on tcp-rpc",
    **{"layer.%s.self_s" % layer: "the workload's throughput and latency" for layer in LAYERS},
    "bench.self_s": "none: the benchmark's own time on the accounted timeline",
    "trace.wall_s": "none: wall time of the accounted timeline",
    "trace.idle_s": "none: time the node waited for an event on the accounted timeline",
    "trace.unspanned_s": "none: accounted wall time no span covers",
    "trace.spanned_pct": "none: share of the accounted wall time that spans, bench and idle cover",
    "trace.overhead_pct": "none: node CPU per message, traced vs untraced",
    "trace.spans": "none: spans recorded",
}


class Failures:
    """Failed operations and checks: a count, and the first few for the report."""

    def __init__(self):
        self.count = 0
        self.notes: list = []

    def add(self, note: str) -> None:
        self.count += 1
        if len(self.notes) < 20:
            self.notes.append(note)


# -- timings -----------------------------------------------------------------------


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of p90/p99/p99.9/p99.99 with ten or more samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9, 99.99):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def timing(values: list) -> dict:
    """Median, p99, the highest supported tail and the sample count."""
    ordered = sorted(values)
    if not ordered:
        return {"n": 0, "p50": 0.0, "p99": 0.0, "tail_p": None, "tail": 0.0}
    tail_p = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": statistics.median(ordered),
        "p99": percentile(ordered, 99.0),
        "tail_p": tail_p,
        "tail": percentile(ordered, tail_p) if tail_p else ordered[-1],
    }


def quartile_spread(values: list) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# -- per-layer table ------------------------------------------------------------------

OBSERVERS = {
    "codec.encode": lambda args, result: (int(args[0].type_code), len(result)),
    "engine.handle_message": lambda args, result: _ptu_fetch(args[2]),
    "sensors.store.lookup": lambda args, result: result is not None,
    "node.on_tick": lambda args, result: _tick_outputs(result),
    "simnet.send": lambda args, result: _pipe_wait(args, result),
}


def _ptu_fetch(envelope) -> bool:
    retrieve = envelope.retrieve
    return int(envelope.type_code) == 201 and retrieve is not None and tuple(retrieve.services) == ("PTU",)


def _tick_outputs(outputs) -> tuple:
    sent = 0
    hangups = []
    for output in outputs:
        if hasattr(output, "frame"):
            sent += 1
        else:
            hangups.append((output.reason, output.key))
    return sent, hangups


def _pipe_wait(args, arrival):
    """Queueing delay of one send: arrival - now - serialization - latency."""
    if arrival is None:
        return None
    net, conn, src, frame = args[:4]
    spec = net.link(src, conn.other(src))
    serialization = math.ceil(len(frame) * 8 * 1000 / spec.bandwidth_bps)
    return arrival - net.clock.now_ms - serialization - spec.latency_ms


def _per_call(row) -> float:
    """Mean microseconds per call of a by_name() row."""
    return row[1] * 1e6 / row[0] if row[0] else 0.0


def layer_metrics(tracer, facts: dict) -> dict:
    """The PER_LAYER values of one traced run.

    `facts` carries what the spans cannot see: transport_us, sessions_held,
    table_size, dropped, listen_only (a predicate on hangup keys) and
    trace_order_diffs.  account() adds the wall-time accounting.
    """
    table = tracer.by_name()
    row = lambda name: table.get(name, [0, 0.0, 0.0])  # noqa: E731
    request_of = {span[0]: span[5] for span in tracer.spans}
    name_of = {span[0]: span[1] for span in tracer.spans}
    out: dict = {}

    node_decode, scenario_decode = row("codec.decode"), row("scenario.decode")
    decodes = [node_decode[0] + scenario_decode[0], node_decode[1] + scenario_decode[1]]
    out["codec.decode.calls"] = decodes[0]
    out["codec.decode.us_per_call"] = _per_call(decodes)

    encode_spans = {span[0]: span for span in tracer.spans if span[1] == "codec.encode"}
    encodes = [(span_id, record) for name, span_id, _, record in tracer.observed if name == "codec.encode"]
    by_type: dict = {}
    for span_id, (code, size) in encodes:
        entry = by_type.setdefault(code, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += encode_spans[span_id][3] - encode_spans[span_id][2]
        entry[2] += size
    encode = row("codec.encode")
    total_bytes = sum(entry[2] for entry in by_type.values())
    out["codec.encode.calls"] = encode[0]
    out["codec.encode.us_per_call"] = _per_call(encode)
    out["codec.encode.bytes_per_call"] = total_bytes / encode[0] if encode[0] else 0.0
    for code in ENCODE_TYPES:
        calls, seconds, size = by_type.get(code, (0, 0.0, 0))
        out["codec.encode.t%d.calls" % code] = calls
        out["codec.encode.t%d.us_per_call" % code] = seconds * 1e6 / calls if calls else 0.0
        out["codec.encode.t%d.bytes_per_call" % code] = size / calls if calls else 0.0
    ptu_requests = {
        request_of[span_id] for name, span_id, _, ptu in tracer.observed if name == "engine.handle_message" and ptu
    }
    ptu_sizes = [size for span_id, (code, size) in encodes if code == 301 and request_of[span_id] in ptu_requests]
    out["codec.encode.t301_ptu_fetch.bytes_per_call"] = statistics.fmean(ptu_sizes) if ptu_sizes else 0.0

    validate = row("codec.validate")
    in_encode = sum(1 for span in tracer.spans if span[1] == "codec.validate" and name_of.get(span[4]) == "codec.encode")
    out["codec.validate.calls"] = validate[0]
    out["codec.validate.us_per_call"] = _per_call(validate)
    out["codec.validate.calls_per_encode"] = in_encode / encode[0] if encode[0] else 0.0

    out["scenario.decode.calls"] = scenario_decode[0]
    out["scenario.run.self_s"] = row("scenario.run")[2]
    out["scenario.trace_order_diffs"] = facts.get("trace_order_diffs", 0)

    for name in ("simnet.send", "simnet.advance"):
        out[name + ".calls"] = row(name)[0]
        out[name + ".us_per_call"] = _per_call(row(name))
    waits = sorted(record for name, _, _, record in tracer.observed if name == "simnet.send" and record is not None)
    out["simnet.pipe_wait_vms"] = statistics.fmean(waits) if waits else 0.0
    out["simnet.pipe_wait_vms_p99"] = percentile(waits, 99.0) if waits else 0.0
    out["simnet.dropped"] = facts.get("dropped", 0)

    on_frame, on_tick = row("node.on_frame"), row("node.on_tick")
    out["node.on_frame.calls"] = on_frame[0]
    out["node.on_frame.self_us"] = on_frame[2] * 1e6 / on_frame[0] if on_frame[0] else 0.0
    out["node.on_tick.calls"] = on_tick[0]
    out["node.on_tick.self_us"] = on_tick[2] * 1e6 / on_tick[0] if on_tick[0] else 0.0
    ticks = [record for name, _, _, record in tracer.observed if name == "node.on_tick"]
    fanout_sends = sum(sent for sent, _ in ticks)
    tick_encodes = sum(1 for span in encode_spans.values() if name_of.get(span[4]) == "node.on_tick")
    out["node.on_tick.outbound_per_call"] = fanout_sends / on_tick[0] if on_tick[0] else 0.0
    out["node.encodes_per_fanout_send"] = tick_encodes / fanout_sends if fanout_sends else 0.0
    hangups = [hangup for _, tick_hangups in ticks for hangup in tick_hangups]
    listen_only = facts.get("listen_only", lambda key: False)
    out["node.hangups"] = len(hangups)
    out["node.hangups.keep_alive"] = sum(1 for reason, _ in hangups if reason == "keep-alive expired")
    out["node.hangups.listen_only"] = sum(1 for _, key in hangups if listen_only(key))
    out["node.sessions_held"] = facts.get("sessions_held", 0)
    out["node.sessions_opened"] = row("node.open_session")[0]

    handle = row("engine.handle_message")
    out["engine.handle_message.calls"] = handle[0]
    out["engine.handle_message.us_per_call"] = _per_call(handle)
    out["engine.unexpected_replies"] = sum(1 for _, (code, _) in encodes if code == 600)

    select = row("peers.select_peers")
    out["peers.select_peers.calls"] = select[0]
    out["peers.select_peers.us_per_call"] = _per_call(select)
    out["peers.upsert.calls"] = row("peers.upsert")[0]
    out["peers.table_size"] = facts.get("table_size", 0)
    out["peers.table_full_drops"] = sum(
        1 for span in tracer.spans if span[1] == "peers.upsert" and span[7] == "TableFullError"
    )

    for name in ("sensors.next_sample", "sensors.store.insert", "sensors.store.lookup", "vendor.to_data_block"):
        out[name + ".calls"] = row(name)[0]
        out[name + ".us_per_call"] = _per_call(row(name))
    lookups = [hit for name, _, _, hit in tracer.observed if name == "sensors.store.lookup"]
    out["sensors.store.lookup.hit_ratio"] = sum(lookups) / len(lookups) if lookups else 0.0
    samples = row("sensors.next_sample")[0]
    tick_blocks = sum(
        1 for span in tracer.spans if span[1] == "vendor.to_data_block" and name_of.get(span[4]) == "node.on_tick"
    )
    out["vendor.to_data_block.calls_per_tick"] = tick_blocks / samples if samples else 0.0

    feed = row("tcpnet.feed")
    out["tcpnet.feed.calls"] = feed[0]
    out["tcpnet.feed.us_per_call"] = _per_call(feed)
    out["tcpnet.transport_us"] = facts.get("transport_us", 0.0)

    for layer, seconds in tracer.layer_self().items():
        out["layer.%s.self_s" % layer] = seconds
    out["trace.spans"] = len(tracer.spans)
    return out


def account(layers: dict, wall_s: float, bench_s: float, idle_s: float, overhead_pct: float,
            limit: float) -> str | None:
    """Add the accounting of the traced timeline; returns a problem, if any.

    wall = layer self times + bench + idle + unspanned.  The unspanned rest
    is what no span covers (on TCP: sockets, thread wake-ups, the event
    queue).  It is a problem when it is above `limit` as a share of wall,
    or below -2 %: then spans were counted that are not on the timeline.
    """
    spanned = sum(layers["layer.%s.self_s" % layer] for layer in LAYERS) + bench_s + idle_s
    unspanned = wall_s - spanned
    layers["bench.self_s"] = bench_s
    layers["trace.wall_s"] = wall_s
    layers["trace.idle_s"] = idle_s
    layers["trace.unspanned_s"] = unspanned
    layers["trace.spanned_pct"] = 100.0 * spanned / wall_s
    layers["trace.overhead_pct"] = overhead_pct
    if not -0.02 <= unspanned / wall_s <= limit:
        return "traced time accounting: %.3f s of %.3f s wall not covered by spans, outside [-2%%, %g%%]" % (
            unspanned, wall_s, 100 * limit)
    return None


def span_durations(tracer, name: str) -> list:
    """Durations (s) of the named spans, in start order."""
    return [end - start for _, n, start, end, *_ in sorted(tracer.spans, key=lambda s: s[2]) if n == name]

