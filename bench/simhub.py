"""The sim-hub workload: one hub streaming to leaves on the simulator.

The run is chunked into virtual seconds so that the wall time of each one
is a latency sample; chunking does not change the trace (the loop handles
events in time order either way).  A check pass re-runs the scenario with
every delivered frame decoded and validated and every reply matched to
its request.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict, deque

from openweather.codec import CodecError, decode, validate
from openweather.engine import SessionState
from openweather.scenario import SimRunner, parse_scenario

from metrics import OBSERVERS, Failures, account, layer_metrics, timing
from tracer import Tracer

SETUP_REPEATS = 8  # timed builds before each repetition; setup_s is their median
UNSPANNED_LIMIT = 0.01  # share of the traced wall time that spans may leave uncovered
HUB = "hub"
# request type -> the reply type that answers it (200 is answered by the stream)
REPLIES = {100: 101, 102: 103, 107: 105, 201: 301, 202: 500}


def _build(text: str) -> SimRunner:
    return SimRunner(parse_scenario(text))


def _run_chunked(runner: SimRunner, horizon_s: int) -> tuple:
    """Run one virtual second at a time; returns (trace, per-second wall s)."""
    steps = []
    clock = time.perf_counter
    for second in range(1, horizon_s + 1):
        start = clock()
        runner.run(until_ms=second * 1000)
        steps.append(clock() - start)
    return runner.trace, steps


def _canonical(trace: list) -> list:
    return sorted((e.time_ms, e.src, e.dst, e.kind, e.code, e.size) for e in trace)


def _order_diffs(reference: list, trace: list) -> int:
    return sum(1 for a, b in zip(reference, trace) if a != b) + abs(len(reference) - len(trace))


class _Checker:
    """Decodes each delivery and pairs every reply with its request."""

    def __init__(self, start_ms: int = 0):
        self.start_ms = start_ms
        self.pending = defaultdict(deque)  # conn_id -> deque of (reply code, timestamp)
        self.requests = 0
        self.streamed = defaultdict(int)  # leaf -> type-300 frames received
        self.failures = Failures()

    def fail(self, what: str) -> None:
        self.failures.add(what)

    def deliver(self, delivery) -> None:
        at = delivery.time_ms - self.start_ms
        try:
            envelope = decode(delivery.frame.rstrip(b"\n"))
        except CodecError as exc:
            self.fail("t=%d %s->%s undecodable: %s" % (at, delivery.src, delivery.dst, exc))
            return
        report = validate(envelope)
        if not report.ok:
            self.fail("t=%d %s->%s invalid: %s" % (at, delivery.src, delivery.dst, report.problems))
        code = int(envelope.type_code)
        if delivery.dst == HUB:
            self.requests += 1
            if code in REPLIES:
                stamp = envelope.retrieve.timestamp if envelope.retrieve is not None else None
                self.pending[delivery.conn_id].append((REPLIES[code], stamp))
            elif code != 200:
                self.fail("t=%d %s sent type %d" % (at, delivery.src, code))
            return
        if code == 300:
            self.streamed[delivery.dst] += 1
            return
        queue = self.pending[delivery.conn_id]
        if not queue:
            self.fail("t=%d %s got unrequested type %d" % (at, delivery.dst, code))
            return
        wanted, stamp = queue.popleft()
        if code != wanted:
            self.fail("t=%d %s got type %d, wanted %d" % (at, delivery.dst, code, wanted))
        elif code == 301 and envelope.meta.timestamp != stamp:
            self.fail("t=%d %s: fetch of %s echoed %s" % (at, delivery.dst, stamp, envelope.meta.timestamp))


def _check_pass(inputs: dict) -> tuple:
    runner = _build(inputs["scenario"])
    checker = _Checker(runner.scenario.start_ms)
    advance = runner.net.advance

    def checked_advance(delta_ms):
        deliveries = advance(delta_ms)
        for delivery in deliveries:
            checker.deliver(delivery)
        return deliveries

    runner.net.advance = checked_advance
    trace, _ = _run_chunked(runner, inputs["horizon_s"])
    for conn_id, queue in checker.pending.items():
        if queue:
            checker.fail("connection %d: %d requests never answered" % (conn_id, len(queue)))
    leaves = [name for name in runner.nodes if name != HUB]
    for leaf in leaves:
        if not checker.streamed[leaf]:
            checker.fail("%s subscribed but never received a type-300 frame" % leaf)
    return runner, trace, checker


def _virtual_latencies(trace: list) -> dict:
    """Request->reply and stream send->receive delays in virtual ms."""
    asked = defaultdict(deque)
    streamed = defaultdict(deque)
    reply_vms, stream_vms = [], []
    reply_codes = set(REPLIES.values())
    for event in trace:
        if event.kind == "send" and event.dst == HUB and event.code in REPLIES:
            asked[event.src].append(event.time_ms)
        elif event.kind == "send" and event.src == HUB and event.code == 300:
            streamed[event.dst].append(event.time_ms)
        elif event.kind == "recv" and event.src == HUB and event.code == 300:
            stream_vms.append(event.time_ms - streamed[event.dst].popleft())
        elif event.kind == "recv" and event.src == HUB and event.code in reply_codes:
            reply_vms.append(event.time_ms - asked[event.dst].popleft())
    return {"reply": timing(reply_vms), "stream": timing(stream_vms)}


def run(inputs: dict, seconds: float, traced: bool, spans_path=None) -> dict:
    text, horizon_s = inputs["scenario"], inputs["horizon_s"]
    listen_only = set(inputs["listen_only"])

    reference = None
    order_diffs = 0
    mismatched = 0
    setup, walls, cpus, steps, events = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    # set-up is timed throughout the run, so it sees the machine the
    # repetitions see and not only the first second of the process
    while not walls or (not traced and time.perf_counter() < deadline):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            runner = _build(text)
            setup.append(time.perf_counter() - start)
        cpu, start = time.process_time(), time.perf_counter()
        trace, rep_steps = _run_chunked(runner, horizon_s)
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        steps.extend(step * 1000.0 for step in rep_steps)
        events += len(trace)
        if reference is None:
            reference, reference_canonical = trace, _canonical(trace)
        else:
            order_diffs = max(order_diffs, _order_diffs(reference, trace))
            mismatched += _canonical(trace) != reference_canonical
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner, check_trace, checker = _check_pass(inputs)
    order_diffs = max(order_diffs, _order_diffs(reference, check_trace))
    mismatched += _canonical(check_trace) != reference_canonical
    delivered = sum(1 for event in reference if event.kind == "recv")
    hub = runner.nodes[HUB].runtime
    hung_up = sorted(
        conn.other(HUB) for conn, session in hub.sessions.items() if session.state is SessionState.CLOSED
    )

    layers = None
    if traced:
        tracer = Tracer()
        runner = _build(text)
        tracer.install(OBSERVERS)
        try:
            cpu, start = time.process_time(), time.perf_counter()
            trace, _ = _run_chunked(runner, horizon_s)
            wall = time.perf_counter() - start
            traced_cpu = time.process_time() - cpu
        finally:
            tracer.uninstall()
        order_diffs = max(order_diffs, _order_diffs(reference, trace))
        mismatched += _canonical(trace) != reference_canonical
        in_run = sum(end - begin for _, name, begin, end, *_ in tracer.spans if name == "scenario.run")
        untraced_cpu = statistics.median(cpus)
        facts = {
            "trace_order_diffs": order_diffs,
            "dropped": runner.net.dropped,
            "table_size": len(runner.nodes[HUB].runtime.engine.peer_table),
            "sessions_held": len(runner.nodes[HUB].runtime.sessions),
            "listen_only": lambda key: key.other(HUB) in listen_only,
        }
        overhead_pct = 100.0 * (traced_cpu - untraced_cpu) / untraced_cpu
        # one thread: scenario.run spans cover the simulation, the bench's
        # chunking loop the rest, so nothing is left unspanned but timer reads
        layers = layer_metrics(tracer, facts)
        problem = account(layers, wall, wall - in_run, 0.0, overhead_pct, UNSPANNED_LIMIT)
        if problem:
            checker.fail(problem)
        if spans_path is not None:
            tracer.write(spans_path)

    if mismatched:
        checker.fail("%d runs gave a different set of trace events than the first" % mismatched)
    step_ms = timing(steps)
    virtual = _virtual_latencies(reference)
    sends = [event.size for event in reference if event.kind == "send"]
    fetch_sizes = [event.size for event in reference if event.kind == "send" and event.code == 301]
    attempted = checker.requests + sum(checker.streamed.values())
    failed = checker.failures.count
    metrics = {
        "throughput_per_s": events / sum(walls),
        "latency_p50_ms": step_ms["p50"],
        "latency_p99_ms": step_ms["p99"],
        "wire_bytes_per_msg": statistics.fmean(sends),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    named = [
        ("cpu_us_per_msg", statistics.median(cpus) * 1e6 / delivered, "us", "CPU us per delivered frame"),
        ("step_n", step_ms["n"], "count"),
        ("step_tail_ms", step_ms["tail"], "ms", "p%g" % step_ms["tail_p"]),
        ("reply_vms_p50", virtual["reply"]["p50"], "vms"),
        ("reply_vms_p99", virtual["reply"]["p99"], "vms"),
        ("reply_n", virtual["reply"]["n"], "count"),
        ("stream_vms_p50", virtual["stream"]["p50"], "vms"),
        ("stream_vms_p99", virtual["stream"]["p99"], "vms"),
        ("stream_n", virtual["stream"]["n"], "count"),
        ("fetch_ptu_reply_bytes", statistics.fmean(fetch_sizes) if fetch_sizes else 0.0, "B"),
        ("subscribers_hung_up", len(hung_up), "count", "listen-only: %d" % len(set(hung_up) & listen_only)),
        ("trace_order_diffs", order_diffs, "count"),
        ("trace_events", len(reference), "count"),
        ("repetitions", len(walls), "count"),
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures.notes,
        "metrics": metrics,
        "named": named,
        "layers": layers,
    }
