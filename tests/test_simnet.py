"""Virtual network: serialization delay, queuing, ordering, loss."""

import math

import pytest

from openweather.simnet import Delivery, LinkSpec, NoLinkError, SimError, VirtualNetwork


def network(latency_ms=0, bandwidth_bps=56000, loss=0.0, seed=0):
    net = VirtualNetwork(seed=seed)
    net.set_link("a", "b", LinkSpec(latency_ms=latency_ms, bandwidth_bps=bandwidth_bps, loss=loss))
    return net, net.connect("a", "b")


def test_serialization_delay_of_the_big_frame():
    # an 815-byte frame on a 56 kbit/s link takes exactly 117 ms
    net, conn = network()
    frame = b"x" * 814 + b"\n"
    arrival = net.send(conn, "a", frame)
    assert arrival == math.ceil(815 * 8 * 1000 / 56000) == 117
    (delivery,) = net.advance(117)
    assert delivery.time_ms == 117
    assert delivery.frame == frame
    assert (delivery.src, delivery.dst) == ("a", "b")


def test_minimum_one_tick_of_latency():
    net, conn = network(bandwidth_bps=10**9)
    arrival = net.send(conn, "a", b"x\n")
    assert arrival == 1
    assert net.advance(0) == []
    assert len(net.advance(1)) == 1


def test_latency_adds_after_serialization():
    net, conn = network(latency_ms=40)
    frame = b"x" * 699 + b"\n"  # 700 bytes -> 100 ms at 56 kbit/s
    assert net.send(conn, "a", frame) == 140


def test_busy_pipe_queues_frames():
    net, conn = network()
    frame = b"x" * 699 + b"\n"  # 100 ms each
    first = net.send(conn, "a", frame)
    second = net.send(conn, "a", frame)
    assert (first, second) == (100, 200)
    # the reverse direction has its own pipe
    assert net.send(conn, "b", frame) == 100


def test_pipe_frees_up_as_time_passes():
    net, conn = network()
    frame = b"x" * 699 + b"\n"
    net.send(conn, "a", frame)
    net.advance(150)
    assert net.send(conn, "a", frame) == 250  # starts at 150, not at 100


def test_deliveries_come_out_in_time_order():
    net = VirtualNetwork()
    net.set_link("a", "b", LinkSpec(bandwidth_bps=56000))
    net.set_link("a", "c", LinkSpec(bandwidth_bps=10**8))
    slow = net.connect("a", "b")
    fast = net.connect("a", "c")
    net.send(slow, "a", b"x" * 699 + b"\n")
    net.send(fast, "a", b"y\n")
    times = [d.time_ms for d in net.advance(5000)]
    assert times == sorted(times) == [1, 100]


def test_fifo_per_connection():
    net, conn = network(bandwidth_bps=10**9)
    for n in range(5):
        net.send(conn, "a", b"%d\n" % n)
    frames = [d.frame for d in net.advance(10)]
    assert frames == [b"0\n", b"1\n", b"2\n", b"3\n", b"4\n"]


def test_next_event_and_partial_advance():
    net, conn = network()
    net.send(conn, "a", b"x" * 699 + b"\n")
    assert net.next_event_ms() == 100
    assert net.advance(50) == []
    assert net.clock.now_ms == 50
    assert len(net.advance(50)) == 1
    assert net.next_event_ms() is None


def test_loss_is_deterministic_per_seed():
    def run(seed):
        net = VirtualNetwork(seed=seed)
        net.set_link("a", "b", LinkSpec(bandwidth_bps=10**9, loss=0.5))
        conn = net.connect("a", "b")
        for _ in range(200):
            net.send(conn, "a", b"x\n")
        return len(net.advance(10**6)), net.dropped

    first = run(7)
    assert first == run(7)
    delivered, dropped = first
    assert delivered + dropped == 200
    assert 0 < delivered < 200


def test_lossless_by_default():
    net, conn = network()
    for _ in range(50):
        net.send(conn, "a", b"x\n")
    assert len(net.advance(10**6)) == 50
    assert net.dropped == 0


def test_unknown_link_raises():
    net = VirtualNetwork()
    with pytest.raises(NoLinkError):
        net.link("a", "b")
    net.set_link("a", "b", LinkSpec())
    with pytest.raises(NoLinkError):
        net.connect("a", "z")


def test_clock_only_moves_forward():
    net, _ = network()
    with pytest.raises(SimError):
        net.advance(-1)


def test_identical_runs_produce_identical_traces():
    def run():
        net = VirtualNetwork(seed=3)
        net.set_link("a", "b", LinkSpec(latency_ms=5, bandwidth_bps=56000, loss=0.2))
        conn = net.connect("a", "b")
        log = []
        for n in range(30):
            net.send(conn, "a", bytes(range(n % 250)) + b"\n")
            log.extend((d.time_ms, d.frame) for d in net.advance(40))
        log.extend((d.time_ms, d.frame) for d in net.advance(10**6))
        return log

    assert run() == run()


def test_delivery_hands_back_the_senders_type_code():
    net, conn = network(bandwidth_bps=1_000_000)
    net.send(conn, "a", b"x\n", 300)
    net.send(conn, "b", b"y\n", 101)
    net.send(conn, "a", b"z\n")
    assert [(d.src, d.frame, d.code) for d in net.advance(10**6)] == [
        ("a", b"x\n", 300),
        ("b", b"y\n", 101),
        ("a", b"z\n", 0),
    ]


def test_lost_frame_returns_none_whatever_its_code():
    net, conn = network(loss=1.0)
    assert net.send(conn, "a", b"x\n", 300) is None
    assert net.advance(10**6) == []
    assert net.dropped == 1


def test_delivery_built_without_a_code_reads_zero():
    assert Delivery(1000, 1, "hub", "leaf00", b"{}\n").code == 0
