"""Seeded input generators for the three benchmark workloads.

Each generator takes the seed and a size ("full" or "tiny") and returns
plain data: scenario text, request lists and bootstrap peers.  The same
seed always gives the same inputs.  Only these inputs reach the program;
the benchmark builds nothing else for it.

No recorded traffic exists for this protocol, so the sizes, rates and
shares below are assumptions; bench/README.md gives the reason for each.
"""

from __future__ import annotations

import random

from openweather.codec import format_timestamp, parse_timestamp

START = "2011-07-20T16:51:29Z"
LOCATION = "6672224 385565 35V"

# sim-hub: link rates from the paper's slowest class up to 10 Mbit/s
LINK_BPS = (56_000, 128_000, 256_000, 512_000, 1_000_000, 10_000_000)

SIZES = {
    # leaves, virtual seconds, request period range (s)
    "sim-hub": {"full": (40, 360, (10, 20)), "tiny": (6, 150, (10, 20))},
    # bootstrap peers (base), op-list length, reconnect every N ops, stored seconds
    "tcp-rpc": {"full": (100, 1000, 50, 3600), "tiny": (100, 120, 20, 300)},
    # sampling cadence (ms)
    "tcp-stream": {"full": (15,), "tiny": (15,)},
}

# tcp-rpc mix, in shares of the op list (exact, then shuffled by the seed)
RPC_MIX = (("discover", 0.25), ("peers", 0.15), ("fetch", 0.33), ("fetch1", 0.22), ("miss", 0.05))


def _hex_id(rng: random.Random) -> str:
    return "%064x" % rng.getrandbits(256)


def sim_hub(seed: int, size: str = "full") -> dict:
    """A hub streaming to leaves; half the leaves also send requests.

    Returns the scenario text, the virtual horizon and which leaves only
    listen (the bench needs that to label hangups).
    """
    leaves, horizon_s, (period_lo, period_hi) = SIZES["sim-hub"][size]
    rng = random.Random(seed)
    names = ["leaf%02d" % i for i in range(leaves)]
    active = set(rng.sample(names, leaves // 2))
    lines = [
        "# sim-hub, seed %d" % seed,
        "start %s" % START,
        "node hub interval=1000 seed=%d" % (rng.randrange(1, 1 << 30)),
    ]
    for name in names:
        # leaves sample rarely: the hub's cadence is the load under test
        lines.append("node %s interval=60000 seed=%d" % (name, rng.randrange(1, 1 << 30)))
    for name in names:
        lines.append(
            "link hub %s latency_ms=%d bandwidth=%d" % (name, rng.randint(5, 80), rng.choice(LINK_BPS))
        )
    for index, name in enumerate(names):
        joined = 20 * index
        lines.append("at %d %s handshake hub" % (joined, name))
        lines.append("at %d %s stream hub" % (joined + 1000, name))
        if name not in active:
            continue
        t = joined + 1000 + rng.randint(1000, period_hi * 1000)
        while t < (horizon_s - 5) * 1000:
            verb = rng.choice(("discover", "peers", "fetch"))
            if verb == "fetch":
                # a second the hub has already sampled (it samples from t=1 s)
                second = rng.randint(1, max(1, t // 1000 - 2))
                lines.append("at %d %s fetch hub %s PTU" % (t, name, _timestamp(second * 1000)))
            else:
                lines.append("at %d %s %s hub" % (t, name, verb))
            t += rng.randint(period_lo * 1000, period_hi * 1000)
    return {
        "scenario": "\n".join(lines) + "\n",
        "horizon_s": horizon_s,
        "listen_only": sorted(set(names) - active),
    }


def _timestamp(offset_ms: int) -> str:
    return format_timestamp(parse_timestamp(START) + offset_ms)


def tcp_rpc(seed: int, size: str = "full") -> dict:
    """Bootstrap peers, a stored-sample range and a shuffled request list."""
    peers_base, length, reconnect_every, stored = SIZES["tcp-rpc"][size]
    rng = random.Random(seed)
    peer_count = peers_base + rng.randrange(28)
    bootstrap = ["# node-id ip port bandwidth-class"]
    for _ in range(peer_count):
        bootstrap.append(
            "%s 10.%d.%d.%d %d %d"
            % (_hex_id(rng), rng.randrange(256), rng.randrange(256), rng.randrange(1, 255),
               rng.randrange(1024, 65536), rng.randrange(7))
        )
    ops = []
    for kind, share in RPC_MIX:
        ops.extend([kind] * round(share * length))
    rng.shuffle(ops)
    requests = []
    for kind in ops:
        if kind in ("fetch", "fetch1"):
            services = ["PTU", "WIND", "PRECIPITATION"] if kind == "fetch" else [rng.choice(("PTU", "WIND"))]
            requests.append({"kind": "fetch", "second": rng.randrange(stored), "services": services})
        elif kind == "miss":
            # outside the store: the correct answer is status 601
            requests.append({"kind": "miss", "second": stored + rng.randrange(1, 1000), "services": ["PTU"]})
        else:
            requests.append({"kind": kind})
    return {
        "bootstrap": "\n".join(bootstrap) + "\n",
        "peer_count": peer_count,
        "server_seed": rng.randrange(1, 1 << 30),
        "client_seed": rng.randrange(1, 1 << 30),
        "store": {"seed": rng.randrange(1, 1 << 30), "start": START, "count": stored, "interval_ms": 1000},
        "requests": requests,
        "reconnect_every": reconnect_every,
    }


def tcp_stream(seed: int, size: str = "full") -> dict:
    """One sampling node with two listen-only subscribers."""
    (interval_ms,) = SIZES["tcp-stream"][size]
    rng = random.Random(seed)
    return {
        "server_seed": rng.randrange(1, 1 << 30),
        "client_seeds": [rng.randrange(1, 1 << 30) for _ in range(2)],
        "generator": {
            "interval_ms": interval_ms,
            "seed": rng.randrange(1, 1 << 30),
            "temperature_step": rng.randint(1, 3),
            "humidity_step": rng.randint(1, 3),
            "pressure_step": rng.randint(1, 3),
            "direction_step": rng.randint(1, 5),
            "speed_step": rng.randint(1, 3),
            "gust_spread": rng.randint(0, 10),
            "direction_spread": rng.randint(0, 20),
            "rain_probability": 0.1,
        },
    }


GENERATORS = {"sim-hub": sim_hub, "tcp-rpc": tcp_rpc, "tcp-stream": tcp_stream}
