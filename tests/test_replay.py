"""The bytes one node emits over a seeded in-process replay, pinned frame by frame.

Trace lines carry only frame sizes, so this is the check that a change to
how replies are built (their headers above all) leaves every byte alone.
One NodeRuntime serves two connections from a requester runtime: a
handshake on each, then a seeded mix of service discovery, type-107
listings drawn from a table of 105 peers, and fetches that hit and miss
at several requested seconds.  Both connections subscribe to the stream,
whose 700 ms cadence crosses second boundaries between the requests.

To see the frames of a run:

    PYTHONPATH=src:tests python -c "import test_replay as t; print(t.replay())"
"""

import hashlib
import random

from openweather.codec import UtmLocation, format_timestamp
from openweather.engine import NodeConfig
from openweather.node import NodeRuntime, Outbound
from openweather.peers import PeerRecord
from openweather.sensors import GeneratorConfig, SampleGenerator

START_MS = 1311180689000  # 2011-07-20T16:51:29Z
LOCATION = UtmLocation(6672224, 385565, "35V")

# (emitter, type code, first 12 hex digits of the frame's sha256), in emission order
PINNED = (
    ("client", 100, "bc5482ac309d"), ("server", 101, "773856f9496f"), ("client", 100, "bc5482ac309d"),
    ("server", 101, "773856f9496f"), ("client", 201, "89484d2e79db"), ("server", 601, "abcc4f6a13f6"),
    ("client", 201, "3df29b8ba505"), ("server", 601, "abcc4f6a13f6"), ("client", 201, "697cc0bfcc90"),
    ("server", 301, "f5161e425616"), ("client", 200, "63771011a7bb"), ("server", 300, "d3741ea3f553"),
    ("client", 201, "4ed82d7ef38e"), ("server", 301, "f5161e425616"), ("client", 102, "c180477fe920"),
    ("server", 103, "5ae3f3b2120c"), ("client", 201, "fbff6d0ff5d0"), ("server", 601, "fb671e07d374"),
    ("server", 300, "7ec17cdf4c2b"), ("client", 107, "c49ad8a71c48"), ("server", 105, "03b57ac583ae"),
    ("client", 201, "6946c4d20f8a"), ("server", 301, "f5161e425616"), ("client", 201, "6fe68a7a788f"),
    ("server", 301, "d5e7a58bea95"), ("server", 300, "0359e8ad84c7"), ("client", 200, "a45ce45bdbea"),
    ("server", 300, "0359e8ad84c7"), ("client", 102, "a19e1c17738c"), ("server", 103, "74bded2adb6d"),
    ("client", 201, "df2dd9597176"), ("server", 301, "d5e7a58bea95"), ("client", 201, "96ceb70c208b"),
    ("server", 301, "f5161e425616"), ("server", 300, "b176abef5d12"), ("server", 300, "b176abef5d12"),
    ("client", 201, "11fc013af717"), ("server", 301, "f5161e425616"), ("client", 201, "152023dc3c2a"),
    ("server", 301, "d5e7a58bea95"), ("server", 300, "2acedcb5661c"), ("server", 300, "2acedcb5661c"),
    ("client", 107, "8b25881c8b4f"), ("server", 105, "6c5a61525d8c"), ("client", 107, "8b25881c8b4f"),
    ("server", 105, "c164fa6e8aa1"), ("client", 201, "067da405148c"), ("server", 301, "d5e7a58bea95"),
    ("server", 300, "a6c3a1f14b8f"), ("server", 300, "a6c3a1f14b8f"), ("client", 107, "f2b5546ad12b"),
    ("server", 105, "4f429f4eaa2d"), ("client", 102, "3d241eacbbb3"), ("server", 103, "3af461076f47"),
    ("server", 300, "038c8d1cf133"), ("server", 300, "038c8d1cf133"), ("client", 201, "989110410233"),
    ("server", 301, "f05cdba0d4e4"), ("client", 201, "6376badc0b68"), ("server", 601, "0cca29ff87e0"),
    ("server", 300, "f90f896cdece"), ("server", 300, "f90f896cdece"), ("client", 102, "849112364478"),
    ("server", 103, "70ee8dfb2fe0"), ("client", 201, "2f8baf401a2c"), ("server", 301, "d9df38008a13"),
    ("client", 201, "edfc40ba5df0"), ("server", 301, "f05cdba0d4e4"),
)


def _config(n: int, **overrides) -> NodeConfig:
    return NodeConfig(
        node_id="%064x" % n, location=LOCATION, bandwidth=6, advertise_ip="172.21.25.%d" % (10 + n), **overrides
    )


def replay() -> list:
    """Run the replay; returns (emitter, type code, sha256 prefix) per emitted frame."""
    rng = random.Random(2011)
    weather = GeneratorConfig(
        interval_ms=700, seed=3, temperature_step=4, humidity_step=3, pressure_step=2, direction_step=5,
        speed_step=2, gust_spread=4, direction_spread=10, rain_probability=0.3,
    )
    server = NodeRuntime(_config(2), generator=SampleGenerator(weather), rng=random.Random(105), start_ms=START_MS)
    for _ in range(105):
        server.engine.peer_table.upsert(PeerRecord(
            node_id="%064x" % rng.getrandbits(256),
            peer_ip="10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
            port=rng.randint(1024, 65535),
            bandwidth=rng.randint(0, 9),
            last_rx=START_MS,
        ))
    client = NodeRuntime(_config(1, peers_requested=100), start_ms=START_MS)
    emitted = []

    def deliver(outputs, receiver, now_ms):
        # record every frame, then hand it on; the replies come back the same way
        for output in outputs:
            assert isinstance(output, Outbound)
            emitted.append(("client" if receiver is server else "server", output.code,
                            hashlib.sha256(output.frame).hexdigest()[:12]))
            if receiver is server and output.key not in server.sessions:
                server.open_session(output.key, now_ms)
            deliver(receiver.on_frame(output.key, output.frame[:-1], now_ms), client if receiver is server else server,
                    now_ms)

    now = START_MS
    for key in ("a", "b"):
        deliver(client.connect(key, now), server, now)
    for step in range(24):
        now += rng.randint(40, 450)
        deliver(server.on_tick(now), client, now)
        if step in (3, 9):
            deliver(client.request("ab"[step == 9], "stream", now), server, now)
        action = rng.choice(("services", "peers", "hit", "hit", "miss"))
        if action == "services":
            deliver(client.request("a", "discover", now), server, now)
        elif action == "peers":
            deliver(client.request("a", "peers", now), server, now)
        else:
            stored = [START_MS + 700 * n for n in range(1, (now - START_MS) // 700 + 1)]
            if action == "hit" and stored:
                wanted = rng.choice(stored)
            else:  # a second before the first sample or after the newest
                wanted = rng.choice((START_MS - 1000 * rng.randint(1, 30), now + 1000 * rng.randint(1, 5)))
            services = rng.sample(("PTU", "WIND", "PRECIPITATION"), rng.randint(1, 3))
            deliver(client.request("a", "fetch", now, services, format_timestamp(wanted)), server, now)
    return emitted


def test_replay_emits_the_pinned_frames():
    emitted = replay()
    codes = {code for _, code, _ in emitted}
    assert {100, 101, 102, 103, 105, 107, 200, 201, 300, 301, 601} <= codes
    assert emitted == list(PINNED)
