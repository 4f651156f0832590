"""The bytes of a seeded request-reply replay, pinned as one hash.

tests/test_replay.py pins 68 frames one by one; this replays a longer mix
in process, shaped like the tcp-rpc benchmark workload.  A node holding an
hour of stored samples and a table of 100 to 127 peers answers one
requester: service discovery, type-107 listings, fetches of a stored
second (all three services, or one) and fetches outside the store.  The
requester reconnects, and handshakes again, every 50 requests, and runs
the shuffled list of 1,000 requests twice.  Then it subscribes to the
stream for 20 seconds, whose first tick makes up the samples taken while
the requests ran, and stops.  Every frame either side emits goes into
one hash, in order, so a change to any byte of any reply shows.

To print the hash and frame count of a run:

    PYTHONPATH=src:tests python -c "import test_rpc_replay as t; print(t.replay())"
"""

import hashlib
import random

from openweather.codec import UtmLocation, format_timestamp
from openweather.engine import NodeConfig
from openweather.node import NodeRuntime, Outbound
from openweather.peers import PeerRecord
from openweather.sensors import GeneratorConfig, SampleGenerator, SampleStore

START_MS = 1311180689000  # 2011-07-20T16:51:29Z, the first stored second
STORED = 3600  # seconds in the node's store, one sample each
LOCATION = UtmLocation(6672224, 385565, "35V")
REQUESTS = 1000
RECONNECT_EVERY = 50
# request kinds, in shares of the list (exact, then shuffled)
MIX = (("discover", 0.25), ("peers", 0.15), ("fetch", 0.33), ("fetch1", 0.22), ("miss", 0.05))

PINNED = ("544c580f52627b3a", 4110)  # (first 16 hex digits of the sha256 over every frame, frame count)


def _config(n: int, **overrides) -> NodeConfig:
    return NodeConfig(node_id="%064x" % n, location=LOCATION, bandwidth=6, **overrides)


def _requests(rng: random.Random) -> list:
    kinds = [kind for kind, share in MIX for _ in range(round(share * REQUESTS))]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        if kind == "fetch":
            requests.append(("fetch", ("PTU", "WIND", "PRECIPITATION"), rng.randrange(STORED)))
        elif kind == "fetch1":
            requests.append(("fetch", (rng.choice(("PTU", "WIND")),), rng.randrange(STORED)))
        elif kind == "miss":  # after the newest stored second: answered with status 601
            requests.append(("fetch", ("PTU",), STORED + rng.randrange(1, 1000)))
        else:
            requests.append((kind, None, None))
    return requests


def replay() -> tuple:
    """Run the replay; returns (first 16 hex digits of the hash, frame count)."""
    rng = random.Random(1)
    store = SampleStore()
    filler = SampleGenerator(GeneratorConfig(interval_ms=1000, seed=rng.randrange(1, 1 << 30)))
    for second in range(STORED):
        store.insert(filler.next_sample(START_MS + 1000 * second))
    now = START_MS + 1000 * STORED
    server = NodeRuntime(
        _config(2, port=62535),
        generator=SampleGenerator(GeneratorConfig(interval_ms=1000, seed=rng.randrange(1, 1 << 30))),
        store=store,
        rng=random.Random(rng.randrange(1, 1 << 30)),
        local_ip="127.0.0.1",
        start_ms=now,
    )
    for _ in range(100 + rng.randrange(28)):
        server.engine.peer_table.upsert(PeerRecord(
            node_id="%064x" % rng.getrandbits(256),
            peer_ip="10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
            port=rng.randrange(1024, 65536),
            bandwidth=rng.randrange(7),
            last_rx=now,
        ))
    client = NodeRuntime(_config(1, port=50000, peers_requested=100), local_ip="127.0.0.1", start_ms=now)
    requests = _requests(rng)
    digest = hashlib.sha256()
    frames = 0

    def deliver(outputs, receiver, now_ms):
        # hash every frame, then hand it on; the replies come back the same way
        nonlocal frames
        for output in outputs:
            assert isinstance(output, Outbound)
            digest.update(output.frame)
            frames += 1
            if receiver is server and output.key not in server.sessions:
                server.open_session(output.key, now_ms)
            deliver(receiver.on_frame(output.key, output.frame[:-1], now_ms), client if receiver is server else server,
                    now_ms)

    key = None
    for index in range(2 * REQUESTS):
        now += 3
        if index % RECONNECT_EVERY == 0:
            if key is not None:
                client.on_disconnect(key, now)
                server.on_disconnect(key, now)
            key = index
            deliver(client.connect(key, now), server, now)
        kind, services, second = requests[index % REQUESTS]
        if kind == "discover":
            deliver(client.request_services(key, now), server, now)
        elif kind == "peers":
            deliver(client.request_peers(key, now), server, now)
        else:
            deliver(client.request_on_demand(key, services, format_timestamp(START_MS + 1000 * second), now), server,
                    now)
    deliver(client.request_realtime(key, now), server, now)
    for _ in range(80):
        now += 250
        deliver(server.on_tick(now), client, now)
    deliver(client.stop_realtime(key, now), server, now)
    return digest.hexdigest()[:16], frames


def test_rpc_replay_emits_the_pinned_bytes():
    assert replay() == PINNED
