"""The codec's listing-member memo, checked against the reference renderer.

A memo may only ever skip work: every encode, payload_fragment and validate
must give what the reference gives, whatever was encoded before.  The
module imports no test framework, so the checks also run under a bare
interpreter:

    PYTHONPATH=src:tests python -c "import test_codec_memo as t; t.run_all()"
"""

import random
import sys
import threading

import codec_reference as reference
from openweather import codec
from openweather.codec import (
    Envelope,
    InfoPayload,
    MetaInfo,
    PeerEntry,
    UtmLocation,
    encode,
    format_timestamp,
    payload_fragment,
    validate,
)


class Text(str):
    """A str subclass: hashes and compares like its text."""


def header(n: int = 1, **overrides) -> MetaInfo:
    fields = dict(
        node_id="%064x" % n,
        peer_ip="172.21.25.%d" % (n % 250),
        location=UtmLocation(6672224, 385565, "35V"),
        bandwidth=6,
        timestamp=format_timestamp(1311180689000 + 1000 * n),
    )
    fields.update(overrides)
    return MetaInfo(**fields)


def listing(peers: dict, meta: MetaInfo | None = None) -> Envelope:
    return Envelope(105, meta if meta is not None else header(), info=InfoPayload(peers=peers))


def unmemoised(fn, envelope: Envelope):
    """fn's outcome on envelope with the memo empty, as before anything was encoded."""
    kept = codec._members
    codec._members = {}
    try:
        return reference.outcome(fn, envelope)
    finally:
        codec._members = kept


def same_as_reference(envelope: Envelope) -> None:
    """encode, payload_fragment and validate of envelope all agree with the reference, which validates unmemoised."""
    assert reference.outcome(encode, envelope) == unmemoised(reference.encode, envelope)
    assert reference.outcome(payload_fragment, envelope) == unmemoised(reference.payload_fragment, envelope)
    assert validate(envelope).problems == unmemoised(lambda e: validate(e).problems, envelope)


def test_a_header_encoded_again_matches_the_reference():
    meta = header(3)
    for code in (101, 101, 600, 101):
        same_as_reference(Envelope(code, meta))
    # an equal header holding True where another holds 1 is checked and rendered as itself
    kept = header(4, port=1, bandwidth=1)
    same_as_reference(Envelope(101, kept))
    for odd in (header(4, port=True, bandwidth=1), header(4, port=1, bandwidth=True), header(4, port=1.0, bandwidth=1)):
        assert odd == kept
        same_as_reference(Envelope(101, odd))


def test_a_header_that_fails_never_enters_the_memo():
    clean = header(5)
    encode(Envelope(101, clean))
    for bad in (header(5, location=UtmLocation(1, 2, "bad")), header(5, port=True), header(5, node_id=Text("%064x" % 5))):
        for _ in range(2):
            same_as_reference(Envelope(101, bad))


def test_listing_members_encoded_again_or_swapped_match_the_reference():
    rng = random.Random(105)
    peers = {"%064x" % rng.getrandbits(256): PeerEntry("10.0.0.%d" % n, 62535, n % 7) for n in range(1, 101)}
    for _ in range(2):
        same_as_reference(listing(peers))
    assert all(codec._members[node_id][0] is entry for node_id, entry in peers.items())
    ids = sorted(peers)
    swaps = [
        lambda e: PeerEntry(e.peer_ip, e.port, e.bandwidth),  # equal, another object
        lambda e: PeerEntry(e.peer_ip, e.port + 1, e.bandwidth),  # changed
        lambda e: PeerEntry(e.peer_ip, True, e.bandwidth) if e.port == 1 else PeerEntry(e.peer_ip, 1, 6),
        lambda e: PeerEntry(e.peer_ip, 1, True),  # equal to (ip, 1, 1), which the next swap keeps
        lambda e: PeerEntry(e.peer_ip, 1, 1),
    ]
    for swap in swaps:
        for node_id in ids[::7]:
            peers = dict(peers, **{node_id: swap(peers[node_id])})
            same_as_reference(listing(peers))
            same_as_reference(listing(peers))


def test_an_equal_entry_holding_true_is_checked_and_rendered_anew():
    node_id = "%064x" % 77
    kept = PeerEntry("10.0.0.1", 1, 1)
    same_as_reference(listing({node_id: kept}))
    assert codec._members[node_id][0] is kept
    for odd in (PeerEntry("10.0.0.1", True, 1), PeerEntry("10.0.0.1", 1, True), PeerEntry("10.0.0.1", 1.0, 1)):
        assert odd == kept
        same_as_reference(listing({node_id: odd}))
        assert codec._members[node_id][0] is kept


def test_a_bad_entry_never_enters_the_memo_and_is_reported_every_time():
    node_id = "%064x" % 78
    clean = PeerEntry("10.0.0.1", 62535, 6)
    for bad in (PeerEntry("10.0.0.999", 62535, 6), PeerEntry("10.0.0.1", 0, 6), PeerEntry("10.0.0.1", 62535, -1)):
        envelope = listing({node_id: bad, "%064x" % 79: clean})
        for _ in range(3):
            same_as_reference(envelope)
            assert not validate(envelope).ok
        assert node_id not in codec._members
        assert "%064x" % 79 not in codec._members  # no member of a listing that failed


def test_a_str_subclass_id_never_enters_the_memo():
    text = "%064x" % 80
    entry = PeerEntry("10.0.0.1", 62535, 6)
    for _ in range(2):
        same_as_reference(listing({Text(text): entry}))
    assert text not in codec._members
    same_as_reference(listing({text: entry}))
    assert codec._members[text][0] is entry
    # the kept member under an id of another type is checked and rendered anew
    same_as_reference(listing({Text(text): entry}))


def test_the_listing_memo_stays_bounded():
    rng = random.Random(1024)
    for _ in range(13):  # 1,300 distinct ids
        peers = {"%064x" % rng.getrandbits(256): PeerEntry("10.0.0.1", 62535, 6) for _ in range(100)}
        same_as_reference(listing(peers))
        assert len(codec._members) <= codec._MEMBERS_MAX == 1024


def test_random_sequences_match_the_reference():
    # few objects, many of them equal to each other, so memo hits, misses and swaps interleave
    metas = [header(1), header(1), header(1, port=True), header(1, port=1), header(1, port=1.0), header(2),
             header(2, location=UtmLocation(1, 2, "bad")), header(2, node_id=Text("%064x" % 2))]
    entries = [PeerEntry("10.0.0.1", 1, 6), PeerEntry("10.0.0.1", 1, 6), PeerEntry("10.0.0.1", True, 6),
               PeerEntry("10.0.0.1", 1.0, 6), PeerEntry("10.0.0.1", 1, True), PeerEntry("10.0.0.1", 1, 1),
               PeerEntry("::1", 2, 0), PeerEntry("10.0.0.999", 1, 6), PeerEntry(Text("10.0.0.1"), 1, 6)]
    ids = ["%064x" % n for n in range(6)] + [Text("%064x" % 1), "not-an-id"]
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(400):
            meta = rng.choice(metas)
            if rng.random() < 0.3:
                envelope = Envelope(rng.choice((101, 600)), meta)
            else:
                envelope = listing({rng.choice(ids): rng.choice(entries) for _ in range(rng.randint(0, 5))}, meta)
            same_as_reference(envelope)


def test_threads_encoding_different_headers_get_their_own_bytes():
    metas = [header(n) for n in range(4)]  # more threads than this host has cores
    expected = [reference.encode(Envelope(101, meta)) for meta in metas]
    wrong = []

    def work(index):
        envelope = Envelope(101, metas[index])
        for _ in range(2000):
            if encode(envelope) != expected[index]:
                wrong.append(index)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(metas))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def run_all() -> None:
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
