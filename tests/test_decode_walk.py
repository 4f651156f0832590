"""The one-walk decoder against the reference inbound path.

decode_checked must return what decode_reference.decode_checked returns
(decode, then validate) for any input, type for type, or raise the same
class with the same message; decode must match the reference decode in
the same way.  The inputs are trees, well-formed or hostile, built by one
generator from a chooser, which Hypothesis drives in one test and a seeded
random.Random in the other.
"""

import hashlib
import json
import random

from hypothesis import HealthCheck, given, settings, strategies as st

import captures
import decode_reference as reference
from openweather.codec import SERVICE_FLAGS, SERVICES, Envelope, decode, decode_checked

CLEAN_ID = "0123456789abcdef" * 4
CLEAN_TIME = "2011-07-20T16:51:29Z"
ODD = (None, True, False, 0, -1, 1.5, [], ["x"], {}, {"x": None}, "", "x", "007", "9" * 5000)


class Raw(str):
    """JSON text written as it is, for numbers json.dumps would refuse or reformat."""


NUMERALS = (Raw("9" * 5000), Raw("1e3"), Raw("-0"), Raw("12.50"))
TEXT_NUMERALS = ("62535", "062535", "+1", " 1", "1_0", "\u0663", "-5", "1\n", "9" * 5000)


def header_values(key: str) -> tuple:
    """Values a "MetaInfo" member may hold: mostly its clean ones, then hostile ones."""
    if key == "ID":
        clean = (CLEAN_ID, "%064x" % 7)
        odd = (CLEAN_ID.upper(), CLEAN_ID[:63], CLEAN_ID + "\n", 5)
    elif key == "Peer-IP":
        clean = ("172.21.25.16", "::1")
        odd = ("999.1.1.1", "", 167772161, "10.0.0.1 ")
    elif key == "Location":
        clean = ("6672224 385565 35V", "5 2 1A", "005 0002 35V")
        odd = ("-5 -2 35V", "-5 -2 ZZ9", "5 -2 1", "5  2 35V", "5\u20032 35V", " 5 2 35V", "5 2 35V\n", "5\x1c2 35V",
               "5 2", "5 2 35V 1", "north east 35V", "5 2 ZZ9", "+5 2 35V", "5 2_0 35V", "9" * 5000 + " 2 35V",
               "5 2 35\u2003V", 5)
    elif key == "Timestamp":
        clean = (CLEAN_TIME, "2011-07-20T16:51:29")
        odd = ("2011-13-20T16:51:29Z", "yesterday", CLEAN_TIME + "\n", 1311180689)
    elif key == "Version":
        clean = ("OpenWeather/1.0",)
        odd = ("OpenWeather/1.0\n", "Weather/1", 1)
    else:  # the integer members
        clean = {"Bandwidth": (0, 6), "Port": (62535, 1, 65535), "Peers-Requested": (20, 1, 100)}.get(key, (120000, 1))
        odd = (0, -1, 65536, 101, "062535", "-5") + TEXT_NUMERALS + NUMERALS
    return clean, odd + ODD


META_MEMBERS = ("ID", "Peer-IP", "Location", "Bandwidth", "Timestamp", "Port", "Update-Interval",
                "Peers-Requested", "Keep-Alive", "Version")
LEAF_VALUES = ("1014.1", "0", "-0.5", "", 160, Raw("19.10"), True, None, [], {}, {"deep": 1}, "é")
DATA_PATHS = {
    "PTU": {(): ("Air-Pressure", "Air-Temperature", "Relative-Humidity")},
    "WIND": {("Direction",): ("min", "ave", "max"), ("Speed",): ("min", "ave", "max")},
    "PRECIPITATION": {("Rain",): ("accumulation", "duration", "intensity", "peak"),
                      ("Hail",): ("accumulation", "duration", "intensity", "peak")},
}
CODES = (100, 101, 102, 103, 105, 107, 200, 201, 202, 300, 301, 500, 600, 601, 650)


class Frames:
    """Builds frames from choose(options) -> one of options.

    One frame in three is tidy: every member is present and clean, so
    that the frames reach every stage of the walk and many pass it.
    """

    def __init__(self, choose):
        self.choose = choose
        self.hostile = True

    def often(self, one_in: int = 8) -> bool:
        return not self.hostile or self.choose(range(one_in)) != 0

    def value(self, clean: tuple, odd: tuple):
        return self.choose(clean) if self.often() else self.choose(odd)

    def shuffled(self, members: list) -> dict:
        order = []
        pool = list(members)
        while pool:
            order.append(pool.pop(self.choose(range(len(pool)))))
        return dict(order)

    def fixed(self, values: dict) -> dict:
        """An object of fixed keys: now and then one is dropped or an unknown one added, in any order."""
        members = [(key, value) for key, value in values.items() if self.often(12)]
        if not self.often(6):
            members.append((self.choose(("Extra", "note", "Retrive")), self.choose(ODD)))
        return self.shuffled(members)

    def meta(self):
        if not self.often(40):
            return self.choose(ODD)
        return self.fixed({key: self.value(*header_values(key)) for key in META_MEMBERS})

    def holder(self, leaves: tuple):
        if not self.often(16):
            return self.choose(ODD)
        members = {}
        for leaf in leaves:
            if self.often(10):
                members[leaf] = self.choose(("1014.1", "0", "19.1")) if self.often(4) else self.choose(LEAF_VALUES)
        if not self.often(8):
            members[self.choose(("unit", "Note"))] = self.choose(LEAF_VALUES)
        return self.shuffled(list(members.items()))

    def data(self):
        if not self.often(30):
            return self.choose(ODD)
        member = {}
        for group, holders in DATA_PATHS.items():
            if not self.often(4):
                continue
            if () in holders:
                member[group] = self.holder(holders[()])
                continue
            value = {}
            for (key,), leaves in holders.items():
                if self.often(10):
                    value[key] = self.holder(leaves)
            if not self.often(10):
                value["Extra"] = self.choose(ODD)
            member[group] = value if self.often(20) else self.choose(ODD)
        if not self.often(10):
            member[self.choose(("Retrieve", "Retrive"))] = self.retrieve()
        if not self.often(12):
            member["Other"] = self.choose(ODD)
        return self.shuffled(list(member.items()))

    def listing(self) -> dict:
        size = self.choose((0, 1, 2, 3, 100, 101)) if self.often(4) else self.choose((0, 1, 2))
        rng = random.Random(self.choose(range(1000)))
        entries = []
        for _ in range(size):
            node_id = "%064x" % rng.getrandbits(256) if self.often(20) else self.choose(("short", CLEAN_ID.upper(), ""))
            entry = self.fixed({
                "Peer-IP": self.value(("10.0.%d.%d" % (rng.randrange(256), rng.randrange(1, 255)), "::1"),
                                      ("10.0.0.999", 5, None)),
                "Port": self.value((rng.randint(1, 65535), "62535"), (0, 65536, "+1", True, "9" * 5000, None)),
                "Bandwidth": self.value((rng.randint(0, 8),), (-1, "-4", False, 1.5, None)),
            }) if self.often(30) else self.choose(ODD)
            entries.append((node_id, entry))
        return self.shuffled(entries)

    def info(self, kind: str = "Services"):
        if not self.often(30):
            return self.choose(ODD)
        if not self.often(6):
            kind = self.choose(("Services", "Peers", "both", "neither"))
        members = {}
        if kind in ("Services", "both"):
            count = self.choose(range(1, 4)) if self.often(10) else 0
            names = [self.value(SERVICES, ("FOO", "ptu")) for _ in range(count)]
            members["Services"] = {name: self.value(SERVICE_FLAGS, ("RW", "", 1, True, None)) for name in names}
        if kind in ("Peers", "both"):
            members["Peers"] = self.listing() if self.often(30) else self.choose(ODD)
        if kind == "neither":
            members["Other"] = 1
        return members

    def retrieve(self):
        if not self.often(30):
            return self.choose(ODD)
        services = list(self.shuffled([(name, name) for name in SERVICES]))[: self.choose((1, 2, 3))]
        if not self.often():
            services.append(self.choose(("FOO", 1, True, None, "PTU")))
        wanted = services if self.often() else self.choose(("PTU", [], 5, None, {}))
        return self.fixed({"D": wanted, "Timestamp": self.value((CLEAN_TIME, "2011-05-29T12:10:23"), ("later",))})

    def body(self):
        code = self.value(CODES, (400, 99, 700, "300", "+300", True, 300.0, None, Raw("9" * 5000), [300]))
        members = [("Type", code), ("MetaInfo", self.meta())]
        payloads = {300: ("Data", self.data), 301: ("Data", self.data), 103: ("Info", self.info),
                    105: ("Info", lambda: self.info("Peers")), 201: ("Retrieve", self.retrieve)}
        if code in CODES and code in payloads and self.often(20):  # a list code is unhashable
            key, payload = payloads[code]
            members.append((key, payload()))
        for key in ("Data", "Info", "Retrieve", "Retrive"):
            if not self.often(14):
                members.append((key, {"Data": self.data, "Info": self.info}.get(key, self.retrieve)()))
        kept = [(key, value) for key, value in members if self.often(40)]
        return self.shuffled(kept)

    def tree(self):
        if not self.often(60):
            return self.choose(ODD)
        body = self.body() if self.often(60) else self.choose(ODD)
        return {"OpenWeatherMessage": body} if self.often(60) else {"Other": body}

    def frame(self):
        """The text of a tree, or its UTF-8 bytes; now and then with a BOM or broken."""
        self.hostile = self.choose((True, True, False))
        text = dump(self.tree(), self.choose((" : ", ":", ": ")), self.choose((", ", ",")))
        if not self.often(30):
            text = "\ufeff" + text
        if not self.often(40):
            text = text[: self.choose(range(len(text)))]
        if self.choose((True, False)):
            return text
        raw = text.encode("utf-8")
        return raw if self.often(40) else raw + b"\xff"


def dump(value, colon: str, comma: str) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        members = ("%s%s%s" % (json.dumps(key), colon, dump(item, colon, comma)) for key, item in value.items())
        return "{%s}" % comma.join(members)
    if isinstance(value, list):
        return "[%s]" % comma.join(dump(item, colon, comma) for item in value)
    return json.dumps(value, ensure_ascii=False)


def same_as_reference(raw) -> tuple:
    """Check raw against the reference; returns decode_checked's outcome."""
    checked = reference.outcome(decode_checked, raw)
    assert checked == reference.outcome(reference.decode_checked, raw)
    assert reference.outcome(decode, raw) == reference.outcome(reference.decode, raw)
    return checked


def test_the_captures_match_the_reference():
    for _, text, _, _ in captures.ALL:
        assert same_as_reference(text)[0] is Envelope
        assert same_as_reference(text.encode())[0] is Envelope


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_decode_checked_matches_decode_then_validate(data):
    same_as_reference(Frames(lambda options: data.draw(st.sampled_from(options))).frame())


def test_a_seeded_hash_of_hostile_frames_matches_the_reference():
    ours, theirs = hashlib.sha256(), hashlib.sha256()
    accepted = 0
    refusals = set()
    for seed in range(3000):
        raw = Frames(random.Random(seed).choice).frame()
        checked = reference.outcome(decode_checked, raw)
        ours.update(repr((checked, reference.outcome(decode, raw))).encode())
        expected = (reference.outcome(reference.decode_checked, raw), reference.outcome(reference.decode, raw))
        theirs.update(repr(expected).encode())
        if checked[0] is Envelope:
            accepted += 1
        else:
            refusals.add(checked[1][:40])
    assert ours.hexdigest() == theirs.hexdigest()
    # the frames reach every stage: some pass, and many kinds of refusal show
    assert accepted >= 500 and len(refusals) >= 80, (accepted, len(refusals))
