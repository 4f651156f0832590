"""Wire format for OpenWeather messages.

Every message travelling between nodes is one JSON object with a single
top-level member, "OpenWeatherMessage".  Inside it sit the numeric "Type"
code, the fixed ten-field "MetaInfo" header, and at most one payload:
"Data" (weather measurements), "Info" (protocol-internal data) or
"Retrieve" (an on-demand query).

Encoding is canonical so each message has exactly one byte representation:
keys sorted alphabetically at every depth, ``" : "`` between key and value,
``", "`` between members, one space after ``{`` and before ``}``, and no
newline anywhere.  Measurement values travel as JSON strings so decimal
text survives untouched; the header numerics (Bandwidth, Keep-Alive,
Peers-Requested, Port, Update-Interval) and Type are JSON numbers.

Tables describe each fixed member once.  MEASUREMENTS has a row per
"Data" field (group, block attribute, wire path, NormalizedSample
attribute, default), which the vendor sample mapping reads too.  The
member tables have a row per header or peer-entry member (wire key,
attribute, type, place among validate's problems, check).  At import the
codec compiles from them the format strings that encoding fills (a string
through the stdlib's JSON string escaper, an integer as its digits), the
readers that build each decoded object by position, and validate's checks
of a header and a peer entry.  A new measurement or header member is one
row plus the dataclass field it names.

One memo keeps what a node sends again and again in its peer listings: up
to 1,024 clean listing members, node id -> (PeerEntry, text), cleared when
full.  For those exact entries validate skips their checks and encode skips
rendering them; every header is checked and rendered each time, and encode
still runs validate on every envelope before encoding it.

A second memo keeps what one process receives again and again: up to 64
frames that decode_checked accepted, their exact bytes -> the Envelope,
cleared when full.  A frame seen again returns that Envelope unparsed and
unchecked, which is sound because decode_checked is a pure function of the
bytes and the Envelope is frozen.  Only a bytes object of at most 4 KiB is
kept, and only when its envelope carries no "Info", whose dicts a receiver
could change; a refused frame is never kept and is refused again each
time.  The memo is process-wide because the frames repeat across nodes: a
simulator hosts every node in one process and hands each subscriber the
same stream frame, so a hub's fan-out is decoded once, not once per leaf.

decode parses with one shared JSON decoder and walks the tree once,
reading each fixed-key object in one call when each of its members holds
its wire type.  decode_checked, which a node runs on every inbound frame,
then refuses an envelope with any of validate's problems, listed in
validate's order.  It skips only the checks of "Data", which the walk has
made true: a decoded "Data" holds at least one group, and each of its
measurements is a str.

The decoder is liberal: arbitrary whitespace between JSON tokens and any
key order, numeric fields quoted as strings, timestamps with or without
the trailing "Z", and the historical spellings of the on-demand query (key
"Retrive", or the query nested inside "Data").  A quoted numeric, like
each Location coordinate, must still be an ASCII numeral, an optional "-"
then digits (validate reports a negative value, not decode).  Leading
zeros are accepted and read as their value, so "005" is 5 and re-encodes
as 5; a sign "+", a "_" separator, surrounding whitespace or a non-ASCII
digit is refused.  A Location is exactly three tokens (northing, easting,
zone) one ASCII space apart, with no whitespace around them, so its
separators and zone re-encode as they arrived; its coordinates, like any
numeral, re-encode as their values: "06672224 385565 35V" as
"6672224 385565 35V", and a northing "-0" as 0.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import math
import operator
import re
import threading
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import IntEnum
from json.encoder import encode_basestring as _quote  # the C escaper of json.dumps(ensure_ascii=False)

from .identity import is_node_id

PROTOCOL_VERSION = "OpenWeather/1.0"
DEFAULT_PORT = 62535
DEFAULT_UPDATE_INTERVAL_MS = 120000
DEFAULT_PEERS_REQUESTED = 20
DEFAULT_KEEP_ALIVE_MS = 120000
DEFAULT_BANDWIDTH = 6  # the fastest class, 100 Mbit/s

SERVICE_PTU = "PTU"
SERVICE_WIND = "WIND"
SERVICE_PRECIPITATION = "PRECIPITATION"
SERVICES = (SERVICE_PTU, SERVICE_WIND, SERVICE_PRECIPITATION)
SERVICE_FLAGS = ("R", "O", "RO")


class ProtocolCode(IntEnum):
    """Registered message type codes (R = retrieval, S = status)."""

    HANDSHAKE = 100
    HANDSHAKE_S = 101
    SERVICES_AVAILABLE = 102
    SERVICES_AVAILABLE_R = 103
    SERVICES_AVAILABLE_S = 104
    LIST_PEERS_R = 105
    LIST_PEERS_S = 106
    LIST_PEERS = 107
    REAL_TIME_DATA = 200
    ON_DEMAND_DATA = 201
    STOP_REAL_TIME_DATA = 202
    REAL_TIME_DATA_R = 300
    ON_DEMAND_DATA_R = 301
    REAL_TIME_DATA_S = 500
    ON_DEMAND_DATA_S = 501
    UNEXPECTED_MESSAGE = 600
    SAMPLE_NOT_FOUND = 601
    SERVICE_UNAVAILABLE = 602


ERROR_CODES = range(600, 700)
_FIXED_CODES = frozenset(c.value for c in ProtocolCode if c.value < 600)


def is_registered(code: int) -> bool:
    """True for registry members; the whole 600..699 band counts."""
    return code in _FIXED_CODES or code in ERROR_CODES


class CodecError(ValueError):
    """Base class for wire-format failures."""


class ParseError(CodecError):
    """Input is not well-formed JSON."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class SchemaError(CodecError):
    """JSON is well-formed but a required member is missing or mistyped."""


class UnknownCodeError(CodecError):
    """The Type code is not in the registry."""

    def __init__(self, code: int):
        super().__init__("unknown type code %r" % (code,))
        self.code = code


class EncodeError(CodecError):
    """The envelope violates an invariant and cannot be emitted."""


# matched with fullmatch and over ASCII digits only: "$" also matches before a
# final newline, and "\d" matches any Unicode digit
_TIMESTAMP_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(Z?)")
_ZONE_RE = re.compile(r"[0-9]{1,2}[A-Z]")
_VERSION_RE = re.compile(r"OpenWeather/[0-9]+\.[0-9]+")
_NUMERAL_RE = re.compile(r"-?[0-9]+")  # int() alone also takes "+", "_", spaces and non-ASCII digits
_LOCATION_RE = re.compile(r"(\S+) (\S+) (\S+)")  # three tokens, one ASCII space apart


def format_timestamp(epoch_ms: int) -> str:
    """Render epoch milliseconds as RFC 3339 UTC at second precision."""
    moment = datetime.fromtimestamp(epoch_ms // 1000, tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_timestamp(text: str) -> int:
    """Parse an RFC 3339 UTC timestamp (trailing Z optional) to epoch ms."""
    found = _TIMESTAMP_RE.fullmatch(text)
    if found is None:
        raise ValueError("malformed timestamp %r" % (text,))
    year, month, day, hour, minute, second = (int(g) for g in found.groups()[:6])
    moment = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    return int(moment.timestamp()) * 1000


def _normalize_timestamp(instance) -> None:
    # store the emitted form (with Z) whenever the text parses at all; a text
    # ending in Z already is in that form or does not parse, and stays as it is
    text = instance.timestamp
    if isinstance(text, str) and not text.endswith("Z") and _TIMESTAMP_RE.fullmatch(text):
        object.__setattr__(instance, "timestamp", text + "Z")


@dataclass(frozen=True)
class UtmLocation:
    """Station position as UTM northing, easting and zone (e.g. "35V")."""

    northing: int
    easting: int
    zone: str

    def render(self) -> str:
        return "%d %d %s" % (self.northing, self.easting, self.zone)

    @classmethod
    def parse(cls, text: str) -> "UtmLocation":
        found = _LOCATION_RE.fullmatch(text)
        if found is None:
            raise ValueError("location needs three tokens: %r" % (text,))
        northing, easting, zone = found.groups()
        if _NUMERAL_RE.fullmatch(northing) and _NUMERAL_RE.fullmatch(easting):
            try:
                return cls(int(northing, 10), int(easting, 10), zone)
            except ValueError:  # past int()'s digit limit
                pass
        raise ValueError("location coordinates must be integers: %r" % (text,))


@dataclass(frozen=True)
class MetaInfo:
    """The fixed ten-field header every message carries."""

    node_id: str
    peer_ip: str
    location: UtmLocation
    bandwidth: int
    timestamp: str
    port: int = DEFAULT_PORT
    update_interval_ms: int = DEFAULT_UPDATE_INTERVAL_MS
    peers_requested: int = DEFAULT_PEERS_REQUESTED
    keep_alive_ms: int = DEFAULT_KEEP_ALIVE_MS
    version: str = PROTOCOL_VERSION

    def __post_init__(self):
        _normalize_timestamp(self)


@dataclass(frozen=True)
class PtuBlock:
    """Pressure, temperature and humidity readings as decimal text."""

    air_pressure: str = ""
    air_temperature: str = ""
    relative_humidity: str = ""


@dataclass(frozen=True)
class WindBlock:
    """Wind direction (degrees) and speed (m/s), min/ave/max each."""

    direction_min: str = ""
    direction_ave: str = ""
    direction_max: str = ""
    speed_min: str = ""
    speed_ave: str = ""
    speed_max: str = ""


@dataclass(frozen=True)
class PrecipitationBlock:
    """Rain and hail accumulation/duration/intensity/peak readings."""

    rain_accumulation: str = "0"
    rain_duration: str = "0"
    rain_intensity: str = "0"
    rain_peak: str = "0"
    hail_accumulation: str = "0"
    hail_duration: str = "0"
    hail_intensity: str = "0"
    hail_peak: str = "0"


@dataclass(frozen=True)
class WeatherData:
    """The "Data" payload: whichever measurement groups the station has."""

    ptu: PtuBlock | None = None
    wind: WindBlock | None = None
    precipitation: PrecipitationBlock | None = None

    def is_empty(self) -> bool:
        return self.ptu is None and self.wind is None and self.precipitation is None


@dataclass(frozen=True)
class Measurement:
    """One measurement field of the "Data" payload."""

    group: str  # WeatherData attribute holding the field's block
    wire_group: str  # the group's key inside "Data"
    field: str  # block attribute
    path: tuple  # keys inside the wire group, outermost first
    sample: str  # NormalizedSample attribute
    default: str  # value of a field the wire or the sample leaves out


MEASUREMENTS = tuple(Measurement(*row) for row in (
    ("ptu", "PTU", "air_pressure", ("Air-Pressure",), "air_pressure_hpa", ""),
    ("ptu", "PTU", "air_temperature", ("Air-Temperature",), "air_temperature_c", ""),
    ("ptu", "PTU", "relative_humidity", ("Relative-Humidity",), "relative_humidity_pct", ""),
    ("wind", "WIND", "direction_min", ("Direction", "min"), "wind_direction_min_deg", ""),
    ("wind", "WIND", "direction_ave", ("Direction", "ave"), "wind_direction_ave_deg", ""),
    ("wind", "WIND", "direction_max", ("Direction", "max"), "wind_direction_max_deg", ""),
    ("wind", "WIND", "speed_min", ("Speed", "min"), "wind_speed_min_ms", ""),
    ("wind", "WIND", "speed_ave", ("Speed", "ave"), "wind_speed_ave_ms", ""),
    ("wind", "WIND", "speed_max", ("Speed", "max"), "wind_speed_max_ms", ""),
    ("precipitation", "PRECIPITATION", "rain_accumulation", ("Rain", "accumulation"), "rain_accumulation_mm", "0"),
    ("precipitation", "PRECIPITATION", "rain_duration", ("Rain", "duration"), "rain_duration_s", "0"),
    ("precipitation", "PRECIPITATION", "rain_intensity", ("Rain", "intensity"), "rain_intensity_mmh", "0"),
    ("precipitation", "PRECIPITATION", "rain_peak", ("Rain", "peak"), "rain_peak_mmh", "0"),
    ("precipitation", "PRECIPITATION", "hail_accumulation", ("Hail", "accumulation"), "hail_accumulation_hits", "0"),
    ("precipitation", "PRECIPITATION", "hail_duration", ("Hail", "duration"), "hail_duration_s", "0"),
    ("precipitation", "PRECIPITATION", "hail_intensity", ("Hail", "intensity"), "hail_intensity_hits", "0"),
    ("precipitation", "PRECIPITATION", "hail_peak", ("Hail", "peak"), "hail_peak_hits", "0"),
))

# WeatherData attribute -> (block type, the group's MEASUREMENTS rows in table order)
MEASUREMENT_GROUPS = {
    name: (block, tuple(row for row in MEASUREMENTS if row.group == name))
    for name, block in (("ptu", PtuBlock), ("wind", WindBlock), ("precipitation", PrecipitationBlock))
}


@dataclass(frozen=True)
class PeerEntry:
    """One row of a peer listing: how to reach a node."""

    peer_ip: str
    port: int
    bandwidth: int


@dataclass(frozen=True)
class InfoPayload:
    """Protocol-internal payload: a service catalog or a peer listing."""

    services: dict | None = None  # service name -> "R" | "O" | "RO"
    peers: dict | None = None  # node id -> PeerEntry


@dataclass(frozen=True)
class RetrieveRequest:
    """On-demand query: which service groups, at which exact timestamp."""

    services: tuple
    timestamp: str

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        _normalize_timestamp(self)


@dataclass(frozen=True)
class Envelope:
    """A complete message: type code, header, and at most one payload."""

    type_code: int
    meta: MetaInfo
    data: WeatherData | None = None
    info: InfoPayload | None = None
    retrieve: RetrieveRequest | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Everything validate() found wrong; empty means the envelope is clean."""

    problems: tuple

    @property
    def ok(self) -> bool:
        return not self.problems


_CLEAN = ValidationReport(())  # a frozen report holds nothing to change, so every clean envelope shares one

# code -> (the test that an envelope carries the payload the code needs, the
# problem when it does not); a code not listed carries no payload
_NO_PAYLOAD = (lambda e: e.data is None and e.info is None and e.retrieve is None, "unexpected payload for code %d")
_PAYLOAD_RULE = {
    code: (carried, "payload missing for retrieval code %d")
    for code, carried in (
        (ProtocolCode.SERVICES_AVAILABLE_R, lambda e: e.info is not None and e.info.services is not None),
        (ProtocolCode.LIST_PEERS_R, lambda e: e.info is not None and e.info.peers is not None),
        (ProtocolCode.ON_DEMAND_DATA, lambda e: e.retrieve is not None),
        (ProtocolCode.REAL_TIME_DATA_R, lambda e: e.data is not None),
        (ProtocolCode.ON_DEMAND_DATA_R, lambda e: e.data is not None),
    )
}


def _said(text: str, value) -> tuple:
    # the problem of a value that a check refuses: text, with the value at its %r
    return (text % (value,) if "%r" in text else text,)


def _within(low: int, high: float, text: str, above: str = "", bools: bool = True) -> tuple:
    """An int member's (low, high, check): check passes an int from low to high (True and False
    too when bools), gives above, if any, for a larger int and _said(text) for any other value."""
    def check(value) -> tuple:
        if isinstance(value, int) and (bools or not isinstance(value, bool)) and low <= value:
            if value <= high:
                return ()
            if above:
                return (above,)
        return _said(text, value)

    return low, high, check


def _unless(test, text: str):
    """A member's check: _said(text) unless test(value) holds."""
    return lambda value: () if test(value) else _said(text, value)


def _parses(parse, errors):
    """A test: parse(value) raises none of errors."""
    def test(value) -> bool:
        try:
            parse(value)
        except errors:
            return False
        return True

    return test


# A node sees the same few ids, addresses and seconds over and over, so the
# checks of exact str values are memoised.  Another value may be unhashable,
# and a str subclass hashes like its text yet ipaddress reads it through its
# __str__.  Only text up to _MEMO_LEN characters is kept: any id, address or
# timestamp fits, while a longer string from a peer (a frame may hold up to
# 64 KiB) stays unreferenced once its frame is handled.
_MEMO_LEN = 64


def _memo(check):
    """check, memoised for exact str values of up to _MEMO_LEN characters."""
    known = functools.lru_cache(maxsize=1024)(check)

    def memoised(value):
        return known(value) if type(value) is str and len(value) <= _MEMO_LEN else check(value)

    memoised.cache_info, memoised.cache_clear = known.cache_info, known.cache_clear
    return memoised


_id_check = _memo(_unless(is_node_id, "node id is not 64 lowercase hex characters"))
_address_check = _memo(_unless(_parses(ipaddress.ip_address, ValueError), "peer ip %r is not a valid address"))
_timestamp_check = _memo(_unless(_parses(parse_timestamp, (TypeError, ValueError)), "timestamp malformed"))
# _unless with this test would cost two calls per header, not one
_version_check = lambda v: () if isinstance(v, str) and _VERSION_RE.fullmatch(v) else ("version malformed",)


def _location_check(location) -> list:
    if not isinstance(location, UtmLocation):
        return ["location is not a UTM triple"]
    problems = []
    if not isinstance(location.northing, int) or location.northing < 0:
        problems.append("location northing negative")
    if not isinstance(location.easting, int) or location.easting < 0:
        problems.append("location easting negative")
    if not isinstance(location.zone, str) or not _ZONE_RE.fullmatch(location.zone):
        problems.append("location zone malformed")
    return problems


# Each header and peer-entry member, described once: a row per member in its
# dataclass's field order, (wire key, attribute, type, place among validate's
# problems, check).  _compile builds what encoding, decoding, validate and the
# listing memo read of them.
_META_TABLE = (
    ("ID", "node_id", str, 0, _id_check),
    ("Peer-IP", "peer_ip", str, 1, _address_check),
    ("Location", "location", UtmLocation, 3, _location_check),
    # unlike a peer entry's, it refuses True and False
    ("Bandwidth", "bandwidth", int, 7, _within(0, math.inf, "bandwidth below 0", bools=False)),
    ("Timestamp", "timestamp", str, 8, _timestamp_check),
    ("Port", "port", int, 2, _within(1, 65535, "port %r out of range 1..65535")),
    ("Update-Interval", "update_interval_ms", int, 4, _within(1, math.inf, "update interval not positive")),
    ("Peers-Requested", "peers_requested", int, 5,
     _within(1, 100, "peers_requested below 1", "peers_requested above 100")),
    ("Keep-Alive", "keep_alive_ms", int, 6, _within(1, math.inf, "keep alive not positive")),
    ("Version", "version", str, 9, _version_check),
)
_PEER_TABLE = (  # its problems follow those of the listing key, the peer's id
    ("Peer-IP", "peer_ip", str, 2, _address_check),
    ("Port", "port", int, 0, _within(1, 65535, "peer port %r out of range")),
    ("Bandwidth", "bandwidth", int, 1, _within(0, math.inf, "peer bandwidth below 0")),
)


# The memo of the module docstring.  A listing member changes only when its
# peer does.  Entries are matched by identity, never by ==: an equal entry may
# hold True where 1 was checked.  Each member is one tuple stored in a single
# assignment, so two threads encoding at once never read the halves of two
# different pairs.  Only exact types go in, as only they are sure not to
# change or to render otherwise.
_MEMBERS_MAX = 1024
_members: dict = {}  # exact-str node id -> (PeerEntry, its rendered listing member)


def validate(envelope: Envelope) -> ValidationReport:
    """Check every invariant; returns a report rather than raising."""
    problems = _problems(envelope)
    return ValidationReport(tuple(problems)) if problems else _CLEAN


def _problems(envelope: Envelope, decoded: bool = False) -> list:
    # validate's problems, in its order; the "Data" of a decoded envelope has none to look for
    problems = []
    code = envelope.type_code
    registered = isinstance(code, int) and is_registered(code)
    if not registered:
        problems.append("unknown type code %r" % (code,))
    _check_meta(envelope.meta, problems)
    data, info, retrieve = envelope.data, envelope.info, envelope.retrieve
    if (data is not None) + (info is not None) + (retrieve is not None) > 1:
        problems.append("more than one payload present")
    if data is not None and not decoded:
        problems += _data_problems(data)
    if info is not None:
        problems += _info_problems(info)
    if retrieve is not None:
        problems += _retrieve_problems(retrieve)
    if registered:
        carried, problem = _PAYLOAD_RULE.get(code, _NO_PAYLOAD)
        if not carried(envelope):
            problems.append(problem % code)
    return problems


def _data_problems(data: WeatherData) -> list:
    if data.is_empty():
        return ["weather data empty"]
    problems = []
    for group in (data.ptu, data.wind, data.precipitation):
        if group is None:
            continue
        for name, value in vars(group).items():
            if not isinstance(value, str):
                problems.append("measurement %s is not a string" % name)
    return problems


def _info_problems(info: InfoPayload) -> list:
    problems = []
    if info.services is None and info.peers is None:
        problems.append("info payload empty")
    if info.services is not None and info.peers is not None:
        problems.append("info payload carries both variants")
    if info.services is not None:
        if not info.services:
            problems.append("service catalog empty")
        for name, flags in info.services.items():
            if name not in SERVICES:
                problems.append("unknown service %r" % (name,))
            if flags not in SERVICE_FLAGS:
                problems.append("bad service flags %r" % (flags,))
    if info.peers is not None:
        if len(info.peers) > 100:
            problems.append("peer listing above 100 entries")
        members = _members
        for node_id, entry in info.peers.items():
            if type(node_id) is str:
                known = members.get(node_id)
                if known is not None and known[0] is entry:
                    continue
            if _id_check(node_id):
                problems.append("peer id %r is not 64 lowercase hex characters" % (node_id,))
            if isinstance(entry, PeerEntry):
                _check_peer(entry, problems)
            else:
                problems.append("peer entry for %r malformed" % (node_id,))
    return problems


def _retrieve_problems(retrieve: RetrieveRequest) -> list:
    problems = []
    if not retrieve.services:
        problems.append("retrieve services empty")
    if len(set(retrieve.services)) != len(retrieve.services):
        problems.append("retrieve services duplicated")
    for name in retrieve.services:
        if name not in SERVICES:
            problems.append("unknown service %r" % (name,))
    if _timestamp_check(retrieve.timestamp):
        problems.append("retrieve timestamp malformed")
    return problems


def _template(tree: dict) -> tuple:
    # an object with fixed keys as (format string, slot names in wire order):
    # each leaf of tree names a slot, which the format leaves as %s; keys are
    # sorted at every depth, as on the wire
    slots = []

    def render(node: dict) -> str:
        members = []
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict):
                text = render(value)
            else:
                slots.append(value)
                text = "%s"
            members.append("%s : %s" % (_quote(key).replace("%", "%%"), text))
        return "{ %s }" % ", ".join(members)

    return render(tree), tuple(slots)


def _getter(names: tuple, get=operator.attrgetter):
    # get(*names), an attrgetter or itemgetter, returning a tuple even for a single name
    one = get(*names)
    return one if len(names) > 1 else lambda obj: (one(obj),)


def _declared(cls, attrs, keys) -> None:
    # a table builds cls by position, so it names cls's fields in their order, each at a key of its own
    names = tuple(field.name for field in fields(cls))
    if names != tuple(attrs) or len(set(keys)) != len(keys):
        raise TypeError("%s declares %r, its table reads %r at %r" % (cls.__name__, names, tuple(attrs), tuple(keys)))


def _compile(cls, table: tuple) -> tuple:
    """(text, read, check, exact) of a fixed-key object, built from its member table.

    A str or int member travels as itself; a member of another type travels
    as its text, read with the type's parse and written with its render.
    text(obj) renders obj.  read(member, where) builds a cls from a decoded
    object, its members' values read in one call when each holds its wire
    type; otherwise the first of its absent or mistyped members, those read
    from text first, is the SchemaError.  check(obj, problems) adds obj's
    problems in validate's order.  exact(obj) says that obj is a cls whose
    members hold exactly their types.
    """
    keys, attrs, types, places, checks = zip(*table)
    _declared(cls, attrs, keys)
    kinds = tuple(kind if kind in (str, int) else str for kind in types)  # as each member arrives
    parsed = tuple(at for at, kind in enumerate(types) if kind not in (str, int))
    first = sorted(range(len(table)), key=lambda at: at not in parsed)
    form, slots = _template(dict(zip(keys, attrs)))
    slot_values, rendered = _getter(slots), tuple(slots.index(attrs[at]) for at in parsed)
    wire_values, own_values = _getter(keys, operator.itemgetter), _getter(attrs)
    order = sorted(range(len(table)), key=places.__getitem__)
    checked_values = _getter(tuple(attrs[at] for at in order))
    # an int member's check comes with its bounds: an exact int within them needs no call
    lows, highs, checks = zip(*(checks[at] if type(checks[at]) is tuple else (None, None, checks[at]) for at in order))

    def text(obj) -> str:
        values = slot_values(obj)
        if rendered:
            values = list(values)
            for at in rendered:
                values[at] = values[at].render()
        return form % _texts(values)

    def read(member: dict, where: str):
        try:
            found = wire_values(member)
            if tuple(map(type, found)) != kinds:
                raise KeyError
        except KeyError:  # one by one, for the error
            found = [None] * len(keys)
            for at in first:
                found[at] = _member(member, keys[at], types[at], where)
            return cls(*found)
        if parsed:
            found = list(found)
            for at in parsed:
                found[at] = _parsed(keys[at], types[at], found[at])
        return cls(*found)

    def check(obj, problems: list) -> None:
        for value, low, high, member_check in zip(checked_values(obj), lows, highs, checks):
            if low is None or type(value) is not int or not low <= value <= high:
                found = member_check(value)
                if found:
                    problems += found

    def exact(obj) -> bool:
        return type(obj) is cls and tuple(map(type, own_values(obj))) == types

    return text, read, check, exact


_meta_text, _read_meta, _check_meta, _ = _compile(MetaInfo, _META_TABLE)
_peer_text, _read_peer, _check_peer, _exact_peer = _compile(PeerEntry, _PEER_TABLE)


def _compile_group(block, rows) -> tuple:
    """(wire key, member format, getter of a block's values in slot order, holders) of a "Data" group.

    A holder is (keys of an object holding leaves, a reader of its leaves'
    values in one call, ((leaf key, default), ...)).  The decoder builds the
    block by position from the values of the leaves in table order, so the
    table's order must be the block's.
    """
    held, tree = {}, {}
    for row in rows:
        held.setdefault(row.path[:-1], []).append(row)
        holder = tree
        for key in row.path[:-1]:
            holder = holder.setdefault(key, {})
        holder[row.path[-1]] = row.field
    _declared(block, [row.field for leaves in held.values() for row in leaves], [row.path for row in rows])
    form, slots = _template(tree)
    holders = tuple(
        (keys, _getter(tuple(row.path[-1] for row in leaves), operator.itemgetter),
         tuple((row.path[-1], row.default) for row in leaves))
        for keys, leaves in held.items()
    )
    return rows[0].wire_group, _quote(rows[0].wire_group) + " : " + form, _getter(slots), holders


# the parts of a message that never change, compiled once from the tables above:
# "Data" groups in WeatherData's field order, as (attribute, block type, wire
# key, member format, values getter, holders), the encoder taking them in wire order
_DATA_GROUPS = tuple((name, block, *_compile_group(block, rows)) for name, (block, rows) in MEASUREMENT_GROUPS.items())
_declared(WeatherData, MEASUREMENT_GROUPS, [group[2] for group in _DATA_GROUPS])
_DATA_FORMATS = sorted(_DATA_GROUPS, key=operator.itemgetter(2))
_RETRIEVE_FORMAT, _ = _template({"D": "services", "Timestamp": "timestamp"})
# the whole message around each payload member (None: header only)
_ENVELOPE_FORMATS = {
    key: _template({"OpenWeatherMessage": {"MetaInfo": "meta", "Type": "type", **({key: "payload"} if key else {})}})
    for key in (None, "Data", "Info", "Retrieve")
}


def _text(value) -> str:
    """Canonical text of one value: a JSON string, or the digits of an integer."""
    if isinstance(value, str):
        return _quote(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        raise EncodeError("boolean values never appear on the wire")
    if isinstance(value, int):
        return int.__repr__(value)  # also for an IntEnum, whose str() is its name on Python 3.10
    raise EncodeError("cannot encode value of type %s" % type(value).__name__)


def _texts(values) -> tuple:
    # (_text(value), ...), with no call of _text for an exact str or int.  The
    # texts go in a list before the tuple: tuple() of an iterator of unknown
    # length guesses ten items and shrinks the result, which strands one tuple
    # per call on the interpreter's free list for its size (up to 2000 per
    # size, about 0.3 MB on a streaming node).
    return tuple([_quote(v) if type(v) is str else str(v) if type(v) is int else _text(v) for v in values])


def _key(key) -> str:
    # a key of a valid message is always text; json.dumps renders any other as the old renderer did
    return _quote(key) if type(key) is str else json.dumps(key, ensure_ascii=False)


def _braced(members: list) -> str:
    # an object of rendered members, in the order given
    return "{ %s }" % ", ".join(members) if members else "{ }"


def _data_text(data: WeatherData) -> str:
    members = []
    for name, _, _, form, values, _ in _DATA_FORMATS:
        block = getattr(data, name)
        if block is not None:
            members.append(form % _texts(values(block)))
    return _braced(members)


def _listing_text(peers: dict, clean: bool) -> str:
    # the members in key order, taking each that the memo holds for that exact
    # entry; a clean listing's other members are kept
    members = _members
    texts = []
    for node_id in sorted(peers):
        entry = peers[node_id]
        exact = type(node_id) is str
        if exact:
            known = members.get(node_id)
            if known is not None and known[0] is entry:
                texts.append(known[1])
                continue
        text = "%s : %s" % (_key(node_id), _peer_text(entry))
        if clean and exact and _exact_peer(entry):
            if len(members) >= _MEMBERS_MAX:
                members.clear()
            members[node_id] = (entry, text)
        texts.append(text)
    return _braced(texts)


def _payload_text(envelope: Envelope, clean: bool = False) -> tuple:
    """The payload member as (wire key, canonical text), or (None, None) for header-only.

    clean says that validate passed the envelope, so its listing members may be memoised.
    """
    data, info, retrieve = envelope.data, envelope.info, envelope.retrieve
    if data is not None:
        return "Data", _data_text(data)
    if info is not None and info.services is not None:
        catalog = _braced(["%s : %s" % (_key(name), _text(info.services[name])) for name in sorted(info.services)])
        return "Info", '{ "Services" : %s }' % catalog
    if info is not None:
        return "Info", '{ "Peers" : %s }' % _listing_text(info.peers, clean)
    if retrieve is not None:
        services = ", ".join(map(_text, retrieve.services))
        return "Retrieve", _RETRIEVE_FORMAT % ("[ %s ]" % services if services else "[ ]", _text(retrieve.timestamp))
    return None, None


def encode(envelope: Envelope) -> bytes:
    """Render the canonical single-line wire form, without framing newline."""
    report = validate(envelope)
    if not report.ok:
        raise EncodeError("refusing to encode: " + "; ".join(report.problems))
    # the payload renders first: "Data" and "Info" sort before "MetaInfo", so a
    # value that cannot be encoded is reported in wire order ("Retrieve" sorts
    # after it, but holds nothing that fails once validated)
    key, payload = _payload_text(envelope, clean=True)
    parts = {"payload": payload, "meta": _meta_text(envelope.meta), "type": _text(envelope.type_code)}
    form, slots = _ENVELOPE_FORMATS[key]
    return (form % tuple([parts[slot] for slot in slots])).encode("utf-8")


def payload_fragment(envelope: Envelope) -> str | None:
    """Canonical text of just the payload member, or None for header-only."""
    return _payload_text(envelope)[1]


def _as_int(value, name: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _NUMERAL_RE.fullmatch(value):
        try:
            return int(value, 10)
        except ValueError:  # past int()'s digit limit
            pass
    raise SchemaError('"%s" is not an integer' % name)


def _as_str(value, name: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise SchemaError('"%s" is not a string' % name)


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError('"%s" is not an object' % name)
    return value


def _parsed(key: str, kind, text: str):
    try:
        return kind.parse(text)
    except ValueError as exc:
        raise SchemaError('"%s" malformed: %s' % (key, exc))


def _member(member: dict, key: str, kind, where: str):
    # the value at key as kind: an int, a str, an object, or another type parsed from its text
    if key not in member:
        raise SchemaError('missing "%s" member in %s' % (key, where))
    value = member[key]
    if kind is int:
        return _as_int(value, key)
    if kind is dict:
        return _object(value, key)
    return _as_str(value, key) if kind is str else _parsed(key, kind, _as_str(value, key))


def _walk_data(member) -> WeatherData | None:
    member = _object(member, "Data")
    blocks = []
    for _, block, wire_key, _, _, holders in _DATA_GROUPS:
        if wire_key not in member:
            blocks.append(None)
            continue
        group = member[wire_key]
        values = []
        try:  # most often each holding object has exactly its leaves, each a string
            for keys, read, leaves in holders:
                holder = group
                for key in keys:
                    holder = holder[key]
                if len(holder) != len(leaves):
                    raise KeyError  # another member, which the careful read checks too
                values += read(holder)
            "".join(values)  # a TypeError unless every value is a str
        except (KeyError, TypeError):
            values = _group_leaves(group, wire_key, holders)
        blocks.append(block(*values))
    return WeatherData(*blocks) if any(blocks) else None


def _group_leaves(group, wire_key: str, holders: tuple) -> list:
    """The values of a group's leaves, in table order, read one by one.

    An absent holding object reads as empty.  An absent leaf, or an object
    in its place, reads as its default and a number as its text.  A holding
    object that is not an object, or a member of one that is neither a
    string, a number nor an object, is a SchemaError.
    """
    values = []
    for keys, _, leaves in holders:
        holder, where = group, wire_key
        for key in keys:
            holder, where = _object(holder, where).get(key, {}), key
        found = {key: _as_str(value, key) for key, value in _object(holder, where).items() if not isinstance(value, dict)}
        values += [found.get(key, default) for key, default in leaves]
    return values


def _walk_info(member) -> InfoPayload:
    member = _object(member, "Info")
    if "Services" in member and "Peers" in member:
        raise SchemaError('"Info" carries both a catalog and a listing')
    if "Services" in member:
        return InfoPayload(services={k: _as_str(v, k) for k, v in _object(member["Services"], "Services").items()})
    if "Peers" in member:
        peers = {}
        for node_id, entry in _object(member["Peers"], "Peers").items():
            if not isinstance(entry, dict):
                raise SchemaError("peer entry %r is not an object" % (node_id,))
            peers[node_id] = _read_peer(entry, "peer entry")
        return InfoPayload(peers=peers)
    raise SchemaError('"Info" carries neither "Services" nor "Peers"')


def _walk_retrieve(member) -> RetrieveRequest:
    member = _object(member, "Retrieve")
    wanted = member.get("D", [])
    if isinstance(wanted, str):
        wanted = [wanted]
    if not isinstance(wanted, list):
        raise SchemaError('"D" is not a list of service names')
    services = tuple(_as_str(item, "D") for item in wanted)
    timestamp = _member(member, "Timestamp", str, "Retrieve")
    return RetrieveRequest(services, timestamp)


# one parser for every frame: json.loads(text, parse_float=str) builds a new one per call;
# bare decimals keep their text
_JSON = json.JSONDecoder(parse_float=str)


def decode(raw) -> Envelope:
    """Parse wire bytes (or text) into an Envelope, liberally and unchecked.

    Raises ParseError for bad JSON, SchemaError for missing or mistyped
    members, UnknownCodeError for a Type outside the registry.
    """
    if isinstance(raw, (bytes, bytearray)):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not valid UTF-8: %s" % exc, offset=exc.start)
    elif isinstance(raw, str):
        text = raw
    else:  # what json.loads raises
        raise TypeError("the JSON object must be str, bytes or bytearray, not %s" % type(raw).__name__)
    try:
        if text.startswith("\ufeff"):  # json.loads refuses a byte order mark; the decoder alone would not
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        tree = _JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON at offset %d: %s" % (exc.pos, exc.msg), offset=exc.pos)
    except (RecursionError, ValueError) as exc:  # nesting too deep, integer literal too long
        raise ParseError("unparseable JSON: %s" % exc)
    if not isinstance(tree, dict) or "OpenWeatherMessage" not in tree:
        raise SchemaError('missing "OpenWeatherMessage" member')
    body = _object(tree["OpenWeatherMessage"], "OpenWeatherMessage")
    code = _member(body, "Type", int, "OpenWeatherMessage")
    if not is_registered(code):
        raise UnknownCodeError(code)
    meta = _read_meta(_member(body, "MetaInfo", dict, "OpenWeatherMessage"), "MetaInfo")

    data_member = body.get("Data")
    retrieve_member = body.get("Retrieve", body.get("Retrive"))
    if isinstance(data_member, dict) and retrieve_member is None:
        nested = data_member.get("Retrieve", data_member.get("Retrive"))
        if nested is not None:
            retrieve_member = nested
            data_member = {k: v for k, v in data_member.items() if k not in ("Retrieve", "Retrive")}

    data = _walk_data(data_member) if data_member is not None else None
    info = _walk_info(body["Info"]) if "Info" in body else None
    retrieve = _walk_retrieve(retrieve_member) if retrieve_member is not None else None
    return Envelope(code, meta, data, info, retrieve)


# The frame memo of the module docstring.  An envelope without "Info" holds
# only frozen objects, strs, ints and tuples, so every receiver of one frame
# can share it; an "Info" payload holds dicts, so it is decoded anew for each
# receiver.  Each frame is stored in a single assignment and a hit reads it
# without the lock, which only keeps two threads that miss at once from
# filling the memo past its bound.
_FRAMES_MAX = 64
_FRAME_LEN = 4096
_frames: dict = {}  # exact bytes of an accepted frame -> its Envelope, whose info is None
_frames_lock = threading.Lock()


def decode_checked(raw) -> Envelope:
    """decode, then refuse an envelope that validate would find problems in.

    Raises what decode raises, or SchemaError("invalid envelope: ...")
    listing the problems as validate reports them.
    """
    kept = type(raw) is bytes and len(raw) <= _FRAME_LEN
    if kept:
        envelope = _frames.get(raw)
        if envelope is not None:
            return envelope
    envelope = decode(raw)
    problems = _problems(envelope, decoded=True)
    if problems:
        raise SchemaError("invalid envelope: " + "; ".join(problems))
    if kept and envelope.info is None:
        with _frames_lock:
            if len(_frames) >= _FRAMES_MAX:
                _frames.clear()
            _frames[raw] = envelope
    return envelope
