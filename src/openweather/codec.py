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

Most of a message never changes: its keys, their order and the punctuation
between them.  At import the encoder compiles that part once into format
strings, from MEASUREMENTS, the fixed MetaInfo and peer-entry keys and the
envelope's member order, so encoding a message only fills the slots: a
string through the stdlib's JSON string escaper, an integer as its digits.
One memo keeps what a node sends again and again in its peer listings: up
to 1,024 clean listing members, node id -> (PeerEntry, text), cleared when
full.  For those exact entries validate skips their checks and encode skips
rendering them; every header is checked and rendered each time, and encode
still runs validate on every envelope before encoding it.

Decoding parses with one shared JSON decoder and walks the tree once,
driven by the same tables: each fixed-key object is read through its key
table in one call and built positionally.  The walk also collects the
problems validate would report on the envelope it builds, through
validate's own checks, except for "Data", whose checks the walk has made
true itself: a decoded "Data" holds at least one group, and each of its
measurements is a str.  decode drops those problems;
decode_checked, which a node runs on every inbound frame, refuses a frame
that has any, with the message and in the order validate gives them.

The decoder is liberal: arbitrary whitespace between JSON tokens and any
key order, numeric fields quoted as strings, timestamps with or without
the trailing "Z", and the historical spellings of the on-demand query (key
"Retrive", or the query nested inside "Data").  A quoted numeric, like
each Location coordinate, must still be an ASCII numeral, an optional "-"
then digits (validate reports a negative value, not decode).  Leading
zeros are accepted and read as their value, so "005" is 5 and re-encodes
as 5; a sign "+", a "_" separator, surrounding whitespace or a non-ASCII
digit is refused.  A Location is exactly three tokens (northing, easting,
zone) one ASCII space apart, with no whitespace around them, so that it
re-encodes as the bytes it arrived as.

The "Data" schema lives in one table, MEASUREMENTS: one row per field,
naming its group, its attribute on the group's block, its path on the
wire, its NormalizedSample attribute and its missing-value default.
The compiled encoder, the decoding walk and the vendor sample mapping all
read that table, so a new measurement is still one row here plus the
attribute it names on the block and sample dataclasses.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import operator
import re
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


def _normalized_timestamp(text: str) -> str:
    # store the emitted form (with Z) whenever the text parses at all; a text
    # ending in Z already is in that form or does not parse
    if isinstance(text, str) and not text.endswith("Z"):
        found = _TIMESTAMP_RE.fullmatch(text)
        if found is not None and not found.group(7):
            return text + "Z"
    return text


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
        object.__setattr__(self, "timestamp", _normalized_timestamp(self.timestamp))


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


# group, wire group, block field, wire path, NormalizedSample attribute, default
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


# (wire key, attribute, wire type) of the fixed-key objects, in the order
# decode checks them; MetaInfo's "Location" (a UtmLocation) is checked first,
# on its own
_META_KEYS = (
    ("ID", "node_id", str),
    ("Peer-IP", "peer_ip", str),
    ("Bandwidth", "bandwidth", int),
    ("Timestamp", "timestamp", str),
    ("Port", "port", int),
    ("Update-Interval", "update_interval_ms", int),
    ("Peers-Requested", "peers_requested", int),
    ("Keep-Alive", "keep_alive_ms", int),
    ("Version", "version", str),
)
_PEER_KEYS = (("Peer-IP", "peer_ip", str), ("Port", "port", int), ("Bandwidth", "bandwidth", int))


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
        object.__setattr__(self, "timestamp", _normalized_timestamp(self.timestamp))


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


# codes that must carry a specific payload; everything else carries none
_PAYLOAD_RULE = {
    ProtocolCode.SERVICES_AVAILABLE_R: "services",
    ProtocolCode.LIST_PEERS_R: "peers",
    ProtocolCode.ON_DEMAND_DATA: "retrieve",
    ProtocolCode.REAL_TIME_DATA_R: "data",
    ProtocolCode.ON_DEMAND_DATA_R: "data",
}


def _address_check(value) -> bool:
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


def _timestamp_check(value) -> bool:
    try:
        parse_timestamp(value)
    except (TypeError, ValueError):
        return False
    return True


# A node sees the same few addresses and seconds over and over, so the checks
# of exact str values are memoised.  Another value may be unhashable, and a str
# subclass hashes like its text yet ipaddress reads it through its __str__.
# Only text up to _MEMO_LEN characters is kept: any address or timestamp fits,
# while a longer string from a peer (a frame may hold up to 64 KiB) stays
# unreferenced once its frame is handled.
_MEMO_LEN = 64
_address_text_check = functools.lru_cache(maxsize=1024)(_address_check)
_timestamp_text_check = functools.lru_cache(maxsize=1024)(_timestamp_check)


def _is_address(value) -> bool:
    """True when ipaddress accepts value as an IPv4 or IPv6 address."""
    if type(value) is str and len(value) <= _MEMO_LEN:
        return _address_text_check(value)
    return _address_check(value)


def _is_timestamp(value) -> bool:
    """True when value is a timestamp that parse_timestamp accepts."""
    if type(value) is str and len(value) <= _MEMO_LEN:
        return _timestamp_text_check(value)
    return _timestamp_check(value)


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
    problems = []
    if not isinstance(envelope.type_code, int) or not is_registered(envelope.type_code):
        problems.append("unknown type code %r" % (envelope.type_code,))
    problems.extend(_meta_problems(envelope.meta))
    payloads = [p for p in (envelope.data, envelope.info, envelope.retrieve) if p is not None]
    if len(payloads) > 1:
        problems.append("more than one payload present")
    if envelope.data is not None:
        problems.extend(_data_problems(envelope.data))
    if envelope.info is not None:
        problems.extend(_info_problems(envelope.info))
    if envelope.retrieve is not None:
        problems.extend(_retrieve_problems(envelope.retrieve))
    problems.extend(_payload_rule_problems(envelope))
    return ValidationReport(tuple(problems))


def _payload_rule_problems(envelope: Envelope) -> list:
    code = envelope.type_code
    if not isinstance(code, int) or not is_registered(code):
        return []
    required = _PAYLOAD_RULE.get(code)
    problems = []
    if required is None:
        if envelope.data is not None or envelope.info is not None or envelope.retrieve is not None:
            problems.append("unexpected payload for code %d" % code)
        return problems
    if required == "data" and envelope.data is None:
        problems.append("payload missing for retrieval code %d" % code)
    elif required == "retrieve" and envelope.retrieve is None:
        problems.append("payload missing for retrieval code %d" % code)
    elif required == "services":
        if envelope.info is None or envelope.info.services is None:
            problems.append("payload missing for retrieval code %d" % code)
    elif required == "peers":
        if envelope.info is None or envelope.info.peers is None:
            problems.append("payload missing for retrieval code %d" % code)
    return problems


def _meta_problems(meta: MetaInfo) -> list:
    problems = []
    if not is_node_id(meta.node_id):
        problems.append("node id is not 64 lowercase hex characters")
    if not _is_address(meta.peer_ip):
        problems.append("peer ip %r is not a valid address" % (meta.peer_ip,))
    if not isinstance(meta.port, int) or not 1 <= meta.port <= 65535:
        problems.append("port %r out of range 1..65535" % (meta.port,))
    if not isinstance(meta.location, UtmLocation):
        problems.append("location is not a UTM triple")
    else:
        if not isinstance(meta.location.northing, int) or meta.location.northing < 0:
            problems.append("location northing negative")
        if not isinstance(meta.location.easting, int) or meta.location.easting < 0:
            problems.append("location easting negative")
        if not isinstance(meta.location.zone, str) or not _ZONE_RE.fullmatch(meta.location.zone):
            problems.append("location zone malformed")
    if not isinstance(meta.update_interval_ms, int) or meta.update_interval_ms <= 0:
        problems.append("update interval not positive")
    if not isinstance(meta.peers_requested, int) or meta.peers_requested < 1:
        problems.append("peers_requested below 1")
    elif meta.peers_requested > 100:
        problems.append("peers_requested above 100")
    if not isinstance(meta.keep_alive_ms, int) or meta.keep_alive_ms <= 0:
        problems.append("keep alive not positive")
    if not isinstance(meta.bandwidth, int) or isinstance(meta.bandwidth, bool) or meta.bandwidth < 0:
        problems.append("bandwidth below 0")
    if not _is_timestamp(meta.timestamp):
        problems.append("timestamp malformed")
    if not isinstance(meta.version, str) or not _VERSION_RE.fullmatch(meta.version):
        problems.append("version malformed")
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
        _catalog_problems(info.services, problems)
    if info.peers is not None:
        if len(info.peers) > 100:
            problems.append("peer listing above 100 entries")
        members = _members
        for node_id, entry in info.peers.items():
            if type(node_id) is str:
                known = members.get(node_id)
                if known is not None and known[0] is entry:
                    continue
            _entry_problems(node_id, entry, problems)
    return problems


def _catalog_problems(services: dict, problems: list) -> None:
    if not services:
        problems.append("service catalog empty")
    for name, flags in services.items():
        if name not in SERVICES:
            problems.append("unknown service %r" % (name,))
        if flags not in SERVICE_FLAGS:
            problems.append("bad service flags %r" % (flags,))


def _entry_problems(node_id, entry, problems: list) -> None:
    if not is_node_id(node_id):
        problems.append("peer id %r is not 64 lowercase hex characters" % (node_id,))
    if not isinstance(entry, PeerEntry):
        problems.append("peer entry for %r malformed" % (node_id,))
        return
    if not isinstance(entry.port, int) or not 1 <= entry.port <= 65535:
        problems.append("peer port %r out of range" % (entry.port,))
    if not isinstance(entry.bandwidth, int) or entry.bandwidth < 0:
        problems.append("peer bandwidth below 0")
    if not _is_address(entry.peer_ip):
        problems.append("peer ip %r is not a valid address" % (entry.peer_ip,))


def _retrieve_problems(retrieve: RetrieveRequest) -> list:
    problems = []
    if not retrieve.services:
        problems.append("retrieve services empty")
    if len(set(retrieve.services)) != len(retrieve.services):
        problems.append("retrieve services duplicated")
    for name in retrieve.services:
        if name not in SERVICES:
            problems.append("unknown service %r" % (name,))
    if not _is_timestamp(retrieve.timestamp):
        problems.append("retrieve timestamp malformed")
    return problems


def _template(tree: dict) -> tuple:
    """Compile an object with fixed keys: (format string, slot names in wire order).

    Each leaf of tree names a slot, which the format leaves as ``%s``;
    keys are sorted at every depth, as on the wire.
    """
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


def _getter(names: tuple):
    # the named attributes of an object as a tuple, even for a single name
    get = operator.attrgetter(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


def _path_tree(rows) -> dict:
    # wire paths -> nested keys, each leaf naming its block field
    tree = {}
    for row in rows:
        holder = tree
        for key in row.path[:-1]:
            holder = holder.setdefault(key, {})
        holder[row.path[-1]] = row.field
    return tree


def _group_format(wire_key: str, rows) -> tuple:
    form, fields = _template(_path_tree(rows))
    return _quote(wire_key) + " : " + form, _getter(fields)


# the parts of a message that never change, compiled once from the tables above:
# "Data" groups in wire order as (WeatherData attribute, member format, getter
# of the block's values in slot order)
_DATA_FORMATS = tuple(
    (name, *_group_format(wire_key, rows))
    for wire_key, name, rows in sorted((rows[0].wire_group, name, rows) for name, (_, rows) in MEASUREMENT_GROUPS.items())
)
_META_FORMAT, _META_SLOTS = _template({"Location": "location", **{key: attr for key, attr, _ in _META_KEYS}})
_PEER_FORMAT, _PEER_SLOTS = _template({key: attr for key, attr, _ in _PEER_KEYS})
_peer_values = _getter(_PEER_SLOTS)
_RETRIEVE_FORMAT, _ = _template({"D": "services", "Timestamp": "timestamp"})
# the whole message around each payload member (None: header only)
_ENVELOPE_FORMATS = {
    key: _template({"OpenWeatherMessage": {"MetaInfo": "meta", "Type": "type", **({key: "payload"} if key else {})}})
    for key in (None, "Data", "Info", "Retrieve")
}


def _text(value) -> str:
    """Canonical text of one value: a JSON string, or the digits of an integer."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return str(value)
    if isinstance(value, bool):
        raise EncodeError("boolean values never appear on the wire")
    if isinstance(value, int):
        return int.__repr__(value)  # also for an IntEnum, whose str() is its name on Python 3.10
    if isinstance(value, str):
        return _quote(value)
    raise EncodeError("cannot encode value of type %s" % type(value).__name__)


def _key(key) -> str:
    # a key of a valid message is always text; json.dumps renders any other as the old renderer did
    return _quote(key) if type(key) is str else json.dumps(key, ensure_ascii=False)


def _object(members: dict, render) -> str:
    # an object whose keys vary: members in key order, each value through render
    if not members:
        return "{ }"
    return "{ %s }" % ", ".join(["%s : %s" % (_key(key), render(members[key])) for key in sorted(members)])


# Each fill gathers its slot values in a list before making the tuple: tuple()
# of an iterator of unknown length guesses ten items and shrinks the result,
# which strands one tuple per call on the interpreter's free list for its size
# (up to 2000 per size, about 0.3 MB on a streaming node).
def _meta_text(meta: MetaInfo) -> str:
    return _META_FORMAT % tuple(
        [_text(meta.location.render() if slot == "location" else getattr(meta, slot)) for slot in _META_SLOTS]
    )


def _peer_text(entry: PeerEntry) -> str:
    return _PEER_FORMAT % tuple([_text(value) for value in _peer_values(entry)])


def _data_text(data: WeatherData) -> str:
    members = []
    for name, form, values in _DATA_FORMATS:
        block = getattr(data, name)
        if block is not None:
            members.append(form % tuple([_text(value) for value in values(block)]))
    return "{ %s }" % ", ".join(members) if members else "{ }"


def _listing_text(peers: dict, clean: bool) -> str:
    # what _object(peers, _peer_text) renders, taking each member the memo
    # holds for that exact entry; a clean listing's other members are kept
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
        if clean and exact and _exact(entry, PeerEntry, _PEER_KEYS):
            if len(members) >= _MEMBERS_MAX:
                members.clear()
            members[node_id] = (entry, text)
        texts.append(text)
    return "{ %s }" % ", ".join(texts) if texts else "{ }"


def _info_text(info: InfoPayload, clean: bool) -> str:
    if info.services is not None:
        return '{ "Services" : %s }' % _object(info.services, _text)
    return '{ "Peers" : %s }' % _listing_text(info.peers, clean)


def _retrieve_text(retrieve: RetrieveRequest) -> str:
    services = ", ".join(map(_text, retrieve.services))
    return _RETRIEVE_FORMAT % ("[ %s ]" % services if services else "[ ]", _text(retrieve.timestamp))


def _payload_text(envelope: Envelope, clean: bool = False) -> tuple:
    """The payload member as (wire key, canonical text), or (None, None) for header-only.

    clean says that validate passed the envelope, so its listing members may be memoised.
    """
    if envelope.data is not None:
        return "Data", _data_text(envelope.data)
    if envelope.info is not None:
        return "Info", _info_text(envelope.info, clean)
    if envelope.retrieve is not None:
        return "Retrieve", _retrieve_text(envelope.retrieve)
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


def _exact(value, cls, keys) -> bool:
    """value is a cls whose attributes named in keys hold exactly their wire types."""
    return type(value) is cls and all(type(getattr(value, attr)) is kind for _, attr, kind in keys)


def payload_fragment(envelope: Envelope) -> str | None:
    """Canonical text of just the payload member, or None for header-only."""
    return _payload_text(envelope)[1]


def _as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise SchemaError('"%s" is not an integer' % name)
    if isinstance(value, int):
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


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError('missing "%s" member in %s' % (key, where))
    return mapping[key]


# The decoder's walk, compiled once from the tables above as encoding is.  Each
# fixed-key object is read through a key table: the values of its keys in one
# call, taken as they are when each already holds its wire type, and built
# into its dataclass by position, so the table's order must be the dataclass's.


def _items(keys: tuple):
    # the values at keys of a dict as a tuple; KeyError if one is absent
    if len(keys) < 2:  # itemgetter of one key returns the bare value
        raise TypeError("a decoding table reads two keys or more, not %r" % (keys,))
    return operator.itemgetter(*keys)


def _declared(cls, attrs) -> None:
    names = tuple(field.name for field in fields(cls))
    if names != tuple(attrs):
        raise TypeError("%s declares %r, its decoding table reads %r" % (cls.__name__, names, tuple(attrs)))


def _reader(table: tuple) -> tuple:
    # (read the values of table's keys, their wire types) for a table of (wire key, attribute, wire type)
    return _items(tuple(key for key, _, _ in table)), tuple(kind for _, _, kind in table)


# MetaInfo's members in its field order; the walk reads "Location" with the
# rest, as text, and parses it in its place
_LOCATION_AT = [field.name for field in fields(MetaInfo)].index("location")
_META_MEMBERS = (*_META_KEYS[:_LOCATION_AT], ("Location", "location", str), *_META_KEYS[_LOCATION_AT:])
_declared(MetaInfo, [attr for _, attr, _ in _META_MEMBERS])
_declared(PeerEntry, [attr for _, attr, _ in _PEER_KEYS])
_META_READ = _reader(_META_MEMBERS)
_PEER_READ = _reader(_PEER_KEYS)


def _holders(block, rows) -> tuple:
    # ((keys of the object holding the values, read its leaves, ((leaf key, default), ...)), ...)
    held = {}
    for row in rows:
        held.setdefault(row.path[:-1], []).append(row)
    _declared(block, [row.field for leaves in held.values() for row in leaves])
    return tuple(
        (keys, _items(tuple(row.path[-1] for row in leaves)), tuple((row.path[-1], row.default) for row in leaves))
        for keys, leaves in held.items()
    )


# "Data" groups in WeatherData's field order: (wire key, block type, holders)
_DATA_WALK = tuple((rows[0].wire_group, block, _holders(block, rows)) for block, rows in MEASUREMENT_GROUPS.values())
_declared(WeatherData, MEASUREMENT_GROUPS)


def _typed(member: dict, reader: tuple):
    """The values of the reader's keys in member when each holds its wire type, else None."""
    read, kinds = reader
    try:
        values = read(member)
    except KeyError:
        return None
    return values if tuple(map(type, values)) == kinds else None


def _one_by_one(member: dict, table: tuple, where: str) -> list:
    """The values of table's keys in member, in table order, each read as its wire type.

    The first absent or mistyped member, in table order, is the SchemaError.
    """
    return [_member(member, key, kind, where) for key, _, kind in table]


def _member(member: dict, key: str, kind, where: str):
    value = _require(member, key, where)
    return _as_int(value, key) if kind is int else _as_str(value, key)


def _location(text: str) -> UtmLocation:
    try:
        return UtmLocation.parse(text)
    except ValueError as exc:
        raise SchemaError('"Location" malformed: %s' % exc)


def _walk_meta(member, problems: list) -> MetaInfo:
    if not isinstance(member, dict):
        raise SchemaError('"MetaInfo" is not an object')
    values = _typed(member, _META_READ)
    if values is None:  # "Location" is checked first, then _META_KEYS in order
        _location(_member(member, "Location", str, "MetaInfo"))
        values = _one_by_one(member, _META_MEMBERS, "MetaInfo")
    values = list(values)
    values[_LOCATION_AT] = _location(values[_LOCATION_AT])
    meta = MetaInfo(*values)
    problems += _meta_problems(meta)
    return meta


def _walk_data(member) -> WeatherData | None:
    if not isinstance(member, dict):
        raise SchemaError('"Data" is not an object')
    blocks = []
    present = False
    for wire_key, block, holders in _DATA_WALK:
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
        present = True
    return WeatherData(*blocks) if present else None


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
            if not isinstance(holder, dict):
                raise SchemaError('"%s" is not an object' % where)
            holder, where = holder.get(key, {}), key
        if not isinstance(holder, dict):
            raise SchemaError('"%s" is not an object' % where)
        for key, value in holder.items():
            if not isinstance(value, dict):
                _as_str(value, key)
        for key, default in leaves:
            value = holder.get(key, default)
            values.append(default if isinstance(value, dict) else _as_str(value, key))
    return values


def _walk_info(member, problems: list) -> InfoPayload:
    if not isinstance(member, dict):
        raise SchemaError('"Info" is not an object')
    if "Services" in member and "Peers" in member:
        raise SchemaError('"Info" carries both a catalog and a listing')
    if "Services" in member:
        catalog = member["Services"]
        if not isinstance(catalog, dict):
            raise SchemaError('"Services" is not an object')
        services = {k: _as_str(v, k) for k, v in catalog.items()}
        _catalog_problems(services, problems)
        return InfoPayload(services=services)
    if "Peers" in member:
        listing = member["Peers"]
        if not isinstance(listing, dict):
            raise SchemaError('"Peers" is not an object')
        if len(listing) > 100:
            problems.append("peer listing above 100 entries")
        peers = {}
        for node_id, raw in listing.items():
            if not isinstance(raw, dict):
                raise SchemaError("peer entry %r is not an object" % (node_id,))
            values = _typed(raw, _PEER_READ)
            if values is None:
                values = _one_by_one(raw, _PEER_KEYS, "peer entry")
            entry = peers[node_id] = PeerEntry(*values)
            _entry_problems(node_id, entry, problems)
        return InfoPayload(peers=peers)
    raise SchemaError('"Info" carries neither "Services" nor "Peers"')


def _walk_retrieve(member, problems: list) -> RetrieveRequest:
    if not isinstance(member, dict):
        raise SchemaError('"Retrieve" is not an object')
    wanted = member.get("D", [])
    if isinstance(wanted, str):
        wanted = [wanted]
    if not isinstance(wanted, list):
        raise SchemaError('"D" is not a list of service names')
    services = tuple(_as_str(item, "D") for item in wanted)
    timestamp = _as_str(_require(member, "Timestamp", "Retrieve"), "Timestamp")
    retrieve = RetrieveRequest(services, timestamp)
    problems += _retrieve_problems(retrieve)
    return retrieve


# one parser for every frame: json.loads(text, parse_float=str) builds a new one per call;
# bare decimals keep their text
_JSON = json.JSONDecoder(parse_float=str)


def _parse(raw):
    """The JSON tree of wire bytes (or text)."""
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
        return _JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON at offset %d: %s" % (exc.pos, exc.msg), offset=exc.pos)
    except (RecursionError, ValueError) as exc:  # nesting too deep, integer literal too long
        raise ParseError("unparseable JSON: %s" % exc)


def _walk(raw) -> tuple:
    """The one walk of a frame: (its Envelope, the problems validate reports on it).

    Raises what decode documents for a frame that does not decode.
    """
    tree = _parse(raw)
    if not isinstance(tree, dict) or "OpenWeatherMessage" not in tree:
        raise SchemaError('missing "OpenWeatherMessage" member')
    body = tree["OpenWeatherMessage"]
    if not isinstance(body, dict):
        raise SchemaError('"OpenWeatherMessage" is not an object')
    code = _as_int(_require(body, "Type", "OpenWeatherMessage"), "Type")
    if not is_registered(code):
        raise UnknownCodeError(code)
    problems = []  # in validate's order: header, payload count, payload, payload rule
    meta = _walk_meta(_require(body, "MetaInfo", "OpenWeatherMessage"), problems)

    data_member = body.get("Data")
    retrieve_member = body.get("Retrieve", body.get("Retrive"))
    if isinstance(data_member, dict) and retrieve_member is None:
        nested = data_member.get("Retrieve", data_member.get("Retrive"))
        if nested is not None:
            retrieve_member = nested
            data_member = {k: v for k, v in data_member.items() if k not in ("Retrieve", "Retrive")}

    # a decoded "Data" always holds str measurements in at least one group, so it has no problems
    data = _walk_data(data_member) if data_member is not None else None
    if (data is not None) + ("Info" in body) + (retrieve_member is not None) > 1:
        problems.append("more than one payload present")
    info = _walk_info(body["Info"], problems) if "Info" in body else None
    retrieve = _walk_retrieve(retrieve_member, problems) if retrieve_member is not None else None
    envelope = Envelope(code, meta, data, info, retrieve)
    problems += _payload_rule_problems(envelope)
    return envelope, problems


def decode(raw) -> Envelope:
    """Parse wire bytes (or text) into an Envelope, liberally and unchecked.

    Raises ParseError for bad JSON, SchemaError for missing or mistyped
    members, UnknownCodeError for a Type outside the registry.
    """
    return _walk(raw)[0]


def decode_checked(raw) -> Envelope:
    """decode, then refuse an envelope that validate would find problems in.

    Raises what decode raises, or SchemaError("invalid envelope: ...")
    listing the problems as validate reports them.
    """
    envelope, problems = _walk(raw)
    if problems:
        raise SchemaError("invalid envelope: " + "; ".join(problems))
    return envelope
