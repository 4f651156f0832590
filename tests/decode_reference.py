"""The inbound path as it stood before decoding became one compiled walk:
decode builds the Envelope field by field, reading each "Data" holder into
a dict of its leaves, and validate then checks the result.

Kept as the reference that tests compare decode and decode_checked against.
It imports no test framework, so it also runs under a bare interpreter.  It
reads the Location through the codec's UtmLocation.parse, so the separator
rule is the codec's own and a comparison covers the walk alone.
"""

import dataclasses
import json
import re

from openweather.codec import (
    MEASUREMENT_GROUPS,
    Envelope,
    InfoPayload,
    MetaInfo,
    ParseError,
    PeerEntry,
    RetrieveRequest,
    SchemaError,
    UnknownCodeError,
    UtmLocation,
    WeatherData,
    is_registered,
    validate,
)

NUMERAL_RE = re.compile(r"-?[0-9]+")
META_KEYS = (
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
PEER_KEYS = (("Peer-IP", "peer_ip", str), ("Port", "port", int), ("Bandwidth", "bandwidth", int))
JSON = json.JSONDecoder(parse_float=str)


def _by_holder(rows) -> tuple:
    held = {}
    for row in rows:
        held.setdefault(row.path[:-1], []).append((row.path[-1], row.field, row.default))
    return tuple((keys, tuple(leaves)) for keys, leaves in held.items())


DATA_LAYOUT = tuple(
    (name, rows[0].wire_group, block, _by_holder(rows)) for name, (block, rows) in MEASUREMENT_GROUPS.items()
)


def as_int(value, name: str) -> int:
    if isinstance(value, bool):
        raise SchemaError('"%s" is not an integer' % name)
    if isinstance(value, int):
        return value
    if isinstance(value, str) and NUMERAL_RE.fullmatch(value):
        try:
            return int(value, 10)
        except ValueError:
            pass
    raise SchemaError('"%s" is not an integer' % name)


def as_str(value, name: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise SchemaError('"%s" is not a string' % name)


def require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError('missing "%s" member in %s' % (key, where))
    return mapping[key]


def fields(member: dict, table: tuple, where: str) -> dict:
    found = {}
    for key, attr, kind in table:
        value = require(member, key, where)
        found[attr] = as_int(value, key) if kind is int else as_str(value, key)
    return found


def meta_from_wire(member) -> MetaInfo:
    if not isinstance(member, dict):
        raise SchemaError('"MetaInfo" is not an object')
    location_text = as_str(require(member, "Location", "MetaInfo"), "Location")
    try:
        location = UtmLocation.parse(location_text)
    except ValueError as exc:
        raise SchemaError('"Location" malformed: %s' % exc)
    return MetaInfo(location=location, **fields(member, META_KEYS, "MetaInfo"))


def group_values(group, wire_key: str, keys: tuple) -> dict:
    member, where = group, wire_key
    for key in keys:
        if not isinstance(member, dict):
            raise SchemaError('"%s" is not an object' % where)
        member, where = member.get(key, {}), key
    if not isinstance(member, dict):
        raise SchemaError('"%s" is not an object' % where)
    return {key: as_str(value, key) for key, value in member.items() if not isinstance(value, dict)}


def data_from_wire(member):
    if not isinstance(member, dict):
        raise SchemaError('"Data" is not an object')
    blocks = {}
    for name, wire_key, block, holders in DATA_LAYOUT:
        if wire_key not in member:
            continue
        values = {}
        for keys, leaves in holders:
            found = group_values(member[wire_key], wire_key, keys)
            for leaf, field, default in leaves:
                values[field] = found.get(leaf, default)
        blocks[name] = block(**values)
    return WeatherData(**blocks) if blocks else None


def info_from_wire(member) -> InfoPayload:
    if not isinstance(member, dict):
        raise SchemaError('"Info" is not an object')
    if "Services" in member and "Peers" in member:
        raise SchemaError('"Info" carries both a catalog and a listing')
    if "Services" in member:
        catalog = member["Services"]
        if not isinstance(catalog, dict):
            raise SchemaError('"Services" is not an object')
        return InfoPayload(services={k: as_str(v, k) for k, v in catalog.items()})
    if "Peers" in member:
        listing = member["Peers"]
        if not isinstance(listing, dict):
            raise SchemaError('"Peers" is not an object')
        peers = {}
        for node_id, raw in listing.items():
            if not isinstance(raw, dict):
                raise SchemaError("peer entry %r is not an object" % (node_id,))
            peers[node_id] = PeerEntry(**fields(raw, PEER_KEYS, "peer entry"))
        return InfoPayload(peers=peers)
    raise SchemaError('"Info" carries neither "Services" nor "Peers"')


def retrieve_from_wire(member) -> RetrieveRequest:
    if not isinstance(member, dict):
        raise SchemaError('"Retrieve" is not an object')
    wanted = member.get("D", [])
    if isinstance(wanted, str):
        wanted = [wanted]
    if not isinstance(wanted, list):
        raise SchemaError('"D" is not a list of service names')
    services = tuple(as_str(item, "D") for item in wanted)
    timestamp = as_str(require(member, "Timestamp", "Retrieve"), "Timestamp")
    return RetrieveRequest(services=services, timestamp=timestamp)


def decode(raw) -> Envelope:
    if isinstance(raw, (bytes, bytearray)):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not valid UTF-8: %s" % exc, offset=exc.start)
    elif isinstance(raw, str):
        text = raw
    else:
        raise TypeError("the JSON object must be str, bytes or bytearray, not %s" % type(raw).__name__)
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        tree = JSON.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON at offset %d: %s" % (exc.pos, exc.msg), offset=exc.pos)
    except (RecursionError, ValueError) as exc:
        raise ParseError("unparseable JSON: %s" % exc)
    if not isinstance(tree, dict) or "OpenWeatherMessage" not in tree:
        raise SchemaError('missing "OpenWeatherMessage" member')
    body = tree["OpenWeatherMessage"]
    if not isinstance(body, dict):
        raise SchemaError('"OpenWeatherMessage" is not an object')
    code = as_int(require(body, "Type", "OpenWeatherMessage"), "Type")
    if not is_registered(code):
        raise UnknownCodeError(code)
    meta = meta_from_wire(require(body, "MetaInfo", "OpenWeatherMessage"))

    data_member = body.get("Data")
    retrieve_member = body.get("Retrieve", body.get("Retrive"))
    if isinstance(data_member, dict) and retrieve_member is None:
        nested = data_member.get("Retrieve", data_member.get("Retrive"))
        if nested is not None:
            retrieve_member = nested
            data_member = {k: v for k, v in data_member.items() if k not in ("Retrieve", "Retrive")}

    data = data_from_wire(data_member) if data_member is not None else None
    info = info_from_wire(body["Info"]) if "Info" in body else None
    retrieve = retrieve_from_wire(retrieve_member) if retrieve_member is not None else None
    return Envelope(type_code=code, meta=meta, data=data, info=info, retrieve=retrieve)


def decode_checked(raw) -> Envelope:
    """decode, then validate, raising what NodeRuntime raised for a frame with problems."""
    envelope = decode(raw)
    report = validate(envelope)
    if not report.ok:
        raise SchemaError("invalid envelope: " + "; ".join(report.problems))
    return envelope


def shape(value):
    """value with the type of every part spelled out, so that 1 and True, or "1" and 1, differ."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple(shape(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, dict):
        return dict, tuple((shape(key), shape(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return type(value), tuple(shape(item) for item in value)
    return type(value), value


def outcome(fn, raw):
    """The typed shape of what fn returns for raw, or the class, message and offset of what it raises."""
    try:
        return shape(fn(raw))
    except Exception as exc:  # the comparison covers every exception, alike
        return type(exc), str(exc), getattr(exc, "offset", None)
