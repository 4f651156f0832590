"""The canonical renderer as it stood before encoding was compiled into
templates: build the wire tree as dicts, then render it recursively.  And
validate as it stood before the header and peer-entry checks were read
from the codec's member tables: one hand-written check after another.

Kept as the reference that tests compare the codec's bytes, errors and
problem lists against.  It imports no test framework, so it also runs under
a bare interpreter.
"""

import ipaddress
import json
import re

from openweather import codec
from openweather.codec import (
    MEASUREMENT_GROUPS,
    SERVICE_FLAGS,
    SERVICES,
    EncodeError,
    PeerEntry,
    ProtocolCode,
    UtmLocation,
    ValidationReport,
    is_registered,
    parse_timestamp,
)
from openweather.identity import is_node_id

ZONE_RE = re.compile(r"[0-9]{1,2}[A-Z]")
VERSION_RE = re.compile(r"OpenWeather/[0-9]+\.[0-9]+")

# codes that must carry a specific payload; everything else carries none
PAYLOAD_RULE = {
    ProtocolCode.SERVICES_AVAILABLE_R: "services",
    ProtocolCode.LIST_PEERS_R: "peers",
    ProtocolCode.ON_DEMAND_DATA: "retrieve",
    ProtocolCode.REAL_TIME_DATA_R: "data",
    ProtocolCode.ON_DEMAND_DATA_R: "data",
}


def is_address(value) -> bool:
    try:
        ipaddress.ip_address(value)
    except ValueError:
        return False
    return True


def is_timestamp(value) -> bool:
    try:
        parse_timestamp(value)
    except (TypeError, ValueError):
        return False
    return True


def validate(envelope) -> ValidationReport:
    problems = []
    if not isinstance(envelope.type_code, int) or not is_registered(envelope.type_code):
        problems.append("unknown type code %r" % (envelope.type_code,))
    problems.extend(meta_problems(envelope.meta))
    payloads = [p for p in (envelope.data, envelope.info, envelope.retrieve) if p is not None]
    if len(payloads) > 1:
        problems.append("more than one payload present")
    if envelope.data is not None:
        problems.extend(data_problems(envelope.data))
    if envelope.info is not None:
        problems.extend(info_problems(envelope.info))
    if envelope.retrieve is not None:
        problems.extend(retrieve_problems(envelope.retrieve))
    problems.extend(payload_rule_problems(envelope))
    return ValidationReport(tuple(problems))


def payload_rule_problems(envelope) -> list:
    code = envelope.type_code
    if not isinstance(code, int) or not is_registered(code):
        return []
    required = PAYLOAD_RULE.get(code)
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


def meta_problems(meta) -> list:
    problems = []
    if not is_node_id(meta.node_id):
        problems.append("node id is not 64 lowercase hex characters")
    if not is_address(meta.peer_ip):
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
        if not isinstance(meta.location.zone, str) or not ZONE_RE.fullmatch(meta.location.zone):
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
    if not is_timestamp(meta.timestamp):
        problems.append("timestamp malformed")
    if not isinstance(meta.version, str) or not VERSION_RE.fullmatch(meta.version):
        problems.append("version malformed")
    return problems


def data_problems(data) -> list:
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


def info_problems(info) -> list:
    problems = []
    if info.services is None and info.peers is None:
        problems.append("info payload empty")
    if info.services is not None and info.peers is not None:
        problems.append("info payload carries both variants")
    if info.services is not None:
        catalog_problems(info.services, problems)
    if info.peers is not None:
        if len(info.peers) > 100:
            problems.append("peer listing above 100 entries")
        members = codec._members  # looked up on each call: a test may swap in an empty memo
        for node_id, entry in info.peers.items():
            if type(node_id) is str:
                known = members.get(node_id)
                if known is not None and known[0] is entry:
                    continue
            entry_problems(node_id, entry, problems)
    return problems


def catalog_problems(services: dict, problems: list) -> None:
    if not services:
        problems.append("service catalog empty")
    for name, flags in services.items():
        if name not in SERVICES:
            problems.append("unknown service %r" % (name,))
        if flags not in SERVICE_FLAGS:
            problems.append("bad service flags %r" % (flags,))


def entry_problems(node_id, entry, problems: list) -> None:
    if not is_node_id(node_id):
        problems.append("peer id %r is not 64 lowercase hex characters" % (node_id,))
    if not isinstance(entry, PeerEntry):
        problems.append("peer entry for %r malformed" % (node_id,))
        return
    if not isinstance(entry.port, int) or not 1 <= entry.port <= 65535:
        problems.append("peer port %r out of range" % (entry.port,))
    if not isinstance(entry.bandwidth, int) or entry.bandwidth < 0:
        problems.append("peer bandwidth below 0")
    if not is_address(entry.peer_ip):
        problems.append("peer ip %r is not a valid address" % (entry.peer_ip,))


def retrieve_problems(retrieve) -> list:
    problems = []
    if not retrieve.services:
        problems.append("retrieve services empty")
    if len(set(retrieve.services)) != len(retrieve.services):
        problems.append("retrieve services duplicated")
    for name in retrieve.services:
        if name not in SERVICES:
            problems.append("unknown service %r" % (name,))
    if not is_timestamp(retrieve.timestamp):
        problems.append("retrieve timestamp malformed")
    return problems


def _by_holder(rows) -> tuple:
    held = {}
    for row in rows:
        held.setdefault(row.path[:-1], []).append((row.path[-1], row.field))
    return tuple(held.items())


DATA_LAYOUT = tuple((name, rows[0].wire_group, _by_holder(rows)) for name, (_, rows) in MEASUREMENT_GROUPS.items())


def render(value) -> str:
    if isinstance(value, bool):
        raise EncodeError("boolean values never appear on the wire")
    if isinstance(value, dict):
        members = ", ".join(
            "%s : %s" % (json.dumps(key, ensure_ascii=False), render(value[key])) for key in sorted(value)
        )
        return "{ %s }" % members if members else "{ }"
    if isinstance(value, (list, tuple)):
        items = ", ".join(render(item) for item in value)
        return "[ %s ]" % items if items else "[ ]"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise EncodeError("cannot encode value of type %s" % type(value).__name__)


def meta_to_wire(meta) -> dict:
    return {
        "ID": meta.node_id,
        "Peer-IP": meta.peer_ip,
        "Port": meta.port,
        "Location": meta.location.render(),
        "Update-Interval": meta.update_interval_ms,
        "Peers-Requested": meta.peers_requested,
        "Keep-Alive": meta.keep_alive_ms,
        "Bandwidth": meta.bandwidth,
        "Timestamp": meta.timestamp,
        "Version": meta.version,
    }


def data_to_wire(data) -> dict:
    wire = {}
    for name, wire_key, holders in DATA_LAYOUT:
        block = getattr(data, name)
        if block is None:
            continue
        group = wire[wire_key] = {}
        for keys, leaves in holders:
            target = group
            for key in keys:
                target = target.setdefault(key, {})
            for leaf, field in leaves:
                target[leaf] = getattr(block, field)
    return wire


def info_to_wire(info) -> dict:
    if info.services is not None:
        return {"Services": dict(info.services)}
    entries = {}
    for node_id, entry in info.peers.items():
        entries[node_id] = {"Peer-IP": entry.peer_ip, "Port": entry.port, "Bandwidth": entry.bandwidth}
    return {"Peers": entries}


def payload_to_wire(envelope):
    if envelope.data is not None:
        return "Data", data_to_wire(envelope.data)
    if envelope.info is not None:
        return "Info", info_to_wire(envelope.info)
    if envelope.retrieve is not None:
        return "Retrieve", {"D": list(envelope.retrieve.services), "Timestamp": envelope.retrieve.timestamp}
    return None


def encode(envelope) -> bytes:
    report = validate(envelope)
    if not report.ok:
        raise EncodeError("refusing to encode: " + "; ".join(report.problems))
    body = {"Type": envelope.type_code, "MetaInfo": meta_to_wire(envelope.meta)}
    payload = payload_to_wire(envelope)
    if payload is not None:
        key, value = payload
        body[key] = value
    return render({"OpenWeatherMessage": body}).encode("utf-8")


def payload_fragment(envelope):
    payload = payload_to_wire(envelope)
    return None if payload is None else render(payload[1])


def outcome(fn, *args):
    """fn's result, or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers every exception, alike
        return type(exc), str(exc)
