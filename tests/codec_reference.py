"""The canonical renderer as it stood before encoding was compiled into
templates: build the wire tree as dicts, then render it recursively.

Kept as the reference that tests compare the codec's bytes and errors
against.  It imports no test framework, so it also runs under a bare
interpreter.
"""

import json

from openweather.codec import MEASUREMENT_GROUPS, EncodeError, validate


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
