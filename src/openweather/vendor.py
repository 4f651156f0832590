"""Normalization of vendor weather-sensor output lines.

The supported dialect is comma-keyed ASCII: a record tag, then
``key=value<unit-letter>`` fields, e.g.::

    0r2,Ta=18.7C,Ua=77.4P,Pa=1002.1H

Built-in keys cover the PTU trio (Ta air temperature in C, Ua relative
humidity in P, Pa air pressure in H); Tp (internal temperature probe) is
recognized but dropped with a note.  Anything else becomes a warning, and
checksum-like garbage dangling off the final unit letter run is stripped.
Extra keys can be taught through a tab-separated mapping file with lines
``key<TAB>group<TAB>field<TAB>unit``, where group is ptu/wind/precipitation
and field is the matching NormalizedSample attribute, e.g.::

    Sm	wind	wind_speed_max_ms	M

Values are carried as decimal text end to end (decimal.Decimal, never
float), so what the sensor printed is what the wire shows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal

from .codec import MEASUREMENT_GROUPS, WeatherData


class VendorError(ValueError):
    """Base class for sensor-line problems."""


class FormatError(VendorError):
    """The line has no recognizable record tag."""


class FieldValueError(VendorError):
    """A recognized key carries a non-numeric value."""

    def __init__(self, key: str, token: str):
        super().__init__("non-numeric value for key %r in field %r" % (key, token))
        self.key = key


class MappingError(VendorError):
    """The extension mapping file is malformed."""


class EmptySampleError(VendorError):
    """The sample has no measurement groups, so there is nothing to send."""


@dataclass(frozen=True)
class NormalizedSample:
    """One station reading, every measurement optional."""

    timestamp_ms: int
    air_temperature_c: Decimal | None = None
    relative_humidity_pct: Decimal | None = None
    air_pressure_hpa: Decimal | None = None
    wind_direction_min_deg: Decimal | None = None
    wind_direction_ave_deg: Decimal | None = None
    wind_direction_max_deg: Decimal | None = None
    wind_speed_min_ms: Decimal | None = None
    wind_speed_ave_ms: Decimal | None = None
    wind_speed_max_ms: Decimal | None = None
    rain_accumulation_mm: Decimal | None = None
    rain_duration_s: Decimal | None = None
    rain_intensity_mmh: Decimal | None = None
    rain_peak_mmh: Decimal | None = None
    hail_accumulation_hits: Decimal | None = None
    hail_duration_s: Decimal | None = None
    hail_intensity_hits: Decimal | None = None
    hail_peak_hits: Decimal | None = None


# group name -> the NormalizedSample attributes it carries
GROUP_FIELDS = {name: tuple(row.sample for row in rows) for name, (_, rows) in MEASUREMENT_GROUPS.items()}

# key -> (NormalizedSample attribute, expected unit letter)
BUILTIN_FIELD_MAP = {
    "Ta": ("air_temperature_c", "C"),
    "Ua": ("relative_humidity_pct", "P"),
    "Pa": ("air_pressure_hpa", "H"),
}
IGNORED_KEYS = {"Tp": "internal temperature probe"}

_TAG_RE = re.compile(r"^[0-9A-Za-z]+$")
_VALUE_RE = re.compile(r"^(-?(?:\d+(?:\.\d+)?|\.\d+))([A-Za-z#]*)$")


@dataclass
class ParsedLine:
    """Fragment of a sample: values found on one line, plus parse notes."""

    record_tag: str
    values: dict = field(default_factory=dict)  # attribute name -> Decimal
    warnings: list = field(default_factory=list)


def parse_line(text: str, field_map: dict | None = None) -> ParsedLine:
    """Parse one sensor line; total over arbitrary ASCII.

    Returns a ParsedLine or raises FormatError (no record tag) or
    FieldValueError (recognized key, unusable value).  Anything else the
    line contains turns into a warning, never a crash.
    """
    known = dict(BUILTIN_FIELD_MAP)
    if field_map:
        known.update(field_map)
    line = text.rstrip("\r\n")
    tokens = line.split(",")
    tag = tokens[0].strip()
    if not _TAG_RE.match(tag):
        raise FormatError("missing record tag in %r" % (line[:80],))
    parsed = ParsedLine(record_tag=tag)
    body = tokens[1:]
    for position, token in enumerate(body):
        token = token.strip()
        is_last = position == len(body) - 1
        if "=" not in token:
            if token:
                parsed.warnings.append("unrecognized field %r" % (token,))
            continue
        key, raw_value = token.split("=", 1)
        if key in IGNORED_KEYS:
            parsed.warnings.append("ignored key %r (%s)" % (key, IGNORED_KEYS[key]))
            continue
        if key not in known:
            parsed.warnings.append("unknown key %r" % (key,))
            continue
        attribute, unit = known[key]
        found = _VALUE_RE.match(raw_value)
        if found is None:
            raise FieldValueError(key, token)
        number, units = found.groups()
        if units != unit:
            if is_last and units.startswith(unit):
                parsed.warnings.append(
                    "trailing garbage %r stripped after %s" % (units[len(unit):], key)
                )
            else:
                parsed.warnings.append(
                    "unit mismatch on %s: got %r, expected %r" % (key, units, unit)
                )
        parsed.values[attribute] = Decimal(number)
    return parsed


def to_sample(parsed: ParsedLine, timestamp_ms: int) -> NormalizedSample:
    """Stamp a parsed fragment into a sample at its ingestion time."""
    return NormalizedSample(timestamp_ms=timestamp_ms, **parsed.values)


def load_field_map(path) -> dict:
    """Read an extension mapping file; returns key -> (attribute, unit)."""
    mapping = {}
    with open(path, "r", encoding="ascii") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise MappingError("line %d: expected 4 tab-separated columns" % number)
            key, group, attribute, unit = (p.strip() for p in parts)
            if group not in GROUP_FIELDS:
                raise MappingError("line %d: unknown group %r" % (number, group))
            if attribute not in GROUP_FIELDS[group]:
                raise MappingError(
                    "line %d: field %r does not belong to group %r" % (number, attribute, group)
                )
            if not key or not _TAG_RE.match(key):
                raise MappingError("line %d: bad key %r" % (number, key))
            mapping[key] = (attribute, unit)
    return mapping


def to_data_block(sample: NormalizedSample) -> WeatherData:
    """Shape a sample into the wire's Data payload.

    Groups without a single reading are left out (the station does not
    offer that service), except those whose missing-value default is itself
    a reading: precipitation's "0", which a dry spell zero-fills.
    A sample with no readings at all raises EmptySampleError.
    """
    blocks = {}
    has_reading = False
    for name, (block, rows) in MEASUREMENT_GROUPS.items():
        values = {}
        group_read = False
        for row in rows:
            value = getattr(sample, row.sample)
            if value is None:
                values[row.field] = row.default
            else:
                values[row.field] = str(value)
                group_read = True
        if group_read:
            has_reading = True
        elif not rows[0].default:
            continue
        blocks[name] = block(**values)
    if not has_reading:
        raise EmptySampleError("sample carries no measurements")
    return WeatherData(**blocks)


def sample_problems(sample: NormalizedSample) -> list:
    """Physical-range checks used by generators and tests."""
    problems = []
    rh = sample.relative_humidity_pct
    if rh is not None and not Decimal(0) <= rh <= Decimal(100):
        problems.append("relative humidity %s outside 0..100" % rh)
    for low, mid, high, what in (
        (
            sample.wind_direction_min_deg,
            sample.wind_direction_ave_deg,
            sample.wind_direction_max_deg,
            "wind direction",
        ),
        (sample.wind_speed_min_ms, sample.wind_speed_ave_ms, sample.wind_speed_max_ms, "wind speed"),
    ):
        if low is None and mid is None and high is None:
            continue
        if None in (low, mid, high):
            problems.append("%s min/ave/max incomplete" % what)
        elif not low <= mid <= high:
            problems.append("%s min/ave/max out of order" % what)
    for name in GROUP_FIELDS["precipitation"] + ("wind_speed_min_ms", "wind_speed_ave_ms", "wind_speed_max_ms"):
        value = getattr(sample, name)
        if value is not None and value < 0:
            problems.append("%s negative" % name)
    return problems
