"""Vendor sensor-line normalization: printed lines, fuzz, mapping files."""

import dataclasses
import random
import string
from decimal import Decimal

import pytest

from openweather import vendor
from openweather.codec import MEASUREMENT_GROUPS, MEASUREMENTS
from openweather.vendor import (
    EmptySampleError,
    FieldValueError,
    FormatError,
    MappingError,
    NormalizedSample,
    ParsedLine,
    load_field_map,
    parse_line,
    sample_problems,
    to_data_block,
    to_sample,
)

LINE_PTU = "0r2,Ta=18.7C,Ua=77.4P,Pa=1002.1H"
LINE_PROBE = "0r2,Ta=10.6C,Tp=10.8C,Ua=74.6P,Pa=1006.0HKHK"
LINE_UPPER = "0R2,Ta=23.6C,Ua=14.2P,Pa=1026.6H"


def test_clean_ptu_line():
    parsed = parse_line(LINE_PTU)
    assert parsed.record_tag == "0r2"
    assert parsed.values == {
        "air_temperature_c": Decimal("18.7"),
        "relative_humidity_pct": Decimal("77.4"),
        "air_pressure_hpa": Decimal("1002.1"),
    }
    assert parsed.warnings == []


def test_probe_line_ignores_tp_and_strips_checksum():
    parsed = parse_line(LINE_PROBE)
    assert parsed.values == {
        "air_temperature_c": Decimal("10.6"),
        "relative_humidity_pct": Decimal("74.6"),
        "air_pressure_hpa": Decimal("1006.0"),
    }
    assert any("Tp" in warning for warning in parsed.warnings)
    assert any("stripped" in warning for warning in parsed.warnings)


def test_uppercase_tag_line():
    parsed = parse_line(LINE_UPPER + "\r\n")
    assert parsed.record_tag == "0R2"
    assert parsed.values["air_pressure_hpa"] == Decimal("1026.6")


def test_decimal_text_round_trips():
    parsed = parse_line("0r2,Ta=10.60C,Ua=74.0P,Pa=1006.0H")
    assert str(parsed.values["air_temperature_c"]) == "10.60"
    assert str(parsed.values["relative_humidity_pct"]) == "74.0"
    assert str(parsed.values["air_pressure_hpa"]) == "1006.0"


def test_negative_and_bare_decimal_values():
    parsed = parse_line("0r2,Ta=-3.4C,Ua=.5P")
    assert parsed.values["air_temperature_c"] == Decimal("-3.4")
    assert parsed.values["relative_humidity_pct"] == Decimal("0.5")


def test_unknown_keys_warn_but_do_not_abort():
    parsed = parse_line("0r2,Ta=18.7C,Xx=4.2Q,junk")
    assert parsed.values == {"air_temperature_c": Decimal("18.7")}
    assert any("Xx" in warning for warning in parsed.warnings)
    assert any("junk" in warning for warning in parsed.warnings)


def test_unit_mismatch_warns_but_keeps_value():
    parsed = parse_line("0r2,Ta=18.7F,Ua=77.4P")
    assert parsed.values["air_temperature_c"] == Decimal("18.7")
    assert any("unit mismatch" in warning for warning in parsed.warnings)


def test_known_key_with_garbage_value_raises():
    with pytest.raises(FieldValueError) as caught:
        parse_line("0r2,Ta=hotC")
    assert caught.value.key == "Ta"


def test_missing_tag_raises():
    with pytest.raises(FormatError):
        parse_line("=nope,Ta=18.7C")
    with pytest.raises(FormatError):
        parse_line("")


def test_fuzzed_ascii_never_aborts_unexpectedly():
    rng = random.Random(1006)
    alphabet = string.ascii_letters + string.digits + ",=.-#<> \t"
    for _ in range(1000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            parsed = parse_line(line)
        except (FormatError, FieldValueError):
            continue
        assert isinstance(parsed, ParsedLine)
        for value in parsed.values.values():
            assert isinstance(value, Decimal)


def test_to_sample_and_back_to_wire():
    sample = to_sample(parse_line(LINE_PTU), timestamp_ms=1311606935000)
    assert sample.timestamp_ms == 1311606935000
    block = to_data_block(sample)
    assert block.ptu.air_temperature == "18.7"
    assert block.ptu.relative_humidity == "77.4"
    assert block.ptu.air_pressure == "1002.1"
    assert block.wind is None
    # a dry station still reports zero precipitation
    assert block.precipitation.rain_accumulation == "0"
    assert block.precipitation.hail_peak == "0"


def test_empty_sample_refuses_to_build_a_block():
    with pytest.raises(EmptySampleError):
        to_data_block(NormalizedSample(timestamp_ms=0))


def test_field_map_extension(tmp_path):
    mapping = tmp_path / "map.tsv"
    mapping.write_text(
        "# wind sensor extras\n"
        "Sm\twind\twind_speed_max_ms\tM\n"
        "Sn\twind\twind_speed_min_ms\tM\n"
        "Sa\twind\twind_speed_ave_ms\tM\n",
        encoding="ascii",
    )
    loaded = load_field_map(mapping)
    parsed = parse_line("0R1,Sn=0.7M,Sm=2.9M,Sa=1.7M", field_map=loaded)
    assert parsed.values == {
        "wind_speed_min_ms": Decimal("0.7"),
        "wind_speed_max_ms": Decimal("2.9"),
        "wind_speed_ave_ms": Decimal("1.7"),
    }


@pytest.mark.parametrize(
    "line",
    [
        "Sm\twind\twind_speed_max_ms",
        "Sm\tptu\twind_speed_max_ms\tM",
        "Sm\tocean\twind_speed_max_ms\tM",
        "\twind\twind_speed_max_ms\tM",
    ],
)
def test_field_map_rejects_malformed_lines(tmp_path, line):
    mapping = tmp_path / "map.tsv"
    mapping.write_text(line + "\n", encoding="ascii")
    with pytest.raises(MappingError) as caught:
        load_field_map(mapping)
    assert "line 1" in str(caught.value)


def test_sample_problems_checks():
    wet = NormalizedSample(timestamp_ms=0, relative_humidity_pct=Decimal("101"))
    assert any("humidity" in p for p in sample_problems(wet))
    tangled = NormalizedSample(
        timestamp_ms=0,
        wind_speed_min_ms=Decimal("3"),
        wind_speed_ave_ms=Decimal("2"),
        wind_speed_max_ms=Decimal("4"),
    )
    assert any("out of order" in p for p in sample_problems(tangled))
    fine = to_sample(parse_line(LINE_PTU), 0)
    assert sample_problems(fine) == []


def test_builtin_map_is_not_mutated_by_extensions():
    before = dict(vendor.BUILTIN_FIELD_MAP)
    parse_line(LINE_PTU, field_map={"Zz": ("rain_peak_mmh", "M")})
    assert vendor.BUILTIN_FIELD_MAP == before


def test_measurement_table_covers_every_block_field_and_sample_attribute():
    for block, rows in MEASUREMENT_GROUPS.values():
        fields = [(f.name, f.default) for f in dataclasses.fields(block)]
        assert fields == [(row.field, row.default) for row in rows]
    samples = [f.name for f in dataclasses.fields(NormalizedSample) if f.name != "timestamp_ms"]
    assert sorted(row.sample for row in MEASUREMENTS) == sorted(samples)
    assert len({(row.wire_group, row.path) for row in MEASUREMENTS}) == len(MEASUREMENTS) == 17
