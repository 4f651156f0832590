"""Wire codec: captured messages, canonical form, validation, round trips, and
encoding checked against the reference renderer."""

import dataclasses
import json
import random
from enum import IntEnum

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import captures
import codec_reference as reference
from openweather import codec
from openweather.codec import (
    SERVICE_FLAGS,
    SERVICES,
    EncodeError,
    Envelope,
    InfoPayload,
    MetaInfo,
    ParseError,
    PeerEntry,
    PrecipitationBlock,
    ProtocolCode,
    PtuBlock,
    RetrieveRequest,
    SchemaError,
    UnknownCodeError,
    UtmLocation,
    WeatherData,
    WindBlock,
    decode,
    encode,
    format_timestamp,
    is_registered,
    parse_timestamp,
    payload_fragment,
    validate,
)

LOCATION = UtmLocation(6672224, 385565, "35V")


def meta(**overrides) -> MetaInfo:
    base = dict(
        node_id="a" * 64,
        peer_ip="172.21.25.16",
        location=LOCATION,
        bandwidth=6,
        timestamp="2011-07-20T16:51:29Z",
    )
    base.update(overrides)
    return MetaInfo(**base)


# -- captured messages ------------------------------------------------------------


def test_captures_decode_and_match_printed_values():
    one = decode(captures.TEST1_NODE1)
    assert one.type_code == 100
    assert one.meta.node_id == captures.NODE1_ID
    assert one.meta.peer_ip == "172.21.25.16"
    assert one.meta.port == 62535
    assert one.meta.bandwidth == 6
    assert one.meta.keep_alive_ms == 120000
    assert one.meta.update_interval_ms == 120000
    assert one.meta.peers_requested == 20
    assert one.meta.location == LOCATION
    assert one.meta.version == "OpenWeather/1.0"

    two = decode(captures.TEST1_NODE2)
    assert two.type_code == 101
    assert two.meta.node_id == captures.NODE2_ID
    assert two.meta.peer_ip == "172.21.25.20"

    three = decode(captures.TEST2_NODE3)
    assert three.type_code == 102
    assert three.meta.bandwidth == 1
    assert three.meta.peer_ip == "172.21.25.35"

    four = decode(captures.TEST2_NODE4)
    assert four.type_code == 103
    assert four.info.services == {"PRECIPITATION": "RO", "PTU": "RO", "WIND": "RO"}
    assert four.meta.bandwidth == 0

    req = decode(captures.TEST3_NODE4)
    assert req.type_code == 200
    assert req.meta.node_id == captures.NODE4_ID

    sample = decode(captures.TEST3_NODE1)
    assert sample.type_code == 300
    assert sample.data.ptu == PtuBlock(
        air_pressure="1014.1", air_temperature="19.1", relative_humidity="69.4"
    )
    assert sample.data.wind == WindBlock(
        direction_min="160",
        direction_ave="160",
        direction_max="160",
        speed_min="1.7",
        speed_ave="1.7",
        speed_max="1.8",
    )
    assert sample.data.precipitation == PrecipitationBlock()


def test_captures_reencode_to_pinned_sizes():
    for name, text, code, pinned in captures.ALL:
        raw = encode(decode(text))
        assert len(raw) == pinned, name
        # the prototype printed timestamps without the Z; one byte shorter
        assert len(text) == pinned - 1, name


def test_ragged_capture_decodes_like_the_tidy_one():
    tidy = decode(captures.TEST3_NODE4)
    ragged = decode(captures.TEST3_NODE4_RAGGED)
    assert encode(tidy) == encode(ragged)


# -- canonical rendering ------------------------------------------------------------


def test_canonical_layout_rules():
    text = encode(Envelope(type_code=100, meta=meta())).decode("utf-8")
    assert "\n" not in text
    assert text.startswith('{ "OpenWeatherMessage" : { ')
    assert text.endswith(" } }")
    assert '" : ' in text
    assert ", " in text
    # header numerics are bare; identifying fields are quoted
    assert '"Port" : 62535' in text
    assert '"Bandwidth" : 6' in text
    assert '"Keep-Alive" : 120000' in text
    assert '"Timestamp" : "2011-07-20T16:51:29Z"' in text
    assert '"Peer-IP" : "172.21.25.16"' in text
    assert '"Location" : "6672224 385565 35V"' in text


def test_keys_sorted_at_every_depth():
    envelope = Envelope(
        type_code=300,
        meta=meta(),
        data=WeatherData(ptu=PtuBlock("1014.1", "19.1", "69.4"), wind=WindBlock(*["1"] * 6)),
    )
    text = encode(envelope).decode("utf-8")

    def keys_in_order(tree):
        if isinstance(tree, dict):
            names = list(tree)
            assert names == sorted(names)
            for child in tree.values():
                keys_in_order(child)

    keys_in_order(json.loads(text))
    assert text.index('"Data"') < text.index('"MetaInfo"') < text.index('"Type"')


def test_measurements_stay_strings_on_the_wire():
    envelope = Envelope(
        type_code=300,
        meta=meta(),
        data=WeatherData(precipitation=PrecipitationBlock()),
    )
    text = encode(envelope).decode("utf-8")
    assert '"accumulation" : "0"' in text
    assert '"accumulation" : 0' not in text


def test_encode_is_stable():
    envelope = Envelope(type_code=100, meta=meta())
    assert encode(envelope) == encode(envelope)
    assert encode(decode(encode(envelope))) == encode(envelope)


class Port(IntEnum):
    DEFAULT = 62535


class Band(IntEnum):
    SIX = 6


def test_int_subclasses_encode_as_their_digits():
    # on Python 3.10 str() of an IntEnum member is its qualified name
    plain = encode(Envelope(100, meta(port=62535, bandwidth=6)))
    assert encode(Envelope(ProtocolCode.HANDSHAKE, meta(port=Port.DEFAULT, bandwidth=Band.SIX))) == plain
    listing = {"b" * 64: PeerEntry("10.0.0.1", 62535, 6)}
    enum_listing = {"b" * 64: PeerEntry("10.0.0.1", Port.DEFAULT, Band.SIX)}
    assert encode(Envelope(ProtocolCode.LIST_PEERS_R, meta(), info=InfoPayload(peers=enum_listing))) == encode(
        Envelope(105, meta(), info=InfoPayload(peers=listing))
    )


def test_payload_fragment():
    envelope = Envelope(
        type_code=103, meta=meta(), info=InfoPayload(services={"PTU": "RO", "WIND": "R"})
    )
    assert payload_fragment(envelope) == '{ "Services" : { "PTU" : "RO", "WIND" : "R" } }'
    assert payload_fragment(Envelope(type_code=100, meta=meta())) is None


# -- timestamps and locations ---------------------------------------------------------


def test_timestamp_parsing_accepts_both_forms():
    assert parse_timestamp("2011-07-20T16:51:29Z") == parse_timestamp("2011-07-20T16:51:29")
    assert format_timestamp(parse_timestamp("2011-07-20T16:51:29Z")) == "2011-07-20T16:51:29Z"
    with pytest.raises(ValueError):
        parse_timestamp("2011-07-20 16:51:29")
    with pytest.raises(ValueError):
        parse_timestamp("not a time")


def test_metainfo_normalizes_timestamp_to_emitted_form():
    assert meta(timestamp="2011-07-20T16:51:29").timestamp == "2011-07-20T16:51:29Z"
    assert meta(timestamp="2011-07-20T16:51:29Z").timestamp == "2011-07-20T16:51:29Z"
    request = RetrieveRequest(services=["PTU"], timestamp="2011-05-29T12:10:23")
    assert request.timestamp == "2011-05-29T12:10:23Z"


def test_utm_location_parse_and_render():
    assert UtmLocation.parse("6672224 385565 35V") == LOCATION
    assert LOCATION.render() == "6672224 385565 35V"
    with pytest.raises(ValueError):
        UtmLocation.parse("6672224 385565")
    with pytest.raises(ValueError):
        UtmLocation.parse("north east 35V")


# -- validation -------------------------------------------------------------------


def test_validate_accepts_clean_header():
    assert validate(Envelope(type_code=100, meta=meta())).ok


@pytest.mark.parametrize(
    "bad, fragment",
    [
        (dict(node_id="A" * 64), "node id"),
        (dict(node_id="a" * 63), "node id"),
        (dict(peer_ip="999.1.1.1"), "peer ip"),
        (dict(port=0), "port"),
        (dict(port=65536), "port"),
        (dict(peers_requested=0), "peers_requested below"),
        (dict(peers_requested=101), "peers_requested above"),
        (dict(keep_alive_ms=0), "keep alive"),
        (dict(update_interval_ms=-5), "update interval"),
        (dict(bandwidth=-1), "bandwidth"),
        (dict(timestamp="yesterday"), "timestamp"),
        (dict(version="Weather/1.0"), "version"),
        (dict(location=UtmLocation(1, 2, "ZZ9")), "zone"),
    ],
)
def test_validate_flags_bad_header_fields(bad, fragment):
    report = validate(Envelope(type_code=100, meta=meta(**bad)))
    assert not report.ok
    assert any(fragment in problem for problem in report.problems)


# decimal digits other than 0-9, each of which int() reads: Arabic-Indic,
# extended Arabic-Indic, Devanagari, Bengali, fullwidth, mathematical
FOREIGN_DIGITS = "\u0660\u0661\u0662\u06f5\u0966\u09e7\uff11\U0001d7d9"
CLEAN_ID = "0123456789abcdef" * 4
CLEAN_TIME = "2011-07-20T16:51:29Z"
# field -> (its text in a clean message, the problem validate reports once it is tainted)
CHECKED_TEXT = {
    "node_id": (CLEAN_ID, "node id is not 64 lowercase hex characters"),
    "timestamp": (CLEAN_TIME, "timestamp malformed"),
    "version": ("OpenWeather/1.0", "version malformed"),
    "zone": ("35V", "location zone malformed"),
    "retrieve": (CLEAN_TIME, "retrieve timestamp malformed"),
}


# whitespace other than the one ASCII space between a Location's tokens
OTHER_SPACES = ("\u2003", "\u00a0", "\t", "\x1c", "  ")


@st.composite
def tainted(draw, text: str) -> str:
    """text ending in a newline, with one of its digits swapped for a non-ASCII
    digit, or with one of its spaces swapped for other whitespace."""
    taint = draw(st.sampled_from(("newline", "digit", "space") if " " in text else ("newline", "digit")))
    if taint == "newline":
        return text + "\n"
    if taint == "space":
        at = draw(st.sampled_from([at for at, char in enumerate(text) if char == " "]))
        return text[:at] + draw(st.sampled_from(OTHER_SPACES)) + text[at + 1 :]
    at = draw(st.sampled_from([at for at, char in enumerate(text) if char in "0123456789"]))
    return text[:at] + draw(st.sampled_from(FOREIGN_DIGITS)) + text[at + 1 :]


def checked_envelope(field: str = "", text: str = "") -> Envelope:
    """A type-201 query whose checked field holds text; every other field is clean."""
    header = dict(node_id=CLEAN_ID, timestamp=CLEAN_TIME, version="OpenWeather/1.0", location=LOCATION)
    asked = text if field == "retrieve" else CLEAN_TIME
    if field == "zone":
        header["location"] = UtmLocation(LOCATION.northing, LOCATION.easting, text)
    elif field in header:
        header[field] = text
    return Envelope(201, meta(**header), retrieve=RetrieveRequest(("PTU",), asked))


@given(st.sampled_from(sorted(CHECKED_TEXT)).flatmap(
    lambda field: st.tuples(st.just(field), tainted(CHECKED_TEXT[field][0]))
))
@example(("timestamp", "\u0662\u0660\u0661\u0661-07-20T16:51:29Z"))
@example(("node_id", CLEAN_ID + "\n"))
def test_checked_fields_refuse_a_final_newline_and_non_ascii_digits(case):
    field, text = case
    clean, problem = CHECKED_TEXT[field]
    assert validate(checked_envelope(field, clean)).ok
    envelope = checked_envelope(field, text)
    assert problem in validate(envelope).problems
    with pytest.raises(EncodeError, match=problem):
        encode(envelope)


# wire key -> (its text in the clean frame, whether it is the frame's last member of that key)
WIRE_TEXT = {
    "ID": (CLEAN_ID, False),
    "Timestamp": (CLEAN_TIME, False),
    "Version": ("OpenWeather/1.0", False),
    "Location": (LOCATION.render(), False),
    "Retrieve.Timestamp": (CLEAN_TIME, True),
}


@given(st.sampled_from(sorted(WIRE_TEXT)).flatmap(
    lambda key: st.tuples(st.just(key), tainted(WIRE_TEXT[key][0]))
))
@example(("Location", "\u0661 385565 \u0663\u0665V"))
@example(("Location", "6672224\u2003385565 35V"))
@example(("Location", "6672224 385565 35V\n"))
def test_a_frame_with_a_tainted_field_is_refused(case):
    key, text = case
    clean, last = WIRE_TEXT[key]
    key = key.rpartition(".")[2]
    frame = encode(checked_envelope()).decode()
    member = '"%s" : %s' % (key, json.dumps(clean))
    at = frame.rfind(member) if last else frame.find(member)
    assert at >= 0
    frame = frame[:at] + '"%s" : %s' % (key, json.dumps(text)) + frame[at + len(member) :]
    try:
        envelope = decode(frame)
    except SchemaError:
        return  # a Location whose tokens or coordinates are malformed
    assert not validate(envelope).ok


def test_validate_payload_rules():
    services = InfoPayload(services={"PTU": "RO"})
    no_payload = validate(Envelope(type_code=103, meta=meta()))
    assert any("payload missing" in p for p in no_payload.problems)
    wrong_code = validate(Envelope(type_code=100, meta=meta(), info=services))
    assert any("unexpected payload" in p for p in wrong_code.problems)
    two = validate(
        Envelope(
            type_code=103,
            meta=meta(),
            info=services,
            data=WeatherData(ptu=PtuBlock("1", "2", "3")),
        )
    )
    assert any("more than one payload" in p for p in two.problems)
    listing = InfoPayload(peers={"b" * 64: PeerEntry("10.0.0.1", 62535, 6)})
    assert validate(Envelope(type_code=105, meta=meta(), info=listing)).ok
    assert not validate(Envelope(type_code=105, meta=meta(), info=services)).ok


def test_validate_info_contents():
    empty = validate(Envelope(type_code=103, meta=meta(), info=InfoPayload(services={})))
    assert any("service catalog empty" in p for p in empty.problems)
    bad_flags = validate(
        Envelope(type_code=103, meta=meta(), info=InfoPayload(services={"PTU": "RW"}))
    )
    assert any("bad service flags" in p for p in bad_flags.problems)
    crowd = {("%064x" % n): PeerEntry("10.0.0.1", 1, 0) for n in range(101)}
    too_many = validate(Envelope(type_code=105, meta=meta(), info=InfoPayload(peers=crowd)))
    assert any("above 100" in p for p in too_many.problems)


def test_validate_retrieve_contents():
    ok = Envelope(
        type_code=201,
        meta=meta(),
        retrieve=RetrieveRequest(services=("PTU", "WIND"), timestamp="2011-05-29T12:10:23Z"),
    )
    assert validate(ok).ok
    dupes = Envelope(
        type_code=201,
        meta=meta(),
        retrieve=RetrieveRequest(services=("PTU", "PTU"), timestamp="2011-05-29T12:10:23Z"),
    )
    assert any("duplicated" in p for p in validate(dupes).problems)


def test_validate_memoises_only_short_text():
    # a peer's 60 KiB address or timestamp must not stay alive in the checks' caches
    codec._address_text_check.cache_clear()
    codec._timestamp_text_check.cache_clear()
    long_ip, long_stamp = "1" * 60 * 1024, "2" * 60 * 1024
    listing = InfoPayload(peers={"b" * 64: PeerEntry(long_ip, 62535, 6)})
    report = validate(Envelope(105, meta(peer_ip=long_ip, timestamp=long_stamp), info=listing))
    assert sum("is not a valid address" in p for p in report.problems) == 2
    assert "timestamp malformed" in report.problems
    assert codec._address_text_check.cache_info().currsize == 0
    assert codec._timestamp_text_check.cache_info().currsize == 0
    assert validate(Envelope(100, meta())).ok
    assert codec._address_text_check.cache_info().currsize == 1
    assert codec._timestamp_text_check.cache_info().currsize == 1


def test_encode_refuses_invalid_envelopes():
    with pytest.raises(EncodeError):
        encode(Envelope(type_code=100, meta=meta(node_id="nope")))


# -- decoding edge cases ---------------------------------------------------------------


def test_decode_rejects_bad_input():
    with pytest.raises(ParseError):
        decode(b"\xff\xfe")
    with pytest.raises(ParseError) as caught:
        decode(b'{ "OpenWeatherMessage" : ')
    assert caught.value.offset is not None
    with pytest.raises(SchemaError):
        decode(b'{ "SomethingElse" : 1 }')
    with pytest.raises(SchemaError):
        decode(b'{ "OpenWeatherMessage" : { "Type" : 100 } }')  # no MetaInfo
    with pytest.raises(UnknownCodeError) as unknown:
        decode(captures.TEST1_NODE1.replace('"Type" : 100', '"Type" : 400'))
    assert unknown.value.code == 400


def test_decode_maps_every_parser_failure_to_parse_error():
    too_deep = b"[" * 60000
    too_long = b'{"OpenWeatherMessage": {"Type": ' + b"1" * 5000 + b"}}"
    for frame in (too_deep, too_long):
        assert len(frame) < 64 * 1024  # both pass the transport's framing cap
        with pytest.raises(ParseError):
            decode(frame)
        with pytest.raises(ParseError):
            decode(frame.decode("ascii"))


def test_decode_refuses_a_byte_order_mark_as_json_loads_does():
    message = "not valid JSON at offset 0: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    for frame in (b"\xef\xbb\xbf" + captures.TEST3_NODE1.encode(), "\ufeff" + captures.TEST3_NODE1):
        with pytest.raises(ParseError) as caught:
            decode(frame)
        assert str(caught.value) == message and caught.value.offset == 0


def test_decode_refuses_input_that_is_not_text_or_bytes():
    for raw in (memoryview(b"{}"), None):
        with pytest.raises(TypeError, match="must be str, bytes or bytearray, not %s" % type(raw).__name__):
            decode(raw)


def with_data(member) -> str:
    body = json.loads(captures.TEST3_NODE1)
    body["OpenWeatherMessage"]["Data"] = member
    return json.dumps(body)


def test_decode_reads_number_leaves_as_their_text():
    assert decode(with_data({"PTU": {"Air-Pressure": 1013}})).data.ptu == PtuBlock(air_pressure="1013")
    assert decode(with_data({"PTU": {"Air-Pressure": 1013.50}})).data.ptu == PtuBlock(air_pressure="1013.5")


@pytest.mark.parametrize(
    "member, message",
    [
        ({"PTU": {"Air-Pressure": "1013", "Note": None}}, '"Note" is not a string'),
        ({"WIND": {"Direction": "160"}}, '"Direction" is not an object'),
        ({"WIND": {"Direction": {"min": {"deep": 1}}, "Speed": {"ave": True}}}, '"ave" is not a string'),
    ],
)
def test_decode_rejects_bad_leaves_and_holders(member, message):
    with pytest.raises(SchemaError) as caught:
        decode(with_data(member))
    assert str(caught.value) == message


def test_decode_skips_an_object_where_a_leaf_belongs():
    data = decode(with_data({"PTU": {"Air-Pressure": "1013", "Air-Temperature": {"x": None}}})).data
    assert data.ptu == PtuBlock(air_pressure="1013")


def test_error_band_is_registered():
    for code in (600, 601, 602, 650, 699):
        assert is_registered(code)
    for code in (99, 203, 302, 400, 700):
        assert not is_registered(code)
    raw = captures.TEST1_NODE1.replace('"Type" : 100', '"Type" : 650')
    assert decode(raw).type_code == 650


def test_decode_tolerates_whitespace_and_numeric_strings():
    raw = json.dumps(
        {
            "OpenWeatherMessage": {
                "Type": "100",
                "MetaInfo": {
                    "ID": "a" * 64,
                    "Peer-IP": "10.0.0.1",
                    "Location": "1 2 35V",
                    "Bandwidth": "6",
                    "Timestamp": "2011-07-20T16:51:29",
                    "Port": "62535",
                    "Update-Interval": "120000",
                    "Peers-Requested": "20",
                    "Keep-Alive": "120000",
                    "Version": "OpenWeather/1.0",
                },
            }
        },
        indent=2,
    )
    envelope = decode(raw)
    assert envelope.type_code == 100
    assert envelope.meta.port == 62535
    assert envelope.meta.timestamp == "2011-07-20T16:51:29Z"


def test_decode_preserves_decimal_text_of_bare_numbers():
    raw = captures.TEST3_NODE1.replace('"Air-Temperature" : "19.1"', '"Air-Temperature" : 19.10')
    assert decode(raw).data.ptu.air_temperature == "19.10"


def test_decode_retrieve_spellings():
    base = {
        "Type": 201,
        "MetaInfo": json.loads(encode(Envelope(100, meta())))["OpenWeatherMessage"]["MetaInfo"],
    }
    query = {"D": ["PTU", "WIND"], "Timestamp": "2011-05-29T12:10:23Z"}
    for body in (
        dict(base, Retrieve=query),
        dict(base, Retrive=query),
        dict(base, Data={"Retrieve": query}),
        dict(base, Data={"Retrive": query}),
    ):
        envelope = decode(json.dumps({"OpenWeatherMessage": body}))
        assert envelope.retrieve == RetrieveRequest(("PTU", "WIND"), "2011-05-29T12:10:23Z")
        assert envelope.data is None
    single = decode(
        json.dumps(
            {"OpenWeatherMessage": dict(base, Retrieve={"D": "PTU", "Timestamp": "2011-05-29T12:10:23Z"})}
        )
    )
    assert single.retrieve.services == ("PTU",)


def test_decode_rejects_info_with_both_variants():
    body = {
        "Type": 103,
        "MetaInfo": json.loads(encode(Envelope(100, meta())))["OpenWeatherMessage"]["MetaInfo"],
        "Info": {"Services": {"PTU": "RO"}, "Peers": {}},
    }
    with pytest.raises(SchemaError):
        decode(json.dumps({"OpenWeatherMessage": body}))


def test_decode_peer_listing_with_string_numbers():
    listing = {
        "b" * 64: {"Peer-IP": "172.21.25.11", "Port": "62535", "Bandwidth": "4"}
    }
    body = {
        "Type": 105,
        "MetaInfo": json.loads(encode(Envelope(100, meta())))["OpenWeatherMessage"]["MetaInfo"],
        "Info": {"Peers": listing},
    }
    envelope = decode(json.dumps({"OpenWeatherMessage": body}))
    assert envelope.info.peers["b" * 64] == PeerEntry("172.21.25.11", 62535, 4)


# quoted numerals int() reads as 62535, each of which decode refuses
LIBERAL_PORTS = ("+62535", "62_535", " 62535 ", "62535\n", "\u0666\u0662\u0665\u0663\u0665", "\uff16\uff12\uff15\uff13\uff15")


def frame_with(members: dict, peer: dict | None = None) -> str:
    """A clean type-105 frame with MetaInfo members replaced, and one listing entry."""
    body = json.loads(encode(Envelope(105, meta(), info=InfoPayload(peers={"b" * 64: PeerEntry("10.0.0.9", 62535, 4)}))))
    body["OpenWeatherMessage"]["MetaInfo"].update(members)
    body["OpenWeatherMessage"]["Info"]["Peers"]["b" * 64].update(peer or {})
    return json.dumps(body)


@pytest.mark.parametrize("port", LIBERAL_PORTS)
def test_a_quoted_header_or_peer_numeral_must_be_ascii_digits(port):
    with pytest.raises(SchemaError, match='"Port" is not an integer'):
        decode(frame_with({"Port": port}))
    with pytest.raises(SchemaError, match='"Port" is not an integer'):
        decode(frame_with({}, {"Port": port}))


@pytest.mark.parametrize("location", ["+5 2 35V", "5 0_2 35V", "5 +2 35V", "5 2_0 35V"])
def test_location_coordinates_must_be_ascii_digits(location):
    with pytest.raises(ValueError, match="must be integers"):
        UtmLocation.parse(location)
    with pytest.raises(SchemaError, match='"Location" malformed'):
        decode(frame_with({"Location": location}))


# each decoded and re-encoded as "5 2 35V" before the separator rule
LOOSE_LOCATIONS = ("5\u20032 35V", "5\x1c2 35V", " 5  2\t35V ", "5 2 35V\n", "5  2 35V", "5 2\u00a035V", "\t5 2 35V")


@pytest.mark.parametrize("location", LOOSE_LOCATIONS)
def test_location_tokens_are_one_ascii_space_apart(location):
    with pytest.raises(ValueError, match="location needs three tokens"):
        UtmLocation.parse(location)
    with pytest.raises(SchemaError, match='"Location" malformed: location needs three tokens'):
        decode(frame_with({"Location": location}))


def test_a_quoted_minus_sign_is_left_for_validate_to_report():
    envelope = decode(frame_with({"Bandwidth": "-1", "Location": "-5 -2 35V"}, {"Bandwidth": "-4"}))
    assert (envelope.meta.bandwidth, envelope.meta.location) == (-1, UtmLocation(-5, -2, "35V"))
    problems = validate(envelope).problems
    for problem in ("bandwidth below 0", "location northing negative", "location easting negative",
                    "peer bandwidth below 0"):
        assert problem in problems


def test_leading_zeros_read_as_their_value():
    envelope = decode(frame_with({"Port": "062535", "Location": "005 0002 35V"}, {"Port": "00080"}))
    assert envelope.meta.port == 62535
    assert envelope.meta.location == UtmLocation(5, 2, "35V")
    assert envelope.info.peers["b" * 64].port == 80
    assert validate(envelope).ok


@pytest.mark.parametrize("members", [{"Port": "9" * 5000}, {"Location": "9" * 5000 + " 2 35V"}])
def test_a_numeral_past_ints_digit_limit_is_a_schema_error(members):
    with pytest.raises(SchemaError):
        decode(frame_with(members))


@given(st.text(st.sampled_from("0123456789-+_ \t\n\u0665\uff11"), min_size=1, max_size=8))
def test_a_quoted_numeral_decodes_only_when_it_is_ascii_digits(text):
    try:
        envelope = decode(frame_with({"Port": text}, {"Bandwidth": text}))
    except SchemaError:
        assert not (text.removeprefix("-").isdigit() and text.isascii())
        return
    assert text.removeprefix("-").isdigit() and text.isascii()
    assert envelope.meta.port == envelope.info.peers["b" * 64].bandwidth == int(text)


# -- round trips --------------------------------------------------------------------


def random_envelope(rng: random.Random) -> Envelope:
    code = rng.choice(
        [100, 101, 102, 104, 106, 107, 202, 500, 501, 600, 601, 602, 103, 105, 201, 300, 301]
    )
    header = meta(
        node_id="%064x" % rng.getrandbits(256),
        peer_ip="%d.%d.%d.%d" % tuple(rng.randint(1, 254) for _ in range(4)),
        bandwidth=rng.randint(0, 8),
        port=rng.randint(1, 65535),
        peers_requested=rng.randint(1, 100),
        keep_alive_ms=rng.randint(1, 10**7),
        update_interval_ms=rng.randint(1, 10**7),
        timestamp=format_timestamp(rng.randint(0, 2**31) * 1000),
    )
    data = info = retrieve = None
    if code in (300, 301):
        groups = {}
        if rng.random() < 0.8:
            groups["ptu"] = PtuBlock(
                air_pressure="%d.%d" % (rng.randint(870, 1085), rng.randint(0, 9)),
                air_temperature="%d.%d" % (rng.randint(-40, 50), rng.randint(0, 9)),
                relative_humidity="%d.%d" % (rng.randint(0, 100), rng.randint(0, 9)),
            )
        if rng.random() < 0.8:
            d = rng.randint(0, 359)
            s = rng.randint(0, 40)
            groups["wind"] = WindBlock(
                direction_min=str(max(0, d - 2)),
                direction_ave=str(d),
                direction_max=str(d + 2),
                speed_min="%d.%d" % (s, rng.randint(0, 9)),
                speed_ave="%d.%d" % (s + 1, rng.randint(0, 9)),
                speed_max="%d.%d" % (s + 2, rng.randint(0, 9)),
            )
        if not groups or rng.random() < 0.7:
            groups["precipitation"] = PrecipitationBlock(
                rain_accumulation="%d.%d" % (rng.randint(0, 50), rng.randint(0, 9)),
                rain_duration=str(rng.randint(0, 3600)),
            )
        data = WeatherData(**groups)
    elif code == 103:
        names = rng.sample(["PTU", "WIND", "PRECIPITATION"], rng.randint(1, 3))
        info = InfoPayload(services={name: rng.choice(["R", "O", "RO"]) for name in names})
    elif code == 105:
        info = InfoPayload(
            peers={
                "%064x" % rng.getrandbits(256): PeerEntry(
                    peer_ip="10.0.%d.%d" % (rng.randint(0, 255), rng.randint(1, 254)),
                    port=rng.randint(1, 65535),
                    bandwidth=rng.randint(0, 8),
                )
                for _ in range(rng.randint(0, 30))
            }
        )
    elif code == 201:
        retrieve = RetrieveRequest(
            services=tuple(rng.sample(["PTU", "WIND", "PRECIPITATION"], rng.randint(1, 3))),
            timestamp=format_timestamp(rng.randint(0, 2**31) * 1000),
        )
    return Envelope(type_code=code, meta=header, data=data, info=info, retrieve=retrieve)


def test_round_trip_identity_holds():
    rng = random.Random(20110529)
    for _ in range(300):
        envelope = random_envelope(rng)
        raw = encode(envelope)
        again = decode(raw)
        assert again == envelope
        assert encode(again) == raw


# -- Data decoding, property-based --------------------------------------------------
#
# The "Data" schema written out here on its own, as an oracle for the codec:
# (wire group, block attribute, path inside the group, missing-value default).

DATA_FIELDS = (
    ("PTU", "air_pressure", ("Air-Pressure",), ""),
    ("PTU", "air_temperature", ("Air-Temperature",), ""),
    ("PTU", "relative_humidity", ("Relative-Humidity",), ""),
    ("WIND", "direction_min", ("Direction", "min"), ""),
    ("WIND", "direction_ave", ("Direction", "ave"), ""),
    ("WIND", "direction_max", ("Direction", "max"), ""),
    ("WIND", "speed_min", ("Speed", "min"), ""),
    ("WIND", "speed_ave", ("Speed", "ave"), ""),
    ("WIND", "speed_max", ("Speed", "max"), ""),
    ("PRECIPITATION", "rain_accumulation", ("Rain", "accumulation"), "0"),
    ("PRECIPITATION", "rain_duration", ("Rain", "duration"), "0"),
    ("PRECIPITATION", "rain_intensity", ("Rain", "intensity"), "0"),
    ("PRECIPITATION", "rain_peak", ("Rain", "peak"), "0"),
    ("PRECIPITATION", "hail_accumulation", ("Hail", "accumulation"), "0"),
    ("PRECIPITATION", "hail_duration", ("Hail", "duration"), "0"),
    ("PRECIPITATION", "hail_intensity", ("Hail", "intensity"), "0"),
    ("PRECIPITATION", "hail_peak", ("Hail", "peak"), "0"),
)
GROUP_ATTRS = {"PTU": "ptu", "WIND": "wind", "PRECIPITATION": "precipitation"}
EXTRA_KEYS = ("Extra", "Note", "unit")

FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
LEAVES = st.one_of(st.text(alphabet="-.0159Eaz \"\\\u00e9\u2603", max_size=6), st.integers(), FINITE_FLOATS)
NOT_OBJECTS = st.one_of(st.none(), st.lists(st.integers(), max_size=2), st.integers(), FINITE_FLOATS)
ANY_VALUE = st.one_of(LEAVES, NOT_OBJECTS, st.booleans(), st.just({}), st.just({"x": None}))


@st.composite
def object_or_not(draw, valid):
    """Mostly the given object; sometimes null, a list or a number in its place."""
    return draw(valid) if draw(st.integers(0, 7)) else draw(NOT_OBJECTS)


@st.composite
def leaf_objects(draw, keys):
    members = {}
    for key in draw(st.lists(st.sampled_from(keys + EXTRA_KEYS), unique=True)):
        # mostly well-formed leaves (a nested object is skipped); now and then anything
        members[key] = draw(st.one_of(LEAVES, st.just({}))) if draw(st.integers(0, 11)) else draw(ANY_VALUE)
    return members


@st.composite
def data_members(draw):
    member = {}
    for group in draw(st.lists(st.sampled_from(tuple(GROUP_ATTRS) + EXTRA_KEYS), unique=True)):
        if group not in GROUP_ATTRS:
            member[group] = draw(ANY_VALUE)
            continue
        paths = [path for wire, _, path, _ in DATA_FIELDS if wire == group]
        if len(paths[0]) == 1:
            member[group] = draw(object_or_not(leaf_objects(tuple(path[0] for path in paths))))
            continue
        objects = {}
        for key in draw(st.lists(st.sampled_from(sorted({path[0] for path in paths}) + list(EXTRA_KEYS)), unique=True)):
            leaves = tuple(path[1] for path in paths if path[0] == key)
            objects[key] = draw(object_or_not(leaf_objects(leaves))) if leaves else draw(ANY_VALUE)
        member[group] = draw(object_or_not(st.just(objects)))
    return member


def wire_text(leaf) -> str:
    # floats reach the decoder as their JSON text, integers as their digits
    return leaf if isinstance(leaf, str) else json.dumps(leaf)


def expected_blocks(member) -> dict | None:
    """group attribute -> {field: text} for each group present; None where decode must reject."""
    blocks = {}
    for group, attr in GROUP_ATTRS.items():
        if group not in member:
            continue
        fields = {}
        for wire, name, path, default in DATA_FIELDS:
            if wire != group:
                continue
            values = member[group]
            for key in path[:-1]:
                if not isinstance(values, dict):
                    return None
                values = values.get(key, {})
            if not isinstance(values, dict):
                return None
            for value in values.values():
                if isinstance(value, bool) or not isinstance(value, (dict, str, int, float)):
                    return None
            leaf = values.get(path[-1])
            fields[name] = default if leaf is None or isinstance(leaf, dict) else wire_text(leaf)
        blocks[attr] = fields
    return blocks


@given(data_members())
def test_data_decoding_matches_the_schema(member):
    header = json.loads(encode(Envelope(type_code=100, meta=meta())))["OpenWeatherMessage"]["MetaInfo"]
    raw = json.dumps({"OpenWeatherMessage": {"Type": 300, "MetaInfo": header, "Data": member}})
    expected = expected_blocks(member)
    if expected is None:
        with pytest.raises(SchemaError):
            decode(raw)
        return
    data = decode(raw).data
    if not expected:
        assert data is None
        return
    for attr in GROUP_ATTRS.values():
        block = getattr(data, attr)
        if attr in expected:
            assert dataclasses.asdict(block) == expected[attr]
        else:
            assert block is None


# -- encode against the reference renderer ----------------------------------------
#
# codec_reference holds the renderer that encoding was compiled from.  Every
# slot gets hostile text (JSON and format-string syntax, control characters,
# non-ASCII, a lone surrogate) or a value of the wrong type now and then.

HOSTILE = ("", "{", "}", "[ ]", '" : "', ", ", "%s", "%(meta)s", "%%", "\x00", "\n", "\\", '"', "é", " ", "\ud800")
TEXT = st.one_of(st.sampled_from(HOSTILE), st.text(max_size=6))
ODD = st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False), st.just(b"\x01\x02\x03\x04"), st.integers(-1, 70000))
NODE_IDS = st.integers(0, 2**256 - 1).map("%064x".__mod__)
ADDRESSES = st.sampled_from(("172.21.25.16", "10.0.0.1", "::1", "fe80::1"))
TIMESTAMPS = st.integers(0, 2**31).map(lambda second: format_timestamp(second * 1000))
DECIMALS = st.sampled_from(("1014.1", "-0.5", "160", "0"))


def slot(valid, typed: bool):
    """A valid value; unless typed, one time in six text or a value of another type."""
    if typed:
        return valid
    picks = ["valid"] * 10 + ["text", "odd"]  # sampled_from draws evenly; integers() favours the ends
    return st.sampled_from(picks).flatmap(lambda pick: {"valid": valid, "text": TEXT, "odd": ODD}[pick])


def metas(typed: bool):
    # an address may also be an int, and a zone or version may end in a newline (which validate refuses)
    return st.builds(
        MetaInfo,
        node_id=slot(NODE_IDS, typed),
        peer_ip=slot(ADDRESSES if typed else st.one_of(ADDRESSES, st.integers(0, 2**32 - 1)), typed),
        location=st.builds(
            UtmLocation,
            st.integers(0, 10**7),
            st.integers(0, 10**6),
            st.sampled_from(("35V", "1A") if typed else ("35V", "1A", "12C", "7X", "35V\n", "V")),
        ),
        bandwidth=slot(st.integers(0, 8), typed),
        timestamp=slot(TIMESTAMPS, typed),
        port=slot(st.integers(1, 65535), typed),
        update_interval_ms=slot(st.integers(1, 10**7), typed),
        peers_requested=slot(st.integers(1, 100), typed),
        keep_alive_ms=slot(st.integers(1, 10**7), typed),
        version=slot(st.sampled_from(("OpenWeather/1.0",) if typed else ("OpenWeather/1.0", "OpenWeather/1.0\n")), typed),
    )


def blocks(block, typed: bool):
    fields = {field.name: slot(st.one_of(DECIMALS, TEXT), typed) for field in dataclasses.fields(block)}
    return st.one_of(st.none(), st.builds(block, **fields))


def peer_entries(typed: bool):
    return st.builds(
        PeerEntry,
        peer_ip=slot(ADDRESSES, typed),
        port=slot(st.integers(1, 65535), typed),
        bandwidth=slot(st.integers(0, 8), typed),
    )


def listing_of_100(rng: random.Random) -> dict:
    return {
        "%064x" % rng.getrandbits(256): PeerEntry(
            "10.%d.%d.%d" % (rng.randrange(256), rng.randrange(256), rng.randrange(1, 255)),
            rng.randint(1, 65535),
            rng.randint(0, 8),
        )
        for _ in range(100)
    }


def payloads(typed: bool) -> dict:
    """Payload kind -> strategy for it."""
    services = st.dictionaries(
        slot(st.sampled_from(SERVICES), typed), slot(st.sampled_from(SERVICE_FLAGS), typed), max_size=4
    )
    peers = st.one_of(
        st.dictionaries(slot(NODE_IDS, typed), peer_entries(typed), max_size=4),
        st.integers(0, 2**32).map(lambda seed: listing_of_100(random.Random(seed))),
    )
    return {
        "data": st.builds(
            WeatherData,
            ptu=blocks(PtuBlock, typed),
            wind=blocks(WindBlock, typed),
            precipitation=blocks(PrecipitationBlock, typed),
        ),
        "services": st.builds(InfoPayload, services=services),
        "peers": st.builds(InfoPayload, peers=peers),
        "retrieve": st.builds(
            RetrieveRequest,
            services=st.lists(slot(st.sampled_from(SERVICES), typed), min_size=1, max_size=4, unique=True),
            timestamp=slot(TIMESTAMPS, typed),
        ),
    }


PAYLOAD_OF = {103: "services", 105: "peers", 201: "retrieve", 300: "data", 301: "data"}
CARRIED_BY = {"data": "data", "services": "info", "peers": "info", "retrieve": "retrieve"}  # Envelope attribute


@st.composite
def envelopes(draw, typed: bool | None = None):
    """Envelopes with hostile text; unless typed, half of them also put odd values in their slots."""
    if typed is None:
        typed = draw(st.booleans())
    code = draw(st.sampled_from((100, 101, 102, 103, 105, 107, 201, 202, 300, 301, 600, 601)))
    strategies = payloads(typed)
    kinds = [PAYLOAD_OF[code]] if code in PAYLOAD_OF else []
    if not typed and draw(st.integers(0, 9)) == 0:  # now and then a payload the code forbids, or a second one
        kinds.append(draw(st.sampled_from(sorted(strategies))))
    extra = {}
    for kind in kinds:
        extra.setdefault(CARRIED_BY[kind], draw(strategies[kind]))
    return Envelope(code, draw(metas(typed)), **extra)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(envelopes())
@example(Envelope(100, meta(port=True)))  # passes validate, then refused as a bool
@example(Envelope(300, meta(), data=WeatherData(wind=WindBlock(speed_ave=None, direction_min=True, speed_max=5))))
@example(Envelope(105, meta(), info=InfoPayload(peers={False: PeerEntry("é", 1.5, None)})))
def test_encode_and_fragment_match_the_reference(envelope):
    assert reference.outcome(encode, envelope) == reference.outcome(reference.encode, envelope)
    assert reference.outcome(payload_fragment, envelope) == reference.outcome(reference.payload_fragment, envelope)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(envelopes(typed=True))
def test_decode_inverts_encode(envelope):
    try:
        raw = encode(envelope)
    except (EncodeError, UnicodeEncodeError):  # invalid, or a lone surrogate
        return
    assert decode(raw) == envelope
