"""Node identity: CWOP-style descriptors, owp URIs, SHA-256 node ids."""

import hashlib
import random

import pytest
from hypothesis import example, given, strategies as st

from openweather.identity import (
    IdentityError,
    StationDescriptor,
    derive_node_id,
    is_node_id,
    make_owp_uri,
    random_node_id,
)

HELSINKI = StationDescriptor(block="02", station="974", place="Helsinki-Vantaa", country="Finland")

# sha256("02;974;Helsinki-Vantaa;;Finland"), computed independently
HELSINKI_ID = "a88a9b6b4c0381e0509ce36cadb5fd06e5446ab23881020b9f212db24b16ee75"


def test_reference_station_hash():
    assert derive_node_id(HELSINKI) == HELSINKI_ID


def test_reference_station_uri():
    assert make_owp_uri(HELSINKI) == "owp://finland/helsinki-vantaa/02974"


def test_derive_matches_independent_oracle():
    rng = random.Random(974)
    places = ["Helsinki-Vantaa", "Kumpula", "Sodankyla", "Espoo Nuuksio", "Utsjoki.Kevo"]
    countries = ["Finland", "Sweden", "Norway", "Estonia"]
    for _ in range(100):
        descriptor = StationDescriptor(
            block="%02d" % rng.randint(0, 99),
            station="%03d" % rng.randint(0, 999),
            place=rng.choice(places),
            country=rng.choice(countries),
        )
        record = "%s;%s;%s;;%s" % (
            descriptor.block,
            descriptor.station,
            descriptor.place,
            descriptor.country,
        )
        expected = hashlib.sha256(record.encode("utf-8")).hexdigest()
        assert derive_node_id(descriptor) == expected
        assert is_node_id(derive_node_id(descriptor))


def test_uri_folds_case_and_spaces():
    descriptor = StationDescriptor("02", "974", "Espoo Nuuksio", "Finland")
    assert make_owp_uri(descriptor) == "owp://finland/espoo-nuuksio/02974"
    # hashing keeps the original record text
    assert derive_node_id(descriptor) == hashlib.sha256(b"02;974;Espoo Nuuksio;;Finland").hexdigest()


@pytest.mark.parametrize(
    "block, station, place, country",
    [
        ("2", "974", "Helsinki", "Finland"),
        ("024", "974", "Helsinki", "Finland"),
        ("02", "97", "Helsinki", "Finland"),
        ("ab", "974", "Helsinki", "Finland"),
        ("02", "974", "", "Finland"),
        ("02", "974", "Helsinki", ""),
    ],
)
def test_bad_descriptors_are_rejected(block, station, place, country):
    with pytest.raises(IdentityError):
        derive_node_id(StationDescriptor(block, station, place, country))


def test_uri_rejects_unencodable_segments():
    with pytest.raises(IdentityError):
        make_owp_uri(StationDescriptor("02", "974", "Hyvinkää", "Finland"))


def test_random_node_id():
    assert random_node_id(b"\x00" * 32) == hashlib.sha256(b"\x00" * 32).hexdigest()
    assert (
        random_node_id(b"\x00" * 32)
        == "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"
    )
    assert is_node_id(random_node_id())
    assert random_node_id() != random_node_id()
    with pytest.raises(IdentityError):
        random_node_id(b"short")


def test_is_node_id():
    assert is_node_id("a" * 64)
    assert not is_node_id("A" * 64)
    assert not is_node_id("a" * 63)
    assert not is_node_id("g" * 64)
    assert not is_node_id(None)


# decimal digits other than 0-9 (Arabic-Indic, Devanagari, fullwidth, mathematical)
FOREIGN_DIGITS = "\u0660\u0661\u0966\uff11\U0001d7d9"


@st.composite
def tainted(draw, text: str) -> str:
    """text ending in a newline, or with one of its digits swapped for a non-ASCII digit."""
    if draw(st.booleans()):
        return text + "\n"
    at = draw(st.sampled_from([at for at, char in enumerate(text) if char in "0123456789"]))
    return text[:at] + draw(st.sampled_from(FOREIGN_DIGITS)) + text[at + 1 :]


@given(st.sampled_from(("block", "station", "node id")).flatmap(
    lambda field: st.tuples(st.just(field), tainted({"block": "02", "station": "974", "node id": HELSINKI_ID}[field]))
))
@example(("node id", HELSINKI_ID + "\n"))
@example(("station", "97\u0664"))
def test_ids_and_station_numbers_refuse_a_final_newline_and_non_ascii_digits(case):
    field, text = case
    if field == "node id":
        assert not is_node_id(text)
        return
    descriptor = StationDescriptor(**dict(vars(HELSINKI), **{field: text}))
    with pytest.raises(IdentityError, match="%s must be" % field):
        derive_node_id(descriptor)
