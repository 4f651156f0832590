"""Station naming and node identifiers.

A station is described by its WMO block and station numbers plus the place
and country it sits in.  Two derived values identify it on the network:

* a human-readable URI, ``owp://<country>/<place>/<block><station>``,
  lowercased with spaces folded to hyphens;
* a 64-hex-digit node id, the SHA-256 of the descriptor text joined as
  ``<block>;<station>;<place>;;<country>`` with its original casing (the
  empty slot is where station records carry a dropped airport code).

Stations without WMO numbering get a random id hashed from 32 bytes of
entropy instead.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass

# each pattern must match the whole text (fullmatch): "$" also matches before a
# final newline, and "\d" would take any Unicode digit
NODE_ID_PATTERN = re.compile(r"[0-9a-f]{64}")

_BLOCK_RE = re.compile(r"[0-9]{2}")
_STATION_RE = re.compile(r"[0-9]{3}")
# RFC 3986 unreserved characters, after case folding
_SEGMENT_RE = re.compile(r"[a-z0-9._~-]+")


class IdentityError(ValueError):
    """A station descriptor that cannot be named or hashed."""


@dataclass(frozen=True)
class StationDescriptor:
    """WMO numbering and geography for one station."""

    block: str
    station: str
    place: str
    country: str


def _checked(descriptor: StationDescriptor) -> StationDescriptor:
    if not _BLOCK_RE.fullmatch(descriptor.block):
        raise IdentityError("block must be two digits, got %r" % (descriptor.block,))
    if not _STATION_RE.fullmatch(descriptor.station):
        raise IdentityError("station must be three digits, got %r" % (descriptor.station,))
    if not descriptor.place.strip():
        raise IdentityError("place is empty")
    if not descriptor.country.strip():
        raise IdentityError("country is empty")
    return descriptor


def _fold(text: str, what: str) -> str:
    folded = text.strip().lower().replace(" ", "-")
    if not _SEGMENT_RE.fullmatch(folded):
        raise IdentityError("%s %r does not fold to a URI-safe segment" % (what, text))
    return folded


def make_owp_uri(descriptor: StationDescriptor) -> str:
    """Build the owp:// locator for a station."""
    _checked(descriptor)
    return "owp://%s/%s/%s%s" % (
        _fold(descriptor.country, "country"),
        _fold(descriptor.place, "place"),
        descriptor.block,
        descriptor.station,
    )


def derive_node_id(descriptor: StationDescriptor) -> str:
    """Hash the descriptor into the station's permanent node id."""
    _checked(descriptor)
    preimage = "%s;%s;%s;;%s" % (
        descriptor.block,
        descriptor.station,
        descriptor.place,
        descriptor.country,
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


def random_node_id(entropy: bytes | None = None) -> str:
    """Node id for a station with no WMO numbering; 32 bytes of entropy."""
    if entropy is None:
        entropy = os.urandom(32)
    if len(entropy) != 32:
        raise IdentityError("entropy must be exactly 32 bytes, got %d" % len(entropy))
    return hashlib.sha256(entropy).hexdigest()


def is_node_id(text: str) -> bool:
    """True when text is a well-formed 64-character lowercase hex id."""
    return isinstance(text, str) and NODE_ID_PATTERN.fullmatch(text) is not None
