"""Weather sample generation and retention.

SampleGenerator fakes a station: each measurement performs a bounded
random walk around a fixed baseline.  Steps are whole tenths of a
unit so values stay exact decimal text; a seed makes the whole sequence
reproducible.  Zero step bounds (the default) pin the output to the
baselines, which is what scripted simulations want.

VendorLineSource adapts recorded instrument report lines to the same
next_sample interface, so a node can replay real station output.

SampleStore keeps the most recent samples in insertion order for
on-demand lookup.  Lookups are exact at the wire's one-second timestamp
precision; there is no interpolation.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from decimal import Decimal

from .vendor import NormalizedSample, VendorError
from .vendor import parse_line as vendor_parse_line
from .vendor import to_sample as vendor_to_sample

_TENTH = Decimal("0.1")

# the walks' baselines, as decimal text
AIR_TEMPERATURE_C = "19.1"
RELATIVE_HUMIDITY_PCT = "69.4"
AIR_PRESSURE_HPA = "1014.1"
WIND_DIRECTION_DEG = "160"
WIND_SPEED_MS = "1.7"


class OrderingError(ValueError):
    """Samples must be inserted with strictly increasing timestamps."""


@dataclass
class GeneratorConfig:
    """Cadence, seed and walk bounds (tenths per tick)."""

    interval_ms: int = 3000
    seed: int = 0
    temperature_step: int = 0
    humidity_step: int = 0
    pressure_step: int = 0
    direction_step: int = 0  # whole degrees per tick
    speed_step: int = 0
    gust_spread: int = 0  # tenths of m/s around the average
    direction_spread: int = 0  # degrees around the average
    rain_probability: float = 0.0  # chance per tick of a rain episode


def _tenths(text: str) -> int:
    return int(Decimal(text).scaleb(1))


def _decimal(tenths: int) -> Decimal:
    return (Decimal(tenths) * _TENTH).quantize(_TENTH)


def _clamp(value: int, low: int, high: int) -> int:
    return max(low, min(high, value))


class SampleGenerator:
    """Deterministic bounded random walk over station measurements."""

    def __init__(self, config: GeneratorConfig | None = None):
        self.config = config or GeneratorConfig()
        if self.config.interval_ms < 1:
            raise ValueError("interval must be at least 1 ms")
        self._rng = random.Random(self.config.seed)
        self._temperature = _tenths(AIR_TEMPERATURE_C)
        self._humidity = _tenths(RELATIVE_HUMIDITY_PCT)
        self._pressure = _tenths(AIR_PRESSURE_HPA)
        self._direction = int(Decimal(WIND_DIRECTION_DEG))
        self._speed = _tenths(WIND_SPEED_MS)

    @property
    def interval_ms(self) -> int:
        return self.config.interval_ms

    def _walk(self, value: int, step: int, low: int, high: int) -> int:
        if step > 0:
            value += self._rng.randint(-step, step)
        return _clamp(value, low, high)

    def next_sample(self, now_ms: int) -> NormalizedSample:
        """Advance every walk one tick and stamp the result at now_ms."""
        cfg = self.config
        self._temperature = self._walk(self._temperature, cfg.temperature_step, -400, 500)
        self._humidity = self._walk(self._humidity, cfg.humidity_step, 0, 1000)
        self._pressure = self._walk(self._pressure, cfg.pressure_step, 8700, 10850)
        if cfg.direction_step > 0:
            self._direction = (self._direction + self._rng.randint(-cfg.direction_step, cfg.direction_step)) % 360
        self._speed = self._walk(self._speed, cfg.speed_step, 0, 600)

        dir_lo = self._rng.randint(0, cfg.direction_spread) if cfg.direction_spread > 0 else 0
        dir_hi = self._rng.randint(0, cfg.direction_spread) if cfg.direction_spread > 0 else 0
        gust_lo = self._rng.randint(0, cfg.gust_spread) if cfg.gust_spread > 0 else 0
        gust_hi = self._rng.randint(0, cfg.gust_spread) if cfg.gust_spread > 0 else 0

        rain = {}
        if cfg.rain_probability > 0 and self._rng.random() < cfg.rain_probability:
            intensity = self._rng.randint(1, 80)
            rain = {
                "rain_accumulation_mm": _decimal(self._rng.randint(0, 30)),
                "rain_duration_s": Decimal(cfg.interval_ms // 1000 or 1),
                "rain_intensity_mmh": _decimal(intensity),
                "rain_peak_mmh": _decimal(intensity + self._rng.randint(0, 20)),
            }

        return NormalizedSample(
            timestamp_ms=now_ms,
            air_temperature_c=_decimal(self._temperature),
            relative_humidity_pct=_decimal(self._humidity),
            air_pressure_hpa=_decimal(self._pressure),
            wind_direction_min_deg=Decimal(_clamp(self._direction - dir_lo, 0, 359)),
            wind_direction_ave_deg=Decimal(self._direction),
            wind_direction_max_deg=Decimal(_clamp(self._direction + dir_hi, 0, 359)),
            wind_speed_min_ms=_decimal(max(0, self._speed - gust_lo)),
            wind_speed_ave_ms=_decimal(self._speed),
            wind_speed_max_ms=_decimal(self._speed + gust_hi),
            **rain,
        )


class VendorLineSource:
    """Feed recorded instrument report lines as a node's sample source.

    Drop-in for SampleGenerator: one line is consumed per tick, stamped
    with the tick time.  Unusable lines are skipped and remembered in
    .warnings; a drained source yields None.
    """

    def __init__(self, lines, interval_ms: int, field_map=None):
        if interval_ms < 1:
            raise ValueError("interval must be at least 1 ms")
        self.interval_ms = interval_ms
        self._lines = iter(lines)
        self._field_map = field_map
        self.warnings: list = []

    def next_sample(self, now_ms: int) -> NormalizedSample | None:
        for raw in self._lines:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            try:
                parsed = vendor_parse_line(text, self._field_map)
            except VendorError as exc:
                self.warnings.append("%s: %s" % (text[:40], exc))
                continue
            self.warnings.extend(parsed.warnings)
            if not parsed.values:
                continue
            return vendor_to_sample(parsed, now_ms)
        return None


class SampleStore:
    """Time-ordered retention of samples with exact-time lookup."""

    def __init__(self, capacity: int = 10000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._samples: OrderedDict[int, NormalizedSample] = OrderedDict()
        self._by_second: dict[int, int] = {}  # second -> newest ms key inside it

    def __len__(self) -> int:
        return len(self._samples)

    def insert(self, sample: NormalizedSample) -> None:
        """Append one sample; evicts the oldest past capacity."""
        ts = sample.timestamp_ms
        if self._samples:
            newest = next(reversed(self._samples))
            if ts <= newest:
                raise OrderingError("timestamp %d not after newest %d" % (ts, newest))
        self._samples[ts] = sample
        self._by_second[ts // 1000] = ts
        while len(self._samples) > self.capacity:
            old_ts, _ = self._samples.popitem(last=False)
            if self._by_second.get(old_ts // 1000) == old_ts:
                del self._by_second[old_ts // 1000]

    def lookup(self, timestamp_ms: int) -> NormalizedSample | None:
        """Exact match; whole-second queries match the newest sample inside."""
        hit = self._samples.get(timestamp_ms)
        if hit is not None:
            return hit
        if timestamp_ms % 1000 == 0:
            key = self._by_second.get(timestamp_ms // 1000)
            if key is not None:
                return self._samples.get(key)
        return None

    def latest(self) -> NormalizedSample | None:
        if not self._samples:
            return None
        return self._samples[next(reversed(self._samples))]
