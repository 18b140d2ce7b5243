"""Configuration parsing, exact arithmetic, and timebase helpers."""

from __future__ import annotations

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxloop import (
    ConfigError,
    SimConfig,
    interval_duration,
    parse_config,
    serialize_config,
    trip_duration,
)
from fluxloop.core import (
    FS_PER_SECOND,
    NOMINAL_BIAS,
    BiasPoint,
    PulseEvent,
    exact_ratio,
    format_ratio,
    parse_duration,
    parse_frequency,
    round_half_up,
)
from fluxloop.memory import build_controller, phase_instants

GHZ = 10**9


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(5), 5),
        (Fraction(7, 2), 4),  # tie rounds up
        (Fraction(9, 4), 2),
        (Fraction(11, 4), 3),
        (Fraction(-1, 2), 0),  # negative tie still rounds toward +inf
        (Fraction(-3, 2), -1),
        (Fraction(-7, 4), -2),
        (Fraction(0), 0),
        (3, 3),
    ],
)
def test_round_half_up(value, expected):
    assert round_half_up(value) == expected


def test_exact_ratio_uses_decimal_repr_of_floats():
    # 0.87 is not representable in binary; we want the printed decimal.
    assert exact_ratio(0.87) == Fraction(87, 100)
    assert exact_ratio(1) == Fraction(1)
    assert exact_ratio("3/7") == Fraction(3, 7)
    assert exact_ratio(Fraction(2, 5)) == Fraction(2, 5)


def test_format_ratio():
    assert format_ratio(Fraction(87, 100)) == "0.87"
    assert format_ratio(Fraction(1)) == "1.0"
    assert format_ratio(Fraction(1, 3)) == "1/3"
    # beyond a float's range: the num/den string, not an OverflowError
    assert format_ratio(Fraction(10**400)) == f"{10**400}/1"


@pytest.mark.parametrize(
    "raw, expected",
    [
        (2500, 2500),
        (2500.4, 2500),
        ("2500", 2500),
        ("2.5ps", 2500),
        ("25 ps", 25000),  # whitespace between magnitude and unit is fine
        ("0.001ns", 1000),
        ("1_000fs", 1000),
    ],
)
def test_parse_duration(raw, expected):
    assert parse_duration(raw) == expected


def test_parse_duration_rejects_garbage():
    with pytest.raises(ConfigError, match="setup"):
        parse_duration("fast", "setup")
    with pytest.raises(ConfigError, match="unknown duration unit"):
        parse_duration("3weeks", "setup")
    with pytest.raises(ConfigError, match="non-negative"):
        parse_duration(-5, "setup")
    with pytest.raises(ConfigError, match="boolean"):
        parse_duration(True, "setup")
    # negative allowed only when asked for (jitter offsets)
    assert parse_duration(-5, "jitter", allow_negative=True) == -5


@pytest.mark.parametrize(
    "raw, expected",
    [
        (100 * GHZ, 100 * GHZ),
        ("100GHz", 100 * GHZ),
        ("100 GHz", 100 * GHZ),
        ("0.1THz", 100 * GHZ),
        ("75ghz", 75 * GHZ),
        ("1e9", GHZ),
    ],
)
def test_parse_frequency(raw, expected):
    assert parse_frequency(raw) == expected


def test_parse_frequency_rejects_garbage():
    with pytest.raises(ConfigError, match="frequency"):
        parse_frequency("fast")
    with pytest.raises(ConfigError, match="unknown frequency unit"):
        parse_frequency("3rpm")
    with pytest.raises(ConfigError, match="positive"):
        parse_frequency(0)


@pytest.mark.parametrize(
    "freq_ghz, interval_fs",
    [(100, 10000), (75, 13333), (50, 20000), (20, 50000)],
)
def test_interval_duration(freq_ghz, interval_fs):
    cfg = SimConfig(frequency_hz=freq_ghz * GHZ, num_addresses=3)
    assert interval_duration(cfg) == interval_fs


def test_trip_duration(cfg100):
    # one header interval plus one interval per address
    assert trip_duration(cfg100) == 40000
    wide = SimConfig(frequency_hz=100 * GHZ, num_addresses=7, header_intervals=2)
    assert trip_duration(wide) == 90000


#: Phases in [0, 1) with denominators up to a million.
_phases = st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)).map(lambda nd: Fraction(nd[0] % nd[1], nd[1]))


@st.composite
def _timebase_configs(draw) -> SimConfig:
    read, write = sorted((draw(_phases), draw(_phases)))
    assume(read < write)
    return SimConfig(
        frequency_hz=draw(st.integers(1, 10 * 10**12)),
        num_addresses=draw(st.integers(1, 10**6)),
        header_intervals=draw(st.integers(1, 16)),
        phase_read=read,
        phase_write=write,
        phase_data=draw(_phases),
    )


@settings(max_examples=100)
@given(_timebase_configs())
def test_integer_timebase_matches_exact_rounding(cfg):
    # the reference: exact rationals, rounded once by round_half_up
    interval = round_half_up(Fraction(FS_PER_SECOND, cfg.frequency_hz))
    assert interval_duration(cfg) == interval
    assert trip_duration(cfg) == (cfg.num_addresses + cfg.header_intervals) * interval
    phases = (cfg.phase_read, cfg.phase_write, cfg.phase_data)
    assert phase_instants(cfg) == tuple(round_half_up(p * interval) for p in phases)


class TestWithFrequency:
    @pytest.mark.parametrize("ghz", [1, 75, 100, 150])
    def test_equals_a_validated_replace(self, ghz):
        cfg = SimConfig(
            frequency_hz=100 * GHZ,
            num_addresses=5,
            bias=BiasPoint.of("0.9"),
            header_intervals=2,
            phase_read=Fraction(1, 3),
            loop_jitter_fs=(300, -200),
            cell_overrides={"merger": {"prop_delay": 2000}},
            max_events=5000,
        )
        moved, replaced = cfg.with_frequency(ghz * GHZ), cfg._replace(frequency_hz=ghz * GHZ)
        assert type(moved) is SimConfig
        assert moved == replaced and vars(moved) == vars(replaced)
        assert cfg.frequency_hz == 100 * GHZ  # the original is untouched
        # SimConfig holds its cell overrides in a dict, so neither config hashes
        for config in (moved, replaced):
            with pytest.raises(TypeError, match="unhashable"):
                hash(config)
        assert build_controller(moved) is build_controller(replaced)

    @pytest.mark.parametrize("hz", [0, -1, -100 * GHZ])
    def test_refuses_a_non_positive_frequency(self, cfg100, hz):
        for make in (cfg100.with_frequency, lambda f: cfg100._replace(frequency_hz=f)):
            with pytest.raises(ConfigError) as info:
                make(hz)
            assert (info.value.field, info.value.message) == ("frequency", "must be positive")


class TestReadOnlyOverrides:
    OVERRIDES = {
        "merger": {"prop_delay": 2000},
        "read_dro2r": {
            "operating_range": [Fraction(4, 5), Fraction(6, 5)],
            "bias_curve": [[Fraction(4, 5), Fraction(13, 10)], [1, 1], [Fraction(6, 5), Fraction(7, 10)]],
        },
    }

    def test_overrides_are_a_read_only_copy(self):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=self.OVERRIDES)
        assert cfg.cell_overrides == {
            "merger": {"prop_delay": 2000},
            "read_dro2r": {
                "operating_range": (Fraction(4, 5), Fraction(6, 5)),
                "bias_curve": ((Fraction(4, 5), Fraction(13, 10)), (1, 1), (Fraction(6, 5), Fraction(7, 10))),
            },
        }
        with pytest.raises(TypeError):
            cfg.cell_overrides["fanout"] = {}
        with pytest.raises(TypeError):
            cfg.cell_overrides["merger"]["prop_delay"] = 1

    def test_pickles_and_copies_through_the_constructor(self):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=self.OVERRIDES).with_frequency(75 * GHZ)
        for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), copy.copy(cfg)):
            assert again == cfg and vars(again) == vars(cfg)
            with pytest.raises(TypeError):
                again.cell_overrides["merger"]["prop_delay"] = 1

    def test_serializes_and_parses_back(self):
        cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=self.OVERRIDES)
        again = parse_config(serialize_config(cfg))
        assert again == cfg and again.frozen_overrides == cfg.frozen_overrides


def test_pulse_event_ordering_and_validation():
    a = PulseEvent(10, "x")
    b = PulseEvent(10, "y")
    c = PulseEvent(5, "z")
    assert sorted([b, a, c]) == [c, a, b]
    with pytest.raises(ValueError):
        PulseEvent(-1, "x")


def test_bias_point():
    assert BiasPoint.of(0.9).ratio == Fraction(9, 10)
    assert BiasPoint.nominal() == NOMINAL_BIAS
    assert str(BiasPoint.of("0.87")) == "0.87"
    with pytest.raises(ValueError):
        BiasPoint.of(0)


class TestSimConfigValidation:
    def test_defaults(self, cfg100):
        assert cfg100.bias == NOMINAL_BIAS
        assert cfg100.header_intervals == 1
        assert cfg100.phase_read == Fraction(1, 5)
        assert cfg100.phase_write == Fraction(1, 2)
        assert cfg100.phase_data == Fraction(1, 2)
        assert cfg100.loop_delay_fs is None
        assert cfg100.retiming_guard_fs == 2000

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"frequency_hz": 0}, "frequency"),
            ({"num_addresses": 0}, "num_addresses"),
            ({"header_intervals": 0}, "header_intervals"),
            ({"phase_read": Fraction(3, 5)}, "phase_read/phase_write"),
            ({"phase_data": Fraction(1)}, "phase_data"),
            ({"loop_delay_fs": 0}, "loop_delay"),
            ({"retiming_guard_fs": -1}, "retiming_guard"),
            ({"max_events": 0}, "max_events"),
            ({"cell_overrides": {"mystery": {}}}, "cells.mystery"),
        ],
    )
    def test_rejects_bad_values(self, changes, field):
        kwargs = dict(frequency_hz=100 * GHZ, num_addresses=3)
        kwargs.update(changes)
        with pytest.raises(ConfigError, match=field):
            SimConfig(**kwargs)


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config('{"frequency": "100GHz", "num_addresses": 3}')
        assert cfg.frequency_hz == 100 * GHZ
        assert cfg.num_addresses == 3

    def test_full_document(self):
        doc = {
            "frequency": "75GHz",
            "num_addresses": 5,
            "bias": 0.9,
            "header_intervals": 2,
            "phase_read": 0.25,
            "phase_write": 0.5,
            "phase_data": 0.5,
            "loop_delay": "80ps",
            "retiming_guard": 1500,
            "loop_jitter": [0, -2000, "3ps"],
            "max_events": 500000,
            "search_ceiling": "2THz",
            "cells": {"merger": {"min_separation": "1.5ps"}},
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.frequency_hz == 75 * GHZ
        assert cfg.bias.ratio == Fraction(9, 10)
        assert cfg.loop_delay_fs == 80000
        assert cfg.loop_jitter_fs == (0, -2000, 3000)
        assert cfg.search_ceiling_hz == 2 * 10**12
        assert cfg.cell_overrides["merger"]["min_separation"] == 1500

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="frequency: required field is missing"):
            parse_config('{"num_addresses": 3}')
        with pytest.raises(ConfigError, match="num_addresses: required field is missing"):
            parse_config('{"frequency": "100GHz"}')

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="freqency: unknown configuration field"):
            parse_config('{"freqency": "100GHz", "num_addresses": 3}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{")
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_unknown_cell_parameter(self):
        doc = {"frequency": "100GHz", "num_addresses": 3, "cells": {"merger": {"speed": 3}}}
        with pytest.raises(ConfigError, match="cells.merger.speed"):
            parse_config(json.dumps(doc))

    def test_round_trip(self):
        doc = {
            "frequency": "100GHz",
            "num_addresses": 3,
            "bias": 0.87,
            "loop_jitter": [500, -500],
            "cells": {
                "read_dro2r": {
                    "setup": 2500,
                    "bias_curve": [[0.8, 1.3], [1.0, 1.0], [1.2, 0.7]],
                    "operating_range": [0.8, 1.2],
                }
            },
        }
        cfg = parse_config(json.dumps(doc))
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_of_a_bias_beyond_a_float(self):
        cfg = parse_config('{"frequency": "100GHz", "num_addresses": 3, "bias": "1e400"}')
        assert cfg.bias.ratio == 10**400
        text = serialize_config(cfg)
        assert json.loads(text)["bias"] == f"{10**400}/1"
        assert parse_config(text) == cfg

