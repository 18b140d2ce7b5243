"""Configuration parsing, exact arithmetic, and timebase helpers."""

from __future__ import annotations

import copy
import json
import pickle
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluxloop import (
    ConfigError,
    InfeasibleFrequencyError,
    SimConfig,
    interval_duration,
    parse_config,
    serialize_config,
    sta,
    trip_duration,
)
from fluxloop.cli import _ratio_option
from fluxloop.core import (
    CELL_OVERRIDES,
    CELLS,
    CONFIG_FIELDS,
    FS_PER_SECOND,
    MAX_DIGITS,
    NOMINAL_BIAS,
    BiasPoint,
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


def test_an_interval_that_rounds_to_0_fs_is_infeasible():
    # 2·10¹⁵ Hz is the last frequency whose interval rounds half up to 1 fs
    assert interval_duration(SimConfig(frequency_hz=2 * 10**15, num_addresses=3)) == 1
    with pytest.raises(InfeasibleFrequencyError, match=r"^frequency 2000000000000001 Hz gives an address interval of 0 fs"):
        interval_duration(SimConfig(frequency_hz=2 * 10**15 + 1, num_addresses=3))


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

    def test_a_library_config_refuses_a_key_the_parser_refuses(self):
        doc = {"frequency": "100GHz", "num_addresses": 3, "cells": {"fanout": {"hold": "1ps"}}}
        with pytest.raises(ConfigError, match=r"^cells\.fanout\.hold: unknown parameter") as parsed:
            parse_config(json.dumps(doc))
        with pytest.raises(ConfigError) as built:
            SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides={"fanout": {"hold": 1000}})
        assert str(built.value) == str(parsed.value)

    def test_an_unknown_cell_is_named_whatever_its_keys(self):
        for overrides in ({}, {"prop_delay": 1}):
            doc = {"frequency": "100GHz", "num_addresses": 3, "cells": {"bogus": overrides}}
            with pytest.raises(ConfigError, match=r"^cells\.bogus: unknown cell \(valid: write_dro, "):
                parse_config(json.dumps(doc))

    def test_readme_override_table_agrees_with_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` +\| (`[^|]*`) +\|$", readme, re.M)
        assert {cell: tuple(re.findall(r"`(\w+)`", keys)) for cell, keys in rows} == CELL_OVERRIDES

    def test_readme_configuration_table_is_the_field_table(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        assert re.findall(r"^\| `(\w+)` +\|[^|]+\|[^|]+\|$", section, re.M) == list(CONFIG_FIELDS)
        # in SimConfig's own field order
        assert [field for field, _, _ in CONFIG_FIELDS.values()] == list(SimConfig._fields)

    def test_the_cell_table_is_the_controller(self, cfg100):
        kinds = {name: cell.kind for name, cell in build_controller(cfg100).cells.items()}
        assert kinds == {name: kind for name, (kind, _) in CELLS.items()}

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

    @pytest.mark.parametrize(
        "field, at_cap, past_cap",
        [
            ("num_addresses", "9" * 1000, "1" + "0" * 1000),  # a JSON integer
            ("max_events", "-" + "9" * 1000, "-1" + "0" * 1000),
            ("bias", f'"{"9" * 1000}"', '"1e1000"'),  # a ratio's numerator
            ("phase_read", '"1e-999"', '"1e-1000"'),  # and its denominator
            ("frequency", f'"{"9" * 1000}Hz"', f'"1{"0" * 1000}Hz"'),
            ("frequency", '"1e999THz"', '"1e1000Hz"'),  # the number as written, before its unit
            ("loop_delay", '"1e-999ns"', '"1e-1000ns"'),
            ("retiming_guard", f'"{"9" * 1000}fs"', f'"1{"0" * 1000}fs"'),
        ],
    )
    def test_a_number_of_1000_digits_is_taken_and_one_of_1001_refused(self, field, at_cap, past_cap):
        doc = '{{"frequency": "100GHz", "num_addresses": 3, "{}": {}}}'
        try:
            parse_config(doc.format(field, at_cap))
        except ConfigError as exc:  # a check after the bound's, so the number itself was taken
            assert "digits" not in exc.message, exc
        with pytest.raises(ConfigError) as info:
            parse_config(doc.format(field, past_cap))
        assert str(info.value) == f"{field}: number has more than {MAX_DIGITS} digits"

    def test_the_bound_holds_on_the_command_line_and_leaves_1e400_alone(self):
        assert _ratio_option("9" * 1000, "--bias-hi") == 10**1000 - 1
        with pytest.raises(ConfigError, match=r"^--bias-hi: number has more than 1000 digits$"):
            _ratio_option("1e1000", "--bias-hi")
        assert parse_config('{"frequency": "100GHz", "num_addresses": 3, "bias": "1e400"}').bias.ratio == 10**400

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bias", '"1e-30000000"'),
            ("bias", f'"1e{"9" * 4000}"'),  # sized by its digit count, not converted
            ("loop_delay", '"1e30000000fs"'),
            ("frequency", '"1e30000000Hz"'),
            ("phase_write", '"-2.5E+999999999"'),
        ],
    )
    def test_a_huge_exponent_is_refused_at_once_naming_the_field(self, field, value):
        # Fraction would compute 10**exponent first: 10**30000000 takes tens of seconds
        start = time.perf_counter()
        with pytest.raises(ConfigError) as info:
            parse_config(f'{{"frequency": "100GHz", "num_addresses": 3, "{field}": {value}}}')
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"{field}: number has more than {MAX_DIGITS} digits"

    def test_a_zero_mantissa_reads_as_0_whatever_its_exponent(self):
        start = time.perf_counter()
        cfg = parse_config('{"frequency": "100GHz", "num_addresses": 3, "phase_read": "0e999999999"}')
        assert cfg.phase_read == 0
        assert exact_ratio("0.0e-999999999") == exact_ratio("-0E+999999999") == 0
        assert time.perf_counter() - start < 1

    def test_a_huge_exponent_is_a_value_error_in_the_library(self, cfg100):
        start = time.perf_counter()
        calls = (lambda: exact_ratio("1e30000000"), lambda: BiasPoint.of("1e30000000"), lambda: sta(cfg100, "1e30000000"))
        for call in calls:
            with pytest.raises(ValueError, match=rf"^number has more than {MAX_DIGITS} digits$"):
                call()
        with pytest.raises(ConfigError, match=r"^--bias-hi: number has more than 1000 digits$"):
            _ratio_option("1e30000000", "--bias-hi")
        with pytest.raises(ValueError):  # past the bound from 3.11, which reads underscores; malformed before it
            exact_ratio("-2.5E+1_000_000_000")
        assert time.perf_counter() - start < 1
        # a malformed literal stays malformed, however long its exponent
        for text in ("1/2e999999999", "1e+-999999999", "abce999999999"):
            with pytest.raises(ValueError, match="^Invalid literal for Fraction"):
                exact_ratio(text)

    def test_the_exponent_check_leaves_numbers_at_the_cap_alone(self):
        assert exact_ratio("1e999") == 10**999
        assert exact_ratio("1e-999") == Fraction(1, 10**999)
        assert exact_ratio("9" * 1000) == 10**1000 - 1
        assert exact_ratio("1e400") == 10**400

    @given(  # zeros that the exponent cancels: the value has far fewer digits than the exponent suggests
        mantissa=st.from_regex(r"[0-9]{1,4}0{0,12}(\.0{0,12}[0-9]{0,4})?", fullmatch=True),
        sign=st.sampled_from(["", "+", "-"]),
        exponent=st.integers(min_value=990, max_value=1040),
    )
    @example(mantissa="0.000000000001", sign="", exponent=1011)  # 10**999: an exponent past 1000, a value within it
    @example(mantissa="1000000000000", sign="-", exponent=1011)
    def test_the_exponent_check_refuses_only_what_the_digit_bound_would(self, mantissa, sign, exponent):
        text = f"{mantissa}e{sign}{exponent}"
        exact = Fraction(text)  # small enough here to build
        try:
            got = exact_ratio(text)
        except ValueError:
            assert max(abs(exact.numerator), exact.denominator) >= 10**MAX_DIGITS, text
        else:
            assert got == exact

    def test_a_number_past_the_int_str_limit_is_invalid(self):
        # a JSON integer literal fails in the decoder; a number in a string reads as a malformed one
        with pytest.raises(ConfigError, match=r"^<document>: invalid JSON: Exceeds the limit \(4300 digits\)"):
            parse_config(f'{{"frequency": "100GHz", "num_addresses": 1{"0" * 5000}}}')
        for field, what in (("frequency", "frequency"), ("retiming_guard", "duration"), ("bias", "bias ratio")):
            with pytest.raises(ConfigError, match=rf"^{field}: invalid {what} '10{{5000}}'$"):
                parse_config(f'{{"frequency": "100GHz", "num_addresses": 3, "{field}": "1{"0" * 5000}"}}')

    @pytest.mark.parametrize("bias, shown", [(0, "0"), (-1, "-1"), ('"-1/2"', "'-1/2'")])
    def test_a_bias_ratio_that_is_not_positive_is_refused(self, bias, shown):
        with pytest.raises(ConfigError) as info:
            parse_config(f'{{"frequency": "100GHz", "num_addresses": 3, "bias": {bias}}}')
        assert str(info.value) == f"bias: invalid bias ratio {shown}"


# --- a library config and a document are one input ---------------------------

_ratios = st.fractions(0, 2, max_denominator=1000) | st.floats(0, 2) | st.integers(0, 2)
_pairs = st.tuples(_ratios, _ratios) | st.lists(_ratios, min_size=2, max_size=2)
#: Every accepted form of each override: int fs, ratios as Fraction, float or
#: int, sequences as lists or tuples.
_ACCEPTED = {
    "bias_curve": st.lists(_pairs, min_size=1, max_size=4).flatmap(lambda knots: st.sampled_from((knots, tuple(knots)))),
    "operating_range": _pairs,
}
_table_overrides = st.fixed_dictionaries({}, optional={
    name: st.fixed_dictionaries({}, optional={key: _ACCEPTED.get(key, st.integers(0, 10**6)) for key in keys})
    for name, keys in CELL_OVERRIDES.items()
})
_ALL_KEYS = tuple(dict.fromkeys(key for keys in CELL_OVERRIDES.values() for key in keys))


def _library_and_document(cells: dict) -> tuple[ConfigError, ConfigError | None]:
    """The errors a library ``SimConfig`` and a document raise on these cells
    (None for the document when a value is no JSON value)."""
    with pytest.raises(ConfigError) as built:
        SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=cells)
    try:
        text = json.dumps({"frequency": "100GHz", "num_addresses": 3, "cells": cells})
    except TypeError:  # a Fraction
        return built.value, None
    with pytest.raises(ConfigError) as parsed:
        parse_config(text)
    return built.value, parsed.value


@settings(max_examples=150)
@given(overrides=_table_overrides)
# floats given for a range are written back as exact ratios
@example(overrides={"merger": {"operating_range": (0.8, 1.2)}})
def test_a_library_config_round_trips_through_its_document(overrides):
    cfg = SimConfig(frequency_hz=100 * GHZ, num_addresses=3, cell_overrides=overrides)
    again = parse_config(serialize_config(cfg))
    assert again == cfg and again.frozen_overrides == cfg.frozen_overrides
    assert pickle.loads(pickle.dumps(cfg)) == cfg and cfg._replace() == cfg


@given(
    cell=st.sampled_from(tuple(CELL_OVERRIDES)) | st.just("bogus") | st.text(max_size=3),
    key=st.sampled_from((*_ALL_KEYS, "prop_delay_out1")) | st.text(max_size=3),
    value=st.integers(-5, 5) | st.text(max_size=3) | st.lists(st.integers(0, 2), max_size=2),
)
# an override the cell does not read
@example(cell="fanout", key="hold", value=1000)
# an unknown cell is named, not its key or its value
@example(cell="bogus", key="speed", value=1)
@example(cell="bogus", key="prop_delay", value="x")
def test_an_override_outside_the_table_is_refused_alike(cell, key, value):
    assume(key not in CELL_OVERRIDES.get(cell, ()))
    built, parsed = _library_and_document({cell: {key: value}})
    assert str(built) == str(parsed)
    assert built.field == (f"cells.{cell}.{key}" if cell in CELL_OVERRIDES else f"cells.{cell}")


@given(
    pair=st.sampled_from([(cell, key) for cell, keys in CELL_OVERRIDES.items() for key in keys]),
    value=st.integers(max_value=-1) | st.booleans() | st.sampled_from(["x", "3 s", None, [], [1], ["x", 1], [[1]]]),
)
# a negative hold is named, not the prop_delay beside it
@example(pair=("write_dro", "hold"), value=-5)
# a negative separation would turn the merger's collision check off
@example(pair=("merger", "min_separation"), value=-5)
# a duration is a count of fs or a string, not a Fraction
@example(pair=("merger", "prop_delay"), value=Fraction(3, 2))
def test_a_malformed_override_is_refused_when_built(pair, value):
    cell, key = pair
    built, parsed = _library_and_document({cell: {"prop_delay": 3000, key: value}})
    assert re.fullmatch(rf"cells\.{cell}\.{key}(\[\d+\])?", built.field)
    assert parsed is None or str(built) == str(parsed)
