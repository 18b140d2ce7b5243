"""Foundational types and configuration handling.

Time is kept as plain integers in femtoseconds throughout the package:
every schedule computation is exact integer arithmetic, so runs are
deterministic and platform independent.  Fractions are used wherever a
ratio (bias point, interval phase) enters a computation, with a single
documented rounding rule (round half up) applied at the moment a value
becomes a timestamp.
"""

from __future__ import annotations

import enum
import json
import re
from collections import namedtuple
from collections.abc import Callable, Mapping
from fractions import Fraction
from types import MappingProxyType

FS_PER_SECOND = 10**15


class CellKind(enum.Enum):
    DRO = "DRO"
    DRO2R = "DRO2R"
    MERGER = "MERGER"
    FANOUT = "FANOUT"


#: The controller's cells by instance name (fixed by the topology): kind and
#: nominal durations in fs, keyed by the override that sets each.  A cell reads
#: those overrides, ``bias_curve`` and ``operating_range``, and no other.  The
#: read cell's setup + prop budget (10 ps) pins the maximum frequency at 100 GHz.
CELLS: dict[str, tuple[CellKind, dict[str, int]]] = {
    "write_dro": (CellKind.DRO, {"prop_delay": 3000, "setup": 2000, "hold": 1000}),
    "recirc_dro2r": (CellKind.DRO2R, {"prop_delay": 3000, "setup": 3000, "hold": 1000}),
    "merger": (CellKind.MERGER, {"prop_delay": 1500, "min_separation": 2000}),
    "fanout": (CellKind.FANOUT, {"prop_delay": 500}),
    "read_dro2r": (CellKind.DRO2R, {"prop_delay": 3000, "setup": 7000, "hold": 1000}),
}

#: The overrides each cell reads, and the controller's cell names.
CELL_OVERRIDES = {name: (*nominal, "bias_curve", "operating_range") for name, (_, nominal) in CELLS.items()}
CELL_NAMES = tuple(CELLS)

#: quantity -> (suffix units, unit of a bare number, hint for an unknown unit)
_QUANTITIES: dict[str, tuple[dict[str, int], str, str]] = {
    "duration": ({"fs": 1, "ps": 10**3, "ns": 10**6}, "fs", " (use fs, ps or ns)"),
    "frequency": ({"hz": 1, "khz": 10**3, "mhz": 10**6, "ghz": 10**9, "thz": 10**12}, "hz", ""),
}

#: Most digits in a parsed number's numerator or denominator: a report prints at most products
#: of two parsed values, so no printed figure reaches CPython's 4,300-digit int <-> str limit.
MAX_DIGITS = 1000
_DIGITS_BOUND = 10**MAX_DIGITS

_UNIT_RE = re.compile(r"^\s*([+-]?[0-9][0-9_]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*$")


class FluxloopError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FluxloopError):
    """A configuration document is malformed or semantically invalid.

    ``field`` names the offending entry so callers (and the CLI) can point
    at it without parsing the message.
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message


class InfeasibleFrequencyError(FluxloopError):
    """The controller cannot close timing at the requested frequency."""


def round_half_up(value: Fraction | int) -> int:
    """Round an exact rational to the nearest integer, ties toward +inf.

    Every timestamp rounds by this rule, ``(2·num + den) // (2·den)`` (an int
    is its own numerator over 1; ``interval_duration`` and the phase instants
    inline it), so float representation error can never flip a tie.
    """
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


class _PastDigitBound(ValueError):
    """A decimal string whose exponent alone puts it past ``MAX_DIGITS`` digits."""


def exact_ratio(value: float | int | str | Fraction) -> Fraction:
    """Convert a user-supplied ratio to an exact Fraction.

    Floats go through their shortest decimal repr, so a config value of
    0.87 becomes exactly 87/100 rather than the nearest binary float.  A
    string whose exponent exceeds ``MAX_DIGITS`` plus its length is refused
    before ``Fraction`` computes ``10**exponent``, or read as 0 if its mantissa is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    text = str(value).strip()
    head, e, exponent = text.replace("E", "e").rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")  # sized by its digit count before int() reads it
    if e and digits.isdecimal() and (len(digits) > len(str(bound := MAX_DIGITS + len(text))) or int(digits) > bound):
        # a nonzero mantissa puts the numerator, or the reduced denominator, past the bound
        mantissa = Fraction(head + "e" + re.sub(r"\d+", "0", exponent))  # exponent 0: Fraction checks the form
        if mantissa:
            raise _PastDigitBound(f"number has more than {MAX_DIGITS} digits")
        return mantissa
    return Fraction(text)


def _bounded(value: Fraction | int, field_name: str) -> Fraction | int:
    """``value``, refused on ``field_name`` if its numerator or denominator has over ``MAX_DIGITS`` digits."""
    if max(abs(value.numerator), value.denominator) >= _DIGITS_BOUND:
        raise ConfigError(field_name, f"number has more than {MAX_DIGITS} digits")
    return value


def _bounded_ratio(value: object, field_name: str) -> Fraction:
    """``exact_ratio(value)`` within the digit bound, else a ConfigError on ``field_name``; a ValueError if malformed."""
    try:
        return _bounded(exact_ratio(value), field_name)
    except _PastDigitBound as exc:
        raise ConfigError(field_name, str(exc)) from None


def _ratio(value: object, field_name: str, what: str = "ratio") -> Fraction:
    if isinstance(value, bool):  # JSON true/false decode to bool, an int subclass
        raise ConfigError(field_name, "expected a ratio, got a boolean")
    try:
        return _bounded_ratio(value, field_name)
    except (ValueError, ZeroDivisionError):  # a malformed string, or a float that is NaN or infinite
        raise ConfigError(field_name, f"invalid {what} {value!r}") from None


def _freeze(overrides: Mapping[str, Mapping[str, object]]) -> tuple:
    """The hashable equal of normalized overrides: (cell, ((key, value), ...)) pairs, each level sorted."""
    return tuple(sorted((name, tuple(sorted(o.items()))) for name, o in overrides.items()))


def _ratio_to_json(value: Fraction) -> float | str:
    # Prefer a plain number when it survives the float round-trip exactly;
    # fall back to a "num/den" string for ratios like 1/3 or 10**400.
    try:
        as_float = float(value)
        if Fraction(repr(as_float)) == value:
            return as_float
    except OverflowError:  # beyond a float's range
        pass
    return f"{value.numerator}/{value.denominator}"


def format_ratio(value: Fraction) -> str:
    """Human-oriented decimal rendering of a ratio (deterministic)."""
    rendered = _ratio_to_json(value)
    return repr(rendered) if isinstance(rendered, float) else rendered


def _parse_quantity(value: object, field_name: str, what: str) -> int:
    """A ``_QUANTITIES`` value as an integer count of its base unit.

    Plain numbers are base units; strings may carry a case-insensitive unit
    suffix.  Fractional counts round half up.
    """
    units, bare_unit, hint = _QUANTITIES[what]
    if isinstance(value, bool):
        raise ConfigError(field_name, f"expected a {what}, got a boolean")
    if isinstance(value, (int, float)):
        return round_half_up(_ratio(value, field_name, what))
    if not isinstance(value, str):
        raise ConfigError(field_name, f"expected a {what}, got {type(value).__name__}")
    match = _UNIT_RE.match(value)
    if not match:
        raise ConfigError(field_name, f"cannot parse {what} {value!r}")
    unit = match.group(2).lower() or bare_unit
    if unit not in units:
        raise ConfigError(field_name, f"unknown {what} unit {match.group(2)!r}{hint}")
    return round_half_up(_ratio(match.group(1).replace("_", ""), field_name, what) * units[unit])


def parse_duration(value: object, field_name: str = "duration", *, allow_negative: bool = False) -> int:
    """Parse a duration into integer femtoseconds.

    Plain numbers are taken as femtoseconds; strings may carry an ``fs``,
    ``ps`` or ``ns`` suffix.  Fractional femtoseconds round half up.
    """
    fs = _parse_quantity(value, field_name, "duration")
    if fs < 0 and not allow_negative:
        raise ConfigError(field_name, "duration must be non-negative")
    return fs


def parse_frequency(value: object, field_name: str = "frequency") -> int:
    """Parse a frequency into integer hertz (suffixes Hz..THz accepted)."""
    hz = _parse_quantity(value, field_name, "frequency")
    if hz <= 0:
        raise ConfigError(field_name, "frequency must be positive")
    return hz


def validated_record(typename: str, field_names: str) -> type:
    """A namedtuple base whose ``_make``, and so ``_replace``, builds through
    the subclass's validating constructor rather than ``tuple.__new__``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class BiasPoint(validated_record("BiasPoint", "ratio")):
    """A bias supply level as a fraction of nominal (1.0 = nominal)."""

    __slots__ = ()

    def __new__(cls, ratio: Fraction) -> "BiasPoint":
        if ratio <= 0:
            raise ValueError("bias ratio must be positive")
        return tuple.__new__(cls, (ratio,))

    @classmethod
    def of(cls, value: float | int | str | Fraction) -> "BiasPoint":
        return cls(exact_ratio(value))

    @classmethod
    def nominal(cls) -> "BiasPoint":
        return cls(Fraction(1))

    def __str__(self) -> str:
        return format_ratio(self.ratio)


NOMINAL_BIAS = BiasPoint(Fraction(1))


class SimConfig(validated_record(
    "SimConfig", "frequency_hz num_addresses bias header_intervals phase_read phase_write phase_data loop_delay_fs "
    "retiming_guard_fs loop_jitter_fs cell_overrides max_events search_ceiling_hz",
)):
    """Validated run configuration shared by every module.

    A tuple, varied by ``cfg._replace(...)``, which validates like the
    constructor.  ``cell_overrides`` holds per-cell overrides, as
    ``normalize_cell_overrides`` checks and normalizes them, that the cell
    layer merges over ``CELLS``: a read-only copy, so their hashable equal
    ``frozen_overrides`` is computed once, into the instance dict.
    """

    def __new__(
        cls, frequency_hz: int, num_addresses: int, bias: BiasPoint = NOMINAL_BIAS, header_intervals: int = 1,
        phase_read: Fraction = Fraction(1, 5), phase_write: Fraction = Fraction(1, 2),
        phase_data: Fraction = Fraction(1, 2), loop_delay_fs: int | None = None, retiming_guard_fs: int = 2000,
        loop_jitter_fs: tuple[int, ...] = (), cell_overrides: Mapping[str, Mapping[str, object]] = MappingProxyType({}),
        max_events: int = 10_000_000, search_ceiling_hz: int = 10**12,
    ) -> "SimConfig":
        for failed, field_name, problem in (
            (frequency_hz <= 0, "frequency", "must be positive"),
            (num_addresses < 1, "num_addresses", "must be at least 1"),
            (header_intervals < 1, "header_intervals", "must be at least 1"),
            (not 0 <= phase_read < phase_write < 1, "phase_read/phase_write", "need 0 <= phase_read < phase_write < 1"),
            (not 0 <= phase_data < 1, "phase_data", "must lie in [0, 1)"),
            (loop_delay_fs is not None and loop_delay_fs <= 0, "loop_delay", "must be positive when given"),
            (retiming_guard_fs < 0, "retiming_guard", "must be non-negative"),
            (max_events < 1, "max_events", "must be positive"),
            (search_ceiling_hz <= 0, "search_ceiling", "must be positive"),
        ):
            if failed:
                raise ConfigError(field_name, problem)
        overrides = {name: MappingProxyType(o) for name, o in normalize_cell_overrides(cell_overrides).items()}
        fields = (frequency_hz, num_addresses, bias, header_intervals, phase_read, phase_write, phase_data, loop_delay_fs,
                  retiming_guard_fs, tuple(loop_jitter_fs), MappingProxyType(overrides), max_events, search_ceiling_hz)
        cfg = tuple.__new__(cls, fields)
        cfg.frozen_overrides = _freeze(overrides)
        return cfg

    def __reduce__(self) -> tuple:
        """Pickle through the constructor, the read-only overrides as plain dicts."""
        plain = {name: dict(o) for name, o in self.cell_overrides.items()}
        return type(self), tuple(plain if name == "cell_overrides" else value for name, value in zip(self._fields, self))

    def with_bias(self, bias: BiasPoint) -> "SimConfig":
        return self._replace(bias=bias)

    def with_frequency(self, frequency_hz: int) -> "SimConfig":
        """``_replace(frequency_hz=...)`` that checks only the new frequency and shares ``frozen_overrides``."""
        if frequency_hz <= 0:
            raise ConfigError("frequency", "must be positive")
        copy = tuple.__new__(type(self), (frequency_hz, *self[1:]))
        copy.frozen_overrides = self.frozen_overrides
        return copy


def interval_duration(cfg: SimConfig) -> int:
    """Duration of one address interval in fs (1/frequency, round half up).

    A frequency above 2·10¹⁵ Hz, whose interval rounds to 0 fs, raises
    ``InfeasibleFrequencyError``.
    """
    # round_half_up(Fraction(FS_PER_SECOND, f)) in integer arithmetic
    interval = (2 * FS_PER_SECOND + cfg.frequency_hz) // (2 * cfg.frequency_hz)
    if not interval:
        raise InfeasibleFrequencyError(
            f"frequency {cfg.frequency_hz} Hz gives an address interval of 0 fs, below the 1 fs time resolution"
        )
    return interval


def trip_duration(cfg: SimConfig) -> int:
    """One full loop rotation: header interval(s) plus one per address."""
    return (cfg.num_addresses + cfg.header_intervals) * interval_duration(cfg)


def _parse_curve(raw: object, field_name: str) -> tuple[tuple[Fraction, Fraction], ...]:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(field_name, "expected a non-empty list of [ratio, multiplier] pairs")
    knots = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{field_name}[{i}]", "expected a [ratio, multiplier] pair")
        knots.append(tuple(_ratio(item, f"{field_name}[{i}]") for item in pair))
    return tuple(knots)


def _parse_range(raw: object, field_name: str) -> tuple[Fraction, Fraction]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(field_name, "expected [low, high] bias ratios")
    return tuple(_ratio(item, field_name) for item in raw)


#: Each cell override's (parse(value, field), write(value)) by key; a duration otherwise.
_DURATION_CODEC = (parse_duration, lambda fs: fs)
_OVERRIDE_CODECS = {
    "bias_curve": (_parse_curve, lambda knots: [list(map(_ratio_to_json, knot)) for knot in knots]),
    "operating_range": (_parse_range, lambda edges: list(map(_ratio_to_json, edges))),
}


def normalize_cell_overrides(raw: object) -> dict[str, dict[str, object]]:
    """Per-cell overrides checked against ``CELLS`` and normalized (durations in
    fs, exact ratios, tuples), alike from a document or a library ``SimConfig``."""
    if not isinstance(raw, Mapping):
        raise ConfigError("cells", "expected an object of per-cell overrides")
    out: dict[str, dict[str, object]] = {}
    for name, overrides in raw.items():
        if name not in CELLS:
            raise ConfigError(f"cells.{name}", f"unknown cell (valid: {', '.join(CELL_NAMES)})")
        if not isinstance(overrides, Mapping):
            raise ConfigError(f"cells.{name}", "expected an object of parameter overrides")
        valid = CELL_OVERRIDES[name]
        out[name] = entry = {}
        for key, value in overrides.items():
            qualified = f"cells.{name}.{key}"
            if key not in valid:
                raise ConfigError(qualified, f"unknown parameter (valid: {', '.join(valid)})")
            entry[key] = _OVERRIDE_CODECS.get(key, _DURATION_CODEC)[0](value, qualified)
    return out


def _integer(value: object, key: str) -> int:
    if type(value) is not int:  # JSON true/false decode to bool, an int subclass
        raise ConfigError(key, "expected an integer")
    return _bounded(value, key)


def _bias(value: object, key: str) -> BiasPoint:
    try:
        return BiasPoint(_ratio(value, key, "bias ratio"))
    except ValueError:
        raise ConfigError(key, f"invalid bias ratio {value!r}") from None


def _loop_jitter(value: object, key: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ConfigError(key, "expected a list of per-trip offsets")
    return tuple(parse_duration(item, f"{key}[{i}]", allow_negative=True) for i, item in enumerate(value))


def _same(value: object, *_: object) -> object:
    return value


#: The document's fields in check order: key -> (SimConfig field, parse(value,
#: key), write(value)).  A null ``loop_delay`` is its default; ``cells`` is
#: checked by ``SimConfig`` itself, after the other fields.
CONFIG_FIELDS: dict[str, tuple[str, Callable[[object, str], object], Callable[[object], object]]] = {
    "frequency": ("frequency_hz", parse_frequency, _same),
    "num_addresses": ("num_addresses", _integer, _same),
    "bias": ("bias", _bias, lambda bias: _ratio_to_json(bias.ratio)),
    "header_intervals": ("header_intervals", _integer, _same),
    "phase_read": ("phase_read", _ratio, _ratio_to_json),
    "phase_write": ("phase_write", _ratio, _ratio_to_json),
    "phase_data": ("phase_data", _ratio, _ratio_to_json),
    "loop_delay": ("loop_delay_fs", lambda value, key: None if value is None else parse_duration(value, key), _same),
    "retiming_guard": ("retiming_guard_fs", parse_duration, _same),
    "loop_jitter": ("loop_jitter_fs", _loop_jitter, list),
    "cells": ("cell_overrides", _same, lambda overrides: {
        name: {key: _OVERRIDE_CODECS.get(key, _DURATION_CODEC)[1](value) for key, value in o.items()}
        for name, o in overrides.items()
    }),
    "max_events": ("max_events", _integer, _same),
    "search_ceiling": ("search_ceiling_hz", parse_frequency, _same),
}


def load_json(text: str, document: str) -> object:
    """``text`` decoded as JSON.  Malformed text, or nesting deeper than the
    decoder can recurse, raises ``ConfigError`` on ``document``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or an integer past the int <-> str limit
        raise ConfigError(document, f"invalid JSON: {exc}") from None


def parse_config(text: str) -> SimConfig:
    """Parse and validate a JSON configuration document.

    Missing optional fields take the documented defaults; every error
    names the offending field.
    """
    doc = load_json(text, "<document>")
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    for key in doc:
        if key not in CONFIG_FIELDS:
            raise ConfigError(key, "unknown configuration field")
    for key in ("frequency", "num_addresses"):
        if key not in doc:
            raise ConfigError(key, "required field is missing")
    return SimConfig(**{field: parse(doc[key], key) for key, (field, parse, _) in CONFIG_FIELDS.items() if key in doc})


def serialize_config(cfg: SimConfig) -> str:
    """Serialize a config to JSON such that parse_config round-trips it."""
    doc = {key: write(getattr(cfg, field)) for key, (field, _, write) in CONFIG_FIELDS.items()}
    if not cfg.cell_overrides:  # no overrides: the field is left out
        del doc["cells"]
    return json.dumps(doc, indent=2, sort_keys=True)
