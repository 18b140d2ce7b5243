"""Foundational types and configuration handling.

Time is kept as plain integers in femtoseconds throughout the package:
every schedule computation is exact integer arithmetic, so runs are
deterministic and platform independent.  Fractions are used wherever a
ratio (bias point, interval phase) enters a computation, with a single
documented rounding rule (round half up) applied at the moment a value
becomes a timestamp.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType
from typing import Any, Mapping

FS_PER_SECOND = 10**15

#: Cell instance names of the controller, fixed by its topology.
CELL_NAMES = ("write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r")

#: Per-cell override keys accepted in a configuration document.
CELL_OVERRIDE_KEYS = (
    "prop_delay",
    "prop_delay_out1",
    "setup",
    "hold",
    "min_separation",
    "bias_curve",
    "operating_range",
)

#: quantity -> (suffix units, unit of a bare number, hint for an unknown unit)
_QUANTITIES: dict[str, tuple[dict[str, int], str, str]] = {
    "duration": ({"fs": 1, "ps": 10**3, "ns": 10**6}, "fs", " (use fs, ps or ns)"),
    "frequency": ({"hz": 1, "khz": 10**3, "mhz": 10**6, "ghz": 10**9, "thz": 10**12}, "hz", ""),
}

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


def exact_ratio(value: float | int | str | Fraction) -> Fraction:
    """Convert a user-supplied ratio to an exact Fraction.

    Floats go through their shortest decimal repr, so a config value of
    0.87 becomes exactly 87/100 rather than the nearest binary float.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(str(value).strip())


def _ratio(value: Any, field_name: str, what: str = "ratio") -> Fraction:
    if isinstance(value, bool):  # JSON true/false decode to bool, an int subclass
        raise ConfigError(field_name, "expected a ratio, got a boolean")
    try:
        return exact_ratio(value)
    except (ValueError, ZeroDivisionError):  # a malformed string, or a float that is NaN or infinite
        raise ConfigError(field_name, f"invalid {what} {value!r}") from None


def _freeze(value: Any) -> Any:
    """A hashable equal of an override value: mappings and lists become tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    return tuple(map(_freeze, value)) if isinstance(value, (list, tuple)) else value


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


def _parse_quantity(value: Any, field_name: str, what: str) -> int:
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
    return round_half_up(Fraction(match.group(1).replace("_", "")) * units[unit])


def parse_duration(value: Any, field_name: str = "duration", *, allow_negative: bool = False) -> int:
    """Parse a duration into integer femtoseconds.

    Plain numbers are taken as femtoseconds; strings may carry an ``fs``,
    ``ps`` or ``ns`` suffix.  Fractional femtoseconds round half up.
    """
    fs = _parse_quantity(value, field_name, "duration")
    if fs < 0 and not allow_negative:
        raise ConfigError(field_name, "duration must be non-negative")
    return fs


def parse_frequency(value: Any, field_name: str = "frequency") -> int:
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


class PulseEvent(validated_record("PulseEvent", "time_fs line")):
    """A single SFQ pulse: a bare timestamp on a named signal line.

    A tuple ``(time_fs, line)``: pulses order by time, then line, and equal
    the plain tuple of their fields.  The constructor refuses a negative
    time; the event kernel wraps pairs it has proved valid with
    ``tuple.__new__(PulseEvent, (t, line))`` instead.
    """

    __slots__ = ()

    def __new__(cls, time_fs: int, line: str) -> "PulseEvent":
        if time_fs < 0:
            raise ValueError(f"pulse time must be non-negative, got {time_fs}")
        return tuple.__new__(cls, (time_fs, line))


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
    constructor.  ``cell_overrides`` holds normalized per-cell overrides
    (durations in fs, curve knots as exact ratios) that the cell layer merges
    over its defaults: a read-only copy (lists as tuples), so their hashable
    equal ``frozen_overrides`` is computed once, into the instance dict.
    """

    def __new__(
        cls, frequency_hz: int, num_addresses: int, bias: BiasPoint = NOMINAL_BIAS, header_intervals: int = 1,
        phase_read: Fraction = Fraction(1, 5), phase_write: Fraction = Fraction(1, 2),
        phase_data: Fraction = Fraction(1, 2), loop_delay_fs: int | None = None, retiming_guard_fs: int = 2000,
        loop_jitter_fs: tuple[int, ...] = (), cell_overrides: Mapping[str, Mapping[str, Any]] = MappingProxyType({}),
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
            *((name not in CELL_NAMES, f"cells.{name}", f"unknown cell (valid: {', '.join(CELL_NAMES)})")
              for name in cell_overrides),
        ):
            if failed:
                raise ConfigError(field_name, problem)
        overrides = {name: MappingProxyType({k: _freeze(v) for k, v in o.items()}) for name, o in cell_overrides.items()}
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
    """Duration of one address interval in fs (1/frequency, round half up)."""
    # round_half_up(Fraction(FS_PER_SECOND, f)) in integer arithmetic
    return (2 * FS_PER_SECOND + cfg.frequency_hz) // (2 * cfg.frequency_hz)


def trip_duration(cfg: SimConfig) -> int:
    """One full loop rotation: header interval(s) plus one per address."""
    return (cfg.num_addresses + cfg.header_intervals) * interval_duration(cfg)


def _parse_curve(raw: Any, field_name: str) -> tuple[tuple[Fraction, Fraction], ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(field_name, "expected a non-empty list of [ratio, multiplier] pairs")
    knots = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{field_name}[{i}]", "expected a [ratio, multiplier] pair")
        knots.append(tuple(_ratio(item, f"{field_name}[{i}]") for item in pair))
    return tuple(knots)


def _parse_cell_overrides(raw: Any) -> dict[str, dict[str, Any]]:
    if not isinstance(raw, dict):
        raise ConfigError("cells", "expected an object of per-cell overrides")
    out: dict[str, dict[str, Any]] = {}
    for name, overrides in raw.items():
        if not isinstance(overrides, dict):
            raise ConfigError(f"cells.{name}", "expected an object of parameter overrides")
        entry: dict[str, Any] = {}
        for key, value in overrides.items():
            qualified = f"cells.{name}.{key}"
            if key not in CELL_OVERRIDE_KEYS:
                raise ConfigError(qualified, f"unknown parameter (valid: {', '.join(CELL_OVERRIDE_KEYS)})")
            if key in ("prop_delay", "prop_delay_out1", "setup", "hold", "min_separation"):
                entry[key] = parse_duration(value, qualified)
            elif key == "bias_curve":
                entry[key] = _parse_curve(value, qualified)
            else:  # operating_range
                if not isinstance(value, list) or len(value) != 2:
                    raise ConfigError(qualified, "expected [low, high] bias ratios")
                entry[key] = tuple(_ratio(item, qualified) for item in value)
        out[name] = entry
    return out


def _integer(doc: dict[str, Any], key: str) -> int:
    value = doc[key]
    if type(value) is not int:  # JSON true/false decode to bool, an int subclass
        raise ConfigError(key, "expected an integer")
    return value


def parse_config(text: str) -> SimConfig:
    """Parse and validate a JSON configuration document.

    Missing optional fields take the documented defaults; every error
    names the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")

    known = {
        "frequency", "num_addresses", "bias", "header_intervals", "phase_read", "phase_write", "phase_data",
        "loop_delay", "retiming_guard", "loop_jitter", "cells", "max_events", "search_ceiling",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown configuration field")

    for key in ("frequency", "num_addresses"):
        if key not in doc:
            raise ConfigError(key, "required field is missing")
    kwargs: dict[str, Any] = {
        "frequency_hz": parse_frequency(doc["frequency"], "frequency"),
        "num_addresses": _integer(doc, "num_addresses"),
    }
    if "bias" in doc:
        try:
            kwargs["bias"] = BiasPoint(_ratio(doc["bias"], "bias", "bias ratio"))
        except ValueError:
            raise ConfigError("bias", f"invalid bias ratio {doc['bias']!r}") from None
    if "header_intervals" in doc:
        kwargs["header_intervals"] = _integer(doc, "header_intervals")
    for phase_key in ("phase_read", "phase_write", "phase_data"):
        if phase_key in doc:
            kwargs[phase_key] = _ratio(doc[phase_key], phase_key)
    if "loop_delay" in doc and doc["loop_delay"] is not None:
        kwargs["loop_delay_fs"] = parse_duration(doc["loop_delay"], "loop_delay")
    if "retiming_guard" in doc:
        kwargs["retiming_guard_fs"] = parse_duration(doc["retiming_guard"], "retiming_guard")
    if "loop_jitter" in doc:
        raw = doc["loop_jitter"]
        if not isinstance(raw, list):
            raise ConfigError("loop_jitter", "expected a list of per-trip offsets")
        kwargs["loop_jitter_fs"] = tuple(
            parse_duration(item, f"loop_jitter[{i}]", allow_negative=True) for i, item in enumerate(raw)
        )
    if "cells" in doc:
        kwargs["cell_overrides"] = _parse_cell_overrides(doc["cells"])
    if "max_events" in doc:
        kwargs["max_events"] = _integer(doc, "max_events")
    if "search_ceiling" in doc:
        kwargs["search_ceiling_hz"] = parse_frequency(doc["search_ceiling"], "search_ceiling")

    return SimConfig(**kwargs)


def _override_to_json(key: str, value: Any) -> Any:
    if key == "bias_curve":
        return [list(map(_ratio_to_json, knot)) for knot in value]
    return list(map(_ratio_to_json, value)) if key == "operating_range" else value


def serialize_config(cfg: SimConfig) -> str:
    """Serialize a config to JSON such that parse_config round-trips it."""
    doc: dict[str, Any] = {
        "frequency": cfg.frequency_hz,
        "num_addresses": cfg.num_addresses,
        "bias": _ratio_to_json(cfg.bias.ratio),
        "header_intervals": cfg.header_intervals,
        "phase_read": _ratio_to_json(cfg.phase_read),
        "phase_write": _ratio_to_json(cfg.phase_write),
        "phase_data": _ratio_to_json(cfg.phase_data),
        "loop_delay": cfg.loop_delay_fs,
        "retiming_guard": cfg.retiming_guard_fs,
        "loop_jitter": list(cfg.loop_jitter_fs),
        "max_events": cfg.max_events,
        "search_ceiling": cfg.search_ceiling_hz,
    }
    if cfg.cell_overrides:
        doc["cells"] = {
            name: {key: _override_to_json(key, value) for key, value in overrides.items()}
            for name, overrides in cfg.cell_overrides.items()
        }
    return json.dumps(doc, indent=2, sort_keys=True)
