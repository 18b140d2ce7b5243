"""Pulse-level behavioral models of the controller's cells.

Each cell is a tiny state machine over timestamped SFQ pulses, which the
event kernel (``engine.run_until``) applies inline, one transition per
arrival:

* store (DRO/DRO2R data) — the storage loop takes the flux quantum (data on
  a full cell is absorbed: a loop holds at most one); data within the hold
  window after a clock records HOLD.
* release (DRO/DRO2R clock) — a full cell releases on that clock's output
  and empties; an empty one releases nothing.  A DRO2R's two clock/output
  pairs share one loop, so whichever clock arrives first claims the pulse.
  A clock within the setup window after data records SETUP.
* merge (MERGER) — a pulse on either input is forwarded; pulses on opposite
  inputs closer than the minimum separation record an ELECTRICAL collision
  (both are still forwarded).
* pass (FANOUT) — an ideal passive splitter: one pulse on each output.

Propagation delays depend on the bias supply through a piecewise-linear,
strictly decreasing delay-vs-bias curve.  Violations are recorded (they
mark a run as failed) but never halt processing, so margin sweeps can
classify the failure kind.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache

from .core import (
    CELLS, NOMINAL_BIAS, CellKind, ConfigError, FluxloopError, _freeze, format_ratio,
    normalize_cell_overrides, round_half_up, validated_record,
)

#: Default delay-vs-bias curve, as multipliers of the nominal delay.  The
#: shape is convex and strictly decreasing (cells slow down when starved of
#: bias); the knots double as the calibration fixture for the margin search.
DEFAULT_BIAS_CURVE: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction("0.76"), Fraction("1.39")),
    (Fraction("0.86"), Fraction("1.21")),
    (Fraction("1.00"), Fraction("1.00")),
    (Fraction("1.14"), Fraction("0.79")),
    (Fraction("1.24"), Fraction("0.59")),
)

DEFAULT_OPERATING_RANGE: tuple[Fraction, Fraction] = (Fraction("0.76"), Fraction("1.24"))


#: Each cell kind's input and output ports: the one definition that netlists
#: are validated against and the engine resolves arrivals against.  A
#: storage kind lists ``data`` first, then its clocks, whose releases leave
#: on the outputs in the same order (``RELEASES``).
INPUT_PORTS: dict[CellKind, tuple[str, ...]] = {
    CellKind.DRO: ("data", "clock"),
    CellKind.DRO2R: ("data", "clock0", "clock1"),
    CellKind.MERGER: ("in0", "in1"),
    CellKind.FANOUT: ("in",),
}

OUTPUT_PORTS: dict[CellKind, tuple[str, ...]] = {
    CellKind.DRO: ("out",),
    CellKind.DRO2R: ("out0", "out1"),
    CellKind.MERGER: ("out",),
    CellKind.FANOUT: ("out_a", "out_b"),
}

#: The outputs a pulse into each input port releases on, per kind: a storage
#: kind's data none and each clock its own output, a passive cell every output.
RELEASES: dict[CellKind, dict[str, tuple[str, ...]]] = {
    kind: dict(zip(ins, [()] + [(out,) for out in OUTPUT_PORTS[kind]])) if ins[0] == "data"
    else dict.fromkeys(ins, OUTPUT_PORTS[kind])
    for kind, ins in INPUT_PORTS.items()
}


class ViolationKind(enum.Enum):
    SETUP = "SETUP"
    HOLD = "HOLD"
    ELECTRICAL = "ELECTRICAL"


class BiasRangeError(FluxloopError):
    """Bias ratio lies outside a cell's electrical operating range."""


class TimingViolation(namedtuple("TimingViolation", "cell kind time_fs detail")):
    __slots__ = ()


class BiasDelayModel(validated_record("BiasDelayModel", "points range_lo range_hi")):
    """Piecewise-linear delay vs bias over an electrical operating range.

    ``points`` are (bias ratio, delay fs) knots, strictly increasing in
    ratio and strictly decreasing in delay.  The knots must span the
    operating range ``[range_lo, range_hi]``, and the delay at ``range_hi``
    (the least in range) must be non-negative.
    """

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[Fraction, int], ...], range_lo: Fraction, range_hi: Fraction) -> "BiasDelayModel":
        if len(points) < 2:
            raise ValueError("delay model needs at least two knots")
        ratios = [r for r, _ in points]
        delays = [d for _, d in points]
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            raise ValueError("knot ratios must be strictly increasing")
        if any(b >= a for a, b in zip(delays, delays[1:])):
            raise ValueError("knot delays must be strictly decreasing")
        if not (range_lo < 1 < range_hi):
            raise ValueError("operating range must bracket the nominal ratio 1.0")
        if ratios[0] > range_lo or ratios[-1] < range_hi:
            raise ValueError("knots must span the operating range")
        model = tuple.__new__(cls, (points, range_lo, range_hi))
        if (least := delay_at_bias(model, range_hi)) < 0:  # delays fall with bias: the least in range
            raise ValueError(f"delay at the range's high edge {format_ratio(range_hi)} is {least} fs; it must be non-negative")
        return model

    @classmethod
    def scaled(
        cls,
        nominal_fs: int,
        curve: Iterable[tuple[Fraction, Fraction]] = DEFAULT_BIAS_CURVE,
        operating_range: tuple[Fraction, Fraction] = DEFAULT_OPERATING_RANGE,
    ) -> "BiasDelayModel":
        """Build an absolute model from a nominal delay and a multiplier curve."""
        points = tuple((ratio, round_half_up(nominal_fs * mult)) for ratio, mult in curve)
        return cls(points=points, range_lo=operating_range[0], range_hi=operating_range[1])


def delay_at_bias(model: BiasDelayModel, bias: Fraction) -> int:
    """Propagation delay (fs) at a bias (an exact ratio of nominal): exact at
    knots, linear between them, rounded half up once.  The only code that
    evaluates a model.

    Raises ``BiasRangeError`` outside the electrical operating range.
    """
    # In integers over each ratio's numerator and denominator (> 0), the range
    # check included; the knots span the range, so some segment ends at or above the bias.
    p, q = bias.as_integer_ratio()
    lo, lo_den = model.range_lo.as_integer_ratio()
    hi, hi_den = model.range_hi.as_integer_ratio()
    if not (lo * q <= p * lo_den and p * hi_den <= hi * q):
        raise BiasRangeError(
            f"bias {format_ratio(bias)} outside operating range "
            f"[{format_ratio(model.range_lo)}, {format_ratio(model.range_hi)}]"
        )
    for (r0, d0), (r1, d1) in zip(model.points, model.points[1:]):
        a1, b1 = r1.as_integer_ratio()
        if p * b1 <= a1 * q:
            a0, b0 = r0.as_integer_ratio()
            # d0 + (d1 - d0) * (bias - r0) / (r1 - r0) as d0 + num / den, den > 0
            num = (d1 - d0) * (p * b0 - a0 * q) * b1
            den = q * (a1 * b0 - a0 * b1)
            return d0 + (2 * num + den) // (2 * den)


class CellParams(validated_record("CellParams", "kind prop_delay_fs setup_fs hold_fs delay_model min_separation_fs")):
    """Static parameters of one cell instance: its nominal delay, used on every
    output, and the bias model it follows.  A run reads each cell pinned at
    one bias (:meth:`at_bias`)."""

    __slots__ = ()

    def __new__(
        cls, kind: CellKind, prop_delay_fs: int = 0, setup_fs: int = 0, hold_fs: int = 0,
        delay_model: BiasDelayModel | None = None, min_separation_fs: int = 0,
    ) -> "CellParams":
        if setup_fs < 0 or hold_fs < 0:
            raise ValueError("setup and hold times must be non-negative")
        if prop_delay_fs < 0:
            raise ValueError("propagation delay must be non-negative")
        if min_separation_fs < 0:
            raise ValueError("minimum separation must be non-negative")
        if delay_model is not None:
            nominal = delay_at_bias(delay_model, NOMINAL_BIAS)
            if nominal != prop_delay_fs:
                raise ValueError(
                    f"nominal delay {prop_delay_fs} fs disagrees with the delay model at bias 1.0 ({nominal} fs)"
                )
        return tuple.__new__(cls, (kind, prop_delay_fs, setup_fs, hold_fs, delay_model, min_separation_fs))

    def operating_range(self) -> tuple[Fraction, Fraction] | None:
        """The delay model's electrical range, if the cell has a model."""
        model = self.delay_model
        return None if model is None else (model.range_lo, model.range_hi)

    def at_bias(self, bias: Fraction) -> CellParams:
        """This cell at ``bias``, a positive ratio: a constant-delay cell (no delay
        model) with its delay there, and setup, hold and minimum separation kept;
        the cell itself when it has no model.  The one way to read a cell's
        delay; a bias outside the model's range raises ``BiasRangeError``."""
        if self.delay_model is None:
            return self
        # checked fields, and a delay the model keeps non-negative: no second check
        fields = (self.kind, delay_at_bias(self.delay_model, bias), self.setup_fs, self.hold_fs, None, self.min_separation_fs)
        return tuple.__new__(CellParams, fields)


# --- default cell set ------------------------------------------------------

def default_cell_params(cell_overrides: Mapping[str, Mapping[str, object]] | None = None) -> dict[str, CellParams]:
    """The controller's cells (``core.CELLS``) with per-instance overrides
    applied, checked and normalized as a ``SimConfig``'s are.

    The cell set is built once per distinct overrides value (equal overrides
    held in distinct objects share one entry of a bounded cache).  Each call
    returns a new dict, so callers may add or replace entries freely; the
    frozen ``CellParams`` inside are shared between calls.
    """
    return dict(_cell_set(_freeze(normalize_cell_overrides(cell_overrides or {}))))


@lru_cache(maxsize=64)
def _cell_set(frozen_overrides: tuple) -> dict[str, CellParams]:
    """The cell set of one normalized overrides value; a delay model the
    overrides make invalid raises ``ConfigError`` naming the override at fault."""
    cell_overrides = dict(frozen_overrides)
    out: dict[str, CellParams] = {}
    for name, (kind, nominal) in CELLS.items():
        o = dict(cell_overrides.get(name, ()))
        fs = {f"{key}_fs": o.get(key, value) for key, value in nominal.items()}
        prop = fs["prop_delay_fs"]
        try:
            # a zero nominal cannot carry a strictly-decreasing curve; such
            # degenerate cells get a constant (bias-independent) delay instead
            model = BiasDelayModel.scaled(
                prop, o.get("bias_curve", DEFAULT_BIAS_CURVE), o.get("operating_range", DEFAULT_OPERATING_RANGE)
            ) if prop > 0 else None
            out[name] = CellParams(kind, delay_model=model, **fs)
        except ValueError as exc:
            raise ConfigError(f"cells.{name}.{_blamed_override(o)}", str(exc)) from None
    return out


#: Overrides a refused cell may be blamed on, most likely culprit first: the
#: curve (its shape, 1.0 knot or span), the range the default curve must
#: span, and a nominal delay too short to keep the scaled knots apart.  (A
#: negative duration never gets here: ``normalize_cell_overrides`` refuses it.)
_BLAME_ORDER = ("bias_curve", "operating_range", "prop_delay")


def _blamed_override(overrides: Mapping[str, object]) -> str:
    lo, hi = overrides.get("operating_range", DEFAULT_OPERATING_RANGE)
    if not lo < 1 < hi:
        return "operating_range"  # at fault whatever else is given
    return next(key for key in _BLAME_ORDER if key in overrides)
