"""Pulse-level behavioral models of the controller's cells.

Each cell is a tiny state machine over timestamped SFQ pulses:

* DRO   — stores one flux quantum until a clock pulse releases it.
* DRO2R — a DRO with two clock/output port pairs sharing one storage loop.
* MERGER — forwards pulses from either input to its single output.
* FANOUT — ideal passive one-to-two splitter.

Propagation delays depend on the bias supply through a piecewise-linear,
strictly decreasing delay-vs-bias curve.  Setup/hold windows are checked on
every arrival; violations are recorded (they mark a run as failed) but never
halt processing, so margin sweeps can classify the failure kind.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .core import (
    CELLS, NOMINAL_BIAS, BiasPoint, CellKind, ConfigError, FluxloopError, _freeze, format_ratio,
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
#: are validated against and the steppers check arrivals against.  A
#: storage kind lists ``data`` first, then its clocks, whose releases leave
#: on the outputs in the same order.
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


class ViolationKind(enum.Enum):
    SETUP = "SETUP"
    HOLD = "HOLD"
    ELECTRICAL = "ELECTRICAL"


class BiasRangeError(FluxloopError):
    """Bias ratio lies outside a cell's electrical operating range."""


class TimingViolation(NamedTuple):
    cell: str
    kind: ViolationKind
    time_fs: int
    detail: str


class BiasDelayModel(validated_record("BiasDelayModel", "points range_lo range_hi")):
    """Piecewise-linear delay vs bias over an electrical operating range.

    ``points`` are (bias ratio, delay fs) knots, strictly increasing in
    ratio and strictly decreasing in delay.  The knots must span the
    operating range ``[range_lo, range_hi]``.
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
        return tuple.__new__(cls, (points, range_lo, range_hi))

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


def delay_at_bias(model: BiasDelayModel, bias: BiasPoint) -> int:
    """Propagation delay (fs) at a bias point: exact at knots, linear between
    them, rounded half up once.  The only code that evaluates a model.

    Raises ``BiasRangeError`` outside the electrical operating range.
    """
    ratio = bias.ratio
    if not (model.range_lo <= ratio <= model.range_hi):
        raise BiasRangeError(
            f"bias {format_ratio(ratio)} outside operating range "
            f"[{format_ratio(model.range_lo)}, {format_ratio(model.range_hi)}]"
        )
    # In integers over each knot's numerator and denominator: the knots span
    # the range, so some segment ends at or above the ratio.
    p, q = ratio.as_integer_ratio()
    for (r0, d0), (r1, d1) in zip(model.points, model.points[1:]):
        a1, b1 = r1.as_integer_ratio()
        if p * b1 <= a1 * q:
            a0, b0 = r0.as_integer_ratio()
            # d0 + (d1 - d0) * (ratio - r0) / (r1 - r0) as d0 + num / den, den > 0
            num = (d1 - d0) * (p * b0 - a0 * q) * b1
            den = q * (a1 * b0 - a0 * b1)
            return d0 + (2 * num + den) // (2 * den)


class CellParams(validated_record("CellParams", "kind prop_delay_fs setup_fs hold_fs delay_model min_separation_fs")):
    """Static parameters of one cell instance: its nominal delay, used on every
    output, and the bias model it follows.  Steppers read a cell pinned at one
    bias (:meth:`at_bias`), never these."""

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

    def at_bias(self, bias: BiasPoint) -> "PinnedCell":
        """This cell at ``bias``: its delay there as a constant, with setup,
        hold and minimum separation kept.  The one way to read a cell's
        delay; a bias outside the model's range raises ``BiasRangeError``."""
        delay = self.prop_delay_fs if self.delay_model is None else delay_at_bias(self.delay_model, bias)
        return PinnedCell(self.kind, delay, self.setup_fs, self.hold_fs, self.min_separation_fs)


class PinnedCell:
    """One cell at one bias: the constants a stepper reads on every pulse, as
    slot reads (faster than namedtuple getters)."""

    __slots__ = ("kind", "prop_delay_fs", "setup_fs", "hold_fs", "min_separation_fs")

    def __init__(self, kind: CellKind, prop_delay_fs: int, setup_fs: int, hold_fs: int, min_separation_fs: int) -> None:
        self.kind = kind
        self.prop_delay_fs = prop_delay_fs
        self.setup_fs = setup_fs
        self.hold_fs = hold_fs
        self.min_separation_fs = min_separation_fs


class CellState:
    """Mutable per-run state of one cell."""

    __slots__ = ("stored", "last_data_fs", "last_clock_fs", "last_in_fs")

    def __init__(self, stored: bool = False, last_data_fs: int | None = None, last_clock_fs: int | None = None) -> None:
        self.stored = stored
        self.last_data_fs = last_data_fs
        self.last_clock_fs = last_clock_fs
        #: merger bookkeeping: last arrival per input port
        self.last_in_fs: dict[str, int] = {}


#: What a stepper returns: (emissions as (output port, time), violations).
#: Both are tuples, and an empty one is the shared ``()``.
Step = tuple[tuple[tuple[str, int], ...], tuple[TimingViolation, ...]]


def storage_step(cell: str, params: PinnedCell, state: CellState, port: str, t: int) -> Step:
    """Advance a storage cell (DRO or DRO2R) by one input pulse.

    Data on an empty cell stores; data on a full cell is ignored (a storage
    loop holds at most one flux quantum).  A clock on a full cell releases
    the stored pulse on that clock's output after the cell's one propagation
    delay; a clock on an empty cell is a no-op.  A DRO2R's two clock/output
    pairs share one loop, so whichever clock arrives first claims the pulse.
    Data within the hold window after a clock records HOLD; a clock within
    the setup window after data records SETUP.

    Like every stepper, it takes a cell pinned at the run's bias
    (``CellParams.at_bias``), as the engine passes it.
    """
    if port == "data":
        last = state.last_clock_fs
        state.stored = True
        state.last_data_fs = t
        if last is not None and 0 <= t - last < params.hold_fs:
            detail = f"data {t - last} fs after clock (hold {params.hold_fs} fs)"
            return (), (TimingViolation(cell, ViolationKind.HOLD, t, detail),)
        return (), ()
    kind, out = _RELEASES.get(port, (None, None))
    if kind is not params.kind:
        raise ValueError(f"{params.kind.value} has no port {port!r}")
    last = state.last_data_fs
    violations = ()
    if last is not None and 0 <= t - last < params.setup_fs:
        detail = f"{port} {t - last} fs after data (setup {params.setup_fs} fs)"
        violations = (TimingViolation(cell, ViolationKind.SETUP, t, detail),)
    state.last_clock_fs = t
    if state.stored:
        state.stored = False
        return ((out, t + params.prop_delay_fs),), violations
    return (), violations


def merger_step(cell: str, params: PinnedCell, state: CellState, port: str, t: int) -> Step:
    """Forward a pulse from either merger input to the output.

    Pulses on opposite inputs closer than the minimum separation record an
    ELECTRICAL collision (both pulses are still forwarded).
    """
    other = _MERGER_PEERS.get(port)
    if other is None:
        raise ValueError(f"merger has no port {port!r}")
    last = state.last_in_fs.get(other)
    state.last_in_fs[port] = t
    emitted = (("out", t + params.prop_delay_fs),)
    if last is not None and 0 <= t - last < params.min_separation_fs:
        detail = f"inputs {t - last} fs apart (min separation {params.min_separation_fs} fs)"
        return emitted, (TimingViolation(cell, ViolationKind.ELECTRICAL, t, detail),)
    return emitted, ()


def fanout_step(cell: str, params: PinnedCell, state: CellState, port: str, t: int) -> Step:
    """Ideal passive fan-out: one input pulse, one pulse on each output."""
    if port != _FANOUT_INPUT:
        raise ValueError(f"fanout has no port {port!r}")
    t_out = t + params.prop_delay_fs
    return (("out_a", t_out), ("out_b", t_out)), ()


# Per-pulse port lookups, resolved from the tables once (a CellKind key
# costs a Python-level hash).  Storage clock -> (kind, output); clock names
# differ between the storage kinds.
_RELEASES = {
    clock: (kind, out)
    for kind in (CellKind.DRO, CellKind.DRO2R)
    for clock, out in zip(INPUT_PORTS[kind][1:], OUTPUT_PORTS[kind])
}
_MERGER_PEERS = dict(zip(INPUT_PORTS[CellKind.MERGER], reversed(INPUT_PORTS[CellKind.MERGER])))
(_FANOUT_INPUT,) = INPUT_PORTS[CellKind.FANOUT]

_STEPPERS = {
    CellKind.DRO: storage_step,
    CellKind.DRO2R: storage_step,
    CellKind.MERGER: merger_step,
    CellKind.FANOUT: fanout_step,
}


def stepper_for(kind: CellKind) -> Callable[..., Step]:
    """The behavioral step function of a cell kind."""
    try:
        return _STEPPERS[kind]
    except KeyError:
        raise ValueError(f"cell kind {kind} does not process pulses") from None


# --- default cell set ------------------------------------------------------

def default_cell_params(cell_overrides: Mapping[str, Mapping[str, Any]] | None = None) -> dict[str, CellParams]:
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


def _blamed_override(overrides: Mapping[str, Any]) -> str:
    lo, hi = overrides.get("operating_range", DEFAULT_OPERATING_RANGE)
    if not lo < 1 < hi:
        return "operating_range"  # at fault whatever else is given
    return next(key for key in _BLAME_ORDER if key in overrides)
