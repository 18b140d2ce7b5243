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
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .core import (
    NOMINAL_BIAS, BiasPoint, ConfigError, FluxloopError, _freeze, format_ratio, round_half_up, validated_record,
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

DEFAULT_MERGER_MIN_SEPARATION_FS = 2000


class CellKind(enum.Enum):
    DRO = "DRO"
    DRO2R = "DRO2R"
    MERGER = "MERGER"
    FANOUT = "FANOUT"


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


class CellParams(validated_record(
    "CellParams", "kind prop_delay_fs setup_fs hold_fs delay_model prop_delay_out1_fs delay_model_out1 min_separation_fs",
)):
    """Static parameters of one cell instance: nominal delays and the bias
    models they follow.  Steppers read a cell pinned at one bias
    (:meth:`at_bias`), never these."""

    # no __slots__: the instance dict holds the cached operating range

    def __new__(
        cls, kind: CellKind, prop_delay_fs: int = 0, setup_fs: int = 0, hold_fs: int = 0,
        delay_model: BiasDelayModel | None = None, prop_delay_out1_fs: int | None = None,
        delay_model_out1: BiasDelayModel | None = None, min_separation_fs: int = 0,
    ) -> "CellParams":
        if setup_fs < 0 or hold_fs < 0:
            raise ValueError("setup and hold times must be non-negative")
        if prop_delay_fs < 0 or (prop_delay_out1_fs or 0) < 0:
            raise ValueError("propagation delay must be non-negative")
        if delay_model is not None:
            nominal = delay_at_bias(delay_model, NOMINAL_BIAS)
            if nominal != prop_delay_fs:
                raise ValueError(
                    f"nominal delay {prop_delay_fs} fs disagrees with the delay model at bias 1.0 ({nominal} fs)"
                )
        if delay_model_out1 is not None and prop_delay_out1_fs is not None:
            nominal1 = delay_at_bias(delay_model_out1, NOMINAL_BIAS)
            if nominal1 != prop_delay_out1_fs:
                raise ValueError("out1 nominal delay disagrees with its delay model at bias 1.0")
        return tuple.__new__(cls, (
            kind, prop_delay_fs, setup_fs, hold_fs, delay_model, prop_delay_out1_fs, delay_model_out1, min_separation_fs,
        ))

    def operating_range(self) -> tuple[Fraction, Fraction] | None:
        """Intersection of the electrical ranges of all delay models, if any."""
        return self._operating_range

    # Every clamp and window check reads the range; intersect it once.
    @cached_property
    def _operating_range(self) -> tuple[Fraction, Fraction] | None:
        models = [model for model in (self.delay_model, self.delay_model_out1) if model is not None]
        if not models:
            return None
        return (max(model.range_lo for model in models), min(model.range_hi for model in models))

    def at_bias(self, bias: BiasPoint) -> "PinnedCell":
        """This cell at ``bias``: its delays there as constants, with setup,
        hold and minimum separation kept.  The one way to read a cell's
        delays; a bias outside a model's range raises ``BiasRangeError``."""
        delay = self.prop_delay_fs if self.delay_model is None else delay_at_bias(self.delay_model, bias)
        if self.delay_model_out1 is not None:
            delay1 = delay_at_bias(self.delay_model_out1, bias)
        else:
            delay1 = delay if self.prop_delay_out1_fs is None else self.prop_delay_out1_fs
        return PinnedCell(self.kind, delay, delay1, self.setup_fs, self.hold_fs, self.min_separation_fs)


class PinnedCell:
    """One cell at one bias: the constants a stepper reads on every pulse, as
    slot reads (faster than namedtuple getters).  ``prop_delay_out1_fs`` is
    always an int: a second output's own delay, else ``prop_delay_fs``."""

    __slots__ = ("kind", "prop_delay_fs", "prop_delay_out1_fs", "setup_fs", "hold_fs", "min_separation_fs")

    def __init__(
        self, kind: CellKind, prop_delay_fs: int, prop_delay_out1_fs: int, setup_fs: int, hold_fs: int,
        min_separation_fs: int,
    ) -> None:
        self.kind = kind
        self.prop_delay_fs = prop_delay_fs
        self.prop_delay_out1_fs = prop_delay_out1_fs
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
    the stored pulse on that clock's output after its propagation delay; a
    clock on an empty cell is a no-op.  A DRO2R's two clock/output pairs
    share one loop, so whichever clock arrives first claims the pulse.
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
    release = _RELEASES.get(port)
    if release is None or release[0] is not params.kind:
        raise ValueError(f"{params.kind.value} has no port {port!r}")
    _, out, delay_of = release
    last = state.last_data_fs
    violations = ()
    if last is not None and 0 <= t - last < params.setup_fs:
        detail = f"{port} {t - last} fs after data (setup {params.setup_fs} fs)"
        violations = (TimingViolation(cell, ViolationKind.SETUP, t, detail),)
    state.last_clock_fs = t
    if state.stored:
        state.stored = False
        return ((out, t + delay_of(params)),), violations
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
# costs a Python-level hash).  Storage clock -> (kind, output, delay getter);
# clock names differ between the storage kinds.
_RELEASES = {
    clock: (kind, out, attrgetter("prop_delay_out1_fs" if i else "prop_delay_fs"))
    for kind in (CellKind.DRO, CellKind.DRO2R)
    for i, (clock, out) in enumerate(zip(INPUT_PORTS[kind][1:], OUTPUT_PORTS[kind]))
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

def _model(nominal_fs: int, overrides: Mapping[str, Any]) -> BiasDelayModel:
    curve = overrides.get("bias_curve", DEFAULT_BIAS_CURVE)
    operating_range = overrides.get("operating_range", DEFAULT_OPERATING_RANGE)
    return BiasDelayModel.scaled(nominal_fs, curve, operating_range)


#: (kind, nominal prop fs, setup fs, hold fs) per controller cell.  The
#: read cell's setup + prop budget (10 ps) is the documented logic-path
#: figure that pins the design's maximum frequency at 100 GHz.
_DEFAULT_TIMINGS: dict[str, tuple[CellKind, int, int, int]] = {
    "write_dro": (CellKind.DRO, 3000, 2000, 1000),
    "recirc_dro2r": (CellKind.DRO2R, 3000, 3000, 1000),
    "merger": (CellKind.MERGER, 1500, 0, 0),
    "fanout": (CellKind.FANOUT, 500, 0, 0),
    "read_dro2r": (CellKind.DRO2R, 3000, 7000, 1000),
}


def default_cell_params(cell_overrides: Mapping[str, Mapping[str, Any]] | None = None) -> dict[str, CellParams]:
    """The calibrated default cell set, with per-instance overrides applied.

    Overrides use the normalized form produced by config parsing: durations
    in fs, ``bias_curve`` as (ratio, multiplier) knots, ``operating_range``
    as a ratio pair (lists are accepted wherever tuples are).

    The cell set is built once per distinct overrides value (equal overrides
    held in distinct objects share one entry of a bounded cache).  Each call
    returns a new dict, so callers may add or replace entries freely; the
    frozen ``CellParams`` inside are shared between calls.
    """
    return dict(_cell_set(_freeze(cell_overrides or {})))


@lru_cache(maxsize=64)
def _cell_set(frozen_overrides: tuple) -> dict[str, CellParams]:
    """The cell set of one overrides value; a delay model the overrides make
    invalid raises ``ConfigError`` naming the override at fault."""
    cell_overrides = {name: dict(o) for name, o in frozen_overrides}
    out: dict[str, CellParams] = {}
    for name, (kind, nominal, setup, hold) in _DEFAULT_TIMINGS.items():
        o = cell_overrides.get(name, {})
        prop = o.get("prop_delay", nominal)
        # a zero nominal cannot carry a strictly-decreasing curve; such
        # degenerate cells get a constant (bias-independent) delay instead
        params = dict(
            kind=kind,
            prop_delay_fs=prop,
            setup_fs=o.get("setup", setup),
            hold_fs=o.get("hold", hold),
        )
        try:
            params["delay_model"] = _model(prop, o) if prop > 0 else None
            if kind == CellKind.DRO2R:
                prop1 = o.get("prop_delay_out1", o.get("prop_delay", nominal))
                params["prop_delay_out1_fs"] = prop1
                params["delay_model_out1"] = _model(prop1, o) if prop1 > 0 else None
            if kind == CellKind.MERGER:
                params["min_separation_fs"] = o.get("min_separation", DEFAULT_MERGER_MIN_SEPARATION_FS)
            out[name] = CellParams(**params)
        except ValueError as exc:
            raise ConfigError(f"cells.{name}.{_blamed_override(o)}", str(exc)) from None
    return out


#: Overrides a refused cell may be blamed on, most likely culprit first: the
#: curve (its shape, 1.0 knot or span), the range the default curve must
#: span, a nominal delay too short to keep the scaled knots apart, and a
#: negative setup or hold (refused by config parsing, not by a SimConfig).
_BLAME_ORDER = ("bias_curve", "operating_range", "prop_delay", "prop_delay_out1", "setup", "hold")


def _blamed_override(overrides: Mapping[str, Any]) -> str:
    lo, hi = overrides.get("operating_range", DEFAULT_OPERATING_RANGE)
    if not lo < 1 < hi:
        return "operating_range"  # at fault whatever else is given
    return next(key for key in _BLAME_ORDER if key in overrides)
