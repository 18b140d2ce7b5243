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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping

from .core import BiasPoint, ConfigError, FluxloopError, _freeze, format_ratio, round_half_up

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


@dataclass(frozen=True)
class TimingViolation:
    cell: str
    kind: ViolationKind
    time_fs: int
    detail: str


@dataclass(frozen=True)
class BiasDelayModel:
    """Piecewise-linear delay vs bias over an electrical operating range.

    ``points`` are (bias ratio, delay fs) knots, strictly increasing in
    ratio and strictly decreasing in delay.  The knots must span the
    operating range ``[range_lo, range_hi]``.
    """

    points: tuple[tuple[Fraction, int], ...]
    range_lo: Fraction
    range_hi: Fraction

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("delay model needs at least two knots")
        ratios = [r for r, _ in self.points]
        delays = [d for _, d in self.points]
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            raise ValueError("knot ratios must be strictly increasing")
        if any(b >= a for a, b in zip(delays, delays[1:])):
            raise ValueError("knot delays must be strictly decreasing")
        if not (self.range_lo < 1 < self.range_hi):
            raise ValueError("operating range must bracket the nominal ratio 1.0")
        if ratios[0] > self.range_lo or ratios[-1] < self.range_hi:
            raise ValueError("knots must span the operating range")

    # Every delay lookup hashes its model to key the interpolation cache;
    # hash the Fraction knots once per model, not once per lookup.
    @cached_property
    def _hash(self) -> int:
        return hash((self.points, self.range_lo, self.range_hi))

    def __hash__(self) -> int:
        return self._hash

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


# Sized above a margin sweep's working set: at most 101 bias ratios on each
# of the three delay models of the default cell set.  The range check is
# cached with the delay (an out-of-range call raises and caches nothing).
@lru_cache(maxsize=512)
def _interpolate(model: BiasDelayModel, ratio: Fraction) -> int:
    if not (model.range_lo <= ratio <= model.range_hi):
        raise BiasRangeError(
            f"bias {format_ratio(ratio)} outside operating range "
            f"[{format_ratio(model.range_lo)}, {format_ratio(model.range_hi)}]"
        )
    points = model.points
    if ratio <= points[0][0]:
        return points[0][1]
    for (r0, d0), (r1, d1) in zip(points, points[1:]):
        if ratio <= r1:
            # exact rational interpolation; round once at the end
            exact = d0 + (d1 - d0) * (ratio - r0) / (r1 - r0)
            return round_half_up(exact)
    return points[-1][1]


def delay_at_bias(model: BiasDelayModel, bias: BiasPoint) -> int:
    """Propagation delay (fs) at a bias point; exact at knots.

    Raises ``BiasRangeError`` outside the electrical operating range.
    """
    return _interpolate(model, bias.ratio)


@dataclass(frozen=True)
class CellParams:
    """Static parameters of one cell instance."""

    kind: CellKind
    prop_delay_fs: int = 0
    setup_fs: int = 0
    hold_fs: int = 0
    delay_model: BiasDelayModel | None = None
    prop_delay_out1_fs: int | None = None
    delay_model_out1: BiasDelayModel | None = None
    min_separation_fs: int = 0

    def __post_init__(self) -> None:
        if self.setup_fs < 0 or self.hold_fs < 0:
            raise ValueError("setup and hold times must be non-negative")
        if self.prop_delay_fs < 0:
            raise ValueError("propagation delay must be non-negative")
        if self.delay_model is not None:
            nominal = _interpolate(self.delay_model, Fraction(1))
            if nominal != self.prop_delay_fs:
                raise ValueError(
                    f"nominal delay {self.prop_delay_fs} fs disagrees with the "
                    f"delay model at bias 1.0 ({nominal} fs)"
                )
        if self.delay_model_out1 is not None and self.prop_delay_out1_fs is not None:
            nominal1 = _interpolate(self.delay_model_out1, Fraction(1))
            if nominal1 != self.prop_delay_out1_fs:
                raise ValueError("out1 nominal delay disagrees with its delay model at bias 1.0")

    def delay(self, bias: BiasPoint) -> int:
        if self.delay_model is None:
            return self.prop_delay_fs
        return delay_at_bias(self.delay_model, bias)

    def delay_out1(self, bias: BiasPoint) -> int:
        if self.delay_model_out1 is None:
            return self.prop_delay_out1_fs if self.prop_delay_out1_fs is not None else self.delay(bias)
        return delay_at_bias(self.delay_model_out1, bias)

    def operating_range(self) -> tuple[Fraction, Fraction] | None:
        """Intersection of the electrical ranges of all delay models, if any."""
        return self._operating_range

    # Every clamp and window check reads the range; intersect it once.
    @cached_property
    def _operating_range(self) -> tuple[Fraction, Fraction] | None:
        ranges = [
            (model.range_lo, model.range_hi)
            for model in (self.delay_model, self.delay_model_out1)
            if model is not None
        ]
        if not ranges:
            return None
        return (max(lo for lo, _ in ranges), min(hi for _, hi in ranges))

    def clamped_bias(self, bias: BiasPoint) -> BiasPoint:
        """The bias this cell actually operates at (range edges saturate)."""
        rng = self._operating_range
        if rng is None or rng[0] <= bias.ratio <= rng[1]:
            return bias
        return BiasPoint(rng[0] if bias.ratio < rng[0] else rng[1])

    def at_bias(self, bias: BiasPoint) -> "CellParams":
        """A copy with the delays of ``bias`` (which must be in range) as
        constants; setup, hold and minimum separation are kept."""
        return replace(
            self,
            prop_delay_fs=self.delay(bias),
            delay_model=None,
            prop_delay_out1_fs=self.delay_out1(bias),
            delay_model_out1=None,
        )


@dataclass(slots=True)
class CellState:
    """Mutable per-run state of one cell."""

    stored: bool = False
    last_data_fs: int | None = None
    last_clock_fs: int | None = None
    # merger bookkeeping: last arrival per input port
    last_in_fs: dict[str, int] = field(default_factory=dict)


#: What a stepper returns: (emissions as (output port, time), violations).
#: Both are tuples, and an empty one is the shared ``()``.
Step = tuple[tuple[tuple[str, int], ...], tuple[TimingViolation, ...]]


def storage_step(cell: str, params: CellParams, state: CellState, port: str, t: int) -> Step:
    """Advance a storage cell (DRO or DRO2R) by one input pulse.

    Data on an empty cell stores; data on a full cell is ignored (a storage
    loop holds at most one flux quantum).  A clock on a full cell releases
    the stored pulse on that clock's output after its propagation delay; a
    clock on an empty cell is a no-op.  A DRO2R's two clock/output pairs
    share one loop, so whichever clock arrives first claims the pulse.
    Data within the hold window after a clock records HOLD; a clock within
    the setup window after data records SETUP.

    Like every stepper, it reads the constant delays of ``params``
    (``prop_delay_fs``, ``prop_delay_out1_fs``): pin a bias-dependent cell
    with ``CellParams.at_bias`` first, as the engine does.
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
    _, out, delay = release
    last = state.last_data_fs
    violations = ()
    if last is not None and 0 <= t - last < params.setup_fs:
        detail = f"{port} {t - last} fs after data (setup {params.setup_fs} fs)"
        violations = (TimingViolation(cell, ViolationKind.SETUP, t, detail),)
    state.last_clock_fs = t
    if state.stored:
        state.stored = False
        return ((out, t + delay(params)),), violations
    return (), violations


def merger_step(cell: str, params: CellParams, state: CellState, port: str, t: int) -> Step:
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


def fanout_step(cell: str, params: CellParams, state: CellState, port: str, t: int) -> Step:
    """Ideal passive fan-out: one input pulse, one pulse on each output."""
    if port != _FANOUT_INPUT:
        raise ValueError(f"fanout has no port {port!r}")
    t_out = t + params.prop_delay_fs
    return (("out_a", t_out), ("out_b", t_out)), ()


def _out1_delay(params: CellParams) -> int:
    out1 = params.prop_delay_out1_fs
    return params.prop_delay_fs if out1 is None else out1


# Per-pulse port lookups, resolved from the tables once (a CellKind key
# costs a Python-level hash).  Storage clock -> (kind, output, delay getter);
# clock names differ between the storage kinds.
_RELEASES = {
    clock: (kind, out, _out1_delay if i else attrgetter("prop_delay_fs"))
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


def step_cell(cell: str, params: CellParams, state: CellState, port: str, t: int) -> Step:
    """Dispatch one input pulse to the right behavioral step function."""
    return stepper_for(params.kind)(cell, params, state, port, t)


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
