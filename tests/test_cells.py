"""Behavioral cell models: storage, release, timing checks, bias scaling."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fluxloop import BiasRangeError, ViolationKind, default_cell_params
from fluxloop.cells import (
    DEFAULT_BIAS_CURVE,
    DEFAULT_OPERATING_RANGE,
    INPUT_PORTS,
    OUTPUT_PORTS,
    BiasDelayModel,
    CellKind,
    CellParams,
    CellState,
    PinnedCell,
    RELEASES,
    delay_at_bias,
    fanout_step,
    merger_step,
    release_step,
    stepper_for,
    store_step,
)
from fluxloop.core import BiasPoint
from fluxloop.engine import Netlist

NOM = BiasPoint.nominal()


def bias(value) -> BiasPoint:
    return BiasPoint.of(value)


def pinned_alone(params: CellParams, value) -> tuple[int, int]:
    """The delay ``params`` runs at in a one-cell netlist run at bias
    ``value``, and how many ELECTRICAL violations that pin records."""
    pins = Netlist(cells={"c": params}, connections=(), external_inputs=frozenset(), observed=()).at_bias(bias(value))
    assert all(v.kind == ViolationKind.ELECTRICAL for v in pins.violations)
    return pins.cells["c"].prop_delay_fs, len(pins.violations)


# --- delay model -----------------------------------------------------------


class TestBiasDelayModel:
    MODEL = BiasDelayModel.scaled(3000)

    @pytest.mark.parametrize(
        "ratio, delay",
        [("0.76", 4170), ("0.86", 3630), ("1.00", 3000), ("1.14", 2370), ("1.24", 1770)],
    )
    def test_exact_at_knots(self, ratio, delay):
        assert delay_at_bias(self.MODEL, bias(ratio)) == delay

    @pytest.mark.parametrize(
        "ratio, delay",
        [
            ("0.85", 3684),  # 9/10 of the way up the lowest segment
            ("0.87", 3585),
            ("0.9", 3450),
            ("1.07", 2685),
        ],
    )
    def test_linear_between_knots(self, ratio, delay):
        assert delay_at_bias(self.MODEL, bias(ratio)) == delay

    def test_out_of_range(self):
        with pytest.raises(BiasRangeError, match=r"0.75 outside operating range \[0.76, 1.24\]"):
            delay_at_bias(self.MODEL, bias("0.75"))
        with pytest.raises(BiasRangeError):
            delay_at_bias(self.MODEL, bias("1.25"))

    def test_clamp(self):
        cell = CellParams(kind=CellKind.DRO, prop_delay_fs=3000, delay_model=self.MODEL)
        assert pinned_alone(cell, "0.5") == (4170, 1)  # run at the 0.76 edge
        assert pinned_alone(cell, "1.5") == (1770, 1)  # run at the 1.24 edge
        assert pinned_alone(cell, "0.9") == (cell.at_bias(bias("0.9")).prop_delay_fs, 0)

    @given(
        st.fractions(
            min_value=Fraction("0.76"), max_value=Fraction("1.24"), max_denominator=10**4
        )
    )
    def test_delay_bounded_by_knot_extremes(self, ratio):
        d = delay_at_bias(self.MODEL, BiasPoint(ratio))
        assert 1770 <= d <= 4170

    @given(
        st.fractions(min_value=Fraction("0.76"), max_value=Fraction("1.24"), max_denominator=10**4),
        st.fractions(min_value=Fraction("0.76"), max_value=Fraction("1.24"), max_denominator=10**4),
    )
    def test_delay_monotone_nonincreasing_in_bias(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert delay_at_bias(self.MODEL, BiasPoint(lo)) >= delay_at_bias(self.MODEL, BiasPoint(hi))

    def test_scaled_rejects_bad_curves(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BiasDelayModel.scaled(3000, ((Fraction(1, 2), Fraction(2)), (Fraction(1, 2), Fraction(1, 2))))
        with pytest.raises(ValueError, match="strictly decreasing"):
            BiasDelayModel.scaled(
                3000,
                ((Fraction("0.76"), Fraction(1)), (Fraction("1.24"), Fraction(1))),
            )
        with pytest.raises(ValueError, match="at least two knots"):
            BiasDelayModel(points=((Fraction(1), 100),), range_lo=Fraction("0.76"), range_hi=Fraction("1.24"))
        with pytest.raises(ValueError, match="bracket the nominal"):
            BiasDelayModel(
                points=((Fraction("1.1"), 200), (Fraction("1.3"), 100)),
                range_lo=Fraction("1.1"),
                range_hi=Fraction("1.3"),
            )
        with pytest.raises(ValueError, match="span the operating range"):
            BiasDelayModel(
                points=((Fraction("0.9"), 200), (Fraction("1.1"), 100)),
                range_lo=Fraction("0.76"),
                range_hi=Fraction("1.24"),
            )


def reference_delay(model: BiasDelayModel, ratio: Fraction) -> int:
    """The delay curve in Fractions: the exact interpolant, rounded half up."""
    for (r0, d0), (r1, d1) in zip(model.points, model.points[1:]):
        if ratio <= r1:
            return math.floor(d0 + (d1 - d0) * (ratio - r0) / (r1 - r0) + Fraction(1, 2))
    raise AssertionError("ratio beyond the last knot")


@st.composite
def ratios_in(draw, lo: Fraction, hi: Fraction, open_: bool = False) -> Fraction:
    """A ratio in [lo, hi] (in (lo, hi) if ``open_``) over a drawn denominator
    (a multiple of both edges' denominators, so the range is never empty)."""
    den = 2 * lo.denominator * hi.denominator * draw(st.integers(1, 10**9))
    return Fraction(draw(st.integers(int(lo * den) + open_, int(hi * den) - open_)), den)


def knot_ratios(lo: int, hi: int, size: int) -> st.SearchStrategy:
    between = ratios_in(Fraction(lo), Fraction(hi), open_=True)
    return st.lists(between, min_size=size, max_size=size, unique=True).map(sorted)


@st.composite
def drawn_models(draw) -> BiasDelayModel:
    """2-6 knots with arbitrary denominators, strictly decreasing int delays,
    and an operating range from a knot below 1 to a knot above it."""
    below = draw(knot_ratios(0, 1, draw(st.integers(1, 3))))
    above = draw(knot_ratios(1, 4, draw(st.integers(1, 2))))
    ratios = below + ([Fraction(1)] if draw(st.booleans()) else []) + above
    delays = sorted(draw(st.lists(st.integers(0, 10**7), min_size=len(ratios), max_size=len(ratios), unique=True)))
    return BiasDelayModel(
        points=tuple(zip(ratios, reversed(delays))),
        range_lo=draw(st.sampled_from(below)),
        range_hi=draw(st.sampled_from(above)),
    )


class TestIntegerInterpolation:
    """``delay_at_bias`` works in integers; it must equal the Fraction curve."""

    @given(st.data())
    def test_equals_the_fraction_reference_in_range(self, data):
        model = data.draw(drawn_models())
        lo, hi = model.range_lo, model.range_hi
        ratio = data.draw(st.one_of(
            st.sampled_from([lo, hi] + [r for r, _ in model.points if lo <= r <= hi]),
            ratios_in(lo, hi),
        ))
        assert delay_at_bias(model, BiasPoint(ratio)) == reference_delay(model, ratio)

    @given(st.data())
    def test_half_fs_ties_round_up(self, data):
        model = data.draw(drawn_models())
        inside = [i for i, (r, _) in enumerate(model.points) if model.range_lo <= r <= model.range_hi]
        i = data.draw(st.sampled_from(inside[:-1]))
        (r0, d0), (r1, d1) = model.points[i], model.points[i + 1]
        # the ratio where the exact delay is d0 - m - 1/2
        m = data.draw(st.integers(0, d0 - d1 - 1))
        ratio = r0 + (m + Fraction(1, 2)) * (r1 - r0) / (d0 - d1)
        assert d0 + (d1 - d0) * (ratio - r0) / (r1 - r0) == d0 - m - Fraction(1, 2)
        assert delay_at_bias(model, BiasPoint(ratio)) == reference_delay(model, ratio) == d0 - m


def test_cell_params_rejects_nominal_model_mismatch():
    with pytest.raises(ValueError, match="disagrees with the"):
        CellParams(kind=CellKind.DRO, prop_delay_fs=2999, delay_model=BiasDelayModel.scaled(3000))


def test_operating_range_is_the_models_range():
    narrow = BiasDelayModel.scaled(
        2000,
        operating_range=(Fraction("0.9"), Fraction("1.1")),
        curve=((Fraction("0.9"), Fraction("1.2")), (Fraction("1.1"), Fraction("0.8"))),
    )
    params = CellParams(kind=CellKind.DRO2R, prop_delay_fs=2000, delay_model=narrow)
    assert params.operating_range() == (Fraction("0.9"), Fraction("1.1"))
    # the delay saturates at the model's edge
    assert pinned_alone(params, "0.8") == (2400, 1)
    assert pinned_alone(params, "1.0") == (2000, 0)
    with pytest.raises(BiasRangeError):
        params.at_bias(bias("0.8"))
    no_model = CellParams(kind=CellKind.DRO, prop_delay_fs=100)
    assert no_model.operating_range() is None
    assert pinned_alone(no_model, "0.5") == (100, 0)


# --- steppers ----------------------------------------------------------------


def step(cell: str, params: PinnedCell, state: CellState, port: str, t: int) -> tuple[tuple, tuple]:
    """One pulse through the stepper ``stepper_for`` resolves, as (the
    pulses released, as (output port, time), on the outputs ``RELEASES``
    names; the violations the stepper appended)."""
    violations = []
    released = stepper_for(params.kind, port)(cell, params, state, port, t, violations)
    assert type(released) is bool
    out = tuple((name, t + params.prop_delay_fs) for name in RELEASES[params.kind][port]) if released else ()
    return out, tuple(violations)


DRO = CellParams(kind=CellKind.DRO, prop_delay_fs=5000, setup_fs=2000, hold_fs=1000)
#: Steppers take a cell pinned at the run's bias.
PINNED_DRO = DRO.at_bias(NOM)


class TestDro:
    def test_store_then_release(self):
        state = CellState()
        out, v = step("d", PINNED_DRO, state, "data", 0)
        assert out == () and v == ()
        # second data pulse on a full cell is absorbed
        out, v = step("d", PINNED_DRO, state, "data", 3000)
        assert out == () and v == ()
        violations = []
        assert store_step("d", PINNED_DRO, state, "data", 3000, violations) is False
        assert violations == []
        out, v = step("d", PINNED_DRO, state, "clock", 20000)
        assert out == (("out", 25000),) and v == ()
        # cell is now empty: another clock releases nothing
        out, v = step("d", PINNED_DRO, state, "clock", 40000)
        assert out == () and v == ()

    def test_clock_on_empty_cell(self):
        state = CellState()
        out, v = step("d", PINNED_DRO, state, "clock", 100)
        assert out == () and v == ()

    @pytest.mark.parametrize(
        "gap, ok",
        [(2000, True), (1999, False), (0, False)],
    )
    def test_setup_boundary_is_strict(self, gap, ok):
        state = CellState()
        step("d", PINNED_DRO, state, "data", 10000)
        out, v = step("d", PINNED_DRO, state, "clock", 10000 + gap)
        assert out == (("out", 10000 + gap + 5000),)
        if ok:
            assert v == ()
        else:
            assert len(v) == 1
            assert v[0].kind is ViolationKind.SETUP
            assert v[0].cell == "d"
            assert v[0].time_fs == 10000 + gap
            assert v[0].detail == f"clock {gap} fs after data (setup 2000 fs)"

    @pytest.mark.parametrize("gap, ok", [(1000, True), (999, False)])
    def test_hold_boundary_is_strict(self, gap, ok):
        state = CellState()
        step("d", PINNED_DRO, state, "clock", 5000)
        out, v = step("d", PINNED_DRO, state, "data", 5000 + gap)
        assert out == ()
        if ok:
            assert v == ()
        else:
            assert [(x.kind, x.detail) for x in v] == [
                (ViolationKind.HOLD, f"data {gap} fs after clock (hold 1000 fs)")
            ]

    def test_hold_clean_example(self):
        state = CellState()
        step("d", PINNED_DRO, state, "clock", 5000)
        out, v = step("d", PINNED_DRO, state, "data", 8000)
        assert out == () and v == ()

    def test_unknown_port(self):
        with pytest.raises(ValueError, match="DRO has no port 'clk2'"):
            stepper_for(CellKind.DRO, "clk2")


# --- DRO2R -----------------------------------------------------------------


DRO2R = CellParams(
    kind=CellKind.DRO2R,
    prop_delay_fs=5000,
    setup_fs=2000,
    hold_fs=1000,
).at_bias(NOM)


class TestDro2r:
    def test_clock0_takes_out0(self):
        state = CellState()
        step("r", DRO2R, state, "data", 0)
        out, v = step("r", DRO2R, state, "clock0", 10000)
        assert out == (("out0", 15000),) and v == ()

    def test_clock1_takes_out1_with_the_same_delay(self):
        state = CellState()
        step("r", DRO2R, state, "data", 0)
        out, v = step("r", DRO2R, state, "clock1", 15000)
        assert out == (("out1", 20000),) and v == ()
        # the shared loop is now empty, so the other clock gets nothing
        out, v = step("r", DRO2R, state, "clock0", 30000)
        assert out == () and v == ()

    def test_setup_checked_on_both_clocks(self):
        state = CellState()
        step("r", DRO2R, state, "data", 0)
        out, v = step("r", DRO2R, state, "clock1", 500)
        assert out == (("out1", 5500),)
        assert v[0].detail == "clock1 500 fs after data (setup 2000 fs)"

    def test_unknown_port(self):
        with pytest.raises(ValueError, match="DRO2R has no port 'clock'"):
            stepper_for(CellKind.DRO2R, "clock")


# --- merger / fanout ---------------------------------------------------------


def test_merger_forwards_each_input():
    params = CellParams(kind=CellKind.MERGER, prop_delay_fs=1500, min_separation_fs=2000).at_bias(NOM)
    state = CellState()
    out, v = step("m", params, state, "in0", 0)
    assert out == (("out", 1500),) and v == ()
    out, v = step("m", params, state, "in1", 10000)
    assert out == (("out", 11500),) and v == ()


def test_merger_collision_is_electrical_but_both_forward():
    params = CellParams(kind=CellKind.MERGER, prop_delay_fs=1500, min_separation_fs=2000).at_bias(NOM)
    state = CellState()
    out0, v0 = step("m", params, state, "in0", 0)
    out1, v1 = step("m", params, state, "in1", 1000)
    assert out0 == (("out", 1500),) and v0 == ()
    assert out1 == (("out", 2500),)
    assert [(x.kind, x.time_fs, x.detail) for x in v1] == [
        (ViolationKind.ELECTRICAL, 1000, "inputs 1000 fs apart (min separation 2000 fs)")
    ]
    # same-port repeats do not collide
    fresh = CellState()
    step("m", params, fresh, "in1", 0)
    out2, v2 = step("m", params, fresh, "in1", 500)
    assert out2 == (("out", 2000),) and v2 == ()


def test_merger_unknown_port():
    with pytest.raises(ValueError, match="merger has no port 'in2'"):
        stepper_for(CellKind.MERGER, "in2")


def test_fanout_duplicates_pulse():
    params = CellParams(kind=CellKind.FANOUT, prop_delay_fs=500).at_bias(NOM)
    out, v = step("f", params, CellState(), "in", 100)
    assert out == (("out_a", 600), ("out_b", 600)) and v == ()
    with pytest.raises(ValueError, match="fanout has no port 'out'"):
        stepper_for(CellKind.FANOUT, "out")


def test_steppers_append_to_the_runs_violations_in_order():
    params = CellParams(kind=CellKind.MERGER, prop_delay_fs=1500, min_separation_fs=2000).at_bias(NOM)
    state, violations = CellState(), ["earlier"]
    stepper_for(CellKind.MERGER, "in0")("m", params, state, "in0", 0, violations)
    assert violations == ["earlier"]
    assert stepper_for(CellKind.MERGER, "in1")("m", params, state, "in1", 700, violations) is True
    stepper_for(CellKind.MERGER, "in0")("m", params, state, "in0", 900, violations)
    assert violations[0] == "earlier"
    assert [(v.time_fs, v.detail) for v in violations[1:]] == [
        (700, "inputs 700 fs apart (min separation 2000 fs)"),
        (900, "inputs 200 fs apart (min separation 2000 fs)"),
    ]


def test_releases_agree_with_the_port_tables():
    assert RELEASES == {
        CellKind.DRO: {"data": (), "clock": ("out",)},
        CellKind.DRO2R: {"data": (), "clock0": ("out0",), "clock1": ("out1",)},
        CellKind.MERGER: {"in0": ("out",), "in1": ("out",)},
        CellKind.FANOUT: {"in": ("out_a", "out_b")},
    }
    for kind, ins in INPUT_PORTS.items():
        # every input has an entry, and every output is released on by some input
        assert tuple(RELEASES[kind]) == ins
        assert {out for port in ins for out in RELEASES[kind][port]} == set(OUTPUT_PORTS[kind])
    assert RELEASES.keys() == OUTPUT_PORTS.keys()


@pytest.mark.parametrize("kind", list(CellKind))
def test_steppers_accept_and_emit_exactly_the_table_ports(kind):
    params = CellParams(kind=kind, prop_delay_fs=500).at_bias(NOM)
    known = {port for table in (INPUT_PORTS, OUTPUT_PORTS) for ports in table.values() for port in ports}
    for port in sorted(known):
        if port in INPUT_PORTS[kind]:
            released = stepper_for(kind, port)("c", params, CellState(stored=True), port, 0, [])
            # a full storage cell releases on a clock, not on data; a passive cell always forwards
            assert released is (RELEASES[kind][port] != ())
        else:
            with pytest.raises(ValueError, match="has no port"):
                stepper_for(kind, port)


def test_stepper_for_dispatches_on_the_kind():
    out, v = step("d", PINNED_DRO, CellState(), "data", 0)
    assert out == () and v == ()
    assert stepper_for(PINNED_DRO.kind, "data") is store_step
    assert stepper_for(CellKind.DRO2R, "data") is store_step
    assert stepper_for(CellKind.DRO, "clock") is stepper_for(CellKind.DRO2R, "clock1") is release_step
    assert stepper_for(CellKind.MERGER, "in1") is merger_step
    assert stepper_for(CellKind.FANOUT, "in") is fanout_step
    with pytest.raises(ValueError, match="does not process pulses"):
        stepper_for("XOR", "in")  # type: ignore[arg-type]


# --- default cell set --------------------------------------------------------


class TestDefaultCellParams:
    def test_calibrated_timings(self):
        cells = default_cell_params()
        assert set(cells) == {"write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r"}
        wd = cells["write_dro"]
        assert (wd.kind, wd.prop_delay_fs, wd.setup_fs, wd.hold_fs) == (CellKind.DRO, 3000, 2000, 1000)
        rc = cells["recirc_dro2r"]
        assert (rc.kind, rc.prop_delay_fs) == (CellKind.DRO2R, 3000)
        assert (rc.setup_fs, rc.hold_fs) == (3000, 1000)
        assert cells["merger"].min_separation_fs == 2000
        assert cells["fanout"].prop_delay_fs == 500
        rd = cells["read_dro2r"]
        # the documented 10 ps read logic path: setup + propagation
        assert rd.setup_fs + rd.prop_delay_fs == 10000
        assert rd.hold_fs == 1000

    def test_all_cells_share_default_curve(self):
        for params in default_cell_params().values():
            assert params.delay_model is not None
            assert params.operating_range() == DEFAULT_OPERATING_RANGE
            ratios = tuple(r for r, _ in params.delay_model.points)
            assert ratios == tuple(r for r, _ in DEFAULT_BIAS_CURVE)

    def test_overrides_are_applied(self):
        cells = default_cell_params({"read_dro2r": {"setup": 4000, "prop_delay": 6000}})
        rd = cells["read_dro2r"]
        assert rd.setup_fs == 4000
        assert rd.prop_delay_fs == 6000
        assert rd.at_bias(bias("1.24")).prop_delay_fs == 3540  # 6000 * 0.59
        # untouched cells keep their defaults
        assert cells["write_dro"].setup_fs == 2000

    def test_zero_prop_delay_turns_off_bias_dependence(self):
        cells = default_cell_params({"fanout": {"prop_delay": 0}})
        f = cells["fanout"]
        assert f.delay_model is None
        assert f.at_bias(bias("0.76")).prop_delay_fs == 0
        assert f.operating_range() is None

    def test_custom_curve_override(self):
        curve = ((Fraction("0.5"), Fraction(2)), (Fraction(1), Fraction(1)), (Fraction("1.5"), Fraction(1, 2)))
        cells = default_cell_params(
            {"merger": {"bias_curve": curve, "operating_range": (Fraction("0.5"), Fraction("1.5"))}}
        )
        m = cells["merger"]
        assert m.at_bias(bias("0.5")).prop_delay_fs == 3000
        assert m.at_bias(bias("1.5")).prop_delay_fs == 750
        assert m.operating_range() == (Fraction("0.5"), Fraction("1.5"))

    def test_each_call_returns_a_fresh_dict(self):
        first = default_cell_params()
        first["merger"] = first["fanout"]
        del first["read_dro2r"]
        second = default_cell_params()
        assert second is not first
        assert set(second) == {"write_dro", "recirc_dro2r", "merger", "fanout", "read_dro2r"}
        assert second["merger"].kind == CellKind.MERGER

    def test_equal_overrides_in_distinct_objects_share_one_cell_set(self):
        a = default_cell_params({"read_dro2r": {"setup": 4000, "hold": 500}})
        b = default_cell_params({"read_dro2r": dict(hold=500, setup=4000)})
        assert a == b
        assert all(a[name] is b[name] for name in a)
        assert default_cell_params({"read_dro2r": {"setup": 4001}}) != a

    def test_mutating_an_override_after_a_call_takes_effect(self):
        overrides = {"read_dro2r": {"setup": 4000}}
        assert default_cell_params(overrides)["read_dro2r"].setup_fs == 4000
        overrides["read_dro2r"]["setup"] = 5000
        assert default_cell_params(overrides)["read_dro2r"].setup_fs == 5000

    def test_list_valued_curve_and_range_overrides(self):
        as_tuples = {
            "bias_curve": ((Fraction("0.5"), Fraction(2)), (Fraction(1), Fraction(1)), (Fraction("1.5"), Fraction(1, 2))),
            "operating_range": (Fraction("0.5"), Fraction("1.5")),
        }
        as_lists = {
            "bias_curve": [[Fraction("0.5"), 2], [1, 1], [Fraction("1.5"), Fraction(1, 2)]],
            "operating_range": [Fraction("0.5"), Fraction("1.5")],
        }
        m = default_cell_params({"merger": as_lists})["merger"]
        assert m == default_cell_params({"merger": as_tuples})["merger"]
        assert m.at_bias(bias("0.5")).prop_delay_fs == 3000
        assert m.operating_range() == (Fraction("0.5"), Fraction("1.5"))


# --- pinning at one bias -----------------------------------------------------


class TestAtBias:
    @pytest.mark.parametrize("ratio", ["0.76", "0.87", "0.9", "1", "1.13", "1.24", Fraction(97, 93)])
    def test_pinned_delays_equal_the_curve_at_that_bias(self, ratio):
        b = bias(ratio)
        cells = default_cell_params({"recirc_dro2r": {"prop_delay": 4000}})
        for params in cells.values():
            pinned = params.at_bias(b)
            assert type(pinned) is PinnedCell
            assert not hasattr(pinned, "delay_model")
            assert pinned.prop_delay_fs == delay_at_bias(params.delay_model, b)
            # one delay, used on every output
            assert not hasattr(pinned, "prop_delay_out1_fs")
            # the pinned delay is a constant: no bias can be passed in
            assert not hasattr(pinned, "delay") and not hasattr(pinned, "delay_out1")
            assert (pinned.kind, pinned.setup_fs, pinned.hold_fs, pinned.min_separation_fs) == (
                params.kind,
                params.setup_fs,
                params.hold_fs,
                params.min_separation_fs,
            )

    def test_constant_delay_cell_pins_to_itself(self):
        pinned = DRO.at_bias(bias("0.8"))
        assert pinned.prop_delay_fs == DRO.prop_delay_fs

    def test_out_of_range_bias_is_refused(self):
        with pytest.raises(BiasRangeError):
            default_cell_params()["merger"].at_bias(bias("0.5"))
