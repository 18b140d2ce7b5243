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
    RELEASES,
    delay_at_bias,
)
from fluxloop.core import NOMINAL_BIAS, exact_ratio, format_ratio
from fluxloop.engine import Connection, Netlist, NetlistError, run_until, schedule

NOM = NOMINAL_BIAS


def bias(value) -> Fraction:
    return exact_ratio(value)


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
        d = delay_at_bias(self.MODEL, ratio)
        assert 1770 <= d <= 4170

    @given(
        st.fractions(min_value=Fraction("0.76"), max_value=Fraction("1.24"), max_denominator=10**4),
        st.fractions(min_value=Fraction("0.76"), max_value=Fraction("1.24"), max_denominator=10**4),
    )
    def test_delay_monotone_nonincreasing_in_bias(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert delay_at_bias(self.MODEL, lo) >= delay_at_bias(self.MODEL, hi)

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
        assert delay_at_bias(model, ratio) == reference_delay(model, ratio)

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
        assert delay_at_bias(model, ratio) == reference_delay(model, ratio) == d0 - m

    @given(st.data())
    def test_the_range_check_agrees_with_fraction_comparison(self, data):
        # in integers, the range check refuses exactly the biases the Fraction comparison puts outside
        model = data.draw(drawn_models())
        lo, hi = model.range_lo, model.range_hi
        hair = Fraction(1, data.draw(st.integers(1, 10**12)))
        ratio = data.draw(st.one_of(
            st.sampled_from([lo, hi, lo - hair, lo + hair, hi - hair, hi + hair, Fraction(1)]),
            ratios_in(lo / 2, 2 * hi),
        ))
        try:
            delay_at_bias(model, ratio)
        except BiasRangeError as exc:
            assert not lo <= ratio <= hi
            assert str(exc) == f"bias {format_ratio(ratio)} outside operating range [{format_ratio(lo)}, {format_ratio(hi)}]"
        else:
            assert lo <= ratio <= hi


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


# --- cell transitions, through the kernel -----------------------------------------


def alone(params: CellParams, cell: str) -> Netlist:
    """``params`` alone, wired as ``characterize_cell`` wires a cell: each
    input port from an external line and each output onto an observed line.
    The input lines sort in port order (data first), so pulses at one
    instant arrive in that order."""
    ins, outs = INPUT_PORTS[params.kind], OUTPUT_PORTS[params.kind]
    connections = [Connection(f"i{i}_{port}", f"{cell}.{port}") for i, port in enumerate(ins)]
    connections += [Connection(f"{cell}.{out}", f"o_{out}") for out in outs]
    return Netlist({cell: params}, tuple(connections), frozenset(f"i{i}_{port}" for i, port in enumerate(ins)),
                   tuple(f"o_{out}" for out in outs))


def steps(cell: str, params: CellParams, pulses: list[tuple[str, int]], at: Fraction = NOM) -> tuple[tuple, tuple]:
    """``pulses`` as (input port, time) into ``params`` alone, run through the
    kernel: (the pulses released, as (output port, time) in time order; the
    run's violations)."""
    net = alone(params, cell)
    line = {port: f"i{i}_{port}" for i, port in enumerate(INPUT_PORTS[params.kind])}
    trace = run_until(schedule(net, [(t, line[port]) for port, t in pulses]), 10**6, at)
    return tuple((name.removeprefix("o_"), t) for t, name in trace.events), trace.violations


DRO = CellParams(kind=CellKind.DRO, prop_delay_fs=5000, setup_fs=2000, hold_fs=1000)


class TestDro:
    def test_store_then_release(self):
        # a second data pulse on a full cell is absorbed; the release empties
        # the cell, so the next clock releases nothing
        out, v = steps("d", DRO, [("data", 0), ("data", 3000), ("clock", 20000), ("clock", 40000)])
        assert out == (("out", 25000),) and v == ()
        assert steps("d", DRO, [("data", 0), ("data", 3000)]) == ((), ())

    def test_clock_on_empty_cell(self):
        out, v = steps("d", DRO, [("clock", 100)])
        assert out == () and v == ()

    @pytest.mark.parametrize(
        "gap, ok",
        [(2000, True), (1999, False), (0, False)],
    )
    def test_setup_boundary_is_strict(self, gap, ok):
        out, v = steps("d", DRO, [("data", 10000), ("clock", 10000 + gap)])
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
        out, v = steps("d", DRO, [("clock", 5000), ("data", 5000 + gap)])
        assert out == ()
        if ok:
            assert v == ()
        else:
            assert [(x.kind, x.time_fs, x.detail) for x in v] == [
                (ViolationKind.HOLD, 5000 + gap, f"data {gap} fs after clock (hold 1000 fs)")
            ]

    def test_hold_clean_example(self):
        out, v = steps("d", DRO, [("clock", 5000), ("data", 8000)])
        assert out == () and v == ()

    def test_unknown_port(self):
        with pytest.raises(NetlistError, match=r"\(DRO\) has no port 'clk2'"):
            Netlist({"d": DRO}, (Connection("x", "d.clk2"),), frozenset({"x"}), ())


# --- DRO2R -----------------------------------------------------------------


DRO2R = CellParams(
    kind=CellKind.DRO2R,
    prop_delay_fs=5000,
    setup_fs=2000,
    hold_fs=1000,
)


class TestDro2r:
    def test_clock0_takes_out0(self):
        out, v = steps("r", DRO2R, [("data", 0), ("clock0", 10000)])
        assert out == (("out0", 15000),) and v == ()

    def test_clock1_takes_out1_with_the_same_delay(self):
        # the shared loop is empty after clock1, so the other clock gets nothing
        out, v = steps("r", DRO2R, [("data", 0), ("clock1", 15000), ("clock0", 30000)])
        assert out == (("out1", 20000),) and v == ()

    def test_setup_checked_on_both_clocks(self):
        out, v = steps("r", DRO2R, [("data", 0), ("clock1", 500)])
        assert out == (("out1", 5500),)
        assert [(x.kind, x.time_fs, x.detail) for x in v] == [
            (ViolationKind.SETUP, 500, "clock1 500 fs after data (setup 2000 fs)")
        ]
        out, v = steps("r", DRO2R, [("data", 0), ("clock0", 700)])
        assert out == (("out0", 5700),) and v[0].detail == "clock0 700 fs after data (setup 2000 fs)"

    def test_unknown_port(self):
        with pytest.raises(NetlistError, match=r"\(DRO2R\) has no port 'clock'"):
            Netlist({"r": DRO2R}, (Connection("x", "r.clock"),), frozenset({"x"}), ())


# --- merger / fanout ---------------------------------------------------------


MERGER = CellParams(kind=CellKind.MERGER, prop_delay_fs=1500, min_separation_fs=2000)


def test_merger_forwards_each_input():
    out, v = steps("m", MERGER, [("in0", 0), ("in1", 10000)])
    assert out == (("out", 1500), ("out", 11500)) and v == ()


def test_merger_collision_is_electrical_but_both_forward():
    out, v = steps("m", MERGER, [("in0", 0), ("in1", 1000)])
    assert out == (("out", 1500), ("out", 2500))
    assert [(x.kind, x.time_fs, x.detail) for x in v] == [
        (ViolationKind.ELECTRICAL, 1000, "inputs 1000 fs apart (min separation 2000 fs)")
    ]
    # same-port repeats do not collide
    out, v = steps("m", MERGER, [("in1", 0), ("in1", 500)])
    assert out == (("out", 1500), ("out", 2000)) and v == ()


def test_merger_unknown_port():
    with pytest.raises(NetlistError, match=r"\(MERGER\) has no port 'in2'"):
        Netlist({"m": MERGER}, (Connection("x", "m.in2"),), frozenset({"x"}), ())


def test_fanout_duplicates_pulse():
    out, v = steps("f", CellParams(kind=CellKind.FANOUT, prop_delay_fs=500), [("in", 100)])
    assert out == (("out_a", 600), ("out_b", 600)) and v == ()
    with pytest.raises(NetlistError, match=r"\(FANOUT\) has no port 'out'"):
        Netlist({"f": CellParams(kind=CellKind.FANOUT)}, (Connection("x", "f.out"),), frozenset({"x"}), ())


def test_violations_follow_the_runs_earlier_ones_in_order():
    # the merger's range excludes the bias: its ELECTRICAL violation at t=0 comes first
    narrow = BiasDelayModel.scaled(1500, operating_range=(Fraction("0.9"), Fraction("1.1")),
                                   curve=((Fraction("0.9"), Fraction("1.2")), (Fraction("1.1"), Fraction("0.8"))))
    merger = MERGER._replace(delay_model=narrow)
    out, v = steps("m", merger, [("in0", 0), ("in1", 700), ("in0", 900)], at=bias("0.8"))
    assert out == (("out", 1800), ("out", 2500), ("out", 2700))
    assert [(x.kind, x.time_fs, x.detail) for x in v] == [
        (ViolationKind.ELECTRICAL, 0, "bias 0.8 outside operating range [0.9, 1.1]"),
        (ViolationKind.ELECTRICAL, 700, "inputs 700 fs apart (min separation 2000 fs)"),
        (ViolationKind.ELECTRICAL, 900, "inputs 200 fs apart (min separation 2000 fs)"),
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
def test_cells_accept_and_release_on_exactly_the_table_ports(kind):
    params = CellParams(kind=kind, prop_delay_fs=500)
    known = {port for table in (INPUT_PORTS, OUTPUT_PORTS) for ports in table.values() for port in ports}
    for port in sorted(known):
        if port in INPUT_PORTS[kind]:
            # a full storage cell releases on a clock, not on data; a passive cell always forwards
            stored = [("data", 0)] if "data" in INPUT_PORTS[kind] and port != "data" else []
            out, v = steps("c", params, stored + [(port, 1000)])
            assert out == tuple((name, 1500) for name in RELEASES[kind][port]) and v == ()
        else:
            with pytest.raises(NetlistError, match="has no port|is not an input port"):
                Netlist({"c": params}, (Connection("x", f"c.{port}"),), frozenset({"x"}), ())


def test_each_kind_applies_its_own_transition():
    # data stores (no release) on both storage kinds; either kind's clock releases a stored pulse
    assert steps("d", DRO, [("data", 0)]) == ((), ())
    assert steps("r", DRO2R, [("data", 0)]) == ((), ())
    assert steps("d", DRO, [("data", 0), ("clock", 5000)])[0] == (("out", 10000),)
    assert steps("r", DRO2R, [("data", 0), ("clock1", 5000)])[0] == (("out1", 10000),)
    assert steps("m", MERGER, [("in1", 0)])[0] == (("out", 1500),)
    assert steps("f", CellParams(kind=CellKind.FANOUT), [("in", 0)])[0] == (("out_a", 0), ("out_b", 0))
    with pytest.raises(NetlistError, match="^cell 'x': kind 'XOR' does not process pulses$"):
        Netlist({"x": CellParams(kind="XOR")}, (), frozenset(), ())  # type: ignore[arg-type]


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
            assert type(pinned) is CellParams and pinned.delay_model is None
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

    def test_a_cell_with_no_model_is_its_own_pin(self):
        assert DRO.delay_model is None
        for ratio in ("0.5", "1", "2"):
            assert DRO.at_bias(bias(ratio)) is DRO

    @pytest.mark.parametrize("first, second", [("0.8", "1.2"), ("1", "0.76"), ("1.24", "1.24")])
    def test_pinning_is_idempotent(self, first, second):
        for params in default_cell_params().values():
            pinned = params.at_bias(bias(first))
            assert pinned.at_bias(bias(second)) == pinned
            assert pinned.at_bias(bias(second)) is pinned

    def test_out_of_range_bias_is_refused(self):
        with pytest.raises(BiasRangeError):
            default_cell_params()["merger"].at_bias(bias("0.5"))
