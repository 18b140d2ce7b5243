"""Delay-line storage density: velocities, table reproduction, rendering."""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from fluxloop import (
    LineSpec,
    PRESETS,
    density_mbit_per_cm2,
    inductance_from_sheet,
    reproduce_published,
    resolve_preset,
    speed_factor,
    velocity_mps,
)
from fluxloop.density import (
    INCONSISTENT_CELLS,
    PRESET_ALIASES,
    SPEED_OF_LIGHT,
    DensityReport,
    DensityRow,
    FactorRow,
    build_report,
    published_tolerance,
    report_to_csv,
    report_to_text,
    stacked_spec,
)

#: Independently derived speed factors and densities (Mbit/cm^2), preset
#: order, frozen from the decimal-arithmetic reference in tests/_oracle.py.
PRESET_ORDER = (
    "nb-stripline-250",
    "nb-stripline-120",
    "mon-microstrip-250",
    "mon-microstrip-120",
    "mon-stripline-120",
    "nbtin-stripline-100",
    "nbn-nanowire-40",
    "nbn-nanowire-15",
)
FACTORS = (0.2983413, 0.296, 0.0466158, 0.0345177, 0.0296298, 0.0115511, 0.0111062, 0.0071329)
D100 = (0.894427, 1.878129, 1.431084, 4.026389, 18.762403, 52.502656, 75.083287, 138.557729)
D20 = (0.178885, 0.375626, 0.286217, 0.805278, 3.752481, 10.500531, 15.016657, 27.711546)


class TestLineSpec:
    def test_pitch(self):
        assert PRESETS["nb-stripline-250"].pitch_m == pytest.approx(500e-9)
        assert PRESETS["nbn-nanowire-15"].pitch_m == pytest.approx(135e-9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"linewidth_nm": 0},
            {"spacing_nm": -1},
            {"capacitance_ff_per_um": 0},
            {"inductance_ph_per_um": 0},
            {"layers": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(
            name="x", linewidth_nm=100, spacing_nm=100, capacitance_ff_per_um=0.1, inductance_ph_per_um=1.0
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            LineSpec(**base)


class TestVelocity:
    def test_lc_route(self):
        # 1/sqrt(LC) with L=0.50 pH/um, C=0.25 fF/um
        spec = PRESETS["nb-stripline-250"]
        assert velocity_mps(spec) == pytest.approx(1.0 / math.sqrt(0.50e-6 * 0.25e-9))
        assert speed_factor(spec) == pytest.approx(0.2983413, rel=1e-5)

    def test_override_route(self):
        spec = PRESETS["nb-stripline-120"]
        assert speed_factor(spec) == 0.296
        assert velocity_mps(spec) == pytest.approx(0.296 * SPEED_OF_LIGHT)
        # without the measured override, sqrt(LC) gives a slightly faster line
        free = LineSpec("x", 120, 120, 0.19, 0.65, layers=4)
        assert speed_factor(free) == pytest.approx(0.3001, abs=5e-4)

    @pytest.mark.parametrize("name, factor", tuple(zip(PRESET_ORDER, FACTORS)))
    def test_all_preset_factors(self, name, factor):
        assert speed_factor(PRESETS[name]) == pytest.approx(factor, rel=1e-4)


class TestDensity:
    @pytest.mark.parametrize("name, expected", tuple(zip(PRESET_ORDER, D100)))
    def test_at_100ghz(self, name, expected):
        assert density_mbit_per_cm2(PRESETS[name], 100e9) == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("name, expected", tuple(zip(PRESET_ORDER, D20)))
    def test_at_20ghz(self, name, expected):
        assert density_mbit_per_cm2(PRESETS[name], 20e9) == pytest.approx(expected, rel=1e-5)

    def test_density_scales_linearly_with_frequency_and_layers(self):
        spec = PRESETS["nbn-nanowire-15"]
        d = density_mbit_per_cm2(spec, 50e9)
        assert density_mbit_per_cm2(spec, 100e9) == pytest.approx(2 * d)
        assert density_mbit_per_cm2(spec._replace(layers=8), 50e9) == pytest.approx(2 * d)

    def test_single_layer_baseline(self):
        # one layer of the fast Nb line barely clears a fifth of a Mbit/cm^2
        assert density_mbit_per_cm2(PRESETS["nb-stripline-250"]._replace(layers=1), 100e9) == pytest.approx(
            0.2236, abs=5e-5
        )

    def test_hundred_layer_stack(self):
        spec = stacked_spec("nbn-nanowire-15", 100)
        assert spec.layers == 100
        assert density_mbit_per_cm2(spec, 100e9) == pytest.approx(3463.9432, rel=1e-6)
        assert density_mbit_per_cm2(spec, 20e9) == pytest.approx(692.7886, rel=1e-6)

    def test_argument_validation(self):
        spec = PRESETS["nb-stripline-250"]
        with pytest.raises(ValueError, match="frequency"):
            density_mbit_per_cm2(spec, 0)
        with pytest.raises(ValueError, match="layers"):
            density_mbit_per_cm2(spec._replace(layers=0), 1e9)


def test_inductance_from_sheet():
    # kinetic-inductance presets follow sheet / linewidth
    assert inductance_from_sheet(82, 0.04) == pytest.approx(2050.0)
    assert inductance_from_sheet(82, 0.015) == pytest.approx(5466.7, rel=1e-4)
    assert inductance_from_sheet(49, 0.1) == pytest.approx(490.0)
    assert inductance_from_sheet(8, 0.25) == pytest.approx(32.0)
    assert inductance_from_sheet(8, 0.12) == pytest.approx(66.7, rel=1e-3)
    with pytest.raises(ValueError):
        inductance_from_sheet(0, 0.1)


class TestPresets:
    def test_aliases_resolve(self):
        for alias, canonical in PRESET_ALIASES.items():
            assert resolve_preset(alias) is PRESETS[canonical]
        assert resolve_preset("nbn-nanowire-15") is PRESETS["nbn-nanowire-15"]

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(KeyError, match="unknown preset 'ybco'.*nb-stripline-250"):
            resolve_preset("ybco")


class TestReproducePublished:
    def test_every_anchored_cell_verifies(self):
        report = reproduce_published()
        assert report.all_ok
        assert len(report.rows) == 36  # 8 presets x 4 freqs + 4 stacked
        assert len(report.factors) == 8
        checked = [r for r in report.rows if r.within_tolerance is not None]
        assert len(checked) == 33
        assert all(r.within_tolerance for r in checked)

    def test_inconsistent_cells_are_reported_unchecked(self):
        report = reproduce_published()
        flagged = [
            (r.preset, r.frequency_ghz) for r in report.rows if r.published is not None and r.within_tolerance is None
        ]
        assert set(flagged) == INCONSISTENT_CELLS
        assert len(flagged) == 3

    def test_factor_anchors_are_tight(self):
        report = reproduce_published()
        for row in report.factors:
            assert abs(row.computed - row.published) <= 0.001

    def test_tight_factor_tolerance_fails_the_report(self):
        report = reproduce_published(factor_tolerance=1e-9)
        assert not report.all_ok


class TestToleranceModel:
    def test_half_quantum_rides_on_the_relative_band(self):
        assert published_tolerance("0.2") == (0.2, pytest.approx(0.06))
        assert published_tolerance("140.3") == (140.3, pytest.approx(7.065))

    def test_thousands_separator(self):
        assert published_tolerance("1,753") == (1753.0, pytest.approx(88.15))


class TestRendering:
    def test_csv(self):
        report = build_report(
            [PRESETS["nb-stripline-250"], stacked_spec("nbn-nanowire-15", 100)], [20, 100]
        )
        assert report_to_csv(report) == (
            "preset,frequency_ghz,layers,speed_factor,density_mbit_cm2,published,verdict\n"
            "nb-stripline-250,20,4,0.298341,0.178885,,\n"
            "nb-stripline-250,100,4,0.298341,0.894427,,\n"
            "nbn-nanowire-15,20,100,0.007133,692.788643,,\n"
            "nbn-nanowire-15,100,100,0.007133,3463.943216,,\n"
        )

    def test_text_table(self):
        report = build_report(
            [PRESETS["nb-stripline-250"], stacked_spec("nbn-nanowire-15", 100)], [20, 100]
        )
        assert report_to_text(report) == (
            "preset            layers      v/c     20 GHz    100 GHz\n"
            "nb-stripline-250       4   0.2983      0.179      0.894\n"
            "nbn-nanowire-15      100   0.0071    692.789   3463.943\n"
        )

    def test_text_verification_summary(self):
        text = report_to_text(reproduce_published())
        assert "verified 33/33 published cells (3 flagged-inconsistent cells reported unchecked)" in text
        assert "MISMATCH" not in text


    def test_text_names_each_mismatch(self):
        report = DensityReport(
            rows=(
                DensityRow("nb-stripline-250", 20, 4, 0.178885, 0.2, False),
                DensityRow("nb-stripline-250", 100, 4, 0.894427, 0.9, True),
            ),
            factors=(FactorRow("nb-stripline-250", 0.2983413, 0.31, False),),
        )
        assert report_to_text(report) == (
            "preset            layers      v/c     20 GHz    100 GHz\n"
            "nb-stripline-250       4   0.2983      0.179      0.894\n"
            "\n"
            "verified 1/2 published cells\n"
            "  MISMATCH nb-stripline-250 @ 20 GHz: computed 0.179 vs published 0.2\n"
            "  MISMATCH nb-stripline-250 v/c: computed 0.2983 vs published 0.31\n"
        )

def test_readme_preset_table_agrees_with_the_presets():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Density presets\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert [row[0] for row in rows] == list(PRESETS)
    alias_of = {canonical: alias for alias, canonical in PRESET_ALIASES.items()}
    for name, alias, pitch, inductance, capacitance, layers, factor in rows:
        spec = PRESETS[name]
        assert alias == alias_of.get(name, "—"), name
        assert pitch == f"{spec.linewidth_nm:g} + {spec.spacing_nm:g}", name
        assert (float(inductance), float(capacitance)) == (spec.inductance_ph_per_um, spec.capacitance_ff_per_um), name
        assert int(layers) == spec.layers, name
        pinned = "*" if spec.speed_factor_override is not None else ""
        assert factor == f"{speed_factor(spec):.3f}{pinned}", name
