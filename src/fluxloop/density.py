"""Storage density of passive superconducting delay lines.

A bit circulating at velocity v on a line driven at frequency f occupies a
line length of v/f; folding the line into a serpentine of pitch
(linewidth + spacing) and stacking independent routing layers gives an
areal density of

    density [bits/m^2] = f * layers / (pitch * v)

High-kinetic-inductance films slow the line (v = 1/sqrt(LC)), which is the
whole game: every 10x slowdown buys 10x density at fixed frequency.

The preset table reproduces the published literature values for eight line
technologies; :func:`reproduce_published` re-derives all of them and checks
each against its printed figure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence

from .core import validated_record

SPEED_OF_LIGHT = 2.998e8  # m/s

#: The drive frequencies (GHz) tabulated in the published density table.
TABLE_FREQUENCIES_GHZ = (20, 50, 75, 100)


class LineSpec(validated_record(
    "LineSpec", "name linewidth_nm spacing_nm capacitance_ff_per_um inductance_ph_per_um layers speed_factor_override",
)):
    """Geometry and per-length electricals of one delay-line technology.

    Capacitance and inductance are per unit length in the units the tables
    use (fF/um and pH/um).  ``speed_factor_override`` pins v/c to a
    measured figure when the sqrt(LC) estimate disagrees with it.
    """

    __slots__ = ()

    def __new__(
        cls, name: str, linewidth_nm: float, spacing_nm: float, capacitance_ff_per_um: float,
        inductance_ph_per_um: float, layers: int = 1, speed_factor_override: float | None = None,
    ) -> "LineSpec":
        if min(linewidth_nm, spacing_nm) <= 0:
            raise ValueError("linewidth and spacing must be positive")
        if min(capacitance_ff_per_um, inductance_ph_per_um) <= 0:
            raise ValueError("capacitance and inductance must be positive")
        if layers < 1:
            raise ValueError("layers must be at least 1")
        fields = (name, linewidth_nm, spacing_nm, capacitance_ff_per_um, inductance_ph_per_um, layers, speed_factor_override)
        return tuple.__new__(cls, fields)

    @property
    def pitch_m(self) -> float:
        return (self.linewidth_nm + self.spacing_nm) * 1e-9


def velocity_mps(spec: LineSpec) -> float:
    """Signal velocity on the line in m/s."""
    if spec.speed_factor_override is not None:
        return spec.speed_factor_override * SPEED_OF_LIGHT
    c_per_m = spec.capacitance_ff_per_um * 1e-9   # fF/um -> F/m
    l_per_m = spec.inductance_ph_per_um * 1e-6    # pH/um -> H/m
    return 1.0 / math.sqrt(l_per_m * c_per_m)


def speed_factor(spec: LineSpec) -> float:
    """Velocity as a fraction of the vacuum speed of light."""
    return velocity_mps(spec) / SPEED_OF_LIGHT


def density_mbit_per_cm2(spec: LineSpec, frequency_hz: float) -> float:
    """Areal storage density in Mbit/cm^2 at the given drive frequency."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    bits_per_m2 = frequency_hz * spec.layers / (spec.pitch_m * velocity_mps(spec))
    return bits_per_m2 * 1e-10  # bits/m^2 -> Mbit/cm^2


def inductance_from_sheet(sheet_ph_per_square: float, linewidth_um: float) -> float:
    """Per-length inductance (pH/um) of a strip from its film's sheet value."""
    if sheet_ph_per_square <= 0 or linewidth_um <= 0:
        raise ValueError("sheet inductance and linewidth must be positive")
    return sheet_ph_per_square / linewidth_um


#: Literature line technologies, slowest-last, one row each: the spec, its
#: shorthand alias (or None), and the printed v/c and density table
#: (Mbit/cm^2 at ``TABLE_FREQUENCIES_GHZ``), kept as printed so each cell's
#: rounding quantum is recoverable.  Nb striplines are ordinary
#: magnetically-dominated lines; the MoN/NbTiN/NbN entries ride kinetic
#: inductance (sheet values of roughly 8, 49 and 82 pH/sq divided by the
#: linewidth).  The 120 nm Nb line carries its measured v/c, which the
#: sqrt(LC) estimate misses by a few tenths of a percent of c.
_PRESET_TABLE: tuple[tuple[LineSpec, str | None, str, tuple[str, str, str, str]], ...] = (
    (LineSpec("nb-stripline-250", 250, 250, 0.25, 0.50, layers=4),
     "nb-250nm", "0.298", ("0.2", "0.4", "0.7", "0.9")),
    (LineSpec("nb-stripline-120", 120, 120, 0.19, 0.65, layers=4, speed_factor_override=0.296),
     "nb-120nm", "0.296", ("0.4", "0.9", "1.4", "1.9")),
    (LineSpec("mon-microstrip-250", 250, 250, 0.16, 32.0, layers=1),
     "mon-250nm", "0.047", ("0.3", "0.7", "1.1", "1.4")),
    (LineSpec("mon-microstrip-120", 120, 120, 0.14, 66.70, layers=1),
     "mon-120nm", "0.034", ("0.8", "2.0", "3.0", "4.0")),
    (LineSpec("mon-stripline-120", 120, 120, 0.19, 66.70, layers=4),
     None, "0.029", ("3.2", "8.1", "12.1", "19.0")),
    (LineSpec("nbtin-stripline-100", 100, 120, 0.17, 490.5, layers=4),
     "nbtin-100nm", "0.011", ("10.7", "26.6", "40.0", "53.3")),
    (LineSpec("nbn-nanowire-40", 40, 120, 0.044, 2050.0, layers=4),
     "nbn-40nm", "0.011", ("15.1", "37.7", "56.6", "75.4")),
    (LineSpec("nbn-nanowire-15", 15, 120, 0.04, 5467.0, layers=4),
     "nbn-15nm", "0.007", ("28.1", "70.1", "105.2", "140.3")),
)

PRESETS: Mapping[str, LineSpec] = {spec.name: spec for spec, *_ in _PRESET_TABLE}

#: Shorthand spellings accepted anywhere a preset name is taken.
PRESET_ALIASES: Mapping[str, str] = {alias: spec.name for spec, alias, *_ in _PRESET_TABLE if alias is not None}


def resolve_preset(name: str) -> LineSpec:
    """Look up a preset by canonical name or alias."""
    canonical = PRESET_ALIASES.get(name, name)
    try:
        return PRESETS[canonical]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESETS)}"
        ) from None


#: 100-layer stacking projection printed alongside the table.
_PUBLISHED_STACKED: Mapping[str, tuple[int, tuple[str, str, str, str]]] = {
    "nbn-nanowire-15": (100, ("701.4", "1,753", "2,630", "3,507")),
}

#: Printed cells that do not follow from the same velocity as the rest of
#: their row: the mon-stripline-120 sub-100 GHz figures imply a line about
#: 25% slower than the one its own 100 GHz figure (and L, C values) give.
#: They are reported but not used as verification anchors.
INCONSISTENT_CELLS = frozenset(
    {("mon-stripline-120", 20), ("mon-stripline-120", 50), ("mon-stripline-120", 75)}
)


def _printed_value(printed: str) -> tuple[float, float]:
    """Parse a printed number and return (value, half printed quantum)."""
    bare = printed.replace(",", "")
    decimals = len(bare.split(".")[1]) if "." in bare else 0
    return float(bare), 0.5 * 10.0**-decimals


#: Relative band a computed cell may sit from its printed figure.
_RELATIVE_TOLERANCE = 0.05


def published_tolerance(printed: str) -> tuple[float, float]:
    """(value, allowed absolute deviation) for one printed table cell.

    The printed figures are rounded to their last digit, so the rounding
    half-quantum rides on top of the relative band — without it a 5% check
    against e.g. a printed "0.2" would be unmeetably tight.
    """
    value, quantum = _printed_value(printed)
    return value, _RELATIVE_TOLERANCE * value + quantum


class DensityRow(namedtuple("DensityRow", "preset frequency_ghz layers computed published within_tolerance")):
    """One preset's density (Mbit/cm^2) at one drive frequency and layer count,
    with its published figure (None: unpublished) and verdict (None: no
    anchor, the figure being unpublished or flagged)."""

    __slots__ = ()


class FactorRow(namedtuple("FactorRow", "preset computed published within_tolerance")):
    __slots__ = ()


class DensityReport(namedtuple("DensityReport", "rows factors")):
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(r.within_tolerance is not False for r in self.rows) and all(
            f.within_tolerance for f in self.factors
        )


def _row(spec: LineSpec, freq_ghz: float, printed: str | None = None) -> DensityRow:
    """One density cell, checked against its printed figure when one is given
    (unless the cell is flagged inconsistent)."""
    computed = density_mbit_per_cm2(spec, freq_ghz * 1e9)
    if printed is None:
        return DensityRow(spec.name, freq_ghz, spec.layers, computed, None, None)
    value, allowed = published_tolerance(printed)
    checked = (spec.name, freq_ghz) not in INCONSISTENT_CELLS
    within = abs(computed - value) <= allowed if checked else None
    return DensityRow(spec.name, freq_ghz, spec.layers, computed, value, within)


def reproduce_published(factor_tolerance: float = 0.001) -> DensityReport:
    """Re-derive the full published table and verify every anchored cell."""
    rows: list[DensityRow] = []
    factors: list[FactorRow] = []
    for spec, _, printed_factor, printed_row in _PRESET_TABLE:
        published, _ = _printed_value(printed_factor)
        computed = speed_factor(spec)
        factors.append(FactorRow(spec.name, computed, published, abs(computed - published) <= factor_tolerance))
        printed_rows = [(spec, printed_row)]
        if spec.name in _PUBLISHED_STACKED:
            layers, stacked_row = _PUBLISHED_STACKED[spec.name]
            printed_rows.append((stacked_spec(spec.name, layers), stacked_row))
        for row_spec, printed in printed_rows:
            rows += (_row(row_spec, freq, cell) for freq, cell in zip(TABLE_FREQUENCIES_GHZ, printed))
    return DensityReport(rows=tuple(rows), factors=tuple(factors))


def build_report(
    specs: Sequence[LineSpec] | None = None,
    frequencies_ghz: Sequence[float] = TABLE_FREQUENCIES_GHZ,
) -> DensityReport:
    """Density rows for arbitrary specs/frequencies, without anchors."""
    specs = list(PRESETS.values()) if specs is None else list(specs)
    rows = [_row(spec, freq) for spec in specs for freq in frequencies_ghz]
    factors = [FactorRow(spec.name, speed_factor(spec), float("nan"), True) for spec in specs]
    return DensityReport(rows=tuple(rows), factors=tuple(factors))


def stacked_spec(name: str, layers: int) -> LineSpec:
    """A preset re-labeled for an n-layer stacking projection."""
    return PRESETS[name]._replace(layers=layers)


# --- rendering ---------------------------------------------------------------

def report_to_csv(report: DensityReport) -> str:
    def verdict(value: bool | None) -> str:
        if value is None:
            return ""
        return "ok" if value else "FAIL"

    lines = ["preset,frequency_ghz,layers,speed_factor,density_mbit_cm2,published,verdict"]
    factor_by_preset = {f.preset: f.computed for f in report.factors}
    for r in report.rows:
        published = "" if r.published is None else f"{r.published:g}"
        lines.append(
            f"{r.preset},{r.frequency_ghz},{r.layers},{factor_by_preset[r.preset]:.6f},"
            f"{r.computed:.6f},{published},{verdict(r.within_tolerance)}"
        )
    return "\n".join(lines) + "\n"


def report_to_text(report: DensityReport) -> str:
    freqs = sorted({r.frequency_ghz for r in report.rows})
    by_key: dict[tuple[str, int], dict[int, DensityRow]] = {}
    for r in report.rows:
        by_key.setdefault((r.preset, r.layers), {})[r.frequency_ghz] = r

    name_w = max(len("preset"), *(len(p) for p, _ in by_key)) + 2
    header = f"{'preset':<{name_w}}{'layers':>6} {'v/c':>8}"
    for f in freqs:
        header += f" {f'{f:g} GHz':>10}"
    lines = [header]

    factor_by_preset = {f.preset: f.computed for f in report.factors}
    anchored = any(r.published is not None for r in report.rows)
    for (preset, layers), cells in by_key.items():
        line = f"{preset:<{name_w}}{layers:>6} {factor_by_preset[preset]:>8.4f}"
        for f in freqs:
            row = cells.get(f)
            line += f" {row.computed:>10.3f}" if row is not None else f" {'-':>10}"
        lines.append(line)

    if anchored:
        checked = [r for r in report.rows if r.within_tolerance is not None]
        bad = [r for r in checked if not r.within_tolerance]
        flagged = sum(1 for r in report.rows if r.published is not None and r.within_tolerance is None)
        lines.append("")
        lines.append(
            f"verified {len(checked) - len(bad)}/{len(checked)} published cells"
            + (f" ({flagged} flagged-inconsistent cells reported unchecked)" if flagged else "")
        )
        for r in bad:
            lines.append(
                f"  MISMATCH {r.preset} @ {r.frequency_ghz} GHz: "
                f"computed {r.computed:.3f} vs published {r.published:g}"
            )
        factor_bad = [f for f in report.factors if not f.within_tolerance]
        for f in factor_bad:
            lines.append(
                f"  MISMATCH {f.preset} v/c: computed {f.computed:.4f} vs published {f.published:g}"
            )
    return "\n".join(lines) + "\n"
