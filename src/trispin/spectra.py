"""Parameter sweeps, gap extraction, level-crossing location, and unit conversion.

The logical energies entering every gap are exact: intra-triple sweeps use
the invariant 2x2 logical block, and inter-LQ sweeps the lowest level of each
quartet column's invariant block.  "Gap" always means (lowest non-logical
level) minus (highest logical level): the quantity that reaches zero exactly
where the logical levels stop being the ground levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import _check_bounds, _check_grid, _SectorTracker, effective_h1, uniform_grid
from .gates import (
    CALIBRATION_NODES,
    STEPS_PER_UNIT_TIME,
    PulseSchedule,
    check_calibration,
    check_cphase_ramp,
    constant_segment,
    cphase_gate,
    synthesize_cphase,
    two_lq_report,
)
from .hamiltonian import (IDLE_FIELD, SectorOperators, sector_spectrum, single_lq_graph,
                          two_lq_graph)
from .linalg import Budget, is_integer, regula_falsi

MU_B_MICROEV_PER_TESLA = 57.88
INTRA_COUPLINGS = ("j12", "j13", "j23")  # the edge order of single_lq_graph
CROSSING_MAX_PROBES = 100
# Ramp times of one ``adiabatic_leakage_curve``, each a calibrated and
# propagated CZ: 32 of ramp 500 at the node and step caps of ``gates`` took
# 21 s and 36 MB, and 32 of the default 5, 10, 20, 40 took 0.64 s.
MAX_RAMP_TIMES = Budget(32, "ramp times")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Spectra tabulated over one swept parameter.

    ``spectra`` rows are ascending eigenvalues, ``sz_labels`` the matching
    total-S_z sector labels, ``logical`` the exact logical level(s), and
    ``gap`` the distance from the top logical level to the nearest level
    outside the logical set (negative past a crossing).
    """

    parameter_name: str
    grid: np.ndarray
    spectra: np.ndarray
    gap: np.ndarray
    sz_labels: np.ndarray
    logical: np.ndarray

    def __post_init__(self):
        _check_grid(self.grid)


@dataclass(frozen=True)
class CrossingReport:
    """Parameter values where the tracked gap reaches zero."""

    crossings: tuple[float, ...]


@dataclass(frozen=True)
class PhysicalUnits:
    """Dimensionful translation of the dimensionless working point."""

    j_microev: float
    g_factor: float
    b_tesla: float
    gap_microev: float


def _unmatched(spectra: np.ndarray, targets) -> np.ndarray:
    """Mask of the levels left after removing, row by row, the one nearest each target in turn.

    ``targets[p, t]`` is matched within row ``p`` of ``spectra``; ties go to the
    lowest index still left.
    """
    left = np.ones(spectra.shape, dtype=bool)
    rows = np.arange(len(spectra))
    for column in np.asarray(targets, dtype=float).T:
        dist = np.where(left, np.abs(spectra - column[:, None]), np.inf)
        left[rows, np.argmin(dist, axis=1)] = False
    return left


def _gap_above(spectra: np.ndarray, logical) -> np.ndarray:
    """Lowest unmatched level minus the top logical level, per row."""
    rest = np.where(_unmatched(spectra, logical), spectra, np.inf)
    return np.min(rest, axis=1) - np.max(logical, axis=1)


def _sweep(name: str, lo: float, hi: float, n_points: int, base, edge, logical_at, gap_fn):
    """Spectra, logical levels and gaps on a uniform grid, plus ``gap_at(x)`` off it.

    Value x is one row: the couplings and field of ``base`` with x in place of
    coupling ``edge`` (an index into its edges; ``None``: the field), solved in
    one batch for the grid.  ``logical_at(xs)`` gives the logical levels at an
    array of values, one row each; ``gap_fn(spectra, logical)`` each row's gap.
    """
    if is_integer(n_points) and n_points < 2:  # any other count fails in uniform_grid
        raise ValueError("n_points must be at least 2")
    grid = uniform_grid(lo, hi, n_points)
    ops = SectorOperators(base.n_sites, base.pairs)
    row = np.append(ops.weights(base), base.field_h)  # the field is the last column
    swept = np.arange(len(row)) == (len(row) - 1 if edge is None else edge)

    def solve(xs: np.ndarray):  # the spectra, gap, sz_labels and logical of SweepResult
        table = np.where(swept, xs[:, None], row)
        spectra, sz = ops.spectra(table[:, :-1], table[:, -1])
        logical = logical_at(xs)
        return spectra, gap_fn(spectra, logical), sz, logical

    def gap_at(x: float) -> float:
        return float(solve(np.array([x]))[1][0])

    return SweepResult(name, grid, *solve(grid)), gap_at


def idle_logical_energy(h: float) -> float:
    """Energy of the degenerate logical doublet of an idle triple: -3/4 - h/2."""
    return -0.75 - h / 2


def _doublet_gap(spectra: np.ndarray, logical) -> np.ndarray:
    """``_gap_above`` of the idle level counted twice: the doublet holds two states."""
    return _gap_above(spectra, np.repeat(logical, 2, axis=1))


def field_gap(h: float) -> float:
    """Protection gap of an idle triple: lowest level outside the doublet minus the doublet.

    It is min(h, 3/2 - h) for h >= -3/2, so negative where the doublet is
    not the ground (h < 0 or h > 3/2).
    """
    vals, _ = sector_spectrum(single_lq_graph(h=h))
    return float(_doublet_gap(vals[None], [[idle_logical_energy(h)]])[0])


def sweep_field(h_min: float, h_max: float, n_points: int) -> SweepResult:
    """Idle single-LQ spectrum and protection gap across the Zeeman field."""
    return _sweep("h", h_min, h_max, n_points, single_lq_graph(), None,
                  lambda hs: idle_logical_energy(hs)[:, None], _doublet_gap)[0]


def optimal_field(h_lo: float, h_hi: float) -> float:
    """Field maximizing the signed idle gap (``field_gap``) on [h_lo, h_hi].

    The field enters H only as -h S_z, so each level is a line eps - h m,
    with eps and m from one solve at h = 0.  Measured from the doublet at
    -3/4 - h/2, the gap is the lowest of the lines a + b h of the other
    levels, a = eps + 3/4 and b = 1/2 - m.  That minimum is concave, so its
    maximum lies at an end of the range or where two lines cross inside it:
    h = 3/4 whenever the range holds it, else the end nearer to it.
    """
    _check_bounds(h_lo, h_hi)
    idle = single_lq_graph(h=0.0)
    ops = SectorOperators(3, idle.pairs)
    eps, m = ops.levels(ops.weights(idle)[None], [idle.field_h])
    # at h = 0 the doublet (m = +1/2) is degenerate with the m = -1/2 pair,
    # so it is picked by the sector it was solved in as well as by energy
    rest = _unmatched(np.where(m == 0.5, eps, np.inf), [[-0.75, -0.75]])[0]
    a, b = eps[0, rest] + 0.75, 0.5 - m[rest]
    i, j = np.nonzero(b[:, None] != b)
    cross = (a[j] - a[i]) / (b[i] - b[j])
    hs = np.concatenate(([h_lo, h_hi], cross[(h_lo < cross) & (cross < h_hi)]))
    return float(hs[np.argmax(np.min(a + b * hs[:, None], axis=1))])


def _find_crossings(fn, grid: np.ndarray, gaps: np.ndarray) -> CrossingReport:
    """Zeros of the gap ``fn`` at the sign changes of ``gaps``, exact to rounding.

    Each is closed in by ``regula_falsi`` at tolerance 0.  A gap of exactly zero
    at a grid point is that point's crossing; the interval ending there is skipped.
    """
    crossings = []
    for a, b, ga, gb in zip(grid[:-1], grid[1:], gaps[:-1], gaps[1:]):
        if ga == 0.0:
            crossings.append(float(a))
        elif gb != 0.0 and (ga > 0) != (gb > 0):
            sign = np.sign(ga)
            x, _, _ = regula_falsi(lambda t: (sign * fn(t), None), a, b, (sign * ga, None),
                                   (sign * gb, None), 0.0, CROSSING_MAX_PROBES)
            crossings.append(float(x))
    if len(gaps) and gaps[-1] == 0.0:
        crossings.append(float(grid[-1]))
    return CrossingReport(tuple(crossings))


def sweep_intra(which: str, j_min: float, j_max: float, n_points: int,
                h: float = IDLE_FIELD) -> tuple[SweepResult, CrossingReport]:
    """Spectrum during a single-LQ gate coupling excursion, with crossings."""
    if which not in INTRA_COUPLINGS:
        raise ValueError(f"which must be one of {INTRA_COUPLINGS}")

    def logical_at(xs: np.ndarray) -> np.ndarray:  # exact, from one batched eigvalsh
        eff = effective_h1(**{"j12": 1.0, "j13": 1.0, "j23": 1.0, which: xs}, h=h)
        return np.linalg.eigvalsh(eff.matrix) + eff.trace_offset[:, None]

    result, gap_at = _sweep(which, j_min, j_max, n_points, single_lq_graph(h=h),
                            INTRA_COUPLINGS.index(which), logical_at, _gap_above)
    return result, _find_crossings(gap_at, result.grid, result.gap)


def sweep_inter(j_min: float, j_max: float, n_points: int,
                h: float = IDLE_FIELD) -> tuple[SweepResult, CrossingReport]:
    """Two-LQ spectrum against the inter-triple coupling, with the gap closing.

    The logical quartet energies are the lowest levels of the quartet's
    invariant blocks, from one tracker on the grid and at every crossing probe,
    less h (m = +1); lambda_01 stands twice, as the |01> and |10> levels.
    """
    if j_min < 0:
        raise ValueError("j_min must be nonnegative")
    tracker, base = _SectorTracker(), two_lq_graph(h=h)
    result, gap_at = _sweep(
        "j14", j_min, j_max, n_points, base, base.pairs.index((0, 3)),
        lambda xs: tracker.walk(np.column_stack((xs, np.zeros(len(xs)))))[:, [0, 1, 1, 2]] - h,
        _gap_above)
    return result, _find_crossings(gap_at, result.grid, result.gap)


@dataclass(frozen=True)
class AdiabaticPoint:
    ramp_time: float
    max_leakage: float
    fidelity: float
    conditional_phase: float | None


def adiabatic_leakage_curve(phi: float, j14_peak: float, ramp_times,
                            n_calibration_steps: int = CALIBRATION_NODES,
                            steps_per_unit_time: float = STEPS_PER_UNIT_TIME,
                            h: float = IDLE_FIELD,
                            ramp_shape: str = "smooth") -> list[AdiabaticPoint]:
    """Leakage and fidelity of the conditional phase gate vs ramp duration.

    At most ``MAX_RAMP_TIMES`` ramp times, each passing ``gates.check_cphase_ramp``,
    and ``gates.check_calibration`` are checked before any work, at every peak.
    A zero peak coupling is one exact hold at idle, of the same reach: leakage
    zero to rounding at every ramp time (and no conditional phase, whatever ``phi`` asked).
    """
    ramp_times = list(ramp_times)
    MAX_RAMP_TIMES.check(len(ramp_times))
    for ramp in ramp_times:
        check_cphase_ramp(ramp, steps_per_unit_time)
    check_calibration(n_calibration_steps, ramp_shape)
    target = cphase_gate(phi)
    out = []
    for ramp in ramp_times:
        if j14_peak == 0.0:
            idle = two_lq_graph(h=h)
            schedule = PulseSchedule((constant_segment(2 * ramp, idle),), 6, idle=idle)
        else:
            schedule = synthesize_cphase(phi, j14_peak, ramp,
                                         n_calibration_steps=n_calibration_steps,
                                         h=h, ramp_shape=ramp_shape)
        report = two_lq_report(schedule, target, steps_per_unit_time)
        out.append(AdiabaticPoint(float(ramp), report.max_leakage,
                                  report.fidelity, report.conditional_phase))
    return out


def to_physical(j_microev: float, g_factor: float, h: float) -> PhysicalUnits:
    """Translate the dimensionless working point into laboratory units.

    h = g mu_B B / J with mu_B = 57.88 microeV/T, so
    B = h J / (g mu_B); the protection gap is ``field_gap(h) * J``, negative
    above h = 3/2, where the doublet is no longer the ground.
    """
    if not np.isfinite([j_microev, g_factor, h]).all():
        raise ValueError("exchange scale, g-factor and field must be finite")
    if j_microev <= 0 or g_factor <= 0:
        raise ValueError("exchange scale and g-factor must be positive")
    if h < 0:
        raise ValueError("field must be nonnegative")
    b_tesla = h * j_microev / (g_factor * MU_B_MICROEV_PER_TESLA)
    gap = field_gap(h) * j_microev
    return PhysicalUnits(j_microev, g_factor, float(b_tesla), float(gap))
