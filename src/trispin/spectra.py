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

from .encoding import _SectorTracker, effective_h1
from .gates import (
    PulseSchedule,
    Segment,
    cphase_gate,
    ramp_steps,
    synthesize_cphase,
    two_lq_report,
)
from .hamiltonian import SectorOperators, sector_spectrum, single_lq_graph, two_lq_graph

MU_B_MICROEV_PER_TESLA = 57.88
INTRA_COUPLINGS = ("j12", "j13", "j23")


def _check_grid(grid) -> None:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")


@dataclass(frozen=True)
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


def _sweep(name: str, lo: float, hi: float, n_points: int, graph_at, logical_at, gap_fn):
    """Spectra, logical levels and gaps on a uniform grid, plus ``gap_at(x)`` off it.

    ``graph_at(x)`` gives the graph at one value and ``logical_at(xs)`` the
    logical levels at an array of values, one row each; ``gap_fn(spectra,
    logical)`` is the gap of each row.  The graphs share an edge set, so one
    ``SectorOperators`` serves the grid (one batched solve) and every probe.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("sweep bounds must be finite")
    if not lo < hi:
        raise ValueError("sweep needs its lower bound below its upper bound")
    grid = np.linspace(lo, hi, n_points)
    # bounds closer than n_points steps of a double repeat grid values
    _check_grid(grid)
    graphs = [graph_at(x) for x in grid]
    ops = SectorOperators(graphs[0].n_sites, graphs[0].pairs)
    spectra, sz = ops.spectra(graphs)
    logical = logical_at(grid)

    def gap_at(x: float) -> float:
        vals, _ = ops.spectra([graph_at(x)])
        return float(gap_fn(vals, logical_at(np.array([x])))[0])

    return SweepResult(name, grid, spectra, gap_fn(spectra, logical), sz, logical), gap_at


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


def _field_sweep(h_min: float, h_max: float, n_points: int):
    return _sweep("h", h_min, h_max, n_points, lambda h: single_lq_graph(h=h),
                  lambda hs: idle_logical_energy(hs)[:, None], _doublet_gap)


def sweep_field(h_min: float, h_max: float, n_points: int) -> SweepResult:
    """Idle single-LQ spectrum and protection gap across the Zeeman field."""
    return _field_sweep(h_min, h_max, n_points)[0]


def optimal_field(h_lo: float, h_hi: float, tol: float = 1e-6,
                  coarse_points: int = 33) -> float:
    """Field maximizing the signed idle gap (``field_gap``) on [h_lo, h_hi].

    A ternary search to within ``tol`` (finite and positive) around the
    argmax of a coarse grid, which guards against non-unimodal data: the
    search is confined to the bracket around the best grid point.  The
    maximum is h = 3/4 whenever the range holds it, else the end nearer to it.
    The probes reuse the grid's operators.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    coarse, gap_at = _field_sweep(h_lo, h_hi, coarse_points)
    k = int(np.argmax(coarse.gap))
    lo = coarse.grid[max(k - 1, 0)]
    hi = coarse.grid[min(k + 1, coarse_points - 1)]
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if gap_at(m1) < gap_at(m2):
            lo = m1
        else:
            hi = m2
    return float((lo + hi) / 2)


def _logical_pairs(which: str, xs, h: float) -> np.ndarray:
    """Exact logical levels at each coupling value, from one batched ``eigvalsh``."""
    effs = [effective_h1(**{"j12": 1.0, "j13": 1.0, "j23": 1.0, which: x}, h=h) for x in xs]
    offsets = np.array([eff.trace_offset for eff in effs])
    return np.linalg.eigvalsh(np.stack([eff.matrix for eff in effs])) + offsets[:, None]


def _bisect_zero(fn, lo: float, hi: float, tol: float) -> float:
    flo = fn(lo)
    if flo == 0.0:
        return lo
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def _find_crossings(fn, grid: np.ndarray, gaps: np.ndarray,
                    tol: float = 1e-6) -> CrossingReport:
    # A gap of exactly zero at a grid point is that point's crossing, so
    # the interval ending there is not searched again.
    crossings = []
    for a, b, ga, gb in zip(grid[:-1], grid[1:], gaps[:-1], gaps[1:]):
        if ga == 0.0:
            crossings.append(float(a))
        elif gb != 0.0 and (ga > 0) != (gb > 0):
            crossings.append(float(_bisect_zero(fn, a, b, tol)))
    if len(gaps) and gaps[-1] == 0.0:
        crossings.append(float(grid[-1]))
    return CrossingReport(tuple(crossings))


def sweep_intra(which: str, j_min: float, j_max: float, n_points: int,
                h: float = 0.75) -> tuple[SweepResult, CrossingReport]:
    """Spectrum during a single-LQ gate coupling excursion, with crossings."""
    if which not in INTRA_COUPLINGS:
        raise ValueError(f"which must be one of {INTRA_COUPLINGS}")
    result, gap_at = _sweep(
        which, j_min, j_max, n_points, lambda x: single_lq_graph(**{which: x}, h=h),
        lambda xs: _logical_pairs(which, xs, h), _gap_above)
    return result, _find_crossings(gap_at, result.grid, result.gap)


def sweep_inter(j_min: float, j_max: float, n_points: int,
                h: float = 0.75) -> tuple[SweepResult, CrossingReport]:
    """Two-LQ spectrum against the inter-triple coupling, with the gap closing.

    The logical quartet energies are the lowest levels of the quartet's
    invariant blocks, from one tracker on the grid and at every bisection probe.
    """
    if j_min < 0:
        raise ValueError("j_min must be nonnegative")
    tracker = _SectorTracker(h)
    result, gap_at = _sweep("j14", j_min, j_max, n_points, lambda x: two_lq_graph(j14=x, h=h),
                            lambda xs: tracker.walk([(x, 0.0) for x in xs]), _gap_above)
    return result, _find_crossings(gap_at, result.grid, result.gap)


@dataclass(frozen=True)
class AdiabaticPoint:
    ramp_time: float
    max_leakage: float
    fidelity: float
    conditional_phase: float | None


def adiabatic_leakage_curve(phi: float, j14_peak: float, ramp_times,
                            n_calibration_steps: int = 160,
                            steps_per_unit_time: float = 100.0,
                            h: float = 0.75,
                            ramp_shape: str = "smooth") -> list[AdiabaticPoint]:
    """Leakage and fidelity of the conditional phase gate vs ramp duration.

    A zero peak coupling degenerates to idle evolution: exactly zero leakage
    at every ramp time (and no conditional phase, whatever ``phi`` asked).
    """
    target = cphase_gate(phi)
    out = []
    for ramp in ramp_times:
        if j14_peak == 0.0:
            idle = two_lq_graph(h=h)
            schedule = PulseSchedule((Segment(ramp, idle, idle, "linear"),
                                      Segment(ramp, idle, idle, "linear")), 6, idle=idle)
        else:
            schedule = synthesize_cphase(phi, j14_peak, ramp,
                                         n_calibration_steps=n_calibration_steps,
                                         h=h, ramp_shape=ramp_shape)
        n_steps = ramp_steps(schedule, steps_per_unit_time)
        report = two_lq_report(schedule, target, n_steps)
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
