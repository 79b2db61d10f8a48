"""Logical qubits encoded in the S=1/2, S_z=+1/2 doublet of three spins.

The logical basis on an (a, b, c) triple is

    |0_L> = (|up up down> - |up down up>) / sqrt(2)
    |1_L> = (|up up down> + |up down up> - 2 |down up up>) / sqrt(6)

|0_L> carries the (b, c) singlet and is antisymmetric under the b<->c swap;
|1_L> carries (b, c) triplets and is symmetric.  Any Hamiltonian built from
intra-triple exchange plus a global field leaves the doublet exactly
invariant, so its 2x2 projection is exact.  Sites outside a triple are fixed
to the all-up reference when embedding in a larger register.

Sign note: the exact traceless projection is

    (1/4) [[J12 + J13 - 2 J23,   sqrt(3) (J12 - J13)],
           [sqrt(3) (J12 - J13), 2 J23 - J12 - J13 ]]

so raising J23 lowers |0_L> (stronger antiferromagnetic coupling favors the
(b, c) singlet).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    IDLE_FIELD,
    SectorOperators,
    basis_state,
    projected_blocks,
    single_lq_graph,
    two_lq_graph,
)
from .linalg import Budget, degeneracy_tol, is_integer, max_abs


@dataclass(frozen=True, eq=False)
class LogicalBasis:
    """|0_L>, |1_L> of one triple embedded in the full 2^n space."""

    triple: tuple[int, int, int]
    n_sites: int
    zero_l: np.ndarray
    one_l: np.ndarray

    @property
    def columns(self) -> np.ndarray:
        return np.stack([self.zero_l, self.one_l], axis=1)


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Traceless logical-block matrix plus the discarded identity part."""

    matrix: np.ndarray
    trace_offset: float
    off_block_residual: float = 0.0


def entangling_rate(lambda_00, lambda_01, lambda_11):
    """Conditional-phase combination lambda_00 + lambda_11 - 2 lambda_01."""
    return lambda_00 + lambda_11 - 2 * lambda_01


@dataclass(frozen=True)
class LambdaTriple:
    """Tracked two-LQ eigenvalues adiabatically connected to |00>, |01>, |11>.

    ``entangling_rate`` is that of their exchange parts: the field cancels from it.
    """

    j14: float
    lambda_00: float
    lambda_01: float
    lambda_11: float
    entangling_rate: float


def logical_basis(triple: tuple[int, int, int], n_sites: int) -> LogicalBasis:
    """Logical doublet of one triple; all other sites in the all-up reference."""
    if len(set(triple)) != 3 or not all(0 <= s < n_sites for s in triple):
        raise ValueError(f"invalid triple {triple} for {n_sites} sites")
    down_a, down_b, down_c = (basis_state(n_sites, (s,)) for s in triple)
    s2, s6 = 1 / np.sqrt(2), 1 / np.sqrt(6)
    zero = s2 * down_c - s2 * down_b
    one = s6 * down_c + s6 * down_b - 2 * s6 * down_a
    return LogicalBasis(tuple(triple), n_sites, zero, one)


def two_lq_basis() -> np.ndarray:
    """Columns |00>, |01>, |10>, |11> of the triples (0, 1, 2) and (3, 4, 5) of six sites."""
    one = logical_basis((0, 1, 2), 3).columns
    # + 0.0 turns the -0.0 of a negative amplitude times a zero into 0.0
    return np.kron(one, one) + 0.0


def effective_h1(j12, j13, j23, h=0.0) -> EffectiveHamiltonian:
    """Exact 2x2 logical Hamiltonian of one triple, split as traceless + offset.

    The offset collects the exchange trace -(J12+J13+J23)/4 and, when a field
    is given, the Zeeman energy -h/2 common to the S_z=+1/2 doublet.  Arrays
    broadcast to ``(..., 2, 2)`` matrices and offsets equal to the scalar calls.
    """
    j12, j13, j23, h = np.broadcast_arrays(j12, j13, j23, h)
    if not np.isfinite([j12, j13, j23, h]).all():
        raise ValueError("couplings and field must be finite")
    diag = (j12 + j13 - 2 * j23) / 4
    off = np.sqrt(3) * (j12 - j13) / 4
    matrix = np.moveaxis(np.array([[diag, off], [off, -diag]], dtype=complex), (0, 1), (-2, -1))
    offset = -(j12 + j13 + j23) / 4 - h / 2
    return EffectiveHamiltonian(matrix, offset if np.ndim(offset) else float(offset))


def project_effective(h: np.ndarray, basis) -> EffectiveHamiltonian:
    """Project a Hamiltonian onto a logical basis (2 or 4 columns).

    Returns the traceless block, the trace offset, and the max-modulus
    off-block residual |(I - P) H P|; a nonzero residual means the logical
    subspace is not exactly invariant (expected for inter-LQ couplings).
    """
    cols = basis.columns if isinstance(basis, LogicalBasis) else np.asarray(basis)
    block = cols.conj().T @ h @ cols
    d = block.shape[0]
    offset = float(np.trace(block).real) / d
    residual = max_abs((h @ cols - cols @ block) @ cols.conj().T)
    return EffectiveHamiltonian(block - offset * np.eye(d), offset, residual)


def singlet_probability(state: np.ndarray, pair: tuple[int, int], n_sites: int) -> float:
    """Expectation of the singlet projector 1/4 - S_i . S_j on one pair, S_z sector by sector."""
    i, j = pair
    ops = SectorOperators(n_sites, [(min(i, j), max(i, j))])
    state = np.asarray(state, dtype=np.complex128)
    if state.shape != (2**ops.n_sites,):
        raise ValueError(f"state must have 2**{ops.n_sites} amplitudes")
    if not np.isfinite(state).all():
        raise ValueError("state amplitudes must be finite")
    val = np.vdot(state, state).real / 4 - sum(
        np.einsum("a,ab,b->", state[s.indices].conj(), s.terms[0], state[s.indices]).real
        for s in ops.sectors)
    return min(max(float(val), 0.0), 1.0)


@dataclass(frozen=True)
class GroundStateReport:
    """Outcome of degeneracy-breaking initialization via a J23 shift."""

    label: str | None
    overlap: float
    splitting: float


def initialization_ground(j23_shift: float, h: float = IDLE_FIELD) -> GroundStateReport:
    """Which logical state becomes the unique ground state when J23 is shifted.

    Raising J23 favors the (b, c) singlet, so positive shifts select |0_L>
    and negative shifts select |1_L>.  Shifts outside (-0.75, 0.75) cross a
    non-logical level and are rejected, and so is a field whose ground levels
    hold no m = +1/2 level.  The field is constant on a sector, so a unique
    ground level is the lowest of the m = +1/2 exchange block.
    """
    if not abs(j23_shift) < 0.75:
        raise ValueError("shift outside the crossing-free window (-0.75, 0.75)")
    graph = single_lq_graph(j23=1.0 + j23_shift, h=h)
    ops = SectorOperators(3, graph.pairs)
    (vals,), (labels,) = ops.spectra(ops.weights(graph)[None], [graph.field_h])
    if 0.5 not in labels[vals - vals[0] <= degeneracy_tol(vals)]:
        raise ValueError(f"the ground state at h = {h} is not in the logical doublet")
    splitting = float(vals[1] - vals[0])
    if splitting <= degeneracy_tol(vals):
        return GroundStateReport(None, 0.0, splitting)
    sector = next(s for s in ops.sectors if s.m == 0.5)
    ground = np.linalg.eigh(sector.exchange(ops.weights(graph)))[1][:, 0]
    columns = logical_basis((0, 1, 2), 3).columns[sector.indices]
    ov0, ov1 = np.abs(columns.conj().T @ ground) ** 2
    if ov0 >= ov1:
        return GroundStateReport("0_L", float(ov0), splitting)
    return GroundStateReport("1_L", float(ov1), splitting)


# ---------------------------------------------------------------------------
# Two-LQ eigenvalue tracking
# ---------------------------------------------------------------------------

class _SectorTracker:
    """Quartet levels of the two-LQ register, each from its invariant block.

    The CZ pulse moves the couplings from idle along J14 and along J23 = J56,
    which keeps both triple swap symmetries, so the m = +1 columns |00>, |01>
    and |11> stay in blocks of dimensions 1, 2 and 3.  Swapping the triples
    maps |01> onto |10> and the pulse onto itself, so lambda_10 = lambda_01.
    The level adiabatically connected to a column is the lowest of its block.
    The levels are exchange only: the field adds -h to each (m = +1).

    The name and ``walk`` remain from the overlap-tracking walk this replaced:
    the benchmark traces ``_SectorTracker.walk`` by name, and the tests count
    its calls.
    """

    def __init__(self):
        idle = two_lq_graph()
        ops = SectorOperators(6, idle.pairs, ms=(1.0,))
        # edge weights at idle, per unit of J14 and per unit of the J23 = J56 shift
        self.directions = np.array(
            [ops.weights(idle), [p == (0, 3) for p in idle.pairs],
             [p in ((1, 2), (4, 5)) for p in idle.pairs]], dtype=float)
        columns = two_lq_basis()[ops.sectors[0].indices][:, [0, 1, 3]].real
        self.blocks = [blk for (_,), blk, _ in projected_blocks(ops, self.directions, columns)]

    def walk(self, path) -> np.ndarray:
        """Exchange quartet levels [l00, l01, l11] at each (j14, j23_shift) row of ``path``.

        One batched ``eigvalsh`` call per block covers every point; each point's
        levels are independent of the rest of the path.
        """
        weights = np.insert(np.reshape(path, (-1, 2)), 0, 1.0, axis=1) @ self.directions
        return np.stack([np.linalg.eigvalsh(blk.exchange(weights))[:, 0]
                         for blk in self.blocks], axis=1)


# Grid points of ``lambda_curve`` and of the sweeps in ``spectra``: at the
# cap the largest, ``spectra.sweep_inter``, took 1.6 s and 133 MB.
MAX_GRID_POINTS = Budget(10_000, "points")


def _check_bounds(lo: float, hi: float) -> None:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("sweep bounds must be finite")
    if not lo < hi:
        raise ValueError("sweep needs its lower bound below its upper bound")


def _check_grid(grid) -> None:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2 or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")


def uniform_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    """``np.linspace(lo, hi, n_points)`` once each rule holds, else ``ValueError``.

    The count is an integer from 1 to ``MAX_GRID_POINTS`` (past it, ``BudgetError``),
    the bounds are finite with ``lo < hi`` and ``hi - lo`` finite, and no value repeats.
    """
    if not is_integer(n_points):
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    MAX_GRID_POINTS.check(n_points)
    _check_bounds(lo, hi)
    if not np.isfinite(float(hi) - float(lo)):  # np.linspace would overflow
        raise ValueError("sweep bounds must lie less than the largest double apart")
    grid = np.linspace(lo, hi, n_points)
    # bounds closer than n_points steps of a double repeat grid values
    if n_points > 1:
        _check_grid(grid)
    return grid


def _check_field(h: float) -> None:
    # as ``CouplingGraph`` says it: the quartet walk builds no graph with the field
    if not np.isfinite(h):
        raise ValueError("field_h must be finite")


def lambda_curve(j14_values, h: float = IDLE_FIELD) -> np.ndarray:
    """Tracked quartet levels [l00, l01, l11] (l10 = l01), less h, on ascending J14 >= 0."""
    _check_field(h)
    grid = [float(x) for x in j14_values]
    MAX_GRID_POINTS.check(len(grid))
    if not np.isfinite(grid).all():
        raise ValueError("j14 grid must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("j14 grid must be ascending and nonnegative")
    return _SectorTracker().walk(np.column_stack((grid, np.zeros(len(grid))))) - h


def lambda_triples(j14_values, h: float = IDLE_FIELD) -> list[LambdaTriple]:
    """``lambda_spectrum`` at each point of an ascending J14 >= 0 grid, from one walk.

    The rate is taken from the exchange levels, so it holds at any finite h.
    """
    _check_field(h)
    grid = [float(x) for x in j14_values]
    return [LambdaTriple(x, *map(float, levels - h), float(entangling_rate(*levels)))
            for x, levels in zip(grid, lambda_curve(grid, h=0.0))]


def lambda_spectrum(j14: float, h: float = IDLE_FIELD) -> LambdaTriple:
    """Tracked lambda_00, lambda_01, lambda_11 at one inter-LQ coupling value."""
    if j14 < 0:
        raise ValueError("j14 must be nonnegative")
    return lambda_triples([j14], h)[0]


# ---------------------------------------------------------------------------
# Reference polynomial verification
# ---------------------------------------------------------------------------

def reference_line(lam: float, j14: float) -> float:
    return 4 * lam - (j14 - 3)


def reference_line_corrected(lam: float, j14: float) -> float:
    # Constant 3 replaced by 9; equivalent to lam = -9/4 + j14/4.
    return 4 * lam - (j14 - 9)


def reference_quadratic(lam: float, j14: float) -> float:
    return 16 * lam**2 + 8 * j14 * lam - 3 * j14**2 + 16 * j14 + 27


def reference_quadratic_corrected(lam: float, j14: float) -> float:
    # Characteristic polynomial of the 2-dim block of |01> (h = 0.75): the
    # reference form lacks the 48 lam term, hence its missing real roots.
    return 16 * lam**2 + 8 * (j14 + 6) * lam - 3 * j14**2 + 16 * j14 + 27


def reference_quadratic_discriminant(j14: float) -> float:
    return 256 * j14**2 - 1024 * j14 - 1728


def reference_cubic(lam: float, j14: float) -> float:
    return (64 * lam**3 + 16 * (j14 + 9) * lam**2
            - 4 * (5 * j14**2 - 14 * j14 + 9) * lam
            + 3 * j14**3 - 23 * j14**2 + 37 * j14 - 81)


def verify_lambda_polynomials(j14_grid, h: float = IDLE_FIELD) -> list[dict]:
    """Residuals of the reference polynomial relations against tracked eigenvalues.

    Report-only: each record carries the numeric branches and the residuals of
    every reference relation against both candidate branches, so label problems
    in the reference relations are visible rather than silently corrected.
    The cubic is satisfied by the branch with small-J14 slope 1/36 (the
    non-degenerate |11> branch), the linear relation for lambda_00
    misses by a constant 6 (its corrected constant-9 form is exact), and the
    quadratic has no real roots at small J14 (with its missing 48 lambda term
    it is the exact characteristic polynomial of the |01> branch).
    """
    grid = [float(x) for x in j14_grid]
    rows = lambda_curve(grid, h)
    report = []
    for j14, (l00, l01, l11) in zip(grid, rows):
        report.append({
            "j14": j14,
            "lambda_00": l00,
            "lambda_01": l01,
            "lambda_11": l11,
            "line_residual": abs(reference_line(l00, j14)),
            "line_corrected_residual": abs(reference_line_corrected(l00, j14)),
            "quadratic_residual_on_01": abs(reference_quadratic(l01, j14)),
            "quadratic_corrected_residual_on_01": abs(reference_quadratic_corrected(l01, j14)),
            "quadratic_residual_on_11": abs(reference_quadratic(l11, j14)),
            "quadratic_has_real_roots": reference_quadratic_discriminant(j14) >= 0,
            "cubic_residual_on_01": abs(reference_cubic(l01, j14)),
            "cubic_residual_on_11": abs(reference_cubic(l11, j14)),
        })
    return report
