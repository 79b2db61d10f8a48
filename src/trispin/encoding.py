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
    SectorOperators,
    basis_state,
    build_hamiltonian,
    exchange_term,
    invariant_blocks,
    single_lq_graph,
    two_lq_graph,
)
from .linalg import max_abs


class TrackingError(RuntimeError):
    """The tracked quartet levels disagree (lambda_01 and lambda_10 split)."""


@dataclass(frozen=True)
class LogicalBasis:
    """|0_L>, |1_L> of one triple embedded in the full 2^n space."""

    triple: tuple[int, int, int]
    n_sites: int
    zero_l: np.ndarray
    one_l: np.ndarray

    @property
    def columns(self) -> np.ndarray:
        return np.stack([self.zero_l, self.one_l], axis=1)


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Traceless logical-block matrix plus the discarded identity part."""

    matrix: np.ndarray
    trace_offset: float
    off_block_residual: float = 0.0


@dataclass(frozen=True)
class LambdaTriple:
    """Tracked two-LQ eigenvalues adiabatically connected to |00>, |01>, |11>."""

    j14: float
    lambda_00: float
    lambda_01: float
    lambda_11: float

    @property
    def entangling_rate(self) -> float:
        """Conditional-phase combination lambda_00 + lambda_11 - 2 lambda_01."""
        return self.lambda_00 + self.lambda_11 - 2 * self.lambda_01


def _component_states(triple: tuple[int, int, int]):
    a, b, c = triple
    s2 = 1 / np.sqrt(2)
    s6 = 1 / np.sqrt(6)
    zero = ((s2, (c,)), (-s2, (b,)))
    one = ((s6, (c,)), (s6, (b,)), (-2 * s6, (a,)))
    return zero, one


def logical_basis(triple: tuple[int, int, int], n_sites: int) -> LogicalBasis:
    """Logical doublet of one triple; all other sites in the all-up reference."""
    if len(set(triple)) != 3 or not all(0 <= s < n_sites for s in triple):
        raise ValueError(f"invalid triple {triple} for {n_sites} sites")
    zero_parts, one_parts = _component_states(tuple(triple))
    zero = sum(coef * basis_state(n_sites, downs) for coef, downs in zero_parts)
    one = sum(coef * basis_state(n_sites, downs) for coef, downs in one_parts)
    return LogicalBasis(tuple(triple), n_sites, zero, one)


def two_lq_basis(n_sites: int = 6,
                 triples: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (3, 4, 5)),
                 ) -> np.ndarray:
    """Columns |00>, |01>, |10>, |11> for two triples in one register."""
    parts = [_component_states(t) for t in triples]
    cols = []
    for a_label in (0, 1):
        for b_label in (0, 1):
            vec = np.zeros(2**n_sites, dtype=np.complex128)
            for ca, da in parts[0][a_label]:
                for cb, db in parts[1][b_label]:
                    vec += ca * cb * basis_state(n_sites, da + db)
            cols.append(vec)
    return np.stack(cols, axis=1)


def effective_h1(j12: float, j13: float, j23: float, h: float = 0.0) -> EffectiveHamiltonian:
    """Exact 2x2 logical Hamiltonian of one triple, split as traceless + offset.

    The offset collects the exchange trace -(J12+J13+J23)/4 and, when a field
    is given, the Zeeman energy -h/2 common to the S_z=+1/2 doublet.
    """
    for v in (j12, j13, j23, h):
        if not np.isfinite(v):
            raise ValueError("couplings and field must be finite")
    diag = (j12 + j13 - 2 * j23) / 4
    off = np.sqrt(3) * (j12 - j13) / 4
    matrix = np.array([[diag, off], [off, -diag]], dtype=np.complex128)
    offset = -(j12 + j13 + j23) / 4 - h / 2
    return EffectiveHamiltonian(matrix, offset)


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
    """Expectation of the singlet projector 1/4 - S_i . S_j on one pair."""
    state = np.asarray(state, dtype=np.complex128)
    i, j = pair
    proj = 0.25 * np.eye(2**n_sites) - exchange_term(n_sites, i, j)
    val = float(np.real(state.conj() @ proj @ state))
    return min(max(val, 0.0), 1.0)


@dataclass(frozen=True)
class GroundStateReport:
    """Outcome of degeneracy-breaking initialization via a J23 shift."""

    label: str | None
    overlap: float
    splitting: float


def initialization_ground(j23_shift: float, h: float = 0.75) -> GroundStateReport:
    """Which logical state becomes the unique ground state when J23 is shifted.

    Raising J23 favors the (b, c) singlet, so positive shifts select |0_L>
    and negative shifts select |1_L>.  Shifts outside (-0.75, 0.75) cross a
    non-logical level and are rejected.
    """
    if not abs(j23_shift) < 0.75:
        raise ValueError("shift outside the crossing-free window (-0.75, 0.75)")
    hmat = build_hamiltonian(single_lq_graph(j23=1.0 + j23_shift, h=h))
    basis = logical_basis((0, 1, 2), 3)
    vals, vecs = np.linalg.eigh(hmat)
    splitting = float(vals[1] - vals[0])
    if splitting <= 1e-9:
        return GroundStateReport(None, 0.0, splitting)
    ground = vecs[:, 0]
    ov0 = abs(basis.zero_l.conj() @ ground) ** 2
    ov1 = abs(basis.one_l.conj() @ ground) ** 2
    if ov0 >= ov1:
        return GroundStateReport("0_L", float(ov0), splitting)
    return GroundStateReport("1_L", float(ov1), splitting)


# ---------------------------------------------------------------------------
# Two-LQ eigenvalue tracking
# ---------------------------------------------------------------------------

class _SectorTracker:
    """Quartet levels of the two-LQ register, each from its invariant block.

    Every (j14, shift) Hamiltonian of the m=+1 sector is H(0, 0) + j14 dH/dj14
    + shift dH/dshift.  The shift moves J23 and J56 together, so the three
    generators keep both triple swap symmetries and each quartet column stays
    in its own invariant block (dimensions 1, 2, 2 and 3).  The level
    adiabatically connected to a column is the lowest level of its block.

    The name and ``walk`` remain from the overlap-tracking walk this replaced:
    the benchmark traces ``_SectorTracker.walk`` by name, and the tests count
    its calls.
    """

    def __init__(self, h: float = 0.75):
        graph = two_lq_graph(h=h)
        ops = SectorOperators(6, graph.pairs, ms=(1.0,))
        (grp,) = ops.groups
        terms = grp.terms[:, 0]
        idle = grp.hamiltonians(ops.weights(graph), h)[0]
        # edge order of two_lq_graph: (1, 2) and (4, 5) are 2 and 5, (0, 3) is 6
        generators = np.stack([idle, terms[6], terms[2] + terms[5]])
        columns = two_lq_basis()[grp.indices[0]].real
        self.blocks = [(col, basis.T @ generators @ basis)
                       for (col,), basis in invariant_blocks(generators, columns)]

    def walk(self, path: list[tuple[float, float]]) -> np.ndarray:
        """Quartet levels [l00, l01, l10, l11] at each (j14, j23_shift) point of ``path``.

        One batched ``eigvalsh`` call per block covers every point; each point's
        levels are independent of the rest of the path.
        """
        j14, shift = np.reshape(path, (-1, 2)).T[:, :, None, None]
        out = np.empty((len(path), 4))
        for col, (idle, d_j14, d_shift) in self.blocks:
            out[:, col] = np.linalg.eigvalsh(idle + j14 * d_j14 + shift * d_shift)[:, 0]
        return out


def lambda_curve(j14_values, h: float = 0.75, j23_shift: float = 0.0) -> np.ndarray:
    """Tracked quartet eigenvalues on an ascending, nonnegative J14 grid."""
    grid = [float(x) for x in j14_values]
    if not np.isfinite(grid + [j23_shift]).all():
        raise ValueError("j14 grid and j23 shift must be finite")
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("j14 grid must be ascending and nonnegative")
    return _SectorTracker(h).walk([(x, j23_shift) for x in grid])


def lambda_spectrum(j14: float, h: float = 0.75, j23_shift: float = 0.0) -> LambdaTriple:
    """Tracked lambda_00, lambda_01, lambda_11 at one inter-LQ coupling value."""
    if j14 < 0:
        raise ValueError("j14 must be nonnegative")
    row = lambda_curve([j14], h, j23_shift)[0]
    if abs(row[1] - row[2]) > 1e-9:
        raise TrackingError(f"lambda_01/lambda_10 split by {row[1] - row[2]:.3e}")
    return LambdaTriple(j14, float(row[0]), float((row[1] + row[2]) / 2), float(row[3]))


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


def verify_lambda_polynomials(j14_grid, h: float = 0.75) -> list[dict]:
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
    for j14, (l00, l01a, l01b, l11) in zip(grid, rows):
        l01 = (l01a + l01b) / 2
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
