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
from itertools import islice

import numpy as np

from .hamiltonian import (
    SectorOperators,
    basis_state,
    build_hamiltonian,
    exchange_term,
    single_lq_graph,
    two_lq_graph,
)
from .linalg import max_abs

TRACK_STEP = 1e-3
TRACK_MIN_OVERLAP = 0.5
# Parameter points diagonalized per batched eigh call: tracker substeps here,
# propagation steps in gates.propagate.  Larger chunks are no faster and
# raise the peak memory of a gate.
_CHUNK = 16


class TrackingError(RuntimeError):
    """Adiabatic continuation lost the tracked state (overlap below 0.5)."""


@dataclass(frozen=True)
class LogicalLayout:
    """Disjoint (a, b, c) triples hosting one logical qubit each."""

    n_sites: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        used: set[int] = set()
        for t in self.triples:
            if len(t) != 3:
                raise ValueError(f"triple {t} must have three sites")
            for s in t:
                if not 0 <= s < self.n_sites:
                    raise ValueError(f"site {s} out of range")
                if s in used:
                    raise ValueError(f"site {s} belongs to two triples")
                used.add(s)


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
    """Adiabatic continuation of the logical quartet in the m=+1 sector.

    The two-LQ Hamiltonian conserves total S_z, so tracking runs in the
    15-dimensional m=+1 block.  The J23=J56 shift keeps both triple swap
    symmetries, hence the quartet stays diagonal in the logical basis and
    the product logical states are exact eigenstates at J14 = 0 (the seed).
    """

    def __init__(self, h: float = 0.75):
        graph = two_lq_graph(h=h)
        self.ops = SectorOperators(6, [(i, j) for (i, j, _) in graph.edges], ms=(1.0,))
        self.field_h = h
        self.refs = two_lq_basis()[self.ops.groups[0].indices[0], :]

    def hamiltonian(self, j14: float, shift: float) -> np.ndarray:
        return self._blocks([(j14, shift)])[0]

    def _blocks(self, pts) -> np.ndarray:
        """m=+1 blocks at a batch of (j14, shift) points, one row each."""
        pts = np.asarray(pts, dtype=float)
        w = np.ones((len(pts), 7))
        w[:, 2] = w[:, 5] = 1.0 + pts[:, 1]
        w[:, 6] = pts[:, 0]
        return self.ops.blocks(w, self.field_h)[0][:, 0]

    def walk(self, path: list[tuple[float, float]], step: float = TRACK_STEP,
             refs: np.ndarray | None = None) -> np.ndarray:
        """Eigenvalues of the tracked quartet at each requested path point.

        ``path`` lists (j14, j23_shift) pairs.  Without ``refs`` it starts from
        j14 = 0, where the logical product states seed the continuation
        exactly; ``refs`` is instead a tracked state at ``path[0]`` to resume
        from, and it is left holding the state at the last point.  Substeps
        are inserted so consecutive parameter moves never exceed ``step``.
        The substep points are diagonalized ``_CHUNK`` at a time in one batched
        ``eigh`` call; the overlap selection then runs substep by substep.
        """
        if refs is None:
            if not path or path[0][0] != 0.0:
                raise ValueError("tracking path must start at j14 = 0")
            refs = np.array(self.refs, copy=True)
        out = np.empty((len(path), 4))
        points = _substeps(path, step)
        while chunk := list(islice(points, _CHUNK)):
            vals, vecs = np.linalg.eigh(self._blocks([pt for _, pt in chunk]))
            for (p, pt), levels, states in zip(chunk, vals, vecs):
                out[p] = self._select(levels, states, pt, refs)
        return out

    def _advance(self, pt: tuple[float, float], refs: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.hamiltonian(*pt))
        return self._select(vals, vecs, pt, refs)

    @staticmethod
    def _select(vals: np.ndarray, vecs: np.ndarray, pt: tuple[float, float],
                refs: np.ndarray) -> np.ndarray:
        """Follow each tracked state into the eigenspace it overlaps most (refs in place)."""
        amps = vecs.T @ refs                     # vecs are real
        best = np.argmax(np.abs(amps), axis=0)
        # cls[:, q]: the degeneracy class of the level that q follows
        cls = np.abs(vals[:, None] - vals[best][None, :]) <= 1e-8
        amps = np.where(cls, amps, 0.0)
        weights = np.sum(np.abs(amps) ** 2, axis=0)
        lost = np.flatnonzero(weights < TRACK_MIN_OVERLAP)
        if lost.size:
            raise TrackingError(
                f"tracking ambiguity at (j14={pt[0]:.6f}, shift={pt[1]:.6f}): "
                f"overlap {weights[lost[0]]:.3f} < {TRACK_MIN_OVERLAP}")
        proj = vecs @ amps
        refs[:, :] = proj / np.linalg.norm(proj, axis=0)
        return vals[best]


def _substeps(path, step):
    """Yield (path index, point) for ``path[0]``, then for every substep toward each later point."""
    yield 0, tuple(path[0])
    for p, (prev, cur) in enumerate(zip(path[:-1], path[1:]), start=1):
        dist = max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1]))
        nsub = max(1, int(np.ceil(dist / step)))
        for k in range(1, nsub + 1):
            s = k / nsub
            yield p, (prev[0] + s * (cur[0] - prev[0]), prev[1] + s * (cur[1] - prev[1]))


def track_lambda_path(path: list[tuple[float, float]], h: float = 0.75,
                      step: float = TRACK_STEP) -> np.ndarray:
    """Quartet eigenvalues [l00, l01, l10, l11] along a (j14, shift) path."""
    return _SectorTracker(h).walk(path, step)


def lambda_curve(j14_values, h: float = 0.75, j23_shift: float = 0.0,
                 step: float = TRACK_STEP) -> np.ndarray:
    """Tracked quartet eigenvalues on an ascending J14 grid starting near 0."""
    grid = [float(x) for x in j14_values]
    if any(b < a for a, b in zip(grid, grid[1:])) or (grid and grid[0] < 0):
        raise ValueError("j14 grid must be ascending and nonnegative")
    path = [(0.0, j23_shift)] + [(x, j23_shift) for x in grid]
    return track_lambda_path(path, h, step)[1:]


def lambda_spectrum(j14: float, h: float = 0.75, j23_shift: float = 0.0,
                    step: float = TRACK_STEP) -> LambdaTriple:
    """Tracked lambda_00, lambda_01, lambda_11 at one inter-LQ coupling value."""
    if j14 < 0:
        raise ValueError("j14 must be nonnegative")
    row = lambda_curve([j14], h, j23_shift, step)[0]
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


def reference_quadratic_discriminant(j14: float) -> float:
    return 256 * j14**2 - 1024 * j14 - 1728


def reference_cubic(lam: float, j14: float) -> float:
    return (64 * lam**3 + 16 * (j14 + 9) * lam**2
            - 4 * (5 * j14**2 - 14 * j14 + 9) * lam
            + 3 * j14**3 - 23 * j14**2 + 37 * j14 - 81)


def verify_lambda_polynomials(j14_grid, h: float = 0.75, step: float = TRACK_STEP) -> list[dict]:
    """Residuals of the reference polynomial relations against tracked eigenvalues.

    Report-only: each record carries the numeric branches and the residuals of
    every reference relation against both candidate branches, so label problems
    in the reference relations are visible rather than silently corrected.
    The cubic is satisfied by the branch with small-J14 slope 1/36 (the
    non-degenerate |11> branch), the linear relation for lambda_00
    misses by a constant 6 (its corrected constant-9 form is exact), and the
    quadratic has no real roots at small J14.
    """
    grid = [float(x) for x in j14_grid]
    rows = lambda_curve(grid, h, step=step)
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
            "quadratic_residual_on_11": abs(reference_quadratic(l11, j14)),
            "quadratic_has_real_roots": reference_quadratic_discriminant(j14) >= 0,
            "cubic_residual_on_01": abs(reference_cubic(l01, j14)),
            "cubic_residual_on_11": abs(reference_cubic(l11, j14)),
        })
    return report
