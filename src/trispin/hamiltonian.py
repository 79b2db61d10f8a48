"""Spin operators and Heisenberg + Zeeman Hamiltonians on arbitrary coupling graphs.

Units: energies in units of the idle exchange J (hbar = 1), time in 1/J.
Basis convention: site 0 occupies the most significant bit of the product
basis index and bit 0 means spin up, so |up up down> on three sites is index 1.
The Zeeman term is -h * sum_i S_z^i, which makes the S_z = +1/2 sector the
ground sector for h > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128) / 2
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128) / 2
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128) / 2
_AXES = {"x": SX, "y": SY, "z": SZ}

IDLE_FIELD = 0.75


@dataclass(frozen=True)
class CouplingGraph:
    """Exchange-coupled spin-1/2 sites in a global Zeeman field.

    ``edges`` holds (i, j, J_ij) with 0 <= i < j < n_sites and no duplicates.
    """

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    field_h: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if not math.isfinite(self.field_h):
            raise ValueError("field_h must be finite")
        norm = []
        seen = set()
        for (i, j, jij) in self.edges:
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"edge ({i},{j}) violates 0 <= i < j < n_sites")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not math.isfinite(jij):
                raise ValueError(f"coupling J({i},{j}) must be finite")
            seen.add((i, j))
            norm.append((int(i), int(j), float(jij)))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "field_h", float(self.field_h))

    @property
    def dim(self) -> int:
        return 2**self.n_sites

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(i, j) of each edge, in edge order."""
        return tuple((i, j) for (i, j, _) in self.edges)

    def coupling(self, i: int, j: int) -> float:
        i, j = min(i, j), max(i, j)
        for (a, b, jij) in self.edges:
            if (a, b) == (i, j):
                return jij
        return 0.0

    def with_couplings(self, updates: dict[tuple[int, int], float]) -> "CouplingGraph":
        """Copy with selected edge strengths replaced (edges must exist)."""
        updates = {(min(i, j), max(i, j)): float(v) for (i, j), v in updates.items()}
        missing = set(updates) - set(self.pairs)
        if missing:
            raise ValueError(f"unknown edges {sorted(missing)}")
        new_edges = tuple(
            (i, j, updates.get((i, j), jij)) for (i, j, jij) in self.edges
        )
        return CouplingGraph(self.n_sites, new_edges, self.field_h)


@dataclass(frozen=True)
class SectorBasis:
    """Product-basis indices with a fixed total magnetization m."""

    m: float
    indices: tuple[int, ...] = field(default_factory=tuple)


def single_lq_graph(j12: float = 1.0, j13: float = 1.0, j23: float = 1.0,
                    h: float = IDLE_FIELD) -> CouplingGraph:
    """One logical qubit on sites (0,1,2); idle mode is all couplings 1."""
    return CouplingGraph(3, ((0, 1, j12), (0, 2, j13), (1, 2, j23)), h)


def two_lq_graph(j14: float = 0.0, j23: float = 1.0, j56: float = 1.0,
                 h: float = IDLE_FIELD) -> CouplingGraph:
    """Two logical qubits on sites (0,1,2) and (3,4,5), coupled through (0,3).

    The (0,3) edge is always present (zero in idle mode) so pulse ramps can
    interpolate it without changing the edge set.
    """
    edges = (
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, j23),
        (3, 4, 1.0), (3, 5, 1.0), (4, 5, j56),
        (0, 3, j14),
    )
    return CouplingGraph(6, edges, h)


def spin_operator(n_sites: int, site: int, axis: str) -> np.ndarray:
    """Single-site spin operator sigma_axis/2 embedded in the 2^n space."""
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    try:
        op = _AXES[axis]
    except KeyError:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}") from None
    return np.kron(np.kron(np.eye(2**site), op), np.eye(2**(n_sites - 1 - site)))


def exchange_term(n_sites: int, i: int, j: int) -> np.ndarray:
    """Heisenberg exchange S_i . S_j as a 2^n-dimensional operator.

    It is the Hamiltonian of the single edge (i, j) at unit coupling and zero field.
    """
    return build_hamiltonian(CouplingGraph(n_sites, ((min(i, j), max(i, j), 1.0),)))


def total_spin(n_sites: int, axis: str) -> np.ndarray:
    """Sum of single-site spin operators along one axis."""
    return sum(spin_operator(n_sites, site, axis) for site in range(n_sites))


def build_hamiltonian(g: CouplingGraph) -> np.ndarray:
    """H = sum_ij J_ij S_i . S_j  -  h sum_i S_z^i, assembled from its S_z sector blocks."""
    ops = SectorOperators(g.n_sites, g.pairs)
    return ops.embed(ops.blocks(ops.weights(g), g.field_h)).astype(np.complex128)


def sz_sectors(n_sites: int) -> list[SectorBasis]:
    """Partition the product basis by total S_z, highest m first."""
    buckets: dict[int, list[int]] = {}
    for idx in range(2**n_sites):
        ups = n_sites - bin(idx).count("1")
        buckets.setdefault(ups, []).append(idx)
    return [
        SectorBasis(m=ups - n_sites / 2, indices=tuple(buckets[ups]))
        for ups in sorted(buckets, reverse=True)
    ]


@dataclass(frozen=True)
class SectorGroup:
    """Blocks of equal size, stacked for batched eigensolves.

    ``terms[e, k]`` is the exchange operator of edge ``e`` on block ``k`` (real
    symmetric), and ``m[k]`` the magnetization of the sector holding the block.
    For whole sectors ``indices[k]`` are the sector's product-basis indices;
    groups of projected invariant blocks carry ``None``.
    """

    m: np.ndarray
    indices: np.ndarray | None
    terms: np.ndarray

    def hamiltonians(self, weights: np.ndarray, field_h) -> np.ndarray:
        """Hamiltonian blocks at edge ``weights``, with matching leading batch axes on ``field_h``.

        Each row is its own matrix-vector product, so it equals its unbatched block.
        """
        weights = np.asarray(weights, dtype=float)
        field_h = np.asarray(field_h, dtype=float)[..., None, None, None]
        # an explicit row length, not -1, so that an empty edge set reshapes too
        terms = self.terms.reshape(len(self.terms), math.prod(self.terms.shape[1:]))
        exchange = weights[..., None, :] @ terms
        return (exchange.reshape(weights.shape[:-1] + self.terms.shape[1:])
                - field_h * self.m[:, None, None] * np.eye(self.terms.shape[-1]))


class SectorOperators:
    """Exchange operators of a fixed edge set, block by block in total S_z.

    Every Hamiltonian built from exchange and a uniform field conserves total
    S_z, so it is the direct sum of its sector blocks, and the Zeeman term is
    the constant -h m on the sector of magnetization m.  The blocks come from
    bit operations on the product index.  They are the one builder of
    exchange operators here (``build_hamiltonian`` and ``exchange_term`` embed
    them); the tests check them against Kronecker products of Pauli matrices
    (``kron_hamiltonian`` in ``tests/test_hamiltonian.py``).  ``ms`` keeps
    only the listed sectors.
    """

    def __init__(self, n_sites: int, pairs, ms=None):
        self.n_sites = int(n_sites)
        self.pairs = tuple((int(i), int(j)) for (i, j) in pairs)
        by_size: dict[int, list[SectorBasis]] = {}
        for s in sz_sectors(self.n_sites):
            if ms is None or s.m in ms:
                by_size.setdefault(len(s.indices), []).append(s)
        self.groups = []
        for group in by_size.values():
            idx = np.array([s.indices for s in group])
            self.groups.append(
                SectorGroup(np.array([s.m for s in group]), idx, self._exchange_blocks(idx)))

    def _exchange_blocks(self, idx: np.ndarray) -> np.ndarray:
        # S_i . S_j is +1/4 on parallel spins and -1/4 on antiparallel ones,
        # plus 1/2 between a state and its (i, j) flip-flop partner.
        n_sec, size = idx.shape
        pos = np.empty(2**self.n_sites, dtype=np.intp)
        pos[idx] = np.arange(size)
        out = np.zeros((len(self.pairs), n_sec, size, size))
        diag = np.arange(size)
        for e, (i, j) in enumerate(self.pairs):
            bi, bj = 1 << (self.n_sites - 1 - i), 1 << (self.n_sites - 1 - j)
            differ = ((idx & bi) != 0) != ((idx & bj) != 0)
            out[e][:, diag, diag] = np.where(differ, -0.25, 0.25)
            sec, col = np.nonzero(differ)
            out[e, sec, pos[idx[sec, col] ^ (bi | bj)], col] = 0.5
        return out

    def weights(self, g: CouplingGraph) -> np.ndarray:
        """Couplings of ``g``, a graph on this site count and edge set (in order)."""
        if g.n_sites != self.n_sites or g.pairs != self.pairs:
            raise ValueError("need graphs sharing one site count and one edge set")
        return np.array([jij for (_, _, jij) in g.edges])

    def blocks(self, weights: np.ndarray, field_h) -> list[np.ndarray]:
        """Hamiltonian blocks, one stack per group (see ``SectorGroup.hamiltonians``)."""
        return [grp.hamiltonians(weights, field_h) for grp in self.groups]

    def spectra(self, graphs: list[CouplingGraph]) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues of H and exact total-S_z labels, one row per graph.

        The graphs have this site count and edge set (in order); each sector
        size takes one ``eigvalsh`` call for the whole batch.  Every level
        carries its sector's magnetization, also inside degeneracies across
        sectors.
        """
        weights = np.array([self.weights(g) for g in graphs])
        fields = np.array([g.field_h for g in graphs])
        vals, labels = [], []
        for grp, stack in zip(self.groups, self.blocks(weights, fields)):
            ev = np.linalg.eigvalsh(stack)
            vals.append(ev.reshape(len(graphs), -1))
            labels.append(np.repeat(grp.m, ev.shape[-1]))
        vals, labels = np.concatenate(vals, axis=1), np.concatenate(labels)
        order = np.argsort(vals, axis=1, kind="stable")
        return np.take_along_axis(vals, order, axis=1), labels[order]

    def embed(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Full 2^n matrix with the given sector blocks on its diagonal."""
        dim = 2**self.n_sites
        full = np.zeros((dim, dim), dtype=np.result_type(*blocks))
        for grp, stack in zip(self.groups, blocks):
            for idx, blk in zip(grp.indices, stack):
                full[np.ix_(idx, idx)] = blk
        return full


# Relative singular value below which a closure direction counts as absent.
# Too small a cut only adds a spurious direction (a larger, still invariant
# block); too large a cut would drop a real one.
CLOSURE_TOL = 1e-12


def _closure(generators: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest generator-invariant subspace holding ``vectors``."""
    basis, rank = vectors, 0
    while True:
        u, s, _ = np.linalg.svd(np.concatenate([basis, *(generators @ basis)], axis=1),
                                full_matrices=False)
        grown = int(np.count_nonzero(s > CLOSURE_TOL * s[0]))
        if grown == rank:
            return basis
        basis, rank = u[:, :grown], grown


def invariant_blocks(generators, columns) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Smallest subspaces that hold the ``columns`` and are closed under the ``generators``.

    Each column is closed by applying the (real symmetric) generators and
    orthonormalizing until the SVD rank stops growing; columns whose closures
    overlap share one block.  Returns (column indices, orthonormal basis) per
    block.  Every real combination of the generators leaves each block
    invariant, so a ramp between two generators does too; a generator that
    breaks a symmetry only makes the blocks larger.
    """
    generators = np.asarray(generators, dtype=float)
    columns = np.asarray(columns, dtype=float)
    members = [[c] for c in range(columns.shape[1])]
    while True:
        bases = [_closure(generators, columns[:, m]) for m in members]
        pair = next(((a, b) for a in range(len(bases)) for b in range(a)
                     if np.max(np.abs(bases[a].T @ bases[b])) > CLOSURE_TOL), None)
        if pair is None:
            return [(tuple(m), basis) for m, basis in zip(members, bases)]
        a, b = pair
        members[b] = sorted(members[b] + members.pop(a))


def sector_spectrum(g: CouplingGraph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of H and the exact total S_z of each level."""
    vals, labels = SectorOperators(g.n_sites, g.pairs).spectra([g])
    return vals[0], labels[0]


def basis_state(n_sites: int, down_sites: tuple[int, ...]) -> np.ndarray:
    """Product state with the given sites down and all others up."""
    idx = 0
    for s in down_sites:
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} out of range")
        idx |= 1 << (n_sites - 1 - s)
    v = np.zeros(2**n_sites, dtype=np.complex128)
    v[idx] = 1.0
    return v
