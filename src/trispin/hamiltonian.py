"""Heisenberg + Zeeman Hamiltonians on arbitrary coupling graphs, one block per S_z sector.

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

from .linalg import DEGENERACY_TOL, Budget, is_integer

IDLE_FIELD = 0.75  # the working field: the default h of every call and command
# Largest register ``sz_sectors`` (so every sector builder) accepts: the
# exchange blocks of one edge hold C(2n, n) doubles (1.5 MB at n = 10, 4.8 GB
# at n = 16), and the S_z sectors are sorted state by state in Python.
MAX_SITES = Budget(10, "sites")


@dataclass(frozen=True)
class CouplingGraph:
    """Exchange-coupled spin-1/2 sites in a global Zeeman field.

    ``edges`` holds (i, j, J_ij) with 0 <= i < j < n_sites and no duplicates.
    The site count and the site indices are integers (``linalg.is_integer``).
    """

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    field_h: float = 0.0

    def __post_init__(self):
        if not is_integer(self.n_sites):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        if not math.isfinite(self.field_h):
            raise ValueError("field_h must be finite")
        norm = []
        seen = set()
        for (i, j, jij) in self.edges:
            if not (is_integer(i) and is_integer(j)):
                raise ValueError(f"edge ({i!r},{j!r}) needs integer sites")
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


def exchange_term(n_sites: int, i: int, j: int) -> np.ndarray:
    """Heisenberg exchange S_i . S_j as a 2^n-dimensional operator.

    It is the Hamiltonian of the single edge (i, j) at unit coupling and zero field.
    """
    return build_hamiltonian(CouplingGraph(n_sites, ((min(i, j), max(i, j), 1.0),)))


def build_hamiltonian(g: CouplingGraph) -> np.ndarray:
    """H = sum_ij J_ij S_i . S_j  -  h sum_i S_z^i: exchange sector blocks, then the field."""
    ops = SectorOperators(g.n_sites, g.pairs)
    sz = np.diag([g.n_sites / 2 - bin(idx).count("1") for idx in range(2**g.n_sites)])
    return ops.embed(ops.blocks(ops.weights(g))).astype(np.complex128) - g.field_h * sz


def sz_sectors(n_sites: int) -> list[SectorBasis]:
    """Partition the product basis by total S_z, highest m first; at most ``MAX_SITES`` sites."""
    MAX_SITES.check(n_sites)
    buckets: dict[int, list[int]] = {}
    for idx in range(2**n_sites):
        ups = n_sites - bin(idx).count("1")
        buckets.setdefault(ups, []).append(idx)
    return [
        SectorBasis(m=ups - n_sites / 2, indices=tuple(buckets[ups]))
        for ups in sorted(buckets, reverse=True)
    ]


@dataclass(frozen=True)
class SectorBlock:
    """Exchange operators of one S_z sector, or of one invariant block projected from one.

    ``terms[e]`` is the exchange operator of edge ``e`` on the block (real
    symmetric), and ``m`` the magnetization of the sector holding the block.
    For a whole sector ``indices`` are its product-basis indices; projected
    blocks carry ``None``.  No block holds the field.
    """

    m: float
    indices: np.ndarray | None
    terms: np.ndarray

    def exchange(self, weights: np.ndarray) -> np.ndarray:
        """Exchange block at edge ``weights`` (linear in them), after their leading batch axes.

        Each row is its own matrix-vector product, so it equals its unbatched block.
        """
        weights = np.asarray(weights, dtype=float)
        n_edges, d = len(self.terms), self.terms.shape[-1]
        # an explicit row length, not -1, so that an empty edge set reshapes too
        return (weights[..., None, :] @ self.terms.reshape(n_edges, d * d)
                ).reshape(weights.shape[:-1] + (d, d))


class SectorOperators:
    """Exchange operators of a fixed edge set, one ``SectorBlock`` per total-S_z sector.

    Every Hamiltonian built from exchange and a uniform field conserves total
    S_z, so it is the direct sum of its sector blocks, and the Zeeman term is
    the constant -h m on the sector of magnetization m, which ``spectra`` adds
    to the exchange levels.  The blocks come from bit operations on the product
    index, each sector on its own, so a block does not depend on which other
    sectors are built.  They are the one builder of exchange operators here
    (``build_hamiltonian`` and ``exchange_term`` embed them); the tests check
    them against Kronecker products of Pauli matrices
    (``kron_hamiltonian`` in ``tests/test_hamiltonian.py``).  ``sectors``
    lists them highest m first, as ``sz_sectors`` does; ``ms`` keeps only
    the listed sectors.
    """

    def __init__(self, n_sites: int, pairs, ms=None):
        self.n_sites = int(n_sites)
        self.pairs = tuple((int(i), int(j)) for (i, j) in pairs)
        self.sectors = []
        for s in sz_sectors(self.n_sites):
            if ms is None or s.m in ms:
                idx = np.array(s.indices)
                self.sectors.append(SectorBlock(s.m, idx, self._exchange_blocks(idx)))

    def _exchange_blocks(self, idx: np.ndarray) -> np.ndarray:
        # S_i . S_j is +1/4 on parallel spins and -1/4 on antiparallel ones,
        # plus 1/2 between a state and its (i, j) flip-flop partner.
        size = len(idx)
        pos = np.empty(2**self.n_sites, dtype=np.intp)
        pos[idx] = np.arange(size)
        # every edge at once: bit i and bit j of each state, one row per edge
        bi, bj = (1 << (self.n_sites - 1 - np.array(self.pairs, dtype=np.intp).reshape(-1, 2))).T
        differ = ((idx & bi[:, None]) != 0) != ((idx & bj[:, None]) != 0)
        out = np.zeros((len(self.pairs), size, size))
        diag = np.arange(size)
        out[:, diag, diag] = np.where(differ, -0.25, 0.25)
        edge, col = np.nonzero(differ)
        out[edge, pos[idx[col] ^ (bi | bj)[edge]], col] = 0.5
        return out

    def weights(self, g: CouplingGraph) -> np.ndarray:
        """Couplings of ``g``, a graph on this site count and edge set: a row of ``levels``."""
        if g.n_sites != self.n_sites or g.pairs != self.pairs:
            raise ValueError("need graphs sharing one site count and one edge set")
        return np.array([jij for (_, _, jij) in g.edges])

    def blocks(self, weights: np.ndarray) -> list[np.ndarray]:
        """Exchange blocks, one per sector (see ``SectorBlock.exchange``)."""
        return [s.exchange(weights) for s in self.sectors]

    def levels(self, weights, fields) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of H, sector by sector, one row per point, and the S_z of each column.

        Point p has the couplings ``weights[p]``, in ``pairs`` order, and the
        field ``fields[p]``; each sector takes one ``eigvalsh`` call for the
        whole batch.  Each level keeps the sector magnetization it was solved in.
        """
        fields = np.asarray(fields, dtype=float)
        vals = [np.linalg.eigvalsh(stack) - fields[:, None] * s.m
                for s, stack in zip(self.sectors, self.blocks(weights))]
        labels = [np.full(v.shape[1], s.m) for s, v in zip(self.sectors, vals)]
        return np.concatenate(vals, axis=1), np.concatenate(labels)

    def spectra(self, weights, fields) -> tuple[np.ndarray, np.ndarray]:
        """Ascending ``levels`` and exact total-S_z labels, one row per point.

        Every level carries a sector's magnetization, also inside degeneracies
        across sectors: in a run of levels each within the degeneracy
        tolerance of the next (``linalg.DEGENERACY_TOL`` of the row's largest
        magnitude), the labels go highest m first, as ``sz_sectors`` lists
        them, so that rounding does not order them.
        """
        vals, labels = self.levels(weights, fields)
        order = np.argsort(vals, axis=1, kind="stable")
        vals, labels = np.take_along_axis(vals, order, axis=1), labels[order]
        tol = DEGENERACY_TOL * np.max(np.abs(vals), axis=1, keepdims=True)
        runs = np.cumsum(np.diff(vals, axis=1, prepend=-np.inf) > tol, axis=1)
        return vals, np.take_along_axis(labels, np.lexsort((-labels, runs)), axis=1)

    def embed(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Full 2^n matrix with the given sector blocks on its diagonal."""
        dim = 2**self.n_sites
        full = np.zeros((dim, dim), dtype=np.result_type(*blocks))
        for s, blk in zip(self.sectors, blocks):
            full[np.ix_(s.indices, s.indices)] = blk
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


def projected_blocks(ops: SectorOperators, weights, columns
                     ) -> list[tuple[tuple[int, ...], SectorBlock, np.ndarray]]:
    """(column indices, projected block, basis) of each invariant block of real ``columns``.

    ``ops`` holds one S_z sector, whose rows the columns are on.  The blocks
    are closed under the exchange blocks of the edge ``weights`` (one row
    each); the field is -h m I inside the sector, so they hold at every h.
    """
    (sector,) = ops.sectors
    return [(cols, SectorBlock(sector.m, None, basis.T @ sector.terms @ basis), basis)
            for cols, basis in invariant_blocks(sector.exchange(weights), columns)]


def sector_spectrum(g: CouplingGraph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of H and the exact total S_z of each level."""
    ops = SectorOperators(g.n_sites, g.pairs)
    vals, labels = ops.spectra(ops.weights(g)[None], [g.field_h])
    return vals[0], labels[0]


def basis_state(n_sites: int, down_sites: tuple[int, ...]) -> np.ndarray:
    """Product state with the given sites down and all others up; at most ``MAX_SITES`` sites."""
    MAX_SITES.check(n_sites)
    idx = 0
    for s in down_sites:
        if not 0 <= s < n_sites:
            raise ValueError(f"site {s} out of range")
        idx |= 1 << (n_sites - 1 - s)
    v = np.zeros(2**n_sites, dtype=np.complex128)
    v[idx] = 1.0
    return v
