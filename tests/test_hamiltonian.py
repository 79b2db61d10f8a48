import itertools
import math

import numpy as np
import pytest

from trispin.hamiltonian import (
    CouplingGraph,
    SectorOperators,
    basis_state,
    build_hamiltonian,
    exchange_term,
    sector_spectrum,
    single_lq_graph,
    two_lq_graph,
)
from trispin.linalg import BudgetError, max_abs

PAULI_HALF = tuple(np.array(m, dtype=np.complex128) / 2 for m in (
    [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
AXES = dict(zip("xyz", PAULI_HALF))


def kron_spin(n_sites: int, k: int, op: np.ndarray) -> np.ndarray:
    """The one-site operator ``op`` on site ``k`` of ``n_sites``, as a Kronecker product."""
    return np.kron(np.kron(np.eye(2**k), op), np.eye(2**(n_sites - 1 - k)))


def total_spin(n_sites: int, axis: str) -> np.ndarray:
    """Total spin along ``axis`` ("x", "y" or "z"), summed from Kronecker products."""
    return sum(kron_spin(n_sites, k, AXES[axis]) for k in range(n_sites))


def swap_matrix(n_sites: int, i: int, j: int) -> np.ndarray:
    """Permutation matrix exchanging the spins at sites i and j."""
    dim = 2**n_sites
    p = np.zeros((dim, dim))
    for idx in range(dim):
        bi = (idx >> (n_sites - 1 - i)) & 1
        bj = (idx >> (n_sites - 1 - j)) & 1
        out = idx & ~(1 << (n_sites - 1 - i)) & ~(1 << (n_sites - 1 - j))
        out |= bj << (n_sites - 1 - i)
        out |= bi << (n_sites - 1 - j)
        p[out, idx] = 1.0
    return p


def kron_hamiltonian(g: CouplingGraph) -> np.ndarray:
    """H of ``g`` from Kronecker products of Pauli matrices / 2: the oracle for the sector builder."""
    n = g.n_sites
    exchange = sum(jij * kron_spin(n, i, s) @ kron_spin(n, j, s)
                   for (i, j, jij) in g.edges for s in PAULI_HALF)
    return exchange - g.field_h * total_spin(n, "z")


def expm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) of a Hermitian matrix, from its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


class TestExchangeTerm:
    def test_singlet_triplet_split(self):
        vals = np.linalg.eigvalsh(exchange_term(2, 0, 1))
        assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_swap_identity(self):
        # exp(-i pi (S.S + 1/4)) is the SWAP permutation up to a global phase
        for (n, i, j) in ((2, 0, 1), (3, 0, 2)):
            op = exchange_term(n, i, j) + 0.25 * np.eye(2**n)
            u = expm(op, np.pi)
            swap = swap_matrix(n, i, j)
            phase = u[0, 0] / swap[0, 0]
            assert abs(abs(phase) - 1) < 1e-12
            assert max_abs(u - phase * swap) < 1e-9

    @pytest.mark.parametrize("n,i,j", [(2, 0, 1), (3, 1, 2), (4, 0, 3)])
    def test_traceless(self, n, i, j):
        assert abs(np.trace(exchange_term(n, i, j))) < 1e-12

    def test_rejects_equal_sites(self):
        with pytest.raises(ValueError):
            exchange_term(3, 1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_the_kron_oracle_bit_for_bit(self, n):
        for i, j in itertools.permutations(range(n), 2):
            term = exchange_term(n, i, j)
            edge = CouplingGraph(n, ((min(i, j), max(i, j), 1.0),))
            assert term.dtype == np.complex128
            assert np.array_equal(term, kron_hamiltonian(edge))


class TestBuildHamiltonian:
    def test_zero_couplings_zero_field(self):
        g = CouplingGraph(3, ((0, 1, 0.0), (0, 2, 0.0), (1, 2, 0.0)), 0.0)
        assert max_abs(build_hamiltonian(g)) == 0.0

    def test_idle_lq_spectrum(self):
        vals = np.linalg.eigvalsh(build_hamiltonian(single_lq_graph(h=0.75)))
        expected = np.array([-9 / 8, -9 / 8, -3 / 8, -3 / 8, -3 / 8, 3 / 8, 9 / 8, 15 / 8])
        assert np.allclose(vals, expected, atol=1e-12)
        assert np.sum(np.abs(vals - vals[0]) < 1e-9) == 2
        assert abs((vals[2] - vals[0]) - 0.75) < 1e-12

    def test_two_idle_lqs_ground(self):
        vals = np.linalg.eigvalsh(build_hamiltonian(two_lq_graph(h=0.75)))
        assert np.sum(np.abs(vals - (-9 / 4)) < 1e-9) == 4
        assert abs(vals[0] - (-9 / 4)) < 1e-12

    def test_commutes_with_total_sz(self):
        rng = np.random.default_rng(23)
        edges = tuple((i, j, rng.normal()) for i, j in itertools.combinations(range(4), 2))
        h = build_hamiltonian(CouplingGraph(4, edges, rng.normal()))
        assert max_abs(h @ total_spin(4, "z") - total_spin(4, "z") @ h) <= 1e-12

    def test_global_su2_symmetry_at_zero_field(self):
        rng = np.random.default_rng(29)
        edges = tuple((i, j, rng.normal()) for i, j in itertools.combinations(range(3), 2))
        h = build_hamiltonian(CouplingGraph(3, edges, 0.0))
        for axis in ("x", "y"):
            s = total_spin(3, axis)
            assert max_abs(h @ s - s @ h) <= 1e-12

    def test_casimir_shift_of_equal_triangle(self):
        # For the complete equal-coupling triangle, E(S) = (J/2)(S(S+1) - 9/4),
        # so J -> J + c shifts each multiplet by (c/2)(S(S+1) - 9/4).
        rng = np.random.default_rng(31)
        c = rng.uniform(-0.5, 0.5)
        v1 = np.linalg.eigvalsh(build_hamiltonian(
            single_lq_graph(1 + c, 1 + c, 1 + c, h=0.4)))
        oracle = []
        for s, count in ((0.5, 2), (1.5, 1)):
            e = ((1 + c) / 2) * (s * (s + 1) - 9 / 4)
            for _ in range(count):
                for k in range(int(2 * s) + 1):
                    oracle.append(e - 0.4 * (-s + k))
        assert np.allclose(v1, np.sort(oracle), atol=1e-10)

    def test_spectrum_invariant_under_relabeling(self):
        rng = np.random.default_rng(37)
        edges = tuple((i, j, rng.uniform(0.2, 1.8))
                      for i, j in itertools.combinations(range(4), 2))
        g = CouplingGraph(4, edges, 0.6)
        perm = rng.permutation(4)
        relabeled = tuple((min(perm[i], perm[j]), max(perm[i], perm[j]), jij)
                          for (i, j, jij) in edges)
        g2 = CouplingGraph(4, relabeled, 0.6)
        v1 = np.linalg.eigvalsh(build_hamiltonian(g))
        v2 = np.linalg.eigvalsh(build_hamiltonian(g2))
        assert np.max(np.abs(v1 - v2)) < 1e-10


class TestSectors:
    def test_three_site_sizes(self):
        sizes = {s.m: len(s.indices) for s in SectorOperators(3, ()).sectors}
        assert sizes == {1.5: 1, 0.5: 3, -0.5: 3, -1.5: 1}

    def test_six_site_m_plus_one(self):
        sector = next(s for s in SectorOperators(6, ()).sectors if s.m == 1.0)
        assert len(sector.indices) == 15

    def test_sector_sizes_sum(self):
        assert sum(len(s.indices) for s in SectorOperators(5, ()).sectors) == 32

    def test_sectors_partition_the_product_basis(self):
        for n_sites in range(1, 11):
            sectors = SectorOperators(n_sites, ()).sectors
            ks = range(n_sites + 1)
            assert [len(s.indices) for s in sectors] == [math.comb(n_sites, k) for k in ks]
            # highest m first
            assert [s.m for s in sectors] == [n_sites / 2 - k for k in ks]
            for k, s in zip(ks, sectors):
                assert np.all(np.diff(s.indices) > 0)
                # a set bit is a down spin
                assert all(bin(i).count("1") == k for i in s.indices)
            assert sorted(np.concatenate([s.indices for s in sectors])) == list(range(2**n_sites))

    def test_no_cross_sector_elements(self):
        h = build_hamiltonian(single_lq_graph(h=0.75))
        mask = np.zeros_like(h, dtype=bool)
        for s in SectorOperators(3, ()).sectors:
            mask[np.ix_(s.indices, s.indices)] = True
        assert max_abs(h[~mask]) <= 1e-15


class TestCouplingGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, ((1, 0, 1.0),))
        with pytest.raises(ValueError):
            CouplingGraph(3, ((0, 1, 1.0), (0, 1, 2.0)))
        with pytest.raises(ValueError):
            CouplingGraph(2, ((0, 1, np.inf),))

    # a float or a bool is not read as the integer it rounds or converts to
    @pytest.mark.parametrize("n_sites,edges", [
        (2.5, ((0, 1, 1.0),)), (3.0, ((0, 1, 1.0),)), (True, ()),
        (3, ((0.5, 2, 1.0),)), (3, ((0, 2.0, 1.0),)), (3, ((False, 1, 1.0),)),
    ])
    def test_rejects_non_integral_sites(self, n_sites, edges):
        with pytest.raises(ValueError, match="integer"):
            CouplingGraph(n_sites, edges)

    def test_numpy_integers_give_the_int_graph(self):
        g = CouplingGraph(np.int64(3), ((np.int64(0), np.int32(2), 1.0),), 0.5)
        assert g == CouplingGraph(3, ((0, 2, 1.0),), 0.5)
        assert {type(x) for x in (g.n_sites, *g.edges[0][:2])} == {int}

    def test_with_couplings(self):
        g = two_lq_graph()
        g2 = g.with_couplings({(0, 3): 0.4, (1, 2): 1.1})
        assert g2.coupling(0, 3) == 0.4
        assert g2.coupling(1, 2) == 1.1
        assert g.coupling(0, 3) == 0.0
        with pytest.raises(ValueError):
            g.with_couplings({(0, 4): 1.0})

    @pytest.mark.parametrize("n_sites,down", [(3, (2.5,)), (2.5, (0,)), (3, (True,))])
    def test_basis_state_rejects_non_integral_sites(self, n_sites, down):
        with pytest.raises(ValueError, match="integer"):
            basis_state(n_sites, down)

    def test_basis_state_indexing(self):
        # site 0 is the most significant bit; bit set means spin down
        v = basis_state(3, (2,))
        assert v[1] == 1.0 and np.sum(np.abs(v)) == 1.0
        v = basis_state(3, (0,))
        assert v[4] == 1.0


class TestSectorOperators:
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 6])
    def test_blocks_equal_restricted_exchange_terms(self, n_sites):
        pairs = list(itertools.combinations(range(n_sites), 2))
        ops = SectorOperators(n_sites, pairs)
        oracle = [kron_hamiltonian(CouplingGraph(n_sites, ((i, j, 1.0),))) for (i, j) in pairs]
        # one block per sector, highest m first
        assert [s.m for s in ops.sectors] == [n_sites / 2 - k for k in range(n_sites + 1)]
        seen = 0
        for sector in ops.sectors:
            idx = sector.indices
            seen += len(idx)
            for e, term in enumerate(oracle):
                block = term[np.ix_(idx, idx)]
                assert np.array_equal(sector.terms[e], block.real)
                assert not np.any(block.imag)
        assert seen == 2**n_sites

    def test_embedded_blocks_rebuild_the_hamiltonian(self):
        g = two_lq_graph(j14=0.4, j23=1.2, h=0.6)
        ops = SectorOperators(g.n_sites, [(i, j) for (i, j, _) in g.edges])
        exchange = ops.embed(ops.blocks(ops.weights(g)))
        assert max_abs(exchange - kron_hamiltonian(CouplingGraph(6, g.edges))) <= 1e-14
        assert max_abs(build_hamiltonian(g) - kron_hamiltonian(g)) <= 1e-14

    def test_selected_sectors_only(self):
        ops = SectorOperators(6, [(0, 1)], ms=(1.0,))
        assert [s.m for s in ops.sectors] == [1.0]
        assert ops.sectors[0].indices.shape == (15,)
        assert ops.sectors[0].terms.shape == (1, 15, 15)

    @pytest.mark.parametrize("g", [
        CouplingGraph(3, ((0, 1, 1.0), (1, 2, 1.0))),
        CouplingGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))),
        CouplingGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))),
    ])
    def test_weights_reject_another_edge_set(self, g):
        # a missing pair would otherwise read as a zero coupling
        ops = SectorOperators(3, single_lq_graph().pairs)
        with pytest.raises(ValueError, match="edge set"):
            ops.weights(g)

    # a site off the register, a self-loop, a float site, a negative site, no
    # sites, a float site count, a reversed pair, a str and a None site count
    @pytest.mark.parametrize("n_sites,pairs", [
        (3, [(0, 3)]), (3, [(1, 1)]), (3, [(0, 2.5)]), (3, [(0, -1)]),
        (0, []), (2.5, []), (3, [(1, 0)]), ("3", []), (None, []),
    ])
    def test_bad_registers_are_rejected_before_any_operator(self, monkeypatch, n_sites, pairs):
        monkeypatch.setattr(SectorOperators, "_exchange_blocks", _no_operators)
        with pytest.raises(ValueError) as err:
            SectorOperators(n_sites, pairs)
        assert not isinstance(err.value, BudgetError)

    def test_oversized_register_is_rejected_before_any_operator(self, monkeypatch):
        monkeypatch.setattr(SectorOperators, "_exchange_blocks", _no_operators)
        with pytest.raises(BudgetError, match="at most 10 sites"):
            SectorOperators(11, [(0, 1)])


def _no_operators(*args, **kwargs):
    raise AssertionError("operators built for a register that is rejected")


def rows(graphs):
    """Operators of the graphs' one edge set, their weight rows and their fields."""
    ops = SectorOperators(graphs[0].n_sites, graphs[0].pairs)
    return ops, np.array([ops.weights(g) for g in graphs]), [g.field_h for g in graphs]


class TestSectorSpectra:
    def test_batch_of_fields_and_couplings(self):
        batch = [two_lq_graph(j14=x, h=h) for x, h in ((0.0, 0.75), (0.3, 0.5), (0.6, 0.0))]
        ops, weights, fields = rows(batch)
        vals, labels = ops.spectra(weights, fields)
        assert vals.shape == labels.shape == (3, 64)
        for g, row in zip(batch, vals):
            assert max_abs(row - np.linalg.eigvalsh(build_hamiltonian(g))) <= 1e-12
            assert np.array_equal(row, sector_spectrum(g)[0])

    @pytest.mark.parametrize("batch", [
        [single_lq_graph(h=h) for h in (0.0, 0.75, 1.5)],
        [two_lq_graph(j14=x, h=0.75) for x in (0.0, 0.3, 0.75)],
    ], ids=["triangle", "two-lq"])
    def test_labels_do_not_depend_on_the_last_bits(self, monkeypatch, batch):
        # levels of different sectors that are degenerate in exact arithmetic
        # keep their labels, highest m first, when rounding moves them by ulps
        ops, weights, fields = rows(batch)
        vals, labels = ops.spectra(weights, fields)
        for row, row_labels in zip(vals, labels):
            degenerate = np.abs(np.diff(row)) <= 1e-12
            assert np.any(degenerate & (np.diff(row_labels) != 0))
        eigvalsh, rng = np.linalg.eigvalsh, np.random.default_rng(7)

        def nudged(a):
            ev = eigvalsh(a)
            return ev + rng.integers(-4, 5, ev.shape) * np.spacing(ev)

        monkeypatch.setattr(np.linalg, "eigvalsh", nudged)
        for _ in range(10):
            assert np.array_equal(ops.spectra(weights, fields)[1], labels)

    # one field for several rows, a row of 2 couplings on 3 edges, one row
    # not in a batch, fields not in a row, a NaN coupling, an infinite field
    @pytest.mark.parametrize("weights,fields", [
        (np.ones((3, 3)), [0.75]), (np.ones((1, 2)), [0.75]), (np.ones(3), [0.75]),
        (np.ones((1, 3)), [[0.75]]), ([[1.0, np.nan, 1.0]], [0.75]), (np.ones((1, 3)), [np.inf]),
    ])
    def test_levels_reject_rows_they_cannot_solve(self, weights, fields):
        ops = SectorOperators(3, single_lq_graph().pairs)
        for solve in (ops.levels, ops.spectra):
            with pytest.raises(ValueError, match="field per row|finite"):
                solve(weights, fields)

    def test_levels_of_valid_rows_are_the_sector_eigenvalues(self):
        batch = [two_lq_graph(j14=x, h=h) for x, h in ((0.2, 0.75), (0.5, 0.0))]
        ops, weights, fields = rows(batch)
        vals, labels = ops.levels(weights, fields)
        for p, (w, h) in enumerate(zip(weights, fields)):
            assert np.array_equal(vals[p], np.concatenate(
                [np.linalg.eigvalsh(s.exchange(w)) - h * s.m for s in ops.sectors]))
        assert np.array_equal(labels, np.concatenate(
            [np.full(len(s.indices), s.m) for s in ops.sectors]))
