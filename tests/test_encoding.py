import numpy as np
import pytest

from trispin import encoding
from trispin.encoding import (
    TrackingError,
    _SectorTracker,
    effective_h1,
    initialization_ground,
    lambda_curve,
    lambda_spectrum,
    logical_basis,
    project_effective,
    singlet_probability,
    two_lq_basis,
    verify_lambda_polynomials,
)
from trispin.gates import RAMP_PROFILES
from trispin.hamiltonian import (
    SectorOperators,
    build_hamiltonian,
    single_lq_graph,
    total_spin,
    two_lq_graph,
)
from trispin.linalg import max_abs

from test_hamiltonian import swap_matrix


@pytest.fixture(scope="module")
def basis3():
    return logical_basis((0, 1, 2), 3)


class TestLogicalBasis:
    def test_zero_l_amplitudes(self, basis3):
        # |up up down> is index 1, |up down up> is index 2
        v = basis3.zero_l
        assert abs(v[1] - 1 / np.sqrt(2)) < 1e-15
        assert abs(v[2] + 1 / np.sqrt(2)) < 1e-15
        assert np.sum(np.abs(v) > 1e-15) == 2

    def test_orthonormal(self, basis3):
        assert abs(np.vdot(basis3.zero_l, basis3.zero_l) - 1) <= 1e-12
        assert abs(np.vdot(basis3.one_l, basis3.one_l) - 1) <= 1e-12
        assert abs(np.vdot(basis3.zero_l, basis3.one_l)) <= 1e-12

    def test_sz_half_sector(self, basis3):
        sz = total_spin(3, "z")
        for v in (basis3.zero_l, basis3.one_l):
            assert max_abs(sz @ v - 0.5 * v) < 1e-12

    def test_swap_parity(self, basis3):
        swap = swap_matrix(3, 1, 2)
        assert max_abs(swap @ basis3.zero_l + basis3.zero_l) < 1e-12
        assert max_abs(swap @ basis3.one_l - basis3.one_l) < 1e-12

    def test_idle_eigenvectors(self, basis3):
        h = build_hamiltonian(single_lq_graph(h=0.75))
        for v in (basis3.zero_l, basis3.one_l):
            assert max_abs(h @ v - (-9 / 8) * v) < 1e-12

    def test_embedding_in_larger_register(self):
        b = logical_basis((1, 3, 4), 5)
        sz = total_spin(5, "z")
        # unused sites are all-up: total m = 1/2 (triple) + 2 * 1/2
        assert max_abs(sz @ b.zero_l - 1.5 * b.zero_l) < 1e-12

    def test_two_lq_basis_orthonormal(self):
        cols = two_lq_basis()
        assert max_abs(cols.conj().T @ cols - np.eye(4)) < 1e-12

    def test_rejects_bad_triple(self):
        with pytest.raises(ValueError):
            logical_basis((0, 1, 1), 3)


class TestEffectiveH1:
    def test_idle_is_pure_identity(self):
        eff = effective_h1(1.0, 1.0, 1.0)
        assert max_abs(eff.matrix) == 0.0
        assert eff.trace_offset == -0.75

    def test_j23_shift_is_z_generator(self):
        # Raising J23 favors the (b, c) singlet |0_L>: diag(-d/2, +d/2).
        d = 0.3
        eff = effective_h1(1.0, 1.0, 1.0 + d)
        assert np.allclose(eff.matrix, np.diag([-d / 2, d / 2]), atol=1e-15)

    def test_matched_shifts_are_x_generator(self):
        d = 0.2
        eff = effective_h1(1.0 + 2 * d, 1.0, 1.0 + d)
        expected = np.sqrt(3) * d / 2 * np.array([[0, 1], [1, 0]])
        assert np.allclose(eff.matrix, expected, atol=1e-15)

    def test_j12_shift_is_tilted_axis(self):
        d = 0.25
        eff = effective_h1(1.0 + d, 1.0, 1.0)
        expected = (d / 4) * (np.sqrt(3) * np.array([[0, 1], [1, 0]]) + np.diag([1, -1]))
        assert np.allclose(eff.matrix, expected, atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            effective_h1(np.nan, 1.0, 1.0)


class TestProjectEffective:
    def test_idle_projection(self, basis3):
        h = build_hamiltonian(single_lq_graph(h=0.75))
        eff = project_effective(h, basis3)
        assert max_abs(eff.matrix) <= 1e-12
        assert abs(eff.trace_offset - (-9 / 8)) <= 1e-12
        assert eff.off_block_residual <= 1e-12

    def test_matches_closed_form_on_random_couplings(self, basis3):
        rng = np.random.default_rng(41)
        for _ in range(20):
            j12, j13, j23 = rng.uniform(0.25, 1.75, 3)
            h = build_hamiltonian(single_lq_graph(j12, j13, j23, h=0.75))
            num = project_effective(h, basis3)
            ana = effective_h1(j12, j13, j23, h=0.75)
            assert max_abs(num.matrix - ana.matrix) <= 1e-12
            assert abs(num.trace_offset - ana.trace_offset) <= 1e-12
            assert num.off_block_residual <= 1e-12

    def test_logical_eigenvalues_appear_in_full_spectrum(self, basis3):
        rng = np.random.default_rng(43)
        j12, j13, j23 = rng.uniform(0.25, 1.75, 3)
        h = build_hamiltonian(single_lq_graph(j12, j13, j23, h=0.75))
        eff = project_effective(h, basis3)
        logical = np.linalg.eigvalsh(eff.matrix) + eff.trace_offset
        full = np.linalg.eigvalsh(h)
        for e in logical:
            assert np.min(np.abs(full - e)) <= 1e-10

    def test_inter_lq_coupling_leaks(self):
        h = build_hamiltonian(two_lq_graph(j14=0.4, h=0.75))
        eff = project_effective(h, two_lq_basis())
        assert eff.off_block_residual > 1e-3


class TestLambdaSpectrum:
    def test_degenerate_quartet_at_zero(self):
        lam = lambda_spectrum(0.0)
        assert abs(lam.lambda_00 + 9 / 4) < 1e-12
        assert abs(lam.lambda_01 + 9 / 4) < 1e-12
        assert abs(lam.lambda_11 + 9 / 4) < 1e-12

    def test_lambda_00_exactly_linear(self):
        grid = np.linspace(0.0, 0.7, 29)
        rows = lambda_curve(grid)
        assert np.max(np.abs(rows[:, 0] - (-9 / 4 + grid / 4))) <= 1e-10

    def test_entangling_rate_at_origin(self):
        # Richardson-extrapolated slope of lambda_00 + lambda_11 - 2 lambda_01:
        # first-order shifts are J/4 (|00>), -J/12 (pair), J/36 (|11>), so the
        # combination has slope 1/4 + 1/36 + 2/12 = 4/9.
        r1 = lambda_spectrum(1e-3).entangling_rate / 1e-3
        r2 = lambda_spectrum(2e-3).entangling_rate / 2e-3
        assert abs((2 * r1 - r2) - 4 / 9) < 1e-4

    def test_pair_degeneracy_in_full_spectrum(self):
        lam = lambda_spectrum(0.3)
        full = np.linalg.eigvalsh(build_hamiltonian(two_lq_graph(j14=0.3)))
        assert np.sum(np.abs(full - lam.lambda_01) < 1e-9) == 2

    def test_taylor_coefficients_follow_numeric_branches(self):
        # Fitted series: the degenerate pair carries (-1/12, -4/27) and the
        # |11> branch (+1/36, -2/27); the reference labels are swapped.
        grid = np.linspace(0.0, 0.1, 21)
        rows = lambda_curve(grid)
        pair = (rows[:, 1] + rows[:, 2]) / 2 + 9 / 4
        top = rows[:, 3] + 9 / 4
        c_pair = np.polyfit(grid, pair, 4)
        c_top = np.polyfit(grid, top, 4)
        assert abs(c_pair[-2] - (-1 / 12)) / (1 / 12) < 1e-3
        assert abs(c_pair[-3] - (-4 / 27)) / (4 / 27) < 1e-3
        assert abs(c_top[-2] - (1 / 36)) / (1 / 36) < 1e-3
        assert abs(c_top[-3] - (-2 / 27)) / (2 / 27) < 1e-3
        # swapped assignment fails by a wide margin
        assert abs(c_pair[-2] - (1 / 36)) / (1 / 36) > 1
        assert abs(c_top[-2] - (-1 / 12)) / (1 / 12) > 1

    def test_curves_are_smooth(self):
        grid = np.linspace(0.0, 0.7, 71)
        rows = lambda_curve(grid)
        dx = grid[1] - grid[0]
        second = np.diff(rows, n=2, axis=0) / dx**2
        assert np.max(np.abs(second)) < 2.0

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            lambda_spectrum(-0.1)

    def test_rejects_unordered_grid(self):
        with pytest.raises(ValueError):
            lambda_curve([0.2, 0.1])

    def test_rejects_non_finite_values(self):
        for call in (lambda: lambda_spectrum(np.nan), lambda: lambda_curve([0.1, np.inf]),
                     lambda: lambda_curve([0.1], j23_shift=np.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                call()


class TestVerifyPolynomials:
    def test_cubic_exact_at_origin(self):
        # 64 l^3 + 144 l^2 - 36 l - 81 at l = -9/4: -729 + 729 + 81 - 81 = 0
        from trispin.encoding import reference_cubic
        assert reference_cubic(-9 / 4, 0.0) == 0.0

    def test_report_documents_misprints(self):
        report = verify_lambda_polynomials(np.linspace(0.0, 0.7, 15))
        at0 = report[0]
        assert abs(at0["line_residual"] - 6.0) < 1e-9
        assert not at0["quadratic_has_real_roots"]
        for rec in report:
            assert rec["line_corrected_residual"] <= 1e-10
            assert rec["cubic_residual_on_11"] <= 1e-9
        beyond = [r for r in report if r["j14"] > 0.05]
        assert all(r["cubic_residual_on_01"] > 1e-3 for r in beyond)

    def test_corrected_quadratic_holds_on_the_pair_branch(self):
        # the reference quadratic plus its missing 48 lambda term
        report = verify_lambda_polynomials(np.linspace(0.0, 0.7, 71))
        assert max(r["quadratic_corrected_residual_on_01"] for r in report) <= 1e-12
        assert min(r["quadratic_residual_on_01"] for r in report) > 1.0


class TestReadout:
    def test_singlet_probabilities(self, basis3):
        assert abs(singlet_probability(basis3.zero_l, (1, 2), 3) - 1.0) < 1e-12
        assert singlet_probability(basis3.one_l, (1, 2), 3) < 1e-12
        plus = (basis3.zero_l + basis3.one_l) / np.sqrt(2)
        assert abs(singlet_probability(plus, (1, 2), 3) - 0.5) < 1e-12


class TestInitialization:
    def test_positive_shift_selects_zero_l(self):
        rep = initialization_ground(0.2)
        assert rep.label == "0_L"
        assert rep.overlap >= 1 - 1e-10

    def test_negative_shift_selects_one_l(self):
        rep = initialization_ground(-0.2)
        assert rep.label == "1_L"
        assert rep.overlap >= 1 - 1e-10

    def test_zero_shift_reports_degenerate(self):
        rep = initialization_ground(0.0)
        assert rep.label is None

    def test_shift_outside_window(self):
        with pytest.raises(ValueError):
            initialization_ground(0.8)
        with pytest.raises(ValueError):
            initialization_ground(-0.75)


def _loop_advance(hmat, pt, refs):
    """One step of the overlap walk: follow each state into the eigenspace it overlaps most."""
    vals, vecs = np.linalg.eigh(hmat)
    picked = np.empty(4)
    new_refs = np.empty_like(refs)
    for q in range(4):
        amps = vecs.conj().T @ refs[:, q]
        best = int(np.argmax(np.abs(amps)))
        cls = np.abs(vals - vals[best]) <= 1e-8
        weight = float(np.sum(np.abs(amps[cls]) ** 2))
        if weight < 0.5:
            raise TrackingError(
                f"tracking ambiguity at (j14={pt[0]:.6f}, shift={pt[1]:.6f}): "
                f"overlap {weight:.3f} < 0.5")
        proj = vecs[:, cls] @ amps[cls]
        new_refs[:, q] = proj / np.linalg.norm(proj)
        picked[q] = vals[best]
    refs[:, :] = new_refs
    return picked


def _overlap_walk(path, h=0.75, step=1e-3):
    """Quartet levels by adiabatic continuation in the whole 15-dim m=+1 sector.

    The oracle for the block levels: from j14 = 0, where the logical product
    states are exact eigenstates, each state follows the eigenspace it
    overlaps most, in substeps of at most ``step``.
    """
    if path[0][0] != 0.0:
        raise ValueError("the overlap walk starts at j14 = 0")
    ops = SectorOperators(6, [(i, j) for (i, j, _) in two_lq_graph().edges], ms=(1.0,))

    def advance(pt):
        w = np.ones(7)
        w[2] = w[5] = 1.0 + pt[1]
        w[6] = pt[0]
        return _loop_advance(ops.blocks(w, h)[0][0], pt, refs)

    refs = two_lq_basis()[ops.groups[0].indices[0], :]
    out = np.empty((len(path), 4))
    out[0] = advance(path[0])
    for p, (prev, cur) in enumerate(zip(path[:-1], path[1:]), start=1):
        nsub = max(1, int(np.ceil(max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1])) / step)))
        for k in range(1, nsub + 1):
            s = k / nsub
            out[p] = advance((prev[0] + s * (cur[0] - prev[0]), prev[1] + s * (cur[1] - prev[1])))
    return out


class TestTrackerStep:
    def test_matches_per_state_reference(self):
        # from the degenerate quartet at j14 = 0 along a shifted ramp
        path = [(x, 0.3 * x) for x in np.linspace(0.0, 0.7, 141)]
        assert max_abs(_SectorTracker(0.75).walk(path) - _overlap_walk(path)) <= 1e-12


def _calibration_path(j14_peak=0.5, eps=0.12, n_nodes=40):
    """The midpoint nodes of one smooth ramp, as the shift calibration walks them."""
    mids = [RAMP_PROFILES["smooth"]((k + 0.5) / n_nodes) for k in range(n_nodes)]
    return [(0.0, 0.0)] + [(j14_peak * f, eps * f) for f in mids] + [(j14_peak, eps)]


class TestBatchedWalk:
    @pytest.fixture(scope="class")
    def tracker(self):
        return _SectorTracker(0.75)

    def test_one_block_per_column_with_dimensions_1_2_2_3(self, tracker):
        assert [(col, len(idle)) for col, (idle, _, _) in tracker.blocks] == [
            (0, 1), (1, 2), (2, 2), (3, 3)]

    @pytest.mark.parametrize("j14_peak,eps", [(0.1, 0.0), (0.3, 0.12), (0.5, 0.35), (0.7, 0.2)])
    def test_matches_overlap_walk_on_calibration_paths(self, tracker, j14_peak, eps):
        path = _calibration_path(j14_peak, eps, 160)
        assert max_abs(tracker.walk(path) - _overlap_walk(path)) <= 1e-12

    @pytest.mark.parametrize("j14_max", [0.85, 1.5])
    def test_matches_overlap_walk_on_sweep_grids(self, j14_max):
        grid = np.linspace(0.0, j14_max, 301)
        walked = _overlap_walk([(x, 0.0) for x in grid])
        assert max_abs(lambda_curve(grid) - walked) <= 1e-12

    def test_resumed_walk_continues_the_levels(self, tracker):
        path = _calibration_path()
        head = tracker.walk(path[:21])
        tail = tracker.walk(path[20:])
        assert np.array_equal(np.concatenate((head, tail[1:])), tracker.walk(path))

    def test_one_eigvalsh_call_per_block(self, tracker, monkeypatch):
        sizes = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        path = _calibration_path()
        tracker.walk(path)
        assert sizes == [(len(path), d, d) for d in (1, 2, 2, 3)]
