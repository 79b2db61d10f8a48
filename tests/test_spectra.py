import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trispin import encoding, spectra
from trispin.encoding import _SectorTracker, lambda_spectrum
from trispin.hamiltonian import (
    CouplingGraph,
    SectorOperators,
    build_hamiltonian,
    sector_spectrum,
    single_lq_graph,
    sz_sectors,
    two_lq_graph,
)
from trispin.spectra import (
    _doublet_gap,
    _find_crossings,
    _gap_above,
    _unmatched,
    adiabatic_leakage_curve,
    field_gap,
    optimal_field,
    sweep_field,
    sweep_inter,
    sweep_intra,
    to_physical,
)

from trispin.linalg import BudgetError

from test_encoding import _overlap_walk
from test_properties import PROPERTY_SETTINGS


def remove_matched(values, targets):
    """Oracle: the values left after removing the one nearest to each target in turn."""
    pool = list(values)
    for t in targets:
        pool.pop(int(np.argmin(np.abs(np.asarray(pool) - t))))
    return np.asarray(pool)


def gap_above_rows(spectra, logical):
    return np.array([float(np.min(remove_matched(vals, lv)) - np.max(lv))
                     for vals, lv in zip(spectra, logical)])


def doublet_gap_rows(spectra, logical):
    """Oracle of the idle doublet's gap: its one level counted for both states."""
    return gap_above_rows(spectra, np.repeat(logical, 2, axis=1))


@pytest.fixture(scope="module")
def field_result():
    return sweep_field(0.0, 1.5, 151)


@pytest.fixture(scope="module")
def inter_result():
    return sweep_inter(0.0, 0.85, 69)


class TestSweepField:
    @pytest.fixture()
    def result(self, field_result):
        return field_result

    def test_gap_matches_level_competition(self, result):
        # Competing levels: the S=1/2, m=-1/2 doublet at distance h and the
        # S=3/2, m=3/2 stretch state at distance 3/2 - h.
        pred = np.minimum(result.grid, 1.5 - result.grid)
        assert np.max(np.abs(result.gap - pred)) <= 1e-10

    def test_ground_fourfold_at_zero_field(self, result):
        vals = result.spectra[0]
        assert np.sum(np.abs(vals - vals[0]) < 1e-9) == 4

    def test_gap_at_optimum(self):
        assert abs(field_gap(0.75) - 0.75) <= 1e-12

    def test_gap_is_signed_outside_the_window(self):
        # Below h = 0 the m = -1/2 doublet and above h = 3/2 the m = 3/2
        # state lie under the logical doublet, so the gap is negative there.
        # Below h = -3/2 the m = -3/2 state is the nearest, so stop there.
        result = sweep_field(-1.5, 3.0, 451)
        pred = np.minimum(result.grid, 1.5 - result.grid)
        assert np.max(np.abs(result.gap - pred)) <= 1e-12
        assert max(abs(field_gap(h) - p) for h, p in zip(result.grid, pred)) <= 1e-12

    def test_eigenvalue_sum_equals_trace(self, result):
        for h, vals in zip(result.grid, result.spectra):
            tr = np.trace(build_hamiltonian(single_lq_graph(h=h))).real
            assert abs(np.sum(vals) - tr) <= 1e-9

    def test_levels_affine_in_field_with_slope_minus_m(self, result):
        # E + h*m is field-independent per multiplet: it equals the exchange
        # energy, -3/4 for S=1/2 and +3/4 for S=3/2.
        shifted = result.spectra + result.grid[:, None] * result.sz_labels
        near_low = np.abs(shifted - (-0.75)) < 1e-8
        near_high = np.abs(shifted - 0.75) < 1e-8
        assert np.all(near_low | near_high)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_field(0.0, 1.5, 1)


class TestOptimalField:
    def test_full_interval(self):
        assert abs(optimal_field(0.0, 1.5) - 0.75) <= np.spacing(0.75)

    def test_restricted_interval(self):
        assert abs(optimal_field(0.7, 0.8) - 0.75) <= np.spacing(0.75)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            optimal_field(1.0, 0.5)

    def test_maximum_of_the_signed_gap(self):
        # past h = 3/2 and below h = 0 the gap keeps falling, so a wider range
        # still peaks at 3/4, and a range above the window at its lower end
        for lo, hi in ((0.0, 4.0), (-1.5, 3.0), (-1.0, 1.5)):
            assert abs(optimal_field(lo, hi) - 0.75) <= np.spacing(0.75)
        assert optimal_field(1.4, 3.0) == 1.4
        assert optimal_field(1.6, 3.0) == 1.6

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.5), (0.0, 4.0), (-1.5, 3.0), (-1.0, 1.5),
                                        (0.7, 0.8), (1.4, 3.0), (1.6, 3.0)])
    def test_no_field_of_a_grid_has_a_larger_gap(self, lo, hi):
        best = field_gap(optimal_field(lo, hi))
        assert all(best >= field_gap(h) for h in np.linspace(lo, hi, 91))

    @pytest.mark.parametrize("lo, hi, message", [
        (np.nan, 1.5, "finite"), (0.0, np.inf, "finite"), (-np.inf, 1.5, "finite"),
        (0.75, 0.75, "lower bound below"),
    ])
    def test_range_checked_before_any_eigensolve(self, monkeypatch, lo, hi, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve before the range was checked")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        with pytest.raises(ValueError, match=message):
            optimal_field(lo, hi)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, monkeypatch, tol):
        # the maximum is exact, so no tolerance is taken: a caller still
        # passing one is refused before any eigensolve, not silently ignored
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve before the arguments were checked")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        with pytest.raises(TypeError, match="tol"):
            optimal_field(0.0, 1.5, tol=tol)


CROSSING_GRIDS = [31, 61, 69, 121, 301]


class TestSweepIntra:
    @pytest.mark.parametrize("which", ["j23", "j12", "j13"])
    def test_crossings(self, which):
        for n_points in CROSSING_GRIDS:
            _, crossings = sweep_intra(which, 0.1, 1.9, n_points)
            assert len(crossings.crossings) == 2
            assert abs(crossings.crossings[0] - 0.25) <= 1e-14
            assert abs(crossings.crossings[1] - 1.75) <= 1e-14

    def test_idle_point_is_degenerate(self):
        result, _ = sweep_intra("j23", 0.5, 1.5, 101)
        k = np.argmin(np.abs(result.grid - 1.0))
        assert abs(result.grid[k] - 1.0) < 1e-12
        assert abs(result.logical[k, 0] - result.logical[k, 1]) < 1e-12

    def test_logical_split_slopes(self):
        # A J23 excursion does not mix the doublet; the state-resolved levels
        # drift apart linearly, |0_L> at -1/2 and |1_L> at +1/2 per unit J23
        # relative to their centroid.
        from trispin.encoding import effective_h1

        grid = np.linspace(0.9, 1.1, 41)
        diag = np.array([np.diag(effective_h1(1.0, 1.0, x).matrix).real for x in grid])
        slopes = np.polyfit(grid, diag, 1)[0]
        assert np.allclose(slopes, [-0.5, 0.5], atol=1e-10)
        # and the sorted sweep levels split at total rate 1
        result, _ = sweep_intra("j23", 0.9, 1.1, 41)
        split = result.logical[:, 1] - result.logical[:, 0]
        assert np.allclose(split, np.abs(grid - 1.0), atol=1e-10)

    def test_crossing_resolution_independent_of_grid(self):
        _, c1 = sweep_intra("j23", 0.1, 1.9, 61)
        _, c2 = sweep_intra("j23", 0.1, 1.9, 193)
        assert c1.crossings == pytest.approx(c2.crossings, abs=1e-14)

    def test_exact_zero_at_a_grid_point_counts_once(self):
        grid = np.array([0.0, 1.0, 2.0])
        report = _find_crossings(lambda x: 1.0 - x, grid, np.array([1.0, 0.0, -1.0]))
        assert report.crossings == (1.0,)

    def test_crossing_past_the_probe_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectra, "CROSSING_MAX_PROBES", 2)
        grid = np.array([0.0, 2.0])
        with pytest.raises(ArithmeticError, match="did not converge"):
            _find_crossings(lambda x: 1.0 - x**3, grid, np.array([1.0, -7.0]))

    def test_unknown_coupling(self):
        with pytest.raises(ValueError):
            sweep_intra("j45", 0.5, 1.5, 11)


class TestSweepInter:
    @pytest.fixture()
    def result(self, inter_result):
        return inter_result

    def test_gap_closing_point(self):
        for n_points in CROSSING_GRIDS:
            _, crossings = sweep_inter(0.0, 0.85, n_points)
            assert len(crossings.crossings) == 1
            assert abs(crossings.crossings[0] - 0.75) <= 1e-14

    def test_crossing_matches_overlap_walk(self, result):
        sweep, crossings = result

        def gap_walked_from_zero(x):
            return _gap_above(sector_spectrum(two_lq_graph(j14=x))[0][None],
                              _overlap_walk([(0.0, 0.0), (x, 0.0)])[-1:])[0]

        expected = _find_crossings(gap_walked_from_zero, sweep.grid, sweep.gap)
        assert crossings.crossings == pytest.approx(expected.crossings, abs=1e-12)

    def test_quartet_degenerate_at_origin(self, result):
        sweep, _ = result
        assert np.max(np.abs(sweep.logical[0] + 9 / 4)) <= 1e-10

    def test_lambda00_slope(self, result):
        sweep, _ = result
        # the |00> branch is exactly -9/4 + J14/4
        assert np.max(np.abs(sweep.logical[:, 0] - (-9 / 4 + sweep.grid / 4))) <= 1e-10

    def test_agrees_with_lambda_spectrum(self, result):
        sweep, _ = result
        k = len(sweep.grid) // 2
        lam = lambda_spectrum(float(sweep.grid[k]))
        assert abs(sweep.logical[k, 0] - lam.lambda_00) <= 1e-10
        assert abs(sweep.logical[k, 3] - lam.lambda_11) <= 1e-10

    def test_eigenvalue_sum_equals_trace(self, result):
        sweep, _ = result
        for x, vals in zip(sweep.grid, sweep.spectra):
            tr = np.trace(build_hamiltonian(two_lq_graph(j14=x))).real
            assert abs(np.sum(vals) - tr) <= 1e-9

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            sweep_inter(-0.1, 0.5, 11)


class TestAdiabaticCurve:
    def test_leakage_decreases_with_ramp_time(self):
        rows = adiabatic_leakage_curve(np.pi, 0.4, [2.0, 4.0],
                                       n_calibration_steps=60,
                                       steps_per_unit_time=150.0)
        assert rows[1].max_leakage <= rows[0].max_leakage + 1e-10
        assert rows[1].fidelity >= rows[0].fidelity - 1e-6

    def test_zero_peak_never_leaks(self):
        rows = adiabatic_leakage_curve(np.pi, 0.0, [1.0, 3.0])
        assert all(r.max_leakage <= 1e-12 for r in rows)

    @pytest.mark.parametrize("j14", [0.0, 0.5])
    @pytest.mark.parametrize("ramp", [1000.5, 1e300, 1e308])
    def test_ramps_out_of_reach_are_rejected_before_any_work(self, monkeypatch, j14, ramp):
        # an idle hold has a pulse's reach; every ramp is checked before the first runs
        monkeypatch.setattr(spectra, "two_lq_report", None)
        with pytest.raises(ValueError, match="unreachable within max_duration"):
            adiabatic_leakage_curve(np.pi, j14, [3.0, ramp])

    @pytest.mark.parametrize("kwargs, error", [
        ({"n_calibration_steps": 160.5}, ValueError),
        ({"n_calibration_steps": 10**9}, BudgetError),
        ({"ramp_shape": "bogus"}, ValueError),
    ], ids=["fractional-nodes", "nodes-past-the-cap", "unknown-shape"])
    def test_calibration_is_checked_at_every_peak(self, monkeypatch, kwargs, error):
        # an idle hold calibrates nothing, yet takes the checks of a pulse, before any work
        def fail(*args, **kwargs):
            raise AssertionError("a gate was scored before the checks")

        monkeypatch.setattr(spectra, "two_lq_report", fail)
        raised = []
        for j14 in (0.0, 0.3):
            with pytest.raises(error) as info:
                adiabatic_leakage_curve(np.pi, j14, [4.0], **kwargs)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1] and raised[0][0] is error


class TestUnits:
    def test_reference_working_point(self):
        units = to_physical(7.0, 0.44, 0.75)
        assert 0.19 <= units.b_tesla <= 0.22
        assert abs(units.gap_microev - 5.25) <= 1e-9

    def test_zero_field(self):
        assert to_physical(7.0, 0.44, 0.0).b_tesla == 0.0

    def test_relation(self):
        units = to_physical(3.0, 2.0, 0.5)
        assert abs(0.5 * 3.0 - units.g_factor * 57.88 * units.b_tesla) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            to_physical(-1.0, 0.44, 0.75)
        with pytest.raises(ValueError):
            to_physical(7.0, 0.0, 0.75)

    @pytest.mark.parametrize("args", [(np.nan, 0.44, 0.75), (np.inf, 0.44, 0.75),
                                      (7.0, np.nan, 0.75), (7.0, np.inf, 0.75),
                                      (7.0, 0.44, np.nan), (7.0, 0.44, np.inf)])
    def test_rejects_non_finite(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            to_physical(*args)


class TestExactSzLabels:
    def test_field_and_intra_labels_are_allowed_m(self, field_result):
        allowed = [-1.5, -0.5, 0.5, 1.5]
        intra, _ = sweep_intra("j23", 0.1, 1.9, 61)
        for result in (field_result, intra):
            assert np.all(np.isin(result.sz_labels, allowed))

    def test_inter_labels_are_allowed_m(self, inter_result):
        result, _ = inter_result
        # j14 = 0 has degeneracies across sectors, where <S_z> of a mixed
        # eigenvector is not a label
        assert np.all(np.isin(result.sz_labels, np.arange(-3.0, 4.0)))

    def test_each_sector_keeps_its_dimension(self, inter_result):
        result, _ = inter_result
        for labels in result.sz_labels:
            counts = [int(np.sum(labels == m)) for m in np.arange(-3.0, 4.0)]
            assert counts == [1, 6, 15, 20, 15, 6, 1]


class TestBatchedSweeps:
    # each sweep, with the sizes of its grid-sized solves beside the sectors':
    # none for the field sweep, the exact 2x2 logical block of the intra-triple
    # sweep, and the three quartet blocks of the inter-triple sweep's tracker
    @pytest.mark.parametrize("run", [
        lambda: (spectra.sweep_field(0.0, 1.5, 31), []),
        lambda: (spectra.sweep_intra("j12", 0.1, 1.9, 31)[0], [2]),
        lambda: (spectra.sweep_inter(0.0, 0.85, 31)[0], [1, 2, 3]),
    ])
    def test_one_sector_spectra_call_per_grid(self, monkeypatch, run):
        # the whole 31-point grid is one batched eigvalsh per sector
        shapes = []
        original = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result, logical = run()
        n_sites = int(np.log2(result.spectra.shape[1]))
        grid_solves = [s[-1] for s in shapes if len(s) == 3 and s[0] == 31]
        assert sorted(grid_solves) == sorted([len(s.indices) for s in sz_sectors(n_sites)]
                                             + logical)


def _count_builds(monkeypatch):
    """Record the ``ms`` of every SectorOperators, and count trackers, walks and solves.

    A solve is one ``SectorOperators.levels`` call, which ``spectra`` makes too.
    """
    seen = {"ops": [], "trackers": 0, "walks": 0, "solves": 0}
    init, tracker_init, walk, solve = (SectorOperators.__init__, _SectorTracker.__init__,
                                       _SectorTracker.walk, SectorOperators.levels)

    def ops(self, n_sites, pairs, ms=None):
        seen["ops"].append(ms)
        init(self, n_sites, pairs, ms)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SectorOperators, "__init__", ops)
    monkeypatch.setattr(SectorOperators, "levels", counted("solves", solve))
    monkeypatch.setattr(_SectorTracker, "__init__", counted("trackers", tracker_init))
    monkeypatch.setattr(_SectorTracker, "walk", counted("walks", walk))
    return seen


class TestNoObjectPerGridPoint:
    # a grid point is one row of edge weights: a sweep builds as many coupling
    # graphs on 301 points as on 31, crossing probes included, and the
    # intra-triple sweep one exact logical block per solve (the grid, or a probe)
    @pytest.mark.parametrize("run, blocks", [
        (lambda n: sweep_field(-0.5, 2.0, n), False),
        (lambda n: sweep_intra("j23", 0.25, 1.75, n), True),
        (lambda n: sweep_intra("j12", 0.1, 1.9, n), True),
        (lambda n: sweep_inter(0.0, 0.85, n), False),
    ], ids=["field", "intra-j23", "intra-j12", "inter"])
    def test_as_many_graphs_on_301_points_as_on_31(self, monkeypatch, run, blocks):
        built = {"graphs": 0, "blocks": 0, "solves": 0}
        post_init, block, levels = (CouplingGraph.__post_init__, encoding.EffectiveHamiltonian,
                                    SectorOperators.levels)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CouplingGraph, "__post_init__", counted("graphs", post_init))
        monkeypatch.setattr(encoding, "EffectiveHamiltonian", counted("blocks", block))
        monkeypatch.setattr(SectorOperators, "levels", counted("solves", levels))
        graphs = []
        for n_points in (31, 301):
            built.update(graphs=0, blocks=0, solves=0)
            run(n_points)
            graphs.append(built["graphs"])
            assert built["blocks"] == (built["solves"] if blocks else 0)
        assert graphs[0] == graphs[1] >= 1


class TestOperatorsBuiltOncePerSweep:
    @pytest.mark.parametrize("n_points", [31, 69])
    def test_sweep_inter(self, monkeypatch, n_points):
        seen = _count_builds(monkeypatch)
        _, crossings = sweep_inter(0.0, 0.85, n_points)
        assert len(crossings.crossings) == 1
        # the register's operators once, plus the m = +1 sector inside the one tracker
        assert sorted(seen["ops"], key=repr) == [(1.0,), None]
        assert seen["trackers"] == 1
        # the grid, then every crossing probe, on the same tracker and operators
        assert seen["walks"] == seen["solves"] >= 2

    def test_optimal_field(self, monkeypatch):
        seen = _count_builds(monkeypatch)
        assert abs(optimal_field(0.0, 1.5) - 0.75) <= np.spacing(0.75)
        assert seen["ops"] == [None]
        assert seen["solves"] == 1


class TestBatchedGapsMatchTheRowOracle:
    @pytest.mark.parametrize("run, batched, oracle", [
        (lambda: sweep_field(-0.5, 2.0, 151), _doublet_gap, doublet_gap_rows),
        (lambda: sweep_intra("j23", 0.1, 1.9, 121)[0], _gap_above, gap_above_rows),
        (lambda: sweep_inter(0.0, 0.85, 69)[0], _gap_above, gap_above_rows),
    ])
    def test_on_sweep_grids(self, run, batched, oracle):
        # degenerate 8- and 64-level spectra, with the exact logical levels
        result = run()
        expected = oracle(result.spectra, result.logical)
        assert np.array_equal(batched(result.spectra, result.logical), expected)
        assert np.array_equal(result.gap, expected)

    @PROPERTY_SETTINGS
    @given(st.data(), st.integers(1, 5), st.integers(3, 9))
    def test_on_rows_with_ties(self, data, n_rows, n_levels):
        # levels on a coarse lattice and targets on a finer one, so that equal
        # levels and targets halfway between two levels both occur
        levels = st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0))
        spectra = np.array(data.draw(st.lists(st.lists(levels, min_size=n_levels,
                                                       max_size=n_levels),
                                              min_size=n_rows, max_size=n_rows)))
        n_targets = data.draw(st.integers(1, n_levels - 1))
        targets = np.array(data.draw(st.lists(
            st.lists(st.sampled_from((-0.75, -0.5, -0.25, 0.0, 0.25, 0.5)),
                     min_size=n_targets, max_size=n_targets),
            min_size=n_rows, max_size=n_rows)))
        left = _unmatched(spectra, targets)
        for row, keep, t in zip(spectra, left, targets):
            assert np.array_equal(row[keep], remove_matched(row, t))
        assert np.array_equal(_gap_above(spectra, targets), gap_above_rows(spectra, targets))
        assert np.array_equal(_doublet_gap(spectra, targets[:, :1]),
                              doublet_gap_rows(spectra, targets[:, :1]))
