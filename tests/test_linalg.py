import numpy as np
import pytest

from trispin.linalg import as_matrix, check_unitary, degeneracy_tol, regula_falsi


class TestValidation:
    def test_as_matrix_rejects(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_check_unitary_rejects(self):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(np.diag([1.0, 0.5]))


class TestDegeneracyTol:
    @pytest.mark.parametrize("scale", [1e8, 1e-12, 1.0])
    def test_scales_with_the_largest_level(self, scale):
        assert degeneracy_tol(scale * np.array([-2.0, 0.5, 1.0])) == pytest.approx(2e-9 * scale)

    def test_zero_spectrum(self):
        assert degeneracy_tol(np.zeros(4)) == 0.0


def _probed(fn):
    """``fn`` as ``regula_falsi`` calls it, with its probe points recorded."""
    probes = []

    def at(x):
        probes.append(x)
        return fn(x), x
    return at, probes


class TestRegulaFalsi:
    def test_smooth_root_to_rounding_at_tolerance_zero(self):
        fn, probes = _probed(lambda x: 2.0 - x * x)
        x, r, info = regula_falsi(fn, 1.0, 2.0, (1.0, None), (-2.0, None), 0.0, 100)
        assert abs(x - np.sqrt(2.0)) <= 2 * np.spacing(np.sqrt(2.0))
        assert info == x == probes[-1]
        assert r == 2.0 - x * x
        assert len(probes) < 20

    def test_no_probe_when_the_lower_end_is_within_tolerance(self):
        fn, probes = _probed(lambda x: 1.0 - x)
        assert regula_falsi(fn, 0.0, 2.0, (1e-3, "lo"), (-1.0, "hi"), 1e-2, 100) == \
            (0.0, 1e-3, "lo")
        assert probes == []

    def test_a_jump_stops_at_adjacent_floats(self):
        # the sign changes at 0.1 but no point has a small residual
        fn, probes = _probed(lambda x: 1.0 if x < 0.1 else -1.0)
        x, r, _ = regula_falsi(fn, 0.0, 0.35, (1.0, None), (-1.0, None), 1e-10, 200)
        assert abs(r) == 1.0
        assert abs(x - 0.1) <= np.spacing(0.1)
        assert len(probes) < 200

    def test_probe_cap_raises(self):
        fn, probes = _probed(lambda x: 2.0 - x * x)
        with pytest.raises(ArithmeticError, match="did not converge"):
            regula_falsi(fn, 1.0, 2.0, (1.0, None), (-2.0, None), 0.0, 3)
        assert len(probes) == 3
