"""The library's request budget: each capped entry point checks its size before any work."""

import numpy as np
import pytest

from trispin import BudgetError, encoding, gates, hamiltonian, spectra


def chain(n_sites: int) -> hamiltonian.CouplingGraph:
    return hamiltonian.CouplingGraph(n_sites, tuple((i, i + 1, 1.0) for i in range(n_sites - 1)))


def pair_singlet(n_sites: int) -> np.ndarray:
    """Sites 0 and 1 in a singlet, the others up; built without the library's site cap."""
    state = np.zeros(2**n_sites)
    state[[1 << (n_sites - 2), 1 << (n_sites - 1)]] = [2**-0.5, -(2**-0.5)]
    return state


# library call of a request of size n, and the budget on that size
BUDGETS = {
    "sweep_field": (lambda n: spectra.sweep_field(0.0, 1.5, n), encoding.MAX_GRID_POINTS),
    "sweep_intra": (lambda n: spectra.sweep_intra("j23", 0.1, 1.9, n), encoding.MAX_GRID_POINTS),
    "sweep_inter": (lambda n: spectra.sweep_inter(0.0, 0.85, n), encoding.MAX_GRID_POINTS),
    "lambda_curve": (lambda n: encoding.lambda_curve(np.linspace(0.0, 0.7, n)),
                     encoding.MAX_GRID_POINTS),
    "synthesize_cphase": (lambda n: gates.synthesize_cphase(np.pi, 0.5, 20.0,
                                                            n_calibration_steps=n),
                          gates.MAX_CALIBRATION_NODES),
    "adiabatic-count": (lambda n: spectra.adiabatic_leakage_curve(np.pi, 0.5, [4.0] * n),
                        spectra.MAX_RAMP_TIMES),
    # a ramp of 2 at half the rate: the step count is n
    "adiabatic-rate": (lambda n: spectra.adiabatic_leakage_curve(
                           np.pi, 0.5, [0.5, 2.0], steps_per_unit_time=n / 2),
                       gates.MAX_RAMP_STEPS),
    "sector_spectrum": (lambda n: hamiltonian.sector_spectrum(chain(n)), hamiltonian.MAX_SITES),
    "basis_state": (lambda n: hamiltonian.basis_state(n, ()), hamiltonian.MAX_SITES),
    "logical_basis": (lambda n: encoding.logical_basis((0, 1, 2), n).columns,
                      hamiltonian.MAX_SITES),
    "propagate": (lambda n: gates.propagate(gates.PulseSchedule((), n)), hamiltonian.MAX_SITES),
    "singlet_probability": (lambda n: encoding.singlet_probability(pair_singlet(n), (0, 1), n),
                            hamiltonian.MAX_SITES),
}
# calls that build a 2^n state or operator and solve nothing: at the cap they return it
NO_EIGENSOLVE = {"basis_state", "logical_basis", "propagate"}
# calls that solve nothing and return a number: the singlet probability of ``pair_singlet``
TO_ONE = {"singlet_probability"}


def test_a_budget_error_is_a_value_error():
    assert issubclass(BudgetError, ValueError)


class TestLibraryBudget:
    """One past each cap raises ``BudgetError`` before any eigensolve or 2^n array; the cap runs."""

    @pytest.fixture(autouse=True)
    def no_eigensolves(self, monkeypatch):
        def refused(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)

    @pytest.mark.parametrize("name", list(BUDGETS))
    def test_one_past_the_cap_raises(self, name):
        call, budget = BUDGETS[name]
        with pytest.raises(BudgetError, match=f"^at most {budget.cap} {budget.unit}$"):
            call(budget.cap + 1)

    @pytest.mark.parametrize("name", list(BUDGETS))
    def test_the_cap_itself_is_accepted(self, name):
        call, budget = BUDGETS[name]
        if name in TO_ONE:
            assert abs(call(budget.cap) - 1.0) <= 1e-12
            return
        if name in NO_EIGENSOLVE:
            assert len(call(budget.cap)) == 2**budget.cap
            return
        with pytest.raises(np.linalg.LinAlgError, match="eigensolver reached"):
            call(budget.cap)


class TestSingletProbabilityInputs:
    def test_far_past_the_cap_is_a_budget_error(self):
        # the 2^40 identity it used to build raised numpy's "array is too big" ValueError
        with pytest.raises(BudgetError, match="^at most 10 sites$"):
            encoding.singlet_probability(np.zeros(8), (0, 1), 40)

    @pytest.mark.parametrize("length", [4, 16])
    def test_state_of_the_wrong_length(self, length):
        with pytest.raises(ValueError, match=r"^state must have 2\*\*3 amplitudes$"):
            encoding.singlet_probability(np.ones(length), (0, 1), 3)

    @pytest.mark.parametrize("pair", [(1, 1), (0, 3)])
    def test_pair_outside_the_register(self, pair):
        with pytest.raises(ValueError, match="violates 0 <= i < j < n_sites"):
            encoding.singlet_probability(pair_singlet(3), pair, 3)
