"""Records holding arrays compare by identity: ``==``, ``in`` and ``hash`` never raise."""

import numpy as np
import pytest

from trispin.encoding import effective_h1, logical_basis
from trispin.gates import GateReport
from trispin.hamiltonian import SectorOperators, single_lq_graph
from trispin.spectra import SweepResult


def _sweep_result():
    return SweepResult("h", np.array([0.0, 1.0]), np.zeros((2, 8)), np.zeros(2),
                       np.zeros(8), np.zeros((2, 1)))


# each makes a new record of the same content on every call
MAKERS = {
    "LogicalBasis": lambda: logical_basis((0, 1, 2), 3),
    "EffectiveHamiltonian": lambda: effective_h1(1.0, 1.0, 0.5),
    "SectorBlock": lambda: SectorOperators(3, single_lq_graph().pairs).sectors[1],
    "GateReport": lambda: GateReport(np.eye(2), 1.0, 0.0, 0.0),
    "SweepResult": _sweep_result,
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_equal_content_records_compare_by_identity(name):
    # with generated comparisons, a == b compared arrays and raised ValueError
    a, b = MAKERS[name](), MAKERS[name]()
    assert type(a).__name__ == name
    assert a == a and a in [a] and hash(a) == hash(a)
    assert a != b and not (a == b) and b not in [a]
    assert len({a, b}) == 2
