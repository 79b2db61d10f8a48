import numpy as np
import pytest

from trispin.linalg import as_matrix, check_unitary


class TestValidation:
    def test_as_matrix_rejects(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_check_unitary_rejects(self):
        with pytest.raises(ValueError, match="not unitary"):
            check_unitary(np.diag([1.0, 0.5]))
