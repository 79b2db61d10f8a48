"""Checks on dense complex matrices for small spin systems (dim <= 64).

Everything is plain numpy: operators are square ``complex128`` arrays.
The helpers validate such matrices and measure how far a propagator is
from unitary; eigensolves are plain ``numpy.linalg`` calls at their sites.
"""

from __future__ import annotations

import numpy as np

UNITARITY_TOL = 1e-9


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def as_matrix(m) -> np.ndarray:
    """Validate a finite square complex matrix and return it as complex128."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    return a


def check_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> np.ndarray:
    """Assert ``U^dag U = I`` within ``tol`` and return ``U``."""
    u = as_matrix(u)
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if dev > tol:
        raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {dev:.3e}")
    return u
