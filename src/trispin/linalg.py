"""Checks on dense complex matrices for small spin systems (dim <= 64).

Everything is plain numpy: operators are square ``complex128`` arrays.
The helpers validate such matrices and measure how far a propagator is
from unitary; eigensolves are plain ``numpy.linalg`` calls at their sites.
``regula_falsi`` is the one bracketed root-finder, shared by the CZ shift
calibration and the level-crossing search.  ``Budget`` is the one kind of cap
on a request: each module keeps its caps beside the work they bound, and
``is_integer`` the one test that a count or a site index is an integer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-9
# Levels closer than this fraction of the spectrum's largest magnitude count
# as degenerate: far above the rounding of a small dense eigensolve, and far
# below any splitting the model makes, at every energy scale.
DEGENERACY_TOL = 1e-9


class BudgetError(ValueError):
    """A request past a cap on the time and memory of one call."""


@dataclass(frozen=True)
class Budget:
    """At most ``cap`` ``unit`` per call: every accepted call ends in bounded time and memory.

    Each cap sits beside the function whose cost it bounds, with that cost
    measured at the cap (one in-process call on a shared 2-vCPU x86-64
    machine, one BLAS thread).
    """

    cap: int
    unit: str

    def check(self, count: float) -> None:
        """Raise ``BudgetError`` above the cap, ``ValueError`` for a count that is no number."""
        if not isinstance(count, numbers.Real):
            raise ValueError(f"a count of {self.unit} must be a real number, got {count!r}")
        if count > self.cap:
            raise BudgetError(f"at most {self.cap} {self.unit}")


def is_integer(x) -> bool:
    """True for a Python or numpy integer; a bool or a float of integral value is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def degeneracy_tol(levels) -> float:
    """Largest distance at which two of ``levels`` count as degenerate."""
    return DEGENERACY_TOL * max_abs(levels)


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


def regula_falsi(fn, lo: float, hi: float, at_lo, at_hi, tol: float, max_probes: int):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)) inside [lo, hi].

    ``fn(x)`` is ``(residual, info)``; ``at_lo``, ``at_hi`` are its values at the
    ends, with residuals >= 0 and <= 0.  When one end moves twice in a row, the
    residual kept at the other is halved.  Returns ``(x, residual, info)`` of the
    last probe (``lo`` if none) once |residual| <= ``tol`` or the secant point is
    not strictly inside the bracket; ``ArithmeticError`` after ``max_probes``.
    """
    (r_lo, _), (r_hi, _) = at_lo, at_hi
    x, (r, info), moved = lo, at_lo, 0
    for _ in range(max_probes):
        if abs(r) <= tol:
            break
        secant = (lo * r_hi - hi * r_lo) / (r_hi - r_lo)
        if not lo < secant < hi:
            break
        x = secant
        r, info = fn(x)
        if r > 0:
            lo, r_lo = x, r
            r_hi /= 2 if moved == 1 else 1
            moved = 1
        else:
            hi, r_hi = x, r
            r_lo /= 2 if moved == -1 else 1
            moved = -1
    else:
        if not abs(r) <= tol:
            raise ArithmeticError(f"regula falsi did not converge: residual {r:.3e} "
                                  f"after {max_probes} probes")
    return x, r, info
