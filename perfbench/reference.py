"""Reference physics for checking trispin artifacts, written without trispin.

Conventions match the package: site 0 is the most significant bit of the
product index, bit 0 means spin up, and H = sum J_ij S_i.S_j - h sum S_z^i.
Matrices here are real symmetric float64, so their eigenvalues come from a
different code path (real ``eigvalsh``) than the package's complex ``eigh``.
"""

from __future__ import annotations

import math

import numpy as np

MU_B_MICROEV_PER_TESLA = 57.88
TRIANGLE = ((0, 1), (0, 2), (1, 2))
TWO_LQ_EDGES = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3))


def _spins(n_sites: int) -> np.ndarray:
    """S_z of every site for every product index, shape (2^n, n)."""
    idx = np.arange(2**n_sites)[:, None]
    bits = (idx >> (n_sites - 1 - np.arange(n_sites))[None, :]) & 1
    return 0.5 - bits


def exchange(n_sites: int, i: int, j: int) -> np.ndarray:
    """S_i . S_j: diagonal S_z S_z plus a 1/2 flip-flop where spins differ."""
    sz = _spins(n_sites)
    dim = 2**n_sites
    op = np.diag(sz[:, i] * sz[:, j])
    mask = (1 << (n_sites - 1 - i)) | (1 << (n_sites - 1 - j))
    idx = np.arange(dim)
    differ = sz[:, i] != sz[:, j]
    op[idx[differ], idx[differ] ^ mask] = 0.5
    return op


def zeeman(n_sites: int) -> np.ndarray:
    """-sum_i S_z^i."""
    return np.diag(-_spins(n_sites).sum(axis=1))


def hamiltonian(n_sites: int, edges, h: float) -> np.ndarray:
    """Heisenberg + Zeeman matrix from (i, j, J) edges."""
    out = h * zeeman(n_sites)
    for i, j, jij in edges:
        out = out + jij * exchange(n_sites, i, j)
    return out


def spectrum(n_sites: int, edges, h: float) -> np.ndarray:
    return np.linalg.eigvalsh(hamiltonian(n_sites, edges, h))


def triangle_spectra(j12, j13, j23, h) -> np.ndarray:
    """Eigenvalues of one triangle for broadcastable arrays of parameters."""
    j12, j13, j23, h = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                              for v in (j12, j13, j23, h)))
    terms = [exchange(3, i, j) for i, j in TRIANGLE]
    mats = (j12[:, None, None] * terms[0] + j13[:, None, None] * terms[1]
            + j23[:, None, None] * terms[2] + h[:, None, None] * zeeman(3))
    return np.linalg.eigvalsh(mats)


def two_lq_spectra(j14_grid, h: float) -> np.ndarray:
    """Eigenvalues of the idle two-triangle register for each J14."""
    fixed = hamiltonian(6, [(i, j, 1.0) for i, j in TWO_LQ_EDGES[:6]], h)
    inter = exchange(6, 0, 3)
    grid = np.asarray(j14_grid, dtype=float)
    return np.linalg.eigvalsh(fixed[None] + grid[:, None, None] * inter[None])


def sector_sizes(n_sites: int) -> dict[float, int]:
    """Number of product states per total magnetization m."""
    return {ups - n_sites / 2: math.comb(n_sites, ups) for ups in range(n_sites + 1)}


def idle_gap(h):
    """Gap of the idle triangle's logical doublet: min(h, 1.5 - h) on [0, 1.5]."""
    return np.minimum(h, 1.5 - np.asarray(h))


def logical_block(j12: float, j13: float, j23: float) -> np.ndarray:
    """The paper's exact traceless 2x2 logical block of one triangle."""
    d = (j12 + j13 - 2 * j23) / 4
    o = math.sqrt(3) * (j12 - j13) / 4
    return np.array([[d, o], [o, -d]], dtype=complex)


def logical_levels(j12, j13, j23, h) -> np.ndarray:
    """Both logical energies: block eigenvalues plus the trace offset."""
    d = (j12 + j13 - 2 * j23) / 4
    o = math.sqrt(3) * (np.asarray(j12) - j13) / 4
    r = np.sqrt(d * d + o * o)
    offset = -(np.asarray(j12) + j13 + j23) / 4 - np.asarray(h) / 2
    return np.stack([offset - r, offset + r], axis=-1)


def expm_2x2(block: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for a traceless Hermitian 2x2 H, in closed form."""
    r = math.sqrt(abs(block[0, 0]) ** 2 + abs(block[0, 1]) ** 2)
    if r == 0.0:
        return np.eye(2, dtype=complex)
    return math.cos(r * t) * np.eye(2) - 1j * math.sin(r * t) * block / r


def rotation(theta: float, axis) -> np.ndarray:
    """exp(-i theta n.sigma / 2)."""
    nx, ny, nz = axis
    gen = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
    return math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * gen


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{i chi} b| over entries, with chi fitted to align b with a."""
    overlap = np.vdot(b, a)
    chi = np.angle(overlap) if abs(overlap) > 0 else 0.0
    return float(np.max(np.abs(a - np.exp(1j * chi) * b)))


def wrap(x: float) -> float:
    return (x + math.pi) % (2 * math.pi) - math.pi


def lambda00(j14):
    """Tracked |00> branch: -9/4 + J14/4 exactly."""
    return -9 / 4 + np.asarray(j14) / 4


def cubic(lam, j14):
    """The paper's cubic relation, satisfied by the tracked |11> branch."""
    return (64 * lam**3 + 16 * (j14 + 9) * lam**2
            - 4 * (5 * j14**2 - 14 * j14 + 9) * lam
            + 3 * j14**3 - 23 * j14**2 + 37 * j14 - 81)


def nearest_distance(values: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Distance of each value (n, k) to the closest eigenvalue in its row (n, d)."""
    return np.min(np.abs(values[:, :, None] - spectra[:, None, :]), axis=2)


def gap_above(spectra: np.ndarray, logical: np.ndarray) -> np.ndarray:
    """Lowest level outside the logical set minus the highest logical level.

    Each logical value removes its nearest eigenvalue from the row first.
    """
    out = np.empty(len(spectra))
    for k, (vals, logic) in enumerate(zip(spectra, logical)):
        pool = list(vals)
        for t in logic:
            pool.pop(int(np.argmin(np.abs(np.asarray(pool) - t))))
        out[k] = min(pool) - max(logic)
    return out
