"""Property tests on random coupling graphs (derandomized, so reproducible)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trispin.gates import RAMP_PROFILES, PulseSchedule, Segment, constant_segment, propagate
from trispin.hamiltonian import (
    CouplingGraph,
    build_hamiltonian,
    sector_spectrum,
    sz_sectors,
    total_spin,
)
from trispin.linalg import expm_minus_i_h_t, max_abs

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

couplings = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
fields = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def edge_sets(draw, min_sites=2, max_sites=5):
    n = draw(st.integers(min_sites, max_sites))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs),
                           unique=True))
    return n, sorted(chosen)


@st.composite
def graphs(draw):
    n, pairs = draw(edge_sets())
    return CouplingGraph(n, tuple((i, j, draw(couplings)) for (i, j) in pairs), draw(fields))


@st.composite
def ramp_hold_schedules(draw):
    """Ramp from idle to a random peak, hold it, ramp back."""
    n, pairs = draw(edge_sets())
    h = draw(fields)
    idle = CouplingGraph(n, tuple((i, j, draw(st.sampled_from((0.0, 1.0))))
                                  for (i, j) in pairs), h)
    peak = CouplingGraph(n, tuple((i, j, draw(couplings)) for (i, j) in pairs), h)
    shape = draw(st.sampled_from(sorted(RAMP_PROFILES)))
    ramp = draw(st.floats(0.1, 2.0))
    hold = draw(st.floats(0.1, 2.0))
    segments = (Segment(ramp, idle, peak, shape), constant_segment(hold, peak),
                Segment(ramp, peak, idle, shape))
    return PulseSchedule(segments, n, idle=idle), draw(st.integers(1, 6))


def dense_propagator(schedule: PulseSchedule, n_steps: int) -> np.ndarray:
    """Product of full-space midpoint exponentials, one Hamiltonian per step."""
    u = np.eye(2**schedule.n_sites, dtype=np.complex128)
    for seg in schedule.segments:
        if seg.ramp == "constant":
            u = expm_minus_i_h_t(build_hamiltonian(seg.start), seg.duration) @ u
            continue
        profile = RAMP_PROFILES[seg.ramp]
        dt = seg.duration / n_steps
        for k in range(n_steps):
            f = profile((k + 0.5) / n_steps)
            g = seg.start.with_couplings({
                (i, j): a + f * (seg.end.coupling(i, j) - a) for (i, j, a) in seg.start.edges})
            u = expm_minus_i_h_t(build_hamiltonian(g), dt) @ u
    return u


@PROPERTY_SETTINGS
@given(ramp_hold_schedules())
def test_blocked_propagation_equals_dense_midpoint_product(case):
    schedule, n_steps = case
    u = propagate(schedule, n_steps)
    assert max_abs(u - dense_propagator(schedule, n_steps)) <= 1e-12


@PROPERTY_SETTINGS
@given(ramp_hold_schedules())
def test_propagator_commutes_with_total_sz(case):
    schedule, n_steps = case
    u = propagate(schedule, n_steps)
    sz = total_spin(schedule.n_sites, "z")
    assert max_abs(u @ sz - sz @ u) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs())
def test_sector_spectrum_matches_dense_with_exact_labels(g):
    vals, labels = sector_spectrum(g)
    hmat = build_hamiltonian(g)
    assert max_abs(vals - np.linalg.eigvalsh(hmat)) <= 1e-10
    assert np.all(np.isin(labels, [s.m for s in sz_sectors(g.n_sites)]))
    # a level alone at its energy is an S_z eigenstate, so <S_z> is its label
    dense_vals, vecs = np.linalg.eigh(hmat)
    sz = np.real(np.einsum("ij,ik,kj->j", vecs.conj(), total_spin(g.n_sites, "z"), vecs))
    gaps = np.diff(dense_vals)
    alone = np.concatenate(([True], gaps > 1e-6)) & np.concatenate((gaps > 1e-6, [True]))
    assert max_abs(sz[alone] - labels[alone]) <= 1e-8
