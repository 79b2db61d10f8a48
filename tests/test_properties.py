"""Property tests on random coupling graphs (derandomized, so reproducible)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trispin.encoding import (
    effective_h1,
    initialization_ground,
    logical_basis,
    project_effective,
    singlet_probability,
    two_lq_basis,
)
from trispin.gates import (
    _CHUNK,
    _step_propagators,
    RAMP_PROFILES,
    PulseSchedule,
    Segment,
    constant_segment,
    cphase_gate,
    gate_report,
    propagate,
    ramp_steps,
    rotation_gate,
    single_lq_report,
    synthesize_axis120,
    synthesize_rx,
    synthesize_rz,
    two_lq_report,
)
from trispin.hamiltonian import (
    CouplingGraph,
    SectorOperators,
    build_hamiltonian,
    invariant_blocks,
    sector_spectrum,
    single_lq_graph,
    sz_sectors,
    two_lq_graph,
)
from trispin.linalg import max_abs

from test_hamiltonian import PAULI_HALF, expm, kron_hamiltonian, kron_spin, total_spin

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

couplings = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
fields = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
# one step, just before, at and just after a chunk edge, and over two chunks
chunk_edge_steps = st.sampled_from((1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 88))


def rate_for(n_steps: int, duration: float) -> float:
    """A steps-per-unit-time rate at which a ramp of ``duration`` takes exactly ``n_steps``."""
    rate = n_steps / duration
    if ramp_steps(duration, rate) > n_steps:  # duration * rate rounded above n_steps
        rate = np.nextafter(rate, 0.0)
    assert ramp_steps(duration, rate) == n_steps
    return rate


def oracle_steps(duration: float, rate: float) -> int:
    """The step rule, written out for the oracles: ceil(duration x rate), at least 1."""
    return max(1, math.ceil(duration * rate))


@st.composite
def edge_sets(draw, min_sites=2, max_sites=5):
    """At least one edge, with the edge count drawn first; tests that need the
    edgeless case name it in an ``@example`` (``EDGELESS``)."""
    n = draw(st.integers(min_sites, max_sites))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(1, len(pairs)))
    return n, sorted(draw(st.permutations(pairs))[:count])


EDGELESS = CouplingGraph(3, (), 0.4)


@st.composite
def graphs(draw):
    n, pairs = draw(edge_sets())
    return CouplingGraph(n, tuple((i, j, draw(couplings)) for (i, j) in pairs), draw(fields))


@st.composite
def weight_rows(draw):
    """An edge set on 3 to 6 sites, and two to six rows of generic (not round)
    couplings on it, each with a field: ``(n_sites, pairs, weights, fields)``."""
    n, pairs = draw(edge_sets(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(2, 6))
    return n, pairs, rng.uniform(-1.5, 1.5, (n_rows, len(pairs))), rng.uniform(-1.0, 1.0, n_rows)


@st.composite
def single_lq_schedules(draw, h):
    """A sudden single-LQ rotation (empty at zero angle) at field ``h``."""
    theta = draw(st.sampled_from((0.0, np.pi / 2, -1.3, 2.9)))
    delta = draw(st.floats(0.05, 0.35))
    kind = draw(st.sampled_from(("rz", "rx", "j12", "j13")))
    if kind == "rz":
        return synthesize_rz(theta, delta, h=h)
    if kind == "rx":
        return synthesize_rx(theta, delta, h=h)
    return synthesize_axis120(theta, delta, which=kind, h=h)


@st.composite
def ramp_hold_schedules(draw):
    """Ramp from idle to a random peak, hold it, ramp back; and a rate of 1 to 6 steps per ramp."""
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
    return PulseSchedule(segments, n, idle=idle), rate_for(draw(st.integers(1, 6)), ramp)


@st.composite
def two_lq_schedules(draw):
    """Ramp-hold-ramp on the two-LQ edge set to generic peak couplings."""
    idle = two_lq_graph(h=draw(fields))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    peak = idle.with_couplings({(i, j): rng.uniform(-1.5, 1.5) for (i, j, _) in idle.edges})
    shape = draw(st.sampled_from(sorted(RAMP_PROFILES)))
    ramp, hold = rng.uniform(0.1, 2.0, 2)
    segments = (Segment(ramp, idle, peak, shape), constant_segment(hold, peak),
                Segment(ramp, peak, idle, shape))
    return PulseSchedule(segments, 6, idle=idle), cphase_gate(rng.uniform(-np.pi, np.pi))


@st.composite
def single_lq_hold_schedules(draw):
    """One to three sudden holds of generic 3-site couplings."""
    h = draw(fields)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = tuple(constant_segment(rng.uniform(0.1, 3.0),
                                      single_lq_graph(*rng.uniform(-1.5, 1.5, 3), h=h))
                     for _ in range(draw(st.integers(1, 3))))
    axis = rng.normal(size=3)
    target = rotation_gate(rng.uniform(-np.pi, np.pi), axis / np.linalg.norm(axis))
    return PulseSchedule(segments, 3, idle=single_lq_graph(h=h)), target


def assert_close_report(a, b, tol=1e-12):
    assert max_abs(a.logical_unitary - b.logical_unitary) <= tol
    assert abs(a.fidelity - b.fidelity) <= tol
    assert abs(a.max_leakage - b.max_leakage) <= tol
    assert abs(a.avg_leakage - b.avg_leakage) <= tol
    assert (a.conditional_phase is None) == (b.conditional_phase is None)
    if a.conditional_phase is not None:
        assert abs(np.angle(np.exp(1j * (a.conditional_phase - b.conditional_phase)))) <= tol


@PROPERTY_SETTINGS
@given(two_lq_schedules(), chunk_edge_steps)
def test_two_lq_report_equals_full_propagator_report(case, n_steps):
    schedule, target = case
    rate = rate_for(n_steps, schedule.segments[0].duration)
    assert_close_report(two_lq_report(schedule, target, rate),
                        gate_report(propagate(schedule, rate), target, two_lq_basis()))


@PROPERTY_SETTINGS
@given(single_lq_hold_schedules(), st.sampled_from((1.0, 2.0, 3.0, 4.0)))
def test_single_lq_report_equals_full_propagator_report(case, rate):
    # holds only: one exact exponential each, whatever the rate
    schedule, target = case
    assert_close_report(single_lq_report(schedule, target, rate),
                        gate_report(propagate(schedule, rate), target,
                                    logical_basis((0, 1, 2), 3)))


def _quartet_sector_closures(schedule):
    """Invariant blocks of the quartet columns under one schedule's segment endpoints."""
    ops = SectorOperators(6, [(i, j) for (i, j, _) in schedule.segments[0].start.edges],
                          ms=(1.0,))
    (sector,) = ops.sectors
    ends = [ops.weights(g) for seg in schedule.segments for g in (seg.start, seg.end)]
    generators = sector.exchange(ends)
    columns = two_lq_basis()[sector.indices].real
    return generators, invariant_blocks(generators, columns)


@PROPERTY_SETTINGS
@given(two_lq_schedules())
def test_invariant_blocks_are_closed_under_every_generator(case):
    schedule, _ = case
    generators, blocks = _quartet_sector_closures(schedule)
    assert sorted(c for members, _ in blocks for c in members) == [0, 1, 2, 3]
    for _, basis in blocks:
        assert max_abs(basis.T @ basis - np.eye(basis.shape[1])) <= 1e-12
        for h in generators:
            assert max_abs(h @ basis - basis @ (basis.T @ h @ basis)) <= 1e-12


@PROPERTY_SETTINGS
@given(st.floats(0.05, 0.7), st.floats(-0.3, 0.3), st.floats(0.05, 0.5), fields)
def test_symmetry_breaking_schedule_gets_larger_blocks(j14, shift, tilt, h):
    idle = two_lq_graph(h=h)
    symmetric = idle.with_couplings({(0, 3): j14, (1, 2): 1 + shift, (4, 5): 1 + shift})
    schedules = [PulseSchedule((Segment(2.0, idle, peak, "smooth"),
                                Segment(2.0, peak, idle, "smooth")), 6, idle=idle)
                 for peak in (symmetric, symmetric.with_couplings({(0, 1): 1 + tilt}))]
    (_, kept), (_, broken) = (_quartet_sector_closures(s) for s in schedules)
    assert [basis.shape[1] for _, basis in kept] == [1, 2, 2, 3]
    assert len(broken) < 4
    assert sum(basis.shape[1] for _, basis in broken) > 8
    target = cphase_gate(np.pi)
    # 20 steps per ramp of 2.0
    assert_close_report(two_lq_report(schedules[1], target, 10.0),
                        gate_report(propagate(schedules[1], 10.0), target, two_lq_basis()))


def dense_propagator(schedule: PulseSchedule, rate: float) -> np.ndarray:
    """Product of full-space midpoint exponentials: one per step, ``oracle_steps`` per ramp."""
    u = np.eye(2**schedule.n_sites, dtype=np.complex128)
    for seg in schedule.segments:
        if seg.ramp == "constant":
            u = expm(kron_hamiltonian(seg.start), seg.duration) @ u
            continue
        profile = RAMP_PROFILES[seg.ramp]
        n_steps = oracle_steps(seg.duration, rate)
        dt = seg.duration / n_steps
        for k in range(n_steps):
            f = profile((k + 0.5) / n_steps)
            g = seg.start.with_couplings({
                (i, j): a + f * (seg.end.coupling(i, j) - a) for (i, j, a) in seg.start.edges})
            u = expm(kron_hamiltonian(g), dt) @ u
    return u


@PROPERTY_SETTINGS
@given(ramp_hold_schedules())
@example((PulseSchedule((Segment(1.0, EDGELESS, EDGELESS, "smooth"),
                         constant_segment(0.5, EDGELESS)), 3, idle=EDGELESS), 3.0))
def test_blocked_propagation_equals_dense_midpoint_product(case):
    schedule, rate = case
    u = propagate(schedule, rate)
    assert max_abs(u - dense_propagator(schedule, rate)) <= 1e-12


def stepwise_propagator(schedule: PulseSchedule, rate: float) -> np.ndarray:
    """Sector blocks evolved one midpoint step at a time with ``gates``' own step propagators.

    Each ramp takes ``oracle_steps(duration, rate)`` steps and is stepped anew,
    also where it runs an earlier ramp backwards.

    The steps are exchange only, and the field is the phase e^{i h m T} of each
    sector over the whole duration T: the field commutes with every step.
    """
    first = schedule.segments[0].start
    ops = SectorOperators(first.n_sites, [(i, j) for (i, j, _) in first.edges])
    u = [np.eye(len(sector.indices), dtype=np.complex128) for sector in ops.sectors]

    def steps(weights, dt, u):
        # the step propagators of all rows of ``weights`` at once, applied one at a time
        for props in zip(*(_step_propagators(h, dt) for h in ops.blocks(weights))):
            u = [p @ prev for p, prev in zip(props, u)]
        return u

    for seg in schedule.segments:
        w0 = ops.weights(seg.start)
        if seg.ramp == "constant":
            u = steps(w0[None], seg.duration, u)
            continue
        profile = RAMP_PROFILES[seg.ramp]
        w1 = ops.weights(seg.end)
        n_steps = oracle_steps(seg.duration, rate)
        f = profile((np.arange(n_steps) + 0.5) / n_steps)
        u = steps(w0 + f[:, None] * (w1 - w0), seg.duration / n_steps, u)
    phase = first.field_h * schedule.total_duration
    return ops.embed([np.exp(1j * phase * sector.m) * blk
                      for sector, blk in zip(ops.sectors, u)])


@PROPERTY_SETTINGS
@given(ramp_hold_schedules(), chunk_edge_steps)
def test_chunked_propagation_matches_stepwise_product(case, n_steps):
    # the pairwise product associates the steps differently, so the two agree
    # to rounding, not bit for bit: at most 5.5e-15 over these examples, 3.7e-14 over 200
    schedule, _ = case
    rate = rate_for(n_steps, schedule.segments[0].duration)
    assert max_abs(propagate(schedule, rate) - stepwise_propagator(schedule, rate)) <= 1e-13


@PROPERTY_SETTINGS
@given(ramp_hold_schedules(), st.floats(0.2, 0.45))
def test_each_ramp_is_stepped_at_its_own_density(case, ratio):
    # a ramp down shorter than the ramp up takes fewer steps at the same rate,
    # and is stepped anew, as the oracle steps it
    schedule, rate = case
    up, hold, down = schedule.segments
    short = Segment(ratio * down.duration, down.start, down.end, down.ramp)
    schedule = PulseSchedule((up, hold, short), schedule.n_sites, idle=schedule.idle)
    n_up, n_down = (oracle_steps(seg.duration, rate) for seg in (up, short))
    assert n_down < n_up or n_up == 1
    assert max_abs(propagate(schedule, rate) - stepwise_propagator(schedule, rate)) <= 1e-13


entries = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def small_symmetric_stacks(draw):
    """Stacks of real symmetric 1x1 or 2x2 matrices, zero entries and a = c included."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(entries), draw(entries)
        c = draw(st.one_of(st.just(a), entries))
        rows.append([[a, b], [b, c]])
    stack = np.array(rows)
    return stack[:, :1, :1] if draw(st.booleans()) else stack


@PROPERTY_SETTINGS
@given(small_symmetric_stacks(), st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 2000.0)))
@example(np.zeros((1, 2, 2)), 2000.0)
@example(np.array([[[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, -3.0]]]), 2000.0)
@example(np.array([[[2.0, 1e-9], [1e-9, 2.0]], [[-1.0, 7.0], [7.0, -1.0]]]), 1.3)
def test_closed_form_steps_match_eigh(stack, dt):
    vals, vecs = np.linalg.eigh(stack)
    oracle = (vecs * np.exp(-1j * vals * dt)[..., None, :]) @ vecs.swapaxes(-1, -2)
    err = np.abs(_step_propagators(stack, dt) - oracle).max(axis=(-2, -1))
    assert np.all(err <= 4e-15 * (1 + np.abs(vals).max(axis=-1) * dt))


@PROPERTY_SETTINGS
@given(ramp_hold_schedules())
@example((PulseSchedule((), 4), 1.0))
def test_schedule_dict_round_trip(case):
    schedule, _ = case
    data = schedule.to_dict()
    assert PulseSchedule.from_dict(data) == schedule
    assert PulseSchedule.from_dict(json.loads(json.dumps(data))) == schedule


@PROPERTY_SETTINGS
@given(ramp_hold_schedules())
def test_propagator_commutes_with_total_sz(case):
    schedule, rate = case
    u = propagate(schedule, rate)
    sz = total_spin(schedule.n_sites, "z")
    assert max_abs(u @ sz - sz @ u) <= 1e-12


@PROPERTY_SETTINGS
@given(graphs())
@example(EDGELESS)
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


@PROPERTY_SETTINGS
@given(weight_rows())
@example((3, [], np.zeros((2, 0)), np.array([0.4, -0.7])))
def test_batched_sector_spectra_equal_single_graph_rows(batch):
    n, pairs, weights, fields = batch
    vals, labels = SectorOperators(n, pairs).spectra(weights, fields)
    assert vals.shape == labels.shape == (len(weights), 2**n)
    for row, h, row_vals, row_labels in zip(weights, fields, vals, labels):
        g = CouplingGraph(n, tuple((i, j, w) for (i, j), w in zip(pairs, row)), h)
        one_vals, one_labels = sector_spectrum(g)
        assert np.array_equal(row_vals, one_vals)
        assert np.array_equal(row_labels, one_labels)


@st.composite
def generic_graphs(draw):
    """Graphs on 3 to 7 sites with generic (not round) couplings and fields."""
    n, pairs = draw(edge_sets(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return CouplingGraph(n, tuple((i, j, rng.uniform(-1.5, 1.5)) for (i, j) in pairs),
                         rng.uniform(-1.0, 1.0))


# the general 6-site graph of tools/bytecheck.py: stacked with the m = -1 block
# of the same size, its m = +1 block once differed from the block alone by 1.1e-16
BYTECHECK_GRAPH = CouplingGraph(6, ((0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.2), (3, 4, 0.4),
                                    (4, 5, 1.0), (0, 5, 0.3), (1, 4, 0.9), (2, 5, 0.6)), 0.5)


@PROPERTY_SETTINGS
@given(generic_graphs())
@example(BYTECHECK_GRAPH)
def test_sector_blocks_do_not_depend_on_the_other_sectors(g):
    ops = SectorOperators(g.n_sites, g.pairs)
    weights = ops.weights(g)
    vals, labels = ops.levels(weights[None], [g.field_h])
    for sector in ops.sectors:
        alone = SectorOperators(g.n_sites, g.pairs, ms=(sector.m,))
        block, (alone_block,) = sector.exchange(weights), alone.blocks(weights)
        assert np.array_equal(block, alone_block)
        # the eigvalsh of each, less h m
        assert np.array_equal(vals[:, labels == sector.m],
                              alone.levels(weights[None], [g.field_h])[0])


@PROPERTY_SETTINGS
@given(graphs())
def test_hamiltonian_equals_the_kron_oracle(g):
    hmat = build_hamiltonian(g)
    assert hmat.dtype == np.complex128
    assert max_abs(hmat - kron_hamiltonian(g)) <= 1e-14


@PROPERTY_SETTINGS
@given(graphs())
def test_hamiltonian_conserves_sz_and_total_spin_at_zero_field(g):
    hmat = build_hamiltonian(g)
    sz = total_spin(g.n_sites, "z")
    assert max_abs(hmat @ sz - sz @ hmat) <= 1e-12
    h0 = build_hamiltonian(CouplingGraph(g.n_sites, g.edges, 0.0))
    s2 = sum(total_spin(g.n_sites, a) @ total_spin(g.n_sites, a) for a in "xyz")
    assert max_abs(h0 @ s2 - s2 @ h0) <= 1e-12


@PROPERTY_SETTINGS
@given(couplings, couplings, couplings, fields)
def test_logical_block_is_effective_h1(j12, j13, j23, h):
    proj = project_effective(build_hamiltonian(single_lq_graph(j12, j13, j23, h)),
                             logical_basis((0, 1, 2), 3))
    eff = effective_h1(j12, j13, j23, h)
    assert max_abs(proj.matrix - eff.matrix) <= 1e-12
    assert abs(proj.trace_offset - eff.trace_offset) <= 1e-12
    assert proj.off_block_residual <= 1e-12


@PROPERTY_SETTINGS
@given(st.data(), fields)
def test_then_is_associative(data, h):
    a, b, c = (data.draw(single_lq_schedules(h)) for _ in range(3))
    assert a.then(b).then(c) == a.then(b.then(c))


def dense_initialization_ground(j23_shift: float, h: float):
    """Oracle: label, overlap and splitting from the eigenvectors of the 8x8 Kronecker H.

    The ground levels (within the degeneracy tolerance of the lowest) must hold
    a state of the m = +1/2 doublet: some logical basis state has a projection
    of norm above 0.5 onto them.
    """
    vals, vecs = np.linalg.eigh(kron_hamiltonian(single_lq_graph(j23=1.0 + j23_shift, h=h)))
    tol = 1e-9 * np.max(np.abs(vals))
    columns = logical_basis((0, 1, 2), 3).columns
    if not np.max(np.linalg.norm(columns.conj().T @ vecs[:, vals - vals[0] <= tol], axis=1)) > 0.5:
        raise ValueError("not in the logical doublet")
    splitting = vals[1] - vals[0]
    if splitting <= tol:
        return None, 0.0, splitting
    ov0, ov1 = np.abs(columns.conj().T @ vecs[:, 0]) ** 2
    return ("0_L", ov0, splitting) if ov0 >= ov1 else ("1_L", ov1, splitting)


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.floats(-0.75, 0.75, exclude_min=True, exclude_max=True), st.floats(-0.5, 2.0))
@example(0.0, 0.75)  # degenerate doublet
@example(0.3, 0.0)  # m = +1/2 and -1/2 doublets degenerate
@example(0.0, 1.5)  # the m = 3/2 level meets the doublet
@example(0.3, 2.0)  # ground of m = 3/2
@example(0.3, -0.5)  # ground in the m = -1/2 doublet
def test_initialization_ground_equals_the_dense_oracle(shift, h):
    try:
        label, overlap, splitting = dense_initialization_ground(shift, h)
    except ValueError:
        with pytest.raises(ValueError, match="is not in the logical doublet"):
            initialization_ground(shift, h)
        return
    rep = initialization_ground(shift, h)
    assert rep.label == label
    assert abs(rep.overlap - overlap) <= 1e-12 and abs(rep.splitting - splitting) <= 1e-12


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(st.integers(2, 6), st.data())
def test_singlet_probability_equals_the_dense_projector(n_sites, data):
    i, j = data.draw(st.permutations(range(n_sites)))[:2]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=2**n_sites) + 1j * rng.normal(size=2**n_sites)
    state /= np.linalg.norm(state)
    exchange = sum(kron_spin(n_sites, i, s) @ kron_spin(n_sites, j, s) for s in PAULI_HALF)
    dense = np.real(state.conj() @ (np.eye(2**n_sites) / 4 - exchange) @ state)
    assert abs(singlet_probability(state, (i, j), n_sites) - min(max(dense, 0.0), 1.0)) <= 1e-12
