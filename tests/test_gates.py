import numpy as np
import pytest

from trispin import cli, gates
from trispin.encoding import _SectorTracker, effective_h1, logical_basis, two_lq_basis
from trispin.gates import (
    _CHUNK,
    CALIBRATION_TOL,
    RAMP_PROFILES,
    PulseSchedule,
    Segment,
    axis120_gate,
    constant_segment,
    cphase_gate,
    decompose_su2,
    empty_schedule,
    gate_report,
    propagate,
    propagation_error_estimate,
    ramp_steps,
    rx_gate,
    rz_gate,
    single_lq_report,
    synthesize_axis120,
    synthesize_cphase,
    synthesize_rx,
    synthesize_rz,
    two_lq_report,
    zxz_angles,
)
from trispin.hamiltonian import (
    CouplingGraph,
    build_hamiltonian,
    single_lq_graph,
    total_spin,
    two_lq_graph,
)
from trispin.linalg import max_abs

from test_hamiltonian import expm, kron_hamiltonian


def random_su2(rng) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([[w - 1j * z, -y - 1j * x],
                     [y - 1j * x, w + 1j * z]])


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    tr = np.trace(b.conj().T @ a)
    phase = tr / abs(tr)
    return max_abs(a - phase * b)


class TestPropagate:
    def test_idle_schedule_phases_logical_states(self):
        t = 2.3
        idle = single_lq_graph(h=0.75)
        sched = PulseSchedule((constant_segment(t, idle),), 3, idle=idle)
        u = propagate(sched, 50)
        h = build_hamiltonian(idle)
        assert max_abs(u @ h - h @ u) <= 1e-10
        basis = logical_basis((0, 1, 2), 3)
        amp = np.vdot(basis.zero_l, u @ basis.zero_l)
        assert abs(amp - np.exp(1j * 9 / 8 * t)) < 1e-12

    @pytest.mark.parametrize("n_steps", [1, 7])
    def test_constant_segment_equals_expm(self, n_steps):
        g = single_lq_graph(j23=1.3, h=0.75)
        sched = PulseSchedule((constant_segment(0.9, g),), 3, idle=single_lq_graph(h=0.75))
        u = propagate(sched, n_steps)
        assert max_abs(u - expm(kron_hamiltonian(g), 0.9)) <= 1e-10

    def test_degenerate_ramp_equals_idle_hold(self):
        # Ramping every coupling from idle to idle is no modulation at all.
        idle = two_lq_graph(h=0.75)
        ramp = PulseSchedule((Segment(1.5, idle, idle, "linear"),), 6, idle=idle)
        hold = PulseSchedule((constant_segment(1.5, idle),), 6, idle=idle)
        assert max_abs(propagate(ramp, 40) - propagate(hold, 1)) <= 1e-12

    def test_empty_schedule_is_identity(self):
        assert np.array_equal(propagate(empty_schedule(3)), np.eye(8))

    @pytest.mark.parametrize("shape", ["linear", "smooth"])
    @pytest.mark.parametrize("n_steps", [600, 2000])
    def test_commuting_ramps_equal_the_exact_exponential(self, shape, n_steps):
        # On two sites J S1.S2 - h S_z commute for all J, so the midpoint product
        # is exp(-i sum_k H_k dt); both profiles have midpoint mean 1/2, so the
        # exchange integral is ramp (J0 + J1) + hold J1.  The triplet levels are
        # J/4 - h m and the singlet is -3J/4.
        j0, j1, h, ramp, hold = 1.0, 0.3, 0.75, 20.0, 10.0
        idle, peak = CouplingGraph(2, ((0, 1, j0),), h), CouplingGraph(2, ((0, 1, j1),), h)
        sched = PulseSchedule((Segment(ramp, idle, peak, shape), constant_segment(hold, peak),
                               Segment(ramp, peak, idle, shape)), 2, idle=idle)
        exchange, total = ramp * (j0 + j1) + hold * j1, 2 * ramp + hold
        m = np.diag(total_spin(2, "z")).real
        assert list(m) == [1, 0, 0, -1]
        singlet = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2
        exact = np.diag(np.exp(-1j * (exchange / 4 - h * m * total)))
        exact += (np.exp(3j * exchange / 4) - np.exp(-1j * exchange / 4)) * singlet
        assert max_abs(propagate(sched, n_steps) - exact) <= 1e-13

    def test_midpoint_second_order_convergence(self):
        idle = two_lq_graph(h=0.75)
        peak = idle.with_couplings({(0, 3): 0.5})
        sched = PulseSchedule((Segment(3.0, idle, peak, "linear"),
                               Segment(3.0, peak, idle, "linear")), 6, idle=idle)
        e1 = propagation_error_estimate(sched, 20)
        e2 = propagation_error_estimate(sched, 40)
        assert 2.0 < e1 / e2 < 8.0  # ratio ~4 within a factor of 2


@pytest.mark.parametrize("name", sorted(RAMP_PROFILES))
@pytest.mark.parametrize("n_steps", [1, 2, 7, _CHUNK, 2000])
def test_ramp_profiles_are_point_symmetric(name, n_steps):
    # f(1 - s) = 1 - f(s) at the midpoints makes a reversed ramp the up-ramp's
    # steps in reverse order, which the propagation reuses as a transpose
    profile = RAMP_PROFILES[name]
    s = (np.arange(n_steps) + 0.5) / n_steps
    assert max_abs(profile(s[::-1]) - (1 - profile(s))) <= 1e-15


# step counts below one chunk, just before, at and just after a chunk edge,
# and over two chunks with a partial one at the end
CHUNK_EDGE_STEPS = [1, 15, 16, 17, 40, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 88]


class TestBatchedPropagation:
    @pytest.mark.parametrize("n_steps", CHUNK_EDGE_STEPS)
    def test_eigh_calls_per_ramp_chunk(self, monkeypatch, n_steps):
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.5, (1, 2): 1.1, (4, 5): 1.1})
        schedule = PulseSchedule((Segment(2.0, idle, peak, "smooth"),
                                  constant_segment(1.5, peak),
                                  Segment(2.0, peak, idle, "smooth")), 6, idle=idle)
        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a)[-1])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        propagate(schedule, n_steps)
        chunks = -(-n_steps // _CHUNK)
        # block sizes 1, 6, 15 and 20: the 1x1 blocks take a closed form, the
        # others one call per chunk of the up-ramp and one for the hold; the
        # down-ramp is the up-ramp's transpose
        assert calls.count(1) == 0
        for size in (6, 15, 20):
            assert calls.count(size) == chunks + 1

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 16, 255, 256, 257])
    def test_pairwise_product_keeps_time_order_exactly(self, n_steps):
        # integer entries multiply exactly, so any change of order or a dropped
        # step shows as a different matrix, not as rounding
        rng = np.random.default_rng(n_steps)
        order = rng.permuted(np.tile(np.arange(5), (n_steps, 2, 1)), axis=-1)
        perms = np.eye(5, dtype=np.complex128)[order]
        heisenberg = np.tile(np.eye(3, dtype=np.int64), (n_steps, 1, 1, 1))
        heisenberg[:, 0, [0, 0, 1], [1, 2, 2]] = rng.integers(-2, 3, (n_steps, 3))
        for stack in (perms, heisenberg):
            expected = np.broadcast_to(np.eye(stack.shape[-1], dtype=stack.dtype),
                                       stack.shape[1:])
            for step in stack:
                expected = step @ expected
            assert np.array_equal(gates._time_ordered_product(stack), expected)


class TestSectorScoring:
    @staticmethod
    def _ramp_hold_ramp():
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.5, (1, 2): 1.1, (4, 5): 1.1})
        return PulseSchedule((Segment(2.0, idle, peak, "smooth"),
                              constant_segment(1.5, peak),
                              Segment(2.0, peak, idle, "smooth")), 6, idle=idle)

    @pytest.mark.parametrize("n_steps", CHUNK_EDGE_STEPS)
    def test_two_lq_report_diagonalizes_only_the_quartet_sector(self, monkeypatch, n_steps):
        stacks, eigh_shapes = [], []
        step_propagators, eigh = gates._step_propagators, np.linalg.eigh

        def counted_steps(h, dt):
            stacks.append(h.shape)
            return step_propagators(h, dt)

        def counted_eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(gates, "_step_propagators", counted_steps)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        two_lq_report(self._ramp_hold_ramp(), cphase_gate(np.pi), n_steps)
        # the quartet's invariant blocks of the m = +1 sector, dimensions 1, 2, 2, 3,
        # one stack each per chunk and per hold
        sizes = [shape[-1] for shape in stacks]
        assert sorted(sizes[:4]) == [1, 2, 2, 3]
        assert sizes == sizes[:4] * (len(sizes) // 4)
        # one matrix per block for each step of the up-ramp and for the hold;
        # the down-ramp is the up-ramp's transpose
        assert sum(int(np.prod(shape[:-2])) for shape in stacks) == 4 * (n_steps + 1)
        # only the 3x3 block needs LAPACK
        assert {shape[-2:] for shape in eigh_shapes} == {(3, 3)}

    @pytest.mark.parametrize("n_steps", [1, 40, _CHUNK + 1])
    def test_mirrored_ramp_equals_the_ramp_evaluated_anew(self, monkeypatch, n_steps):
        schedule = self._ramp_hold_ramp()
        up, hold, down = schedule.segments
        # one ulp longer, so it runs no earlier ramp backwards and is stepped anew
        anew = PulseSchedule((up, hold, Segment(np.nextafter(down.duration, np.inf),
                                                down.start, down.end, down.ramp)), 6,
                             idle=schedule.idle)
        matrices = []
        step_propagators = gates._step_propagators

        def counted(h, dt):
            matrices.append(int(np.prod(h.shape[:-2])))
            return step_propagators(h, dt)

        monkeypatch.setattr(gates, "_step_propagators", counted)
        reports = []
        for sched, stepped in ((schedule, n_steps + 1), (anew, 2 * n_steps + 1)):
            matrices.clear()
            reports.append(two_lq_report(sched, cphase_gate(np.pi), n_steps))
            assert sum(matrices) == 4 * stepped
        mirrored, stepped = reports
        assert max_abs(mirrored.logical_unitary - stepped.logical_unitary) <= 1e-13
        assert abs(mirrored.max_leakage - stepped.max_leakage) <= 1e-13

    def test_basis_spanning_two_sectors_is_rejected(self, monkeypatch):
        mixed = two_lq_basis()
        mixed[:, 3] = 0
        mixed[0b000111, 3] = 1.0  # three spins down: the m = 0 sector
        monkeypatch.setattr(gates, "two_lq_basis", lambda: mixed)
        with pytest.raises(ValueError, match="more than one S_z sector"):
            two_lq_report(self._ramp_hold_ramp(), cphase_gate(np.pi), 4)

    def test_empty_schedule_scores_as_identity(self):
        two = two_lq_report(PulseSchedule((), 6, idle=two_lq_graph()), np.eye(4))
        one = single_lq_report(empty_schedule(3), np.eye(2))
        for rep, u_full, basis in ((two, np.eye(64), two_lq_basis()),
                                   (one, np.eye(8), logical_basis((0, 1, 2), 3))):
            assert rep.fidelity == pytest.approx(1.0, abs=1e-15)
            assert rep.max_leakage <= 1e-15
            assert max_abs(rep.logical_unitary - np.eye(len(rep.logical_unitary))) <= 1e-15
            full = gate_report(u_full, np.eye(len(rep.logical_unitary)), basis)
            assert np.array_equal(rep.logical_unitary, full.logical_unitary)
        assert two.conditional_phase == 0.0

    def test_step_count_must_be_positive(self):
        for schedule in (PulseSchedule((), 6), self._ramp_hold_ramp()):
            with pytest.raises(ValueError, match="n_steps_per_segment must be at least 1"):
                two_lq_report(schedule, cphase_gate(np.pi), 0)
        with pytest.raises(ValueError, match="n_steps_per_segment must be at least 1"):
            single_lq_report(synthesize_rz(1.0, 0.5), rz_gate(1.0), 0)


class TestScheduleValidation:
    def test_rejects_nonpositive_duration(self):
        g = single_lq_graph()
        with pytest.raises(ValueError):
            Segment(0.0, g, g, "constant")

    def test_rejects_constant_with_moving_endpoints(self):
        with pytest.raises(ValueError):
            Segment(1.0, single_lq_graph(), single_lq_graph(j23=1.2), "constant")

    def test_rejects_discontinuous_ramp_junction(self):
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.5})
        other = idle.with_couplings({(0, 3): 0.3})
        with pytest.raises(ValueError, match="join continuously"):
            PulseSchedule((Segment(1.0, idle, peak, "linear"),
                           Segment(1.0, other, idle, "linear")), 6, idle=idle)

    def test_rejects_ramp_not_anchored_at_idle(self):
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.5})
        with pytest.raises(ValueError, match="start from idle"):
            PulseSchedule((Segment(1.0, peak, idle, "linear"),), 6, idle=idle)

    def test_rejects_non_idle_reference(self):
        g = single_lq_graph(j23=1.2)
        with pytest.raises(ValueError, match="idle couplings"):
            PulseSchedule((constant_segment(1.0, g),), 3, idle=g)

    def test_rejects_concatenation_across_fields(self):
        # One operator set serves the whole schedule, so the second field
        # would silently be replaced by the first.
        with pytest.raises(ValueError, match="share the field"):
            synthesize_rz(0.9, 0.5, h=0.75).then(synthesize_rz(0.7, 0.5, h=0.5))

    def test_rejects_mixed_edge_sets(self):
        idle = single_lq_graph()
        path = CouplingGraph(3, ((0, 1, 1.0), (1, 2, 1.0)), idle.field_h)
        with pytest.raises(ValueError, match="edge set"):
            PulseSchedule((constant_segment(1.0, idle), constant_segment(1.0, path)),
                          3, idle=idle)

    def test_from_dict_takes_the_idle_of_holds_from_the_caller(self):
        # no ramp anchors the idle configuration, and to_dict does not record it
        sched = synthesize_rz(1.3, 0.2)
        with pytest.raises(ValueError, match="needs its idle configuration"):
            PulseSchedule.from_dict(sched.to_dict())
        assert PulseSchedule.from_dict(sched.to_dict(), idle=sched.idle) == sched


class TestRampSteps:
    def test_holds_do_not_set_the_count(self):
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.1})
        sched = PulseSchedule((Segment(10.0, idle, peak, "smooth"),
                               constant_segment(57.4, peak),
                               Segment(10.0, peak, idle, "smooth")), 6, idle=idle)
        assert ramp_steps(sched, 20.0) == 200

    def test_schedule_without_ramps(self):
        assert ramp_steps(synthesize_rz(0.9, 0.5), 100.0) == 100
        assert ramp_steps(empty_schedule(3), 0.1) == 1

    @pytest.mark.parametrize("rate", [0.0, -3.0, np.inf, np.nan])
    def test_rejects_nonpositive_or_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="steps per unit time"):
            ramp_steps(synthesize_rz(0.9, 0.5), rate)


class TestRz:
    def test_quarter_turn(self):
        sched = synthesize_rz(np.pi / 2, 0.5)
        assert sched.total_duration == pytest.approx(np.pi)
        rep = single_lq_report(sched, rz_gate(np.pi / 2))
        assert rep.fidelity >= 1 - 1e-10
        assert rep.max_leakage <= 1e-12

    def test_zero_angle_is_empty(self):
        assert synthesize_rz(0.0, 0.5).segments == ()

    def test_inverse_composition(self):
        fwd = synthesize_rz(np.pi / 2, 0.5)
        bwd = synthesize_rz(-np.pi / 2, -0.5)
        assert bwd.total_duration == pytest.approx(fwd.total_duration)
        u = propagate(fwd.then(bwd), 10)
        basis = logical_basis((0, 1, 2), 3).columns
        m = basis.conj().T @ u @ basis
        assert phase_aligned_distance(m, np.eye(2)) <= 1e-10

    def test_window_violation(self):
        with pytest.raises(ValueError, match="window"):
            synthesize_rz(np.pi / 2, 0.8)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("synthesize", [
    synthesize_rz, synthesize_rx,
    lambda theta, delta: synthesize_axis120(theta, delta, which="j13"),
])
def test_rotation_angle_must_be_finite(synthesize, theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        synthesize(theta, 0.25)


class TestAxis120:
    def test_generator_eigenvectors(self):
        # The split eigenstates of the J12 excursion generator, from the exact
        # logical projection: (sqrt(3)/2)|0> + (1/2)|1> and (1/2)|0> - (sqrt(3)/2)|1>.
        eff = effective_h1(1.3, 1.0, 1.0)
        vals, vecs = np.linalg.eigh(eff.matrix)
        expected_low = np.array([0.5, -np.sqrt(3) / 2])
        expected_high = np.array([np.sqrt(3) / 2, 0.5])
        assert min(max_abs(vecs[:, 0] - expected_low), max_abs(vecs[:, 0] + expected_low)) < 1e-12
        assert min(max_abs(vecs[:, 1] - expected_high), max_abs(vecs[:, 1] + expected_high)) < 1e-12

    def test_full_turn_is_identity(self):
        rep = single_lq_report(synthesize_axis120(2 * np.pi, 0.5), np.eye(2))
        assert rep.fidelity >= 1 - 1e-10
        assert rep.max_leakage <= 1e-12

    def test_j13_is_sigma_z_conjugate_of_j12(self):
        theta = 0.8
        u12 = single_lq_report(synthesize_axis120(theta, 0.4, "j12"),
                               axis120_gate(theta, "j12")).logical_unitary
        u13 = single_lq_report(synthesize_axis120(theta, 0.4, "j13"),
                               axis120_gate(theta, "j13")).logical_unitary
        sz = np.diag([1.0, -1.0])
        assert phase_aligned_distance(u13, sz @ u12 @ sz) <= 1e-10

    def test_target_match(self):
        rep = single_lq_report(synthesize_axis120(np.pi / 2, 0.5), axis120_gate(np.pi / 2))
        assert rep.fidelity >= 1 - 1e-10


class TestRx:
    def test_generator_is_purely_off_diagonal(self):
        d = 0.2
        eff = effective_h1(1 + 2 * d, 1.0, 1 + d)
        assert abs(eff.matrix[0, 0]) == 0.0
        assert abs(eff.matrix[0, 1] - np.sqrt(3) * d / 2) < 1e-15

    def test_pi_flip(self):
        sched = synthesize_rx(np.pi, 0.25)
        u = propagate(sched, 10)
        basis = logical_basis((0, 1, 2), 3)
        # |0_L> maps to -i |1_L> up to the idle global phase
        amp = np.vdot(basis.one_l, u @ basis.zero_l)
        assert abs(abs(amp) - 1) < 1e-10
        rep = single_lq_report(sched, rx_gate(np.pi))
        assert rep.fidelity >= 1 - 1e-10
        assert rep.max_leakage <= 1e-12

    def test_zero_angle(self):
        assert synthesize_rx(0.0, 0.25).segments == ()

    def test_window_violation(self):
        with pytest.raises(ValueError, match="window"):
            synthesize_rx(1.0, 0.4)  # J12 excursion 2*delta = 0.8


class TestDecomposeSu2:
    def test_z_rotation_is_single_segment(self):
        sched = decompose_su2(rz_gate(0.7))
        assert len(sched.segments) == 1

    def test_identity_is_empty(self):
        assert decompose_su2(np.eye(2)).segments == ()

    def test_hadamard_like_target(self):
        axis = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        gen = axis[0] * np.array([[0, 1], [1, 0]]) + axis[2] * np.diag([1, -1])
        target = np.cos(np.pi / 2) * np.eye(2) - 1j * np.sin(np.pi / 2) * gen
        sched = decompose_su2(target)
        assert len(sched.segments) == 3
        rep = single_lq_report(sched, target)
        assert rep.fidelity >= 1 - 1e-9

    def test_zxz_angles_round_trip(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            u = random_su2(rng)
            a, b, g = zxz_angles(u)
            rebuilt = rz_gate(a) @ rx_gate(b) @ rz_gate(g)
            assert phase_aligned_distance(rebuilt, u) < 1e-10

    def test_random_targets(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            target = random_su2(rng)
            rep = single_lq_report(decompose_su2(target), target)
            assert rep.fidelity >= 1 - 1e-8
            assert rep.max_leakage <= 1e-10


class TestCphase:
    def test_zero_phase_is_empty(self):
        assert synthesize_cphase(0.0, 0.5, 10.0).segments == ()

    def test_pulse_structure(self):
        sched = synthesize_cphase(np.pi, 0.5, 5.0, n_calibration_steps=60)
        kinds = [s.ramp for s in sched.segments]
        assert kinds in (["smooth", "constant", "smooth"], ["smooth", "smooth"])
        peak = sched.segments[0].end
        assert peak.coupling(0, 3) == 0.5
        assert peak.coupling(1, 2) == peak.coupling(4, 5)

    def test_linear_shape_available(self):
        sched = synthesize_cphase(np.pi, 0.5, 5.0, n_calibration_steps=60,
                                  ramp_shape="linear")
        assert sched.segments[0].ramp == "linear"
        rep = two_lq_report(sched, cphase_gate(np.pi), n_steps_per_segment=600)
        assert rep.fidelity >= 0.999

    def test_gate_quality_and_phase(self):
        sched = synthesize_cphase(np.pi, 0.5, 15.0, n_calibration_steps=120)
        rep = two_lq_report(sched, cphase_gate(np.pi), n_steps_per_segment=1500)
        assert rep.fidelity >= 0.999
        assert rep.max_leakage < 1e-3
        assert abs(abs(rep.conditional_phase) - np.pi) < 0.01

    def test_sequential_mode_matches(self):
        sched = synthesize_cphase(np.pi, 0.5, 10.0, n_calibration_steps=80,
                                  mode="sequential")
        assert sched.segments[-1].ramp == "constant"
        rep = two_lq_report(sched, cphase_gate(np.pi), n_steps_per_segment=1000)
        assert rep.fidelity >= 0.998

    def test_quench_leaks_more_than_ramp(self):
        slow = synthesize_cphase(np.pi, 0.5, 10.0, n_calibration_steps=80)
        quench = synthesize_cphase(np.pi, 0.5, 1e-3, n_calibration_steps=20)
        rep_slow = two_lq_report(slow, cphase_gate(np.pi), n_steps_per_segment=1000)
        rep_quench = two_lq_report(quench, cphase_gate(np.pi), n_steps_per_segment=50)
        assert rep_quench.max_leakage > rep_slow.max_leakage

    def test_window_violation(self):
        with pytest.raises(ValueError, match="gapped window"):
            synthesize_cphase(np.pi, 0.9, 10.0)
        with pytest.raises(ValueError, match="gapped window"):
            synthesize_cphase(np.pi, 0.0, 10.0)

    @pytest.mark.parametrize("ramp_time", [float("nan"), float("inf"), 0.0, -1.0])
    def test_ramp_time_must_be_positive_and_finite(self, ramp_time):
        with pytest.raises(ValueError, match="positive and finite"):
            synthesize_cphase(np.pi, 0.5, ramp_time)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_phi_must_be_finite_before_calibration(self, monkeypatch, phi):
        def no_walk(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(_SectorTracker, "walk", no_walk)
        for mode in ("simultaneous", "sequential"):
            with pytest.raises(ValueError, match="phi must be finite"):
                synthesize_cphase(phi, 0.5, 10.0, mode=mode)

    def test_unreachable_phase(self):
        with pytest.raises(ValueError, match="unreachable"):
            synthesize_cphase(np.pi, 0.05, 1.0, n_calibration_steps=20,
                              max_duration=30.0)


class TestCphaseCalibration:
    @pytest.fixture(scope="class")
    def default_gate(self):
        return synthesize_cphase(np.pi, 0.5, 20.0)

    def test_residual_recomputed_below_tolerance(self, default_gate):
        ramp_seg, hold_seg, _ = default_gate.segments
        peak = ramp_seg.end
        eps = peak.coupling(1, 2) - 1.0
        assert eps == peak.coupling(4, 5) - 1.0
        ramp, top = gates._trapezoid_phases(_SectorTracker(0.75), 0.5, eps, 20.0,
                                            160, "smooth")
        sq = 2 * gates._single_qubit(ramp) + gates._single_qubit(top) * hold_seg.duration
        residual = sq - 2 * np.pi * np.round(sq / (2 * np.pi))
        assert abs(residual) <= CALIBRATION_TOL

    def test_default_gate_takes_few_walks(self, monkeypatch):
        count = [0]
        walk = _SectorTracker.walk

        def counted(self, *args, **kwargs):
            count[0] += 1
            return walk(self, *args, **kwargs)

        monkeypatch.setattr(_SectorTracker, "walk", counted)
        synthesize_cphase(np.pi, 0.5, 20.0)
        assert count[0] <= 6

    @staticmethod
    def _step_phases(monkeypatch):
        # Single-qubit phase +2 below shift 0.1 and -2 above it: the sign
        # changes inside the bracket but no shift brings it near zero.
        def phases(tracker, j14_peak, eps, ramp_time, n_nodes, ramp_shape):
            s = 1.0 if eps < 0.1 else -1.0
            return np.array([s, 0.0, 0.0, 1.0 - s]), np.array([0.0, 0.0, 0.0, 1.0])

        monkeypatch.setattr(gates, "_trapezoid_phases", phases)

    def test_non_converging_calibration_raises(self, monkeypatch):
        self._step_phases(monkeypatch)
        with pytest.raises(ArithmeticError, match="did not converge"):
            synthesize_cphase(np.pi, 0.5, 20.0)

    def test_non_converging_calibration_exits_numerical(self, monkeypatch, tmp_path, capsys):
        self._step_phases(monkeypatch)
        code = cli.main(["gate", "--type", "cphase", "--out", str(tmp_path / "g.json")])
        assert code == cli.EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err


class TestGateReport:
    def test_identity(self):
        basis = logical_basis((0, 1, 2), 3)
        rep = gate_report(np.eye(8), np.eye(2), basis)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.max_leakage <= 1e-15
        assert rep.conditional_phase is None

    def test_rz_schedule_is_leakage_free(self):
        rep = single_lq_report(synthesize_rz(np.pi / 2, 0.5), rz_gate(np.pi / 2))
        assert rep.max_leakage <= 1e-12

    def test_conditional_phase_of_diagonal_gate(self):
        basis = two_lq_basis()
        u = np.eye(64, dtype=complex)
        phases = {0: 0.3, 1: -0.2, 2: 0.5, 3: 1.9}
        proj = basis @ basis.conj().T
        u = u - proj
        for k, ph in phases.items():
            col = basis[:, k]
            u = u + np.exp(1j * ph) * np.outer(col, col.conj())
        rep = gate_report(u, cphase_gate(0.9), basis)
        expected = phases[0] + phases[3] - phases[1] - phases[2]
        assert rep.conditional_phase == pytest.approx(expected, abs=1e-12)

    def test_short_time_generator_matches_closed_form(self):
        # i log(M)/t of the logical block of a t = 1e-3 hold recovers the
        # effective generator up to an identity part
        rng = np.random.default_rng(59)
        t = 1e-3
        for _ in range(5):
            j12, j13, j23 = rng.uniform(0.25, 1.75, 3)
            graph = single_lq_graph(j12, j13, j23, h=0.75)
            sched = PulseSchedule((constant_segment(t, graph),), 3,
                                  idle=single_lq_graph(h=0.75))
            basis = logical_basis((0, 1, 2), 3).columns
            m = basis.conj().T @ propagate(sched, 1) @ basis
            vals, vecs = np.linalg.eig(m)
            gen = 1j * (vecs @ np.diag(np.log(vals)) @ np.linalg.inv(vecs)) / t
            gen = gen - np.trace(gen) / 2 * np.eye(2)
            expected = effective_h1(j12, j13, j23).matrix
            assert max_abs(gen - expected) < 1e-6

    def test_schedule_composition_is_product_of_blocks(self):
        a = synthesize_rz(0.9, 0.5)
        b = synthesize_rx(0.7, 0.25)
        basis = logical_basis((0, 1, 2), 3).columns
        ua = propagate(a, 10)
        ub = propagate(b, 10)
        uc = propagate(a.then(b), 10)
        ma = basis.conj().T @ ua @ basis
        mb = basis.conj().T @ ub @ basis
        mc = basis.conj().T @ uc @ basis
        assert max_abs(mc - mb @ ma) <= 1e-8
