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
    IDLE_FIELD,
    CouplingGraph,
    build_hamiltonian,
    single_lq_graph,
    two_lq_graph,
)
from trispin.linalg import BudgetError, max_abs

from test_hamiltonian import expm, kron_hamiltonian, total_spin


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
        u = propagate(sched)
        h = build_hamiltonian(idle)
        assert max_abs(u @ h - h @ u) <= 1e-10
        basis = logical_basis((0, 1, 2), 3)
        amp = np.vdot(basis.zero_l, u @ basis.zero_l)
        assert abs(amp - np.exp(1j * 9 / 8 * t)) < 1e-12

    @pytest.mark.parametrize("rate", [1, 7])
    def test_constant_segment_equals_expm(self, rate):
        g = single_lq_graph(j23=1.3, h=0.75)
        sched = PulseSchedule((constant_segment(0.9, g),), 3, idle=single_lq_graph(h=0.75))
        u = propagate(sched, rate)
        assert max_abs(u - expm(kron_hamiltonian(g), 0.9)) <= 1e-10

    def test_degenerate_ramp_equals_idle_hold(self):
        # Ramping every coupling from idle to idle is no modulation at all.
        idle = two_lq_graph(h=0.75)
        ramp = PulseSchedule((Segment(1.5, idle, idle, "linear"),), 6, idle=idle)
        hold = PulseSchedule((constant_segment(1.5, idle),), 6, idle=idle)
        assert max_abs(propagate(ramp, 40 / 1.5) - propagate(hold)) <= 1e-12

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
        assert max_abs(propagate(sched, n_steps / ramp) - exact) <= 1e-13

    def test_midpoint_second_order_convergence(self):
        idle = two_lq_graph(h=0.75)
        peak = idle.with_couplings({(0, 3): 0.5})
        sched = PulseSchedule((Segment(3.0, idle, peak, "linear"),
                               Segment(3.0, peak, idle, "linear")), 6, idle=idle)
        u20, u40, u80 = (propagate(sched, n / 3.0) for n in (20, 40, 80))
        e1, e2 = max_abs(u40 - u20), max_abs(u80 - u40)
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
        propagate(schedule, n_steps / 2.0)
        chunks = -(-n_steps // _CHUNK)
        # sectors of sizes 1, 6, 15, 20, 15, 6 and 1: the 1x1 blocks take a
        # closed form, the others one call each per chunk of the up-ramp and
        # one for the hold; the down-ramp is the up-ramp's transpose
        assert calls.count(1) == 0
        for size in (6, 15):
            assert calls.count(size) == 2 * (chunks + 1)
        assert calls.count(20) == chunks + 1
        assert len(calls) == 5 * (chunks + 1)

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
        two_lq_report(self._ramp_hold_ramp(), cphase_gate(np.pi), n_steps / 2.0)
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
        longer = np.nextafter(down.duration, np.inf)
        anew = PulseSchedule((up, hold, Segment(longer, down.start, down.end, down.ramp)), 6,
                             idle=schedule.idle)
        # a rate that gives both durations n_steps
        rate = np.nextafter(n_steps / longer, 0.0)
        assert ramp_steps(down.duration, rate) == ramp_steps(longer, rate) == n_steps
        matrices = []
        step_propagators = gates._step_propagators

        def counted(h, dt):
            matrices.append(int(np.prod(h.shape[:-2])))
            return step_propagators(h, dt)

        monkeypatch.setattr(gates, "_step_propagators", counted)
        reports = []
        for sched, stepped in ((schedule, n_steps + 1), (anew, 2 * n_steps + 1)):
            matrices.clear()
            reports.append(two_lq_report(sched, cphase_gate(np.pi), rate))
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
            two_lq_report(self._ramp_hold_ramp(), cphase_gate(np.pi))

    @pytest.mark.parametrize("schedule,score", [
        (empty_schedule(6), single_lq_report),
        (synthesize_cphase(np.pi, 0.5, 2.0, n_calibration_steps=8), single_lq_report),
        (empty_schedule(3), two_lq_report),
        (synthesize_rz(np.pi / 2, 0.5), two_lq_report),
    ], ids=["6-site empty", "6-site cphase", "3-site empty", "3-site rz"])
    def test_schedule_of_another_register_is_rejected(self, monkeypatch, schedule, score):
        # before any work: no operators are built
        monkeypatch.setattr(gates, "SectorOperators", None)
        sites = (6, 3) if score is single_lq_report else (3, 6)
        target = np.eye(2 if score is single_lq_report else 4)
        with pytest.raises(ValueError, match="schedule acts on {} sites, the basis on {}$"
                           .format(*sites)):
            score(schedule, target)

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

    def test_rate_must_be_finite_and_positive(self):
        # checked for every schedule, also those without ramps
        for rate in (0.0, -3.0, np.inf, np.nan):
            for schedule in (PulseSchedule((), 6), self._ramp_hold_ramp()):
                with pytest.raises(ValueError, match="steps per unit time"):
                    two_lq_report(schedule, cphase_gate(np.pi), rate)
            for schedule in (empty_schedule(3), synthesize_rz(1.0, 0.5)):
                with pytest.raises(ValueError, match="steps per unit time"):
                    single_lq_report(schedule, rz_gate(1.0), rate)
                with pytest.raises(ValueError, match="steps per unit time"):
                    propagate(schedule, rate)


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

    def test_from_dict_reads_the_idle_of_holds(self):
        # no ramp anchors the idle configuration, so only the "idle" entry gives it
        sched = synthesize_rz(1.3, 0.2)
        data = sched.to_dict()
        assert data["idle"]["edges"] == [[0, 1, 1.0], [0, 2, 1.0], [1, 2, 1.0]]
        assert PulseSchedule.from_dict(data) == sched
        del data["idle"]
        with pytest.raises(ValueError, match="needs its idle configuration"):
            PulseSchedule.from_dict(data)
        assert empty_schedule().to_dict()["idle"] is None


class TestRampRegistry:
    """A new entry of ``RAMP_PROFILES`` reaches every check and the CLI."""

    @pytest.fixture(autouse=True)
    def cubic(self, monkeypatch):
        # smoothstep, point-symmetric like every profile
        monkeypatch.setitem(RAMP_PROFILES, "cubic", lambda s: s * s * (3 - 2 * s))

    def test_segment_accepts_the_new_kind(self):
        idle = two_lq_graph()
        assert Segment(1.0, idle, idle.with_couplings({(0, 3): 0.5}), "cubic").ramp == "cubic"

    def test_schedule_applies_the_ramp_rules(self):
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.5})
        with pytest.raises(ValueError, match="start from idle"):
            PulseSchedule((Segment(1.0, peak, idle, "cubic"),), 6, idle=idle)

    def test_cphase_with_the_new_kind(self):
        sched = synthesize_cphase(np.pi, 0.5, 20.0, ramp_shape="cubic")
        assert {seg.ramp for seg in sched.segments} == {"cubic", "constant"}
        rep = two_lq_report(sched, cphase_gate(np.pi))
        assert rep.fidelity >= 0.999

    def test_cli_offers_the_new_kind(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gate", "--type", "cphase", "--ramp-shape", "cubic",
                         "--out", "g.json"]) == cli.EXIT_OK


class TestRampSteps:
    @pytest.mark.parametrize("duration, rate, n_steps", [
        (10.0, 20.0, 200), (20.0, gates.STEPS_PER_UNIT_TIME, 2000), (0.5, 3.0, 2),
        (2.5, 0.4, 1), (1e-3, 0.1, 1), (np.nextafter(2.0, np.inf), 0.5, 2),
    ])
    def test_duration_times_rate_rounded_up(self, duration, rate, n_steps):
        assert ramp_steps(duration, rate) == n_steps

    @staticmethod
    def _count_step_matrices(monkeypatch) -> list[int]:
        matrices = []
        step_propagators = gates._step_propagators

        def counted(h, dt):
            matrices.append(int(np.prod(h.shape[:-2])))
            return step_propagators(h, dt)

        monkeypatch.setattr(gates, "_step_propagators", counted)
        return matrices

    def test_holds_do_not_set_the_count(self, monkeypatch):
        # each ramp takes its own count, the ramp of 4 twice the steps of the
        # ramp of 2, and the hold between them one exponential
        idle = two_lq_graph()
        peak = idle.with_couplings({(0, 3): 0.1})
        sched = PulseSchedule((Segment(4.0, idle, peak, "smooth"),
                               constant_segment(57.4, peak),
                               Segment(2.0, peak, idle, "smooth")), 6, idle=idle)
        matrices = self._count_step_matrices(monkeypatch)
        two_lq_report(sched, cphase_gate(np.pi), 5.0)
        # the quartet's four blocks, each stepped 20 + 10 times and held once
        assert sum(matrices) == 4 * (20 + 10 + 1)

    def test_schedule_without_ramps(self, monkeypatch):
        # no ramp, no step: the rate changes nothing
        sched = synthesize_rz(0.9, 0.5)
        matrices = self._count_step_matrices(monkeypatch)
        slow, fast = (single_lq_report(sched, rz_gate(0.9), rate) for rate in (1e-3, 1e6))
        assert matrices == [1, 1] * 2
        assert np.array_equal(slow.logical_unitary, fast.logical_unitary)

    @pytest.mark.parametrize("rate", [0.0, -3.0, np.inf, np.nan])
    def test_rejects_nonpositive_or_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="steps per unit time"):
            ramp_steps(1.0, rate)

    @pytest.mark.parametrize("rate", [1e300, 1e308])
    def test_rejects_counts_past_the_cap(self, rate):
        # 1e300 x 20 would step for ever, and 1e308 x 20 is infinite
        with pytest.raises(BudgetError, match="propagation steps per ramp"):
            ramp_steps(20.0, rate)

    @pytest.mark.parametrize("duration", [20.0, 0.5, 1000.0])
    def test_accepts_the_cap_exactly(self, duration):
        cap = gates.MAX_RAMP_STEPS.cap
        assert ramp_steps(duration, cap / duration) == cap

    def test_library_report_past_the_cap_is_a_budget_error(self):
        # not an OverflowError from the infinite step count
        with pytest.raises(BudgetError, match="at most"):
            two_lq_report(synthesize_cphase(np.pi, 0.5, 20.0), cphase_gate(np.pi), 1e308)


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
        u = propagate(fwd.then(bwd))
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
        u = propagate(sched)
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

    @pytest.mark.parametrize("target, beta", [
        (np.eye(2), 0.0), (np.diag([1.0, -1.0]), 0.0), (rz_gate(0.3), 0.0),
        (np.array([[0, 1], [1, 0]]), np.pi), (np.array([[0, -1j], [1j, 0]]), np.pi),
        (np.array([[0, 1], [1, 0]]) @ rz_gate(0.7), np.pi),
    ], ids=["I", "Z", "Rz(0.3)", "X", "Y", "X.Rz(0.7)"])
    def test_diagonal_and_antidiagonal_targets(self, target, beta):
        # beta = 0 and beta = pi leave only alpha + gamma or alpha - gamma
        a, b, g = zxz_angles(target)
        assert b == beta
        assert phase_aligned_distance(rz_gate(a) @ rx_gate(b) @ rz_gate(g), target) <= 1e-12
        assert 1 - single_lq_report(decompose_su2(target), target).fidelity <= 1e-12

    def test_random_targets(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            target = random_su2(rng)
            rep = single_lq_report(decompose_su2(target), target)
            assert rep.fidelity >= 1 - 1e-8
            assert rep.max_leakage <= 1e-10


SU2_TARGET = rz_gate(0.4) @ rx_gate(1.1) @ rz_gate(-0.7)
# gate kind -> (schedule at field h, logical target, a field at which h T overflows)
HUGE_FIELD_GATES = {
    "rz": (lambda h: synthesize_rz(np.pi / 2, 0.25, h=h), rz_gate(np.pi / 2), 1e308),
    "rx": (lambda h: synthesize_rx(np.pi / 2, 0.25, h=h), rx_gate(np.pi / 2), 1.7e308),
    "axis120": (lambda h: synthesize_axis120(np.pi / 2, 0.25, h=h),
                axis120_gate(np.pi / 2), 1.7e308),
    "su2": (lambda h: decompose_su2(SU2_TARGET, h=h), SU2_TARGET, 1e308),
}


class TestHugeFields:
    """The field phase e^{i h m T} is reduced by its period 4 pi / T in h when h T overflows."""

    @pytest.mark.parametrize("kind", list(HUGE_FIELD_GATES))
    def test_logical_block_is_the_working_point_block_up_to_phase(self, kind):
        schedule, target, h = HUGE_FIELD_GATES[kind]
        assert h * float(schedule(h).total_duration) == np.inf
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            block = single_lq_report(schedule(h), target).logical_unitary
            full = propagate(schedule(h))
        assert np.isfinite(block).all() and np.isfinite(full).all()
        assert max_abs(block.conj().T @ block - np.eye(2)) <= 1e-14
        working = single_lq_report(schedule(IDLE_FIELD), target).logical_unitary
        tr = np.trace(working.conj().T @ block)
        assert max_abs(block - tr / abs(tr) * working) <= 1e-14


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
        rep = two_lq_report(sched, cphase_gate(np.pi), 600 / 5.0)
        assert rep.fidelity >= 0.999

    def test_gate_quality_and_phase(self):
        sched = synthesize_cphase(np.pi, 0.5, 15.0, n_calibration_steps=120)
        rep = two_lq_report(sched, cphase_gate(np.pi), 1500 / 15.0)
        assert rep.fidelity >= 0.999
        assert rep.max_leakage < 1e-3
        assert abs(abs(rep.conditional_phase) - np.pi) < 0.01

    def test_sequential_mode_matches(self):
        sched = synthesize_cphase(np.pi, 0.5, 10.0, n_calibration_steps=80,
                                  mode="sequential")
        assert sched.segments[-1].ramp == "constant"
        rep = two_lq_report(sched, cphase_gate(np.pi), 1000 / 10.0)
        assert rep.fidelity >= 0.998

    def test_quench_leaks_more_than_ramp(self):
        slow = synthesize_cphase(np.pi, 0.5, 10.0, n_calibration_steps=80)
        quench = synthesize_cphase(np.pi, 0.5, 1e-3, n_calibration_steps=20)
        rep_slow = two_lq_report(slow, cphase_gate(np.pi), 1000 / 10.0)
        rep_quench = two_lq_report(quench, cphase_gate(np.pi), 50 / 1e-3)
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

    @pytest.mark.parametrize("j14_peak, ramp_time", [(1e-15, 20.0), (0.5, 1e10)])
    def test_phase_out_of_reach_is_rejected(self, j14_peak, ramp_time):
        # no conditional rate above rounding at J14 = 1e-15, and ramps that
        # alone outlast max_duration: rejected without counting turns
        with pytest.raises(ValueError, match="unreachable"):
            synthesize_cphase(np.pi, j14_peak, ramp_time)

    def test_unreachable_phase(self):
        # a hold of about 7 000 / J at J14 = 1e-3: past MAX_DURATION
        with pytest.raises(ValueError, match="unreachable"):
            synthesize_cphase(np.pi, 1e-3, 1.0, n_calibration_steps=20)


class TestCphaseCalibration:
    @pytest.mark.parametrize("n_nodes", [160.5, 160.0])
    def test_non_integral_node_count_is_rejected_before_any_walk(self, monkeypatch, n_nodes):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(_SectorTracker, "walk", no_walk)
        with pytest.raises(ValueError, match="^n_calibration_steps must be an integer$"):
            synthesize_cphase(np.pi, 0.5, 20.0, n_calibration_steps=n_nodes)

    def test_numpy_integer_node_count_gives_the_int_schedule(self):
        schedules = [synthesize_cphase(np.pi, 0.5, 20.0, n_calibration_steps=n).to_dict()
                     for n in (np.int64(160), 160)]
        assert cli._json_text(schedules[0]) == cli._json_text(schedules[1])

    @pytest.mark.parametrize("name", sorted(RAMP_PROFILES))
    @pytest.mark.parametrize("n", [1, 7, 160, _CHUNK + 1])
    def test_midpoints_are_the_profile_at_each_step_midpoint(self, name, n):
        # the nodes of both the propagation and the calibration quadrature
        nodes = [RAMP_PROFILES[name]((k + 0.5) / n) for k in range(n)]
        assert np.array_equal(gates._midpoints(name, n), nodes)

    def test_schedule_does_not_depend_on_the_field(self):
        # the field shifts every quartet level by -h, which no rate sees
        def schedule(h):
            return [(s.duration, s.ramp, s.start.edges, s.end.edges)
                    for s in synthesize_cphase(np.pi, 0.5, 20.0, h=h).segments]

        reference = schedule(0.75)
        for h in (1e4, 1e6, 1e20):
            assert schedule(h) == reference

    @pytest.fixture(scope="class")
    def default_gate(self):
        return synthesize_cphase(np.pi, 0.5, 20.0)

    def test_residual_recomputed_below_tolerance(self, default_gate):
        ramp_seg, hold_seg, _ = default_gate.segments
        peak = ramp_seg.end
        eps = peak.coupling(1, 2) - 1.0
        assert eps == peak.coupling(4, 5) - 1.0
        ramp, top = gates._midpoint_phases(_SectorTracker(), 0.5, eps, 20.0,
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
            return np.array([s, 0.0, 1.0 - s]), np.array([0.0, 0.0, 1.0])

        monkeypatch.setattr(gates, "_midpoint_phases", phases)

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
            m = basis.conj().T @ propagate(sched) @ basis
            vals, vecs = np.linalg.eig(m)
            gen = 1j * (vecs @ np.diag(np.log(vals)) @ np.linalg.inv(vecs)) / t
            gen = gen - np.trace(gen) / 2 * np.eye(2)
            expected = effective_h1(j12, j13, j23).matrix
            assert max_abs(gen - expected) < 1e-6

    def test_schedule_composition_is_product_of_blocks(self):
        a = synthesize_rz(0.9, 0.5)
        b = synthesize_rx(0.7, 0.25)
        basis = logical_basis((0, 1, 2), 3).columns
        ua = propagate(a)
        ub = propagate(b)
        uc = propagate(a.then(b))
        ma = basis.conj().T @ ua @ basis
        mb = basis.conj().T @ ub @ basis
        mc = basis.conj().T @ uc @ basis
        assert max_abs(mc - mb @ ma) <= 1e-8
