"""Pulse schedules, time evolution, and gate synthesis for encoded qubits.

Single-LQ gates are sudden: the logical doublet is exactly invariant under
intra-triple couplings, so a constant coupling excursion causes zero leakage
and the schedule may step discontinuously from idle.  The two-LQ conditional
phase gate ramps the inter-triple coupling adiabatically (ramp, hold, ramp)
and relies on the energy gap to return the system to the logical subspace.

Rotation convention: synthesize_rz(theta) realizes exp(-i theta sigma_z / 2)
on [|0_L>, |1_L>] up to a global phase, and likewise for the other axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import _SectorTracker, entangling_rate, logical_basis, two_lq_basis
from .hamiltonian import (
    IDLE_FIELD,
    MAX_SITES,
    CouplingGraph,
    SectorBlock,
    SectorOperators,
    projected_blocks,
    single_lq_graph,
    sz_sectors,
    two_lq_graph,
)
from .linalg import Budget, check_unitary, is_integer, regula_falsi

COUPLING_WINDOW = (0.25, 1.75)
CALIBRATION_TOL = 1e-10
CALIBRATION_MAX_PROBES = 200
# Longest conditional-phase gate ``synthesize_cphase`` accepts
MAX_DURATION = 2000.0
_UNREACHABLE = "requested phase unreachable within max_duration"
# Default midpoint steps per unit time of a ramp (``ramp_steps``)
STEPS_PER_UNIT_TIME = 100.0
# Propagation steps per ramp (``ramp_steps``): a default CZ at the cap took
# 0.45 s and 33 MB, and 10x the cap took 6.2 s.
MAX_RAMP_STEPS = Budget(100_000, "propagation steps per ramp")
# Calibration quadrature nodes per ramp (``synthesize_cphase``), by default and at most:
# a default CZ at the cap took 0.14 s and 36 MB, and 10x the cap took 1.1 s and 69 MB.
CALIBRATION_NODES = 160
MAX_CALIBRATION_NODES = Budget(10_000, "nodes")
# Ramp steps built, diagonalized and multiplied per batch.  The pairwise
# product takes about log2(_CHUNK) batched matmuls per chunk, so larger chunks
# cut Python overhead per step; the chunk also bounds the memory of a ramp,
# which would otherwise grow with the step count.
_CHUNK = 256
AXIS120 = {
    "j12": np.array([np.sqrt(3) / 2, 0.0, 0.5]),
    "j13": np.array([-np.sqrt(3) / 2, 0.0, 0.5]),
}

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# Progress profiles f(s) of a ramp, the one list of ramp kinds; every profile
# must satisfy f(1 - s) = 1 - f(s) (see ``_evolve_sectors``).
RAMP_PROFILES = {
    "smooth": lambda s: (1 - np.cos(np.pi * s)) / 2,  # C1 shoulders, no corner kicks
    "linear": lambda s: s,
}
CPHASE_MODES = ("simultaneous", "sequential")


@dataclass(frozen=True)
class Segment:
    """One piece of a pulse: hold a configuration or ramp to another.

    Ramp kinds: ``constant`` (hold) or a key of ``RAMP_PROFILES``, the
    progress profile of a ramp.
    """

    duration: float
    start: CouplingGraph
    end: CouplingGraph
    ramp: str = "linear"

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("segment duration must be positive and finite")
        if self.ramp != "constant" and self.ramp not in RAMP_PROFILES:
            raise ValueError(f"unknown ramp kind {self.ramp!r}")
        if self.ramp == "constant" and self.start != self.end:
            raise ValueError("constant segment must have equal endpoint graphs")
        if self.start.n_sites != self.end.n_sites or self.start.field_h != self.end.field_h:
            raise ValueError("segment endpoints must share sites and field")
        if self.start.pairs != self.end.pairs:
            raise ValueError("segment endpoints must share the edge set")


def constant_segment(duration: float, graph: CouplingGraph) -> Segment:
    return Segment(duration, graph, graph, "constant")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered segments of a gate, starting from and returning to idle couplings.

    Ramped segments must join continuously to each other and to the idle
    configuration at the schedule boundaries.  Constant segments may step
    discontinuously (a sudden coupling switch, leakage-free for intra-triple
    couplings).
    """

    segments: tuple[Segment, ...]
    n_sites: int
    idle: CouplingGraph | None = None

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        segs = self.segments
        if not segs:
            return
        idle = self.idle
        if idle is None:
            raise ValueError("non-empty schedule needs its idle configuration")
        if any(j not in (0.0, 1.0) for (_, _, j) in idle.edges):
            raise ValueError("idle couplings must be 1 (intra) or 0 (inter)")
        first = segs[0].start
        for seg in segs:
            if seg.start.n_sites != self.n_sites:
                raise ValueError("segment dimension does not match schedule")
            if seg.start.field_h != first.field_h or seg.start.pairs != first.pairs:
                raise ValueError("segments must share the field and the edge set")
        for a, b in zip(segs[:-1], segs[1:]):
            if a.ramp != "constant" and b.ramp != "constant" and a.end != b.start:
                raise ValueError("ramped segments must join continuously")
        if segs[0].ramp != "constant" and segs[0].start != idle:
            raise ValueError("leading ramp must start from idle")
        if segs[-1].ramp != "constant" and segs[-1].end != idle:
            raise ValueError("trailing ramp must end at idle")

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def then(self, other: "PulseSchedule") -> "PulseSchedule":
        """Concatenate two schedules over the same register."""
        if other.n_sites != self.n_sites:
            raise ValueError("schedules act on different registers")
        idle = self.idle if self.idle is not None else other.idle
        return PulseSchedule(self.segments + other.segments, self.n_sites, idle)

    def to_dict(self) -> dict:
        def graph(g: CouplingGraph) -> dict:
            return {"n_sites": g.n_sites, "field_h": g.field_h,
                    "edges": [[i, j, jij] for (i, j, jij) in g.edges]}

        return {
            "n_sites": self.n_sites,
            "total_duration": self.total_duration,
            "segments": [
                {"duration": s.duration, "ramp": s.ramp,
                 "start": graph(s.start), "end": graph(s.end)}
                for s in self.segments
            ],
            "idle": None if self.idle is None else graph(self.idle),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PulseSchedule":
        """Inverse of ``to_dict``; ``total_duration`` is derived, so it is not read.

        A non-empty schedule without its ``idle`` entry is rejected.
        """
        def graph(d: dict) -> CouplingGraph:
            return CouplingGraph(d["n_sites"], tuple(tuple(e) for e in d["edges"]), d["field_h"])

        segments = tuple(Segment(s["duration"], graph(s["start"]), graph(s["end"]), s["ramp"])
                         for s in data["segments"])
        idle = data.get("idle")
        return cls(segments, data["n_sites"], None if idle is None else graph(idle))


def empty_schedule(n_sites: int = 3) -> PulseSchedule:
    return PulseSchedule((), n_sites)


def _time_ordered_product(steps: np.ndarray) -> np.ndarray:
    """``steps[-1] @ ... @ steps[0]`` of a stack, reduced pairwise in about log2(len) matmuls."""
    while len(steps) > 1:
        even = len(steps) - len(steps) % 2
        steps = np.concatenate((steps[1:even:2] @ steps[0:even:2], steps[even:]))
    return steps[0]


def _step_propagators(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) of every matrix of a stack of real symmetric ``h``.

    1x1 and 2x2 stacks take closed forms, so no LAPACK call; larger blocks
    take one batched ``eigh``.  A 2x2 block [[a, b], [b, c]] is m I + K with
    m = (a + c) / 2 and K traceless, K^2 = w^2 I, w = hypot((a - c) / 2, b), so
    its exponential is e^{-i m dt} (cos(w dt) I - i sin(w dt) / w K).
    """
    if h.shape[-1] == 1:
        return np.exp(-1j * h * dt)
    if h.shape[-1] == 2:
        a, b, c = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
        half = (a - c) / 2
        omega = np.hypot(half, b)
        theta = omega * dt
        # below 1e-8, sin(theta) / theta rounds to 1
        turning = theta > 1e-8
        sinc_dt = np.where(turning, np.sin(theta) / np.where(turning, omega, 1.0), dt)
        cos, k = np.cos(theta), -1j * sinc_dt
        rot = np.stack((np.stack((cos + k * half, k * b), -1),
                        np.stack((k * b, cos - k * half), -1)), -2)
        return np.exp(-1j * (a + c) / 2 * dt)[..., None, None] * rot
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * dt)[..., None, :]) @ vecs.swapaxes(-1, -2)


def _check_rate(steps_per_unit_time: float) -> None:
    if not (np.isfinite(steps_per_unit_time) and steps_per_unit_time > 0):
        raise ValueError(
            f"steps per unit time must be finite and positive, got {steps_per_unit_time}")


def ramp_steps(duration: float, steps_per_unit_time: float) -> int:
    """The one step rule: a ramp takes ceil(duration x rate) midpoint steps, at least 1.

    The rate, ``steps_per_unit_time``, must be finite and positive, and the
    count at most ``MAX_RAMP_STEPS``.
    """
    _check_rate(steps_per_unit_time)
    steps = duration * steps_per_unit_time
    MAX_RAMP_STEPS.check(steps)
    return max(1, int(np.ceil(steps)))


def _midpoints(ramp_shape: str, n: int) -> np.ndarray:
    """f((k + 1/2) / n), k = 0 ... n - 1: a ramp's progress at the midpoints of n equal steps.

    The one midpoint rule: the propagation (``_evolve_sectors``) and the
    calibration quadrature (``_midpoint_phases``) both take their nodes here.
    """
    return RAMP_PROFILES[ramp_shape]((np.arange(n) + 0.5) / n)


def _check_ramp_time(ramp_time: float) -> None:
    """A conditional-phase ramp is positive and finite, and two of them fit in ``MAX_DURATION``."""
    if not (np.isfinite(ramp_time) and ramp_time > 0):
        raise ValueError("ramp_time must be positive and finite")
    if 2 * ramp_time > MAX_DURATION:
        raise ValueError(_UNREACHABLE)


def check_cphase_ramp(ramp_time: float, steps_per_unit_time: float) -> None:
    """Check a conditional-phase ramp before any work: its reach first, then its steps.

    Two ramps longer than ``MAX_DURATION`` are out of reach (``ValueError``);
    more than ``MAX_RAMP_STEPS`` steps are a ``BudgetError``.
    """
    _check_ramp_time(ramp_time)
    ramp_steps(ramp_time, steps_per_unit_time)


def check_calibration(n_calibration_steps: int, ramp_shape: str) -> None:
    """Check the node count and ramp shape of a CZ calibration (see ``synthesize_cphase``)."""
    if not is_integer(n_calibration_steps):
        raise ValueError("n_calibration_steps must be an integer")
    if n_calibration_steps < 1:
        raise ValueError("n_calibration_steps must be at least 1")
    MAX_CALIBRATION_NODES.check(n_calibration_steps)
    if ramp_shape not in RAMP_PROFILES:
        raise ValueError(f"ramp_shape must be one of {tuple(RAMP_PROFILES)}")


def _evolve_sectors(schedule: PulseSchedule, steps_per_unit_time: float,
                    blocks: list[SectorBlock]) -> list[np.ndarray]:
    """Time-ordered propagator of a non-empty schedule on each block, one ``(d, d)`` matrix each.

    ``blocks`` are S_z sectors of the schedule's edge set, or invariant blocks
    projected from one; couplings are read from each graph's edges.  A hold is
    one exact exponential; a ramp steps at its ``_midpoints``, ``_CHUNK`` steps
    at a time for all blocks, multiplied pairwise (``_time_ordered_product``).

    A ramp that runs an earlier ramp of the schedule backwards (same kind and
    duration, so the same ``ramp_steps`` count; endpoints swapped) gets that
    ramp's propagator transposed.  This is exact: every step propagator
    exp(-i H dt) of a real symmetric H is symmetric, and every profile has
    f(1 - s) = 1 - f(s), so the reversed ramp takes the same steps in the
    opposite order, and the product of the reversed steps is the transpose of
    the product.  The steps are exchange only: the field, -h m on a sector,
    commutes with each, so it is one phase e^{i h m T} over the duration T,
    of period 4 pi / T in h (m is a half-integer), which reduces an overflowing h T.
    """
    u = [np.eye(blk.terms.shape[-1]) for blk in blocks]
    ramps = {}
    for seg in schedule.segments:
        w0, w1 = (np.array([j for (_, _, j) in g.edges]) for g in (seg.start, seg.end))
        mirrored = ramps.get((seg.ramp, seg.duration, seg.end, seg.start))
        if seg.ramp == "constant":
            steps = [_step_propagators(blk.exchange(w0), seg.duration) for blk in blocks]
        elif mirrored is not None:
            steps = [step.T for step in mirrored]
        else:
            n_steps = ramp_steps(seg.duration, steps_per_unit_time)
            dt, f = seg.duration / n_steps, _midpoints(seg.ramp, n_steps)
            steps = [np.eye(blk.terms.shape[-1]) for blk in blocks]
            for k in range(0, n_steps, _CHUNK):
                weights = w0 + f[k:k + _CHUNK, None] * (w1 - w0)
                # every block built before any is stepped: ``propagate`` of a ramp-5 CZ
                # ran about 3 % faster so (2-vCPU x86-64, one BLAS thread)
                hs = [blk.exchange(weights) for blk in blocks]
                steps = [_time_ordered_product(_step_propagators(h, dt)) @ step
                         for h, step in zip(hs, steps)]
            ramps[seg.ramp, seg.duration, seg.start, seg.end] = steps
        u = [step @ prev for step, prev in zip(steps, u)]
    field, duration = schedule.segments[0].start.field_h, float(schedule.total_duration)
    if not math.isfinite(field * duration):
        field = math.fmod(field, 4 * math.pi / duration)
    return [np.exp(1j * (field * duration) * blk.m) * prop for blk, prop in zip(blocks, u)]


def propagate(schedule: PulseSchedule,
              steps_per_unit_time: float = STEPS_PER_UNIT_TIME) -> np.ndarray:
    """Time-ordered propagator of a schedule on the full Hilbert space.

    Each ramp takes ``ramp_steps(duration, steps_per_unit_time)`` midpoint
    steps (the Hamiltonian at each step's midpoint couplings, second-order
    accurate); constant segments evolve in one exact exponential.  Total S_z
    is conserved, so each sector block evolves on its own (``_evolve_sectors``,
    in chunks of ``_CHUNK`` steps); this evolves every sector and assembles
    the full unitary at the end.
    """
    _check_rate(steps_per_unit_time)
    if not schedule.segments:
        MAX_SITES.check(schedule.n_sites)
        return np.eye(2**schedule.n_sites, dtype=np.complex128)
    first = schedule.segments[0].start
    ops = SectorOperators(first.n_sites, first.pairs)
    u = _evolve_sectors(schedule, steps_per_unit_time, ops.sectors)
    return check_unitary(ops.embed(u))


# ---------------------------------------------------------------------------
# Logical target gates
# ---------------------------------------------------------------------------

def rotation_gate(theta: float, axis: np.ndarray) -> np.ndarray:
    """exp(-i theta (n . sigma) / 2) for a unit axis n."""
    n = np.asarray(axis, dtype=float)
    gen = n[0] * _SX + n[1] * _SY + n[2] * _SZ
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * gen


def rz_gate(theta: float) -> np.ndarray:
    return rotation_gate(theta, (0, 0, 1))


def rx_gate(theta: float) -> np.ndarray:
    return rotation_gate(theta, (1, 0, 0))


def axis120_gate(theta: float, which: str = "j12") -> np.ndarray:
    return rotation_gate(theta, AXIS120[which])


def cphase_gate(phi: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(np.complex128)


# ---------------------------------------------------------------------------
# Single-LQ synthesis
# ---------------------------------------------------------------------------

def _hold_rotation(theta: float, delta: float, shifts: dict[str, int], rate: float,
                   h: float) -> PulseSchedule:
    """Hold each coupling of ``shifts`` at 1 + k delta' for |theta| / (rate |delta|).

    ``shifts`` maps couplings to their multiples k of delta' = sign(theta) |delta|;
    every shifted coupling must stay inside ``COUPLING_WINDOW`` for either sign.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    if delta == 0 or not np.isfinite(delta):
        raise ValueError("delta must be finite and nonzero")
    lo, hi = COUPLING_WINDOW
    for j in (1 + sign * abs(k) * abs(delta) for k in shifts.values() for sign in (1, -1)):
        if not lo < j < hi:
            raise ValueError(f"coupling {j:g} outside the crossing-free window ({lo}, {hi})")
    if theta == 0:
        return empty_schedule(3)
    eff = np.sign(theta) * abs(delta)
    graph = single_lq_graph(**{name: 1 + k * eff for name, k in shifts.items()}, h=h)
    return PulseSchedule((constant_segment(abs(theta) / (rate * abs(delta)), graph),), 3,
                         idle=single_lq_graph(h=h))


def synthesize_rz(theta: float, delta: float, h: float = IDLE_FIELD) -> PulseSchedule:
    """Hold J23 = 1 + delta' for |theta/delta| to realize Rz(theta).

    Raising J23 lowers |0_L>, so the excursion sign is set internally to
    -sign(theta) * |delta|; both rotation senses are available because the
    idle coupling is nonzero.
    """
    return _hold_rotation(theta, delta, {"j23": -1}, 1.0, h)


def synthesize_axis120(theta: float, delta: float, which: str = "j12",
                       h: float = IDLE_FIELD) -> PulseSchedule:
    """Hold J12 (or J13) = 1 + delta' to rotate about the tilted x-z axis.

    The generator is (delta/4)(sqrt(3) sigma_x + sigma_z) for J12 (the sigma_x
    part flips sign for J13): an axis in the x-z plane 120 degrees away from
    the -z direction.  Hold time |theta/delta|.
    """
    if which not in AXIS120:
        raise ValueError(f"which must be one of {tuple(AXIS120)}")
    return _hold_rotation(theta, delta, {which: 1}, 1.0, h)


def synthesize_rx(theta: float, delta: float, h: float = IDLE_FIELD) -> PulseSchedule:
    """Shift J12 by 2*delta' and J23 by delta' to realize Rx(theta).

    The matched shifts cancel the sigma_z part exactly, leaving the generator
    (sqrt(3) delta / 2) sigma_x; hold time |theta / (sqrt(3) delta)|.
    """
    return _hold_rotation(theta, delta, {"j12": 2, "j23": 1}, np.sqrt(3), h)


def zxz_angles(target: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (alpha, beta, gamma) with target ~ Rz(alpha) Rx(beta) Rz(gamma)."""
    u = check_unitary(np.asarray(target, dtype=np.complex128), tol=1e-10)
    if u.shape != (2, 2):
        raise ValueError("target must be 2x2")
    u = u / np.sqrt(np.linalg.det(u))
    beta = 2 * np.arctan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[1, 0]) < 1e-12:
        return 0.0, 0.0, float(-2 * np.angle(u[0, 0]))
    if abs(u[0, 0]) < 1e-12:
        return float(2 * np.angle(u[1, 0]) + np.pi), float(np.pi), 0.0
    s = -2 * np.angle(u[0, 0])          # alpha + gamma
    d = 2 * np.angle(u[1, 0]) + np.pi   # alpha - gamma
    return float((s + d) / 2), float(beta), float((s - d) / 2)


def _wrap_angle(x: float) -> float:
    return float((x + np.pi) % (2 * np.pi) - np.pi)


def decompose_su2(target: np.ndarray, h: float = IDLE_FIELD) -> PulseSchedule:
    """z-x-z pulse sequence matching an arbitrary 2x2 unitary up to phase."""
    alpha, beta, gamma = zxz_angles(target)
    schedule = empty_schedule(3)
    for theta, maker, delta in ((gamma, synthesize_rz, 0.5),
                                (beta, synthesize_rx, 0.25),
                                (alpha, synthesize_rz, 0.5)):
        theta = _wrap_angle(theta)
        if abs(theta) > 1e-12:
            schedule = schedule.then(maker(theta, delta, h=h))
    return schedule


# ---------------------------------------------------------------------------
# Two-LQ conditional phase gate
# ---------------------------------------------------------------------------

def _midpoint_phases(tracker: _SectorTracker, j14_peak: float, eps: float,
                     ramp_time: float, n_nodes: int, ramp_shape: str):
    """Midpoint-quadrature lambda integrals along one ramp of the pulse.

    Returns (per-ramp integrals of [l00, l01, l11], the same levels at the peak).
    """
    mids = np.append(_midpoints(ramp_shape, n_nodes), 1.0)
    rows = tracker.walk(np.column_stack((j14_peak * mids, eps * mids)))
    dt = ramp_time / n_nodes
    return rows[:-1].sum(axis=0) * dt, rows[-1]


def _single_qubit(lams: np.ndarray) -> float:
    return float(lams[0] - lams[1])


def synthesize_cphase(phi: float, j14_peak: float, ramp_time: float,
                      n_calibration_steps: int = CALIBRATION_NODES, h: float = IDLE_FIELD,
                      mode: str = "simultaneous", ramp_shape: str = "smooth") -> PulseSchedule:
    """Conditional phase gate from one ramp-hold-ramp J14 pulse.

    The pulse accumulates conditional phase at rate lambda_00 + lambda_11 -
    2 lambda_01 (about 4*J14/9 for small J14); the hold time is chosen so
    the total equals -phi modulo 2 pi, with the fewest whole turns added.
    Gates past ``MAX_DURATION`` (ramps alone: before any walk) or with no
    conditional rate above rounding at the peak are unreachable (``ValueError``).

    In ``simultaneous`` mode the J23 = J56 couplings follow the same pulse
    profile scaled to a shift calibrated by ``linalg.regula_falsi`` from the
    probes at shift 0 and 0.35 (residual single-qubit phase below 1e-10,
    else ``ArithmeticError``), so the single-LQ z-phases cancel inside the
    one pulse interval.  In ``sequential`` mode the pulse runs uncalibrated
    and a sudden equal z-correction on both triples follows.

    ``ramp_shape`` defaults to ``smooth``: with plain linear ramps the
    residual leakage oscillates with ramp duration (interfering kicks from
    the slope corners), so longer is not always better; the raised-cosine
    shape restores monotone convergence.

    Parameters
    ----------
    phi : conditional phase in radians; 0 gives the empty schedule.
    j14_peak : peak inter-triple coupling, inside the gapped window (0, 0.75).
    ramp_time : duration of each ramp, in 1/J.
    n_calibration_steps : quadrature nodes per ramp for the phase integrals, an
        integer (``linalg.is_integer``) from 1 to ``MAX_CALIBRATION_NODES``.
    mode : z-phase cancellation, one of ``CPHASE_MODES``.
    ramp_shape : ramp profile, a key of ``RAMP_PROFILES``.
    """
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    if not 0 < j14_peak < 0.75:
        raise ValueError("j14_peak outside the gapped window (0, 0.75)")
    _check_ramp_time(ramp_time)
    check_calibration(n_calibration_steps, ramp_shape)
    if mode not in CPHASE_MODES:
        raise ValueError(f"mode must be one of {CPHASE_MODES}")
    idle = two_lq_graph(h=h)
    target_cc = float(np.mod(-phi, 2 * np.pi))
    if target_cc == 0.0:
        return PulseSchedule((), 6, idle=idle)

    tracker = _SectorTracker()

    def solve(eps: float, offset: float = 0.0) -> tuple[float, float]:
        """Single-qubit phase less ``offset``, and the hold, at shift ``eps``."""
        ramp, peak = _midpoint_phases(tracker, j14_peak, eps, ramp_time,
                                      n_calibration_steps, ramp_shape)
        cc_ramp, cc_peak = float(entangling_rate(*ramp)), float(entangling_rate(*peak))
        if not cc_peak > 0:
            raise ValueError(_UNREACHABLE)
        # the fewest whole turns on the target that leave the hold >= -1e-12
        turns = max(0, int(np.ceil((2 * cc_ramp - 1e-12 * cc_peak - target_cc) / (2 * np.pi))))
        hold = max((target_cc + turns * 2 * np.pi - 2 * cc_ramp) / cc_peak, 0.0)
        if 2 * ramp_time + hold > MAX_DURATION:
            raise ValueError(_UNREACHABLE)
        return 2 * _single_qubit(ramp) + _single_qubit(peak) * hold - offset, hold

    if mode == "simultaneous":
        eps_hi = 0.35
        sq, hold = solve(0.0)
        sq1, _ = solve(eps_hi)
        for m in range(int(np.floor(sq / (2 * np.pi))), -1, -1):
            offset = 2 * np.pi * m
            if sq - offset >= 0 >= sq1 - offset:
                break
        else:
            raise ValueError("cannot cancel the single-qubit phase inside the shift window")
        eps, residual, hold = regula_falsi(lambda e: solve(e, offset), 0.0, eps_hi,
                                           (sq - offset, hold), (sq1 - offset, None),
                                           CALIBRATION_TOL, CALIBRATION_MAX_PROBES)
        if not abs(residual) <= CALIBRATION_TOL:
            raise ArithmeticError(f"shift calibration did not converge: residual {residual:.3e}")
    else:
        eps = 0.0
        sq, hold = solve(0.0)

    peak_graph = idle.with_couplings({(0, 3): j14_peak, (1, 2): 1 + eps, (4, 5): 1 + eps})
    segments = [Segment(ramp_time, idle, peak_graph, ramp_shape)]
    if hold > 1e-12:
        segments.append(constant_segment(hold, peak_graph))
    segments.append(Segment(ramp_time, peak_graph, idle, ramp_shape))

    if mode == "sequential":
        # z-correction at J14 = 0: an equal shift delta_c changes the
        # single-qubit phase at the exact rate -delta_c per unit time
        delta_c = 0.25
        t_corr = float(np.mod(sq, 2 * np.pi)) / delta_c
        if t_corr > 1e-12:
            corr = idle.with_couplings({(1, 2): 1 + delta_c, (4, 5): 1 + delta_c})
            segments.append(constant_segment(t_corr, corr))
    return PulseSchedule(tuple(segments), 6, idle=idle)


# ---------------------------------------------------------------------------
# Gate scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateReport:
    """Fidelity, leakage, and phase diagnostics of a propagated gate."""

    logical_unitary: np.ndarray
    fidelity: float
    max_leakage: float
    avg_leakage: float
    conditional_phase: float | None = None


def gate_report(u_full: np.ndarray, target: np.ndarray, basis) -> GateReport:
    """Score a full-space propagator against a logical target.

    ``u_full`` may also be any operator that agrees with U on the span of
    ``basis``, such as the block of one S_z sector with ``basis`` cut to that
    sector's rows.

    fidelity = |tr(target^dag M)|^2 / (d tr(M^dag M)) with M the logical
    block of U (global-phase invariant); leakage_k = 1 - |P U psi_k|^2 over
    the logical basis inputs.
    """
    cols = basis.columns if hasattr(basis, "columns") else np.asarray(basis)
    target = check_unitary(np.asarray(target, dtype=np.complex128), tol=1e-10)
    d = cols.shape[1]
    if target.shape != (d, d):
        raise ValueError(f"target shape {target.shape} does not match basis size {d}")
    m = cols.conj().T @ u_full @ cols
    gram = m.conj().T @ m
    denom = d * float(np.trace(gram).real)
    fidelity = float(abs(np.trace(target.conj().T @ m)) ** 2 / denom) if denom > 1e-30 else 0.0
    leaks = np.clip(1.0 - np.real(np.diag(gram)), 0.0, 1.0)
    phase = None
    if d == 4:
        dg = np.diag(m)
        if np.all(np.abs(dg) > 1e-12):
            phase = float(np.angle(dg[0] * dg[3] / (dg[1] * dg[2])))
    return GateReport(m, min(fidelity, 1.0), float(np.max(leaks)),
                      float(np.mean(leaks)), phase)


def _sector_report(schedule: PulseSchedule, target: np.ndarray, cols: np.ndarray,
                   steps_per_unit_time: float) -> GateReport:
    """Score a schedule on real basis columns that lie in one S_z sector.

    Only the invariant blocks of the columns under the segment endpoints are
    evolved (``projected_blocks``).  Every midpoint step is a combination of
    its segment's endpoints, so it leaves the blocks invariant.
    Raises ``ValueError`` when the schedule acts on another register than the
    columns, or when the columns have nonzero rows in several sectors.
    """
    n_sites = len(cols).bit_length() - 1
    if schedule.n_sites != n_sites:
        raise ValueError(f"schedule acts on {schedule.n_sites} sites, the basis on {n_sites}")
    _check_rate(steps_per_unit_time)
    rows = np.flatnonzero(np.any(cols != 0, axis=1))
    sector = next((s for s in sz_sectors(schedule.n_sites) if np.isin(rows, s.indices).all()),
                  None)
    if sector is None:
        raise ValueError("basis columns span more than one S_z sector")
    cols = cols[np.asarray(sector.indices)]
    if not schedule.segments:
        return gate_report(np.eye(len(cols), dtype=np.complex128), target, cols)
    first = schedule.segments[0].start
    ops = SectorOperators(first.n_sites, first.pairs, ms=(sector.m,))
    ends = [ops.weights(g) for seg in schedule.segments for g in (seg.start, seg.end)]
    _, blocks, bases = zip(*projected_blocks(ops, ends, cols.real))
    u = _evolve_sectors(schedule, steps_per_unit_time, list(blocks))
    u_blocks = sum(basis @ check_unitary(step) @ basis.T for basis, step in zip(bases, u))
    return gate_report(u_blocks, target, cols)


def single_lq_report(schedule: PulseSchedule, target: np.ndarray,
                     steps_per_unit_time: float = STEPS_PER_UNIT_TIME) -> GateReport:
    """Propagate a 3-site schedule and score it on the logical doublet.

    Only the invariant blocks of the doublet in the m = +1/2 sector are evolved.
    """
    return _sector_report(schedule, target, logical_basis((0, 1, 2), 3).columns,
                          steps_per_unit_time)


def two_lq_report(schedule: PulseSchedule, target: np.ndarray,
                  steps_per_unit_time: float = STEPS_PER_UNIT_TIME) -> GateReport:
    """Propagate a 6-site schedule and score it on the logical quartet.

    Only the invariant blocks of the quartet in the m = +1 sector are evolved.
    """
    return _sector_report(schedule, target, two_lq_basis(), steps_per_unit_time)
