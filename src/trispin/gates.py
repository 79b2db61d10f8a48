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

from dataclasses import dataclass

import numpy as np

from .encoding import _SectorTracker, logical_basis, two_lq_basis
from .hamiltonian import (
    CouplingGraph,
    SectorGroup,
    SectorOperators,
    invariant_blocks,
    single_lq_graph,
    sz_sectors,
    two_lq_graph,
)
from .linalg import check_unitary, max_abs

COUPLING_WINDOW = (0.25, 1.75)
CALIBRATION_TOL = 1e-10
CALIBRATION_MAX_PROBES = 200
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


RAMP_PROFILES = {
    "linear": lambda s: s,
    "smooth": lambda s: (1 - np.cos(np.pi * s)) / 2,  # C1 shoulders, no corner kicks
}


@dataclass(frozen=True)
class Segment:
    """One piece of a pulse: hold a configuration or ramp to another.

    Ramp kinds: ``constant`` (hold), ``linear``, or ``smooth`` (raised-cosine
    progress, which removes the slope discontinuities that make the residual
    leakage of linear ramps oscillate with duration).
    """

    duration: float
    start: CouplingGraph
    end: CouplingGraph
    ramp: str = "linear"

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise ValueError("segment duration must be positive and finite")
        if self.ramp not in ("constant", "linear", "smooth"):
            raise ValueError(f"unknown ramp kind {self.ramp!r}")
        if self.ramp == "constant" and self.start != self.end:
            raise ValueError("constant segment must have equal endpoint graphs")
        if self.start.n_sites != self.end.n_sites or self.start.field_h != self.end.field_h:
            raise ValueError("segment endpoints must share sites and field")
        pa = [(i, j) for (i, j, _) in self.start.edges]
        pb = [(i, j) for (i, j, _) in self.end.edges]
        if pa != pb:
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
        pairs = [(i, j) for (i, j, _) in first.edges]
        for seg in segs:
            if seg.start.n_sites != self.n_sites:
                raise ValueError("segment dimension does not match schedule")
            if (seg.start.field_h != first.field_h
                    or [(i, j) for (i, j, _) in seg.start.edges] != pairs):
                raise ValueError("segments must share the field and the edge set")
        ramped = ("linear", "smooth")
        for a, b in zip(segs[:-1], segs[1:]):
            if a.ramp in ramped and b.ramp in ramped and a.end != b.start:
                raise ValueError("ramped segments must join continuously")
        if segs[0].ramp in ramped and segs[0].start != idle:
            raise ValueError("leading ramp must start from idle")
        if segs[-1].ramp in ramped and segs[-1].end != idle:
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
        }

    @classmethod
    def from_dict(cls, data: dict, idle: CouplingGraph | None = None) -> "PulseSchedule":
        """Inverse of ``to_dict``; ``total_duration`` is derived, so it is not read.

        ``to_dict`` does not record the idle configuration.  It is the leading
        ramp's start or the trailing ramp's end; a schedule that no ramp
        anchors needs it as ``idle``.
        """
        def graph(d: dict) -> CouplingGraph:
            return CouplingGraph(d["n_sites"], tuple(tuple(e) for e in d["edges"]), d["field_h"])

        segments = tuple(Segment(s["duration"], graph(s["start"]), graph(s["end"]), s["ramp"])
                         for s in data["segments"])
        if idle is None and segments:
            if segments[0].ramp != "constant":
                idle = segments[0].start
            elif segments[-1].ramp != "constant":
                idle = segments[-1].end
        return cls(segments, data["n_sites"], idle)


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


def _evolve(blocks: list[np.ndarray], dt: float, u: list[np.ndarray]) -> list[np.ndarray]:
    """Apply the step propagators exp(-i H_k dt) of a chunk of steps to ``u`` in time order.

    ``blocks`` holds one stack per sector group with the steps on its leading
    axis; each stack's step propagators come from one ``_step_propagators``
    call and are multiplied pairwise, not one at a time.
    """
    return [_time_ordered_product(_step_propagators(h, dt)) @ prev
            for h, prev in zip(blocks, u)]


def _evolve_sectors(schedule: PulseSchedule, n_steps_per_segment: int, ops: SectorOperators,
                    groups: list[SectorGroup]) -> list[np.ndarray]:
    """Time-ordered propagator blocks of a non-empty schedule, one stack per group.

    ``groups`` are the sector groups of ``ops``, or invariant blocks projected
    from one of its sectors; ``ops`` gives the edge weights of each segment.

    A ramp that runs an earlier ramp of the schedule backwards (same kind and
    duration, endpoints swapped; the step count is the same for every ramp)
    gets that ramp's propagator transposed.  This is exact: every step
    propagator exp(-i H dt) of a real symmetric H is symmetric, and every
    profile has f(1 - s) = 1 - f(s), so the reversed ramp takes the same steps
    in the opposite order, and the product of the reversed steps is the
    transpose of the product.
    """
    field_h = schedule.segments[0].start.field_h

    def built(weights: np.ndarray) -> list[np.ndarray]:
        return [grp.hamiltonians(weights, field_h) for grp in groups]

    def identity() -> list[np.ndarray]:
        return [np.broadcast_to(np.eye(grp.terms.shape[-1], dtype=np.complex128),
                                grp.terms.shape[1:]).copy() for grp in groups]

    u = identity()
    ramps = {}
    for seg in schedule.segments:
        w0 = ops.weights(seg.start)
        if seg.ramp == "constant":
            u = _evolve(built(w0[None]), seg.duration, u)
            continue
        mirrored = ramps.get((seg.ramp, seg.duration, seg.end, seg.start))
        if mirrored is not None:
            ramp = [r.swapaxes(-1, -2) for r in mirrored]
        else:
            profile = RAMP_PROFILES[seg.ramp]
            w1 = ops.weights(seg.end)
            dt = seg.duration / n_steps_per_segment
            ramp = identity()
            for k0 in range(0, n_steps_per_segment, _CHUNK):
                k = np.arange(k0, min(k0 + _CHUNK, n_steps_per_segment))
                f = profile((k + 0.5) / n_steps_per_segment)
                ramp = _evolve(built(w0 + f[:, None] * (w1 - w0)), dt, ramp)
            ramps[seg.ramp, seg.duration, seg.start, seg.end] = ramp
        u = [r @ prev for r, prev in zip(ramp, u)]
    return u


def _schedule_operators(schedule: PulseSchedule) -> SectorOperators:
    first = schedule.segments[0].start
    return SectorOperators(first.n_sites, [(i, j) for (i, j, _) in first.edges])


def propagate(schedule: PulseSchedule, n_steps_per_segment: int = 200) -> np.ndarray:
    """Time-ordered propagator of a schedule on the full Hilbert space.

    Ramps use midpoint stepping (the Hamiltonian at each step's midpoint
    couplings, second-order accurate); constant segments evolve in one exact
    exponential independent of the step count.  Total S_z is conserved, so
    each sector block evolves on its own; this evolves every sector and
    assembles the full unitary at the end.  The steps of a ramp are built in
    chunks of ``_CHUNK`` and exponentiated in closed form for 1x1 and 2x2
    blocks, with one ``eigh`` call per larger block size and chunk; each
    chunk's step propagators are multiplied pairwise in about log2(``_CHUNK``)
    batched matmuls.  A ramp that runs an earlier one backwards reuses its
    transposed propagator (see ``_evolve_sectors``).
    """
    if n_steps_per_segment < 1:
        raise ValueError("n_steps_per_segment must be at least 1")
    if not schedule.segments:
        return np.eye(2**schedule.n_sites, dtype=np.complex128)
    ops = _schedule_operators(schedule)
    u = _evolve_sectors(schedule, n_steps_per_segment, ops, ops.groups)
    return check_unitary(ops.embed(u))


def ramp_steps(schedule: PulseSchedule, steps_per_unit_time: float) -> int:
    """Propagation steps per segment: the longest ramp times ``steps_per_unit_time``.

    A hold is one exact exponential, so only ramps set the count; a schedule
    without ramps counts as one unit of ramp time.  ``steps_per_unit_time``
    must be finite and positive.
    """
    if not (np.isfinite(steps_per_unit_time) and steps_per_unit_time > 0):
        raise ValueError(
            f"steps per unit time must be finite and positive, got {steps_per_unit_time}")
    longest = max((s.duration for s in schedule.segments if s.ramp != "constant"),
                  default=1.0)
    return max(1, int(np.ceil(longest * steps_per_unit_time)))


def propagation_error_estimate(schedule: PulseSchedule, n_steps_per_segment: int) -> float:
    """Richardson-style step error |U_2n - U_n|_max."""
    return max_abs(propagate(schedule, 2 * n_steps_per_segment)
                   - propagate(schedule, n_steps_per_segment))


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


def synthesize_rz(theta: float, delta: float, h: float = 0.75) -> PulseSchedule:
    """Hold J23 = 1 + delta' for |theta/delta| to realize Rz(theta).

    Raising J23 lowers |0_L>, so the excursion sign is set internally to
    -sign(theta) * |delta|; both rotation senses are available because the
    idle coupling is nonzero.
    """
    return _hold_rotation(theta, delta, {"j23": -1}, 1.0, h)


def synthesize_axis120(theta: float, delta: float, which: str = "j12",
                       h: float = 0.75) -> PulseSchedule:
    """Hold J12 (or J13) = 1 + delta' to rotate about the tilted x-z axis.

    The generator is (delta/4)(sqrt(3) sigma_x + sigma_z) for J12 (the sigma_x
    part flips sign for J13): an axis in the x-z plane 120 degrees away from
    the -z direction.  Hold time |theta/delta|.
    """
    if which not in AXIS120:
        raise ValueError("which must be 'j12' or 'j13'")
    return _hold_rotation(theta, delta, {which: 1}, 1.0, h)


def synthesize_rx(theta: float, delta: float, h: float = 0.75) -> PulseSchedule:
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


def decompose_su2(target: np.ndarray, delta_z: float = 0.5, delta_x: float = 0.25,
                  h: float = 0.75) -> PulseSchedule:
    """z-x-z pulse sequence matching an arbitrary 2x2 unitary up to phase."""
    alpha, beta, gamma = zxz_angles(target)
    schedule = empty_schedule(3)
    for theta, maker, delta in ((gamma, synthesize_rz, delta_z),
                                (beta, synthesize_rx, delta_x),
                                (alpha, synthesize_rz, delta_z)):
        theta = _wrap_angle(theta)
        if abs(theta) > 1e-12:
            schedule = schedule.then(maker(theta, delta, h=h))
    return schedule


# ---------------------------------------------------------------------------
# Two-LQ conditional phase gate
# ---------------------------------------------------------------------------

def _trapezoid_phases(tracker: _SectorTracker, j14_peak: float, eps: float,
                      ramp_time: float, n_nodes: int, ramp_shape: str):
    """Midpoint-quadrature lambda integrals along one ramp of the pulse.

    Returns (per-ramp integrals of the four lambdas, lambdas at the peak).
    """
    profile = RAMP_PROFILES[ramp_shape]
    mids = [profile((k + 0.5) / n_nodes) for k in range(n_nodes)]
    rows = tracker.walk([(j14_peak * f, eps * f) for f in mids] + [(j14_peak, eps)])
    dt = ramp_time / n_nodes
    return rows[:-1].sum(axis=0) * dt, rows[-1]


def _conditional(lams: np.ndarray) -> float:
    return float(lams[0] + lams[3] - lams[1] - lams[2])


def _single_qubit(lams: np.ndarray) -> float:
    return float(lams[0] - (lams[1] + lams[2]) / 2)


def synthesize_cphase(phi: float, j14_peak: float, ramp_time: float,
                      n_calibration_steps: int = 160, h: float = 0.75,
                      mode: str = "simultaneous", max_duration: float = 2000.0,
                      ramp_shape: str = "smooth") -> PulseSchedule:
    """Conditional phase gate from one ramp-hold-ramp J14 pulse.

    The pulse accumulates conditional phase at rate lambda_00 + lambda_11 -
    2 lambda_01 (about 4*J14/9 for small J14); the hold time is chosen so
    the total equals -phi modulo 2 pi.

    In ``simultaneous`` mode the J23 = J56 couplings follow the same pulse
    profile scaled to a shift calibrated by a bracketed secant iteration
    (Illinois regula falsi from the probes at shift 0 and 0.35; residual
    single-qubit phase below 1e-10, else ``ArithmeticError``), so the
    single-LQ z-phases cancel inside the one pulse interval.  In
    ``sequential`` mode the pulse runs uncalibrated and a sudden equal
    z-correction on both triples follows.

    ``ramp_shape`` defaults to ``smooth``: with plain linear ramps the
    residual leakage oscillates with ramp duration (interfering kicks from
    the slope corners), so longer is not always better; the raised-cosine
    shape restores monotone convergence.

    Parameters
    ----------
    phi : conditional phase in radians; 0 gives the empty schedule.
    j14_peak : peak inter-triple coupling, inside the gapped window (0, 0.75).
    ramp_time : duration of each ramp, in 1/J.
    n_calibration_steps : quadrature nodes per ramp for the phase integrals.
    mode : 'simultaneous' or 'sequential' z-phase cancellation.
    max_duration : reject gates longer than this (phase unreachable).
    ramp_shape : 'smooth' or 'linear'.
    """
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    if not 0 < j14_peak < 0.75:
        raise ValueError("j14_peak outside the gapped window (0, 0.75)")
    if not (np.isfinite(ramp_time) and ramp_time > 0):
        raise ValueError("ramp_time must be positive and finite")
    if n_calibration_steps < 1:
        raise ValueError("n_calibration_steps must be at least 1")
    if mode not in ("simultaneous", "sequential"):
        raise ValueError("mode must be 'simultaneous' or 'sequential'")
    if ramp_shape not in RAMP_PROFILES:
        raise ValueError("ramp_shape must be 'linear' or 'smooth'")
    idle = two_lq_graph(h=h)
    target_cc = float(np.mod(-phi, 2 * np.pi))
    if target_cc == 0.0:
        return PulseSchedule((), 6, idle=idle)

    tracker = _SectorTracker(h)

    def solve(eps: float) -> tuple[float, float]:
        ramp, peak = _trapezoid_phases(tracker, j14_peak, eps, ramp_time,
                                       n_calibration_steps, ramp_shape)
        cc_ramp, cc_peak = _conditional(ramp), _conditional(peak)
        total = target_cc
        hold = (total - 2 * cc_ramp) / cc_peak
        while hold < -1e-12:
            total += 2 * np.pi
            hold = (total - 2 * cc_ramp) / cc_peak
        hold = max(hold, 0.0)
        if 2 * ramp_time + hold > max_duration:
            raise ValueError("requested phase unreachable within max_duration")
        sq = 2 * _single_qubit(ramp) + _single_qubit(peak) * hold
        return hold, sq

    if mode == "simultaneous":
        eps_hi = 0.35
        hold, sq = solve(0.0)
        _, sq1 = solve(eps_hi)
        for m in range(int(np.floor(sq / (2 * np.pi))), -1, -1):
            offset = 2 * np.pi * m
            if sq - offset >= 0 >= sq1 - offset:
                break
        else:
            raise ValueError("cannot cancel the single-qubit phase inside the shift window")
        # Illinois regula falsi on residual(eps) = sq - offset, which is
        # >= 0 at lo and <= 0 at hi.  When the same end moves twice in a
        # row, the residual kept at the other end is halved, so the secant
        # cannot stall on one side of the root.
        lo, r_lo, hi, r_hi = 0.0, sq - offset, eps_hi, sq1 - offset
        eps, residual, moved = 0.0, r_lo, 0
        for _ in range(CALIBRATION_MAX_PROBES):
            if abs(residual) <= CALIBRATION_TOL:
                break
            eps = (lo * r_hi - hi * r_lo) / (r_hi - r_lo)
            hold, sq = solve(eps)
            residual = sq - offset
            if residual > 0:
                lo, r_lo = eps, residual
                if moved == 1:
                    r_hi /= 2
                moved = 1
            else:
                hi, r_hi = eps, residual
                if moved == -1:
                    r_lo /= 2
                moved = -1
        if abs(residual) > CALIBRATION_TOL:
            raise ArithmeticError(
                f"shift calibration did not converge: single-qubit phase residual "
                f"{residual:.3e} after {CALIBRATION_MAX_PROBES} probes")
    else:
        eps = 0.0
        hold, sq = solve(0.0)

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
                   n_steps_per_segment: int) -> GateReport:
    """Score a schedule on real basis columns that lie in one S_z sector.

    Only the invariant blocks of the columns are evolved: the smallest
    subspaces of the sector that hold them and are closed under the
    Hamiltonians at the segment endpoints.  Every midpoint step is a
    combination of its segment's endpoints, so it leaves the blocks invariant.
    Raises ``ValueError`` when the columns have nonzero rows in several sectors.
    """
    if n_steps_per_segment < 1:
        raise ValueError("n_steps_per_segment must be at least 1")
    rows = np.flatnonzero(np.any(cols != 0, axis=1))
    sector = next((s for s in sz_sectors(schedule.n_sites) if np.isin(rows, s.indices).all()),
                  None)
    if sector is None:
        raise ValueError("basis columns span more than one S_z sector")
    cols = cols[np.asarray(sector.indices)]
    if not schedule.segments:
        return gate_report(np.eye(len(cols), dtype=np.complex128), target, cols)
    ops = _schedule_operators(schedule)
    grp, s = next((grp, s) for grp in ops.groups for s, m in enumerate(grp.m) if m == sector.m)
    ends = [ops.weights(g) for seg in schedule.segments for g in (seg.start, seg.end)]
    generators = grp.hamiltonians(ends, schedule.segments[0].start.field_h)[:, s]
    blocks = [basis for _, basis in invariant_blocks(generators, cols.real)]
    groups = [SectorGroup(grp.m[s:s + 1], None, (basis.T @ grp.terms[:, s] @ basis)[:, None])
              for basis in blocks]
    u = _evolve_sectors(schedule, n_steps_per_segment, ops, groups)
    u_blocks = sum(basis @ check_unitary(step[0]) @ basis.T for basis, step in zip(blocks, u))
    return gate_report(u_blocks, target, cols)


def single_lq_report(schedule: PulseSchedule, target: np.ndarray,
                     n_steps_per_segment: int = 200) -> GateReport:
    """Propagate a 3-site schedule and score it on the logical doublet.

    Only the invariant blocks of the doublet in the m = +1/2 sector are evolved.
    """
    return _sector_report(schedule, target, logical_basis((0, 1, 2), 3).columns,
                          n_steps_per_segment)


def two_lq_report(schedule: PulseSchedule, target: np.ndarray,
                  n_steps_per_segment: int = 200) -> GateReport:
    """Propagate a 6-site schedule and score it on the logical quartet.

    Only the invariant blocks of the quartet in the m = +1 sector are evolved.
    """
    return _sector_report(schedule, target, two_lq_basis(), n_steps_per_segment)
