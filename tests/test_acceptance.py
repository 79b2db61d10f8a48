"""Acceptance suite: one test per headline claim, at pinned tolerances.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line per
criterion with the measured numbers.  The expected values come from
independent oracles (total-spin multiplet counting, exact logical-block
projection, first-order perturbation theory, finite differences), never from
the code paths under test.
"""

import time

import numpy as np

from trispin.encoding import (
    effective_h1,
    initialization_ground,
    lambda_curve,
    logical_basis,
    project_effective,
    reference_cubic,
    reference_quadratic_discriminant,
    singlet_probability,
    two_lq_basis,
    verify_lambda_polynomials,
)
from trispin.gates import (
    PulseSchedule,
    Segment,
    axis120_gate,
    constant_segment,
    cphase_gate,
    decompose_su2,
    gate_report,
    propagate,
    rx_gate,
    rz_gate,
    single_lq_report,
    synthesize_axis120,
    synthesize_cphase,
    synthesize_rx,
    synthesize_rz,
    two_lq_report,
)
from trispin.hamiltonian import build_hamiltonian, single_lq_graph, two_lq_graph
from trispin.linalg import max_abs
from trispin.spectra import (
    adiabatic_leakage_curve,
    optimal_field,
    sweep_field,
    sweep_inter,
    sweep_intra,
    to_physical,
)


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_01_idle_spectrum():
    start = time.perf_counter()
    vals = np.linalg.eigvalsh(build_hamiltonian(single_lq_graph(h=0.75)))
    elapsed = time.perf_counter() - start
    expected = np.array([-9 / 8, -9 / 8, -3 / 8, -3 / 8, -3 / 8, 3 / 8, 9 / 8, 15 / 8])
    dev = np.max(np.abs(vals - expected))
    degeneracy = int(np.sum(np.abs(vals - vals[0]) <= 1e-10))
    gap = vals[2] - vals[0]
    assert dev <= 1e-10
    assert degeneracy == 2
    assert abs(gap - 0.75) <= 1e-10
    assert elapsed < 1.0
    report(1, f"idle spectrum within {dev:.1e}, ground degeneracy 2, "
              f"gap {gap:.12f}, in {elapsed * 1e3:.1f} ms")


def test_criterion_02_optimal_field():
    h_star = optimal_field(0.0, 1.5)
    assert abs(h_star - 0.75) <= 1e-6
    result = sweep_field(0.0, 1.5, 301)
    dev = np.max(np.abs(result.gap - np.minimum(result.grid, 1.5 - result.grid)))
    assert dev <= 1e-10
    report(2, f"h* = {h_star:.8f}; gap(h) matches min(h, 3/2-h) within {dev:.1e} "
              f"on 301 points")


def test_criterion_03_intra_crossings():
    located = {}
    for which in ("j12", "j13", "j23"):
        _, crossings = sweep_intra(which, 0.1, 1.9, 121)
        assert len(crossings.crossings) == 2
        assert abs(crossings.crossings[0] - 0.25) <= 1e-6
        assert abs(crossings.crossings[1] - 1.75) <= 1e-6
        located[which] = crossings.crossings
    report(3, "level crossings at 0.25 and 1.75 within 1e-6 for " +
              ", ".join(f"{k}=({v[0]:.7f}, {v[1]:.7f})" for k, v in located.items()))


def test_criterion_04_inter_gap_closing():
    sweep, crossings = sweep_inter(0.0, 0.85, 69)
    assert len(crossings.crossings) == 1
    closing = crossings.crossings[0]
    assert abs(closing - 0.75) <= 1e-3
    quartet_dev = np.max(np.abs(sweep.logical[0] + 9 / 4))
    assert quartet_dev <= 1e-10
    report(4, f"two-LQ gap closes at j14 = {closing:.6f}; quartet degenerate "
              f"at -9/4 within {quartet_dev:.1e}")


def test_criterion_05_lambda_series():
    grid = np.linspace(0.0, 0.7, 71)
    rows = lambda_curve(grid)
    dev00 = np.max(np.abs(rows[:, 0] - (-9 / 4 + grid / 4)))
    assert dev00 <= 1e-10

    fit_grid = np.linspace(0.0, 0.1, 21)
    fit_rows = lambda_curve(fit_grid)
    pair = (fit_rows[:, 1] + fit_rows[:, 2]) / 2 + 9 / 4
    top = fit_rows[:, 3] + 9 / 4
    c_pair = np.polyfit(fit_grid, pair, 4)
    c_top = np.polyfit(fit_grid, top, 4)
    # Correct branch assignment (the reference series labels are swapped): the
    # degenerate |01>/|10> pair carries (-1/12, -4/27), the |11> branch
    # (+1/36, -2/27), per first-order perturbation theory <S1>.<S4>:
    # (1/2)(-1/6) = -1/12 and (-1/6)^2 = 1/36, giving the small-coupling
    # level ordering |00> above |11> above the degenerate pair.
    checks = {
        "pair linear": (c_pair[-2], -1 / 12),
        "pair quadratic": (c_pair[-3], -4 / 27),
        "top linear": (c_top[-2], 1 / 36),
        "top quadratic": (c_top[-3], -2 / 27),
    }
    for name, (got, want) in checks.items():
        assert abs(got - want) / abs(want) <= 1e-3, name
    # the swapped assignment fails by a wide margin
    assert abs(c_pair[-2] - 1 / 36) / (1 / 36) > 1
    assert abs(c_top[-2] + 1 / 12) / (1 / 12) > 1
    report(5, f"lambda_00 linear within {dev00:.1e}; Taylor coefficients "
              f"(-1/12, -4/27) and (1/36, -2/27) matched to "
              f"{max(abs(g / w - 1) for g, w in checks.values()):.1e} relative "
              f"(reference branch labels are swapped)")


def test_criterion_06_polynomial_verification():
    grid = np.linspace(0.0, 0.7, 71)
    rep = verify_lambda_polynomials(grid)
    at0 = rep[0]
    # the reference linear relation for lambda_00 misses by exactly 6 at j14 = 0
    assert abs(at0["line_residual"] - 6.0) <= 1e-9
    max_corrected = max(r["line_corrected_residual"] for r in rep)
    assert max_corrected <= 1e-10
    # the cubic holds on the branch with slope 1/36 (not on the degenerate pair)
    max_cubic = max(r["cubic_residual_on_11"] for r in rep)
    assert max_cubic <= 1e-9
    assert reference_cubic(-9 / 4, 0.0) == 0.0
    assert all(r["cubic_residual_on_01"] > 1e-3 for r in rep if r["j14"] >= 0.05)
    # the reference quadratic has no real roots at j14 = 0
    assert reference_quadratic_discriminant(0.0) < 0
    assert not at0["quadratic_has_real_roots"]
    assert at0["quadratic_residual_on_11"] > 1.0
    report(6, f"cubic residual <= {max_cubic:.1e} on the 1/36-slope branch; "
              f"reference lambda_00 line off by 6.0 at the origin (corrected form "
              f"<= {max_corrected:.1e}); quadratic non-real at the origin")


def test_criterion_07_exact_logical_projection():
    rng = np.random.default_rng(2024)
    basis = logical_basis((0, 1, 2), 3)
    worst_entry = 0.0
    worst_residual = 0.0
    for _ in range(100):
        j12, j13, j23 = rng.uniform(0.25, 1.75, 3)
        h = build_hamiltonian(single_lq_graph(j12, j13, j23, h=0.75))
        num = project_effective(h, basis)
        ana = effective_h1(j12, j13, j23, h=0.75)
        entry = max(max_abs(num.matrix - ana.matrix),
                    abs(num.trace_offset - ana.trace_offset))
        worst_entry = max(worst_entry, entry)
        worst_residual = max(worst_residual, num.off_block_residual)
    assert worst_entry <= 1e-12
    assert worst_residual <= 1e-12
    report(7, f"100 random coupling triples: projection matches the closed "
              f"2x2 form within {worst_entry:.1e}, off-block residual "
              f"<= {worst_residual:.1e}")


def test_criterion_08_single_lq_gate_suite():
    cases = {
        "rz(pi/2)": (synthesize_rz(np.pi / 2, 0.5), rz_gate(np.pi / 2)),
        "axis120(pi/2)": (synthesize_axis120(np.pi / 2, 0.5), axis120_gate(np.pi / 2)),
        "rx(pi)": (synthesize_rx(np.pi, 0.25), rx_gate(np.pi)),
    }
    worst_fid, worst_leak = 1.0, 0.0
    for name, (sched, target) in cases.items():
        rep = single_lq_report(sched, target)
        assert rep.fidelity >= 1 - 1e-9, name
        assert rep.max_leakage <= 1e-10, name
        worst_fid = min(worst_fid, rep.fidelity)
        worst_leak = max(worst_leak, rep.max_leakage)

    rng = np.random.default_rng(77)
    worst_su2 = 1.0
    for _ in range(20):
        q = rng.normal(size=4)
        w, x, y, z = q / np.linalg.norm(q)
        target = np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])
        rep = single_lq_report(decompose_su2(target), target)
        assert rep.fidelity >= 1 - 1e-8
        worst_su2 = min(worst_su2, rep.fidelity)
    report(8, f"named gates: fidelity >= {worst_fid:.12f}, leakage <= "
              f"{worst_leak:.1e}; 20 random SU(2) targets: fidelity >= "
              f"{worst_su2:.12f}")


def _conditional_phase_of_pulse(j14: float, hold: float, ramp: float = 10.0) -> float:
    idle = two_lq_graph(h=0.75)
    peak = idle.with_couplings({(0, 3): j14})
    segs = [Segment(ramp, idle, peak, "smooth"),
            constant_segment(hold, peak),
            Segment(ramp, peak, idle, "smooth")]
    sched = PulseSchedule(tuple(segs), 6, idle=idle)
    rep = gate_report(propagate(sched, 1000), cphase_gate(np.pi), two_lq_basis())
    return rep.conditional_phase


def test_criterion_09_conditional_phase_gate():
    # (a) small-coupling phase accumulation rate from full propagation,
    # isolated at the hold plateau by differencing two hold times
    rates = {}
    for j14 in (0.05, 0.025):
        p1 = _conditional_phase_of_pulse(j14, 20.0)
        p2 = _conditional_phase_of_pulse(j14, 70.0)
        rates[j14] = -(p2 - p1) / 50.0 / j14
    series = 4 / 9 + (2 / 9) * 0.05  # linear + quadratic terms at j14=0.05
    dev_series = abs(rates[0.05] - series) / series
    extrapolated = 2 * rates[0.025] - rates[0.05]  # Richardson to j14 -> 0
    dev_limit = abs(extrapolated - 4 / 9) / (4 / 9)
    assert dev_series <= 0.02
    assert dev_limit <= 0.02
    # the swapped-label coefficient combination J14/9 is off fourfold
    assert abs(rates[0.05] - 1 / 9) / (1 / 9) > 2

    # (b) full CZ at j14 = 0.5 across doubling ramp times
    rows = adiabatic_leakage_curve(np.pi, 0.5, [5.0, 10.0, 20.0, 40.0])
    leaks = [r.max_leakage for r in rows]
    for earlier, later in zip(leaks[:-1], leaks[1:]):
        assert later <= earlier + 1e-10
    assert rows[-1].fidelity >= 0.999
    quench = synthesize_cphase(np.pi, 0.5, 1e-3, n_calibration_steps=20)
    quench_rep = two_lq_report(quench, cphase_gate(np.pi), n_steps_per_segment=60)
    assert quench_rep.max_leakage > rows[-1].max_leakage
    report(9, f"phase rate/J14 at 0.05 = {rates[0.05]:.6f} (series "
              f"{series:.6f}, dev {dev_series:.1e}); limit {extrapolated:.6f} "
              f"vs 4/9 (dev {dev_limit:.1e}); CZ leakage " +
              " >= ".join(f"{v:.2e}" for v in leaks) +
              f", fidelity(40) = {rows[-1].fidelity:.7f}, quench leaks "
              f"{quench_rep.max_leakage:.2e}")


def test_criterion_10_physical_units():
    units = to_physical(7.0, 0.44, 0.75)
    assert 0.19 <= units.b_tesla <= 0.22
    assert abs(units.gap_microev - 5.25) <= 1e-9
    report(10, f"J = 7 microeV, g = 0.44, h = 0.75 -> B = {units.b_tesla:.4f} T, "
               f"gap = {units.gap_microev:.4f} microeV")


def test_criterion_11_readout_and_initialization():
    basis = logical_basis((0, 1, 2), 3)
    p0 = singlet_probability(basis.zero_l, (1, 2), 3)
    p1 = singlet_probability(basis.one_l, (1, 2), 3)
    assert abs(p0 - 1.0) <= 1e-12
    assert p1 <= 1e-12
    up = initialization_ground(0.2)
    down = initialization_ground(-0.2)
    # raising J23 favors the (b, c) singlet state |0_L>
    assert up.label == "0_L" and up.overlap >= 1 - 1e-10
    assert down.label == "1_L" and down.overlap >= 1 - 1e-10
    report(11, f"singlet probabilities (1, 0) exact to 1e-12; J23 shift +0.2 "
               f"grounds |0_L> (overlap {up.overlap:.12f}), -0.2 grounds "
               f"|1_L> (overlap {down.overlap:.12f})")
