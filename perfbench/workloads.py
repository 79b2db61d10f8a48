"""The benchmark's operations: trispin CLI calls, their inputs and their checks.

Every operation is one CLI command.  Its check reads the artifact (and the
one-line summary on stdout) and compares it with results computed here from
``reference`` -- never from trispin -- or with properties the method must
have.  A check returns a list of problems; a problem that is a known fault of
the program is returned apart, so the operation counts as failed while the
run stays correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

EIG_TOL = 1e-10
PI = math.pi


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    fault: str | None = None        # known program fault: the operation failed

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass(frozen=True)
class Op:
    """One CLI call."""

    key: str
    args: tuple[str, ...]
    fmt: str
    check: Callable[["Op", object, str], Outcome]
    params: dict = field(default_factory=dict)
    points: int = 0                 # grid points of a sweep-* command
    metric: str | None = None       # the per-command metric timing this call


def load(path: str, fmt: str):
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _num(x: float) -> str:
    return repr(float(x))


def _summary_numbers(stdout: str) -> list[float]:
    """Numbers after the last ':' or '=' of the one-line summary."""
    tail = re.split(r"[:=]", stdout)[-1]
    return [float(t) for t in re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", tail)]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_units(op: Op, doc, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    b = p["h"] * p["J"] / (p["g"] * ref.MU_B_MICROEV_PER_TESLA)
    gap = float(ref.idle_gap(p["h"])) * p["J"]
    out.expect(abs(doc["b_tesla"] - b) <= 1e-12 * b, f"B {doc['b_tesla']} != {b}")
    out.expect(abs(doc["gap_microev"] - gap) <= EIG_TOL * p["J"],
               f"gap {doc['gap_microev']} != {gap}")
    return out


def check_spectrum(op: Op, doc, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    vals = ref.spectrum(p["n"], p["edges"], p["h"])
    energies = np.asarray(doc["energies"])
    out.expect(energies.shape == vals.shape, f"{len(energies)} levels, want {len(vals)}")
    if energies.shape == vals.shape:
        err = float(np.max(np.abs(energies - vals)))
        out.expect(err <= EIG_TOL, f"energies off by {err:.2e}")
    degeneracy = int(np.sum(np.abs(vals - vals[0]) <= 1e-9))
    out.expect(doc["ground_degeneracy"] == degeneracy,
               f"degeneracy {doc['ground_degeneracy']} != {degeneracy}")
    gap = vals[degeneracy] - vals[0] if degeneracy < len(vals) else 0.0
    out.expect(abs(doc["gap"] - gap) <= EIG_TOL, f"gap {doc['gap']} != {gap}")
    sizes = {float(m): c for m, c in doc["sector_sizes"].items()}
    out.expect(sizes == ref.sector_sizes(p["n"]), f"sector sizes {sizes}")
    return out


def _logical_unitary(doc) -> np.ndarray:
    return np.asarray(doc["logical_unitary_re"]) + 1j * np.asarray(doc["logical_unitary_im"])


def _fidelity(m: np.ndarray, target: np.ndarray) -> float:
    d = len(target)
    return abs(np.trace(target.conj().T @ m)) ** 2 / (d * np.trace(m.conj().T @ m).real)


def _single_target(p: dict) -> np.ndarray:
    kind = p["type"]
    if kind == "rz":
        return ref.rotation(p["theta"], (0, 0, 1))
    if kind == "rx":
        return ref.rotation(p["theta"], (1, 0, 0))
    if kind == "axis120":
        sx = math.sqrt(3) / 2 * (1 if p["which"] == "j12" else -1)
        return ref.rotation(p["theta"], (sx, 0, 0.5))
    a, b, c = p["euler"]
    return (ref.rotation(a, (0, 0, 1)) @ ref.rotation(b, (1, 0, 0))
            @ ref.rotation(c, (0, 0, 1)))


def check_single_gate(op: Op, doc, stdout: str) -> Outcome:
    """Rebuild the logical unitary from the schedule with the closed-form block."""
    out = Outcome()
    rebuilt = np.eye(2, dtype=complex)
    for seg in doc["schedule"]["segments"]:
        out.expect(seg["ramp"] == "constant", f"single-qubit segment ramp {seg['ramp']}")
        j = {(i, k): jik for i, k, jik in seg["start"]["edges"]}
        block = ref.logical_block(j[(0, 1)], j[(0, 2)], j[(1, 2)])
        rebuilt = ref.expm_2x2(block, seg["duration"]) @ rebuilt
    m = _logical_unitary(doc)
    target = _single_target(op.params)
    out.expect(ref.phase_distance(m, rebuilt) <= 1e-9,
               f"artifact unitary differs from the schedule by {ref.phase_distance(m, rebuilt):.2e}")
    out.expect(ref.phase_distance(rebuilt, target) <= 1e-9,
               f"schedule misses the target by {ref.phase_distance(rebuilt, target):.2e}")
    fid = _fidelity(m, target)
    out.expect(abs(fid - doc["fidelity"]) <= 1e-9, f"fidelity {doc['fidelity']} != {fid}")
    out.expect(doc["max_leakage"] <= 1e-9, f"leakage {doc['max_leakage']}")
    return out


def check_cphase(op: Op, doc, stdout: str) -> Outcome:
    """Fidelity and conditional phase recomputed from the 4x4 logical block."""
    out = Outcome()
    phi = op.params["phi"]
    m = _logical_unitary(doc)
    fid = _fidelity(m, np.diag([1, 1, 1, np.exp(1j * phi)]))
    out.expect(fid >= 0.999, f"fidelity {fid} < 0.999")
    out.expect(abs(fid - doc["fidelity"]) <= 1e-9, f"fidelity {doc['fidelity']} != {fid}")
    phase = float(np.angle(m[0, 0] * m[3, 3] / (m[1, 1] * m[2, 2])))
    out.expect(abs(ref.wrap(phase - doc["conditional_phase"])) <= 1e-9,
               f"conditional phase {doc['conditional_phase']} != {phase}")
    out.expect(abs(ref.wrap(phase - phi)) <= 0.02, f"conditional phase {phase} vs {phi}")
    return out


def check_adiabatic(op: Op, doc, stdout: str) -> Outcome:
    out = Outcome()
    rows = doc["rows"]
    times = [r["ramp_time"] for r in rows]
    out.expect(times == op.params["ramp_times"], f"ramp times {times}")
    leaks = [r["max_leakage"] for r in rows]
    for r in rows:
        out.expect(0.999 <= r["fidelity"] <= 1.0, f"fidelity {r['fidelity']}")
        out.expect(0.0 <= r["max_leakage"] <= 1.0, f"leakage {r['max_leakage']}")
        out.expect(abs(ref.wrap(r["conditional_phase"] - op.params["phi"])) <= 0.05,
                   f"conditional phase {r['conditional_phase']}")
    out.expect(all(b <= a for a, b in zip(leaks, leaks[1:])),
               f"leakage does not fall with ramp time: {leaks}")
    return out


def _check_grid(out: Outcome, grid: np.ndarray, lo: float, hi: float, n: int) -> None:
    want = np.linspace(lo, hi, n)
    out.expect(grid.shape == want.shape and np.max(np.abs(grid - want)) <= 1e-12,
               f"grid is not linspace({lo}, {hi}, {n})")


def _check_levels(out: Outcome, got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape:
        out.expect(False, f"{what}: shape {got.shape}, want {want.shape}")
        return
    err = float(np.max(np.abs(got - want)))
    out.expect(err <= EIG_TOL, f"{what} off by {err:.2e}")


def _check_points(out: Outcome, found, want, tol: float, what: str) -> None:
    ok = len(found) == len(want) and all(abs(a - b) <= tol for a, b in zip(found, want))
    out.expect(ok, f"{what} {found}, want {want} within {tol}")


def check_sweep_field(op: Op, table, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    header, rows = table
    grid = rows[:, 0]
    _check_grid(out, grid, p["min"], p["max"], p["points"])
    _check_levels(out, rows[:, 1:-1], ref.triangle_spectra(1, 1, 1, grid), "spectra")
    gap_err = float(np.max(np.abs(rows[:, -1] - ref.idle_gap(grid))))
    out.expect(gap_err <= EIG_TOL, f"gap differs from min(h, 1.5 - h) by {gap_err:.2e}")
    _check_points(out, _summary_numbers(stdout), [0.75], 1e-6, "h*")
    return out


def check_sweep_intra(op: Op, table, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    header, rows = table
    grid = rows[:, 0]
    _check_grid(out, grid, p["min"], p["max"], p["points"])
    j = {"j12": 1.0, "j13": 1.0, "j23": 1.0, p["which"]: grid}
    levels = ref.triangle_spectra(j["j12"], j["j13"], j["j23"], p["h"])
    _check_levels(out, rows[:, 1:-1], levels, "spectra")
    logical = ref.logical_levels(j["j12"], j["j13"], j["j23"], p["h"])
    logical = np.broadcast_to(logical, (len(grid), 2))
    gap_err = float(np.max(np.abs(rows[:, -1] - ref.gap_above(levels, logical))))
    out.expect(gap_err <= EIG_TOL, f"gap off by {gap_err:.2e}")
    _check_points(out, _summary_numbers(stdout), [0.25, 1.75], 1e-6, "crossings")
    return out


def _check_quartet(out: Outcome, grid: np.ndarray, quartet: np.ndarray,
                   levels: np.ndarray, what: str) -> None:
    """Tracked branches are eigenvalues, and lambda_00 = -9/4 + J14/4."""
    err = float(np.max(ref.nearest_distance(quartet, levels)))
    out.expect(err <= EIG_TOL, f"{what}: tracked values {err:.2e} from any eigenvalue")
    err00 = float(np.max(np.abs(quartet[:, 0] - ref.lambda00(grid))))
    out.expect(err00 <= EIG_TOL, f"{what}: lambda_00 off -9/4 + j14/4 by {err00:.2e}")


def check_sweep_inter(op: Op, doc, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    grid = np.asarray(doc["grid"])
    _check_grid(out, grid, p["min"], p["max"], p["points"])
    levels = ref.two_lq_spectra(grid, p["h"])
    _check_levels(out, np.asarray(doc["spectra"]), levels, "spectra")
    quartet = np.asarray(doc["logical"])
    _check_quartet(out, grid, quartet, levels, "sweep-inter")
    gap_err = float(np.max(np.abs(np.asarray(doc["gap"]) - ref.gap_above(levels, quartet))))
    out.expect(gap_err <= EIG_TOL, f"gap off by {gap_err:.2e}")
    _check_points(out, doc["crossings"], [0.75], 1e-3, "gap closing")
    # Allowed magnetizations of 6 sites are integers.  Known fault: <S_z> is
    # taken inside degenerate eigenspaces that mix sectors.
    sz = np.asarray(doc["sz_labels"])
    bad = np.abs(sz - np.round(sz)) > 1e-9
    if np.any(bad):
        out.fault = (f"sz_labels: {int(bad.sum())} non-integer entries at "
                     f"{int(np.any(bad, axis=1).sum())} grid points")
    return out


def check_lambdas(op: Op, table, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    header, rows = table
    grid = rows[:, 0]
    _check_grid(out, grid, p["min"], p["max"], p["points"])
    quartet = rows[:, 1:4]
    _check_quartet(out, grid, quartet, ref.two_lq_spectra(grid, p["h"]), "lambdas")
    ent = quartet[:, 0] + quartet[:, 2] - 2 * quartet[:, 1]
    out.expect(np.max(np.abs(rows[:, 4] - ent)) <= 1e-12, "entangling != l00 + l11 - 2 l01")
    return out


def check_verify(op: Op, doc, stdout: str) -> Outcome:
    p, out = op.params, Outcome()
    pts = doc["points"]
    grid = np.array([r["j14"] for r in pts])
    _check_grid(out, grid, p["min"], p["max"], p["points"])
    quartet = np.array([[r["lambda_00"], r["lambda_01"], r["lambda_11"]] for r in pts])
    _check_quartet(out, grid, quartet, ref.two_lq_spectra(grid, p["h"]), "verify-eq7")
    cubic = np.abs(ref.cubic(quartet[:, 2], grid))
    out.expect(np.max(cubic) <= 1e-8, f"cubic residual on lambda_11 {np.max(cubic):.2e}")
    reported = np.array([r["cubic_residual_on_11"] for r in pts])
    out.expect(np.max(np.abs(reported - cubic)) <= 1e-9, "reported cubic residuals differ")
    line = np.abs(4 * quartet[:, 0] - (grid - 9))
    reported = np.array([r["line_corrected_residual"] for r in pts])
    out.expect(np.max(np.abs(reported - line)) <= 1e-9, "reported line residuals differ")
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _sweep_intra(which: str) -> Op:
    return Op(f"sweep-intra-{which}", ("sweep-intra", "--which", which), "csv",
              check_sweep_intra, {"which": which, "min": 0.1, "max": 1.9, "points": 301,
                                  "h": 0.75}, points=301)


CZ_OPS = (
    Op("cphase", ("gate", "--type", "cphase"), "json", check_cphase,
       {"phi": PI}, metric="cphase_gate_s"),
    Op("cphase-sequential", ("gate", "--type", "cphase", "--mode", "sequential"),
       "json", check_cphase, {"phi": PI}),
    Op("cphase-weak", ("gate", "--type", "cphase", "--j14", "0.1", "--ramp-time", "10",
                       "--steps-per-unit", "20"),
       "json", check_cphase, {"phi": PI}, metric="weak_cphase_gate_s"),
    Op("adiabatic", ("adiabatic", "--j14", "0.3", "--ramp-times", "4,8", "--format", "json"),
       "json", check_adiabatic, {"phi": PI, "ramp_times": [4.0, 8.0]}, metric="adiabatic_s"),
)
SPECTRA_OPS = (
    Op("sweep-field", ("sweep-field",), "csv", check_sweep_field,
       {"min": 0.0, "max": 1.5, "points": 301}, points=301),
    _sweep_intra("j12"), _sweep_intra("j13"), _sweep_intra("j23"),
    Op("sweep-inter", ("sweep-inter", "--format", "json"), "json", check_sweep_inter,
       {"min": 0.0, "max": 0.85, "points": 301, "h": 0.75}, points=301),
    Op("lambdas", ("lambdas",), "csv", check_lambdas,
       {"min": 0.0, "max": 0.7, "points": 71, "h": 0.75}),
    Op("verify-eq7", ("verify-eq7",), "json", check_verify,
       {"min": 0.0, "max": 0.7, "points": 71, "h": 0.75}),
)

SPECTRUM_EDGES = {3: 3, 4: 4, 5: 6, 6: 8}    # edges per random graph, by size


def _spectrum(rng: random.Random, n: int) -> Op:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [(i, j, rng.uniform(0.2, 1.8))
             for i, j in sorted(rng.sample(pairs, SPECTRUM_EDGES[n]))]
    h = rng.uniform(0.05, 1.45)
    spec = ",".join(f"{i}-{j}:{_num(jij)}" for i, j, jij in edges)
    return Op(f"spectrum-{n}", ("spectrum", f"--n-sites={n}", f"--edges={spec}", f"--h={_num(h)}"),
              "json", check_spectrum, {"n": n, "edges": edges, "h": h})


def _units(rng: random.Random) -> Op:
    p = {"J": rng.uniform(1.0, 20.0), "g": rng.uniform(0.2, 2.5), "h": rng.uniform(0.05, 1.45)}
    return Op("units", ("units", f"--J={_num(p['J'])}", f"--g={_num(p['g'])}",
                        f"--h={_num(p['h'])}"), "json", check_units, p)


def _angle(rng: random.Random) -> float:
    return rng.choice((-1, 1)) * rng.uniform(0.2, 3.0)


def _single_gates(rng: random.Random) -> list[Op]:
    rz = {"type": "rz", "theta": _angle(rng), "delta": rng.uniform(0.1, 0.7)}
    rx = {"type": "rx", "theta": _angle(rng), "delta": rng.uniform(0.1, 0.35)}
    ax = {"type": "axis120", "theta": _angle(rng), "delta": rng.uniform(0.1, 0.7),
          "which": rng.choice(("j12", "j13"))}
    su2 = {"type": "su2", "euler": (_angle(rng), rng.uniform(0.3, 2.8), _angle(rng))}
    ops = []
    for p in (rz, rx, ax):
        args = ["gate", f"--type={p['type']}", f"--theta={_num(p['theta'])}",
                f"--delta={_num(p['delta'])}"]
        if "which" in p:
            args.append(f"--which={p['which']}")
        ops.append(Op(f"gate-{p['type']}", tuple(args), "json", check_single_gate, p))
    euler = ",".join(_num(a) for a in su2["euler"])
    ops.append(Op("gate-su2", ("gate", "--type=su2", f"--euler={euler}"), "json",
                  check_single_gate, su2))
    return ops


def short_round(rng: random.Random) -> list[Op]:
    """Ten short calls: two units, four random graphs of 3-6 sites, four gates."""
    return ([_units(rng), _units(rng)] + [_spectrum(rng, n) for n in (3, 4, 5, 6)]
            + _single_gates(rng))


def make_pass(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of pass ``index``; the seed fixes values and order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cz":
        ops = list(CZ_OPS)
    elif workload == "spectra":
        ops = list(SPECTRA_OPS)
    else:
        ops = short_round(rng)
    rng.shuffle(ops)
    return ops


WORKLOADS = ("cz", "spectra", "short")
# Fewest passes in a run without tracing.  Ten short calls make a pass, so
# ten give the hundred samples that put ten beyond the 90th percentile.
MIN_PASSES = {"cz": 2, "spectra": 2, "short": 10}
TAIL_PERCENTILE = 90
COMMAND_METRICS = ("cphase_gate_s", "weak_cphase_gate_s", "adiabatic_s")
