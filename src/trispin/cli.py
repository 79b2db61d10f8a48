"""Command-line front end: sweeps, gates, verification, and unit conversion.

Every command writes one artifact, in a format its ``COMMANDS`` entry lists,
and prints a one-line summary to stdout.  A CSV artifact is one float64 table
with each cell to 17 significant digits; a JSON artifact is the text of
``json.dumps(..., indent=2)``.  Neither holds a NaN or an infinity, and both
are byte-reproducible: no wall clock, no randomness.
Exit codes: 0 ok, 2 configuration error or a request past a library cap
(``linalg.BudgetError``), 3 precondition violation, 4 numerical failure.

Flags override config-file values.  The config file is line-oriented
``key = value`` text with ``[command]`` section headers; keys before any
section apply to whichever command runs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

import numpy as np

from . import encoding, gates, hamiltonian, spectra
from .hamiltonian import CouplingGraph, sector_spectrum, single_lq_graph
from .linalg import BudgetError, degeneracy_tol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d*)?))?$")


class ConfigError(Exception):
    """Bad flags, config file, or parameter values (exit code 2)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose errors are ``ConfigError``s, so ``main`` reports them in one line.

    Its subparsers are of this class too.  A flag is its exact name or a
    declared alias, never a prefix: config-file keys take no prefix either.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def parse_angle(token: str) -> float:
    """Radians from a decimal literal or a pi token like 'pi', '-pi/4', '2pi'."""
    text = str(token).strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise ConfigError(f"invalid angle {token!r}: zero denominator")
        angle = sign * coef * np.pi / den
    else:
        try:
            angle = float(text)
        except ValueError:
            raise ConfigError(f"invalid angle {token!r}: use radians or pi tokens") from None
    if not np.isfinite(angle):
        raise ConfigError(f"invalid angle {token!r}: must be finite")
    return angle


def _within(flag: str, value, check: Callable, *args):
    """``check(*args)`` before any work, naming the flag of a request past a library cap."""
    try:
        return check(*args)
    except BudgetError as exc:
        raise BudgetError(f"--{flag} {value}: {exc}") from None


def parse_edges(token: str, n_sites: int) -> CouplingGraph:
    """Coupling graph from compact 'i-j:J,i-j:J' edge syntax."""
    edges = []
    for item in str(token).split(","):
        item = item.strip()
        if not item:
            continue
        m = re.match(r"^(\d+)-(\d+):([^:]+)$", item)
        if not m:
            raise ConfigError(f"invalid edge {item!r}: expected i-j:J")
        try:
            edges.append((int(m.group(1)), int(m.group(2)), float(m.group(3))))
        except ValueError:
            raise ConfigError(f"invalid edge {item!r}: bad coupling value") from None
    try:
        return CouplingGraph(n_sites, tuple(edges))
    except ValueError as exc:
        raise ConfigError(f"invalid edges: {exc}") from None


# ---------------------------------------------------------------------------
# Parameter registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    name: str
    kind: str                  # float | int | str | angle | choice
    default: Any = None
    help: str = ""
    # the table that owns the names; a dict offers its keys
    choices: tuple[str, ...] | dict[str, Any] = ()
    aliases: tuple[str, ...] = ()

    def parse(self, raw: Any):
        if raw is None:
            return None
        try:
            if self.kind == "float":
                return float(raw)
            if self.kind == "int":
                return int(str(raw), 10)
            if self.kind == "angle":
                return parse_angle(raw)
            if self.kind == "choice":
                val = str(raw)
                if val not in self.choices:
                    raise ConfigError(
                        f"--{self.name}: expected one of {', '.join(self.choices)}, got {val!r}")
                return val
            return str(raw)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"--{self.name}: expected {self.kind}, got {raw!r}") from None


COMMON = (
    Param("out", "str", None, "output file path (default <command>.<format>)"),
    Param("format", "choice", None, "artifact format", ("csv", "json")),
    Param("config", "str", None, "optional config file"),
)


@dataclass
class RunConfig:
    command: str
    params: dict[str, Any]
    output_path: str
    fmt: str


# ---------------------------------------------------------------------------
# Config file and flag merging
# ---------------------------------------------------------------------------

def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Sections of key = value pairs; keys outside sections land in ''."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in COMMANDS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        sections[current][key.strip().replace("-", "_").lower()] = value.strip()
    return sections


def parse_config(argv: list[str]) -> RunConfig:
    """Flags plus optional config file, flags winning; unknown keys rejected."""
    parser = _ArgumentParser(
        prog="trispin",
        description="Exact-diagonalization toolkit for triangle-encoded "
                    "exchange-only spin qubits.")
    sub = parser.add_subparsers(dest="command", required=True)
    known = set()
    for name, meta in COMMANDS.items():
        p = sub.add_parser(name, help=meta["help"])
        if argv[:1] != [name]:  # only the named command's flags are parsed
            continue
        for param in meta["params"] + COMMON:
            flags = [f"--{param.name}"] + [f"--{a}" for a in param.aliases]
            p.add_argument(*flags, dest=param.name.replace("-", "_"),
                           default=None, help=param.help, metavar=param.kind.upper())
            known.update(flags)
    # Every flag takes one value, so the token after a flag is its value even
    # when it starts with "-", as -pi/4 and -1e-3 do, which argparse would read
    # as an option: "--flag -v" goes to argparse as "--flag=-v".  "-h" and
    # tokens starting with "--" stay flags.
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in known and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    ns = parser.parse_args(joined)
    command = ns.command
    registry = {p.name.replace("-", "_"): p for p in COMMANDS[command]["params"] + COMMON}

    merged: dict[str, Any] = {key: p.parse(p.default) for key, p in registry.items()}
    config_path = getattr(ns, "config", None)
    if config_path:
        sections = read_config_file(config_path)
        for scope in ("", command):
            for key, value in sections.get(scope, {}).items():
                if key not in registry:
                    raise ConfigError(f"unknown config key {key!r} for command {command}")
                merged[key] = registry[key].parse(value)
    for key, param in registry.items():
        raw = getattr(ns, key, None)
        if raw is not None:
            merged[key] = param.parse(raw)

    formats = COMMANDS[command]["formats"]
    fmt = merged.pop("format") or formats[0]
    if fmt not in formats:
        raise ConfigError(f"--format: {command} writes {', '.join(formats)}, got {fmt!r}")
    out = merged.pop("out") or f"{command}.{fmt}"
    merged.pop("config", None)
    return RunConfig(command, merged, out, fmt)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def write_csv(path: str, header: list[str], table) -> None:
    """Write the 2-D float64 ``table`` under ``header``, each cell to 17 significant digits.

    A NaN or an infinity raises ``FloatingPointError`` before the file opens.
    """
    table = np.asarray(table, dtype=np.float64)
    finite = np.isfinite(table)
    if not finite.all():
        raise FloatingPointError(f"non-finite value {table[~finite][0]} in the artifact")
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [row % tuple(r) for r in table.tolist()]
    _write_text(path, "\n".join(lines) + "\n")


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)`` for an artifact value whose line is indented by ``pad``.

    An artifact holds dicts with str keys, lists, tuples, str, bool, int,
    None, finite floats (``np.float64`` among them) and float64 arrays of one
    or more dimensions, whose rows are joined from ``float.__repr__``, as the
    json encoder writes each element.  A NaN or an infinity, which strict JSON
    cannot hold, raises ``FloatingPointError`` and any other value ``TypeError``,
    before ``write_json`` opens the file.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FloatingPointError("non-finite value in the artifact")
        return float.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or not obj.ndim:
            raise TypeError(f"a {obj.ndim}-d {obj.dtype} array is not an artifact value")
        if not len(obj):
            return "[]"
        if obj.ndim > 1:
            items = (_json_text(row, inner) for row in obj)
        elif np.isfinite(obj).all():
            items = map(float.__repr__, obj.tolist())
        else:
            raise FloatingPointError("non-finite value in the artifact")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (_json_text(v, inner) for v in obj)
    elif isinstance(obj, dict):
        if not obj:
            return "{}"
        # encode_basestring_ascii raises TypeError for a key that is not a str
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
    else:
        raise TypeError(f"a {type(obj).__name__} is not an artifact value")
    return "[\n" + inner + sep.join(items) + "\n" + pad + "]"


def write_json(path: str, payload: dict) -> None:
    """Write ``{"schema": 1, **payload}`` as indented JSON, encoded before the file opens."""
    _write_text(path, _json_text({"schema": 1, **payload}) + "\n")


def _sweep_artifacts(result: spectra.SweepResult, extra: dict) -> dict:
    dim = result.spectra.shape[1]
    header = [result.parameter_name] + [f"e{k + 1}" for k in range(dim)] + ["gap"]
    table = np.column_stack((result.grid, result.spectra, result.gap))
    return {"csv": (header, table), "json": {
        "parameter": result.parameter_name,
        "grid": result.grid,
        "spectra": result.spectra,
        "gap": result.gap,
        "sz_labels": result.sz_labels,
        "logical": result.logical,
        **extra,
    }}


# ---------------------------------------------------------------------------
# Command implementations: parameters -> ({format: artifact}, summary), with a
# CSV artifact as (header, table) and a JSON one as its payload
# ---------------------------------------------------------------------------

def _run_spectrum(p: dict) -> tuple[dict, str]:
    _within("n-sites", p["n_sites"], hamiltonian.MAX_SITES.check, p["n_sites"])
    # the triangle's couplings, as given; the unset ones keep single_lq_graph's 1
    triangle = {k: p[k] for k in ("j12", "j13", "j23") if p[k] is not None}
    if p["edges"] is not None:
        if triangle:
            flags = ", ".join(f"--{k}" for k in triangle)
            raise ConfigError(f"{flags}: a triangle coupling cannot go with --edges, "
                              "which gives every coupling")
        parsed = parse_edges(p["edges"], p["n_sites"])
        graph = CouplingGraph(parsed.n_sites, parsed.edges, p["h"])
    elif p["n_sites"] != 3:
        raise ConfigError(f"--n-sites {p['n_sites']}: a register other than the "
                          "3-site triangle needs --edges")
    else:
        graph = single_lq_graph(**triangle, h=p["h"])
    vals, sz = sector_spectrum(graph)
    degeneracy = int(np.sum(np.abs(vals - vals[0]) <= degeneracy_tol(vals)))
    gap = float(vals[degeneracy] - vals[0]) if degeneracy < len(vals) else 0.0
    artifacts = {
        "csv": (["level", "energy", "sz"], np.column_stack((np.arange(len(vals)), vals, sz))),
        "json": {
            "edges": [[i, j, jij] for (i, j, jij) in graph.edges],
            "field_h": graph.field_h,
            "energies": vals, "sz": sz,
            "ground_degeneracy": degeneracy, "gap": gap,
            "sector_sizes": {str(graph.n_sites / 2 - k): math.comb(graph.n_sites, k)
                             for k in range(graph.n_sites + 1)},
        },
    }
    return artifacts, (f"ground energy {fmt_float(vals[0])} (degeneracy {degeneracy}), "
                       f"gap {fmt_float(gap)}")


def _run_sweep_field(p: dict) -> tuple[dict, str]:
    _within("points", p["points"], encoding.MAX_GRID_POINTS.check, p["points"])
    result = spectra.sweep_field(p["min"], p["max"], p["points"])
    h_star = spectra.optimal_field(p["min"], p["max"])
    return (_sweep_artifacts(result, {"h_star": h_star}),
            f"gap maximized at h* = {fmt_float(h_star)}")


def _run_sweep_intra(p: dict) -> tuple[dict, str]:
    _within("points", p["points"], encoding.MAX_GRID_POINTS.check, p["points"])
    result, crossings = spectra.sweep_intra(p["which"], p["min"], p["max"],
                                            p["points"], h=p["h"])
    pts = ", ".join(fmt_float(c) for c in crossings.crossings) or "none"
    return (_sweep_artifacts(result, {"crossings": list(crossings.crossings)}),
            f"level crossings of {p['which']} at: {pts}")


def _run_sweep_inter(p: dict) -> tuple[dict, str]:
    _within("points", p["points"], encoding.MAX_GRID_POINTS.check, p["points"])
    result, crossings = spectra.sweep_inter(p["min"], p["max"], p["points"], h=p["h"])
    pts = ", ".join(fmt_float(c) for c in crossings.crossings) or "none in range"
    return (_sweep_artifacts(result, {"crossings": list(crossings.crossings)}),
            f"logical gap closes at j14 = {pts}")


def _run_lambdas(p: dict) -> tuple[dict, str]:
    grid = _within("points", p["points"], encoding.uniform_grid, p["min"], p["max"], p["points"])
    header = ["j14", "lambda00", "lambda01", "lambda11", "entangling"]
    table = np.array([[t.j14, t.lambda_00, t.lambda_01, t.lambda_11, t.entangling_rate]
                      for t in encoding.lambda_triples(grid, h=p["h"])])
    artifacts = {"csv": (header, table),
                 "json": {"grid": grid, **dict(zip(header[1:], table[:, 1:].T))}}
    last = table[-1]
    return artifacts, (f"at j14 = {fmt_float(last[0])}: lambda00 = {fmt_float(last[1])}, "
                       f"lambda01 = {fmt_float(last[2])}, lambda11 = {fmt_float(last[3])}")


def _run_verify(p: dict) -> tuple[dict, str]:
    grid = _within("points", p["points"], encoding.uniform_grid, p["min"], p["max"], p["points"])
    report = encoding.verify_lambda_polynomials(grid, h=p["h"])
    summary = {
        "max_cubic_residual_on_11": max(r["cubic_residual_on_11"] for r in report),
        "min_cubic_residual_on_01": min(r["cubic_residual_on_01"] for r in report),
        "max_corrected_line_residual": max(r["line_corrected_residual"] for r in report),
        "max_corrected_quadratic_residual_on_01": max(
            r["quadratic_corrected_residual_on_01"] for r in report),
        "min_line_residual": min(r["line_residual"] for r in report),
        "quadratic_real_anywhere": any(r["quadratic_has_real_roots"] for r in report),
    }
    return ({"json": {"points": report, **summary}},
            f"cubic residual on the 1/36-slope branch <= "
            f"{fmt_float(summary['max_cubic_residual_on_11'])}; reference linear "
            f"relation off by >= {fmt_float(summary['min_line_residual'])}")


def _parse_ramp_times(token: str) -> list[float]:
    try:
        times = [float(t) for t in str(token).split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--ramp-times: bad list {token!r}") from None
    if not times or not all(np.isfinite(t) and t > 0 for t in times):
        raise ConfigError("--ramp-times: need positive finite durations")
    return times


def _su2(p: dict):
    if not p["euler"]:
        raise ConfigError("--euler is required for su2 gates")
    toks = [t for t in p["euler"].split(",") if t.strip()]
    if len(toks) != 3:
        raise ConfigError("--euler: expected three angle tokens z,x,z")
    a, b, c = (parse_angle(t) for t in toks)
    target = gates.rz_gate(a) @ gates.rx_gate(b) @ gates.rz_gate(c)
    return gates.decompose_su2(target, h=p["h"]), target


# gate kind -> (parameters -> (schedule, target), scorer).  The entries look
# the synthesis functions up on the gates module when they run, so a wrapper
# bound there (as perfbench/traced_cli.py binds its spans) is what runs.
GATES: dict[str, tuple[Callable[[dict], tuple], Callable]] = {
    "rz": (lambda p: (gates.synthesize_rz(p["theta"], p["delta"], h=p["h"]),
                      gates.rz_gate(p["theta"])), gates.single_lq_report),
    "rx": (lambda p: (gates.synthesize_rx(p["theta"], p["delta"], h=p["h"]),
                      gates.rx_gate(p["theta"])), gates.single_lq_report),
    "axis120": (lambda p: (gates.synthesize_axis120(p["theta"], p["delta"],
                                                    which=p["which"], h=p["h"]),
                           gates.axis120_gate(p["theta"], p["which"])),
                gates.single_lq_report),
    "su2": (_su2, gates.single_lq_report),
    "cphase": (lambda p: (gates.synthesize_cphase(
                   p["phi"], p["j14"], p["ramp_time"],
                   n_calibration_steps=p["cal_steps"], h=p["h"], mode=p["mode"],
                   ramp_shape=p["ramp_shape"]),
               gates.cphase_gate(p["phi"])), gates.two_lq_report),
}


def _run_gate(p: dict) -> tuple[dict, str]:
    kind = p["type"]
    if kind == "cphase":
        _within("cal-steps", p["cal_steps"], gates.MAX_CALIBRATION_NODES.check, p["cal_steps"])
        _within("steps-per-unit", p["steps_per_unit"], gates.check_cphase_ramp,
                p["ramp_time"], p["steps_per_unit"])
    build, score = GATES[kind]
    schedule, target = build(p)
    report = score(schedule, target, p["steps_per_unit"])
    payload = {
        "type": kind,
        "fidelity": report.fidelity,
        "max_leakage": report.max_leakage,
        "avg_leakage": report.avg_leakage,
        "conditional_phase": report.conditional_phase,
        "logical_unitary_re": np.real(report.logical_unitary),
        "logical_unitary_im": np.imag(report.logical_unitary),
        "schedule": schedule.to_dict(),
    }
    return {"json": payload}, (f"{kind}: fidelity {fmt_float(report.fidelity)}, "
                               f"max leakage {fmt_float(report.max_leakage)}")


def _run_adiabatic(p: dict) -> tuple[dict, str]:
    times = _parse_ramp_times(p["ramp_times"])
    _within("ramp-times", f"({len(times)} given)", spectra.MAX_RAMP_TIMES.check, len(times))
    _within("cal-steps", p["cal_steps"], gates.MAX_CALIBRATION_NODES.check, p["cal_steps"])
    _within("steps-per-unit", p["steps_per_unit"], gates.check_cphase_ramp,
            max(times), p["steps_per_unit"])
    rows = spectra.adiabatic_leakage_curve(
        p["phi"], p["j14"], times, n_calibration_steps=p["cal_steps"],
        steps_per_unit_time=p["steps_per_unit"], h=p["h"],
        ramp_shape=p["ramp_shape"])
    artifacts = {
        "csv": (["ramp_time", "max_leakage", "fidelity"],
                np.array([[r.ramp_time, r.max_leakage, r.fidelity] for r in rows])),
        "json": {"rows": [
            {"ramp_time": r.ramp_time, "max_leakage": r.max_leakage,
             "fidelity": r.fidelity, "conditional_phase": r.conditional_phase}
            for r in rows]},
    }
    last = rows[-1]
    return artifacts, (f"ramp {fmt_float(last.ramp_time)}: leakage "
                       f"{fmt_float(last.max_leakage)}, fidelity {fmt_float(last.fidelity)}")


def _run_units(p: dict) -> tuple[dict, str]:
    units = spectra.to_physical(p["j"], p["g"], p["h"])
    payload = {
        "j_microev": units.j_microev, "g_factor": units.g_factor,
        "h": p["h"], "b_tesla": units.b_tesla, "gap_microev": units.gap_microev,
    }
    return {"json": payload}, (f"B = {fmt_float(units.b_tesla)} T, "
                               f"gap = {fmt_float(units.gap_microev)} microeV")


# the parameters of lambdas and verify-eq7: a j14 grid and the field
J14_GRID = (
    Param("min", "float", 0.0), Param("max", "float", 0.7),
    Param("points", "int", 71), Param("h", "float", hamiltonian.IDLE_FIELD),
)
# command -> help, runner, the formats it writes (the first is the default)
# and its parameters
COMMANDS: dict[str, dict] = {
    "spectrum": {
        "help": "eigenvalues of one coupling graph (default: idle triangle)",
        "run": _run_spectrum,
        "formats": ("json", "csv"),
        "params": (
            Param("j12", "float", None, "triangle coupling (default 1); not with --edges"),
            Param("j13", "float", None, "triangle coupling (default 1); not with --edges"),
            Param("j23", "float", None, "triangle coupling (default 1); not with --edges"),
            Param("h", "float", hamiltonian.IDLE_FIELD),
            Param("n-sites", "int", 3, "register size; other than 3 only with --edges"),
            Param("edges", "str", None, "general graph as i-j:J,i-j:J"),
        ),
    },
    "sweep-field": {
        "help": "idle spectrum and gap vs Zeeman field",
        "run": _run_sweep_field,
        "formats": ("csv", "json"),
        "params": (
            Param("min", "float", 0.0), Param("max", "float", 1.5),
            Param("points", "int", 301),
        ),
    },
    "sweep-intra": {
        "help": "spectrum vs one intra-triple coupling, with level crossings",
        "run": _run_sweep_intra,
        "formats": ("csv", "json"),
        "params": (
            Param("which", "choice", "j23", "coupling to vary", spectra.INTRA_COUPLINGS),
            Param("min", "float", 0.1), Param("max", "float", 1.9),
            Param("points", "int", 301), Param("h", "float", hamiltonian.IDLE_FIELD),
        ),
    },
    "sweep-inter": {
        "help": "two-LQ spectrum vs the inter-triple coupling",
        "run": _run_sweep_inter,
        "formats": ("csv", "json"),
        "params": (
            Param("min", "float", 0.0), Param("max", "float", 0.85),
            Param("points", "int", 301), Param("h", "float", hamiltonian.IDLE_FIELD),
        ),
    },
    "lambdas": {
        "help": "tracked logical quartet eigenvalues vs the inter-triple coupling",
        "run": _run_lambdas,
        "formats": ("csv", "json"),
        "params": J14_GRID,
    },
    "verify-eq7": {
        "help": "residuals of the reference eigenvalue polynomials",
        "run": _run_verify,
        "formats": ("json",),
        "params": J14_GRID,
    },
    "gate": {
        "help": "synthesize a gate schedule, propagate it, and score it",
        "run": _run_gate,
        "formats": ("json",),
        "params": (
            Param("type", "choice", "rz", "gate kind", GATES),
            Param("theta", "angle", "pi/2", "rotation angle"),
            Param("delta", "float", 0.25, "coupling excursion magnitude"),
            Param("which", "choice", "j12", "axis120 coupling", gates.AXIS120),
            Param("euler", "str", None, "su2 target as z,x,z angle tokens"),
            Param("phi", "angle", "pi", "conditional phase"),
            Param("j14", "float", 0.5, "peak inter-triple coupling"),
            Param("ramp-time", "float", 20.0),
            Param("cal-steps", "int", gates.CALIBRATION_NODES,
                  "calibration quadrature nodes per ramp"),
            Param("mode", "choice", "simultaneous", "z cancellation mode", gates.CPHASE_MODES),
            Param("ramp-shape", "choice", "smooth", "pulse ramp profile", gates.RAMP_PROFILES),
            Param("steps-per-unit", "float", gates.STEPS_PER_UNIT_TIME,
                  "propagation steps per 1/J of ramp"),
            Param("h", "float", hamiltonian.IDLE_FIELD),
        ),
    },
    "adiabatic": {
        "help": "conditional-phase leakage and fidelity vs ramp duration",
        "run": _run_adiabatic,
        "formats": ("csv", "json"),
        "params": (
            Param("phi", "angle", "pi"), Param("j14", "float", 0.5),
            Param("ramp-times", "str", "5,10,20,40"),
            Param("cal-steps", "int", gates.CALIBRATION_NODES),
            Param("ramp-shape", "choice", "smooth", "pulse ramp profile", gates.RAMP_PROFILES),
            Param("steps-per-unit", "float", gates.STEPS_PER_UNIT_TIME,
                  "propagation steps per 1/J of ramp"),
            Param("h", "float", hamiltonian.IDLE_FIELD),
        ),
    },
    "units": {
        "help": "magnetic field and gap in laboratory units",
        "run": _run_units,
        "formats": ("json",),
        "params": (
            Param("j", "float", 7.0, "exchange scale in microeV", aliases=("J",)),
            Param("g", "float", 0.44, "g-factor magnitude"),
            Param("h", "float", hamiltonian.IDLE_FIELD),
        ),
    },
}


def run(cfg: RunConfig) -> int:
    # an overflow or an invalid operation is a numerical failure, not a warning
    # beside an artifact of infinities
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        artifacts, summary = COMMANDS[cfg.command]["run"](cfg.params)
        if cfg.fmt == "csv":
            write_csv(cfg.output_path, *artifacts["csv"])
        else:
            write_json(cfg.output_path, artifacts["json"])
    print(summary)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        return run(cfg)
    # before ValueError: a BudgetError is one
    except (ConfigError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # before ValueError: numpy's LinAlgError is one
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
