import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trispin
from trispin import cli, gates, hamiltonian

from test_properties import PROPERTY_SETTINGS

# Directory holding the trispin package this test process imported. The child
# runs in a temporary directory, where a relative PYTHONPATH would not resolve.
PACKAGE_ROOT = str(Path(trispin.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "trispin", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


@pytest.fixture
def run_main(tmp_path, monkeypatch, capsys):
    """``run_cli`` in this process: ``cli.main`` in ``tmp_path``, the same result fields.

    Warnings are errors here, as the test settings make them, where a child
    would only print them.
    """
    monkeypatch.chdir(tmp_path)

    def call(args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)
    return call


class TestSweepCommands:
    def test_sweep_field_csv(self, tmp_path):
        res = run_cli(["sweep-field", "--points", "41", "--out", "sf.csv"], tmp_path)
        assert res.returncode == 0
        h_star = float(res.stdout.split("h* =")[1])
        assert abs(h_star - 0.75) <= 1e-6
        lines = (tmp_path / "sf.csv").read_text().splitlines()
        assert lines[0] == "h,e1,e2,e3,e4,e5,e6,e7,e8,gap"
        assert len(lines) == 42
        row = lines[1].split(",")
        assert len(row) == 10
        float(row[0])  # parseable

    def test_h_star_of_a_range_past_the_window(self, run_main):
        # above h = 3/2 the signed gap is negative, so h* stays at 3/4
        res = run_main(["sweep-field", "--min", "0", "--max", "4", "--out", "sf.csv"])
        assert res.returncode == 0
        assert abs(float(res.stdout.split("h* =")[1]) - 0.75) <= 1e-6

    def test_sweep_intra_summary(self, run_main):
        res = run_main(["sweep-intra", "--which", "j23", "--points", "61",
                        "--out", "si.csv"])
        assert res.returncode == 0
        assert "0.25" in res.stdout and "1.75" in res.stdout

    def test_lambdas_csv(self, run_main, tmp_path):
        res = run_main(["lambdas", "--points", "8", "--max", "0.35",
                        "--out", "lam.csv"])
        assert res.returncode == 0
        lines = (tmp_path / "lam.csv").read_text().splitlines()
        assert lines[0] == "j14,lambda00,lambda01,lambda11,entangling"
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[1] - (-9 / 4 + last[0] / 4)) < 1e-9

    def test_deterministic_output(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            assert run_cli(["sweep-intra", "--points", "31", "--out", name],
                           tmp_path).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_workers_match_serial(self, run_main, tmp_path):
        assert run_main(["sweep-field", "--points", "21", "--out", "s1.csv"]).returncode == 0
        assert run_main(["sweep-field", "--points", "21", "--workers", "2",
                         "--out", "s2.csv"]).returncode == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


class TestSpectrumCommand:
    def test_idle_json(self, run_main, tmp_path):
        res = run_main(["spectrum", "--out", "spec.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "spec.json").read_text())
        assert data["schema"] == 1
        assert data["ground_degeneracy"] == 2
        assert abs(data["gap"] - 0.75) < 1e-12
        assert abs(data["energies"][0] + 9 / 8) < 1e-12

    def test_general_edges(self, run_main, tmp_path):
        res = run_main(["spectrum", "--edges", "0-1:1.0,0-2:1.0,1-2:1.0",
                        "--n-sites", "3", "--h", "0.75", "--out", "g.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "g.json").read_text())
        assert abs(data["energies"][0] + 9 / 8) < 1e-12

    def test_edgeless_graph(self, run_main, tmp_path):
        res = run_main(["spectrum", "--n-sites", "2", "--edges", "", "--h", "0.5",
                        "--out", "e.json"])
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "e.json").read_text())
        assert data["edges"] == []
        assert data["energies"] == [-0.5, 0.0, 0.0, 0.5]
        assert data["sz"] == [1.0, 0.0, 0.0, -1.0]

    @pytest.mark.parametrize("n_sites", ["0", "1", "4"])
    def test_n_sites_without_edges_is_rejected(self, run_main, tmp_path, n_sites):
        res = run_main(["spectrum", "--n-sites", n_sites, "--out", "s.json"])
        assert res.returncode == 2
        assert "--edges" in res.stderr
        assert not (tmp_path / "s.json").exists()

    def test_oversized_register_is_rejected_before_any_operator(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_operators(*args, **kwargs):
            raise AssertionError("operators built for an oversized register")

        monkeypatch.setattr(hamiltonian.SectorOperators, "__init__", no_operators)
        monkeypatch.setattr(hamiltonian, "sz_sectors", no_operators)
        monkeypatch.setattr(cli, "sz_sectors", no_operators)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n-sites", "11", "--edges", "0-1:1",
                         "--out", "s.json"]) == cli.EXIT_CONFIG
        assert "--n-sites 11: at most 10 sites" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_largest_register_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n-sites", "10", "--edges", "0-1:1",
                         "--out", "s.json"]) == cli.EXIT_OK
        assert len(json.loads((tmp_path / "s.json").read_text())["energies"]) == 2**10


class TestVerifyCommand:
    def test_report(self, run_main, tmp_path):
        res = run_main(["verify-eq7", "--grid", "0:0.5:6", "--out", "v.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "v.json").read_text())
        assert data["max_cubic_residual_on_11"] <= 1e-9
        assert data["min_line_residual"] > 5.9
        assert data["max_corrected_line_residual"] <= 1e-10
        assert data["max_corrected_quadratic_residual_on_01"] <= 1e-12
        assert data["quadratic_real_anywhere"] is False
        assert len(data["points"]) == 6

    def test_bad_grid(self, run_main):
        res = run_main(["verify-eq7", "--grid", "0-0.5-6"])
        assert res.returncode == 2
        assert "grid" in res.stderr


class TestGateCommand:
    def test_rz_with_pi_token(self, run_main, tmp_path):
        res = run_main(["gate", "--type", "rz", "--theta", "pi/2",
                        "--delta", "0.5", "--out", "rz.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "rz.json").read_text())
        assert data["fidelity"] >= 1 - 1e-9
        assert data["max_leakage"] <= 1e-10
        assert data["schedule"]["segments"][0]["ramp"] == "constant"

    def test_artifact_schedule_rebuilds_the_synthesized_one(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cases = [(["--type", "rz", "--theta", "pi/2", "--delta", "0.5"],
                  gates.synthesize_rz(np.pi / 2, 0.5)),
                 (["--type", "cphase", "--phi", "pi", "--j14", "0.5", "--ramp-time", "20"],
                  gates.synthesize_cphase(np.pi, 0.5, 20.0))]
        for args, synthesized in cases:
            assert cli.main(["gate", *args, "--out", "g.json"]) == cli.EXIT_OK
            data = json.loads((tmp_path / "g.json").read_text())["schedule"]
            assert gates.PulseSchedule.from_dict(data) == synthesized

    def test_cphase_precondition_exit_code(self, run_main):
        res = run_main(["gate", "--type", "cphase", "--phi", "pi", "--j14", "0.9"])
        assert res.returncode == 3
        assert "gapped window" in res.stderr

    def test_bad_angle_exit_code(self, tmp_path):
        res = run_cli(["gate", "--type", "rz", "--theta", "halfpi"], tmp_path)
        assert res.returncode == 2

    def test_su2_requires_euler(self, run_main):
        res = run_main(["gate", "--type", "su2"])
        assert res.returncode == 2
        assert "euler" in res.stderr

    def test_type_choices_are_the_gate_table(self):
        (kind,) = [p for p in cli.COMMANDS["gate"]["params"] if p.name == "type"]
        assert list(kind.choices) == list(cli.GATES)

    @pytest.mark.parametrize("kind", list(cli.GATES))
    def test_each_kind_runs(self, run_main, tmp_path, kind):
        args = {"rz": [], "rx": [], "axis120": ["--which", "j13"],
                "su2": ["--euler", "pi/2,-pi/3,0.2"],
                "cphase": ["--j14", "0.3", "--ramp-time", "4", "--cal-steps", "40",
                           "--steps-per-unit", "20"]}[kind]
        res = run_main(["gate", "--type", kind, *args, "--out", "g.json"])
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith(f"{kind}: fidelity ")
        data = json.loads((tmp_path / "g.json").read_text())
        assert data["type"] == kind and data["fidelity"] >= 0.99

    def test_angle_defaults_are_parsed(self, run_main, tmp_path):
        # defaults declared as pi tokens must go through the angle parser
        res = run_main(["gate", "--out", "d.json"])  # rz, theta pi/2
        assert res.returncode == 0
        data = json.loads((tmp_path / "d.json").read_text())
        assert data["fidelity"] >= 1 - 1e-9


class TestAdiabaticCommand:
    def test_short_curve(self, run_main, tmp_path):
        res = run_main(["adiabatic", "--ramp-times", "2,4", "--j14", "0.3",
                        "--cal-steps", "40", "--out", "ad.csv"])
        assert res.returncode == 0
        lines = (tmp_path / "ad.csv").read_text().splitlines()
        assert lines[0] == "ramp_time,max_leakage,fidelity"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert len(rows) == 2
        assert rows[1][1] <= rows[0][1] + 1e-10


class TestUnitsCommand:
    def test_reference_point(self, run_main, tmp_path):
        res = run_main(["units", "--J", "7", "--g", "0.44", "--out", "u.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "u.json").read_text())
        assert 0.19 <= data["b_tesla"] <= 0.22
        assert abs(data["gap_microev"] - 5.25) < 1e-9

    def test_gap_is_negative_above_the_window(self, run_main, tmp_path):
        # at h = 2 the m = 3/2 level lies 1/2 J below the logical doublet
        res = run_main(["units", "--J", "7", "--g", "0.44", "--h", "2", "--out", "u.json"])
        assert res.returncode == 0
        assert res.stdout.endswith("gap = -3.5 microeV\n")
        assert json.loads((tmp_path / "u.json").read_text())["gap_microev"] == -3.5

    def test_lowercase_alias(self, run_main):
        res = run_main(["units", "--j", "7", "--g", "0.44", "--out", "u2.json"])
        assert res.returncode == 0

    @pytest.mark.parametrize("flag", ["--j", "--g", "--h"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_is_rejected(self, run_main, tmp_path, flag, value):
        res = run_main(["units", flag, value, "--out", "u.json"])
        assert res.returncode == 3
        assert res.stderr == ("precondition violated: exchange scale, g-factor and "
                              "field must be finite\n")
        assert not (tmp_path / "u.json").exists()


class TestConfigFile:
    def test_flag_overrides_config(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[units]\nh = 0.75\nj = 7\ng = 0.44\n")
        res = run_main(["units", "--config", "run.cfg", "--h", "0.6",
                        "--out", "u.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "u.json").read_text())
        assert abs(data["gap_microev"] - 0.6 * 7) < 1e-9

    def test_config_value_used_without_flag(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[units]\nh = 0.5\n")
        res = run_main(["units", "--config", "run.cfg", "--out", "u.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "u.json").read_text())
        assert abs(data["gap_microev"] - 0.5 * 7) < 1e-9

    def test_unknown_key_rejected(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[units]\nfrequency = 3\n")
        res = run_main(["units", "--config", "run.cfg"])
        assert res.returncode == 2
        assert "frequency" in res.stderr

    def test_malformed_line_reports_number(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[units]\nh 0.5\n")
        res = run_main(["units", "--config", "run.cfg"])
        assert res.returncode == 2
        assert ":2:" in res.stderr

    def test_config_format_is_checked(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[units]\nformat = csv\n")
        res = run_main(["units", "--config", "run.cfg"])
        assert res.returncode == 2
        assert res.stderr == "error: --format: units writes json, got 'csv'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_unknown_section_rejected(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[uints]\nh = 0.5\n")
        res = run_main(["units", "--config", "run.cfg"])
        assert res.returncode == 2
        assert "uints" in res.stderr


# small runs of every command
QUICK_ARGS = {
    "spectrum": [], "sweep-field": ["--points", "5"], "sweep-intra": ["--points", "5"],
    "sweep-inter": ["--points", "5"], "lambdas": ["--points", "3"],
    "verify-eq7": ["--grid", "0:0.5:3"], "gate": [],
    "adiabatic": ["--j14", "0.3", "--ramp-times", "2", "--cal-steps", "40",
                  "--steps-per-unit", "20"],
    "units": [],
}
WRITTEN = [(c, f) for c, meta in cli.COMMANDS.items() for f in meta["formats"]]
UNWRITTEN = [(c, f) for c, meta in cli.COMMANDS.items() for f in ("csv", "json")
             if f not in meta["formats"]]


class TestFormats:
    @pytest.mark.parametrize("command, fmt", WRITTEN)
    def test_listed_format_is_written(self, run_main, tmp_path, command, fmt):
        is_default = fmt == cli.COMMANDS[command]["formats"][0]
        flags = [] if is_default else ["--format", fmt]
        res = run_main([command, *QUICK_ARGS[command], *flags])
        assert res.returncode == 0, res.stderr
        assert [p.name for p in tmp_path.iterdir()] == [f"{command}.{fmt}"]
        text = (tmp_path / f"{command}.{fmt}").read_text()
        if fmt == "json":
            assert json.loads(text)["schema"] == 1
        else:
            header, *rows = csv.reader(text.splitlines())
            assert rows and all(len(row) == len(header) for row in rows)
            assert all(np.isfinite([float(v) for v in row]).all() for row in rows)

    @pytest.mark.parametrize("command, fmt", UNWRITTEN)
    def test_unlisted_format_is_rejected_before_running(self, run_main, tmp_path,
                                                        monkeypatch, command, fmt):
        def no_run(params):
            raise AssertionError("ran a command whose format is rejected")

        monkeypatch.setitem(cli.COMMANDS[command], "run", no_run)
        res = run_main([command, "--format", fmt])
        assert res.returncode == 2
        assert res.stderr == f"error: --format: {command} writes json, got '{fmt}'\n"
        assert not any(tmp_path.iterdir())

    def test_every_command_has_quick_args(self):
        assert QUICK_ARGS.keys() == cli.COMMANDS.keys()
        assert UNWRITTEN


class TestRejectedValues:
    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_lambdas_needs_a_point(self, run_main, tmp_path, points):
        res = run_main(["lambdas", "--points", points, "--out", "lam.csv"])
        assert res.returncode == 2
        assert "--points" in res.stderr and "Traceback" not in res.stderr
        assert not (tmp_path / "lam.csv").exists()

    @pytest.mark.parametrize("command", [
        ["gate", "--type", "rz"],
        ["adiabatic", "--j14", "0", "--ramp-times", "1"],
    ])
    @pytest.mark.parametrize("rate", ["0", "-3", "inf", "nan"])
    def test_steps_per_unit_must_be_finite_and_positive(self, tmp_path, capsys, monkeypatch,
                                                        command, rate):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*command, "--steps-per-unit", rate, "--out", "x.out"]) == 3
        assert "steps per unit time" in capsys.readouterr().err
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("times", ["nan", "inf", "4,inf", "-inf", "0", "4,-1"])
    def test_ramp_times_must_be_finite_and_positive(self, tmp_path, capsys, monkeypatch, times):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["adiabatic", f"--ramp-times={times}", "--out", "x.csv"]) == 2
        assert "--ramp-times" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    @pytest.mark.parametrize("command", [
        ["gate", "--type", "cphase", "--phi", "inf"],
        ["gate", "--type", "cphase", "--phi", "nan", "--mode", "sequential"],
        ["gate", "--type", "rz", "--theta", "inf"],
        ["gate", "--type", "rx", "--theta=-inf"],
        ["gate", "--type", "su2", "--euler", "0,nan,pi/2"],
    ])
    def test_angles_must_be_finite(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*command, "--out", "g.json"]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "9" * 400 + "pi"])
    def test_parse_angle_rejects_non_finite_values(self, token):
        with pytest.raises(cli.ConfigError, match="must be finite"):
            cli.parse_angle(token)


class TestSweepBounds:
    @pytest.mark.parametrize("command", [
        ["sweep-field", "--max", "inf"],
        ["sweep-field", "--min", "nan"],
        ["sweep-intra", "--min=-inf"],
        ["sweep-inter", "--max", "inf"],
    ])
    def test_bounds_must_be_finite(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*command, "--out", "s.csv"]) == 3
        assert "sweep bounds must be finite" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_infinite_field_bound_prints_one_line(self, tmp_path):
        res = run_cli(["sweep-field", "--max", "inf", "--out", "sf.csv"], tmp_path)
        assert res.returncode == 3
        assert res.stderr == "precondition violated: sweep bounds must be finite\n"
        assert not (tmp_path / "sf.csv").exists()

    @staticmethod
    def forbid_eigensolves(monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve before the bounds were checked")

        for name in ("eigh", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, no_solve)

    def test_reversed_inter_bounds_fail_before_any_eigensolve(self, tmp_path, capsys,
                                                              monkeypatch):
        self.forbid_eigensolves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep-inter", "--min", "0.5", "--max", "0.1", "--out", "s.csv"]) == 3
        assert "lower bound below its upper bound" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", [
        ["lambdas", "--max", "inf"],
        ["lambdas", "--min", "nan"],
        ["verify-eq7", "--grid", "nan:0.5:3"],
    ])
    def test_non_finite_j14_grid_fails_before_any_eigensolve(self, run_main, tmp_path,
                                                             monkeypatch, command):
        self.forbid_eigensolves(monkeypatch)
        res = run_main([*command, "--out", "x.out"])
        assert res.returncode == 3
        assert res.stderr == "precondition violated: j14 grid and j23 shift must be finite\n"
        assert not (tmp_path / "x.out").exists()

    def test_repeating_inter_grid_fails_before_any_eigensolve(self, tmp_path, capsys,
                                                              monkeypatch):
        self.forbid_eigensolves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        # the next double above 0.5: the grid repeats values
        assert cli.main(["sweep-inter", "--min", "0.5", "--max", "0.5000000000000001",
                         "--out", "s.csv"]) == 3
        assert "grid must be strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def jsonable(obj):
    """Oracle: the payload as plain Python values for ``json.dumps``."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def oracle_json(payload) -> str:
    return json.dumps(jsonable({"schema": 1, **payload}), indent=2) + "\n"


EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1)
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
text = st.text() | st.sampled_from(("", "é", "\u2028", '"quoted"', "back\\slash", "tab\t\n",
                                    "\x00", "\U0001f600", "snowman \u2603"))
shapes = st.sampled_from(((0,), (3,), (0, 3), (3, 0), (2, 3), (4, 1), (2, 2, 2)))


@st.composite
def arrays(draw):
    shape = draw(shapes)
    size = math.prod(shape)
    kind = draw(st.sampled_from(("finite", "float", "int", "bool", "float32")))
    if kind == "int":
        values = draw(st.lists(st.integers(-2**62, 2**62), min_size=size, max_size=size))
        return np.array(values, dtype=np.int64).reshape(shape)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                        dtype=bool).reshape(shape)
    elements = st.floats(allow_nan=False, allow_infinity=False) if kind == "finite" else floats
    values = draw(st.lists(elements, min_size=size, max_size=size))
    dtype = np.float32 if kind == "float32" else np.float64
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float64).astype(dtype).reshape(shape)


numpy_scalars = (floats.map(np.float64) | st.integers(-2**31, 2**31 - 1).map(np.int64)
                 | st.integers(-100, 100).map(np.int32)
                 | st.floats(width=32).map(np.float32))
leaves = (st.none() | st.booleans() | st.integers() | floats | text | numpy_scalars | arrays())
keys = text | st.integers() | floats | st.booleans() | st.none()
payloads = st.dictionaries(text, st.recursive(
    leaves, lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                           | st.dictionaries(keys, inner, max_size=4)), max_leaves=12))


class TestJsonArtifacts:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(payloads)
    @example({"empty": [], "nothing": {}, "arr": np.zeros((0,)), "ints": np.arange(3),
              "flags": [True, False, None], "nan": np.array([math.nan, 1.0])})
    def test_text_equals_the_json_module(self, payload):
        assert cli._json_text({"schema": 1, **payload}) + "\n" == oracle_json(payload)

    @pytest.mark.parametrize("bad", [np.bool_(True), 1j, object(), np.array(0.5),
                                     {np.int64(1): 2.0}, [1.0, {"x": np.array([1j])}]])
    def test_what_json_rejects_is_rejected_before_writing(self, tmp_path, bad):
        with pytest.raises(TypeError):
            oracle_json({"value": bad})
        with pytest.raises(TypeError):
            cli.write_json(str(tmp_path / "a.json"), {"grid": np.arange(3.0), "value": bad})
        assert not (tmp_path / "a.json").exists()

    def test_sweep_artifact_bytes(self, tmp_path):
        from trispin import spectra
        result, crossings = spectra.sweep_inter(0.0, 0.85, 41)
        payload = {"parameter": result.parameter_name, "grid": result.grid,
                   "spectra": result.spectra, "gap": result.gap,
                   "sz_labels": result.sz_labels, "logical": result.logical,
                   "crossings": list(crossings.crossings)}
        cli.write_json(str(tmp_path / "s.json"), payload)
        assert (tmp_path / "s.json").read_text(encoding="utf-8") == oracle_json(payload)


class TestNumericalFailureExit:
    def test_tracking_error_maps_to_exit_four(self, monkeypatch, tmp_path, capsys):
        from trispin import cli
        from trispin.encoding import TrackingError

        def boom(*args, **kwargs):
            raise TrackingError("tracking ambiguity at j14=0.9")

        monkeypatch.setattr(cli.encoding, "lambda_curve", boom)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["lambdas", "--points", "3"])
        assert code == 4
        assert "tracking" in capsys.readouterr().err.lower()

    def test_linalg_error_maps_to_exit_four(self, run_main, tmp_path, monkeypatch):
        # LinAlgError is a ValueError, yet it is a numerical failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        res = run_main(["lambdas", "--points", "3", "--out", "lam.csv"])
        assert res.returncode == 4
        assert res.stderr == "numerical failure: Eigenvalues did not converge\n"
        assert not (tmp_path / "lam.csv").exists()
