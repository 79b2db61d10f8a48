import csv
import importlib.util
import io
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
from trispin import cli, encoding, gates, hamiltonian, spectra

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
        assert abs(h_star - 0.75) <= np.spacing(0.75)
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
        assert abs(float(res.stdout.split("h* =")[1]) - 0.75) <= np.spacing(0.75)

    def test_sweep_intra_summary(self, run_main):
        res = run_main(["sweep-intra", "--which", "j23", "--points", "61",
                        "--out", "si.csv"])
        assert res.returncode == 0
        crossings = [float(x) for x in res.stdout.split(" at: ")[1].split(",")]
        assert len(crossings) == 2
        assert abs(crossings[0] - 0.25) <= 1e-14 and abs(crossings[1] - 1.75) <= 1e-14

    def test_lambdas_csv(self, run_main, tmp_path):
        res = run_main(["lambdas", "--points", "8", "--max", "0.35",
                        "--out", "lam.csv"])
        assert res.returncode == 0
        lines = (tmp_path / "lam.csv").read_text().splitlines()
        assert lines[0] == "j14,lambda00,lambda01,lambda11,entangling"
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[1] - (-9 / 4 + last[0] / 4)) < 1e-9

    def test_lambdas_entangling_at_huge_fields(self, run_main, tmp_path):
        # the rate was taken after adding the field: zeros at 1e300, exit 4 at the largest double
        columns = []
        for h in ("0.75", "1e300", "1.7976931348623157e308"):
            res = run_main(["lambdas", "--h", h, "--points", "3", "--format", "json",
                            "--out", "lam.json"])
            assert res.returncode == 0, res.stderr
            columns.append(json.loads((tmp_path / "lam.json").read_text())["entangling"])
        assert columns[1] == columns[0] and columns[2] == columns[0]
        assert columns[0][-1] > 0.4

    def test_deterministic_output(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            assert run_cli(["sweep-intra", "--points", "31", "--out", name],
                           tmp_path).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("command", ["sweep-field", "sweep-intra"])
    def test_workers_is_an_unknown_flag(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--points", "21", "--workers", "2", "--out", "s.csv"]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --workers 2\n"
        assert not (tmp_path / "s.csv").exists()


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

    @pytest.mark.parametrize("scale", [1e8, 1e-12, 1.0])
    def test_degeneracy_and_gap_scale_with_the_couplings(self, run_main, tmp_path, scale):
        # at zero field the triangle's ground is its two S = 1/2 doublets,
        # 3/2 J below the S = 3/2 quartet, at every coupling scale
        j = repr(scale)
        res = run_main(["spectrum", "--j12", j, "--j13", j, "--j23", j, "--h", "0",
                        "--out", "s.json"])
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "s.json").read_text())
        assert data["ground_degeneracy"] == 4
        assert abs(data["gap"] - 1.5 * scale) <= 1e-12 * scale

    @pytest.mark.parametrize("n_sites", ["0", "1", "4"])
    def test_n_sites_without_edges_is_rejected(self, run_main, tmp_path, n_sites):
        res = run_main(["spectrum", "--n-sites", n_sites, "--out", "s.json"])
        assert res.returncode == 2
        assert "--edges" in res.stderr
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("flags", [["--j12", "5"], ["--j13", "1"], ["--j23", "0.5"]])
    def test_triangle_coupling_with_edges_is_rejected(self, run_main, tmp_path, flags):
        res = run_main(["spectrum", "--n-sites", "3", "--edges", "0-1:1", *flags,
                        "--out", "s.json"])
        assert res.returncode == 2
        assert res.stderr == (f"error: {flags[0]}: a triangle coupling cannot go with "
                              "--edges, which gives every coupling\n")
        assert not (tmp_path / "s.json").exists()

    def test_triangle_coupling_from_the_config_with_edges_is_rejected(self, run_main,
                                                                      tmp_path):
        (tmp_path / "run.cfg").write_text("[spectrum]\nj12 = 5\nj23 = 1\n")
        res = run_main(["spectrum", "--config", "run.cfg", "--n-sites", "3",
                        "--edges", "0-1:1", "--out", "s.json"])
        assert res.returncode == 2
        assert res.stderr.startswith("error: --j12, --j23: a triangle coupling cannot go")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_unset_triangle_couplings_are_one(self, run_main, tmp_path):
        for k, argv in enumerate((["spectrum"], ["spectrum", "--j13", "1"])):
            assert run_main([*argv, "--out", f"{k}.json"]).returncode == 0
        assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()

    def test_oversized_register_is_rejected_before_any_operator(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_operators(*args, **kwargs):
            raise AssertionError("operators built for an oversized register")

        monkeypatch.setattr(hamiltonian.SectorOperators, "__init__", no_operators)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n-sites", "11", "--edges", "0-1:1",
                         "--out", "s.json"]) == cli.EXIT_CONFIG
        assert "--n-sites 11: at most 10 sites" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_sector_sizes_are_the_operator_sectors(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for n_sites in range(1, 11):
            assert cli.main(["spectrum", "--n-sites", str(n_sites), "--edges", "",
                             "--out", "s.json"]) == cli.EXIT_OK
            sizes = json.loads((tmp_path / "s.json").read_text())["sector_sizes"]
            assert list(sizes.items()) == [
                (str(s.m), len(s.indices))
                for s in hamiltonian.SectorOperators(n_sites, ()).sectors]

    def test_largest_register_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["spectrum", "--n-sites", "10", "--edges", "0-1:1",
                         "--out", "s.json"]) == cli.EXIT_OK
        assert len(json.loads((tmp_path / "s.json").read_text())["energies"]) == 2**10


class TestVerifyCommand:
    def test_report(self, run_main, tmp_path):
        res = run_main(["verify-eq7", "--min", "0", "--max", "0.5", "--points", "6",
                        "--out", "v.json"])
        assert res.returncode == 0
        data = json.loads((tmp_path / "v.json").read_text())
        assert data["max_cubic_residual_on_11"] <= 1e-9
        assert data["min_line_residual"] > 5.9
        assert data["max_corrected_line_residual"] <= 1e-10
        assert data["max_corrected_quadratic_residual_on_01"] <= 1e-12
        assert data["quadratic_real_anywhere"] is False
        assert len(data["points"]) == 6

    def test_bad_grid(self, run_main, tmp_path):
        res = run_main(["verify-eq7", "--min", "0.5", "--max", "0"])
        assert res.returncode == 3
        assert res.stderr == ("precondition violated: sweep needs its lower bound below "
                              "its upper bound\n")
        assert not any(tmp_path.iterdir())

    def test_grid_is_no_flag_or_config_key(self, run_main, tmp_path):
        res = run_main(["verify-eq7", "--grid", "0:0.5:6"])
        assert (res.returncode, res.stderr) == (2, "error: unrecognized arguments: --grid "
                                                   "0:0.5:6\n")
        (tmp_path / "v.cfg").write_text("grid = 0:0.5:6\n")
        res = run_main(["verify-eq7", "--config", "v.cfg"])
        assert (res.returncode, res.stderr) == (2, "error: unknown config key 'grid' for "
                                                   "command verify-eq7\n")
        assert [p.name for p in tmp_path.iterdir()] == ["v.cfg"]


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

    @pytest.mark.parametrize("command", [
        ["gate", "--type", "cphase", "--j14", "1e-15", "--out", "x.json"],
        ["adiabatic", "--ramp-times", "1e10", "--out", "x.csv"],
    ])
    def test_phase_out_of_reach_exits_three(self, run_main, tmp_path, command):
        res = run_main(command)
        assert res.returncode == 3
        assert res.stderr == ("precondition violated: requested phase unreachable "
                              "within max_duration\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("kind", ["rz", "rx"])
    def test_single_lq_gates_are_exact_at_any_field(self, run_main, tmp_path, kind):
        # the field is one phase per sector, so it cannot round the exchange away
        blocks = []
        for h in ("0.75", "1e10", "1e20", "1e300"):
            assert run_main(["gate", "--type", kind, "--h", h, "--out", "g.json"]).returncode == 0
            data = json.loads((tmp_path / "g.json").read_text())
            assert 1 - data["fidelity"] <= 1e-15
            blocks.append(np.array(data["logical_unitary_re"])
                          + 1j * np.array(data["logical_unitary_im"]))
        for block in blocks[1:]:
            tr = np.trace(blocks[0].conj().T @ block)
            assert np.max(np.abs(block - tr / abs(tr) * blocks[0])) <= 1e-15

    @pytest.mark.parametrize("kind, h", [("rz", "1e308"), ("rx", "1.7e308"),
                                         ("axis120", "1.7e308"), ("su2", "1e308")])
    def test_fields_whose_phase_overflows_run(self, run_main, tmp_path, kind, h):
        # h T overflowed here, and the command exited 4
        euler = ["--euler", "pi/2,-pi/3,0.2"] if kind == "su2" else []
        res = run_main(["gate", "--type", kind, *euler, "--h", h, "--out", "g.json"])
        assert res.returncode == 0, res.stderr
        data = json.loads((tmp_path / "g.json").read_text())
        block = np.array(data["logical_unitary_re"]) + 1j * np.array(data["logical_unitary_im"])
        assert np.isfinite(block).all()
        assert np.max(np.abs(block.conj().T @ block - np.eye(2))) <= 1e-14

    def test_cphase_at_large_fields(self, run_main, tmp_path):
        # the calibration used to fail at h = 1e6 (exit 4) and at h = 1e20 (exit 3)
        reports = []
        for h in ("0.75", "1e6", "1e20"):
            res = run_main(["gate", "--type", "cphase", "--h", h, "--out", "g.json"])
            assert res.returncode == 0, res.stderr
            data = json.loads((tmp_path / "g.json").read_text())
            reports.append((data["fidelity"], data["conditional_phase"]))
        assert np.max(np.abs(np.array(reports[1:]) - reports[0])) <= 1e-12

    def test_cphase_at_the_largest_field(self, run_main, tmp_path):
        # the field phase h T overflowed at the largest double, and the command exited 4
        reports = []
        for h in ("0.75", HUGE):
            res = run_main(["gate", "--type", "cphase", "--h", h, "--out", "g.json"])
            assert res.returncode == 0, res.stderr
            assert res.stdout.startswith("cphase: fidelity ") and res.stdout.count("\n") == 1
            data = json.loads((tmp_path / "g.json").read_text())
            reports.append((data["fidelity"], data["conditional_phase"]))
        assert np.max(np.abs(np.array(reports[1]) - reports[0])) <= 1e-12

    @pytest.mark.parametrize("args, schedule, target, score", [
        (["--type", "cphase"], lambda: gates.synthesize_cphase(np.pi, 0.5, 20.0),
         gates.cphase_gate(np.pi), gates.two_lq_report),
        ([], lambda: gates.synthesize_rz(np.pi / 2, 0.25), gates.rz_gate(np.pi / 2),
         gates.single_lq_report),
    ], ids=["cphase", "rz"])
    def test_library_defaults_give_the_artifact(self, run_main, tmp_path, args, schedule,
                                                target, score):
        # one step rule and one default rate: the scorer at its defaults is the CLI's gate
        assert run_main(["gate", *args, "--out", "g.json"]).returncode == 0
        data = json.loads((tmp_path / "g.json").read_text())
        report = score(schedule(), target)
        assert np.array_equal(report.logical_unitary.real, data["logical_unitary_re"])
        assert np.array_equal(report.logical_unitary.imag, data["logical_unitary_im"])
        assert (report.fidelity, report.max_leakage, report.avg_leakage,
                report.conditional_phase) == (data["fidelity"], data["max_leakage"],
                                              data["avg_leakage"], data["conditional_phase"])

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

    def test_zero_coupling_is_one_exact_hold(self, run_main, tmp_path, monkeypatch):
        # j14 = 0 evolves at idle: no ramp, so no step, however long the ramp time
        stepped = []
        step_propagators = gates._step_propagators

        def counted(h, dt):
            stepped.append(int(np.prod(h.shape[:-2])))
            return step_propagators(h, dt)

        monkeypatch.setattr(gates, "_step_propagators", counted)
        res = run_main(["adiabatic", "--j14", "0", "--ramp-times", "3,1000", "--out", "ad.csv"])
        assert res.returncode == 0, res.stderr
        # one hold of each of the quartet's four blocks per ramp time
        assert stepped == [1] * 8
        rows = [[float(x) for x in line.split(",")]
                for line in (tmp_path / "ad.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [3.0, 1000.0]
        assert all(row[1] <= 1e-15 for row in rows)

    @pytest.mark.parametrize("ramp", ["1e10", "1e300", "1e308"])
    def test_zero_coupling_ramp_out_of_reach_exits_three(self, run_main, tmp_path, ramp):
        # held to the reach of a j14 > 0 pulse: two ramps within gates.MAX_DURATION
        res = run_main(["adiabatic", "--j14", "0", "--ramp-times", f"3,{ramp}", "--out", "ad.csv"])
        assert res.returncode == 3
        assert res.stderr == ("precondition violated: requested phase unreachable "
                              "within max_duration\n")
        assert list(tmp_path.iterdir()) == []


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

    def test_workers_key_rejected(self, run_main, tmp_path):
        (tmp_path / "run.cfg").write_text("[sweep-field]\nworkers = 2\n")
        res = run_main(["sweep-field", "--config", "run.cfg", "--points", "5"])
        assert res.returncode == 2
        assert "workers" in res.stderr

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


def equals_form(argv: list[str]) -> list[str]:
    """``argv`` with each value that starts with a single "-" joined to its flag by "="."""
    joined: list[str] = []
    for token in argv:
        if token.startswith("-") and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


class TestFlagValues:
    # values that start with "-", each with the exit code of its command
    @pytest.mark.parametrize("argv,code", [
        (["gate", "--type", "rx", "--theta", "-pi/4"], 0),
        (["gate", "--type", "rz", "--theta", "-1e-3"], 0),
        (["gate", "--type", "axis120", "--theta", "-3pi/4", "--h", "-0.5"], 0),
        (["gate", "--type", "su2", "--euler", "-pi/2,pi/3,-pi/4"], 0),
        (["gate", "--type", "cphase", "--phi", "-pi/2", "--ramp-time", "5"], 0),
        (["lambdas", "--h", "-1e-3", "--points", "3"], 0),
        (["sweep-field", "--min", "-1e-3", "--max", "1", "--points", "5"], 0),
        (["spectrum", "--h", "-.5", "--format", "csv"], 0),
        (["lambdas", "--points", "-2"], 3),
        (["gate", "--type", "rx", "--theta", "-inf"], 2),
        (["sweep-inter", "--min", "-0.1", "--points", "5"], 3),
        (["units", "--h", "-1"], 3),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_space_form_equals_equals_form(self, tmp_path, monkeypatch, capsys, argv, code):
        results = []
        for k, form in enumerate((argv, equals_form(argv))):
            where = tmp_path / str(k)
            where.mkdir()
            monkeypatch.chdir(where)
            returned = cli.main(form)
            out, err = capsys.readouterr()
            results.append((returned, out, err,
                            {p.name: p.read_bytes() for p in sorted(where.iterdir())}))
        assert results[0] == results[1]
        assert results[0][0] == code

    @pytest.mark.parametrize("argv,message", [
        (["sweep-field", "--points", "--format", "json"], "argument --points: expected one"),
        (["sweep-field", "--points"], "argument --points: expected one argument"),
        (["gate", "--theta", "-h"], "argument --theta: expected one argument"),
        (["units", "--h", "0.5", "--workers", "2"], "unrecognized arguments: --workers 2"),
        (["uints"], "argument command: invalid choice: 'uints'"),
        ([], "the following arguments are required: command"),
    ])
    def test_argument_errors_are_one_stderr_line(self, run_main, tmp_path, argv, message):
        res = run_main(argv)
        assert res.returncode == 2 and not res.stdout
        assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1
        assert not any(tmp_path.iterdir())

    # a flag is its exact name or a declared alias (TestUnitsCommand runs
    # --J), never a prefix of one; another command's flag reads as typed,
    # since only the named command's flags take a value after a space
    @pytest.mark.parametrize("argv,rest", [
        (["sweep-field", "--poin", "5"], "--poin 5"),
        (["gate", "--type", "rx", "--the=-pi/4"], "--the=-pi/4"),
        (["gate", "--type", "rx", "--thet", "-pi/4"], "--thet -pi/4"),
        (["units", "--euler", "-1"], "--euler -1"),
        (["spectrum", "--theta", "-pi/4"], "--theta -pi/4"),
    ])
    def test_flag_prefixes_are_unrecognized(self, run_main, tmp_path, argv, rest):
        res = run_main(argv)
        assert res.returncode == 2 and not res.stdout
        assert res.stderr == f"error: unrecognized arguments: {rest}\n"
        assert not any(tmp_path.iterdir())

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert all(f"    {name} " in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("argv", [["--help"], ["gate", "-h"], ["units", "--help"]])
    def test_help_exits_0(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: trispin")
        assert not any(tmp_path.iterdir())


# small runs of every command
QUICK_ARGS = {
    "spectrum": [], "sweep-field": ["--points", "5"], "sweep-intra": ["--points", "5"],
    "sweep-inter": ["--points", "5"], "lambdas": ["--points", "3"],
    "verify-eq7": ["--max", "0.5", "--points", "3"], "gate": [],
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
            doc = json.loads(text, parse_constant=reject_constant)
            assert doc["schema"] == 1
            assert json.dumps(doc, indent=2) + "\n" == text
        else:
            header, *rows = csv.reader(text.splitlines())
            assert rows and all(len(row) == len(header) for row in rows)
            assert all(np.isfinite([float(v) for v in row]).all() for row in rows)
            assert all(format(float(v), ".17g") == v for row in rows for v in row)
            if command == "spectrum":
                assert [row[0] for row in rows] == [str(k) for k in range(len(rows))]

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

    def test_bytecheck_runs_every_command_in_every_format(self):
        path = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"
        spec = importlib.util.spec_from_file_location("bytecheck", path)
        bytecheck = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bytecheck)
        written = set()
        for argv in bytecheck.COMMANDS:
            try:
                cfg = cli.parse_config(argv)
            except (cli.ConfigError, SystemExit):  # a bad argv, or --help
                continue
            written.add((cfg.command, cfg.fmt))
        assert written == set(WRITTEN)


class TestRejectedValues:
    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_lambdas_needs_a_point(self, run_main, tmp_path, points):
        res = run_main(["lambdas", "--points", points, "--out", "lam.csv"])
        assert res.returncode == 3
        assert res.stderr == "precondition violated: n_points must be at least 1\n"
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


# argv of a request of size n, and the cap on that size
BUDGETS = {
    "sweep-field": (lambda n: ["sweep-field", "--points", str(n)], encoding.MAX_GRID_POINTS.cap),
    "sweep-intra": (lambda n: ["sweep-intra", "--points", str(n)], encoding.MAX_GRID_POINTS.cap),
    "sweep-inter": (lambda n: ["sweep-inter", "--points", str(n)], encoding.MAX_GRID_POINTS.cap),
    "lambdas": (lambda n: ["lambdas", "--points", str(n)], encoding.MAX_GRID_POINTS.cap),
    "verify-eq7": (lambda n: ["verify-eq7", "--points", str(n)], encoding.MAX_GRID_POINTS.cap),
    "gate-cal-steps": (lambda n: ["gate", "--type", "cphase", "--cal-steps", str(n)],
                       gates.MAX_CALIBRATION_NODES.cap),
    "adiabatic-cal-steps": (lambda n: ["adiabatic", "--cal-steps", str(n)],
                            gates.MAX_CALIBRATION_NODES.cap),
    "gate-steps": (lambda n: ["gate", "--type", "cphase", "--ramp-time", "1",
                              "--steps-per-unit", str(n)], gates.MAX_RAMP_STEPS.cap),
    "ramp-times": (lambda n: ["adiabatic", "--ramp-times", ",".join(["4"] * n)],
                   spectra.MAX_RAMP_TIMES.cap),
    # the longest ramp sets the count
    "adiabatic-steps": (lambda n: ["adiabatic", "--ramp-times", "0.5,2",
                                   "--steps-per-unit", str(n / 2)], gates.MAX_RAMP_STEPS.cap),
}


class TestRequestBudget:
    """Each cap is checked before any work: no eigensolve runs past it."""

    @pytest.fixture(autouse=True)
    def no_eigensolves(self, monkeypatch):
        def refused(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver reached")

        monkeypatch.setattr(np.linalg, "eigh", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)

    @pytest.mark.parametrize("name", list(BUDGETS))
    def test_one_past_the_cap_exits_two(self, run_main, tmp_path, name):
        argv, cap = BUDGETS[name]
        res = run_main(argv(cap + 1) + ["--out", "x.out"])
        assert res.returncode == 2
        assert res.stderr.startswith("error: --") and res.stderr.count("\n") == 1
        assert f"at most {cap} " in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["lambdas", "verify-eq7", "gate-cal-steps",
                                      "adiabatic-cal-steps", "gate-steps", "adiabatic-steps",
                                      "ramp-times"])
    def test_the_cap_itself_is_accepted(self, run_main, name):
        argv, cap = BUDGETS[name]
        res = run_main(argv(cap) + ["--out", "x.out"])
        assert res.stderr == "numerical failure: eigensolver reached\n"

    @pytest.mark.parametrize("argv", [
        ["gate", "--type", "cphase", "--steps-per-unit", "1e300"],
        ["gate", "--type", "cphase", "--steps-per-unit", "1e308"],
        ["adiabatic", "--ramp-times", "4", "--steps-per-unit", "1e300"],
        ["adiabatic", "--ramp-times", ",".join(["4"] * 100_000)],
        ["gate", "--type", "cphase", "--cal-steps", "100000000"],
        ["sweep-field", "--points", "30000000"],
        ["lambdas", "--points", "100000000"],
    ])
    def test_requests_that_ran_unbounded_exit_two(self, run_main, tmp_path, argv):
        res = run_main(argv + ["--out", "x.out"])
        assert res.returncode == 2 and "at most" in res.stderr
        assert list(tmp_path.iterdir()) == []


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
        ["verify-eq7", "--min", "nan", "--max", "0.5", "--points", "3"],
    ])
    def test_non_finite_j14_grid_fails_before_any_eigensolve(self, run_main, tmp_path,
                                                             monkeypatch, command):
        self.forbid_eigensolves(monkeypatch)
        res = run_main([*command, "--out", "x.out"])
        assert res.returncode == 3
        assert res.stderr == "precondition violated: sweep bounds must be finite\n"
        assert not (tmp_path / "x.out").exists()

    @pytest.mark.parametrize("command", ["lambdas", "verify-eq7"])
    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_fails_before_any_eigensolve(self, run_main, tmp_path,
                                                          monkeypatch, command, field):
        # these exited 4 from the artifact's own check, after the walk
        self.forbid_eigensolves(monkeypatch)
        res = run_main([command, f"--h={field}", "--out", "x.out"])
        assert res.returncode == 3
        assert res.stderr == "precondition violated: field_h must be finite\n"
        assert not res.stdout and list(tmp_path.iterdir()) == []

    def test_repeating_inter_grid_fails_before_any_eigensolve(self, tmp_path, capsys,
                                                              monkeypatch):
        self.forbid_eigensolves(monkeypatch)
        monkeypatch.chdir(tmp_path)
        # the next double above 0.5: the grid repeats values
        assert cli.main(["sweep-inter", "--min", "0.5", "--max", "0.5000000000000001",
                         "--out", "s.csv"]) == 3
        assert "grid must be strictly increasing" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


GRID_CAP = encoding.MAX_GRID_POINTS.cap
# flags of a grid that breaks the grid rule, the exit code, and the message of
# the one stderr line, with the fewest points the command takes for {fewest}
BAD_GRIDS = {
    "count-0": (["--points", "0"], 3, "n_points must be at least {fewest}"),
    "count-past-the-cap": (["--points", str(GRID_CAP + 1)], 2,
                           f"--points {GRID_CAP + 1}: at most {GRID_CAP} points"),
    "nan-bound": (["--min", "nan"], 3, "sweep bounds must be finite"),
    "reversed-bounds": (["--min", "0.5", "--max", "0.1"], 3,
                        "sweep needs its lower bound below its upper bound"),
    # the next double above 0.5 as the upper bound
    "repeated-values": (["--min", "0.5", "--max", "0.5000000000000001", "--points", "3"], 3,
                        "grid must be strictly increasing with >= 2 points"),
}


class TestGridRule:
    """The five grid commands reject a bad grid by one rule, before any eigensolve."""

    @pytest.mark.parametrize("bad", list(BAD_GRIDS))
    @pytest.mark.parametrize("command", ["sweep-field", "sweep-intra", "sweep-inter",
                                         "lambdas", "verify-eq7"])
    def test_bad_grid_is_rejected_before_any_eigensolve(self, run_main, tmp_path, monkeypatch,
                                                        command, bad):
        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve before the grid was checked")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        flags, code, message = BAD_GRIDS[bad]
        fewest = 1 if command in ("lambdas", "verify-eq7") else 2
        res = run_main([command, *flags, "--out", "x.out"])
        assert (res.returncode, res.stdout) == (code, "")
        kind = "error" if code == cli.EXIT_CONFIG else "precondition violated"
        assert res.stderr == f"{kind}: {message.format(fewest=fewest)}\n"
        assert not any(tmp_path.iterdir())


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


def oracle_csv(header, table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([format(float(v), ".17g") for v in row] for row in table)
    return buf.getvalue()


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, failing with the first line that differs.

    pytest's own diff of two long texts can run for minutes.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if got_lines != want_lines:
        k = next(k for k in range(max(len(got_lines), len(want_lines)))
                 if got_lines[k:k + 1] != want_lines[k:k + 1])
        pytest.fail(f"line {k + 1}: got {got_lines[k:k + 1]}, want {want_lines[k:k + 1]}")


def reject_constant(constant):
    raise ValueError(f"{constant} is not strict JSON")


# what an artifact holds: str keys, finite numbers and finite float64 arrays
EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
text = st.text() | st.sampled_from(("", "é", "\u2028", '"quoted"', "back\\slash", "tab\t\n",
                                    "\x00", "\U0001f600", "snowman \u2603"))
shapes = st.sampled_from(((0,), (3,), (0, 3), (3, 0), (2, 3), (4, 1), (2, 2, 2)))


@st.composite
def arrays(draw):
    shape = draw(shapes)
    size = math.prod(shape)
    values = draw(st.lists(floats, min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


leaves = (st.none() | st.booleans() | st.integers() | floats | floats.map(np.float64) | text
          | arrays())
payloads = st.dictionaries(text, st.recursive(
    leaves, lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                           | st.dictionaries(text, inner, max_size=4)), max_leaves=12))


class TestJsonArtifacts:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(payloads)
    @example({"empty": [], "nothing": {}, "arr": np.zeros((0,)), "rows": np.zeros((3, 0)),
              "flags": [True, False, None], "cube": np.arange(8.0).reshape(2, 2, 2),
              "scalar": np.float64(-0.0), "big": 2**70})
    def test_text_equals_the_json_module(self, payload):
        assert_same_text(cli._json_text({"schema": 1, **payload}) + "\n", oracle_json(payload))

    @pytest.mark.parametrize("bad", [np.bool_(True), 1j, object(), np.array(0.5),
                                     {np.int64(1): 2.0}, [1.0, {"x": np.array([1j])}]])
    def test_what_json_rejects_is_rejected_before_writing(self, tmp_path, bad):
        with pytest.raises(TypeError):
            oracle_json({"value": bad})
        with pytest.raises(TypeError):
            cli.write_json(str(tmp_path / "a.json"), {"grid": np.arange(3.0), "value": bad})
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("bad, error", [
        ({1: 2.0}, TypeError), ({None: 2.0}, TypeError), (np.int64(3), TypeError),
        (np.float32(0.5), TypeError), (np.arange(3), TypeError),
        (np.array([True, False]), TypeError), (np.zeros((2, 2), dtype=np.float32), TypeError),
        (np.array(0.5), TypeError), (np.float64(math.nan), FloatingPointError),
        ([1.0, [math.nan]], FloatingPointError), ({"x": {"y": math.inf}}, FloatingPointError),
        ((0.0, -math.inf), FloatingPointError),
        (np.array([math.inf]), FloatingPointError),
        (np.array([[0.0, 1.0], [-math.inf, 1.0]]), FloatingPointError),
        ([{"rows": np.array([1.0, math.nan])}], FloatingPointError),
    ])
    def test_what_no_artifact_holds_is_rejected_before_writing(self, tmp_path, bad, error):
        # json.dumps would write NaN, "1" keys and the array's items; an artifact holds none
        with pytest.raises(error):
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
        assert_same_text((tmp_path / "s.json").read_text(encoding="utf-8"), oracle_json(payload))


# a CSV table: 1-5 columns of finite floats, integer-valued ones among them
cells = floats | st.integers(-2**64, 2**64).map(float)


@st.composite
def csv_tables(draw):
    n_cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(cells, min_size=n_cols, max_size=n_cols), max_size=6))
    return [f"c{k}" for k in range(n_cols)], np.array(rows, dtype=np.float64).reshape(-1, n_cols)


class TestCsvArtifacts:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(csv_tables())
    @example((["level", "energy"], np.array([[0.0, -0.0], [1.0, 5e-324], [2.0, 1e308]])))
    def test_text_equals_the_csv_module(self, tmp_path_factory, header_table):
        path = tmp_path_factory.mktemp("csv") / "a.csv"
        cli.write_csv(str(path), *header_table)
        assert_same_text(path.read_text(encoding="utf-8"), oracle_csv(*header_table))


HUGE = "1.7976931348623157e308"


def table_with(value: float, at: tuple[int, int]) -> np.ndarray:
    """A 5x3 table whose first non-finite value, in row order, is ``value`` at ``at``."""
    table = np.arange(15.0).reshape(5, 3)
    table[-1, -1] = math.inf if math.isnan(value) else math.nan
    table[at] = value
    return table


class TestNumericalFailureExit:
    @pytest.mark.parametrize("args", [
        ["verify-eq7", "--h", HUGE], ["sweep-inter", "--h", HUGE],
    ], ids=["verify-eq7", "sweep-inter"])
    def test_largest_field_ends_with_one_line(self, run_main, tmp_path, args):
        # the field used to overflow the invariant-block closure into an IndexError
        res = run_main(args + ["--out", str(tmp_path / "artifact")])
        assert res.returncode in (3, 4)
        assert res.stderr.count("\n") == 1 and not res.stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["units", "--h", HUGE], ["lambdas", "--max", HUGE, "--points", "3"],
        ["sweep-field", "--max", HUGE, "--points", "3"], ["verify-eq7", "--h", "1e200"],
        ["units", "--h", "1e300", "--j", "1e10"],
    ], ids=["units", "lambdas", "sweep-field", "verify-eq7", "units-python-floats"])
    def test_overflow_is_a_numerical_failure(self, run_main, tmp_path, args):
        # these wrote infinities (units: "b_tesla": Infinity, not strict JSON);
        # the last overflows in Python floats, which raise nothing, so only the
        # artifact's own check stops it
        res = run_main(args + ["--out", str(tmp_path / "artifact")])
        assert res.returncode == 4
        assert res.stderr.startswith("numerical failure: ") and res.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("payload", [{"b_tesla": math.inf}, {"rows": [{"x": math.nan}]},
                                         {"grid": np.array([0.0, -math.inf])}])
    def test_non_finite_json_is_not_written(self, tmp_path, payload):
        with pytest.raises(FloatingPointError):
            cli.write_json(str(tmp_path / "a.json"), payload)
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("table, bad", [
        pytest.param([[1.0], [np.float64(math.inf)]], math.inf, id="list-of-rows"),
        *(pytest.param(table_with(bad, at), bad, id=f"{where}-{bad}")
          for bad in (math.nan, math.inf, -math.inf)
          for where, at in (("first-row", (0, 1)), ("middle-row", (2, 0)),
                            ("last-column", (1, 2)))),
    ])
    def test_non_finite_csv_is_not_written(self, tmp_path, table, bad):
        with pytest.raises(FloatingPointError, match=f"^non-finite value {bad} in the artifact$"):
            cli.write_csv(str(tmp_path / "a.csv"), ["x", "y", "z"][:len(table[0])], table)
        assert not (tmp_path / "a.csv").exists()

    def test_linalg_error_maps_to_exit_four(self, run_main, tmp_path, monkeypatch):
        # LinAlgError is a ValueError, yet it is a numerical failure
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        res = run_main(["lambdas", "--points", "3", "--out", "lam.csv"])
        assert res.returncode == 4
        assert res.stderr == "numerical failure: Eigenvalues did not converge\n"
        assert not (tmp_path / "lam.csv").exists()
