#!/usr/bin/env python3
"""Benchmark of the trispin command line: wall time, memory and per-module trace.

    python3 perfbench/run.py --workload cz|spectra|short --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation is one ``trispin``
CLI call started as a fresh subprocess, one at a time from this process (a
closed loop with one client), against ``src/`` of the checkout.  A run makes
whole passes over the workload until ``--seconds`` have gone by and checks
every artifact.  The last line of stdout is the result as JSON; the line
before it records the environment.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread everywhere: with more, a lone 64x64 product can take
# hundreds of times longer at random on a small machine.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings)

import workloads as wl  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
TRACED_CLI = HERE / "traced_cli.py"
SPEC = ROOT / "BENCHMARK.json"     # metric names and units
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 7


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


@dataclass
class Call:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Record:
    op: wl.Op
    call: Call
    outcome: wl.Outcome
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.call.code != 0 or self.outcome.fault is not None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # children cache bytecode as an installed package would, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict[str, str]) -> Call:
    """Run one child in WORK; wall time from start to reaping, and its peak RSS."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:       # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_text(errors="replace").strip(),
                err_path.read_text(errors="replace").strip())


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = child_env()
        self.problems: list[str] = []
        try:
            spec = json.loads(SPEC.read_text())
        except (OSError, ValueError) as exc:
            raise SetupError(f"cannot read {SPEC}: {exc}") from None
        self.units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                      for kind in ("end_to_end", "per_layer")}

    def probe_env(self) -> dict:
        code = ("import json, sys, numpy, trispin; print(json.dumps({'trispin': trispin.__file__,"
                " 'numpy': numpy.__version__, 'python': sys.version.split()[0]}))")
        call = spawn([sys.executable, "-c", code], self.env)
        if call.code != 0:
            raise SetupError(f"cannot import trispin from {SRC}: {call.stderr[-500:]}")
        info = json.loads(call.stdout.splitlines()[-1])
        if not Path(info["trispin"]).resolve().is_relative_to(SRC):
            raise SetupError(f"trispin imported from {info['trispin']}, not {SRC}")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"python": info["python"], "numpy": info["numpy"],
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
                "machine": platform.machine()}

    def run_op(self, op: wl.Op, traced: bool = False) -> Record:
        out_file = WORK / f"{op.key}.{op.fmt}"
        trace_file = WORK / "trace.json"
        argv = [*op.args, f"--out={out_file.name}"]
        env = self.env
        if traced:
            argv = [sys.executable, str(TRACED_CLI), *argv]
            env = dict(env, PERFBENCH_TRACE_OUT=str(trace_file))
        else:
            argv = [sys.executable, "-m", "trispin", *argv]
        call = spawn(argv, env)
        outcome = wl.Outcome()
        trace = None
        if call.code != 0:
            outcome.problems.append(f"exit {call.code}: {call.stderr[-300:]}")
        else:
            try:
                outcome = op.check(op, wl.load(out_file, op.fmt), call.stdout)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                outcome.problems.append(f"artifact unreadable: {exc!r}")
        if traced and trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
        out_file.unlink(missing_ok=True)
        if outcome.problems and call.code == 0:
            self.problems += [f"{op.key}: {p}" for p in outcome.problems]
        if call.code != 0 or outcome.fault:
            print(f"failed {op.key}: {outcome.fault or outcome.problems[0]}", file=sys.stderr)
        return Record(op, call, outcome, trace)

    def run_pass(self, index: int, traced: bool = False) -> list[Record]:
        return [self.run_op(op, traced) for op in wl.make_pass(self.workload, self.seed, index)]

    def passes(self, traced_pairs: bool) -> list[list[Record]]:
        """Whole passes until the run time is used, at least MIN_PASSES of them.

        With ``traced_pairs`` each pass is run twice, plain then traced, and
        one pair is enough.
        """
        least = 1 if traced_pairs else wl.MIN_PASSES[self.workload]
        start = time.perf_counter()
        out: list[list[Record]] = []
        index = 0
        while index < least or time.perf_counter() - start < self.seconds:
            out.append(self.run_pass(index))
            if traced_pairs:
                out.append(self.run_pass(index, traced=True))
            index += 1
        return out

    def import_walls(self, count: int) -> list[float]:
        """Walls of fresh interpreters that only import trispin."""
        argv = [sys.executable, "-c", "import trispin"]
        return [spawn(argv, self.env).wall for _ in range(count)]

    def end_to_end(self) -> tuple[dict, list[Record]]:
        # one warm-up import, then samples before and after the passes, so the
        # median sees the machine as the passes did
        setup = self.import_walls(SETUP_SAMPLES + 1)[1:]
        passes = self.passes(traced_pairs=False)
        setup += self.import_walls(SETUP_SAMPLES)
        records = [r for p in passes for r in p]
        walls = [r.call.wall for r in records]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(sum(r.call.wall for r in p) for p in passes),
            "peak_rss_mb": max(r.call.rss_mb for r in records),
            "cmd_p50_s": statistics.median(walls),
            "cmd_tail_s": percentile(walls, wl.TAIL_PERCENTILE),
        }
        return self._metrics("end_to_end", values), records

    def per_layer(self) -> tuple[dict, list[Record]]:
        passes = self.passes(traced_pairs=True)
        plain, traced = passes[0::2], passes[1::2]
        plain_records = [r for p in plain for r in p]
        untraced_wall = statistics.median(sum(r.call.wall for r in p) for p in plain)
        traced_wall = statistics.median(sum(r.call.wall for r in p) for p in traced)
        values = {"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                  "trace.overhead_s": traced_wall - untraced_wall}
        # single commands, timed in the plain passes; 0 where the workload has none
        for metric in wl.COMMAND_METRICS:
            walls = [r.call.wall for r in plain_records if r.op.metric == metric]
            values[metric] = statistics.median(walls) if walls else 0.0
        sweeps = [r for r in plain_records if r.op.points]
        values["sweep_points_per_s"] = (sum(r.op.points for r in sweeps)
                                        / sum(r.call.wall for r in sweeps)) if sweeps else 0.0

        traces = [r.trace for p in traced for r in p if r.trace]
        installed = set.intersection(*(set(t["installed"]) for t in traces)) if traces else set()
        per_pass = []
        for p in traced:
            totals: dict[str, float] = {}
            for r in p:
                for key, value in (r.trace or {}).get("totals", {}).items():
                    totals[key] = totals.get(key, 0.0) + value
            per_pass.append(totals)
        for name in self.units["per_layer"]:
            if name in values:
                continue
            if ".".join(name.split(".")[:2]) not in installed:
                continue     # the traced function is gone from the program
            values[name] = statistics.median(t.get(name, 0.0) for t in per_pass)
        return self._metrics("per_layer", values), [r for p in passes for r in p]

    def _metrics(self, kind: str, values: dict) -> dict:
        return {name: {"value": values[name], "unit": unit}
                for name, unit in self.units[kind].items() if name in values}

    def run(self, trace: bool) -> dict:
        metrics, records = self.per_layer() if trace else self.end_to_end()
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": len(records),
                "failed": sum(r.failed for r in records), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "trispin" / "__init__.py").is_file():
        print(f"error: no trispin sources at {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds)
        print(json.dumps({"env": bench.probe_env()}), flush=True)
        result = bench.run(bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
