"""Run one trispin CLI command with timing wrappers at its module boundaries.

Usage: PERFBENCH_TRACE_OUT=trace.json python3 traced_cli.py <trispin args...>

The program is not changed.  Before ``trispin.cli.main`` runs, each traced
function is replaced by a wrapper at every binding site: the defining module
and every ``trispin`` module that imported the name with ``from .x import y``.
Each wrapper records a span; totals are kept in memory and written as JSON
when the command ends:

    <span>.calls   number of calls
    <span>.s       inclusive time (outermost call of a span only)
    <span>.self_s  inclusive time minus the time of traced spans inside it

plus counts of work inside spans: eigensolves by matrix dimension (each
matrix of a batched call counted), eigensolves inside tracker walks
(``encoding.walk.substeps``) and propagation (``gates.propagate.steps``),
walks inside calibration (``gates.calibrate.walks``) and grid points of
sweeps (``spectra.sweep.points``).  A traced name the program no longer has
is skipped and left out of ``installed``, so its metrics are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# span -> functions, as "module:attribute[.attribute]"
SPANS = {
    "cli.write": ("trispin.cli:write_csv", "trispin.cli:write_json"),
    "hamiltonian.build": ("trispin.hamiltonian:build_hamiltonian",),
    "hamiltonian.exchange": ("trispin.hamiltonian:exchange_term",),
    "encoding.walk": ("trispin.encoding:_SectorTracker.walk",),
    "encoding.lambda_curve": ("trispin.encoding:lambda_curve",),
    "gates.calibrate": ("trispin.gates:synthesize_cphase",),
    "gates.propagate": ("trispin.gates:propagate",),
    "gates.score": ("trispin.gates:gate_report",),
    "spectra.sweep": ("trispin.spectra:sweep_field", "trispin.spectra:sweep_intra",
                      "trispin.spectra:sweep_inter"),
    "spectra.optimal_field": ("trispin.spectra:optimal_field",),
    "spectra.field_gap": ("trispin.spectra:field_gap",),
    "linalg.eig": ("numpy.linalg:eigh", "numpy.linalg:eigvalsh"),
}
# work done inside a span is also counted on the enclosing spans named here
ATTRIBUTE = {
    "linalg.eig": {"encoding.walk": "substeps", "gates.propagate": "steps"},
    "encoding.walk": {"gates.calibrate": "walks"},
}
EIG_DIMS = {8: "d8", 15: "d15", 64: "d64"}


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []             # [span name, child time]
        self.depth: dict[str, int] = defaultdict(int)

    def _count(self, span: str, amount: float) -> None:
        for parent, counter in ATTRIBUTE.get(span, {}).items():
            if self.depth[parent]:
                self.totals[f"{parent}.{counter}"] += amount

    def call(self, name: str, fn, args, kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        self.depth[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self.stack.pop()
            self.depth[name] -= 1
            if self.stack:
                self.stack[-1][1] += dur
            self.totals[f"{name}.calls"] += 1
            if not self.depth[name]:
                self.totals[f"{name}.s"] += dur
            self.totals[f"{name}.self_s"] += dur - frame[1]

    def wrap(self, span: str, fn):
        if span == "linalg.eig":
            @functools.wraps(fn)
            def eig(a, *args, **kwargs):
                shape = getattr(a, "shape", ())
                mats = 1
                for n in shape[:-2]:
                    mats *= n
                bucket = EIG_DIMS.get(shape[-1] if shape else 0, "other")
                self.totals["linalg.eig.calls"] += 1
                self.totals[f"linalg.eig.{bucket}.mats"] += mats
                self._count(span, mats)
                return self.call(f"linalg.eig.{bucket}", fn, (a, *args), kwargs)
            return eig

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(span, 1)
            result = self.call(span, fn, args, kwargs)
            if span == "spectra.sweep":
                sweep = result[0] if isinstance(result, tuple) else result
                self.totals["spectra.sweep.points"] += len(sweep.grid)
            return result
        return traced


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function at every binding site; return installed spans."""
    importlib.import_module("trispin.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "trispin" or name.startswith("trispin.")]
    installed = []
    for span, targets in SPANS.items():
        found = False
        for target in targets:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                continue
            wrapper = tracer.wrap(span, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
            found = True
        if found:
            installed.append(span)
    return installed


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    installed = install(tracer)
    import trispin.cli
    code = 1
    try:
        code = tracer.call("cli.main", trispin.cli.main, (sys.argv[1:],), {})
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"installed": installed + ["cli.main"], "totals": tracer.totals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
