"""The benchmark's traced names still exist in trispin.

``perfbench/traced_cli.py`` wraps the functions of each span by name and skips
a span none of whose targets resolves, so a renamed function silently drops
that span's metrics from the traced result.  The launcher is loaded from its
file unchanged and each span is resolved against the installed package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


@pytest.fixture(scope="module")
def traced_cli():
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing_spans(traced_cli) -> list[str]:
    """Spans of which no target resolves, as the launcher's ``install`` would skip them."""
    def resolves(target):
        try:
            traced_cli._resolve(target)
        except (ImportError, AttributeError):
            return False
        return True

    return [span for span, targets in traced_cli.SPANS.items()
            if not any(resolves(t) for t in targets)]


def test_every_traced_span_resolves(traced_cli):
    assert missing_spans(traced_cli) == []


@pytest.mark.parametrize("span,target", [
    ("encoding.walk", "trispin.encoding:_SectorTracker.walk"),
    ("gates.propagate", "trispin.gates:propagate"),
    ("hamiltonian.build", "trispin.hamiltonian:build_hamiltonian"),
    ("hamiltonian.exchange", "trispin.hamiltonian:exchange_term"),
])
def test_a_function_renamed_away_is_reported(traced_cli, monkeypatch, span, target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    monkeypatch.delattr(owner, attr)
    assert missing_spans(traced_cli) == [span]
