"""Each default is written once: the working field and the calibration node count."""

import inspect

import pytest

from trispin import cli, encoding, gates, hamiltonian, spectra
from trispin.gates import CALIBRATION_NODES
from trispin.hamiltonian import IDLE_FIELD

# effective_h1's field only adds -h/2 to its offset; by default it leaves the field out
FIELD_FREE = {"encoding.effective_h1"}


def public_defaults(name: str) -> dict:
    """``module.function`` -> default of ``name``, for each public function that declares one."""
    found = {}
    for module in (encoding, gates, hamiltonian, spectra):
        for fname, fn in inspect.getmembers(module, inspect.isfunction):
            param = inspect.signature(fn).parameters.get(name)
            if (fn.__module__ == module.__name__ and not fname.startswith("_")
                    and param is not None and param.default is not param.empty):
                found[f"{module.__name__.split('.')[-1]}.{fname}"] = param.default
    return found


FIELD_DEFAULTS = public_defaults("h")
NODE_DEFAULTS = public_defaults("n_calibration_steps")


def test_the_library_declares_field_defaults():
    assert len(FIELD_DEFAULTS) >= 14 and FIELD_FREE <= set(FIELD_DEFAULTS)


@pytest.mark.parametrize("name", sorted(FIELD_DEFAULTS))
def test_library_field_default_is_the_working_field(name):
    assert FIELD_DEFAULTS[name] == (0.0 if name in FIELD_FREE else IDLE_FIELD)


@pytest.mark.parametrize("name", sorted(NODE_DEFAULTS))
def test_library_calibration_default(name):
    assert NODE_DEFAULTS[name] == CALIBRATION_NODES


def cli_params(name: str) -> dict:
    return {command: param for command, meta in cli.COMMANDS.items()
            for param in meta["params"] if param.name == name}


@pytest.mark.parametrize("command", sorted(cli_params("h")))
def test_cli_field_default_is_the_working_field(command):
    assert cli_params("h")[command].default == IDLE_FIELD


def test_cli_calibration_defaults():
    params = cli_params("cal-steps")
    assert sorted(params) == ["adiabatic", "gate"]
    assert all(param.default == CALIBRATION_NODES for param in params.values())
