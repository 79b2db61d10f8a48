"""Every ``python`` block and every ``trispin`` command line of the README runs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from trispin import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
# the arguments of each "trispin ..." line of the plain fenced blocks, comments dropped
COMMANDS = [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```\n(.*?)^```", TEXT, flags=re.DOTALL | re.MULTILINE)
            for line in block.splitlines() if line.startswith("trispin ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("args", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_readme_command_line_runs(args, tmp_path, monkeypatch, capsys):
    # the config example reads run.cfg; an empty one leaves every default
    (tmp_path / "run.cfg").write_text("")
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 0
    stdout = capsys.readouterr().out
    artifacts = [p for p in tmp_path.iterdir() if p.name != "run.cfg"]
    assert len(artifacts) == 1
    # the numbers the comments promise
    if args[0] == "sweep-field":
        assert abs(float(stdout.split("h* =")[1]) - 0.75) <= 1e-6
    if args[:5] == ["units", "--J", "7", "--g", "0.44"]:
        assert abs(json.loads(artifacts[0].read_text())["gap_microev"] - 5.25) <= 1e-9
