"""Compare the CLI's results on two source trees, command by command.

    python tools/bytecheck.py BASE_TREE [HEAD_TREE]

For each tree (HEAD_TREE defaults to this checkout), one child process puts
the tree's ``src/`` first on the path, sets ``OPENBLAS_NUM_THREADS=1`` and
runs ``trispin.cli.main`` in process on every argv of ``COMMANDS``, each in a
fresh temporary directory.  Each command
whose exit code, stdout, stderr or artifact bytes differ is printed with its
first differing line.  The exit status is 1 if any differs, else 0.  With
``.`` as BASE_TREE the checkout runs against itself, which checks that every
command gives the same bytes in two processes.

This is a tool, not a test: artifact bytes differ across numpy versions and
BLAS builds, so only two trees run on one machine can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
HUGE = "1.7976931348623157e308"

# every command in every format it writes, then the edge cases: general
# graphs, values that start with "-" after a space, huge and non-finite
# fields, requests past a cap, bad input, a flag without its value, a prefix
# of a flag, a triangle coupling beside --edges and the empty schedule
COMMANDS = [
    ["spectrum"], ["spectrum", "--format", "csv"],
    ["spectrum", "--n-sites", "4", "--edges", "0-1:1,1-2:0.5,2-3:1,0-3:0.25", "--h", "0.3"],
    ["spectrum", "--n-sites", "4", "--edges", "0-1:1,1-2:1,2-3:1", "--format", "csv"],
    ["spectrum", "--n-sites", "6", "--h", "0.5",
     "--edges", "0-1:1,1-2:0.7,2-3:1.2,3-4:0.4,4-5:1,0-5:0.3,1-4:0.9,2-5:0.6"],
    ["spectrum", "--n-sites", "2", "--edges", ""],
    ["sweep-field"], ["sweep-field", "--format", "json"],
    ["sweep-intra"], ["sweep-intra", "--which", "j12", "--format", "json"],
    ["sweep-intra", "--which", "j13", "--points", "41"],
    ["sweep-inter"], ["sweep-inter", "--format", "json"],
    # sweeps off their defaults: other fields, a crossing on a grid point
    # (j23 = 0.25), a field grid with a negative gap at both ends
    ["sweep-intra", "--h", "0.5"],
    ["sweep-intra", "--which", "j12", "--h", "1.2", "--format", "json"],
    ["sweep-intra", "--which", "j23", "--min", "0.25", "--max", "1.75", "--points", "3",
     "--format", "json"],
    ["sweep-field", "--min", "-0.5", "--max", "2.0", "--points", "51", "--format", "json"],
    ["sweep-inter", "--h", "0.6", "--min", "0.5", "--max", "1.0", "--points", "41",
     "--format", "json"],
    ["lambdas"], ["lambdas", "--format", "json"], ["lambdas", "--points", "1"],
    ["lambdas", "--h", "1e300", "--points", "3"],
    ["verify-eq7"], ["verify-eq7", "--grid", "0:0.5:3", "--h", "0.3"],
    ["gate"], ["gate", "--type", "rx", "--theta=-pi/4"],
    ["gate", "--type", "rx", "--theta", "-pi/4"], ["lambdas", "--h", "-1e-3", "--points", "3"],
    ["gate", "--type", "axis120", "--which", "j13"],
    ["gate", "--type", "su2", "--euler", "pi/2,pi/3,-pi/4"],
    ["gate", "--type", "cphase"], ["gate", "--type", "cphase", "--mode", "sequential"],
    ["gate", "--type", "cphase", "--ramp-shape", "linear", "--j14", "0.3"],
    ["gate", "--type", "cphase", "--j14", "0.1", "--ramp-time", "10", "--steps-per-unit", "20"],
    ["gate", "--type", "cphase", "--phi", "0"],
    ["gate", "--type", "rx", "--h", "1.7e308"],
    ["adiabatic", "--j14", "0.3", "--ramp-times", "2,4"],
    ["adiabatic", "--j14", "0.3", "--ramp-times", "2,4", "--format", "json"],
    ["units"], ["units", "--J", "7", "--g", "0.44", "--h", "0.75"],
    # exit 2, 3 and 4
    ["sweep-field", "--points", "10001"], ["spectrum", "--n-sites", "99", "--edges", "0-1:1"],
    ["units", "--format", "csv"], ["gate", "--type", "su2"], ["sweep-field", "--points"],
    ["lambdas", "--h", "nan"], ["verify-eq7", "--h", "inf"], ["sweep-inter", "--h", HUGE],
    ["sweep-field", "--max", HUGE, "--points", "3"], ["lambdas", "--max", HUGE, "--points", "3"],
    ["units", "--h", HUGE], ["units", "--h", "1e300", "--j", "1e10"],
    ["sweep-field", "--poin", "5"],
    ["spectrum", "--n-sites", "3", "--edges", "0-1:1", "--j12", "5"],
]

# run in the child: argv lists on stdin, one result per argv on stdout
CHILD = r"""
import contextlib, io, json, os, pathlib, sys, tempfile
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from trispin import cli

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        files = {p.name: p.read_bytes().decode("latin-1")
                 for p in sorted(pathlib.Path().iterdir())}
        os.chdir("/")
    results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                    "files": files})
json.dump(results, sys.stdout)
"""


def run_tree(tree: str, commands: list[list[str]]) -> list[dict]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(tree).resolve())],
                          input=json.dumps(commands), env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode:
        sys.exit(f"the commands could not run on {tree} (exit {proc.returncode})")
    return json.loads(proc.stdout)


def first_difference(a: str, b: str) -> str:
    """The first line at which ``a`` and ``b`` differ, both versions."""
    lines_a, lines_b = a.split("\n"), b.split("\n")
    k = next(k for k in range(max(len(lines_a), len(lines_b)))
             if lines_a[k:k + 1] != lines_b[k:k + 1])
    return f"line {k + 1}: {lines_a[k:k + 1]} != {lines_b[k:k + 1]}"


def differences(base: dict, head: dict) -> list[str]:
    found = [f"{key}: {first_difference(str(base[key]), str(head[key]))}"
             for key in ("exit", "stdout", "stderr") if base[key] != head[key]]
    if base["files"].keys() != head["files"].keys():
        found.append(f"files: {sorted(base['files'])} != {sorted(head['files'])}")
    found += [f"{name}: {first_difference(text, head['files'][name])}"
              for name, text in base["files"].items()
              if name in head["files"] and text != head["files"][name]]
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base_tree")
    parser.add_argument("head_tree", nargs="?", default=str(REPO))
    args = parser.parse_args(argv)
    for tree in (args.base_tree, args.head_tree):
        if not (Path(tree) / "src" / "trispin" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/trispin/cli.py")
    base, head = run_tree(args.base_tree, COMMANDS), run_tree(args.head_tree, COMMANDS)
    differing = 0
    for command, a, b in zip(COMMANDS, base, head):
        found = differences(a, b)
        if found:
            differing += 1
            print("trispin " + " ".join(command))
            print("".join(f"  {line}\n" for line in found), end="")
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
