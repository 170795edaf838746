"""Golden-output corpus of the CLI: its commands, how they run, and how
their outputs are compared.

    PYTHONPATH=src python tests/golden.py

reruns every command in process and rewrites tests/data/golden_cli.json
with its exit code, stdout and stderr.  tests/test_golden.py reruns the
commands stored there and compares the outputs with compare(): every
label, count, flag and exit code must match exactly, and a number may
move by at most RTOL * scale, where a command's scale is max(1, max|v|)
over the potentials it solves.  Regenerate only on purpose, and say
which numbers moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np

from ribbonband.cli import _build_parser, main, resolve_potential

CORPUS = Path(__file__).resolve().parent / "data" / "golden_cli.json"
RTOL = 1e-13

# A number is a decimal with a point or an exponent.  Integers (band
# labels, counts, positions) stay in the text, which must match exactly.
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))")
# argparse's list of valid choices: Python 3.10 and 3.11 quote each
# choice, 3.12 does not, and compare() ignores the quotes inside it.
CHOICES = re.compile(r"\(choose from [^)]*\)")


def _unquote_choices(text: str) -> str:
    return CHOICES.sub(lambda m: m.group(0).replace("'", ""), text)


def _list(values, spec: str = ".3f") -> str:
    return ",".join(format(x, spec) for x in values)


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) of every command in the corpus."""
    rng = np.random.default_rng(2026)
    flat6 = rng.uniform(-1.0, 1.0, 13).round(3)
    flat6[0::2] = 0.25  # the flat-band criterion holds
    bands = [
        ("bands-N1", ["--N", "1", "--potential", "0.3,-0.5,0.1"]),
        ("bands-N2", ["--N", "2", "--potential", "ramp"]),
        ("bands-N4", ["--N", "4", "--potential", _list(rng.uniform(-1.0, 1.0, 9))]),
        ("bands-N6-flat", ["--N", "6", "--potential", _list(flat6)]),
        ("bands-N16", ["--N", "16", "--potential", _list(rng.uniform(-1.0, 1.0, 33))]),
    ]
    out = [(name, ["bands", *argv, "--grid", "21", "--format", "json"])
           for name, argv in bands]
    for N, edges in (("1", "1e-4,2e-4,0"), ("2", "1e-4,2e-4,0,1e-4,3e-4")):
        asy = ["asymptotics", "--N", N, "--mode"]
        out += [
            (f"weak-N{N}", [*asy, "weak", "--potential", "linear-odd 1e-3"]),
            (f"edges-N{N}", [*asy, "edges", "--potential", edges]),
            (f"constant-field-N{N}", [*asy, "constant-field", "--potential",
                                      "constant-field 1e-3"]),
            (f"strong-N{N}", [*asy, "strong", "--potential", "ramp", "--t", "100"]),
        ]
    asy = ["asymptotics", "--N", "16", "--mode"]
    out += [
        ("weak-N16", [*asy, "weak", "--potential",
                      _list(rng.uniform(-1e-3, 1e-3, 33), ".3e")]),
        ("constant-field-N16", [*asy, "constant-field", "--potential",
                                "constant-field 1e-3"]),
        ("flatband-N2", ["flatband", "--N", "2", "--potential", "0.5,0,0.5,0,0.5",
                         "--m", "3", "--L", "8"]),
        ("verify-json", ["verify", "--format", "json"]),
    ]
    strong1 = ["asymptotics", "--N", "1", "--mode", "strong"]
    return out + [  # the README's exit codes 2, 3 and 4
        ("unread-flag", ["bands", "--t", "1"]),
        ("N-not-int", ["bands", "--N", "2.5"]),
        ("format-choice", ["bands", "--format", "xml"]),
        ("named-potential-overflow", ["bands", "--N", "2", "--potential",
                                      "constant-field 1e308"]),
        ("strong-t-overflow", [*strong1, "--potential", "ramp", "--t", "1e308"]),
        ("strong-spacing-overflow", [*strong1, "--potential=-1e308,1e308,1.5e308",
                                     "--t", "1"]),
        ("flatband-L1", ["flatband", "--N", "1", "--potential", "0.5,0,0.5", "--L", "1"]),
        ("N-beyond-cap", ["bands", "--N", "4097"]),
        ("cells-beyond-cap", ["bands", "--N", "1", "--grid", "100000001"]),
        ("potential-file-missing", ["bands", "--potential", "no-such-dir/pot.txt"]),
        ("config-file-missing", ["bands", "--config", "no-such-dir/run.cfg"]),
        ("out-unwritable", ["bands", "--grid", "5", "--out", "no-such-dir/x.csv"]),
        ("bands-span-overflow", ["bands", "--N", "1", "--potential=1e308,-1e308,1e308"]),
        ("weak-overflow", ["asymptotics", "--N", "1", "--mode", "weak",
                           "--potential=1e308,1e308,1e308"]),
        ("edges-overflow", ["asymptotics", "--N", "1", "--mode", "edges",
                            "--potential=1e308,1e308,1e308"]),
        ("flatband-residual-overflow", ["flatband", "--N", "2", "--potential",
                                        "1e308,0,1e308,5,1e308"]),
        ("flatband-criterion", ["flatband", "--N", "2", "--potential",
                                "0.5,0,0.6,0,0.5"]),
        ("strong-not-increasing", [*strong1, "--potential=1e308,-1e308,1e308",
                                   "--t", "100"]),
        ("strong-below-threshold", [*strong1, "--potential", "ramp", "--t", "1"]),
    ]


def scale(argv: list[str]) -> float:
    """max(1, max|v|) over the potentials the command solves; 1 for a
    command that fails before it solves any."""
    if argv[0] == "verify":
        return 1200.0  # its top-band width check solves 400 * (1, 2, 3)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = _build_parser().parse_args(argv)
        vmax = float(np.max(np.abs(resolve_potential(args.potential, args.N))))
    except (Exception, SystemExit):
        return 1.0
    if getattr(args, "mode", None) == "strong" and args.t is not None:
        vmax *= 8.0 * args.t  # t and three doublings
    return max(1.0, vmax) if math.isfinite(vmax) else 1.0


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run.  Of a run
    that argparse ends, stderr keeps only its last line: the usage text
    before it varies with the Python version."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
    stderr = err.getvalue()
    if usage:
        stderr = stderr.splitlines()[-1] + "\n"
    return {"exit": code, "stdout": out.getvalue(), "stderr": stderr}


def compare(expected: dict, actual: dict) -> list[str]:
    """What moved between two runs of one corpus case: a changed exit code
    or text around the numbers (quotes inside argparse's choices list
    aside), or a number that moved by more than RTOL * expected["scale"]."""
    tol = RTOL * expected["scale"]
    moved = []
    if actual["exit"] != expected["exit"]:
        moved.append(f"exit code {expected['exit']} -> {actual['exit']}")
    for stream in ("stdout", "stderr"):
        old = NUMBER.split(_unquote_choices(expected[stream]))
        new = NUMBER.split(_unquote_choices(actual[stream]))
        if old[0::2] != new[0::2]:
            moved.append(f"{stream}: text changed\n--- expected\n{expected[stream]}"
                         f"--- got\n{actual[stream]}")
            continue
        for i in range(1, len(old), 2):
            if abs(float(old[i]) - float(new[i])) > tol:
                line = "".join(old[:i]).count("\n") + 1
                moved.append(f"{stream} line {line}: {old[i]} -> {new[i]} "
                             f"(moved {float(new[i]) - float(old[i]):.3e}, "
                             f"tolerance {tol:.1e})")
    return moved


def regenerate() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        os.chdir(scratch)  # the missing and unwritable paths are relative
        try:
            corpus = [{"name": name, "argv": argv, "scale": scale(argv), **run(argv)}
                      for name, argv in cases()]
        finally:
            os.chdir(cwd)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} cases, {CORPUS.stat().st_size} bytes -> {CORPUS}")


if __name__ == "__main__":
    regenerate()
