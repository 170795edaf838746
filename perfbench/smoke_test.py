"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that no operation fails at tiny sizes, that a corrupted oracle is counted
as a failed operation (the correctness gate can fail), and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def _result(workload: str, trace: int):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, out.stdout
    assert any(ln.startswith("failed_frac = 0  (0 failed of ") for ln in lines)
    return lines, result


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_printed_and_nothing_fails():
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        lines, result = _result(workload, 0)
        assert _units(result) == expected, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float) and metric["value"] > 0, name
            assert any(ln.startswith(f"{name} = ") for ln in lines), name
        tail = next(ln for ln in lines if ln.startswith("op_tail_s = "))
        assert " ops, " in tail and " beyond" in tail, tail


def test_per_layer_metrics_printed():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        _, result = _result(workload, 1)
        assert _units(result) == expected, workload
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name


def test_corrupted_oracle_counts_as_failed():
    sys.path.insert(0, str(HERE))
    import run
    from workloads import Context, verify_op

    run.pin_threads()
    rb, cli = run.load_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        (record,) = run.run_ops([verify_op(Context(rb, cli, tmp), corrupt_offdiag=1e-3)])
    assert record["ok"] is False
    assert record["reason"] == "exit code 1"


def test_refuses_to_run_without_sources():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(WORKLOADS[0], 0, cwd=bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
