"""ribbonband benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  All load comes from this one process: a closed loop with one
client, which starts an operation only when the previous one returned.
BLAS/OpenMP threads are pinned to 1.

--trace 0 measures the end-to-end metrics: set-up time of a fresh process,
the median and tail operation latency, throughput and peak memory.
--trace 1 measures the per-layer metrics instead: an untraced pass of whole
rounds over half of --seconds, then the same rounds again with every
public function of the package wrapped in spans (see tracer.py).

Host-speed normalisation.  On a shared host the speed of identical work
wanders by +-25% over tens of seconds (measured on a 2-core x86-64 shared
VM), far more than a regression bound.  So a fixed reference kernel, which
does not touch ribbonband, runs between operations (and between set-up
processes), and each latency is scaled by REFERENCE_S over the mean of the
reference times measured just before and just after it: latencies read as
seconds on a host running the reference kernel in REFERENCE_S.  Raw
latencies are printed next to them and kept in the result file.  Span
times of the traced run are raw.

Every operation is checked outside the timed region; the last line of
stdout is the JSON result.  Per-operation records (latency, check result,
SHA-256 of the output bytes), provenance and the spans of a traced run are
written to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
REFERENCE_S = 0.007  # reference kernel time, typical on a 2-core x86-64 VM
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program():
    """Import ribbonband from this checkout's src/, never from elsewhere."""
    if not (SRC / "ribbonband" / "__init__.py").is_file():
        raise SystemExit(f"no ribbonband sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ribbonband
    import ribbonband.cli

    if Path(ribbonband.__file__).resolve().parent != SRC / "ribbonband":
        raise SystemExit(f"ribbonband imported from {ribbonband.__file__}, not {SRC}")
    return ribbonband, ribbonband.cli


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    ribbonband.cli, normalised like operation latencies by the reference
    kernel run just before and just after each spawn.  The child stamps the
    ready time itself: the parent's wait on a child exit polls in 50 ms
    steps and would quantise it."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import ribbonband.cli; print(repr(time.time()))")
    times = []
    ref_before = reference_kernel()
    for _ in range(repeats):
        t0 = time.time()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        raw = float(out.stdout) - t0
        ref_after = reference_kernel()
        times.append(raw * REFERENCE_S / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return times


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, rb) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ribbonband").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ribbonband": rb.__version__,
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process",
    }


def reference_kernel() -> float:
    """Median seconds, over 3 repeats, of fixed work mixing what the
    workloads do: many numpy calls on small arrays, numpy on 40k-element
    arrays, and interpreter loops.  Independent of ribbonband, so a change
    to the program cannot move it."""
    import numpy as np

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = np.linspace(0.0, 1.0, 64)
        for _ in range(300):
            x = np.where(x < 0.5, x * 1.0001, x - 1e-4)
        z = np.linspace(-1.0, 1.0, 40000)
        for _ in range(30):
            z = np.where(z > 0.0, z * 0.999, z + 1e-4)
        s = 0
        for i in range(30000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_ops(ops, tracer=None, first_op_id=0) -> list[dict]:
    """Run operations one after another; check each outside the timing.

    The reference kernel runs before the first operation and after each
    one; `reference_s` of an operation is the mean of its two neighbours.
    """
    records = []
    ref_before = reference_kernel()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result, error = op.call(), None
        except (Exception, SystemExit) as exc:  # argparse exits; count, go on
            result, error = None, f"raised {exc!r}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        ref_after = reference_kernel()
        reference = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        payload = b""
        if error is None:
            payload, error = op.verify(result)
        records.append({
            "label": op.label,
            "latency_s": latency,
            "reference_s": reference,
            "normalized_s": latency * REFERENCE_S / reference,
            "ok": error is None,
            "reason": error,
            "sha256": hashlib.sha256(payload).hexdigest(),
        })
    return records


def run_rounds(workload, seed, ctx, tiny, seconds=None, rounds=None, tracer=None):
    """Whole rounds: exactly `rounds`, or until another would pass `seconds`
    of summed operation latency (at least one).  Round r's inputs come from
    the seed and r alone, so a second pass repeats the same operations."""
    import numpy as np
    from workloads import ROUNDS

    records, busy, r = [], 0.0, 0
    while True:
        ops = ROUNDS[workload](ctx, np.random.default_rng([seed, r]), tiny)
        recs = run_ops(ops, tracer, first_op_id=len(records))
        for rec in recs:
            rec["round"] = r
        records += recs
        busy += sum(rec["latency_s"] for rec in recs)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif busy + busy / r > seconds:
            break
    return records, r


def ops_per_s(records, key="normalized_s") -> float:
    return len(records) / sum(rec[key] for rec in records)


def end_to_end(records, setup_times, q) -> tuple[dict, dict]:
    """Metrics from normalised latencies, and notes giving the raw ones.
    op_tail_s is the nearest-rank q-quantile."""
    n = len(records)
    rank = max(1, math.ceil(q * n))
    norm = sorted(rec["normalized_s"] for rec in records)
    raw = sorted(rec["latency_s"] for rec in records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(norm), "s"),
        "op_tail_s": (norm[rank - 1], "s"),
        "ops_per_s": (ops_per_s(records), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speed = statistics.median(REFERENCE_S / rec["reference_s"] for rec in records)
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes, normalised",
        "op_p50_s": f"{n} ops; raw {statistics.median(raw):.6g} s",
        "op_tail_s": f"p{q * 100:g} of {n} ops, {n - rank} beyond; raw {raw[rank - 1]:.6g} s",
        "ops_per_s": f"raw {ops_per_s(records, 'latency_s'):.6g} 1/s; "
                     f"host speed {speed:.4g} x reference",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_mix", "wide_scan", "oracle_xcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_threads()
    rb, cli = load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    from tracer import Tracer, per_layer_metrics
    from workloads import TAIL_QUANTILE, Context, warmup_ops

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance(args, rb)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ctx = Context(rb, cli, tmp)
        run_ops(warmup_ops(args.workload, ctx, np.random.default_rng([args.seed, 2**32])))
        if args.trace == 0:
            setup_times = measure_setup(2 if args.tiny else SETUP_REPEATS)
            records, rounds = run_rounds(args.workload, args.seed, ctx, args.tiny,
                                         seconds=args.seconds)
            metrics, notes = end_to_end(records, setup_times,
                                        TAIL_QUANTILE[args.workload])
            notes["ops_per_s"] = f"{len(records)} ops in {rounds} round(s); " + notes["ops_per_s"]
            traced_records = []
        else:
            untraced, rounds = run_rounds(args.workload, args.seed, ctx, args.tiny,
                                          seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install(rb)
            try:
                traced_records, _ = run_rounds(args.workload, args.seed, ctx, args.tiny,
                                               rounds=rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.save(str(OUT_DIR / f"{tag}-spans.npz"))
            metrics = per_layer_metrics(
                tracer, sum(rec["latency_s"] for rec in traced_records), len(traced_records),
                ops_per_s(traced_records), ops_per_s(untraced))
            notes = {"trace.op_time_s": f"base of every share.* ({rounds} round(s))"}
            records = untraced

    all_records = records + traced_records
    failed = sum(not rec["ok"] for rec in all_records)
    round0 = hashlib.sha256("".join(
        rec["sha256"] for rec in records if rec["round"] == 0).encode()).hexdigest()

    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        note = notes.get(name)
        print(f"{name} = {shown}" + (f"  ({note})" if note else ""))
    print(f"failed_frac = {failed / len(all_records):.6g}  ({failed} failed of "
          f"{len(all_records)} attempted)")
    print(f"outputs_sha256 (round 0) = {round0}")
    for rec in all_records:
        if not rec["ok"]:
            print(f"FAILED {rec['label']}: {rec['reason']}")

    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump({"provenance": prov, "notes": notes,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "outputs_sha256_round0": round0, "records": records,
                   "traced_records": traced_records}, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
