"""Workloads of the ribbonband benchmark: generated inputs, operations, checks.

A workload is a fixed *round* of operations.  Its structure (which
commands, at which sizes, how many of each) never depends on the seed; the
seed only draws the numbers: potentials, field scales, band indices and
which potential kind goes with which width.  A run executes whole rounds,
so every run of a workload measures the same mix of operations, and the
latency quantiles and the throughput stay comparable between runs, and
between a program and a faster version of it that fits more rounds into
the same time.

An operation is one CLI command (`ribbonband.cli.main(argv)`, in process)
or one library call.  Each one is checked after it returns, outside the
timed region, against a result computed another way; the SHA-256 of its
output bytes is recorded, so a later version can show its results did not
change.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

GRID_POINTS = 401          # the CLI's and the library's default a grid
SCAN_POINTS = 4001         # fine grid of the independent extremum check
VALUE_TOL = 1e-9           # CSV / report values against LAPACK, times scale
WIDE_TOL = 1e-10           # eigenvalues_batch against scipy, times scale
ORACLE_TOL = 1e-8          # the two-route oracle's own bound

ASY_HEADER = ("band,predicted_lo,predicted_hi,measured_lo,measured_hi,"
              "abs_err_lo,abs_err_hi")

# Percentile reported as op_tail_s.  It is fixed per workload, so that runs
# with more rounds (a faster program) report the same quantile of the same
# mix; each is the highest percentile that leaves at least 10 operations of
# a run beyond it at 25 s of measurement on a 2-core x86-64 shared VM
# (cli_mix: 1 round of 30 ops; wide_scan: 2 or 3 rounds of 24;
# oracle_xcheck: 1 round of 30).
TAIL_QUANTILE = {"cli_mix": 0.65, "wide_scan": 0.75, "oracle_xcheck": 0.65}


@dataclass
class Op:
    """One operation: `call` is timed; `verify(result)` is not, and returns
    (output bytes, failure reason or None)."""

    label: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[bytes, str | None]]


class Context:
    """The program under test and a directory for CLI output files."""

    def __init__(self, package, cli, out_dir: str):
        self.rb = package
        self.cli = cli
        self.out_dir = out_dir
        self._serial = 0

    def out_path(self) -> str:
        self._serial += 1
        return os.path.join(self.out_dir, f"op{self._serial}")


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def jacobi_dense(v, a_values) -> np.ndarray:
    """Dense J_a for every a: diagonal v, off-diagonals a, 1, a, 1, ..."""
    v = np.asarray(v, dtype=float)
    a_values = np.asarray(a_values, dtype=float)
    p = v.shape[0]
    idx = np.arange(p)
    off = np.where(idx[:-1] % 2 == 0, a_values[:, None], 1.0)
    M = np.zeros((a_values.shape[0], p, p))
    M[:, idx, idx] = v
    M[:, idx[:-1], idx[1:]] = off
    M[:, idx[1:], idx[:-1]] = off
    return M


def band_scan(v) -> np.ndarray:
    """Sorted eigenvalues of J_a on the fine grid, shape (SCAN_POINTS, p)."""
    return np.linalg.eigvalsh(jacobi_dense(v, np.linspace(0.0, 2.0, SCAN_POINTS)))


def extremum_error(scan_col, lo: float, hi: float, scale: float) -> str | None:
    """None when (lo, hi) are the extrema of the band sampled in scan_col.

    |d lambda / da| <= 1 (dJ/da is a sum of disjoint 2x2 swaps), so the true
    minimum lies within half a fine-grid step, 1/(SCAN_POINTS-1), below the
    scanned one, and a refined minimum may not sit above any scanned value.
    Likewise for the maximum.
    """
    eps = VALUE_TOL * scale
    h = 1.0 / (SCAN_POINTS - 1)
    smin, smax = float(scan_col.min()), float(scan_col.max())
    if not smin - h - eps <= lo <= smin + eps:
        return f"min {lo!r} outside [{smin - h!r}, {smin!r}] of the fine scan"
    if not smax - eps <= hi <= smax + h + eps:
        return f"max {hi!r} outside [{smax!r}, {smax + h!r}] of the fine scan"
    return None


def potential_arg(v) -> str:
    # A list is passed as one "--potential=<list>" token: as two tokens, a
    # list starting with a negative value ("--potential -0.3,...") is taken
    # by argparse for a flag and the CLI exits 2.
    return "--potential=" + ",".join(repr(float(x)) for x in v)


def _potential(kind: str, N: int, rng) -> tuple[np.ndarray, str]:
    """A potential of the named kind and its --potential argument."""
    p = 2 * N + 1
    if kind == "zero":
        return np.zeros(p), "--potential=zero"
    if kind == "ramp":
        return np.arange(1.0, p + 1.0), "--potential=ramp"
    v = rng.uniform(-1.0, 1.0, p)
    if kind == "flat":  # flat-band criterion: every odd site equals v_1
        v[0::2] = v[0]
    return v, potential_arg(v)


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def _cli_op(ctx: Context, label: str, argv: list, check, outputs=("",)) -> Op:
    out = ctx.out_path()
    argv = list(argv) + ["--out", out]
    paths = [out + suffix for suffix in outputs]

    def call():
        return ctx.cli.main(argv)

    def verify(rc):
        blobs = []
        for path in paths:
            try:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
                os.remove(path)
            except FileNotFoundError:
                blobs.append(None)
        payload = b"".join(b for b in blobs if b is not None)
        if rc != 0:
            return payload, f"exit code {rc}"
        if any(b is None for b in blobs):
            return payload, "missing output file"
        try:
            return payload, check(*blobs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return payload, f"unreadable output: {exc!r}"

    return Op(label, call, verify)


def bands_op(ctx: Context, N: int, kind: str, rng) -> Op:
    v, pot = _potential(kind, N, rng)

    def check(csv_bytes, report_bytes):
        lines = csv_bytes.decode().splitlines()
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        if data.shape != (GRID_POINTS, 2 * N + 2):
            return f"CSV shape {data.shape}"
        ref = np.linalg.eigvalsh(jacobi_dense(v, data[:, 0]))
        scale = max(1.0, float(np.abs(ref).max()))
        dev = float(np.abs(data[:, 1:] - ref).max())
        if dev > VALUE_TOL * scale:
            return f"CSV deviates from eigvalsh by {dev:.3e}"
        report = json.loads(report_bytes)
        scan = band_scan(v)
        for b in report["bands"]:
            reason = extremum_error(scan[:, b["k"] + N], b["lo"], b["hi"], scale)
            if reason:
                return f"band {b['k']}: {reason}"
        if kind == "zero":
            closed = ctx.rb.unperturbed_spectrum(N).bands
            for b, (k, lo, hi, _) in zip(report["bands"], closed):
                if abs(b["lo"] - lo) > VALUE_TOL or abs(b["hi"] - hi) > VALUE_TOL:
                    return f"band {k} off the closed form [{lo!r}, {hi!r}]"
        if kind == "flat" and not any(
            b["flat"] and abs(b["value"] - v[0]) <= VALUE_TOL * scale
            for b in report["bands"]
        ):
            return f"no flat band reported at v_1 = {v[0]!r}"
        return None

    argv = ["bands", "--N", str(N), pot, "--format", "json"]
    return _cli_op(ctx, f"bands N={N} {kind}", argv, check,
                   outputs=("", ".report.json"))


def _asy_check(v_eff, rows: dict, extra: tuple):
    """Check an asymptotics CSV: rows maps a row label to its band index k
    of the potential v_eff; extra lists the trailing summary row labels."""

    def check(csv_bytes):
        lines = csv_bytes.decode().splitlines()
        if lines[0] != ASY_HEADER:
            return "unexpected header"
        cells = [ln.split(",") for ln in lines[1:]]
        labels = [c[0] for c in cells]
        if labels != list(rows) + list(extra):
            return f"rows {labels}"
        scan = band_scan(v_eff)
        scale = max(1.0, float(np.abs(scan).max()))
        for c in cells[: len(rows)]:
            k = rows[c[0]]
            mlo, mhi = float(c[3]), float(c[4])
            reason = extremum_error(scan[:, k + (len(v_eff) - 1) // 2], mlo, mhi, scale)
            if reason:
                return f"row {c[0]}: {reason}"
            for pi, mi, ei in ((1, 3, 5), (2, 4, 6)):
                if c[pi] and abs(float(c[ei]) - abs(float(c[pi]) - float(c[mi]))) > VALUE_TOL * scale:
                    return f"row {c[0]}: abs_err column inconsistent"
        return None

    return check


def asymptotics_op(ctx: Context, mode: str, N: int, rng) -> Op:
    p = 2 * N + 1
    argv = ["asymptotics", "--N", str(N), "--mode", mode]
    if mode == "weak":
        v = rng.uniform(-1e-3, 1e-3, p)
        argv.append(potential_arg(v))
        check = _asy_check(v, {"0": 0}, ("order_slope",))
    elif mode == "edges":
        v = rng.uniform(-1e-4, 1e-4, p)
        argv.append(potential_arg(v))
        check = _asy_check(v, {str(k): k for k in range(-N, N + 1) if k}, ())
    elif mode == "constant-field":
        eps = float(rng.uniform(1e-4, 1e-2))
        argv.append(f"--potential=constant-field {eps!r}")
        v = np.zeros(p)
        v[0::2] = eps * np.arange(N + 1)
        check = _asy_check(v, {"0": 0}, ("C_p",))
    elif mode == "strong":
        # strictly increasing, spacing >= 0.5, centred so it starts negative;
        # t sits 2..50x above the validity threshold 10 / min spacing, so the
        # spectrum scale (and the bisection depth) varies widely.
        v = np.cumsum(rng.uniform(0.5, 1.5, p))
        v -= v.mean()
        t = 10.0 / float(np.min(np.diff(v))) * float(rng.uniform(2.0, 50.0))
        argv += [potential_arg(v), "--t", repr(t)]
        check = _asy_check(t * v, {str(s): s - 1 - N for s in range(1, p + 1)},
                           ("order_slope",))
    else:
        raise ValueError(f"unknown asymptotics mode {mode!r}")
    return _cli_op(ctx, f"asymptotics {mode} N={N}", argv, check)


def flatband_op(ctx: Context, N: int, rng) -> Op:
    v, pot = _potential("flat", N, rng)
    L = 2 * N + 4 + int(rng.integers(0, 4))
    m = int(rng.integers(N, L))  # support [m-N, m] stays inside 0..L-1

    def check(json_bytes):
        res = json.loads(json_bytes)
        if res["residual"] != 0.0:
            return f"residual {res['residual']!r} is not exactly 0"
        state = np.zeros((L, 2 * N + 1))
        for row in res["rows"]:
            state[row["positions"], row["row"] - 1] = row["coeffs"]
        psi = state.ravel()
        if state[m, 0] != 1.0 or np.count_nonzero(state[:, 0]) != 1:
            return "row 1 is not a single +1 at the anchor"
        H = ctx.rb.build_ribbon(ctx.rb.RibbonParams(N, v), L, "open").toarray()
        resid = float(np.abs(H @ psi - v[0] * psi).max())
        return None if resid == 0.0 else f"dense residual {resid:.3e}"

    argv = ["flatband", "--N", str(N), pot, "--m", str(m), "--L", str(L),
            "--format", "json"]
    return _cli_op(ctx, f"flatband N={N}", argv, check)


def verify_op(ctx: Context, corrupt_offdiag: float = 0.0) -> Op:
    """`ribbonband verify`; a nonzero corruption is the negative control,
    which must exit 1 and so be counted as failed."""

    def check(json_bytes):
        return None if json.loads(json_bytes)["all_pass"] is True else "all_pass false"

    argv = ["verify", "--format", "json"]
    if corrupt_offdiag:
        argv += ["--selftest-corrupt-offdiag", repr(corrupt_offdiag)]
    return _cli_op(ctx, "verify", argv, check)


# ---------------------------------------------------------------------------
# library operations
# ---------------------------------------------------------------------------

def _tridiagonal_reference(v, a: float, select_index=None) -> np.ndarray:
    e = np.where(np.arange(len(v) - 1) % 2 == 0, a, 1.0)
    if select_index is None:
        return scipy.linalg.eigvalsh_tridiagonal(v, e)
    return scipy.linalg.eigvalsh_tridiagonal(
        v, e, select="i", select_range=(select_index, select_index))


def _array_result(ref_fn):
    """verify() for a library call returning an array, against ref_fn()."""

    def verify(values):
        values = np.ascontiguousarray(values, dtype=float)
        ref = ref_fn()
        if values.shape != ref.shape:
            return values.tobytes(), f"shape {values.shape}, expected {ref.shape}"
        scale = max(1.0, float(np.abs(ref).max()))
        dev = float(np.abs(values - ref).max())
        reason = None if dev <= WIDE_TOL * scale else f"deviates from scipy by {dev:.3e}"
        return values.tobytes(), reason

    return verify


def eigenvalues_batch_op(ctx: Context, N: int, rng) -> Op:
    params = ctx.rb.RibbonParams(N, rng.uniform(-1.0, 1.0, 2 * N + 1))
    grid = np.linspace(0.0, 2.0, GRID_POINTS)
    ref = _array_result(lambda: np.array(
        [_tridiagonal_reference(params.v, a) for a in grid]))
    return Op(f"eigenvalues_batch N={N}",
              lambda: ctx.rb.eigenvalues_batch(params, grid), ref)


def band_function_op(ctx: Context, N: int, rng) -> Op:
    params = ctx.rb.RibbonParams(N, rng.uniform(-1.0, 1.0, 2 * N + 1))
    k = int(rng.integers(-N, N + 1))
    grid = np.linspace(0.0, 2.0, GRID_POINTS)
    ref = _array_result(lambda: np.array(
        [_tridiagonal_reference(params.v, a, k + N)[0] for a in grid]))
    return Op(f"band_function N={N}", lambda: ctx.rb.band_function(k, params), ref)


def oracle_op(ctx: Context, N: int, L: int, rng) -> Op:
    params = ctx.rb.RibbonParams(N, rng.uniform(-1.0, 1.0, 2 * N + 1))
    rb = ctx.rb

    def call():
        A = rb.periodic_ribbon_spectrum(params, L)
        B = rb.bloch_union_spectrum(params, L)
        return A, B, rb.compare_multisets(A, B, ORACLE_TOL)

    def verify(result):
        A, B, rep = result
        payload = (np.ascontiguousarray(A).tobytes() + np.ascontiguousarray(B).tobytes()
                   + repr((rep.max_pairwise_deviation, rep.unmatched_count, rep.size)).encode())
        n = L * params.p
        if A.shape != (n,) or B.shape != (n,) or rep.size != n:
            return payload, f"spectrum sizes {A.shape}, {B.shape}, paired {rep.size}; expected {n}"
        if rep.unmatched_count:
            return payload, (f"{rep.unmatched_count} unmatched at {ORACLE_TOL:g} "
                             f"(max deviation {rep.max_pairwise_deviation:.3e})")
        return payload, None

    return Op(f"oracle_xcheck N={N} L={L} n={L * params.p}", call, verify)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

KINDS = ("random", "ramp", "flat", "zero")


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Spread the members of each group evenly over the round.

    Machine speed drifts over seconds on a shared host; spreading every
    kind of operation over the whole round lets each latency quantile
    sample the whole run rather than one stretch of it.
    """
    keyed = [((j + 0.5) / len(group), g, op)
             for g, group in enumerate(groups) for j, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


def cli_mix_round(ctx: Context, rng, tiny: bool) -> list[Op]:
    """In-process CLI commands.

    Why: over 95% of the time is golden-section refinement of band extrema,
    made of 1x1 bisection calls, the path a batched refinement would
    replace.  Strong mode adds large-scale potentials, which change the
    bisection depth.  The round holds 8 `bands` (N = 1..4 over all four
    potential kinds), 15 `asymptotics` in all four modes, 5 `flatband` and
    one `verify`: 30 operations, about 24 s on a 2-core x86-64 shared VM.
    """
    if tiny:
        return [
            bands_op(ctx, 1, "random", rng),
            bands_op(ctx, 1, "zero", rng),
            asymptotics_op(ctx, "constant-field", 1, rng),
            asymptotics_op(ctx, "edges", 1, rng),
            asymptotics_op(ctx, "weak", 1, rng),
            asymptotics_op(ctx, "strong", 1, rng),
            flatband_op(ctx, 1, rng),
            verify_op(ctx),
        ]
    shift = int(rng.integers(len(KINDS)))

    def kind(i):
        return KINDS[(shift + i) % len(KINDS)]

    return interleave([
        [verify_op(ctx)],
        [bands_op(ctx, 1, kind(i), rng) for i in range(4)],
        [bands_op(ctx, 2, kind(i), rng) for i in range(2)],
        [bands_op(ctx, 3, kind(2), rng), bands_op(ctx, 4, kind(3), rng)],
        [asymptotics_op(ctx, "constant-field", 1 + i % 4, rng) for i in range(10)],
        [asymptotics_op(ctx, "edges", N, rng) for N in (1, 1, 2)],
        [asymptotics_op(ctx, "weak", N, rng) for N in (1, 2)],
        [asymptotics_op(ctx, "strong", 1, rng)],
        [flatband_op(ctx, N, rng) for N in (1, 2, 3, 1, 2)],
    ])


WIDE_BATCH_N = (16, 18, 20, 22, 24, 26, 28, 30, 32, 36, 40, 44, 48, 64)
WIDE_BAND_N = (16, 20, 24, 28, 32, 36, 40, 48, 56, 64)


def wide_scan_round(ctx: Context, rng, tiny: bool) -> list[Op]:
    """Library eigenvalues_batch over the full 401-point grid (all p
    indices) and band_function, at N = 16..64.

    Why: almost all the work is the vectorised Sturm kernel in wide
    (rows x p) batches, with no refinement: the same kernel as cli_mix in
    another shape, so a change that helps 1x1 refinement calls but slows
    wide batches, or the reverse, shows here.  24 operations, about 9 s.
    """
    batch_n, band_n = ((2, 3), (2,)) if tiny else (WIDE_BATCH_N, WIDE_BAND_N)
    return interleave([[eigenvalues_batch_op(ctx, N, rng) for N in batch_n],
                       [band_function_op(ctx, N, rng) for N in band_n]])


def _small_sections() -> list[tuple[int, int]]:
    """Every (N, L) with N <= 7 whose section has 60..72 sites."""
    return [(N, L) for N in range(1, 8) for L in range(3, 30)
            if 60 <= L * (2 * N + 1) <= 72]


ORACLE_LARGE = ((5, 22), (5, 15), (4, 14), (2, 20), (3, 13), (2, 16))


def oracle_xcheck_round(ctx: Context, rng, tiny: bool) -> list[Op]:
    """Library two-route cross-check: compare_multisets of the periodic
    section's spectrum and the Bloch union, at 1e-8, for sections of
    L*p = 60..242 sites (the oracle's cap is 500).

    Why: the Python-loop cyclic Jacobi oracle is O(n^3) and takes about 95%
    of the time here; cli_mix barely reaches it (n <= 70 inside verify).
    Most sections are small (60..72 sites) so a run holds enough operations
    for its quantiles; six larger ones, up to 242 sites, show the growth.
    30 operations, 15..24 s.
    """
    if tiny:
        sizes = [(1, 4), (2, 3)]
    else:
        small = _small_sections()
        sizes = list(ORACLE_LARGE) + (small * 2)[:24]
    return interleave([[oracle_op(ctx, N, L, rng) for N, L in sizes]])


ROUNDS = {
    "cli_mix": cli_mix_round,
    "wide_scan": wide_scan_round,
    "oracle_xcheck": oracle_xcheck_round,
}


def warmup_ops(workload: str, ctx: Context, rng) -> list[Op]:
    """Small untimed operations that load every code path of a workload."""
    if workload == "cli_mix":
        return [bands_op(ctx, 1, "zero", rng),
                asymptotics_op(ctx, "constant-field", 1, rng),
                flatband_op(ctx, 1, rng)]
    if workload == "wide_scan":
        return [eigenvalues_batch_op(ctx, 2, rng), band_function_op(ctx, 2, rng)]
    return [oracle_op(ctx, 1, 4, rng)]
