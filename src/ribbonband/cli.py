"""Command-line front end.

    ribbonband bands|flatband|asymptotics|verify [flags]

Flags: --N, --potential <name|path|comma-list>, --grid, --t, --mode,
--out, --format csv|json, --config <file>, plus --m/--L for flatband.
A config file is flat ``key = value`` text; command-line flags override
file values.  Exit codes: 0 ok, 1 verification failure, 2 config error,
3 numerical error, 4 criterion violation.

Numbers are serialized with 15 significant digits, fixed-point down to
magnitude 1e-4 and scientific below, so identical configs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    constant_field,
    constant_field_potential,
    first_order_lower_edge,
    first_order_upper_edge,
    order_check,
    strong_field,
    weak_field_center,
    weak_field_edges,
)
from .bands import band_interval, flat_band_criterion, spectrum_report
from .errors import (
    BoundaryClashError,
    ConfigError,
    CriterionViolation,
    NumericalError,
)
from .jacobi import (
    JacobiMatrix,
    a_of_t,
    eigenvalues,
    eigenvalues_batch,
    jacobi_matrix,
    unperturbed_eigenvalue,
)
from .lattice import RibbonParams, flat_band_vector, verify_flat_eigen
from .oracle import compare_multisets, periodic_ribbon_spectrum


def fmt15(x: float) -> str:
    """15 significant digits; fixed notation for |x| >= 1e-4 (and 0)."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite result {x}")
    if x == 0.0:
        return "0.00000000000000"
    ax = abs(x)
    if ax >= 1e-4:
        lead = int(math.floor(math.log10(ax))) + 1
        return f"{x:.{max(15 - lead, 0)}f}"
    return f"{x:.14e}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_NAMED_POTENTIALS = ("zero", "ramp", "constant-field", "linear-odd")


def resolve_potential(text: str, N: int) -> np.ndarray:
    """Turn a potential description into the length-p vector.

    Accepted: "zero"; "ramp" (1..p); "constant-field EPS" (odd sites
    eps*k, even 0); "linear-odd EPS" (odd sites eps*site_index, even 0);
    a comma-separated list of p reals; or a path to a file of numbers.
    Separators in named forms may be space, '=' or ':'.
    """
    p = 2 * N + 1
    t = text.strip()
    if t == "zero":
        return np.zeros(p)
    if t == "ramp":
        return np.arange(1.0, p + 1.0)
    tokens = t.replace("=", " ").replace(":", " ").split()
    if tokens and tokens[0] in ("constant-field", "linear-odd"):
        if len(tokens) != 2:
            raise ConfigError(
                f"potential '{tokens[0]}' needs one parameter, e.g. "
                f"'{tokens[0]} 1e-3'"
            )
        try:
            eps = float(tokens[1])
        except ValueError as exc:
            raise ConfigError(f"bad potential parameter {tokens[1]!r}") from exc
        v = np.zeros(p)
        k = np.arange(N + 1)
        v[0::2] = eps * k if tokens[0] == "constant-field" else eps * (2 * k + 1)
        return v
    if os.path.exists(t):
        raw = open(t).read().replace(",", " ").split()
        try:
            vals = [float(x) for x in raw]
        except ValueError as exc:
            raise ConfigError(f"potential file {t} holds non-numeric data") from exc
        if len(vals) != p:
            raise ConfigError(
                f"potential file {t} holds {len(vals)} values, need p={p}"
            )
        return np.asarray(vals)
    if "," in t:
        try:
            vals = [float(x) for x in t.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad potential list {t!r}") from exc
        if len(vals) != p:
            raise ConfigError(f"potential list has {len(vals)} entries, need p={p}")
        return np.asarray(vals)
    raise ConfigError(
        f"unrecognized potential {text!r}; use one of {_NAMED_POTENTIALS}, "
        "a comma-list, or a file path"
    )


@dataclass
class RunConfig:
    """Resolved run configuration (file values overridden by flags)."""

    N: int = 1
    potential: str = "zero"
    grid_points: int = 401
    t: float | None = None
    mode: str | None = None
    output_format: str = "csv"
    output_path: str | None = None
    params: RibbonParams = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if self.grid_points < 3 or self.grid_points % 2 == 0:
            raise ConfigError(
                f"grid_points must be odd and >= 3, got {self.grid_points}"
            )
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.output_format}")
        self.params = RibbonParams(N=self.N, v=resolve_potential(self.potential, self.N))

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 2.0, self.grid_points)


_CONFIG_KEYS = {
    "N": ("N", int),
    "potential": ("potential", str),
    "grid": ("grid_points", int),
    "grid_points": ("grid_points", int),
    "t": ("t", float),
    "mode": ("mode", str),
    "format": ("output_format", str),
    "output_format": ("output_format", str),
    "out": ("output_path", str),
    "output_path": ("output_path", str),
}


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} not found")
    out: dict = {}
    for lineno, line in enumerate(open(path), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        dest, cast = _CONFIG_KEYS[key]
        try:
            out[dest] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for flag, dest in (
        ("N", "N"),
        ("potential", "potential"),
        ("grid", "grid_points"),
        ("t", "t"),
        ("mode", "mode"),
        ("format", "output_format"),
        ("out", "output_path"),
    ):
        v = getattr(args, flag, None)
        if v is not None:
            values[dest] = v
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def _report_dict(config: RunConfig) -> dict:
    rep = spectrum_report(config.params, config.grid)
    bands = []
    for k, lo, hi, is_flat in rep.bands:
        row = {"k": k, "lo": lo, "hi": hi, "flat": bool(is_flat)}
        if is_flat:
            row["value"] = 0.5 * lo + 0.5 * hi
        bands.append(row)
    return {
        "N": config.N,
        "bands": bands,
        "gaps": [list(g) for g in rep.gaps],
        "multiplicity_windows": [
            {"interval": list(iv), "count": c} for iv, c in rep.multiplicity_windows
        ],
    }


def _report_text(report: dict) -> str:
    lines = [f"spectrum report (N={report['N']})"]
    for b in report["bands"]:
        tail = f"  flat (value = {fmt15(b['value'])})" if b["flat"] else ""
        lines.append(
            f"  band k={b['k']:+d}: [{fmt15(b['lo'])}, {fmt15(b['hi'])}]{tail}"
        )
    for g in report["gaps"]:
        lines.append(f"  gap: ({fmt15(g[0])}, {fmt15(g[1])})")
    for w in report["multiplicity_windows"]:
        lines.append(
            f"  window ({fmt15(w['interval'][0])}, {fmt15(w['interval'][1])}): "
            f"{w['count']} band(s)"
        )
    return "\n".join(lines) + "\n"


def cmd_bands(config: RunConfig) -> tuple[str, dict]:
    """Band CSV (one row per grid point) plus the spectrum report."""
    grid = config.grid
    values = eigenvalues_batch(config.params, grid)
    N = config.N
    header = "a," + ",".join(f"lambda_{k}" for k in range(-N, N + 1))
    rows = [header]
    for i, a in enumerate(grid):
        rows.append(",".join([fmt15(a)] + [fmt15(x) for x in values[i]]))
    csv_text = "\n".join(rows) + "\n"
    return csv_text, _report_dict(config)


# ---------------------------------------------------------------------------
# flatband
# ---------------------------------------------------------------------------

def cmd_flatband(config: RunConfig, m: int, L: int) -> dict:
    """Flat-band eigenvector rows (exact integers) and verified residual."""
    params = config.params
    if not flat_band_criterion(params):
        odd = params.v[0::2]
        bad = int(np.nonzero(odd != params.v[0])[0][0])
        raise CriterionViolation(
            f"flat-band criterion violated at v{2 * bad + 1}"
        )
    psi = flat_band_vector(params.N, m)
    residual = verify_flat_eigen(params, psi, L)
    rows = []
    for k in range(params.N + 1):
        entries = psi.row_entries(k)
        rows.append(
            {
                "row": 2 * k + 1,
                "positions": [n for n, _ in entries],
                "coeffs": [c for _, c in entries],
            }
        )
    return {"m": m, "L": L, "value": params.v[0], "rows": rows,
            "residual": residual}


def _flatband_text(result: dict) -> str:
    lines = [
        f"flat-band eigenvector, anchor m={result['m']}, "
        f"eigenvalue {fmt15(result['value'])}"
    ]
    for r in result["rows"]:
        pairs = ", ".join(
            f"{c:+d} @ n={n}" for n, c in zip(r["positions"], r["coeffs"])
        )
        lines.append(f"  row {r['row']}: {pairs}")
    lines.append(f"residual max|(H - v1) psi| = {fmt15(result['residual'])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

_ASY_HEADER = (
    "band,predicted_lo,predicted_hi,measured_lo,measured_hi,abs_err_lo,abs_err_hi"
)


def _asy_row(label, plo, phi, mlo, mhi) -> str:
    cells = [str(label)]
    for val in (plo, phi, mlo, mhi):
        cells.append("" if val is None else fmt15(val))
    for pv, mv in ((plo, mlo), (phi, mhi)):
        cells.append("" if pv is None or mv is None else fmt15(abs(pv - mv)))
    return ",".join(cells)


def cmd_asymptotics(config: RunConfig, mode: str) -> str:
    """Prediction-vs-measurement CSV for one asymptotic regime."""
    if mode == "weak":
        return _asy_weak(config)
    if mode == "edges":
        return _asy_edges(config)
    if mode == "constant-field":
        return _asy_constant_field(config)
    if mode == "strong":
        return _asy_strong(config)
    raise ConfigError(
        f"unknown asymptotics mode {mode!r}; pick weak, edges, constant-field "
        "or strong"
    )


def _asy_weak(config: RunConfig) -> str:
    params = config.params
    pred = weak_field_edges(params)
    mlo, mhi = band_interval(0, params)
    rows = [_ASY_HEADER, _asy_row(0, pred.lo, pred.hi, mlo, mhi)]

    base = params.v

    def edge_err(s: float) -> float:
        sp = RibbonParams(params.N, s * base)
        pred = weak_field_edges(sp)
        lo, hi = band_interval(0, sp)
        return max(abs(pred.lo - lo), abs(pred.hi - hi))

    est = order_check(edge_err, 1.0, 3)
    slope = "" if est.exact else fmt15(est.slope)
    rows.append(f"order_slope,{slope},,,,,")
    return "\n".join(rows) + "\n"


def _asy_edges(config: RunConfig) -> str:
    params = config.params
    N = params.N
    predicted = {}
    for k in [k for k in range(-N, N + 1) if k != 0]:
        inner = (
            first_order_lower_edge(k, params)
            if 0 < abs(k) < (N + 1) / 2
            else None
        )
        outer = first_order_upper_edge(k, params)
        # the a~c_k extremum is the lower endpoint for k > 0, upper for k < 0
        predicted[k] = (inner, outer) if k > 0 else (outer, inner)
    # measured after the predictions, which reject overflowing potentials
    measured = spectrum_report(params).bands
    rows = [_ASY_HEADER]
    for k, (plo, phi) in predicted.items():
        _, mlo, mhi, _ = measured[k + N]
        rows.append(_asy_row(k, plo, phi, mlo, mhi))
    return "\n".join(rows) + "\n"


def _asy_constant_field(config: RunConfig) -> str:
    tokens = config.potential.replace("=", " ").replace(":", " ").split()
    if tokens[:1] != ["constant-field"] or len(tokens) != 2:
        raise ConfigError(
            "constant-field mode needs --potential 'constant-field EPS'"
        )
    eps = float(tokens[1])
    plo, phi, cp = constant_field(config.N, eps)
    mlo, mhi = band_interval(0, constant_field_potential(config.N, eps))
    rows = [
        _ASY_HEADER,
        _asy_row(0, plo, phi, mlo, mhi),
        f"C_p,{fmt15(cp)},,,,,",
    ]
    return "\n".join(rows) + "\n"


def _asy_strong(config: RunConfig) -> str:
    if config.t is None:
        raise ConfigError("strong mode needs --t")
    params = config.params
    est = strong_field(params, config.t)
    scaled = RibbonParams(params.N, config.t * params.v)
    rows = [_ASY_HEADER]
    for site, (_, mlo, mhi, _) in enumerate(spectrum_report(scaled).bands, 1):
        plo, phi = est.bands[site - 1]
        rows.append(_asy_row(site, plo, phi, mlo, mhi))

    base_t = config.t

    def edge_err(e: float) -> float:
        t = base_t / e  # halving e doubles t
        es = strong_field(params, t)
        sc = RibbonParams(params.N, t * params.v)
        worst = 0.0
        for (_, lo, hi, _), (plo, phi) in zip(spectrum_report(sc).bands, es.bands):
            worst = max(worst, abs(lo - plo), abs(hi - phi))
        return worst

    est_order = order_check(edge_err, 1.0, 3)
    slope = "" if est_order.exact else fmt15(est_order.slope)
    rows.append(f"order_slope,{slope},,,,,")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _bloch_union(params: RibbonParams, L: int, corrupt: float) -> np.ndarray:
    out = []
    for j in range(L):
        J = jacobi_matrix(params, float(a_of_t(2.0 * np.pi * j / L)))
        if corrupt:
            off = J.offdiag.copy()
            off[0] += corrupt
            J = JacobiMatrix(a=J.a, diag=J.diag, offdiag=off)
        out.append(eigenvalues(J))
    return np.sort(np.concatenate(out))


def cmd_verify(config: RunConfig, offdiag_corruption: float = 0.0) -> tuple[bool, list]:
    """Self-verification suite; returns (all_passed, check rows).

    offdiag_corruption is a test hook: a nonzero value breaks the
    off-diagonal pattern on the tridiagonal side, which the axial-reduction
    oracle must catch (negative control).
    """
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(20240817)
    worst_unmatched, worst_dev = 0, 0.0
    for _ in range(8):
        N = int(rng.integers(1, 4))
        L = int(rng.integers(3, 11))
        v = rng.uniform(-1.0, 1.0, size=2 * N + 1)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v /= norm
        params = RibbonParams(N=N, v=v)
        rep = compare_multisets(
            periodic_ribbon_spectrum(params, L),
            _bloch_union(params, L, offdiag_corruption),
            1e-8,
        )
        worst_unmatched = max(worst_unmatched, rep.unmatched_count)
        worst_dev = max(worst_dev, rep.max_pairwise_deviation)
    checks.append(
        (
            "axial-reduction oracle (periodic section vs quasimomentum union)",
            worst_unmatched == 0,
            f"worst unmatched={worst_unmatched}, max deviation={worst_dev:.3e}",
        )
    )

    worst = 0.0
    grid = np.linspace(0.0, 2.0, 101)
    for N in range(1, 5):
        vals = eigenvalues_batch(RibbonParams(N=N), grid)
        closed = np.column_stack(
            [unperturbed_eigenvalue(k, grid, N) for k in range(-N, N + 1)]
        )
        worst = max(worst, float(np.max(np.abs(vals - closed))))
    checks.append(
        (
            "zero-potential closed-form bands",
            worst <= 1e-10,
            f"max deviation={worst:.3e}",
        )
    )

    flat_ok = True
    detail = ""
    for trial in range(10):
        N = int(rng.integers(1, 4))
        v = rng.uniform(-1e-3, 1e-3, size=2 * N + 1)
        v[0::2] = v[0]
        params = RibbonParams(N=N, v=v)
        resid = verify_flat_eigen(params, flat_band_vector(N, N + 1), 2 * N + 4)
        lo, hi = band_interval(0, params)
        if resid != 0.0 or hi - lo > 1e-10:
            flat_ok = False
            detail = f"trial {trial}: residual={resid}, width={hi - lo:.3e}"
            break
        site = int(rng.integers(1, N + 1))
        v2 = v.copy()
        v2[2 * site] += float(rng.uniform(1e-3, 2e-3))
        lo, hi = band_interval(0, RibbonParams(N=N, v=v2))
        if hi - lo <= 1e-5:
            flat_ok = False
            detail = f"trial {trial}: violated width={hi - lo:.3e} not > 1e-5"
            break
    checks.append(("flat-band exactness and criterion sharpness", flat_ok, detail))

    N = 2
    w = np.array([0.31, -0.42, 0.11, 0.27, -0.19])
    agrid = np.linspace(0.0, 2.0, 51)

    def center_err(eps: float) -> float:
        sp = RibbonParams(N, eps * w)
        lam0 = eigenvalues_batch(sp, agrid, indices=[N])[:, 0]
        F = weak_field_center(agrid, sp)
        return float(np.max(np.abs(lam0 - F)))

    est = order_check(center_err, 1e-2, 3)
    checks.append(
        (
            "weak-field central band first-order error is quadratic",
            (not est.exact) and est.slope >= 1.9,
            f"slope={est.slope}",
        )
    )

    ramp = RibbonParams(1, np.array([1.0, 2.0, 3.0]))

    def top_width(e: float) -> float:
        t = 50.0 / e
        sc = RibbonParams(1, t * ramp.v)
        lo, hi = band_interval(1, sc)
        return hi - lo

    est = order_check(top_width, 1.0, 3)
    checks.append(
        (
            "strong-field top band width decays at second order",
            (not est.exact) and est.slope >= 1.9,
            f"slope={est.slope} (width ~ t^-slope)",
        )
    )

    return all(ok for _, ok, _ in checks), checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonband",
        description=(
            "Band structure of a zigzag nanoribbon tight-binding model in a "
            "transverse potential, via its tridiagonal axial reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--N", type=int, default=None, help="ribbon half-width")
        sp.add_argument(
            "--potential",
            type=str,
            default=None,
            help="zero | ramp | constant-field EPS | linear-odd EPS | "
            "comma-list | file path",
        )
        sp.add_argument("--grid", type=int, default=None,
                        help="a-grid points (odd, >= 3; default 401)")
        sp.add_argument("--t", type=float, default=None,
                        help="strong-field coupling")
        sp.add_argument("--mode", type=str, default=None,
                        help="asymptotics mode: weak|edges|constant-field|strong")
        sp.add_argument("--out", type=str, default=None, help="output path")
        sp.add_argument("--format", type=str, default=None,
                        choices=("csv", "json"), help="report format")
        sp.add_argument("--config", type=str, default=None,
                        help="flat key=value config file (flags override)")

    common(sub.add_parser("bands", help="band table CSV + spectrum report"))

    fb = sub.add_parser("flatband", help="flat-band eigenvector dump")
    common(fb)
    fb.add_argument("--m", type=int, default=None, help="anchor cell (default N)")
    fb.add_argument("--L", type=int, default=None,
                    help="section length (default 2N+4)")

    common(sub.add_parser("asymptotics", help="prediction-vs-measurement table"))

    vf = sub.add_parser("verify", help="self-verification suite")
    common(vf)
    vf.add_argument("--selftest-corrupt-offdiag", type=float, default=0.0,
                    help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "bands":
            csv_text, report = cmd_bands(config)
            report_text = (
                json.dumps(report, indent=2, sort_keys=True) + "\n"
                if config.output_format == "json"
                else _report_text(report)
            )
            if config.output_path is None:
                sys.stdout.write(csv_text)
                sys.stderr.write(report_text)
            else:
                _emit(csv_text, config.output_path)
                ext = "json" if config.output_format == "json" else "txt"
                _emit(report_text, config.output_path + f".report.{ext}")
            return 0
        if args.command == "flatband":
            m = args.m if args.m is not None else config.N
            L = args.L if args.L is not None else 2 * config.N + 4
            result = cmd_flatband(config, m, L)
            text = (
                json.dumps(result, indent=2, sort_keys=True) + "\n"
                if config.output_format == "json"
                else _flatband_text(result)
            )
            _emit(text, config.output_path)
            return 0
        if args.command == "asymptotics":
            if config.mode is None:
                raise ConfigError("asymptotics needs --mode "
                                  "(weak|edges|constant-field|strong)")
            _emit(cmd_asymptotics(config, config.mode), config.output_path)
            return 0
        if args.command == "verify":
            ok, checks = cmd_verify(
                config, offdiag_corruption=args.selftest_corrupt_offdiag
            )
            if config.output_format == "json":
                payload = {
                    "all_pass": ok,
                    "checks": [
                        {"name": n, "pass": p, "detail": d} for n, p, d in checks
                    ],
                }
                _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      config.output_path)
            else:
                lines = [
                    f"{'PASS' if p else 'FAIL'} {n}" + (f" ({d})" if d else "")
                    for n, p, d in checks
                ]
                lines.append("all checks passed" if ok else "verification FAILED")
                _emit("\n".join(lines) + "\n", config.output_path)
            return 0 if ok else 1
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CriterionViolation, BoundaryClashError) as exc:
        print(f"criterion violation: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
