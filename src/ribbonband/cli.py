"""Command-line front end.

    ribbonband bands|flatband|asymptotics|verify [flags]

Each subcommand accepts only the flags it reads (_COMMANDS):

    bands        --N --potential --grid --format --out --config
    flatband     --N --potential --m --L --format --out --config
    asymptotics  --N --potential --mode --t --out --config
    verify       --format --out --config

--potential takes <name|path|comma-list>, --format csv|json.  A config
file is flat ``key = value`` text whose keys are the same flag names; its
lines are read as ``--key=value`` flags ahead of the command line's, so
command-line flags override file values, and a flag or key the
subcommand does not read is a config error.  Exit codes: 0 ok,
1 verification failure, 2 config error (a bad value or choice, a size
beyond MAX_N or CSV_CELL_CAP, an unreadable input file or an unwritable
--out included), 3 numerical error, 4 criterion violation.

Numbers are serialized with 15 significant digits (``#.15g``):
fixed-point when the magnitude rounded to 15 digits lies in [1e-4, 1e15),
scientific otherwise, so identical configs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .asymptotics import (
    constant_field,
    constant_field_potential,
    first_order_edges,
    order_check,
    strong_field,
    weak_field_center,
    weak_field_edges,
)
from .bands import (
    DEFAULT_GRID_POINTS,
    SpectrumReport,
    _report_from_scan,
    band_interval,
    default_grid,
    flat_band_criterion,
    spectrum_report,
)
from .errors import ConfigError, CriterionViolation, NumericalError
from .jacobi import eigenvalues_batch, unperturbed_eigenvalue
from .lattice import FlatBandVector, RibbonParams, verify_flat_eigen
from .oracle import bloch_union_spectrum, compare_multisets, periodic_ribbon_spectrum


def fmt15(x: float) -> str:
    """15 significant digits; fixed notation when |x| rounded to 15 digits
    is 0 or in [1e-4, 1e15), scientific otherwise.  -0.0 prints as 0."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite result {x}")
    return format(x + 0.0, "#.15g").removesuffix(".")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _named_potential(text: str):
    """(name, eps) of a "constant-field EPS" or "linear-odd EPS" potential,
    else None; the separator may be space, '=' or ':'."""
    tokens = text.replace("=", " ").replace(":", " ").split()
    if not tokens or tokens[0] not in ("constant-field", "linear-odd"):
        return None
    if len(tokens) != 2:
        raise ConfigError(
            f"potential '{tokens[0]}' needs one parameter, e.g. "
            f"'{tokens[0]} 1e-3'"
        )
    try:
        return tokens[0], float(tokens[1])
    except ValueError as exc:
        raise ConfigError(f"bad potential parameter {tokens[1]!r}") from exc


def _read_text(path: str, what: str) -> str:
    """Text of a file named by the user; an unreadable one is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def resolve_potential(text: str, N: int) -> np.ndarray:
    """Turn a potential description into the length-p vector.

    Accepted: "zero"; "ramp" (1..p); "constant-field EPS" (odd sites
    eps*k, even 0); "linear-odd EPS" (odd sites eps*site_index, even 0);
    a comma-separated list of p reals; or else a path to a file of numbers.
    """
    p = RibbonParams(N).p  # rejects a bad N before it sizes the potential
    t = text.strip()
    if t == "zero":
        return np.zeros(p)
    if t == "ramp":
        return np.arange(1.0, p + 1.0)
    named = _named_potential(t)
    if named is not None:
        name, eps = named
        if not math.isfinite(eps * p):  # no entry exceeds |eps| * p
            raise ConfigError(f"potential '{name} {eps}' leaves float64 range")
        if name == "constant-field":
            return constant_field_potential(N, eps).v
        v = np.zeros(p)
        v[0::2] = eps * (2 * np.arange(N + 1) + 1)
        return v
    if "," in t:
        what, items = f"potential list {t!r}", t.split(",")
    else:
        what = f"potential file {t}"
        items = _read_text(t, "potential file").replace(",", " ").split()
    try:
        vals = [float(x) for x in items]
    except ValueError as exc:
        raise ConfigError(f"{what} holds non-numeric data") from exc
    if len(vals) != p:
        raise ConfigError(f"{what} holds {len(vals)} values, need p={p}")
    return np.asarray(vals)


def _params(config: argparse.Namespace) -> RibbonParams:
    """The ribbon named by --N and --potential."""
    return RibbonParams(N=config.N, v=resolve_potential(config.potential, config.N))


# Every flag a subcommand can read, as add_argument keywords.  The same
# names are the config-file keys.
_FLAGS = {
    "N": dict(type=int, default=1, help="ribbon half-width (default %(default)s)"),
    "potential": dict(default="zero", help="zero | ramp | constant-field EPS | "
                      "linear-odd EPS | comma-list | file path (default %(default)s)"),
    "grid": dict(type=int, default=DEFAULT_GRID_POINTS,
                 help="a-grid points of the CSV rows, odd and >= 3 (default "
                      "%(default)s); the report always seeds from the default"),
    "mode": dict(choices=("weak", "edges", "constant-field", "strong"),
                 help="asymptotic regime"),
    "t": dict(type=float, help="strong-field coupling"),
    "m": dict(type=int, help="anchor cell (default N)"),
    "L": dict(type=int, help="section length (default 2N+4)"),
    "format": dict(choices=("csv", "json"), default="csv", help="(default %(default)s)"),
    "out": dict(help="output path (default stdout)"),
}

# subcommand -> (help, the flags it reads)
_COMMANDS = {
    "bands": ("band table CSV + spectrum report",
              ("N", "potential", "grid", "format", "out")),
    "flatband": ("flat-band eigenvector dump",
                 ("N", "potential", "m", "L", "format", "out")),
    "asymptotics": ("prediction-vs-measurement table",
                    ("N", "potential", "mode", "t", "out")),
    "verify": ("self-verification suite", ("format", "out")),
}


def parse_config_file(path: str, command: str) -> list[str]:
    """Flat key = value lines, '#' starting a comment, as --key=value
    arguments; the keys are the names of the flags the command reads."""
    keys = _COMMANDS[command][1]
    args = []
    for lineno, line in enumerate(_read_text(path, "config file").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {command} does not read key "
                              f"{key!r} (it reads {', '.join(keys)})")
        args.append(f"--{key}={value.strip()}")
    return args


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def _report_dict(rep: SpectrumReport) -> dict:
    bands = []
    for k, lo, hi, is_flat in rep.bands:
        row = {"k": k, "lo": lo, "hi": hi, "flat": bool(is_flat)}
        if is_flat:
            row["value"] = lo
        bands.append(row)
    return {
        "N": len(rep.bands) // 2,
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


# --grid x p: the default 401-row table fits at N = MAX_N (3 285 393 cells)
CSV_CELL_CAP = 4_000_000


# cells (the a column included) per block of CSV lines formatted at once
_CSV_BLOCK_CELLS = 4096


def _csv_lines(grid: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """The CSV line of each grid point a = grid[i], then the cells
    values[i]: every number as fmt15 prints it, each line ending in a
    newline.  Every cell must be finite.  Both arrays are changed in place
    (-0.0 becomes 0.0).  The returned iterator makes the lines as it is
    read, a block of whole lines at a time: as many rows as fit in
    _CSV_BLOCK_CELLS cells, and at least one.
    """
    for cells in (grid, values):
        cells += 0.0  # -0.0 + 0.0 is 0.0
    # "%#.15g" is fmt15's format; it leaves a bare "." on 15-digit integers
    width = 1 + values.shape[1]
    line = ",".join(["%#.15g"] * width) + "\n"
    rows = max(1, _CSV_BLOCK_CELLS // width)

    def blocks():
        for s in range(0, grid.size, rows):
            cells = np.column_stack((grid[s:s + rows], values[s:s + rows]))
            text = (line * cells.shape[0]) % tuple(cells.ravel().tolist())
            yield text.replace(".,", ",").replace(".\n", "\n")

    return blocks()


def cmd_bands(config: argparse.Namespace) -> tuple[Iterator[str], dict]:
    """Band CSV (one row per --grid point) plus the spectrum report, whose
    edges are seeded from default_grid() whatever --grid says: at the
    default --grid the CSV rows are that scan, and the report reuses them.
    Returns the CSV lines, an iterator that makes them a block at a time,
    and the report dict.  A table of more than CSV_CELL_CAP eigenvalue
    cells is a ConfigError, raised before the grid is allocated; a
    non-finite cell is a NumericalError from the scan, raised before the
    report is made."""
    params = _params(config)
    if config.grid * params.p > CSV_CELL_CAP:
        raise ConfigError(f"--grid {config.grid} x p = {params.p} is "
                          f"{config.grid * params.p} CSV cells, beyond {CSV_CELL_CAP}")
    grid = default_grid(config.grid)
    values = eigenvalues_batch(params, grid)
    if config.grid == DEFAULT_GRID_POINTS:
        rep = _report_from_scan(params, values)  # before _csv_lines changes it
    else:
        rep = spectrum_report(params)
    N = params.N
    header = "a," + ",".join(f"lambda_{k}" for k in range(-N, N + 1)) + "\n"
    return itertools.chain([header], _csv_lines(grid, values)), _report_dict(rep)


# ---------------------------------------------------------------------------
# flatband
# ---------------------------------------------------------------------------

def cmd_flatband(config: argparse.Namespace) -> dict:
    """Flat-band eigenvector rows (exact integers) and verified residual."""
    params = _params(config)
    m = params.N if config.m is None else config.m
    L = 2 * params.N + 4 if config.L is None else config.L
    if not flat_band_criterion(params):
        odd = params.v[0::2]
        bad = int(np.nonzero(odd != params.v[0])[0][0])
        raise CriterionViolation(
            f"flat-band criterion violated at v{2 * bad + 1}"
        )
    psi = FlatBandVector(params.N, m)
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


def cmd_asymptotics(config: argparse.Namespace) -> str:
    """Prediction-vs-measurement CSV for one asymptotic regime."""
    modes = {"weak": _asy_weak, "edges": _asy_edges,
             "constant-field": _asy_constant_field, "strong": _asy_strong}
    if config.mode not in modes:
        raise ConfigError(f"asymptotics needs --mode weak|edges|constant-field|"
                          f"strong, got {config.mode!r}")
    return modes[config.mode](config)


def _order_slope_row(slope: float | None) -> str:
    """The order_slope row; the cell is empty when no slope was fitted or an
    error was exactly zero."""
    return f"order_slope,{'' if slope is None else fmt15(slope)},,,,,"


def _asy_weak(config: argparse.Namespace) -> str:
    params = _params(config)
    plo, phi = weak_field_edges(params)
    mlo, mhi = band_interval(0, params)
    rows = [_ASY_HEADER, _asy_row(0, plo, phi, mlo, mhi)]

    # under the flat-band criterion (zero potential included) the first-order
    # center is exact; otherwise the fit runs over max|s*v| = 1e-2 .. 1.25e-3,
    # where the edge error is far above rounding.  A subnormal potential
    # makes s0 infinite: every edge error would be below rounding, no fit.
    slope = None
    if not flat_band_criterion(params):
        s0 = 1e-2 / float(np.max(np.abs(params.v)))
        if math.isfinite(s0):
            slope = order_check(lambda s: weak_edge_error(
                RibbonParams(params.N, s * params.v)), s0)
    rows.append(_order_slope_row(slope))
    return "\n".join(rows) + "\n"


def _asy_edges(config: argparse.Namespace) -> str:
    params = _params(config)
    # predicted before the eigensolve: overflowing potentials fail first
    predicted = first_order_edges(params)
    rows = [_ASY_HEADER]
    for (plo, phi), (k, mlo, mhi, _) in zip(predicted, spectrum_report(params).bands):
        if k != 0:
            rows.append(_asy_row(k, plo, phi, mlo, mhi))
    return "\n".join(rows) + "\n"


def _asy_constant_field(config: argparse.Namespace) -> str:
    named = _named_potential(config.potential)
    if named is None or named[0] != "constant-field":
        raise ConfigError(
            "constant-field mode needs --potential 'constant-field EPS'"
        )
    params = _params(config)
    plo, phi, cp = constant_field(config.N, named[1])
    mlo, mhi = band_interval(0, params)
    rows = [
        _ASY_HEADER,
        _asy_row(0, plo, phi, mlo, mhi),
        f"C_p,{fmt15(cp)},,,,,",
    ]
    return "\n".join(rows) + "\n"


def _asy_strong(config: argparse.Namespace) -> str:
    if config.t is None:
        raise ConfigError("strong mode needs --t")
    params = _params(config)
    rows = [_ASY_HEADER]

    def edge_err(e: float) -> float:
        t = config.t / float(e)  # halving e doubles t; a float overflows with no warning
        edges, worst = strong_field_edges(params, t)
        if len(rows) == 1:  # the first scale, e = 1, is the user's t: the table
            rows.extend(_asy_row(site, *edge) for site, edge in enumerate(edges, 1))
        return worst

    rows.append(_order_slope_row(order_check(edge_err, 1.0)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# verify: one function per claim, shared with the acceptance tests
# ---------------------------------------------------------------------------

ORDER_MIN = 2.9  # the least fitted order that counts as "third order"


def weak_edge_error(params: RibbonParams) -> float:
    """Worst error of weak_field_edges against the measured central band."""
    plo, phi = weak_field_edges(params)
    lo, hi = band_interval(0, params)
    return max(abs(plo - lo), abs(phi - hi))


def strong_field_edges(params: RibbonParams, t: float) -> tuple[list, float]:
    """(predicted lo, predicted hi, measured lo, measured hi) per site for
    the potential t*v, and the worst |predicted - measured| edge error."""
    predicted = strong_field(params, t)
    measured = spectrum_report(RibbonParams(params.N, t * params.v)).bands
    edges = [(plo, phi, lo, hi)
             for (plo, phi), (_, lo, hi, _) in zip(predicted, measured)]
    return edges, max(max(abs(lo - plo), abs(hi - phi))
                      for plo, phi, lo, hi in edges)


def check_two_route(rng, sections: int, offdiag_shift: float = 0.0) -> tuple:
    """Periodic sections match their quasimomentum unions to 1e-8.

    offdiag_shift is a test hook: a nonzero value breaks the off-diagonal
    pattern on the tridiagonal side, which this check must catch.
    """
    worst_unmatched, worst_dev = 0, 0.0
    for _ in range(sections):
        N = int(rng.integers(1, 4))
        L = int(rng.integers(3, 11))
        v = rng.uniform(-1.0, 1.0, size=2 * N + 1)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v /= norm
        params = RibbonParams(N=N, v=v)
        rep = compare_multisets(
            periodic_ribbon_spectrum(params, L),
            bloch_union_spectrum(params, L, offdiag_shift=offdiag_shift),
            1e-8,
        )
        worst_unmatched = max(worst_unmatched, rep.unmatched_count)
        worst_dev = max(worst_dev, rep.max_pairwise_deviation)
    return ("axial-reduction oracle (periodic section vs quasimomentum union)",
            worst_unmatched == 0,
            f"worst unmatched={worst_unmatched}, max deviation={worst_dev:.3e}")


def check_closed_form(widths, grid) -> tuple:
    """Zero-potential bands of every N in widths match the closed form to
    1e-10 on the a grid."""
    worst = 0.0
    for N in widths:
        vals = eigenvalues_batch(RibbonParams(N=N), grid)
        closed = np.column_stack(
            [unperturbed_eigenvalue(k, grid, N) for k in range(-N, N + 1)]
        )
        worst = max(worst, float(np.max(np.abs(vals - closed))))
    return ("zero-potential closed-form bands", worst <= 1e-10,
            f"max deviation={worst:.3e}")


def check_flat_band(rng) -> tuple:
    """Over ten random trials, equal odd-site potentials give an exact flat
    eigenvector and a band no wider than 1e-10; raising one odd site widens
    it beyond 1e-5."""
    detail = ""
    for trial in range(10):
        N = int(rng.integers(1, 4))
        v = rng.uniform(-1e-3, 1e-3, size=2 * N + 1)
        v[0::2] = v[0]
        params = RibbonParams(N=N, v=v)
        resid = verify_flat_eigen(params, FlatBandVector(N, N + 1), 2 * N + 4)
        lo, hi = band_interval(0, params)
        if resid != 0.0 or hi - lo > 1e-10:
            detail = f"trial {trial}: residual={resid}, width={hi - lo:.3e}"
            break
        site = int(rng.integers(1, N + 1))
        v2 = v.copy()
        v2[2 * site] += float(rng.uniform(1e-3, 2e-3))
        lo, hi = band_interval(0, RibbonParams(N=N, v=v2))
        if hi - lo <= 1e-5:
            detail = f"trial {trial}: violated width={hi - lo:.3e} not > 1e-5"
            break
    return ("flat-band exactness and criterion sharpness", not detail, detail)


def check_weak_center_order(w, grid) -> tuple:
    """max over the a grid of |lambda_0 - weak_field_center| for the
    potential eps*w, eps = 1e-2 and three halvings, falls at order >=
    ORDER_MIN."""
    N = len(w) // 2

    def center_err(eps: float) -> float:
        params = RibbonParams(N, eps * w)
        lam0 = eigenvalues_batch(params, grid)[:, N]
        return float(np.max(np.abs(lam0 - weak_field_center(grid, params))))

    slope = order_check(center_err, 1e-2)
    return ("weak-field central band first-order error is third order",
            slope is not None and slope >= ORDER_MIN, f"slope={slope}")


def check_strong_top_width_order(v) -> tuple:
    """The top band's width under t*v, t = 50 and three doublings, falls at
    order >= ORDER_MIN in 1/t."""
    N = len(v) // 2

    def top_width(e: float) -> float:
        lo, hi = band_interval(N, RibbonParams(N, 50.0 / e * v))
        return hi - lo

    slope = order_check(top_width, 1.0)
    return ("strong-field top band width decays at third order",
            slope is not None and slope >= ORDER_MIN,
            f"slope={slope} (width ~ t^-slope)")


def cmd_verify(offdiag_shift: float = 0.0) -> tuple[bool, list]:
    """Self-verification suite; returns (all_passed, check rows).  One rng
    feeds the two-route check first, then the flat-band check."""
    rng = np.random.default_rng(20240817)
    checks = [
        check_two_route(rng, 8, offdiag_shift),
        check_closed_form(range(1, 5), np.linspace(0.0, 2.0, 101)),
        check_flat_band(rng),
        check_weak_center_order(np.array([0.31, -0.42, 0.11, 0.27, -0.19]),
                                np.linspace(0.0, 2.0, 51)),
        check_strong_top_width_order(np.array([1.0, 2.0, 3.0])),
    ]
    return all(ok for _, ok, _ in checks), checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(text: str | Iterable[str], path: str | None) -> None:
    """Write text, one str or an iterable of str, to path (default stdout)."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc}") from exc


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonband",
        description=(
            "Band structure of a zigzag nanoribbon tight-binding model in a "
            "transverse potential, via its tridiagonal axial reduction."
        ),
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False,
                            exit_on_error=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--config", help="flat key = value file, keys named as "
                        "the flags (flags override)")
        if command == "verify":
            sp.add_argument("--selftest-corrupt-offdiag", type=float, default=0.0,
                            help=argparse.SUPPRESS)
    return parser


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values go right after the subcommand: the command line's
            # own flags come later, and argparse keeps the last value
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + parse_config_file(
                args.config, args.command) + argv[at:])
        json_out = getattr(args, "format", "csv") == "json"
        if args.command == "bands":
            csv_lines, report = cmd_bands(args)
            report_text = _json_text(report) if json_out else _report_text(report)
            if args.out is None:
                _emit(csv_lines, None)
                sys.stderr.write(report_text)
            else:
                _emit(csv_lines, args.out)
                _emit(report_text, args.out + (".report.json" if json_out
                                               else ".report.txt"))
            return 0
        if args.command == "flatband":
            result = cmd_flatband(args)
            _emit(_json_text(result) if json_out else _flatband_text(result),
                  args.out)
            return 0
        if args.command == "asymptotics":
            _emit(cmd_asymptotics(args), args.out)
            return 0
        # verify
        ok, checks = cmd_verify(offdiag_shift=args.selftest_corrupt_offdiag)
        if json_out:
            _emit(_json_text({
                "all_pass": ok,
                "checks": [{"name": n, "pass": p, "detail": d} for n, p, d in checks],
            }), args.out)
        else:
            lines = [f"{'PASS' if p else 'FAIL'} {n}" + (f" ({d})" if d else "")
                     for n, p, d in checks]
            lines.append("all checks passed" if ok else "verification FAILED")
            _emit("\n".join(lines) + "\n", args.out)
        return 0 if ok else 1
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CriterionViolation as exc:
        print(f"criterion violation: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
