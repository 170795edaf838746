"""Command-line front end.

    ribbonband bands|flatband|asymptotics|verify [flags]

Each subcommand accepts only the flags it reads (_COMMANDS):

    bands        --N --potential --grid --format --out --config
    flatband     --N --potential --m --L --format --out --config
    asymptotics  --N --potential --mode --t --out --config
    verify       --format --out --config

--potential takes <name|path|comma-list>, --format csv|json.  A config
file is flat ``key = value`` text whose keys are the same flag names;
command-line flags override file values, and a flag or key the
subcommand does not read is a config error.  Exit codes: 0 ok,
1 verification failure, 2 config error (an unreadable input file or an
unwritable --out included), 3 numerical error, 4 criterion violation.

Numbers are serialized with 15 significant digits, fixed-point for
magnitudes in [1e-4, 1e15) and scientific otherwise, so identical configs
give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

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
from .bands import (
    DEFAULT_GRID_POINTS,
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
    """15 significant digits; fixed notation for 1e-4 <= |x| < 1e15 (and 0),
    scientific otherwise."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite result {x}")
    if x == 0.0:
        return "0.00000000000000"
    ax = abs(x)
    if 1e-4 <= ax < 1e15:
        lg = math.log10(ax)
        lead = math.floor(lg)  # decimal exponent of the leading digit
        if not 1e-14 < lg - lead < 1.0 - 1e-14:
            # near a power of ten log10 may round across it, and rounding
            # to 15 digits may carry into it: take the rounded exponent
            lead = int(f"{x:.14e}"[-3:])
        if lead < 15:
            return f"{x:.{14 - lead}f}"
    return f"{x:.14e}"


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


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(text)
    return text


# Every flag a subcommand can read: name -> (cast, help).  The same names
# are the config-file keys.
_FLAGS = {
    "N": (int, "ribbon half-width (default 1)"),
    "potential": (str, "zero | ramp | constant-field EPS | linear-odd EPS | "
                       "comma-list | file path (default zero)"),
    "grid": (int, f"a-grid points of the CSV rows, odd and >= 3 (default "
                  f"{DEFAULT_GRID_POINTS}); the report always seeds from the default"),
    "mode": (str, "weak | edges | constant-field | strong"),
    "t": (float, "strong-field coupling"),
    "m": (int, "anchor cell (default N)"),
    "L": (int, "section length (default 2N+4)"),
    "format": (_format, "csv | json (default csv)"),
    "out": (str, "output path (default stdout)"),
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


@dataclass
class RunConfig:
    """Resolved run configuration (file values overridden by flags); the
    fields are the flag names."""

    N: int = 1
    potential: str = "zero"
    grid: int = DEFAULT_GRID_POINTS
    mode: str | None = None
    t: float | None = None
    m: int | None = None
    L: int | None = None
    format: str = "csv"
    out: str | None = None

    @cached_property
    def params(self) -> RibbonParams:
        return RibbonParams(N=self.N, v=resolve_potential(self.potential, self.N))


def parse_config_file(path: str, command: str) -> dict:
    """Flat key = value lines, '#' starting a comment; the keys are the
    names of the flags the command reads.  Values are returned as text."""
    keys = _COMMANDS[command][1]
    out: dict = {}
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
        out[key] = value.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values overridden by flags, each cast once."""
    text = parse_config_file(args.config, args.command) if args.config else {}
    for flag in _COMMANDS[args.command][1]:
        if getattr(args, flag) is not None:
            text[flag] = getattr(args, flag)
    values = {}
    for key, raw in text.items():
        cast, help_text = _FLAGS[key]
        try:
            values[key] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r} for {key}: {help_text}") from exc
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def _report_dict(params: RibbonParams) -> dict:
    rep = spectrum_report(params)
    bands = []
    for k, lo, hi, is_flat in rep.bands:
        row = {"k": k, "lo": lo, "hi": hi, "flat": bool(is_flat)}
        if is_flat:
            row["value"] = 0.5 * lo + 0.5 * hi
        bands.append(row)
    return {
        "N": params.N,
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
    """Band CSV (one row per --grid point) plus the spectrum report, whose
    edges are seeded from default_grid() whatever --grid says."""
    params, grid = config.params, default_grid(config.grid)
    values = eigenvalues_batch(params, grid)
    N = params.N
    header = "a," + ",".join(f"lambda_{k}" for k in range(-N, N + 1))
    rows = [header]
    for i, a in enumerate(grid):
        rows.append(",".join([fmt15(a)] + [fmt15(x) for x in values[i]]))
    csv_text = "\n".join(rows) + "\n"
    return csv_text, _report_dict(params)


# ---------------------------------------------------------------------------
# flatband
# ---------------------------------------------------------------------------

def cmd_flatband(config: RunConfig) -> dict:
    """Flat-band eigenvector rows (exact integers) and verified residual."""
    params = config.params
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


def cmd_asymptotics(config: RunConfig) -> str:
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


def _asy_weak(config: RunConfig) -> str:
    params = config.params
    plo, phi = weak_field_edges(params)
    mlo, mhi = band_interval(0, params)
    rows = [_ASY_HEADER, _asy_row(0, plo, phi, mlo, mhi)]

    def edge_err(s: float) -> float:
        sp = RibbonParams(params.N, s * params.v)
        plo, phi = weak_field_edges(sp)
        lo, hi = band_interval(0, sp)
        return max(abs(plo - lo), abs(phi - hi))

    # under the flat-band criterion (zero potential included) the first-order
    # center is exact; otherwise the fit runs over max|s*v| = 1e-2 .. 1.25e-3,
    # where the edge error is far above rounding.  A subnormal potential
    # makes s0 infinite: every edge error would be below rounding, no fit.
    slope = None
    if not flat_band_criterion(params):
        s0 = 1e-2 / float(np.max(np.abs(params.v)))
        if math.isfinite(s0):
            slope = order_check(edge_err, s0)
    rows.append(_order_slope_row(slope))
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
    named = _named_potential(config.potential)
    if named is None or named[0] != "constant-field":
        raise ConfigError(
            "constant-field mode needs --potential 'constant-field EPS'"
        )
    plo, phi, cp = constant_field(config.N, named[1])
    mlo, mhi = band_interval(0, config.params)
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
    rows = [_ASY_HEADER]

    def edge_err(e: float) -> float:
        t = config.t / float(e)  # halving e doubles t; a float overflows with no warning
        predicted = strong_field(params, t).bands
        measured = spectrum_report(RibbonParams(params.N, t * params.v)).bands
        edges = [(plo, phi, lo, hi)
                 for (plo, phi), (_, lo, hi, _) in zip(predicted, measured)]
        if len(rows) == 1:  # the first scale, e = 1, is the user's t: the table
            rows.extend(_asy_row(site, *edge) for site, edge in enumerate(edges, 1))
        return max(max(abs(lo - plo), abs(hi - phi)) for plo, phi, lo, hi in edges)

    rows.append(_order_slope_row(order_check(edge_err, 1.0)))
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(offdiag_shift: float = 0.0) -> tuple[bool, list]:
    """Self-verification suite; returns (all_passed, check rows).

    offdiag_shift is a test hook: a nonzero value breaks the off-diagonal
    pattern on the tridiagonal side, which the axial-reduction oracle must
    catch (negative control).
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
            bloch_union_spectrum(params, L, offdiag_shift=offdiag_shift),
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
        resid = verify_flat_eigen(params, FlatBandVector(N, N + 1), 2 * N + 4)
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

    slope = order_check(center_err, 1e-2)
    checks.append(
        (
            "weak-field central band first-order error is quadratic",
            slope is not None and slope >= 1.9,
            f"slope={slope}",
        )
    )

    ramp = RibbonParams(1, np.array([1.0, 2.0, 3.0]))

    def top_width(e: float) -> float:
        t = 50.0 / e
        sc = RibbonParams(1, t * ramp.v)
        lo, hi = band_interval(1, sc)
        return hi - lo

    slope = order_check(top_width, 1.0)
    checks.append(
        (
            "strong-field top band width decays at second order",
            slope is not None and slope >= 1.9,
            f"slope={slope} (width ~ t^-slope)",
        )
    )

    return all(ok for _, ok, _ in checks), checks


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonband",
        description=(
            "Band structure of a zigzag nanoribbon tight-binding model in a "
            "transverse potential, via its tridiagonal axial reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags:
            sp.add_argument(f"--{flag}", help=_FLAGS[flag][1])
        sp.add_argument("--config", help="flat key = value file, keys named as "
                        "the flags (flags override)")
        if command == "verify":
            sp.add_argument("--selftest-corrupt-offdiag", type=float, default=0.0,
                            help=argparse.SUPPRESS)
    return parser


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
        json_out = config.format == "json"
        if args.command == "bands":
            csv_text, report = cmd_bands(config)
            report_text = _json_text(report) if json_out else _report_text(report)
            if config.out is None:
                sys.stdout.write(csv_text)
                sys.stderr.write(report_text)
            else:
                _emit(csv_text, config.out)
                _emit(report_text, config.out + (".report.json" if json_out
                                                 else ".report.txt"))
            return 0
        if args.command == "flatband":
            result = cmd_flatband(config)
            _emit(_json_text(result) if json_out else _flatband_text(result),
                  config.out)
            return 0
        if args.command == "asymptotics":
            _emit(cmd_asymptotics(config), config.out)
            return 0
        # verify
        ok, checks = cmd_verify(offdiag_shift=args.selftest_corrupt_offdiag)
        if json_out:
            _emit(_json_text({
                "all_pass": ok,
                "checks": [{"name": n, "pass": p, "detail": d} for n, p, d in checks],
            }), config.out)
        else:
            lines = [f"{'PASS' if p else 'FAIL'} {n}" + (f" ({d})" if d else "")
                     for n, p, d in checks]
            lines.append("all checks passed" if ok else "verification FAILED")
            _emit("\n".join(lines) + "\n", config.out)
        return 0 if ok else 1
    except ConfigError as exc:
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
