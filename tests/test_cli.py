"""Command-line behavior: table formats, config handling, exit codes."""

import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ribbonband
from ribbonband import (
    ConfigError,
    NumericalError,
    RibbonParams,
    eigenvalues_batch,
    spectrum_report,
    weak_field_center,
)
from ribbonband.cli import (
    ORDER_MIN,
    _CSV_BLOCK_CELLS,
    _csv_lines,
    _json_text,
    _report_dict,
    fmt15,
    main,
    resolve_potential,
)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# formatting and potential parsing
# ---------------------------------------------------------------------------

def test_fmt15_fixed_and_scientific():
    assert fmt15(0.0) == "0.00000000000000"
    assert fmt15(2.0) == "2.00000000000000"
    assert fmt15(-1.5) == "-1.50000000000000"
    assert fmt15(123.456) == "123.456000000000"
    assert fmt15(1e-5) == "1.00000000000000e-05"
    assert fmt15(0.0001) == "0.000100000000000000"
    # deterministic: same value, same string
    assert fmt15(np.float64(1) / 3) == fmt15(1 / 3)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(NumericalError):
            fmt15(bad)


def test_fmt15_fifteen_digits_at_carry_and_large_values():
    # rounding that carries into the next power of ten keeps 15 digits, and
    # magnitudes from 1e15 up are scientific
    assert fmt15(np.nextafter(1.0, 0.0)) == "1.00000000000000"
    assert fmt15(-0.9999999999999998) == "-1.00000000000000"
    assert fmt15(999999999999999.9) == "1.00000000000000e+15"
    assert fmt15(1e15) == "1.00000000000000e+15"
    assert fmt15(1e16) == "1.00000000000000e+16"
    assert fmt15(1e308) == "1.00000000000000e+308"
    assert fmt15(999.9999999999994) == "999.999999999999"


def test_fmt15_picks_notation_from_the_rounded_magnitude():
    # just below 1e-4 the value rounds to 1e-4 at 15 digits, so it is fixed
    # like 1e-4 itself; -0.0 prints as 0
    assert fmt15(np.nextafter(1e-4, 0.0)) == "0.000100000000000000"
    assert fmt15(-np.nextafter(1e-4, 0.0)) == "-0.000100000000000000"
    assert fmt15(-0.0) == "0.00000000000000"
    assert fmt15(123456789012345.0) == "123456789012345"


def _csv_row(row) -> str:
    """_csv_lines' line for one row: a = row[0], then the cells row[1:]."""
    row = np.array(row, dtype=float)
    return "".join(_csv_lines(row[:1].copy(), row[None, 1:].copy()))


# -0.0, subnormals, the fixed/scientific border near 1e-4, and the
# 15-digit integers [1e14, 1e15) whose "#.15g" text ends in a bare point
_EDGE_CELLS = [-0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
               float(np.nextafter(1e-4, 0.0)), -float(np.nextafter(1e-4, 0.0)),
               99999999999999.95, -99999999999999.95, 123456789012345.0,
               -123456789012345.0, 1e308, -1e308]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12))
def test_csv_lines_print_every_cell_as_fmt15(row):
    assert _csv_row(row) == ",".join(fmt15(x) for x in row) + "\n"


@pytest.mark.parametrize("x", _EDGE_CELLS)
def test_csv_lines_edge_cells_at_every_position(x):
    for row in ([x], [x, x], [1.0, x], [x, 1.0], [1.0, x, 1.0]):
        assert _csv_row(row) == ",".join(fmt15(y) for y in row) + "\n"


def test_csv_lines_drop_only_the_bare_point():
    assert _csv_row(_EDGE_CELLS) == ",".join(fmt15(y) for y in _EDGE_CELLS) + "\n"
    assert _csv_row([123456789012345.0, 99999999999999.95, -0.0]) == (
        "123456789012345,100000000000000,0.00000000000000\n")
    assert _csv_row([1.5, 123456789012345.0]) == "1.50000000000000,123456789012345\n"


def _csv_lines_per_row(grid, values):
    """The CSV text made a row at a time: one %-template per line."""
    line = ",".join(["%#.15g"] * (1 + values.shape[1])) + "\n"
    return "".join((line % (a + 0.0, *(row + 0.0).tolist()))
                   .replace(".,", ",").replace(".\n", "\n")
                   for a, row in zip(grid, values))


@pytest.mark.parametrize("p", [3, 5, 4097])
def test_csv_lines_in_blocks_equal_the_per_row_template(p):
    # rows per block: 1024 at p = 3, 682 at p = 5 (a partial last block),
    # one at p = 4097 (a row wider than a block)
    rows = max(1, _CSV_BLOCK_CELLS // (p + 1))
    n = 2 * rows + 3 if p < 100 else 4
    rng = np.random.default_rng(p)
    grid = np.linspace(0.0, 2.0, n)
    values = rng.uniform(-3.0, 3.0, (n, p))
    for first in (0, rows, 2 * rows):  # each block's first row
        values[first, -1] = -123456789012345.0
    for last in (rows - 1, 2 * rows - 1, n - 1):  # each block's last row
        values[last, :3] = (-0.0, 123456789012345.0, -99999999999999.95)
        values[last, -1] = 99999999999999.95
    grid[rows - 1] = -0.0
    expect = _csv_lines_per_row(grid, values)
    g, v = grid.copy(), values.copy()
    blocks = list(_csv_lines(g, v))
    assert len(blocks) == -(-n // rows)
    assert all(b.endswith("\n") for b in blocks)
    assert "".join(blocks) == expect
    assert expect.split("\n")[rows - 1].startswith(
        "0.00000000000000,0.00000000000000,123456789012345,")
    assert expect.split("\n")[rows - 1].endswith(",100000000000000")
    np.testing.assert_array_equal(v, values)  # changed in place: -0.0 to 0.0 only
    assert not np.signbit(v[rows - 1, 0]) and not np.signbit(g[rows - 1])


def test_resolve_potential_named_forms():
    np.testing.assert_array_equal(resolve_potential("zero", 2), np.zeros(5))
    np.testing.assert_array_equal(
        resolve_potential("ramp", 1), [1.0, 2.0, 3.0]
    )
    np.testing.assert_allclose(
        resolve_potential("constant-field 0.01", 2), [0, 0, 0.01, 0, 0.02]
    )
    np.testing.assert_allclose(
        resolve_potential("constant-field=0.01", 2), [0, 0, 0.01, 0, 0.02]
    )
    np.testing.assert_allclose(
        resolve_potential("linear-odd:0.1", 1), [0.1, 0.0, 0.3]
    )


def test_resolve_potential_list_and_file(tmp_path):
    np.testing.assert_allclose(
        resolve_potential("0.1,0.2,0.3", 1), [0.1, 0.2, 0.3]
    )
    f = tmp_path / "pot.txt"
    f.write_text("0.1 0.2\n0.3\n")
    np.testing.assert_allclose(resolve_potential(str(f), 1), [0.1, 0.2, 0.3])


def test_resolve_potential_rejects_garbage():
    with pytest.raises(ConfigError):
        resolve_potential("sawtooth", 1)
    with pytest.raises(ConfigError):
        resolve_potential("0.1,0.2", 1)  # wrong length
    with pytest.raises(ConfigError):
        resolve_potential("constant-field", 1)  # missing parameter
    with pytest.raises(ConfigError):
        resolve_potential("1,2,oops", 1)


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def test_bands_stdout_csv(capsys):
    code, out, err = run(["bands", "--N", "1", "--grid", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,lambda_-1,lambda_0,lambda_1"
    assert len(lines) == 6
    row = lines[3].split(",")  # a = 1.0
    assert float(row[0]) == pytest.approx(1.0)
    expected = eigenvalues_batch(RibbonParams(N=1), [1.0])[0]
    np.testing.assert_allclose([float(x) for x in row[1:]], expected, atol=1e-12)
    assert "spectrum report" in err


def test_bands_csv_matches_solver_everywhere(capsys):
    code, out, _ = run(["bands", "--N", "2", "--grid", "21"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    grid = np.array([float(r[0]) for r in rows])
    table = np.array([[float(x) for x in r[1:]] for r in rows])
    np.testing.assert_allclose(
        table, eigenvalues_batch(RibbonParams(N=2), grid), atol=1e-12
    )


def test_bands_report_json_marks_flat_band(tmp_path, capsys):
    out_file = tmp_path / "bands.csv"
    code, _, _ = run(
        ["bands", "--N", "1", "--grid", "41", "--format", "json",
         "--potential", "0.2,0.7,0.2", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "bands.csv.report.json").read_text())
    flat_rows = [b for b in report["bands"] if b["flat"]]
    assert len(flat_rows) == 1
    assert flat_rows[0]["k"] == 0
    assert flat_rows[0]["value"] == pytest.approx(0.2, abs=1e-9)
    assert out_file.read_text().startswith("a,lambda_-1,lambda_0,lambda_1")
    assert report["gaps"], "central gap expected"


@pytest.mark.parametrize("points", ["5", "3"])
def test_bands_report_does_not_depend_on_grid(points, capsys):
    # --grid sets the CSV rows only; the report's edges are always seeded
    # from the 401-point default grid
    argv = ["bands", "--N", "2", "--potential", "0.31,-0.42,0.11,0.27,-0.19"]
    code, _, default_report = run(argv, capsys)
    assert code == 0
    code, csv, report = run(argv + ["--grid", points], capsys)
    assert code == 0
    assert len(csv.strip().split("\n")) == int(points) + 1
    assert report == default_report


@pytest.mark.parametrize("N", [1, 4, 16])
@pytest.mark.parametrize("points", ["401", "5"])
def test_bands_report_is_the_spectrum_report(N, points, tmp_path, capsys):
    # at the default grid the report reuses the CSV's scan; at any grid it
    # is byte for byte the report of spectrum_report(params)
    v = np.random.default_rng(N).uniform(-1.0, 1.0, 2 * N + 1)
    out = tmp_path / "bands.csv"
    code, _, _ = run(["bands", "--N", str(N), "--grid", points, "--format", "json",
                      "--potential=" + ",".join(repr(float(x)) for x in v),
                      "--out", str(out)], capsys)
    assert code == 0
    expected = _json_text(_report_dict(spectrum_report(RibbonParams(N, v))))
    assert (tmp_path / "bands.csv.report.json").read_text() == expected
    assert len(out.read_text().splitlines()) == int(points) + 1


@pytest.mark.parametrize("points, report_scans", [("401", 0), ("5", 1)])
def test_bands_report_shares_the_default_grid_scan(points, report_scans,
                                                   monkeypatch, capsys):
    import ribbonband.bands as bands_mod

    scans = []

    def counted(params, a_values):
        scans.append(len(a_values))
        return eigenvalues_batch(params, a_values)

    monkeypatch.setattr(bands_mod, "eigenvalues_batch", counted)
    code, _, _ = run(["bands", "--N", "4", "--potential", "ramp", "--grid", points],
                     capsys)
    assert code == 0
    assert scans == [401] * report_scans


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bands_non_finite_cell_exits_3(bad, monkeypatch, capsys):
    # the scan's kernel owns the finiteness check: spoil one cell of its solve
    import ribbonband.jacobi as jacobi_mod

    solve_stacks = jacobi_mod._solve_stacks

    def spoiled(solve, diag, off):
        for rows, w in solve_stacks(solve, diag, off):
            w[w.shape[0] // 2, -1] = bad
            yield rows, w

    monkeypatch.setattr(jacobi_mod, "_solve_stacks", spoiled)
    code, out, err = run(["bands", "--N", "2"], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "numerical error: non-finite eigenvalue: matrix entries beyond float64 range"]


def test_bands_json_reports_flat_band_exactly(tmp_path, capsys):
    # the flat band is the eigenvalue v_1 itself, not a measured interval
    out = tmp_path / "flat"
    code, _, _ = run(["bands", "--N", "1", "--potential", "0.5,0,0.5",
                      "--format", "json", "--out", str(out)], capsys)
    assert code == 0
    band = json.loads((tmp_path / "flat.report.json").read_text())["bands"][1]
    assert band["k"] == 0 and band["flat"] is True
    assert band["lo"] == band["hi"] == band["value"] == 0.5


def test_bands_help_shows_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bands", "--help"])
    assert exc.value.code == 0
    assert "(default 401)" in " ".join(capsys.readouterr().out.split())


def test_bands_deterministic_bytes(tmp_path, capsys):
    args = ["bands", "--N", "2", "--grid", "51",
            "--potential", "0.05,-0.1,0.2,0.3,-0.4"]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    assert (tmp_path / "run1.csv.report.txt").read_bytes() == (
        tmp_path / "run2.csv.report.txt"
    ).read_bytes()


# ---------------------------------------------------------------------------
# flatband
# ---------------------------------------------------------------------------

def test_flatband_text_output(capsys):
    code, out, _ = run(
        ["flatband", "--N", "2", "--potential", "0.5,0,0.5,0,0.5",
         "--m", "3", "--L", "8"],
        capsys,
    )
    assert code == 0
    assert "row 1: +1 @ n=3" in out
    assert "row 3: -1 @ n=3, -1 @ n=2" in out
    assert "row 5: +1 @ n=3, +2 @ n=2, +1 @ n=1" in out
    assert "residual" in out and "0.00000000000000" in out


def test_flatband_json_round_trip(capsys):
    code, out, _ = run(
        ["flatband", "--N", "1", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] == 0.0
    assert doc["rows"][0] == {"row": 1, "positions": [1], "coeffs": [1]}
    assert doc["rows"][1] == {"row": 3, "positions": [1, 0], "coeffs": [-1, -1]}


def test_flatband_violation_names_the_site(capsys):
    code, _, err = run(
        ["flatband", "--N", "2", "--potential", "0.5,0,0.6,0,0.5"], capsys
    )
    assert code == 4
    assert "v3" in err


def test_flatband_boundary_clash_exit_code(capsys):
    code, _, err = run(["flatband", "--N", "2", "--m", "0", "--L", "6"], capsys)
    assert code == 4


@pytest.mark.parametrize("L", ["1", "0", "-5"])
def test_flatband_section_too_short_exits_2(L, capsys):
    # an open section needs L >= 2 whatever the anchor: a config error,
    # not a support that leaves the section
    code, _, err = run(["flatband", "--N", "1", "--potential", "0.5,0,0.5",
                        "--L", L], capsys)
    assert code == 2
    assert f"L={L} too small for boundary=open" in err


def test_flatband_widest_exact_ribbon(capsys):
    # the residual is summed in integers, so it stays exactly 0 beyond
    # N = 56, where C(N, N/2) passes 2^53; the one bound is the size cap
    # N <= 512, refused up to MAX_N as a config error
    code, out, _ = run(["flatband", "--N", "57", "--L", "58", "--format", "json"],
                       capsys)
    assert code == 0
    assert json.loads(out)["residual"] == 0.0
    for N in ("513", "4096"):
        code, out, err = run(["flatband", "--N", N], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: N={N}: the flat-band residual serves N <= 512\n"


def test_flatband_default_section_beyond_the_dense_cap(capsys):
    # the default L = 2N + 4 gives 10098 rows at N = 49; the residual builds
    # no section, so no dense-section cap applies
    code, out, _ = run(["flatband", "--N", "49", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["residual"] == 0.0


def test_flatband_long_section(capsys):
    # only the cells around the support are visited, whatever L is
    code, out, _ = run(["flatband", "--N", "2", "--potential", "0.5,0,0.5,0,0.5",
                        "--L", "1000000000", "--format", "json"], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["L"] == 1_000_000_000 and res["residual"] == 0.0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotics_requires_mode(capsys):
    code, _, err = run(["asymptotics", "--N", "1"], capsys)
    assert code == 2
    assert "mode" in err


def test_asymptotics_weak_table(capsys):
    code, out, _ = run(
        ["asymptotics", "--N", "1", "--mode", "weak",
         "--potential", "linear-odd 0.001"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("band,predicted_lo,predicted_hi")
    assert lines[-1].startswith("order_slope,")
    slope = float(lines[-1].split(",")[1])
    assert slope >= ORDER_MIN
    cells = lines[1].split(",")
    assert abs(float(cells[1]) - float(cells[3])) <= 1e-6  # predicted vs measured


def _weak_order_slope(N, v, capsys):
    code, out, _ = run(["asymptotics", "--N", str(N), "--mode", "weak",
                        "--potential=" + ",".join(repr(float(x)) for x in v)], capsys)
    assert code == 0
    return out.strip().split("\n")[-1].split(",")[1]


def test_asymptotics_weak_order_slope_is_scale_free(capsys):
    # the fit starts at max|s*v| = 1e-2 whatever the size of v, so the slope
    # is the first-order error's order, not rounding noise
    v = np.random.default_rng(11).uniform(-1e-3, 1e-3, 7)
    slopes = [float(_weak_order_slope(3, s * v, capsys)) for s in (1.0, 10.0, 0.1)]
    assert max(slopes) - min(slopes) <= 1e-4
    assert all(2.99 <= s <= 3.01 for s in slopes)
    # under the flat-band criterion the first-order center is exact
    for v in ([0.0, 0.0, 0.0], [2e-3, 7e-3, 2e-3]):
        assert _weak_order_slope(1, v, capsys) == ""


def test_asymptotics_weak_subnormal_potential_leaves_order_slope_empty(capsys):
    # 1e-2 / max|v| is infinite: no scale reaches max|s*v| = 1e-2, and every
    # edge error would be below rounding, so no slope is fitted (a numpy
    # warning would fail this test: pytest turns RuntimeWarning into errors)
    assert _weak_order_slope(1, [1e-320, 0.0, 0.0], capsys) == ""


def test_asymptotics_constant_field_table(capsys):
    code, out, _ = run(
        ["asymptotics", "--N", "1", "--mode", "constant-field",
         "--potential", "constant-field 0.002"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("C_p,0.200000000000000")
    hi_pred = float(lines[1].split(",")[2])
    assert hi_pred == pytest.approx(4 * 0.002 / 5, rel=1e-12)


def test_asymptotics_strong_table(capsys, monkeypatch):
    import ribbonband.cli as cli_mod

    solved = []

    def counted(params):
        solved.append(params)
        return spectrum_report(params)

    monkeypatch.setattr(cli_mod, "spectrum_report", counted)
    code, out, _ = run(
        ["asymptotics", "--N", "1", "--mode", "strong", "--potential", "ramp",
         "--t", "100"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5  # header + 3 sites + order row
    assert float(lines[-1].split(",")[1]) >= ORDER_MIN
    assert len(solved) == 4  # one solve per scale, the table's included


def test_asymptotics_edges_table_leaves_unpredicted_cells_empty(capsys):
    # N = 3: the interior edge exists for |k| < 2 only; its cell and its
    # error cell are empty for k = +-2, +-3, and band 0 has no row
    code, out, _ = run(["asymptotics", "--N", "3", "--mode", "edges",
                        "--potential", "1e-4,2e-4,0,1e-4,3e-4,0,1e-4"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[0]) for r in rows] == [-3, -2, -1, 1, 2, 3]
    for r in rows:
        k = int(r[0])
        inner = (1, 5) if k > 0 else (2, 6)  # predicted and error cells
        for i in range(1, 7):
            empty = abs(k) >= 2 and i in inner
            assert (r[i] == "") == empty, (k, i, r)
        errors = [float(x) for x in r[5:] if x]
        assert errors and max(errors) <= 10 * 3e-4**2


def test_asymptotics_strong_needs_t(capsys):
    code, _, err = run(
        ["asymptotics", "--N", "1", "--mode", "strong", "--potential", "ramp"],
        capsys,
    )
    assert code == 2


def test_asymptotics_strong_below_threshold_is_criterion_violation(capsys):
    code, _, err = run(
        ["asymptotics", "--N", "1", "--mode", "strong", "--potential", "ramp",
         "--t", "5"],
        capsys,
    )
    assert code == 4


# ---------------------------------------------------------------------------
# config file and exit codes
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# ribbon run\nN = 2\npotential = zero\ngrid = 5\nformat = csv\n"
    )
    code, out, _ = run(["bands", "--config", str(cfg)], capsys)
    assert code == 0
    assert out.startswith("a,lambda_-2")
    assert len(out.strip().split("\n")) == 6

    code, out, _ = run(["bands", "--config", str(cfg), "--grid", "7"], capsys)
    assert code == 0
    assert len(out.strip().split("\n")) == 8  # flag wins over file


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wheels = 4\n")
    code, _, err = run(["bands", "--config", str(bad)], capsys)
    assert code == 2
    assert "wheels" in err

    code, _, err = run(["bands", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2


@pytest.mark.parametrize("argv, name", [
    pytest.param(["bands", "--t", "1"], "--t", id="bands-t"),
    pytest.param(["flatband", "--grid", "5"], "--grid", id="flatband-grid"),
    pytest.param(["asymptotics", "--mode", "weak", "--grid", "101"], "--grid",
                 id="asymptotics-grid"),
    pytest.param(["asymptotics", "--mode", "weak", "--format", "json"], "--format",
                 id="asymptotics-format"),
    pytest.param(["verify", "--N", "2"], "--N", id="verify-N"),
    pytest.param(["verify", "--config", "run.cfg"], "'N'", id="verify-config-key"),
])
def test_unread_flag_or_key_exits_2_and_names_it(argv, name, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("format = json\nN = 2\n")
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert name in err


@pytest.mark.parametrize("argv", [
    pytest.param(["bands", "--potential", "{dir}"], id="potential-directory"),
    pytest.param(["bands", "--potential", "{dir}/pot.txt"], id="potential-not-utf8"),
    pytest.param(["bands", "--config", "{dir}"], id="config-directory"),
    pytest.param(["bands", "--config", "{dir}/run.cfg"], id="config-not-utf8"),
    pytest.param(["bands", "--grid", "5", "--out", "{dir}/missing/x"],
                 id="out-unwritable"),
    pytest.param(["asymptotics", "--N", "1", "--mode", "constant-field",
                  "--potential", "constant-field abc"], id="constant-field-bad-eps"),
])
def test_unreadable_input_or_unwritable_out_exits_2(argv, tmp_path, capsys):
    # valid input once decoded as latin-1, where 0xa0 is white space
    (tmp_path / "pot.txt").write_bytes(b"0.1 0.2 0.3\xa0\n")
    (tmp_path / "run.cfg").write_bytes(b"N = 1\xa0\n")
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("config error:")


def test_invalid_arguments_exit_2(capsys):
    assert run(["bands", "--N", "0"], capsys)[0] == 2
    assert run(["bands", "--N", "2", "--grid", "4"], capsys)[0] == 2  # even grid
    assert run(["bands", "--N", "1", "--potential", "1,2"], capsys)[0] == 2


@pytest.mark.parametrize("argv, flag, value", [
    pytest.param(["bands", "--N", "2.5"], "--N", "2.5", id="N-not-int"),
    pytest.param(["bands", "--format", "xml"], "--format", "xml", id="format-choice"),
    pytest.param(["asymptotics", "--N", "1", "--mode", "sideways"], "--mode",
                 "sideways", id="mode-choice"),
    pytest.param(["bands", "--config", "{dir}/run.cfg"], "--N", "abc",
                 id="config-N-not-int"),
])
def test_bad_value_exits_2_and_names_flag_and_value(argv, flag, value, tmp_path,
                                                     capsys):
    (tmp_path / "run.cfg").write_text("N = abc\n")
    code, out, err = run([arg.format(dir=tmp_path) for arg in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert flag in err and repr(value) in err


def test_numerical_error_exit_3(capsys, monkeypatch):
    import ribbonband.cli as cli_mod

    def boom(config):
        raise NumericalError("synthetic eigensolver failure")

    monkeypatch.setattr(cli_mod, "cmd_bands", boom)
    code, _, err = run(["bands", "--N", "1"], capsys)
    assert code == 3
    assert "numerical error" in err


def test_overflowing_potential_exits_3(capsys):
    # the first-order edges overflow to inf: main reports it, not raises
    code, _, err = run(["asymptotics", "--N", "1", "--mode", "edges",
                        "--potential=1e308,1e308,1e308"], capsys)
    assert code == 3
    assert "numerical error" in err


def _run_process(argv, max_bytes=None):
    # a real process, so numpy warnings and tracebacks would reach stderr;
    # max_bytes caps its address space
    src = os.path.dirname(os.path.dirname(ribbonband.__file__))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run(
        [sys.executable, "-m", "ribbonband.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=None if max_bytes is None else limit,
    )


def _exits_3_without_warning(argv):
    proc = _run_process(argv)
    assert proc.returncode == 3
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("potential", ["constant-field 1e308", "linear-odd 1e308",
                                       "constant-field inf", "linear-odd nan"])
def test_named_potential_beyond_float_range_exits_2_without_warning(potential):
    # rejected before the potential vector is built, so nothing overflows
    proc = _run_process(["bands", "--N", "2", "--potential", potential])
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("t", ["1e308", "5e307", "inf", "nan"])
def test_strong_coupling_beyond_float_range_exits_2_without_warning(t):
    # rejected before t * v is formed, at the user's t or a doubled one
    proc = _run_process(["asymptotics", "--N", "1", "--mode", "strong",
                         "--potential", "ramp", "--t", t])
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("potential,t,code,prefix", [
    ("-1e308,1e308,1.5e308", "1", 2, "config error:"),  # v_p - v_1 overflows
    ("1e308,-1e308,1e308", "100", 4, "criterion violation:"),  # not increasing
], ids=["spacing-overflow", "not-increasing"])
def test_strong_potential_spacing_beyond_float_range_exits_without_warning(
        potential, t, code, prefix):
    # the strong-field checks compare entries before any spacing is formed
    proc = _run_process(["asymptotics", "--N", "1", "--mode", "strong",
                         f"--potential={potential}", "--t", t])
    assert proc.returncode == code
    assert prefix in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["bands", "--N", "1099511627776"],
    ["asymptotics", "--N", "50000000", "--mode", "edges", "--potential", "zero"],
    ["asymptotics", "--N", "50000000", "--mode", "constant-field",
     "--potential", "constant-field 1e-3"],
    ["bands", "--N", "1", "--grid", "100000001"],
    ["bands", "--N", "1", "--grid", "1000000001"],
    ["bands", "--N", "4096", "--grid", "489"],  # 489 x 8193 cells
], ids=["N-2^40", "edges-N-5e7", "constant-field-N-5e7", "grid-1e8", "grid-1e9",
        "cells-at-N-cap"])
def test_unallocatable_size_exits_2_before_allocating(argv):
    # the width and CSV-cell caps refuse these before any array of their
    # size exists; the address-space limit turns a regression into a
    # MemoryError (exit 1) instead of a host-sized allocation
    proc = _run_process(argv, max_bytes=1 << 30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("config error:") == 1
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_bands_near_float_limit_exits_3_without_warning():
    _exits_3_without_warning(["bands", "--N", "1", "--potential=1e308,-1e308,1e308"])


def test_weak_field_overflow_exits_3_without_warning():
    # the first-order central band a^2-weighted sums overflow at 1e308
    _exits_3_without_warning(["asymptotics", "--N", "1", "--mode", "weak",
                              "--potential=1e308,1e308,1e308"])


def test_flatband_near_float_limit_exits_0_with_zero_residual():
    # the criterion holds; the diagonal term is (v_k - v_1) * c, difference
    # first, so odd sites at 1e308 leave an exact 0 and nothing overflows
    proc = _run_process(["flatband", "--N", "2", "--potential",
                         "1e308,0,1e308,5,1e308", "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["residual"] == 0.0
    assert "Warning" not in proc.stderr


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_bands_json_report_near_float_limit_is_standard_json(tmp_path, capsys):
    # a flat band at 1e308: its value (lo + hi) / 2 must not overflow to
    # Infinity, which json.dumps writes although it is not JSON
    out = tmp_path / "near"
    code, _, _ = run(["bands", "--N", "1", "--potential=1e308,1e308,1e308",
                      "--format", "json", "--out", str(out)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "near.report.json").read_text(),
                        parse_constant=_no_constant)
    assert [(b["k"], b["value"]) for b in report["bands"] if b["flat"]] == [(0, 1e308)]
    assert [(b["lo"], b["hi"]) for b in report["bands"]] == [(1e308, 1e308)] * 3


def test_bands_edge_span_beyond_float_range_exits_3(tmp_path, capsys):
    # edges at -1e308 and 1e308: the spectrum's span overflows
    out = tmp_path / "span"
    code, _, err = run(["bands", "--N", "1", "--potential=1e308,-1e308,1e308",
                        "--format", "json", "--out", str(out)], capsys)
    assert code == 3 and "span" in err
    assert not (tmp_path / "span.report.json").exists()


def test_cli_import_leaves_scipy_linalg_and_optimize_unloaded():
    # no scipy module at all: scipy.sparse alone costs about 0.25 s of CLI
    # start-up, and only build_ribbon needs it
    src = os.path.dirname(os.path.dirname(ribbonband.__file__))
    probe = ("import sys, ribbonband.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_clean(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_verify_catches_corrupted_offdiagonal(capsys):
    # only the two-route check sees the tridiagonal side's off-diagonals
    code, out, _ = run(
        ["verify", "--selftest-corrupt-offdiag", "1e-6"], capsys
    )
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[0].startswith("FAIL axial-reduction oracle")
    assert all(line.startswith("PASS") for line in lines[1:5])
    assert lines[5] == "verification FAILED"


def test_verify_nan_offdiagonal_exits_3(capsys):
    code, out, err = run(["verify", "--selftest-corrupt-offdiag", "nan"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:")


def test_weak_center_order_check_fails_on_a_second_order_error(monkeypatch):
    # a first-order center off by max|v|^2 errs at order 2: the check must
    # fail it, as ORDER_MIN = 2.9 sits above the second order
    import ribbonband.cli as cli_mod

    def off_by_square(a, params):
        return weak_field_center(a, params) + float(np.max(np.abs(params.v))) ** 2

    w, grid = np.array([0.31, -0.42, 0.11, 0.27, -0.19]), np.linspace(0.0, 2.0, 51)
    assert cli_mod.check_weak_center_order(w, grid)[1]
    monkeypatch.setattr(cli_mod, "weak_field_center", off_by_square)
    _, passed, detail = cli_mod.check_weak_center_order(w, grid)
    assert not passed
    assert abs(float(detail.removeprefix("slope=")) - 2.0) < 0.05, detail


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "axial-reduction oracle (periodic section vs quasimomentum union)",
        "zero-potential closed-form bands",
        "flat-band exactness and criterion sharpness",
        "weak-field central band first-order error is third order",
        "strong-field top band width decays at third order",
    ]
