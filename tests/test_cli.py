"""Command-line behavior: table formats, config handling, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ribbonband
from ribbonband import (
    ConfigError,
    NumericalError,
    RibbonParams,
    eigenvalues_batch,
    spectrum_report,
)
from ribbonband.cli import fmt15, main, resolve_potential


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
    assert slope >= 1.9
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
    assert float(lines[-1].split(",")[1]) >= 1.9
    assert len(solved) == 4  # one solve per scale, the table's included


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


def test_numerical_error_exit_3(capsys, monkeypatch):
    import ribbonband.cli as cli_mod

    def boom(config):
        raise NumericalError("synthetic bisection stall")

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


def _run_process(argv):
    # a real process, so numpy warnings and tracebacks would reach stderr
    src = os.path.dirname(os.path.dirname(ribbonband.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ribbonband.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
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


def test_bands_near_float_limit_exits_3_without_warning():
    _exits_3_without_warning(["bands", "--N", "1", "--potential=1e308,-1e308,1e308"])


def test_weak_field_overflow_exits_3_without_warning():
    # the first-order central band a^2-weighted sums overflow at 1e308
    _exits_3_without_warning(["asymptotics", "--N", "1", "--mode", "weak",
                              "--potential=1e308,1e308,1e308"])


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
    code, out, _ = run(
        ["verify", "--selftest-corrupt-offdiag", "1e-6"], capsys
    )
    assert code == 1
    assert "FAIL" in out.split("\n")[0]


def test_verify_json_format(capsys):
    code, out, _ = run(["verify", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 5
