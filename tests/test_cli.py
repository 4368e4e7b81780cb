"""Tests for the command-line front end and its artifacts."""

import csv
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from vanhove_lab.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# help and version
# ---------------------------------------------------------------------------


def test_group_help_lists_commands(runner):
    r = runner.invoke(main, ["--help"])
    assert r.exit_code == 0
    for cmd in ("sigma2", "dsigma-domega", "grad-check", "d2-xieta",
                "d2-xixi", "bubble-ph", "bubble-pp", "overlap",
                "normal-form", "interval-check", "fit"):
        assert cmd in r.output


def documented_columns(runner, cmd):
    """Column names listed after "Columns:" in the command's --help, and
    those that --with-imaginary appends."""
    r = runner.invoke(main, [cmd, "--help"])
    assert r.exit_code == 0
    text = " ".join(r.output.split("Columns:")[1].split("Options:")[0].split())
    base, _, extra = text.partition("; --with-imaginary appends ")
    return [[w.strip(" .") for w in part.split(",")] if part else []
            for part in (base, extra)]


# A cheap invocation of every command, keyed by name.
COLUMN_CASES = {
    "sigma2": ["sigma2", "--q0-min", "0.5", "--abs-tol", "0.05",
               "--rel-tol", "0.05", "--max-evals", "20000"],
    "dsigma-domega": ["dsigma-domega", "--q0-min", "0.1", "--q0-points", "1",
                      "--abs-tol", "1e-5", "--rel-tol", "1e-5"],
    "grad-check": ["grad-check", "--beta", "4", "--abs-tol", "0.05",
                   "--rel-tol", "0.05", "--max-evals", "20000"],
    "d2-xieta": ["d2-xieta", "--q0-min", "0.1", "--q0-points", "1",
                 "--abs-tol", "1e-5", "--rel-tol", "1e-5"],
    "d2-xixi": ["d2-xixi", "--q0-min", "0.2", "--q0-points", "1",
                "--abs-tol", "1e-5", "--rel-tol", "1e-5"],
    "d2-xixi --with-imaginary": [
        "d2-xixi", "--with-imaginary", "--q0-min", "0.2", "--q0-points", "1",
        "--abs-tol", "1e-4", "--rel-tol", "1e-4"],
    "bubble-ph": ["bubble-ph", "--beta-points", "1"],
    "bubble-pp": ["bubble-pp", "--beta-points", "1"],
    "overlap": ["overlap", "--num-p", "2", "--j-min", "-2"],
    "normal-form": ["normal-form"],
    "interval-check": ["interval-check", "--per-k", "1"],
    "fit": ["fit"],
}


def test_every_command_is_column_checked(runner):
    r = runner.invoke(main, ["--help"])
    listed = {line.split()[0] for line in
              r.output.split("Commands:")[1].strip().splitlines()}
    assert listed == {case.split()[0] for case in COLUMN_CASES}


@pytest.mark.parametrize("case", sorted(COLUMN_CASES))
def test_command_help_documents_columns(runner, tmp_path, case):
    argv = list(COLUMN_CASES[case])
    if argv == ["fit"]:
        src = tmp_path / "sweep.csv"
        src.write_text("q0,value\n" + "".join(
            "%.16e,%.16e\n" % (x, math.log(x) ** 2)
            for x in np.geomspace(1e-5, 0.1, 5)))
        argv += ["--input", str(src)]
    prefix = tmp_path / "cols"
    r = runner.invoke(main, argv + ["--out-prefix", str(prefix),
                                    "--deterministic"])
    assert r.exit_code in (0, 3), r.output
    base, extra = documented_columns(runner, argv[0])
    expected = base + extra if "--with-imaginary" in argv else base
    header, _ = read_csv(prefix.with_suffix(".csv"))
    assert header == expected
    man = read_json(prefix.with_suffix(".json"))
    assert sorted(man["columns"]) == sorted(expected)
    assert "threads" not in man
    assert "non_converged_rows" in man["results"]


def test_version(runner):
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0
    assert "0.1.0" in r.output


# ---------------------------------------------------------------------------
# sweeps and artifacts
# ---------------------------------------------------------------------------


def test_dsigma_sweep_writes_artifacts_with_fit(runner, tmp_path):
    prefix = tmp_path / "run"
    r = runner.invoke(main, [
        "dsigma-domega", "--q0-min", "1e-3", "--q0-max", "1e-1",
        "--q0-points", "5", "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert header == ["q0", "value", "error_estimate", "evaluations",
                      "converged"]
    assert len(rows) == 5
    assert all(row[4] == "true" for row in rows)
    man = read_json(prefix.with_suffix(".json"))
    assert man["schema"] == "vanhove-lab/1"
    assert man["wall_time_s"] is None
    assert set(man["columns"]) == set(header)
    fit = man["results"]["fit"]
    # on this coarse window the square-log slope is already near -4 ln 2
    assert abs(fit["a"] + 4.0 * math.log(2.0)) < 0.4


def test_svg_plot_written(runner, tmp_path):
    prefix = tmp_path / "plot"
    r = runner.invoke(main, [
        "bubble-ph", "--svg", "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0
    svg = prefix.with_suffix(".svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg and "rendered" not in svg


def test_bubble_pp_residual_column_small(runner, tmp_path):
    prefix = tmp_path / "bpp"
    r = runner.invoke(main, ["bubble-pp", "--out-prefix", str(prefix),
                             "--deterministic"])
    assert r.exit_code == 0
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert header == ["kind", "beta", "value", "prediction", "residual"]
    assert len(rows) == 4
    assert all(abs(float(row[4])) < 1e-4 for row in rows)


def test_dotted_prefix_keeps_its_name(runner, tmp_path):
    # The suffix is appended to the prefix, not swapped for its last dot.
    other = tmp_path / "x.csv"
    other.write_text("another run\n")
    r = runner.invoke(main, ["bubble-ph", "--beta-points", "1",
                             "--out-prefix", str(tmp_path / "x.tmp"),
                             "--deterministic"])
    assert r.exit_code == 0, r.output
    header, _ = read_csv(tmp_path / "x.tmp.csv")
    assert set(read_json(tmp_path / "x.tmp.json")["columns"]) == set(header)
    assert other.read_text() == "another run\n"
    assert not (tmp_path / "x.json").exists()


def test_sigma2_single_point(runner, tmp_path):
    prefix = tmp_path / "s2"
    r = runner.invoke(main, [
        "sigma2", "--q", "0.3", "-0.2", "--beta", "4",
        "--q0-min", str(math.pi / 4), "--abs-tol", "5e-3", "--rel-tol",
        "5e-3", "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 1
    assert abs(float(rows[0][1]) - 0.0894) < 0.02
    assert abs(float(rows[0][2]) + 3.0852) < 0.05


def test_grad_check_reports_zero(runner, tmp_path):
    prefix = tmp_path / "gc"
    r = runner.invoke(main, [
        "grad-check", "--beta", "4", "--abs-tol", "1e-3", "--rel-tol",
        "1e-3", "--max-evals", "600000", "--out-prefix", str(prefix),
        "--deterministic"])
    assert r.exit_code == 0, r.output
    man = read_json(prefix.with_suffix(".json"))
    assert man["results"]["zero_within_10_sigma"] is True
    assert man["results"]["max_abs_component"] < 1e-10


def test_d2_xixi_with_imaginary_columns(runner, tmp_path):
    prefix = tmp_path / "xx"
    r = runner.invoke(main, [
        "d2-xixi", "--q0-min", "0.2", "--with-imaginary",
        "--q0-points", "1", "--abs-tol", "1e-6", "--rel-tol", "1e-6",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert header[-4:] == ["im_value", "im_x1", "im_i20", "im_x3"]
    row = rows[0]
    # assembled real profile equals half the closed-form boundary term
    assert abs(float(row[1]) - 0.5 * float(row[2])) < 1e-6
    # the double-pole boundary piece is minus twice the interior one
    assert abs(float(row[10]) + 2.0 * float(row[9])) < 1e-5


def test_d2_xixi_with_imaginary_converges_at_defaults(runner, tmp_path):
    # the default grid reaches q0 = 1e-5; only im_x1 is a quadrature
    prefix = tmp_path / "xxdef"
    r = runner.invoke(main, ["d2-xixi", "--with-imaginary", "--out-prefix",
                             str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 9
    assert all(row[header.index("converged")] == "true" for row in rows)
    results = read_json(prefix.with_suffix(".json"))["results"]
    assert results["non_converged_rows"] == 0
    assert results["non_converged_pieces"] == []
    for row in results["pieces"]:
        for name in ("b0", "re_i20", "im_i20", "im_x3"):
            assert (row[name]["evaluations"], row[name]["error_estimate"]) \
                == (0, 0.0)


# ---------------------------------------------------------------------------
# geometry commands
# ---------------------------------------------------------------------------


def test_overlap_csv_has_exactly_seven_columns(runner, tmp_path):
    prefix = tmp_path / "ov"
    r = runner.invoke(main, [
        "overlap", "--num-p", "2", "--j-min", "-3",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert header == ["p_x", "p_y", "j", "length", "length_error", "bound",
                      "violated"]
    assert all(len(row) == 7 for row in rows)
    assert len(rows) == 2 * 3
    assert all(0.0 <= float(row[4]) < 1e-6 for row in rows)
    man = read_json(prefix.with_suffix(".json"))
    assert man["seeds"] == {"rng_seed": 0}
    assert man["results"]["step"] == 0.01


@pytest.mark.parametrize("args", [
    ["--num-p", "0"], ["--delta", "0"], ["--num-p", "1", "--delta", "0.99"]])
def test_overlap_bad_sample_inputs_exit_2(runner, tmp_path, args):
    r = runner.invoke(main, ["overlap", "--out-prefix", str(tmp_path / "ov")]
                      + args)
    assert r.exit_code == 2
    assert "ValueError" in r.output
    assert not (tmp_path / "ov.csv").exists()


def test_overlap_underflowing_threshold_exits_2(runner, tmp_path):
    # 1e300^-2 is 0.0; the error names M and j, not the trace step
    r = runner.invoke(main, ["overlap", "--scale", "1e300", "--j-min", "-2",
                             "--out-prefix", str(tmp_path / "ov")])
    assert r.exit_code == 2
    assert "threshold M^j for M = 1e+300, j = -2 rounds to 0" in r.stderr
    assert "step" not in r.stderr
    assert not (tmp_path / "ov.csv").exists()


@pytest.mark.parametrize("args", [
    ["--scale", "1e300", "--j-min", "-1"], ["--scale", "10", "--j-min", "-7"]],
    ids=["threshold-1e-300", "threshold-1e-7"])
def test_overlap_deep_thresholds_run_at_fixed_step(runner, tmp_path, args):
    # thresholds 1e-300 and 1e-7 no longer set the trace step
    prefix = tmp_path / "ov"
    t0 = time.perf_counter()
    r = runner.invoke(main, ["overlap", "--out-prefix", str(prefix)] + args)
    assert time.perf_counter() - t0 < 5.0
    assert r.exit_code == 0, r.output
    assert read_json(prefix.with_suffix(".json"))["results"]["step"] == 0.01
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 40 * -int(args[-1])


@pytest.mark.parametrize("args", [
    ["--radius", "-inf"], ["--radius", "-0.0"], ["--radius", "0"],
    ["--radius", "-1"], ["--radius", "nan"], ["--radius", "inf"]])
def test_normal_form_bad_patch_inputs_exit_2(runner, tmp_path, args):
    r = runner.invoke(main, ["normal-form", "--out-prefix", str(tmp_path / "nf")]
                      + args)
    assert r.exit_code == 2
    assert "ValueError" in r.output
    assert not (tmp_path / "nf.csv").exists()


def test_normal_form_grid_is_no_option(runner, tmp_path):
    # nothing is tabulated, so there is no grid to size
    r = runner.invoke(main, ["normal-form", "--grid", "21",
                             "--out-prefix", str(tmp_path / "nf")])
    assert r.exit_code == 2
    assert "No such option" in r.output and "--grid" in r.output


@pytest.mark.parametrize("command", ["overlap", "normal-form"])
def test_model_options_have_help(runner, command):
    r = runner.invoke(main, [command, "--help"])
    assert r.exit_code == 0
    text = " ".join(r.output.split())
    for option, words in (("--model", "Band: the hubbard saddle band"),
                          ("--theta", "Next-neighbor hopping ratio"),
                          ("--mu", "Chemical potential measured")):
        assert f"{option} " in text and words in text


def test_normal_form_rows(runner, tmp_path):
    prefix = tmp_path / "nf"
    r = runner.invoke(main, ["normal-form", "--out-prefix", str(prefix),
                             "--deterministic"])
    assert r.exit_code == 0, r.output
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row[2]) + 0.7) < 1e-8
        assert abs(float(row[3]) - 1.3) < 1e-8
        assert float(row[7]) < 1e-6
        assert 0.0 < float(row[8]) <= float(row[9])


def test_interval_check_all_hold(runner, tmp_path):
    prefix = tmp_path / "ic"
    r = runner.invoke(main, [
        "interval-check", "--per-k", "3",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(header) == 7
    assert len(rows) == 9
    assert all(row[6] == "true" for row in rows)
    assert read_json(prefix.with_suffix(".json"))["results"]["all_hold"] is True


@pytest.mark.parametrize("grid", ["0", "1"])
def test_interval_check_grid_below_two_exits_2(runner, tmp_path, grid):
    # the measure needs no sample grid: --grid is no option at all
    r = runner.invoke(main, ["interval-check", "--per-k", "1", "--grid", grid,
                             "--out-prefix", str(tmp_path / "ic")])
    assert r.exit_code == 2
    assert "No such option" in r.output and "--grid" in r.output
    assert not (tmp_path / "ic.csv").exists()


# ---------------------------------------------------------------------------
# fit command
# ---------------------------------------------------------------------------


def test_fit_command_recovers_coefficients(runner, tmp_path):
    src = tmp_path / "sweep.csv"
    x = np.geomspace(1e-5, 1e-1, 9)
    y = 2.0 * np.log(x) ** 2 - 3.0 * np.log(x) + 1.0
    src.write_text("q0,value\n" + "\n".join(
        "%.16e,%.16e" % p for p in zip(x, y)) + "\n")
    prefix = tmp_path / "fit"
    r = runner.invoke(main, ["fit", "--input", str(src),
                             "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    fit = read_json(prefix.with_suffix(".json"))["results"]["fit"]
    assert abs(fit["a"] - 2.0) < 1e-9
    assert abs(fit["b"] + 3.0) < 1e-9
    assert abs(fit["c"] - 1.0) < 1e-9
    header, rows = read_csv(prefix.with_suffix(".csv"))
    assert header == ["x", "y", "fitted", "residual"]
    assert all(abs(float(row[3])) < 1e-9 for row in rows)


def test_fit_missing_column_is_config_error(runner, tmp_path):
    src = tmp_path / "sweep.csv"
    src.write_text("a,b\n1.0,2.0\n")
    r = runner.invoke(main, ["fit", "--input", str(src),
                             "--out-prefix", str(tmp_path / "f")])
    assert r.exit_code == 2
    assert "ValueError" in r.stderr


# ---------------------------------------------------------------------------
# exit codes, config merging, determinism
# ---------------------------------------------------------------------------


def test_zero_frequency_is_config_error(runner, tmp_path):
    r = runner.invoke(main, [
        "sigma2", "--q0-min", "0", "--q0-max", "1", "--q0-points", "2",
        "--linear", "--out-prefix", str(tmp_path / "bad")])
    assert r.exit_code == 2
    assert "ZeroFrequency" in r.stderr


@pytest.mark.parametrize("argv", [
    ["grad-check", "--q0", "nan"],
    ["dsigma-domega", "--linear", "--q0-min", "nan", "--q0-max", "0.01",
     "--q0-points", "2"],
    ["d2-xixi", "--q0-min", "inf", "--q0-points", "1"],
    ["sigma2", "--beta", "inf"],
    ["dsigma-domega", "--abs-tol", "nan", "--rel-tol", "nan"],
    ["bubble-ph", "--beta-min", "inf", "--beta-points", "1"],
    ["normal-form", "--mu", "nan"],
    ["overlap", "--scale", "nan"],
    ["sigma2", "--q", "nan", "0"],
], ids=["grad-check-q0-nan", "dsigma-q0-min-nan", "d2-xixi-q0-min-inf",
        "sigma2-beta-inf", "dsigma-tols-nan", "bubble-beta-inf",
        "normal-form-mu-nan", "overlap-scale-nan", "sigma2-q-nan"])
def test_non_finite_input_is_config_error(runner, tmp_path, argv):
    # rejected at the library boundary, before any numerical work
    r = runner.invoke(main, argv + ["--out-prefix", str(tmp_path / "bad")])
    assert r.exit_code == 2
    assert any(line.startswith("error: ValueError:")
               for line in r.stderr.splitlines())
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.filterwarnings("error")
def test_no_fermi_curve_exits_2_without_warnings(runner, tmp_path):
    # |e| near 1e300 on the seed grid: the sign-change scan must not
    # multiply neighbouring values, whose product overflows
    r = runner.invoke(main, ["overlap", "--mu", "1e300",
                             "--out-prefix", str(tmp_path / "ov")])
    assert r.exit_code == 2
    assert "no Fermi curve found" in r.stderr
    assert "RuntimeWarning" not in r.stderr
    assert not (tmp_path / "ov.csv").exists()


def test_budget_exhaustion_exits_3_but_writes_artifacts(runner, tmp_path):
    prefix = tmp_path / "noc"
    r = runner.invoke(main, [
        "dsigma-domega", "--q0-min", "1e-2", "--q0-max", "1e-1",
        "--q0-points", "5", "--max-evals", "200",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 3
    assert "non-convergence" in r.stderr
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert any(row[4] == "false" for row in rows)
    assert prefix.with_suffix(".json").exists()


def test_manifest_names_non_converged_pieces(runner, tmp_path):
    prefix = tmp_path / "starved"
    r = runner.invoke(main, [
        "d2-xixi", "--with-imaginary", "--q0-min", "1e-2", "--q0-max",
        "1e-2", "--q0-points", "1", "--max-evals", "2000",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 3
    assert "failing pieces: im_x1" in r.stderr
    results = read_json(prefix.with_suffix(".json"))["results"]
    assert results["non_converged_pieces"] == ["im_x1"]
    (row,) = results["pieces"]
    assert sorted(row) == ["b0", "im_i20", "im_x1", "im_x3", "re_i20"]
    for name, acct in row.items():
        assert sorted(acct) == ["converged", "error_estimate", "evaluations",
                                "frozen", "leaves", "rounds"]
        assert acct["converged"] is (name != "im_x1")
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert int(rows[0][5]) == sum(a["evaluations"] for a in row.values())


@pytest.mark.parametrize("argv", [
    ["dsigma-domega", "--q0-min", "-0.05", "--q0-max", "-0.01",
     "--q0-points", "5"],
    ["dsigma-domega", "--q0-min", "-0.05", "--q0-max", "-0.01",
     "--q0-points", "3"],
    ["d2-xieta", "--q0-min", "-0.05", "--q0-max", "0.05", "--q0-points", "2"],
    ["dsigma-domega", "--q0-min", "0.01", "--q0-max", "0.01",
     "--q0-points", "5"],
], ids=["dsigma-5", "dsigma-3", "xieta-straddle", "dsigma-repeated"])
def test_sweep_outside_fit_domain_plots_without_fit(runner, tmp_path, argv):
    # both derivatives are even in q0, so these are valid sweeps; a log
    # axis needs every swept q0 > 0, and the log-square fit also needs
    # the swept q0 pairwise distinct
    prefix = tmp_path / "neg"
    r = runner.invoke(main, argv + ["--linear", "--svg", "--out-prefix",
                                    str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    for suffix in (".csv", ".json", ".svg"):
        assert prefix.with_suffix(suffix).exists()
    svg = prefix.with_suffix(".svg").read_text()
    assert "nan" not in svg and "<circle" in svg
    assert "fit" not in read_json(prefix.with_suffix(".json"))["results"]


def test_config_file_merge_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"q0_min": 2e-3, "q0_max": 2e-2, "q0_points": 5}))
    prefix = tmp_path / "m"
    r = runner.invoke(main, [
        "dsigma-domega", "--config", str(cfg), "--q0-points", "6",
        "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    man = read_json(prefix.with_suffix(".json"))
    assert man["config"]["q0_min"] == 2e-3     # file beats default
    assert man["config"]["q0_points"] == 6     # flag beats file
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 6


@pytest.mark.parametrize("cmd, values, flag", [
    ("dsigma-domega", {"q0_points": "five"}, "--q0-points"),
    ("dsigma-domega", {"geometric": "maybe"}, "--geometric"),
    ("sigma2", {"q": [1, 2, 3]}, "--q"),
], ids=["points-not-int", "spacing-not-bool", "q-three-values"])
def test_bad_config_value_is_checked_like_its_flag(runner, tmp_path, cmd,
                                                   values, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    r = runner.invoke(main, [cmd, "--config", str(cfg),
                             "--out-prefix", str(tmp_path / "x")])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert f"Invalid value for '{flag}'" in r.stderr
    assert not (tmp_path / "x.csv").exists()


def test_config_values_are_converted_like_flags(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q0_points": "5"}))
    prefix = tmp_path / "five"
    r = runner.invoke(main, ["dsigma-domega", "--config", str(cfg),
                             "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert len(rows) == 5
    assert read_json(prefix.with_suffix(".json"))["config"]["q0_points"] == 5

    cfg.write_text(json.dumps({"geometric": "no", "q0_min": 1e-3,
                               "q0_max": 1e-2, "q0_points": 3}))
    prefix = tmp_path / "linear"
    r = runner.invoke(main, ["dsigma-domega", "--config", str(cfg),
                             "--out-prefix", str(prefix), "--deterministic"])
    assert r.exit_code == 0, r.output
    _, rows = read_csv(prefix.with_suffix(".csv"))
    assert [float(row[0]) for row in rows] == \
        np.linspace(1e-3, 1e-2, 3).tolist()


def test_unknown_config_key_is_config_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    r = runner.invoke(main, ["dsigma-domega", "--config", str(cfg),
                             "--out-prefix", str(tmp_path / "x")])
    assert r.exit_code == 2
    assert "unknown config keys" in r.stderr


def test_deterministic_reruns_byte_identical(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"q0_min": 2e-3, "q0_max": 2e-2, "q0_points": 5}))
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        r = runner.invoke(main, [
            "dsigma-domega", "--config", str(cfg),
            "--out-prefix", "run", "--deterministic"])
        assert r.exit_code == 0, r.output
        outs.append(((d / "run.csv").read_bytes(),
                     (d / "run.json").read_bytes()))
    assert outs[0] == outs[1]
