"""Command-line interface tests, run in process through main(argv)."""

import csv
import io
import json
import re

import numpy as np
import pytest

from statnn.cli import main


def _make_csv(path, n=60, seed=170):
    """Small nonlinear dataset with a factor column."""
    rng = np.random.default_rng(seed)
    age = rng.uniform(20, 60, n)
    bmi = rng.uniform(18, 36, n)
    smoker = rng.choice(["yes", "no"], n, p=[0.3, 0.7])
    smoker[0] = "yes"  # fix the reference level so "smoker.no" is the dummy
    z_age = (age - age.mean()) / age.std(ddof=1)
    z_bmi = (bmi - bmi.mean()) / bmi.std(ddof=1)
    surface = (6.0 / (1.0 + np.exp(-1.2 * z_age + 0.8 * z_bmi - 1.0))
               + 4.0 * (smoker == "yes"))
    y = surface + 0.25 * rng.normal(size=n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["age", "bmi", "smoker", "charges"])
        for row in zip(age, bmi, smoker, y):
            writer.writerow([f"{row[0]:.4f}", f"{row[1]:.4f}", row[2],
                             f"{row[3]:.5f}"])
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = _make_csv(root / "data.csv")
    model_path = str(root / "model.json")
    code = main(["fit", csv_path, "--response", "charges", "--q", "2",
                 "--restarts", "4", "--seed", "3", "--out", model_path])
    assert code == 0
    return root, csv_path, model_path


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"\d+\.\d+\.\d+\n", out)
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    for cmd in ("fit", "summary", "pce", "select", "diagram", "simulate"):
        assert cmd in help_text


def test_fit_writes_valid_model(workspace):
    import pathlib

    _, csv_path, model_path = workspace
    payload = json.loads(pathlib.Path(model_path).read_text("utf-8"))
    assert payload["format_version"] == 2
    assert payload["p"] == 3 and payload["q"] == 2
    assert len(payload["theta"]) == 5 * 2 + 1
    sources = [(m["name"], m["raw"], m["level"])
               for m in payload["column_meta"]]
    assert sources == [("age", "age", None), ("bmi", "bmi", None),
                       ("smoker.no", "smoker", "no")]
    assert payload["response_meta"]["name"] == "charges"
    assert payload["response_meta"]["raw"] == "charges"


def test_fit_deterministic(workspace, tmp_path):
    import pathlib

    _, csv_path, model_path = workspace
    again = tmp_path / "model2.json"
    assert main(["fit", csv_path, "--response", "charges", "--q", "2",
                 "--restarts", "4", "--seed", "3", "--out", str(again)]) == 0
    assert pathlib.Path(model_path).read_bytes() == again.read_bytes()


def test_summary_text(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["summary", model_path, csv_path]) == 0
    out = capsys.readouterr().out
    assert "Wald tests" in out
    assert "age" in out and "smoker.no" in out
    assert "Significance codes" in out


def test_summary_json_matches_text_numbers(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["summary", model_path, csv_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["summary", model_path, csv_path]) == 0
    text = capsys.readouterr().out
    for cov in payload["covariates"]:
        line = next(l for l in text.splitlines()
                    if l.startswith(cov["name"]))
        nums = [float(t) for t in re.findall(
            r"-?\d+\.?\d*(?:e[+-]?\d+)?", line.replace("*", ""))]
        assert nums[0] == cov["weights"][0]["estimate"]


def test_summary_out_file(workspace, tmp_path):
    _, csv_path, model_path = workspace
    out = tmp_path / "summary.csv"
    assert main(["summary", model_path, csv_path, "--format", "csv",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "row_kind"


def test_pce_continuous(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--grid-points", "7"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["covariate", "condition", "scale", "d", "x",
                       "beta_hat", "se", "lo", "hi"]
    assert len(rows) == 8
    assert all(r[2] == "standardized" for r in rows[1:])


def test_pce_original_scale_with_reference(workspace, tmp_path, capsys):
    _, csv_path, model_path = workspace
    svg = tmp_path / "age.svg"
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--grid-points", "5", "--original-scale",
                 "--linear-reference", "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert all(r[2] == "original" for r in rows[1:])
    xs = [float(r[4]) for r in rows[1:]]
    assert min(xs) > 15.0  # ages, not z-scores
    assert "linear model" in svg.read_text()


def test_pce_linear_reference_needs_svg(workspace, capsys):
    """The reference line is drawn only on the plot; without --svg the
    flag is refused before any model is read."""
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--linear-reference"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--linear-reference" in captured.err and "--svg" in captured.err
    assert "Traceback" not in captured.err


def test_pce_dummy_single_point(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate",
                 "smoker.no"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2       # header + the single 0 -> 1 switch
    assert float(rows[1][3]) == 1.0


def test_pce_dummy_refuses_step_other_than_one(workspace, capsys):
    """A dummy's effect is the 0 -> 1 switch; --d 1 is the default and any
    other step is refused instead of being ignored."""
    _, csv_path, model_path = workspace
    argv = ["pce", model_path, csv_path, "--covariate", "smoker.no"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--d", "1"]) == 0
    assert capsys.readouterr().out == default
    for d in ("0.5", "2"):
        assert main(argv + ["--d", d]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "smoker.no" in err and "step" in err


def test_pce_conditioned(workspace, capsys, tmp_path):
    _, csv_path, model_path = workspace
    svg = tmp_path / "curve.svg"
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--by", "smoker.no", "--grid-points", "5",
                 "--svg", str(svg)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    conditions = {r[1] for r in rows[1:]}
    assert conditions == {"smoker.no=0", "smoker.no=1"}
    assert svg.read_text().startswith("<svg")


def test_pce_step_spanning_range_gives_one_point(workspace, capsys):
    """A step wider than the column's range leaves the single grid point
    at the column minimum, whatever the requested point count."""
    _, csv_path, model_path = workspace
    outputs = []
    for extra in ([], ["--grid-points", "50"]):
        assert main(["pce", model_path, csv_path, "--covariate", "age",
                     "--d", "100"] + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rows = list(csv.reader(io.StringIO(outputs[0])))
    assert len(rows) == 2
    assert float(rows[1][3]) == 100.0


@pytest.mark.parametrize("extra", [[], ["--d", "100"]])
def test_pce_grid_points_below_one(workspace, capsys, extra):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--grid-points", "0"] + extra) == 2
    assert "error:" in capsys.readouterr().err


def test_pce_unknown_covariate(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path,
                 "--covariate", "height"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "height" in err


def test_diagram(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["diagram", model_path, csv_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph network {")
    assert '"x1"' in out and '"out"' in out


def test_select(workspace, capsys, tmp_path):
    _, csv_path, _ = workspace
    svg = tmp_path / "select.svg"
    assert main(["select", csv_path, "--response", "charges",
                 "--q-list", "0,1,2", "--restarts", "2", "--folds", "3",
                 "--seed", "5", "--svg", str(svg)]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == ["q", "bic", "cv_rmse", "cv_se", "error"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert "best BIC" in captured.err
    assert "best CV RMSE" in captured.err
    assert svg.read_text().startswith("<svg")


def test_select_no_cv(workspace, capsys):
    _, csv_path, _ = workspace
    assert main(["select", csv_path, "--response", "charges",
                 "--q-list", "0,1", "--restarts", "2", "--no-cv"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert all(r[2] == "NA" for r in rows[1:])
    assert "best CV RMSE" not in captured.err


def test_select_fold_data_error_exits_2(tmp_path, capsys):
    """x is constant on the training rows of the fold that holds its one
    2: the fold's data error names the column and exits 2, where it used
    to exit 3 with a numerical-failure hint."""
    path = tmp_path / "t.csv"
    path.write_text("x,z,y\n1,0.5,1.2\n1,-1.0,0.3\n1,2.0,2.1\n"
                    "2,0.1,0.9\n1,-0.4,-0.5\n")
    assert main(["select", str(path), "--response", "y", "--q-list", "0",
                 "--folds", "5"]) == 2
    err = capsys.readouterr().err
    assert "cross-validation fold" in err and "'x'" in err
    assert "hint" not in err


def test_select_fold_collinear_dummy_costs_only_the_baseline(tmp_path,
                                                             capsys):
    """The dummy d is 0 on the training rows of the fold that holds its
    one 1, so that fold's OLS design is collinear: the linear baseline
    loses its CV score but keeps its BIC, and the network is scored in
    full."""
    path = tmp_path / "d.csv"
    z = (0.5, -1.0, 2.0, 0.1, -0.4, 1.3, -0.7, 0.9, -1.6, 0.2)
    y = (1.2, 0.3, 2.1, 0.9, -0.5, 1.6, 0.1, 1.0, -0.9, 0.4)
    path.write_text("d,z,y\n" + "".join(
        f"{int(i == 3)},{zi},{yi}\n" for i, (zi, yi) in enumerate(zip(z, y))))
    assert main(["select", str(path), "--response", "y", "--q-list", "0,1",
                 "--folds", "5", "--restarts", "4"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    linear, net = rows[1], rows[2]
    assert linear[0] == "0" and linear[1] != "NA" and linear[2] == "NA"
    assert "collinear" in linear[4] and "d" in linear[4]
    assert net[0] == "1" and "NA" not in net[1:4] and net[4] == ""


def test_simulate(tmp_path, capsys):
    scen = {"format_version": 1, "q": 2, "nz_pattern": "5-1", "n": 50,
            "replicates": 3, "restarts": 1, "seed": 8, "lambda": 0.01}
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))
    out_dir = tmp_path / "results"
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(out_dir)]) == 0
    for name in ("overview.csv", "estimates.csv", "rejections.csv"):
        assert (out_dir / name).exists()
    rows = list(csv.reader(io.StringIO(
        (out_dir / "overview.csv").read_text())))
    table = dict(rows[1:])
    assert table["replicates"] == "3"


def test_simulate_parallel_byte_identical(tmp_path):
    scen = {"format_version": 1, "q": 2, "nz_pattern": "5-1", "n": 50,
            "replicates": 4, "restarts": 1, "seed": 9, "lambda": 0.01}
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["simulate", str(scen_path), "--out-dir", str(serial)]) == 0
    assert main(["simulate", str(scen_path), "--out-dir", str(parallel),
                 "--jobs", "2"]) == 0
    for name in ("overview.csv", "estimates.csv", "rejections.csv"):
        assert ((serial / name).read_bytes()
                == (parallel / name).read_bytes())


@pytest.mark.parametrize("grid, outputs", [
    ({"effect": [0.0, 0.4]}, ("power.csv", "power.svg")),
    ({"n": [40, 60], "lambda": [0.0, 0.01]}, ("pd.csv",)),
])
def test_simulate_grid_serial_and_parallel_byte_identical(tmp_path, grid,
                                                          outputs):
    """A grid file writes only its study table, equal to the library's
    rendering of run_grid, and --jobs does not change a byte."""
    from statnn.plots import power_plot_svg
    from statnn.report import pd_csv, power_csv
    from statnn.serialize import parse_study
    from statnn.simgen import run_grid

    scen = dict({"format_version": 1, "q": 2, "nz_pattern": "5-1", "n": 40,
                 "replicates": 2, "restarts": 1, "seed": 10}, **grid)
    scen_path = tmp_path / "grid.json"
    scen_path.write_text(json.dumps(scen))
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["simulate", str(scen_path), "--out-dir", str(serial)]) == 0
    assert main(["simulate", str(scen_path), "--out-dir", str(parallel),
                 "--jobs", "2"]) == 0
    assert sorted(p.name for p in serial.iterdir()) == sorted(outputs)
    for name in outputs:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()
    scenario, axes = parse_study(scen_path.read_text())
    reports = run_grid(scenario, **axes)
    render = {"power.csv": power_csv, "power.svg": power_plot_svg,
              "pd.csv": pd_csv}
    for name in outputs:
        assert (serial / name).read_text() == render[name](reports)


@pytest.mark.parametrize("grid, message", [
    ({"n": []}, "n list must not be empty"),
    ({"effect": []}, "effect list must not be empty"),
    ({"lambda": [0.01, "0.1"]}, r"lambda\[1\] must be a number"),
    ({"n": [40, 50.5]}, r"n\[1\] must be an integer"),
    ({"effect": [0.1, None]}, r"effect\[1\] must be a number"),
    ({"n": [40, 1]}, "n must be >= 2"),
    ({"lambda": [0.01, float("nan")]}, "ridge penalty must be finite"),
    ({"lambda": [float("inf")]}, "ridge penalty must be finite"),
    ({"effect": [0.1, float("nan")]}, "effect must be a list of finite"),
    ({"effect": 0.2}, "effect must be a list of finite"),
    ({"effect": [0.1], "n": [40, 60]}, "not both"),
    ({"effect": [0.1], "lambda": [0.0]}, "not both"),
    # no default truth: refused by file name before any replicate runs
    ({"q": 3}, r"grid\.json: invalid scenario: default truth"),
    # NaN, Infinity and 1e999 (read as inf) in the truth: refused by name
    # before any replicate runs
    ({"true_theta": [0.5] * 16 + [float("nan")]},
     r"^error: .*grid\.json: invalid scenario: true_theta contains "
     r"non-finite entries\n$"),
    ({"true_theta": [0.5] * 16 + [float("inf")]},
     r"^error: .*grid\.json: invalid scenario: true_theta contains "
     r"non-finite entries\n$"),
])
def test_simulate_malformed_grid_exits_2(tmp_path, capsys, grid, message):
    scen = dict({"format_version": 1, "q": 2, "nz_pattern": "5-1", "n": 40,
                 "replicates": 2, "restarts": 1}, **grid)
    scen_path = tmp_path / "grid.json"
    scen_path.write_text(json.dumps(scen))     # NaN and inf as bare tokens
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(tmp_path / "results")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(message, err), err
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


def test_simulate_zero_jobs_exits_2(tmp_path, capsys):
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps({"format_version": 1, "q": 2,
                                     "nz_pattern": "5-1", "n": [40, 50]}))
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(tmp_path / "results"), "--jobs", "0"]) == 2
    assert "n_jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_simulate_null_field_exits_2(tmp_path, capsys):
    scen = {"format_version": 1, "q": None, "nz_pattern": "5-1", "n": 50}
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(tmp_path / "results")]) == 2
    assert "q must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command,lam,q_list", [
    pytest.param("fit", "nan", None, id="fit-nan"),
    pytest.param("fit", "inf", None, id="fit-inf"),
    pytest.param("select", "nan", "0,1", id="select-nan"),
    # The linear baseline alone fits no network: the sweep checks lambda
    # before its first candidate.
    pytest.param("select", "nan", "0", id="select-nan-linear")])
def test_nonfinite_lambda_exits_2(workspace, tmp_path, capsys, command, lam,
                                  q_list):
    _, csv_path, _ = workspace
    argv = [command, csv_path, "--response", "charges", "--lambda", lam,
            "--restarts", "1"]
    argv += (["--q", "1", "--out", str(tmp_path / "m.json")]
             if command == "fit" else ["--q-list", q_list, "--no-cv"])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "ridge penalty" in err
    assert not (tmp_path / "m.json").exists()


def test_simulate_nonfinite_lambda_exits_2(tmp_path, capsys):
    scen = {"format_version": 1, "q": 2, "nz_pattern": "5-1", "n": 50,
            "replicates": 2, "restarts": 1, "lambda": float("nan")}
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))     # writes the token NaN
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(tmp_path / "results")]) == 2
    assert "ridge penalty must be finite" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_exit_2_on_missing_file(capsys):
    assert main(["fit", "/nonexistent/nope.csv", "--response", "y",
                 "--q", "1", "--out", "/tmp/x.json"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "summary"])
@pytest.mark.parametrize("bad_line,message", [
    (b"3," + b"x" * 140_000 + b"\n", "field larger than field limit"),
    (b"3,\xff\n", "byte 0xff is not UTF-8"),
], ids=["over-limit-field", "not-utf8"])
def test_exit_2_on_malformed_csv(workspace, tmp_path, capsys, command,
                                 bad_line, message):
    """The csv module's errors and undecodable bytes name the file and
    the line, past the text reader's first block."""
    path = tmp_path / "bad.csv"
    path.write_bytes(b"a,b\n" + b"1,2\n" * 3000 + bad_line + b"4,5\n")
    argv = (["fit", str(path), "--response", "b", "--q", "1",
             "--out", str(tmp_path / "m.json")] if command == "fit"
            else ["summary", workspace[2], str(path)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: line 3002: {message}" in err


def test_exit_2_on_unknown_response(workspace, capsys):
    root, csv_path, _ = workspace
    assert main(["fit", csv_path, "--response", "nope", "--q", "1",
                 "--out", str(root / "no.json")]) == 2
    err = capsys.readouterr().err
    assert "nope" in err


@pytest.mark.parametrize("command", ["fit", "select"])
def test_exit_2_on_duplicate_model_column(tmp_path, capsys, command):
    """Level b of factor a and the raw column a.b are both named a.b."""
    path = tmp_path / "dup.csv"
    path.write_text("a,a.b,y\n" + "".join(
        f"{'cb'[i % 2]},{i * 0.7 % 3:.2f},{i % 5}\n" for i in range(20)))
    argv = [command, str(path), "--response", "y", "--restarts", "1"]
    argv += (["--q", "1", "--out", str(tmp_path / "m.json")]
             if command == "fit" else ["--q-max", "1"])
    assert main(argv) == 2
    assert "'a.b'" in capsys.readouterr().err


def test_exit_2_on_bad_flag(capsys):
    assert main(["fit", "--definitely-not-a-flag"]) == 2
    assert main(["not-a-command"]) == 2


def test_exit_2_on_corrupt_model(workspace, tmp_path, capsys):
    _, csv_path, _ = workspace
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["summary", str(bad), csv_path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    ({"raw": None}, "raw of column 'smoker.no' must be a string"),
    ({"level": 0}, "level of column 'smoker.no' must be a string or null"),
    ({"name": 3}, "column name must be a string, got 3"),
    ({"kind": None}, "kind of column 'smoker.no' must be a string"),
    ({"format_version": 1}, "format_version 1 model files .* refit"),
], ids=["raw-null", "level-number", "name-number", "kind-null", "version-1"])
def test_exit_2_on_unreadable_column_record(workspace, tmp_path, capsys,
                                           edit, message):
    _, csv_path, model_path = workspace
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "format_version" in edit:
        payload.update(edit)
    else:
        payload["column_meta"][2].update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["summary", str(bad), csv_path]) == 2
    err = capsys.readouterr().err
    assert re.search(f"^error: .*{message}", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["summary"], ["pce", "--covariate", "age", "--original-scale"]],
    ids=["summary", "pce-original-scale"])
@pytest.mark.parametrize("scale", [-1.0, 0.0], ids=["negated", "zero"])
def test_exit_2_on_unusable_scale_map(workspace, tmp_path, capsys, command,
                                      scale):
    """A stored sd that is not positive cannot map a column between CSV
    and model units: the model file is refused, naming the column."""
    _, csv_path, model_path = workspace
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["column_meta"][0]["sd"] *= scale
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main([command[0], str(bad), csv_path] + command[1:]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: .*bad\.json: invalid column metadata: column 'age' has an "
        r"unusable scale map \(mean \S+, sd -?\S+\): sd must be finite "
        r"and positive\n", err)


def test_exit_3_numerical_failure_mentions_penalty(workspace, tmp_path,
                                                   capsys):
    """A stored model whose hidden node 2 copies node 1 (omega_j2 =
    omega_j1, gamma_2 = gamma_1) has a covariance estimate that is not
    positive definite.  summary, diagram and pce all exit 3 with the one
    message of a refused covariance and the ridge-penalty hint, and
    print nothing else."""
    import dataclasses

    from statnn.model import ParamVector
    from statnn.serialize import load_model, save_model

    _, csv_path, model_path = workspace
    doc = load_model(model_path)
    arch, values = doc.arch, doc.theta.values.copy()
    for j in range(arch.p + 1):
        values[arch.omega_index(j, 2)] = values[arch.omega_index(j, 1)]
    values[arch.gamma_index(2)] = values[arch.gamma_index(1)]
    dup = str(tmp_path / "duplicated_node.json")
    save_model(dataclasses.replace(doc, theta=ParamVector(arch, values)), dup)
    form = (r"numerical failure: covariance estimate is not positive "
            r"definite \(min eigenvalue -\d[\d.e+-]*\); Wald tests and "
            r"confidence bands are unavailable\n"
            r"hint: refit with a larger ridge penalty \(--lambda\) to "
            r"obtain a positive definite covariance\n")
    for argv in (["summary"], ["diagram"], ["pce", "--covariate", "age"]):
        assert main([argv[0], dup, csv_path] + argv[1:]) == 3, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(form, err), err
        assert "Traceback" not in err


def test_exit_3_singular_information_mentions_penalty(workspace, tmp_path,
                                                      capsys):
    """Unpenalized, a hidden node with all-zero weights leaves the
    information exactly singular.  That is the same numerical failure as
    a covariance that is not positive definite: exit 3 with the ridge
    hint on its own line, and nothing on stdout."""
    import dataclasses

    from statnn.model import ParamVector
    from statnn.serialize import load_model, save_model

    _, csv_path, model_path = workspace
    doc = load_model(model_path)
    arch, values = doc.arch, doc.theta.values.copy()
    for j in range(arch.p + 1):
        values[arch.omega_index(j, 2)] = 0.0
    values[arch.gamma_index(2)] = 0.0
    dead = str(tmp_path / "dead_node.json")
    save_model(dataclasses.replace(doc, theta=ParamVector(arch, values),
                                   lam=0.0), dead)
    assert main(["summary", dead, csv_path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"numerical failure: penalized information matrix "
                        r"is numerically singular: [^\n]*\n"
                        r"hint: refit with a larger ridge penalty "
                        r"\(--lambda\) to obtain a positive definite "
                        r"covariance\n", err), err


def test_bernoulli_requires_binary_response(workspace, capsys):
    _, csv_path, _ = workspace
    assert main(["fit", csv_path, "--response", "charges", "--q", "1",
                 "--family", "bernoulli", "--out", "/tmp/b.json"]) == 2
    assert "0/1" in capsys.readouterr().err


def test_select_bernoulli_baseline_only_exits_2(tmp_path, capsys):
    """The linear baseline has no BIC beside Bernoulli networks, so a
    Bernoulli sweep of width 0 alone is refused before any fit."""
    path = tmp_path / "bin.csv"
    rng = np.random.default_rng(174)
    rows = ["x,y"] + [f"{x:.4f},{int(x > 0)}" for x in rng.normal(size=30)]
    path.write_text("\n".join(rows) + "\n")
    assert main(["select", str(path), "--response", "y", "--family",
                 "bernoulli", "--q-list", "0", "--no-cv"]) == 2
    err = capsys.readouterr().err
    assert "width >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--folds", "5"], "cannot make 5 folds from 3 observations"),
    (["--folds", "1"], "folds must be >= 2"),
    (["--folds", "3", "--q-list", "2,-1"], "candidate width must be >= 0"),
])
def test_select_refuses_folds_and_widths_before_any_fit(tmp_path, capsys,
                                                       monkeypatch, flags,
                                                       message):
    """A fold count outside 2..n or a negative width exits 2 before the
    first candidate is fitted, not after some of them."""
    import statnn.selection as selection

    def no_fit(*args, **kwargs):
        raise AssertionError("a candidate was fitted before the checks")

    monkeypatch.setattr(selection, "fit", no_fit)
    monkeypatch.setattr(selection, "fit_linear", no_fit)
    path = tmp_path / "three.csv"
    path.write_text("x,y\n1.0,2.0\n2.0,1.5\n3.5,4.0\n")
    assert main(["select", str(path), "--response", "y", "--q-max", "1",
                 *flags]) == 2
    err = capsys.readouterr().err
    assert message in err and "--lambda" not in err


@pytest.mark.parametrize("command", ["fit", "select"])
def test_exit_2_on_a_table_of_only_the_response(tmp_path, capsys, command):
    path = tmp_path / "y.csv"
    path.write_text("y\n1.0\n2.0\n4.0\n")
    flags = (["--q", "1", "--out", str(tmp_path / "m.json")]
             if command == "fit" else ["--no-cv"])
    assert main([command, str(path), "--response", "y", *flags]) == 2
    err = capsys.readouterr().err
    assert "y.csv" in err and "response 'y'" in err
    assert "concatenate" not in err


def test_fit_bernoulli_on_factor_response(tmp_path):
    rng = np.random.default_rng(172)
    n = 80
    path = tmp_path / "bin.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "outcome"])
        for i in range(n):
            x1, x2 = rng.normal(), rng.normal()
            p = 1.0 / (1.0 + np.exp(-(1.5 * x1 - x2)))
            writer.writerow([f"{x1:.5f}", f"{x2:.5f}",
                             "good" if rng.uniform() < p else "bad"])
    model = tmp_path / "bin_model.json"
    assert main(["fit", str(path), "--response", "outcome", "--q", "1",
                 "--family", "bernoulli", "--restarts", "2",
                 "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    assert payload["output_activation"] == "logistic"
    assert payload["response_meta"]["kind"] == "dummy"


@pytest.mark.parametrize("column, cells", [
    ("has.flag", ("0", "1")),
    ("grp.name", ("c", "a.b")),
])
def test_dotted_column_names_round_trip(tmp_path, capsys, column, cells):
    """Raw column names (and factor levels) with dots are read back from
    the stored raw column and level when a stored model is applied."""
    rng = np.random.default_rng(173)
    n = 60
    path = tmp_path / "dotted.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", column, "y"])
        for i in range(n):
            x, level = rng.normal(), cells[i % 2]
            y = np.tanh(x) + (level == cells[1]) + 0.3 * rng.normal()
            writer.writerow([f"{x:.5f}", level, f"{y:.5f}"])
    model = tmp_path / "dotted.json"
    assert main(["fit", str(path), "--response", "y", "--q", "1",
                 "--restarts", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["summary", str(model), str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == n


def test_schema_file_flag(tmp_path, capsys):
    csv_path = _make_csv(tmp_path / "d.csv")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(
        {"columns": {"smoker": {"action": "dummy_encode",
                                "reference": "no"}}}))
    model = tmp_path / "m.json"
    assert main(["fit", str(csv_path), "--response", "charges", "--q", "1",
                 "--restarts", "2", "--schema", str(schema),
                 "--out", str(model)]) == 0
    payload = json.loads(model.read_text())
    names = [m["name"] for m in payload["column_meta"]]
    assert "smoker.yes" in names


def test_schema_response_action_on_factor_response_exits_2(tmp_path,
                                                          capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.5,a\n1.5,b\n2.5,b\n0.1,a\n", encoding="utf-8")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"response_action": "standardize"}))
    assert main(["fit", str(path), "--response", "y", "--q", "1",
                 "--schema", str(schema),
                 "--out", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: response_action standardize given for "
                          "non-numeric response 'y'")
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_model_fitted_on_bom_csv_serves_csv_without_bom(tmp_path, capsys):
    """A byte-order mark is not part of the first column name: a model
    fitted on a BOM-prefixed CSV reads the same data saved without it."""
    plain = _make_csv(tmp_path / "plain.csv")
    text = (tmp_path / "plain.csv").read_text("utf-8")
    bom = tmp_path / "bom.csv"
    bom.write_text("\ufeff" + text, encoding="utf-8")
    model = tmp_path / "bom.json"
    assert main(["fit", str(bom), "--response", "charges", "--q", "1",
                 "--restarts", "2", "--out", str(model)]) == 0
    names = [m["name"] for m in json.loads(model.read_text())["column_meta"]]
    assert names == ["age", "bmi", "smoker.no"]
    capsys.readouterr()
    assert main(["summary", str(model), plain, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 60


def test_serving_imports_do_not_load_the_optimizer(workspace, tmp_path):
    """scipy is imported only where a fit, an alignment or an OLS
    reference runs, and multiprocessing only where a parallel simulation
    runs, so importing the package and answering summary, diagram and
    pce queries on a stored model loads neither."""
    import os
    import subprocess
    import sys

    import statnn

    _, csv_path, model_path = workspace
    src = os.path.dirname(os.path.dirname(statnn.__file__))
    out, svg = str(tmp_path / "query.out"), str(tmp_path / "curve.svg")
    queries = [["summary", model_path, csv_path, "--format", "json"],
               ["diagram", model_path, csv_path],
               ["pce", model_path, csv_path, "--covariate", "age",
                "--by", "smoker.no", "--grid-points", "5",
                "--original-scale", "--svg", svg]]
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import statnn; from statnn.cli import main; "
            "codes = [main(q + ['--out', sys.argv[3]]) "
            "for q in json.loads(sys.argv[2])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'multiprocessing'))]))")
    result = subprocess.run([sys.executable, "-c", code, src,
                             json.dumps(queries), out], check=True,
                            capture_output=True, text=True).stdout
    codes, loaded = json.loads(result)
    assert codes == [0, 0, 0]
    assert loaded == []
    assert open(svg, encoding="utf-8").read().startswith("<svg")
