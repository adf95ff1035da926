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
    assert payload["format_version"] == 1
    assert payload["p"] == 3 and payload["q"] == 2
    assert len(payload["theta"]) == 5 * 2 + 1
    names = [m["name"] for m in payload["column_meta"]]
    assert names == ["age", "bmi", "smoker.no"]
    assert payload["response_meta"]["name"] == "charges"


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


def test_pce_original_scale_with_reference(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate", "age",
                 "--grid-points", "5", "--original-scale",
                 "--linear-reference"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert all(r[2] == "original" for r in rows[1:])
    xs = [float(r[4]) for r in rows[1:]]
    assert min(xs) > 15.0  # ages, not z-scores


def test_pce_dummy_single_point(workspace, capsys):
    _, csv_path, model_path = workspace
    assert main(["pce", model_path, csv_path, "--covariate",
                 "smoker.no"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2       # header + the single 0 -> 1 switch
    assert float(rows[1][3]) == 1.0


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


def test_simulate_null_field_exits_2(tmp_path, capsys):
    scen = {"format_version": 1, "q": None, "nz_pattern": "5-1", "n": 50}
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))
    assert main(["simulate", str(scen_path), "--out-dir",
                 str(tmp_path / "results")]) == 2
    assert "q must be an integer" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    assert main(["fit", "/nonexistent/nope.csv", "--response", "y",
                 "--q", "1", "--out", "/tmp/x.json"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_exit_3_numerical_failure_mentions_penalty(tmp_path, capsys):
    """An overparameterized unpenalized fit on noise gives a non-PD
    covariance; summary must exit 3 and point at the ridge penalty."""
    rng = np.random.default_rng(171)
    n = 18
    path = tmp_path / "tiny.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "y"])
        for i in range(n):
            writer.writerow([f"{rng.normal():.6f}", f"{rng.normal():.6f}",
                             f"{rng.normal():.6f}"])
    model = tmp_path / "tiny_model.json"
    code = main(["fit", str(path), "--response", "y", "--q", "4",
                 "--lambda", "0", "--restarts", "2", "--seed", "1",
                 "--out", str(model)])
    assert code == 0
    capsys.readouterr()
    code = main(["summary", str(model), str(path)])
    err = capsys.readouterr().err
    if code == 3:
        assert "numerical failure" in err
        assert "larger ridge" in err
    else:
        # a lucky draw can stay positive definite; accept but verify
        assert code == 0


def test_bernoulli_requires_binary_response(workspace, capsys):
    _, csv_path, _ = workspace
    assert main(["fit", csv_path, "--response", "charges", "--q", "1",
                 "--family", "bernoulli", "--out", "/tmp/b.json"]) == 2
    assert "0/1" in capsys.readouterr().err


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
    """Raw column names (and factor levels) with dots resolve against the
    CSV header when a stored model is applied."""
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


def test_serving_imports_do_not_load_the_optimizer():
    """``scipy.optimize`` is imported only where a fit or an alignment
    runs, so a query process does not pay for it."""
    import os
    import subprocess
    import sys

    import statnn

    src = os.path.dirname(os.path.dirname(statnn.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import statnn, statnn.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
