"""Rendering tests: summaries in three formats, DOT diagrams, sim tables."""

import csv
import io
import json
import re

import numpy as np
import pytest

from statnn.effects import conditioning_values, pce_curve
from statnn.fit import FitConfig, fit
from statnn.inference import (ALPHA, SIGNIFICANCE_LEGEND, CovariateRow,
                              InferenceReport, WeightCell,
                              sandwich_covariance, summarize)
from statnn.likelihood import observed_information
from statnn.model import (Architecture, ColumnMeta, Dataset, ParamVector,
                          forward_batch)
from statnn.report import (emit_diagram, emit_summary, estimates_csv,
                           overview_csv, parameter_names, pce_csv, pd_csv,
                           power_csv, rejections_csv, sweep_csv)
from statnn.simgen import SimScenario, run_grid, run_scenario


@pytest.fixture(scope="module")
def fitted():
    """One fitted model shared by the rendering tests."""
    rng = np.random.default_rng(160)
    arch = Architecture(p=3, q=2)
    truth = ParamVector(arch, np.array(
        [0.4, -0.9, 1.4, 0.9, 0.0, 0.0, -0.7, 1.1, 0.2, 4.5, -4.0]))
    x = rng.normal(size=(250, 3))
    x[:, 1] = (x[:, 1] > 0).astype(float)
    mu = forward_batch(truth, Dataset(x=x, y=np.zeros(250)))
    y = mu + 0.3 * rng.normal(size=250)
    data = Dataset(x=x, y=y,
                   column_meta=(ColumnMeta("age", "continuous", 40.0, 12.0),
                                ColumnMeta("flag", "dummy"),
                                ColumnMeta("bmi", "continuous", 27.0, 5.0)),
                   response_meta=ColumnMeta("charges", "continuous",
                                            9000.0, 11000.0))
    lam = 0.01
    result = fit(arch, data, lam, FitConfig(n_restarts=5, seed=161))
    info = observed_information(result.theta_hat, data,
                                sigma_sq=result.sigma_sq_hat)
    cov = sandwich_covariance(info, lam=0.01)
    report = summarize(result, cov, arch, data)
    return arch, data, result, cov, report


def test_text_summary_layout(fitted):
    _, _, _, _, report = fitted
    text = emit_summary(report, "text")
    lines = text.splitlines()
    assert "Wald tests" in lines[0]
    assert "family gaussian" in lines[1]
    assert "n = 250" in lines[1]
    assert "lambda = 0.01" in lines[1]
    assert "converged = yes" in lines[2]
    for name in ("age", "flag", "bmi"):
        assert any(line.startswith(name) for line in lines)
    assert any("omega_j1" in line and "omega_j2" in line for line in lines)
    assert "gamma_0 = " in text
    assert text.rstrip().endswith(SIGNIFICANCE_LEGEND)
    assert "warning" not in text  # covariance is positive definite here


def test_json_summary_structure(fitted):
    _, data, result, _, report = fitted
    payload = json.loads(emit_summary(report, "json"))
    assert payload["format_version"] == 1
    assert payload["family"] == "gaussian"
    assert payload["n"] == data.n
    assert payload["p"] == 3 and payload["q"] == 2
    assert payload["converged"] is True
    assert payload["positive_definite"] is True
    assert [c["name"] for c in payload["covariates"]] == ["age", "flag",
                                                          "bmi"]
    for cov_entry in payload["covariates"]:
        assert [w["node"] for w in cov_entry["weights"]] == [1, 2]
        for w in cov_entry["weights"]:
            assert set(w) == {"node", "estimate", "se", "statistic",
                              "p_value", "stars"}
        assert set(cov_entry["mp"]) == {"statistic", "df", "p_value", "stars"}
    assert [g["node"] for g in payload["gamma"]] == [1, 2]


def test_text_and_json_numbers_identical(fitted):
    """Both renderings quantize to one shared 6-significant-digit grid, so
    a number printed in the text table reparses to exactly the JSON value."""
    _, _, _, _, report = fitted
    payload = json.loads(emit_summary(report, "json"))
    text = emit_summary(report, "text")

    for cov_entry in payload["covariates"]:
        # the text row for this covariate holds the weight estimates
        row_line = next(line for line in text.splitlines()
                        if line.startswith(cov_entry["name"]))
        numbers = [float(tok) for tok in re.findall(
            r"-?\d+\.?\d*(?:e[+-]?\d+)?", row_line.replace("*", ""))]
        for w, got in zip(cov_entry["weights"], numbers):
            assert got == w["estimate"]
        # last number in the row is the grouped-test p-value
        assert numbers[-1] == cov_entry["mp"]["p_value"]


def test_csv_summary_round_trip(fitted):
    arch, _, result, cov, report = fitted
    rows = list(csv.reader(io.StringIO(emit_summary(report, "csv"))))
    header = rows[0]
    assert header == ["row_kind", "name", "node", "estimate", "se",
                      "statistic", "df", "p_value", "stars"]
    body = rows[1:]
    kinds = [r[0] for r in body]
    assert kinds.count("weight") == arch.p * arch.q
    assert kinds.count("mp") == arch.p
    assert kinds.count("gamma") == arch.q + 1
    # every weight row's numbers match the JSON payload exactly
    payload = json.loads(emit_summary(report, "json"))
    for r in body:
        if r[0] != "weight":
            continue
        cov_entry = next(c for c in payload["covariates"] if c["name"] == r[1])
        w = cov_entry["weights"][int(r[2]) - 1]
        assert float(r[3]) == w["estimate"]
        assert float(r[4]) == w["se"]
        assert float(r[7]) == w["p_value"]
        assert r[8] == w["stars"]


def test_unknown_format_rejected(fitted):
    _, _, _, _, report = fitted
    with pytest.raises(ValueError):
        emit_summary(report, "yaml")


def _parse_dot(text):
    """Tiny DOT reader: node id -> (shape, color, fontcolor),
    (src, dst) -> color, and node id -> unescaped label."""
    nodes = {}
    edges = {}
    labels = {}
    for line in text.splitlines():
        m = re.match(r'\s*"(\w+)" \[label="((?:[^"\\]|\\.)*)", '
                     r'shape=(\w+), color=(\w+), fontcolor=(\w+)\];', line)
        if m:
            nodes[m.group(1)] = (m.group(3), m.group(4), m.group(5))
            labels[m.group(1)] = re.sub(r"\\(.)", r"\1", m.group(2))
            continue
        m = re.match(r'\s*"(\w+)" -> "(\w+)" \[color=(\w+)\];', line)
        if m:
            edges[(m.group(1), m.group(2))] = m.group(3)
    return nodes, edges, labels


def test_dot_rendering_recomputed_from_p_values(fitted):
    """Independent route: recolor the graph from the report's p-values and
    compare against the emitted DOT attributes."""
    arch, _, _, _, report = fitted
    text = emit_diagram(arch, report)
    assert text.startswith("digraph network {")
    assert "rankdir=LR;" in text
    nodes, edges, labels = _parse_dot(text)
    assert list(nodes) == ["x1", "x2", "x3", "h1", "h2", "out"]
    assert labels == {"x1": "age", "x2": "flag", "x3": "bmi", "h1": "h1",
                      "h2": "h2", "out": "output"}
    assert len(edges) == arch.p * arch.q + arch.q
    for row in report.covariates:
        shape, color, fontcolor = nodes[f"x{row.index}"]
        want = "black" if row.mp_p_value < ALPHA else "gray"
        assert shape == "box"
        assert color == want and fontcolor == want
        for k, cell in enumerate(row.cells, start=1):
            want_edge = "black" if cell.p_value < ALPHA else "gray"
            assert edges[(f"x{row.index}", f"h{k}")] == want_edge
    for k, cell in enumerate(report.gamma_cells, start=1):
        shape, color, _ = nodes[f"h{k}"]
        assert shape == "circle" and color == "black"
        want_edge = "black" if cell.p_value < ALPHA else "gray"
        assert edges[(f"h{k}", "out")] == want_edge
    assert nodes["out"] == ("circle", "black", "black")
    # intercept weights never show up as edges
    assert all(src != "x0" for src, _ in edges)


def _flat_report(names, p_value):
    """A one-hidden-node report whose every test has the same p-value."""
    cell = WeightCell(estimate=0.1, se=1.0, statistic=0.01, p_value=p_value,
                      stars="")
    rows = tuple(CovariateRow(name=name, index=j, cells=(cell,),
                              mp_statistic=0.01, mp_df=1.0,
                              mp_p_value=p_value, mp_stars="")
                 for j, name in enumerate(names, start=1))
    return InferenceReport(arch=Architecture(p=len(names), q=1),
                           covariates=rows, gamma_cells=(cell,),
                           gamma0_estimate=0.0, loglik=-10.0, sigma_sq_hat=1.0,
                           lam=0.0, converged=True, n_obs=50)


def test_dot_all_gray_when_nothing_significant():
    report = _flat_report(["x1"], 0.9)
    nodes, edges, _ = _parse_dot(emit_diagram(report.arch, report))
    assert nodes["x1"][1] == "gray"
    assert edges[("x1", "h1")] == "gray"
    assert edges[("h1", "out")] == "gray"
    # structural nodes stay black even in the all-gray case
    assert nodes["h1"][1] == "black"
    assert nodes["out"][1] == "black"


def test_dot_labels_escape_quotes_and_backslashes():
    """Column names come from CSV headers; a quote or backslash in one
    must stay inside its DOT label and read back unchanged."""
    names = ['q"t', "a\\b", 'end\\', '"']
    report = _flat_report(names, 0.01)
    text = emit_diagram(report.arch, report)
    nodes, edges, labels = _parse_dot(text)
    assert [labels[f"x{j}"] for j in range(1, 5)] == names
    assert all(nodes[f"x{j}"][1] == "black" for j in range(1, 5))
    assert len(edges) == 4 + 1


def test_emit_diagram_arch_mismatch(fitted):
    _, _, _, _, report = fitted
    with pytest.raises(ValueError):
        emit_diagram(Architecture(p=2, q=2), report)


def test_parameter_names_layout():
    arch = Architecture(p=2, q=2)
    names = parameter_names(arch)
    assert names == ("omega_0_1", "omega_0_2", "omega_1_1", "omega_1_2",
                     "omega_2_1", "omega_2_2", "gamma_0", "gamma_1",
                     "gamma_2")
    for idx, name in enumerate(names):
        if name.startswith("omega"):
            _, j, k = name.split("_")
            assert arch.omega_index(int(j), int(k)) == idx
        else:
            assert arch.gamma_index(int(name.split("_")[1])) == idx


@pytest.fixture(scope="module")
def sim_report():
    return run_scenario(SimScenario(q=2, nz_pattern="5-1", n=60,
                                    replicates=5, restarts=2, seed=162))


def test_overview_csv(sim_report):
    rows = list(csv.reader(io.StringIO(overview_csv(sim_report))))
    assert rows[0] == ["field", "value"]
    table = dict(rows[1:])
    assert table["q"] == "2"
    assert table["nz_pattern"] == "5-1"
    assert table["n"] == "60"
    assert table["replicates"] == "5"
    assert float(table["pd_rate"]) == sim_report.pd_rate
    assert int(table["n_pd"]) == sim_report.n_pd


def test_estimates_csv(sim_report):
    rows = list(csv.reader(io.StringIO(estimates_csv(sim_report))))
    assert rows[0] == ["parameter", "true", "mean_estimate", "emp_se", "see",
                      "coverage"]
    arch = Architecture(p=6, q=2)
    assert len(rows) - 1 == arch.r
    names = [r[0] for r in rows[1:]]
    assert names == list(parameter_names(arch))
    idx = arch.omega_index(3, 1)
    row = rows[1 + idx]
    assert float(row[1]) == sim_report.true_values[idx]


def test_rejections_csv(sim_report):
    rows = list(csv.reader(io.StringIO(rejections_csv(sim_report))))
    assert rows[0] == ["covariate", "mp_rejection", "sp_rejection_node1",
                      "sp_rejection_node2"]
    assert len(rows) - 1 == 6
    assert float(rows[1][1]) == sim_report.mp_rejection[0]


def test_power_csv():
    sweep = run_grid(SimScenario(q=2, nz_pattern="5-1", n=60, replicates=3,
                                 restarts=1, seed=163), effect=[0.0, 0.5])
    rows = list(csv.reader(io.StringIO(power_csv(sweep))))
    assert rows[0] == ["effect", "sp_power", "mp_power", "pd_rate"]
    assert [r[0] for r in rows[1:]] == ["0", "0.5"]
    for row, rep in zip(rows[1:], sweep):
        assert row[1:] == [f"{v:.10g}" for v in (
            rep.sp_rate(2, 1), rep.mp_rate(2), rep.pd_rate)]


def test_pd_csv():
    cells = run_grid(SimScenario(q=2, nz_pattern="5-1", n=50, lam=0.01,
                                 replicates=3, restarts=1, seed=164))
    rows = list(csv.reader(io.StringIO(pd_csv(cells))))
    assert rows[0] == ["lambda", "q", "nz_pattern", "n", "pd_rate",
                      "n_fit_failed", "n_total", "n_converged"]
    assert rows[1][:4] == ["0.01", "2", "5-1", "50"]
    assert rows[1][6:] == ["3", str(cells[0].n_converged)]


def test_sweep_csv():
    from statnn.selection import SelectionSweep, SweepEntry

    sweep = SelectionSweep(entries=(
        SweepEntry(q=0, bic=120.5, cv_rmse=4.2, cv_se=0.3),
        SweepEntry(q=1, bic=110.25, cv_rmse=None, cv_se=None,
                   error="fit failed"),
    ))
    rows = list(csv.reader(io.StringIO(sweep_csv(sweep))))
    assert rows[0] == ["q", "bic", "cv_rmse", "cv_se", "error"]
    assert rows[1] == ["0", "120.5", "4.2", "0.3", ""]
    assert rows[2] == ["1", "110.25", "NA", "NA", "fit failed"]


def test_pce_csv(fitted):
    arch, data, result, cov, _ = fitted
    curves = pce_curve(result.theta_hat, cov, data, 1, d=0.5,
                       grid=np.array([-1.0, 0.0]))
    rows = list(csv.reader(io.StringIO(pce_csv(curves))))
    assert rows[0] == ["covariate", "condition", "scale", "d", "x",
                      "beta_hat", "se", "lo", "hi"]
    assert len(rows) == 3
    assert rows[1][0] == "age"
    assert rows[1][2] == "standardized"
    assert float(rows[1][4]) == -1.0
    # conditioned curves keep their label in the condition column
    curves = pce_curve(result.theta_hat, cov, data, 1, d=0.5,
                       grid=np.array([0.0]), by=3)
    rows = list(csv.reader(io.StringIO(pce_csv(curves))))
    assert [r[1] for r in rows[1:]] == [
        f"bmi={v:.6g}" for v in conditioning_values(data, 3)]
