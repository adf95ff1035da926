"""Rendering of inference reports, network diagrams, and simulation tables.

The text summary follows the familiar regression-table shape — one row
per covariate, one column of single-parameter estimates per hidden
node, a grouped-test p-value column, and the significance-code legend —
so the output reads like the summaries statisticians already know.  The
JSON rendering carries the same numbers (quantized identically, so the
two formats agree exactly under a round-trip parse) plus standard
errors and test statistics.  A report is built from a
``CovarianceEstimate``, which is positive definite by construction, so
every cell holds a test and no format carries a warning or gaps; the
JSON's ``positive_definite`` is always true.

Diagrams are DOT digraphs written straight from the same inference
report: a left-to-right layered network where an edge is drawn black
when its weight's single-parameter test is significant at the 5% level
and gray otherwise, and an input node is black when its grouped test is
significant.  Intercept nodes are omitted.  Structural nodes (hidden
layer, output) carry no test and are drawn black.

Simulation tables read the study records directly: a ``SimReport``
gives the overview, estimates and rejections tables, and each cell's
``SimReport`` of a grid gives one row of the PD or the power table.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .inference import SIGNIFICANCE_LEGEND, InferenceReport
from .model import Architecture
from .serialize import to_json_text

ALPHA_DIAGRAM = 0.05


def _round6(x):
    """Quantize to the 6-significant-digit grid shared by all renderings."""
    if x is None:
        return None
    return float(f"{float(x):.6g}")


def _fmt(x) -> str:
    return f"{_round6(x):.6g}"


def _starred(x, stars) -> str:
    """A p-value or estimate followed by its significance code, if any."""
    return f"{_fmt(x)} {stars}" if stars else _fmt(x)


# ---------------------------------------------------------------------------
# Inference summaries
# ---------------------------------------------------------------------------

def _cells_payload(cells) -> list:
    return [{"node": k, "estimate": _round6(cell.estimate),
             "se": _round6(cell.se), "statistic": _round6(cell.statistic),
             "p_value": _round6(cell.p_value), "stars": cell.stars}
            for k, cell in enumerate(cells, start=1)]


def _summary_payload(report: InferenceReport) -> dict:
    covs = [{"name": row.name, "weights": _cells_payload(row.cells),
             "mp": {"statistic": _round6(row.mp_statistic),
                    "df": _round6(row.mp_df),
                    "p_value": _round6(row.mp_p_value),
                    "stars": row.mp_stars}}
            for row in report.covariates]
    return {
        "format_version": 1,
        "family": report.arch.family,
        "n": report.n_obs,
        "p": report.arch.p,
        "q": report.arch.q,
        "lambda": _round6(report.lam),
        "log_likelihood": _round6(report.loglik),
        "sigma_sq": _round6(report.sigma_sq_hat),
        "converged": report.converged,
        "positive_definite": True,
        "gamma0": _round6(report.gamma0_estimate),
        "covariates": covs,
        "gamma": _cells_payload(report.gamma_cells),
    }


def _summary_text(report: InferenceReport) -> str:
    q = report.arch.q
    name_w = max([len("covariate")]
                 + [len(row.name) for row in report.covariates])
    cell_texts = []
    for row in report.covariates:
        cells = [_starred(c.estimate, c.stars) for c in row.cells]
        cell_texts.append((row.name, cells,
                           _starred(row.mp_p_value, row.mp_stars)))
    col_w = max([len(f"omega_j{k}") for k in range(1, q + 1)]
                + [len(c) for _, cells, _ in cell_texts for c in cells])

    lines = []
    lines.append("Single- and multiple-parameter Wald tests")
    sigma_part = ("" if report.sigma_sq_hat is None
                  else f", sigma^2 = {_fmt(report.sigma_sq_hat)}")
    lines.append(
        f"family {report.arch.family}, "
        f"n = {report.n_obs}, p = {report.arch.p}, q = {q}, "
        f"lambda = {_fmt(report.lam)}")
    lines.append(
        f"log-likelihood = {_fmt(report.loglik)}{sigma_part}, "
        f"converged = {'yes' if report.converged else 'no'}")
    lines.append("")
    sp_width = q * col_w + 2 * (q - 1)
    lines.append(f"{'':{name_w}}  {'SP':^{sp_width}}  {'MP':^12}")
    header = [f"{'covariate':{name_w}}"]
    header += [f"{f'omega_j{k}':>{col_w}}" for k in range(1, q + 1)]
    header.append(f"{'p-value':>12}")
    lines.append("  ".join(header))
    lines.append("-" * (name_w + 2 + sp_width + 2 + 12))
    for name, cells, mp in cell_texts:
        parts = [f"{name:{name_w}}"]
        parts += [f"{c:>{col_w}}" for c in cells]
        parts.append(f"{mp:>12}")
        lines.append("  ".join(parts))
    lines.append("-" * (name_w + 2 + sp_width + 2 + 12))
    gamma_bits = [f"gamma_{k} = {_starred(c.estimate, c.stars)}"
                  for k, c in enumerate(report.gamma_cells, start=1)]
    lines.append("output weights: gamma_0 = "
                 f"{_fmt(report.gamma0_estimate)}, " + ", ".join(gamma_bits))
    lines.append(SIGNIFICANCE_LEGEND)
    return "\n".join(lines) + "\n"


def _csv_text(header, rows) -> str:
    """A CSV table as text: the header row, then ``rows``, "\\n" line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _summary_csv(report: InferenceReport) -> str:
    def cell_fields(cell):
        return [_fmt(cell.estimate), _fmt(cell.se), _fmt(cell.statistic),
                "1", _fmt(cell.p_value), cell.stars]

    rows = []
    for row in report.covariates:
        for k, cell in enumerate(row.cells, start=1):
            rows.append(["weight", row.name, k] + cell_fields(cell))
        rows.append(["mp", row.name, "", "", "", _fmt(row.mp_statistic),
                     _fmt(row.mp_df), _fmt(row.mp_p_value), row.mp_stars])
    rows.append(["gamma", "gamma_0", 0, _fmt(report.gamma0_estimate),
                 "", "", "", "", ""])
    for k, cell in enumerate(report.gamma_cells, start=1):
        rows.append(["gamma", f"gamma_{k}", k] + cell_fields(cell))
    return _csv_text(["row_kind", "name", "node", "estimate", "se",
                      "statistic", "df", "p_value", "stars"], rows)


def emit_summary(report: InferenceReport, format: str = "text") -> str:
    """Render an inference report as text, JSON, or CSV."""
    if format == "text":
        return _summary_text(report)
    if format == "json":
        return to_json_text(_summary_payload(report))
    if format == "csv":
        return _summary_csv(report)
    raise ValueError(f"unknown summary format {format!r}; "
                     "supported: text, json, csv")


# ---------------------------------------------------------------------------
# Network diagrams
# ---------------------------------------------------------------------------

def _dot_string(text: str) -> str:
    """Escape backslashes and double quotes for a DOT quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_diagram(arch: Architecture, report: InferenceReport) -> str:
    """DOT rendering of a fitted network's significance structure.

    An input node is black when its covariate's grouped test is below
    ``ALPHA_DIAGRAM``, an edge when its weight's single-parameter test
    is; both are gray otherwise.  Hidden and output nodes carry no test.
    Intercept weights never appear.
    """
    if arch != report.arch:
        raise ValueError("architecture does not match the report")

    def color(p_value) -> str:
        return "black" if p_value < ALPHA_DIAGRAM else "gray"

    lines = ["digraph network {", "  rankdir=LR;",
             "  node [shape=circle];"]
    for row in report.covariates:
        c = color(row.mp_p_value)
        lines.append(f'  "x{row.index}" [label="{_dot_string(row.name)}", '
                     f'shape=box, color={c}, fontcolor={c}];')
    for k in range(1, arch.q + 1):
        lines.append(f'  "h{k}" [label="h{k}", shape=circle, '
                     'color=black, fontcolor=black];')
    lines.append('  "out" [label="output", shape=circle, '
                 'color=black, fontcolor=black];')
    for row in report.covariates:
        for k, cell in enumerate(row.cells, start=1):
            lines.append(f'  "x{row.index}" -> "h{k}" '
                         f'[color={color(cell.p_value)}];')
    for k, cell in enumerate(report.gamma_cells, start=1):
        lines.append(f'  "h{k}" -> "out" [color={color(cell.p_value)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Simulation tables
# ---------------------------------------------------------------------------

def parameter_names(arch: Architecture) -> tuple:
    """Flat-index parameter names: omega_j_k blocks then gamma_k."""
    names = [""] * arch.r
    for j in range(arch.p + 1):
        for k in range(1, arch.q + 1):
            names[arch.omega_index(j, k)] = f"omega_{j}_{k}"
    for k in range(arch.q + 1):
        names[arch.gamma_index(k)] = f"gamma_{k}"
    return tuple(names)


def _csv_value(x) -> str:
    if x is None:
        return "NA"
    x = float(x)
    if np.isnan(x):
        return "NA"
    return f"{x:.10g}"


def overview_csv(report) -> str:
    sc = report.scenario
    return _csv_text(["field", "value"], [
        ("q", sc.q), ("nz_pattern", sc.nz_pattern), ("n", sc.n),
        ("p", sc.p), ("lambda", _csv_value(sc.lam)),
        ("noise_sd", _csv_value(sc.noise_sd)),
        ("replicates", sc.replicates), ("restarts", sc.restarts),
        ("seed", sc.seed), ("n_total", report.n_total),
        ("n_fit_failed", report.n_fit_failed), ("n_pd", report.n_pd),
        ("n_converged", report.n_converged),
        ("pd_rate", _csv_value(report.pd_rate)),
    ])


def estimates_csv(report) -> str:
    """Per-parameter truth, mean estimate, empirical/estimated SE, coverage."""
    arch = report.scenario.arch
    columns = (report.true_values, report.mean_estimate, report.emp_se,
               report.see, report.coverage)
    return _csv_text(
        ["parameter", "true", "mean_estimate", "emp_se", "see", "coverage"],
        ([name] + [_csv_value(column[idx]) for column in columns]
         for idx, name in enumerate(parameter_names(arch))))


def rejections_csv(report) -> str:
    """Per-covariate grouped-test and per-node single-test rejection rates."""
    sc = report.scenario
    arch = sc.arch
    return _csv_text(
        ["covariate", "mp_rejection"]
        + [f"sp_rejection_node{k}" for k in range(1, sc.q + 1)],
        ([f"x{j}", _csv_value(report.mp_rejection[j - 1])]
         + list(map(_csv_value, report.sp_rejection[arch.covariate_block(j)]))
         for j in range(1, sc.p + 1)))


def power_csv(reports) -> str:
    """Power curve table, one row per effect cell: true omega_21, its
    single-parameter and covariate 2's grouped rejection rates, PD rate."""
    return _csv_text(
        ["effect", "sp_power", "mp_power", "pd_rate"],
        ([_csv_value(rep.effect), _csv_value(rep.sp_rate(2, 1)),
          _csv_value(rep.mp_rate(2)), _csv_value(rep.pd_rate)]
         for rep in reports))


def pd_csv(reports) -> str:
    """Positive-definiteness table, one row per scenario ``SimReport``."""
    return _csv_text(
        ["lambda", "q", "nz_pattern", "n", "pd_rate", "n_fit_failed",
         "n_total", "n_converged"],
        ([_csv_value(rep.scenario.lam), rep.scenario.q,
          rep.scenario.nz_pattern, rep.scenario.n, _csv_value(rep.pd_rate),
          rep.n_fit_failed, rep.n_total, rep.n_converged]
         for rep in reports))


def sweep_csv(sweep) -> str:
    """Model-selection sweep table; q = 0 is the linear baseline."""
    return _csv_text(
        ["q", "bic", "cv_rmse", "cv_se", "error"],
        ([entry.q, _csv_value(entry.bic), _csv_value(entry.cv_rmse),
          _csv_value(entry.cv_se), entry.error or ""]
         for entry in sweep.entries))


def pce_csv(curves) -> str:
    """The tuple of curves ``pce_curve`` returns as a flat table, one row
    per grid point."""
    return _csv_text(
        ["covariate", "condition", "scale", "d", "x", "beta_hat", "se", "lo",
         "hi"],
        ([curve.covariate, curve.condition_label or "", curve.scale,
          _csv_value(curve.d), _csv_value(pt.x), _csv_value(pt.beta_hat),
          _csv_value(pt.se), _csv_value(pt.lo), _csv_value(pt.hi)]
         for curve in curves for pt in curve.points))
