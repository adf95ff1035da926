"""Rendering of inference reports, network diagrams, and simulation tables.

The text summary follows the familiar regression-table shape — one row
per covariate, one column of single-parameter estimates per hidden
node, a grouped-test p-value column, and the significance-code legend —
so the output reads like the summaries statisticians already know.  The
JSON rendering carries the same numbers (quantized identically, so the
two formats agree exactly under a round-trip parse) plus standard
errors and test statistics.

Diagrams are emitted as DOT digraphs: a left-to-right layered network
where an edge is drawn black when its weight's single-parameter test is
significant at the 5% level and gray otherwise, and an input node is
black when its grouped test is significant.  Intercept nodes are
omitted.  Structural nodes (hidden layer, output) carry no test and are
drawn black.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .inference import SIGNIFICANCE_LEGEND, InferenceReport
from .likelihood import family_for
from .model import Architecture
from .serialize import to_json_text

ALPHA_DIAGRAM = 0.05


def _round6(x):
    """Quantize to the 6-significant-digit grid shared by all renderings."""
    if x is None:
        return None
    return float(f"{float(x):.6g}")


def _fmt(x) -> str:
    if x is None:
        return "NA"
    return f"{_round6(x):.6g}"


# ---------------------------------------------------------------------------
# Inference summaries
# ---------------------------------------------------------------------------

def _summary_payload(report: InferenceReport) -> dict:
    covs = []
    for row in report.covariates:
        weights = []
        for k, cell in enumerate(row.cells, start=1):
            weights.append({
                "node": k,
                "estimate": _round6(cell.estimate),
                "se": _round6(cell.se),
                "statistic": _round6(cell.statistic),
                "p_value": _round6(cell.p_value),
                "stars": cell.stars,
            })
        covs.append({
            "name": row.name,
            "weights": weights,
            "mp": {
                "statistic": _round6(row.mp_statistic),
                "df": _round6(row.mp_df),
                "p_value": _round6(row.mp_p_value),
                "stars": row.mp_stars,
            },
        })
    gamma = []
    for k, cell in enumerate(report.gamma_cells, start=1):
        gamma.append({
            "node": k,
            "estimate": _round6(cell.estimate),
            "se": _round6(cell.se),
            "statistic": _round6(cell.statistic),
            "p_value": _round6(cell.p_value),
            "stars": cell.stars,
        })
    return {
        "format_version": 1,
        "family": family_for(report.arch.output_activation),
        "n": report.n_obs,
        "p": report.arch.p,
        "q": report.arch.q,
        "lambda": _round6(report.lam),
        "log_likelihood": _round6(report.loglik),
        "sigma_sq": _round6(report.sigma_sq_hat),
        "converged": report.converged,
        "positive_definite": report.positive_definite,
        "gamma0": _round6(report.gamma0_estimate),
        "covariates": covs,
        "gamma": gamma,
    }


def _summary_text(report: InferenceReport) -> str:
    q = report.arch.q
    name_w = max([len("covariate")]
                 + [len(row.name) for row in report.covariates])
    cell_texts = []
    for row in report.covariates:
        cells = [f"{_fmt(c.estimate)}{' ' + c.stars if c.stars else ''}"
                 for c in row.cells]
        mp = (f"{_fmt(row.mp_p_value)}"
              f"{' ' + row.mp_stars if row.mp_stars else ''}"
              if row.mp_error is None else "NA")
        cell_texts.append((row.name, cells, mp))
    col_w = max([len(f"omega_j{k}") for k in range(1, q + 1)]
                + [len(c) for _, cells, _ in cell_texts for c in cells])

    lines = []
    lines.append("Single- and multiple-parameter Wald tests")
    sigma_part = ("" if report.sigma_sq_hat is None
                  else f", sigma^2 = {_fmt(report.sigma_sq_hat)}")
    lines.append(
        f"family {family_for(report.arch.output_activation)}, "
        f"n = {report.n_obs}, p = {report.arch.p}, q = {q}, "
        f"lambda = {_fmt(report.lam)}")
    lines.append(
        f"log-likelihood = {_fmt(report.loglik)}{sigma_part}, "
        f"converged = {'yes' if report.converged else 'no'}")
    if not report.positive_definite:
        lines.append(
            "warning: covariance estimate is not positive definite "
            f"(min eigenvalue {report.min_eigenvalue:.3g}); tests are "
            "unreliable -- consider refitting with a larger ridge penalty")
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
    gamma_bits = [f"gamma_{k} = {_fmt(c.estimate)}"
                  f"{' ' + c.stars if c.stars else ''}"
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
                "1" if cell.p_value is not None else "NA",
                _fmt(cell.p_value), cell.stars]

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

@dataclass(frozen=True)
class DiagramNode:
    """One diagram node; ``significant`` is None for untested nodes."""

    id: str
    label: str
    layer: str                 # "input", "hidden", or "output"
    significant: bool | None


@dataclass(frozen=True)
class DiagramEdge:
    src: str
    dst: str
    significant: bool


@dataclass(frozen=True)
class DiagramSpec:
    """Node/edge list with significance annotations, ready to render."""

    nodes: tuple
    edges: tuple


def _is_significant(p_value) -> bool:
    return p_value is not None and p_value < ALPHA_DIAGRAM


def diagram_spec(report: InferenceReport) -> DiagramSpec:
    """Annotated node/edge list derived purely from an inference report.

    Edges are significant when the weight's single-parameter p-value is
    below 5%; input nodes when the covariate's grouped test is.  Hidden
    and output nodes carry no test.  Intercept weights never appear.
    """
    arch = report.arch
    nodes = []
    edges = []
    for row in report.covariates:
        nodes.append(DiagramNode(id=f"x{row.index}", label=row.name,
                                 layer="input",
                                 significant=_is_significant(row.mp_p_value)))
    for k in range(1, arch.q + 1):
        nodes.append(DiagramNode(id=f"h{k}", label=f"h{k}",
                                 layer="hidden", significant=None))
    nodes.append(DiagramNode(id="out", label="output", layer="output",
                             significant=None))
    for row in report.covariates:
        for k, cell in enumerate(row.cells, start=1):
            edges.append(DiagramEdge(
                src=f"x{row.index}", dst=f"h{k}",
                significant=_is_significant(cell.p_value)))
    for k, cell in enumerate(report.gamma_cells, start=1):
        edges.append(DiagramEdge(
            src=f"h{k}", dst="out",
            significant=_is_significant(cell.p_value)))
    return DiagramSpec(nodes=tuple(nodes), edges=tuple(edges))


def emit_dot(spec: DiagramSpec) -> str:
    """Render a diagram specification as a DOT digraph."""
    lines = ["digraph network {", "  rankdir=LR;",
             "  node [shape=circle];"]
    for node in spec.nodes:
        color = "black"
        if node.significant is False:
            color = "gray"
        shape = "box" if node.layer == "input" else "circle"
        lines.append(
            f'  "{node.id}" [label="{node.label}", shape={shape}, '
            f'color={color}, fontcolor={color}];')
    for edge in spec.edges:
        color = "black" if edge.significant else "gray"
        lines.append(f'  "{edge.src}" -> "{edge.dst}" [color={color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_diagram(arch: Architecture, report: InferenceReport) -> str:
    """DOT rendering of a fitted network's significance structure."""
    if arch != report.arch:
        raise ValueError("architecture does not match the report")
    return emit_dot(diagram_spec(report))


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
    arch = Architecture(p=report.scenario.p, q=report.scenario.q)
    columns = (report.true_values, report.mean_estimate, report.emp_se,
               report.see, report.coverage)
    return _csv_text(
        ["parameter", "true", "mean_estimate", "emp_se", "see", "coverage"],
        ([name] + [_csv_value(column[idx]) for column in columns]
         for idx, name in enumerate(parameter_names(arch))))


def rejections_csv(report) -> str:
    """Per-covariate grouped-test and per-node single-test rejection rates."""
    sc = report.scenario
    arch = Architecture(p=sc.p, q=sc.q)
    return _csv_text(
        ["covariate", "mp_rejection"]
        + [f"sp_rejection_node{k}" for k in range(1, sc.q + 1)],
        ([f"x{j}", _csv_value(report.mp_rejection[j - 1])]
         + [_csv_value(report.sp_rejection[arch.omega_index(j, k)])
            for k in range(1, sc.q + 1)]
         for j in range(1, sc.p + 1)))


def power_csv(sweep) -> str:
    return _csv_text(
        ["effect", "sp_power", "mp_power", "pd_rate"],
        ([_csv_value(pt.effect), _csv_value(pt.sp_power),
          _csv_value(pt.mp_power), _csv_value(pt.pd_rate)]
         for pt in sweep.points))


def pd_csv(cells) -> str:
    return _csv_text(
        ["lambda", "q", "nz_pattern", "n", "pd_rate", "n_fit_failed",
         "n_total"],
        ([_csv_value(cell.lam), cell.q, cell.nz_pattern, cell.n,
          _csv_value(cell.pd_rate), cell.n_fit_failed, cell.n_total]
         for cell in cells))


def sweep_csv(sweep) -> str:
    """Model-selection sweep table; q = 0 is the linear baseline."""
    return _csv_text(
        ["q", "bic", "cv_rmse", "cv_se", "error"],
        ([entry.q, _csv_value(entry.bic), _csv_value(entry.cv_rmse),
          _csv_value(entry.cv_se), entry.error or ""]
         for entry in sweep.entries))


def pce_csv(curves) -> str:
    """Partial-effect curve(s) as a flat table, one row per grid point."""
    if not isinstance(curves, tuple):
        curves = (curves,)
    return _csv_text(
        ["covariate", "condition", "scale", "d", "x", "beta_hat", "se", "lo",
         "hi"],
        ([curve.covariate, curve.condition_label or "", curve.scale,
          _csv_value(curve.d), _csv_value(pt.x), _csv_value(pt.beta_hat),
          _csv_value(pt.se), _csv_value(pt.lo), _csv_value(pt.hi)]
         for curve in curves for pt in curve.points))
