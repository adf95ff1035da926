"""Command-line interface.

Subcommands cover the full workflow: ``fit`` (CSV to model JSON),
``summary`` (Wald-test table for a stored model), ``pce`` (partial
covariate effects as CSV and/or SVG), ``select`` (BIC and
cross-validation sweep over widths), ``diagram`` (significance-annotated
DOT graph), and ``simulate`` (a Monte Carlo scenario to report CSVs,
or a study grid to the power curve or the positive-definiteness table).

Exit codes: 0 on success, 2 on input problems (bad files, unknown
columns, malformed flags), 3 on numerical failure, reported with the
remedy of refitting with a larger ridge penalty.  ``summary``,
``diagram`` and ``pce`` exit 3 where the information is singular or the
covariance is not positive definite: a ``CovarianceEstimate`` is
positive definite by construction, and no Wald test or confidence band
exists without one.

Inference is the fit's: ``fit`` stores the training data's fit and
observed information in the model file, and every query builds its
sandwich covariance from them.  ``summary`` and ``diagram`` report the
fit on its training data, so their CSV must be that data; it is parsed
only when its bytes differ from the training file's, and refused (exit
2) when its encoded rows differ too.  ``pce`` averages over the rows of
its CSV, whichever sample that is.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .effects import (_DEFAULT_GRID_POINTS, effect_grid, pce_curve,
                      to_original_scale)
from .exceptions import DataError, FitError, NotPositiveDefiniteError
from .fit import FitConfig, fit
# Not called here since queries read the stored fit.  perfbench/spans.py
# looks these bindings up; they can go with the next benchmark change.
from .fit import evaluate_at  # noqa: F401
from .inference import sandwich_covariance, summarize
from .likelihood import observed_information  # noqa: F401
from .model import FAMILIES, Architecture
from .plots import pce_plot_svg, power_plot_svg, selection_plot_svg
from .preprocess import dataset_from_meta, ingest
from .report import (emit_diagram, emit_summary, estimates_csv, overview_csv,
                     pce_csv, pd_csv, power_csv, rejections_csv, sweep_csv)
from .selection import _DEFAULT_FOLDS, fit_linear, sweep
from .serialize import (atomic_write_text, data_sha256, file_sha256,
                        json_object, load_model, model_document, parse_study,
                        save_model)
from .simgen import run_grid, run_scenario

_LAMBDA_HINT = ("refit with a larger ridge penalty (--lambda) to obtain a "
                "positive definite covariance")


def _fit_flags(parser):
    parser.add_argument("--lambda", dest="lam", type=float, default=0.01,
                        help="ridge penalty (default 0.01)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for restarts (default 0)")
    parser.add_argument("--restarts", type=int, default=FitConfig.n_restarts,
                        help="number of random restarts (default "
                             f"{FitConfig.n_restarts})")
    parser.add_argument("--family", choices=tuple(FAMILIES),
                        default="gaussian",
                        help="likelihood family (default gaussian)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statnn",
        description="Feedforward networks as statistical models: "
                    "penalized fitting, Wald inference, covariate "
                    "effects, and simulation studies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p_fit = sub.add_parser("fit", help="fit a network to a CSV file")
    p_fit.add_argument("csv", help="input CSV (UTF-8, header row)")
    p_fit.add_argument("--response", required=True,
                       help="name of the response column")
    p_fit.add_argument("--q", type=int, required=True,
                       help="number of hidden nodes")
    p_fit.add_argument("--out", required=True, help="model JSON output path")
    p_fit.add_argument("--schema",
                       help="JSON file overriding per-column actions")
    _fit_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sum = sub.add_parser("summary",
                           help="Wald-test summary of a stored model")
    p_sum.add_argument("model", help="model JSON file")
    p_sum.add_argument("csv", help="data CSV to evaluate on")
    p_sum.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
    p_sum.add_argument("--out", help="write here instead of stdout")
    p_sum.set_defaults(func=cmd_summary)

    p_pce = sub.add_parser("pce", help="partial covariate effect curve")
    p_pce.add_argument("model", help="model JSON file")
    p_pce.add_argument("csv", help="data CSV to average over")
    p_pce.add_argument("--covariate", required=True,
                       help="model column to profile")
    p_pce.add_argument("--d", type=float,
                       help="step size in standardized units, also with "
                            "--original-scale (default: one sample sd; a "
                            "negative step is a decrease); a 0/1 covariate's "
                            "step is 1 and no other is accepted")
    p_pce.add_argument("--by",
                       help="condition on this covariate (dummy: levels "
                            "0 and 1; continuous: mean -/+ one sd, pinned "
                            "and labelled in standardized units, also "
                            "with --original-scale)")
    p_pce.add_argument("--grid-points", type=int,
                       default=_DEFAULT_GRID_POINTS)
    p_pce.add_argument("--original-scale", action="store_true",
                       help="report effects in original response units")
    p_pce.add_argument("--linear-reference", action="store_true",
                       help="overlay the linear model on the --svg plot")
    p_pce.add_argument("--out", help="write curve CSV here instead of stdout")
    p_pce.add_argument("--svg", help="also render an SVG plot to this path")
    p_pce.set_defaults(func=cmd_pce)

    p_sel = sub.add_parser("select",
                           help="BIC / cross-validation sweep over widths")
    p_sel.add_argument("csv", help="input CSV (UTF-8, header row)")
    p_sel.add_argument("--response", required=True,
                       help="name of the response column")
    p_sel.add_argument("--q-max", type=int, default=8,
                       help="largest width; candidates are 0 (linear) "
                            "through this value (default 8)")
    p_sel.add_argument("--q-list",
                       help="comma-separated explicit candidate widths "
                            "(overrides --q-max)")
    p_sel.add_argument("--folds", type=int, default=_DEFAULT_FOLDS)
    p_sel.add_argument("--no-cv", action="store_true",
                       help="skip cross-validation, BIC only")
    p_sel.add_argument("--schema",
                       help="JSON file overriding per-column actions")
    p_sel.add_argument("--out", help="write sweep CSV here instead of stdout")
    p_sel.add_argument("--svg", help="also render an SVG plot to this path")
    _fit_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_dia = sub.add_parser("diagram",
                           help="DOT diagram with significance styling")
    p_dia.add_argument("model", help="model JSON file")
    p_dia.add_argument("csv", help="data CSV to evaluate on")
    p_dia.add_argument("--out", help="write here instead of stdout")
    p_dia.set_defaults(func=cmd_diagram)

    p_sim = sub.add_parser(
        "simulate", help="run a Monte Carlo scenario or study grid from JSON",
        description="One scenario writes overview.csv, estimates.csv and "
                    "rejections.csv.  n and/or lambda lists write pd.csv; "
                    "an effect list (covariate 2's true weights) writes "
                    "power.csv and power.svg, without n or lambda lists.")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--out-dir", required=True,
                       help="directory for the report CSVs")
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1, serial)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _load_schema(path):
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return json_object(fh.read(), path)


def _emit_or_print(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out_path, text)


def cmd_fit(args) -> int:
    data, _plan = ingest(args.csv, args.response, _load_schema(args.schema))
    arch = Architecture(p=data.p, q=args.q, family=args.family)
    config = FitConfig(n_restarts=args.restarts, seed=args.seed)
    result = fit(arch, data, args.lam, config)
    save_model(model_document(result, data, args.csv), args.out)
    sigma_part = ("" if result.sigma_sq_hat is None
                  else f", sigma^2 = {result.sigma_sq_hat:.6g}")
    print(f"fit: n = {data.n}, p = {data.p}, q = {args.q}, "
          f"log-likelihood = {result.loglik:.6g}{sigma_part}, "
          f"converged = {'yes' if result.converged else 'no'}")
    print(f"model written to {args.out}")
    return 0


def _model_and_covariance(model_path, csv_path):
    """Shared summary/diagram preamble: the model, its training data's
    stand-in (the document: n and the column records), the stored fit
    and the sandwich covariance of its information.

    ``csv_path`` must hold the training data.  Its rows are parsed only
    when its bytes differ from the training file's (a byte-order mark,
    other line ends, columns in another order); then any parse error
    comes first, and encoded rows that differ are refused."""
    doc = load_model(model_path)
    if file_sha256(csv_path) != doc.fit.csv_sha256:
        data = dataset_from_meta(csv_path, doc.column_meta, doc.response_meta)
        if data_sha256(data) != doc.fit.data_sha256:
            raise DataError(
                f"{csv_path} is not the data {model_path} was fitted to; "
                "summary and diagram report the fit on its training data, "
                "so give that CSV")
    return doc, doc, doc.fit_result, _covariance(doc)


def _covariance(doc):
    """The sandwich covariance of a model's stored information."""
    return sandwich_covariance(doc.fit.information, doc.lam)


def _wald_report(args):
    """Shared summary/diagram step: Wald tests of a stored model."""
    doc, data, result, cov = _model_and_covariance(args.model, args.csv)
    return summarize(result, cov, doc.arch, data)


def cmd_summary(args) -> int:
    _emit_or_print(emit_summary(_wald_report(args), args.format), args.out)
    return 0


def cmd_pce(args) -> int:
    if args.linear_reference and not args.svg:
        raise DataError("--linear-reference is drawn only on the SVG plot; "
                        "give --svg as well")
    doc = load_model(args.model)
    data = dataset_from_meta(args.csv, doc.column_meta, doc.response_meta)
    cov = _covariance(doc)
    j = data.column_index(args.covariate) + 1
    by = None if args.by is None else data.column_index(args.by) + 1
    curves = pce_curve(doc.theta, cov, data, j, args.d,
                       effect_grid(data, j, args.d, args.grid_points), by)
    d = curves[0].d                     # the fitted (standardized) step
    if args.original_scale:
        curves = tuple(to_original_scale(c, data) for c in curves)
    linear_beta = None
    if args.linear_reference:
        # Linear-model analogue of the d-step effect; beta[0] is the
        # intercept.
        linear_beta = float(fit_linear(data).beta[j]) * d
        if args.original_scale:
            linear_beta *= data.response_meta.sd
    _emit_or_print(pce_csv(curves), args.out)
    if args.svg:
        atomic_write_text(args.svg,
                          pce_plot_svg(curves, linear_beta=linear_beta))
    return 0


def cmd_select(args) -> int:
    data, _plan = ingest(args.csv, args.response, _load_schema(args.schema))
    if args.q_list:
        try:
            q_list = tuple(int(tok) for tok in args.q_list.split(","))
        except ValueError as exc:
            raise DataError(
                f"--q-list must be comma-separated integers: {exc}") from exc
    else:
        if args.q_max < 1:
            raise DataError(f"--q-max must be >= 1, got {args.q_max}")
        q_list = tuple(range(0, args.q_max + 1))
    config = FitConfig(n_restarts=args.restarts, seed=args.seed)
    result = sweep(data, q_list, args.family, args.lam, config,
                   folds=args.folds, cv=not args.no_cv)
    _emit_or_print(sweep_csv(result), args.out)
    if args.svg:
        atomic_write_text(args.svg, selection_plot_svg(result))
    best = result.best_bic()
    print(f"best BIC: q = {best.q} (BIC {best.bic:.6g})", file=sys.stderr)
    if not args.no_cv:
        best_cv = result.best_cv()
        print(f"best CV RMSE: q = {best_cv.q} "
              f"(RMSE {best_cv.cv_rmse:.6g})", file=sys.stderr)
    return 0


def cmd_diagram(args) -> int:
    report = _wald_report(args)
    _emit_or_print(emit_diagram(report.arch, report), args.out)
    return 0


def cmd_simulate(args) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        scenario, axes = parse_study(fh.read(), where=args.scenario)
    if axes:
        reports = run_grid(scenario, n_jobs=args.jobs, **axes)
        outputs = ({"power.csv": power_csv(reports),
                    "power.svg": power_plot_svg(reports)}
                   if "effect" in axes else {"pd.csv": pd_csv(reports)})
    else:
        reports = (run_scenario(scenario, n_jobs=args.jobs),)
        outputs = {name: render(reports[0]) for name, render in (
            ("overview.csv", overview_csv), ("estimates.csv", estimates_csv),
            ("rejections.csv", rejections_csv))}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in outputs.items():
        atomic_write_text(os.path.join(args.out_dir, name), text)
    print(f"simulate: q = {scenario.q}, pattern = {scenario.nz_pattern}, "
          f"{len(reports)} cell(s) of {scenario.replicates} replicates: "
          f"fit failures = {sum(r.n_fit_failed for r in reports)}, "
          f"converged with positive definite covariance = "
          f"{sum(r.n_pd for r in reports)}, "
          f"converged = {sum(r.n_converged for r in reports)}")
    print(f"reports written to {args.out_dir}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: 1.1 ms to build, 0.04 ms to parse
    a summary command line (one Xeon core).  The ``cmd_*`` functions it
    holds look up their callees when they run."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed a message; normalize the code.
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        # KeyError wraps its message in quotes; unwrap for readability.
        message = exc.args[0] if (isinstance(exc, KeyError)
                                  and exc.args) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (FitError, NotPositiveDefiniteError) as exc:
        print(f"numerical failure: {exc}\nhint: {_LAMBDA_HINT}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
