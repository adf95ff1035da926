"""Fast self-test of the benchmark (about 5 s on two cores).

    python3 perfbench/selftest.py

1. Every workload, shrunk to a tiny size, runs one round and passes its
   checks.
2. Every reference check accepts a correct answer and rejects a wrong
   one.  The wrong answers are built here, from the program's library
   functions or from the references, and fed to the check; the program
   itself is not altered.

Exit code 0 when every case behaves as expected.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import replace

import run

FAILURES = []


def expect(name: str, errors: list, should_fail: bool):
    ok = bool(errors) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = f" ({errors[0]})" if errors and not should_fail else ""
    print(f"{verdict} {name}{detail}")
    if not ok:
        FAILURES.append(name)


def tiny_workloads(work):
    from workloads import (Select, SelectSize, Serve, ServeSize, Simulate,
                           SimulateSize)

    made = {}
    for name, cls, size in (
            ("simulate", Simulate, SimulateSize(replicates=4, restarts=2)),
            ("select", Select, SelectSize(rows=400, q_max=2, folds=3,
                                          restarts=2)),
            ("serve", Serve, ServeSize(rows=400, large_rows=800,
                                       restarts=2))):
        path = os.path.join(work, name)
        os.makedirs(path)
        workload = cls(7, path, size)
        workload.setup()
        calls = workload.run(0)
        failed = sum(c.failed for c in calls)
        expect(f"tiny {name} runs and passes its checks",
               workload.check() + [f"{failed} failed"] * bool(failed), False)
        made[name] = workload
    return made


def summary_cases(serve):
    """Summaries and diagrams rendered by the program from a correct and
    from a wrongly scaled covariance."""
    import checks
    from statnn.cli import _model_and_covariance
    from statnn.inference import summarize
    from statnn.report import emit_diagram, emit_summary

    model, table = serve._path("g2.json"), serve.table_of("g2")
    ref = checks.summary_reference(checks.model_reference(model, table))
    doc, data, result, cov = _model_and_covariance(model, table)
    for label, factor in (("correct", 1.0), ("covariance x 1.5", 1.5)):
        wrong = replace(cov, sigma_hat=cov.sigma_hat * factor)
        report = summarize(result, wrong, doc.arch, data)
        for fmt, check in (("json", checks.check_summary_json),
                           ("csv", checks.check_summary_csv),
                           ("text", checks.check_summary_text)):
            expect(f"summary {fmt}, {label}",
                   check(emit_summary(report, fmt), ref), factor != 1.0)
    # Significance colours move only when a p-value crosses 5%, so the
    # diagram is fed a covariance large enough to make every test fail.
    for label, factor in (("correct", 1.0), ("covariance x 1e4", 1e4)):
        wrong = replace(cov, sigma_hat=cov.sigma_hat * factor)
        report = summarize(result, wrong, doc.arch, data)
        expect(f"diagram, {label}",
               checks.check_diagram(emit_diagram(doc.arch, report), ref),
               factor != 1.0)
    text = emit_summary(summarize(result, cov, doc.arch, data), "text")
    starred = text.replace(" ***", " **", 1)
    expect("summary text, one significance code changed",
           checks.check_summary_text(starred, ref), starred != text)


def pce_cases(serve):
    """Curve tables written from the reference itself, once as it is and
    once with the band built from a perturbed gradient."""
    import numpy as np

    import checks
    import oracle
    from statnn.effects import PceCurve, PcePoint
    from statnn.plots import pce_plot_svg
    from statnn.report import pce_csv

    ref = checks.model_reference(serve._path("g2.json"), serve.table_of("g2"))
    curves = checks.pce_reference(ref, "x3", by="x1")
    j = ref.names.index("x3") + 1

    def table(bump):
        out = []
        for c in curves:
            _, grad = oracle.pce(ref.net, ref.theta, ref.x, j, c.d, c.x,
                                 c.pin)
            se = oracle.delta_se(grad * bump, ref.cov_fine)
            out.append(PceCurve(
                covariate=c.covariate, j=j, d=c.d, level=0.95,
                scale=c.scale, condition_label=c.label, points=tuple(
                    PcePoint(x=x, beta_hat=b, se=s, lo=b - oracle.Z_95 * s,
                             hi=b + oracle.Z_95 * s)
                    for x, b, s in zip(c.x, c.beta, se))))
        return tuple(out)

    rng = np.random.default_rng(0)
    good = table(1.0)
    bad = table(1.0 + 0.01 * rng.standard_normal(ref.net.r))
    expect("pce csv, correct", checks.check_pce_csv(pce_csv(good), curves),
           False)
    expect("pce csv, gradient perturbed by 1%",
           checks.check_pce_csv(pce_csv(bad), curves), True)
    shifted = tuple(replace(c, points=tuple(
        replace(pt, beta_hat=pt.beta_hat + 1e-6) for pt in c.points))
        for c in good)
    expect("pce csv, effect shifted by 1e-6",
           checks.check_pce_csv(pce_csv(shifted), curves), True)
    svg = pce_plot_svg(good)
    expect("pce svg, correct", checks.check_pce_svg(svg, curves), False)
    expect("pce svg, one curve missing",
           checks.check_pce_svg(pce_plot_svg(good[:1]), curves), True)


def sweep_cases(select):
    import csv
    import io

    import checks
    from inputs import NOISE_SD

    table = select._table(0)
    with open(os.path.join(select.work, "select-0.out.csv"),
              encoding="utf-8") as fh:
        text = fh.read()
    q_max = select.size.q_max

    def edited(q, field, value):
        rows = list(csv.DictReader(io.StringIO(text)))
        rows[q][field] = value(float(rows[q][field]))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    def run_check(t):
        return checks.check_sweep(t, table, q_max, 2, NOISE_SD)[1]

    expect("sweep, correct", run_check(text), False)
    expect("sweep, linear BIC off by 1e-6 relative",
           run_check(edited(0, "bic", lambda v: repr(v * (1 + 1e-6)))), True)
    expect("sweep, true width no better than linear", run_check(
        edited(2, "cv_rmse", lambda v: "9.9")), True)
    expect("sweep, CV RMSE below the noise SD", run_check(
        edited(1, "cv_rmse", lambda v: "0.3")), True)


def simulation_cases(simulate):
    import numpy as np

    import checks
    import oracle

    reports = list(simulate.reports.values())
    truth = reports[0].true_values
    net = oracle.Net(p=6, q=2)
    asym = oracle.asymptotic_se(net, truth, simulate.size.n, 0.01, 1.0)
    n = sum(r.n_total for r in reports)
    weak = net.omega_index(2, 1)
    shift = np.zeros_like(truth)
    # 20 Monte Carlo SEs beyond the check's limit.
    shift[weak] = ((checks.MC_Z + 20.0) / np.sqrt(n)
                   + checks.BIAS_ALLOW) * asym[weak]
    null_block = np.ones_like(truth)
    null_block[[net.omega_index(1, k) for k in (1, 2)]] = 1.5
    many = np.array(reports[0].mp_rejection)
    many[0] = 1.0
    for name, wrong, should_fail in (
            ("correct", reports, False),
            ("mean estimate shifted 20 MC SEs past the limit",
             [replace(r, mean_estimate=r.mean_estimate + shift)
              for r in reports], True),
            ("estimated SEs x 1.5", [replace(r, see=r.see * 1.5)
                                     for r in reports], True),
            ("null covariate's estimated SEs x 1.5",
             [replace(r, see=r.see * null_block) for r in reports], True),
            ("null covariate always rejected",
             [replace(r, mp_rejection=many) for r in reports] * 3, True)):
        expect(f"simulation, {name}", simulate.check_reports(wrong),
               should_fail)


def main() -> int:
    if not run.bootstrap():
        return 2
    work = os.path.join(run.OUT_DIR, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        made = tiny_workloads(work)
        summary_cases(made["serve"])
        pce_cases(made["serve"])
        sweep_cases(made["select"])
        simulation_cases(made["simulate"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} unexpected outcome(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
