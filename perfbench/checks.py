"""Checks of the program's outputs against the reference computations.

Each ``check_*`` function takes the program's output (text or parsed
report) and a reference built by this module from :mod:`oracle`, and
returns a list of error strings; an empty list means the output passed.

Tolerances come from two sources, both stated where they are used:

* output rounding: summaries print 6 significant digits (half a unit
  in the last place is at most 5e-6 relative), curve and sweep tables
  print 10 (at most 5e-10 relative);
* the reference's own error: every covariance-derived quantity is
  computed twice, with the central-difference Hessian step h and h/2,
  and ten times their difference is taken as its error bound.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np
import scipy.stats

import oracle
from inputs import read_model_columns

ROUND6 = 5.01e-6
ROUND10 = 5.01e-10
#: Multiple of |q(h) - q(h/2)| taken as a reference quantity's error.
ERR_FACTOR = 10.0

# Monte Carlo study (``check_simulation``).  Figures below are from 600
# replicates of the headline cell (q = 2, "5-1", n = 1000).
#: Monte Carlo SEs a pooled mean estimate may lie from the truth.
MC_Z = 5.0
#: Finite-sample bias allowed, in asymptotic SEs of one estimate: the
#: penalized estimator's O(1/n) bias, which more replicates do not
#: remove, measured at 0.1-0.36 SEs for several weights.
BIAS_ALLOW = 0.5
#: A parameter's mean estimated SE may differ from its asymptotic SE by
#: SEE_BIAS + SEE_SPREAD / sqrt(N) relative, N the replicates pooled.
#: Measured: the mean over all 600 lay 1.6-3.7% above it for every
#: parameter (finite-sample bias), and the SE ratio of one replicate has
#: an SD of about 0.156, so SEE_SPREAD is 3.2 of those SDs.  At the
#: N = 72-96 of a 30-s run the allowance is 10.1-10.9%; a covariance
#: understated by 1.5x in any block, the null covariate's included,
#: moves its SEs by 18% and fails.  Over the 25 disjoint pairs of
#: rounds (N = 24, as in a traced run) the largest distance was 10.5%,
#: against 15.2% allowed.
SEE_BIAS = 0.05
SEE_SPREAD = 0.5
#: Smallest tail probability allowed for the null covariate's count of
#: grouped-test rejections.  A 30-s run pools 72-96 replicates; at that
#: N this flags a test of size 0.135 (the size when the covariance is
#: understated by 1.5x) in 38-46% of runs, and a test of size 0.05
#: in fewer than 1 run of 1,000; at the measured size, 21 of 600
#: (0.035), in fewer than 1 of 20,000.  There is no lower bound: as the
#: measured size is below 5%, a test that never rejects cannot be told
#: from a correct one at this N; one that never rejects because its SEs
#: are overstated fails the SE check.
NULL_TAIL = 1e-3


@dataclass(frozen=True)
class Q:
    """A reference value with its absolute error bound."""

    value: float
    err: float

    def band(self, rounding: float):
        tol = rounding * abs(self.value) + self.err
        return self.value - tol, self.value + tol

    def admits(self, got, rounding: float) -> bool:
        lo, hi = self.band(rounding)
        return got is not None and lo <= float(got) <= hi


def _q(a: float, b: float) -> Q:
    """Quantity from two estimates, b the more accurate one."""
    return Q(float(b), ERR_FACTOR * abs(a - b) + 1e-12 * abs(b))


def stars(p: float) -> str:
    return "***" if p < 0.001 else "**" if p < 0.01 else "*" if p < 0.05 else ""


@dataclass(frozen=True)
class PTest:
    """A reference Wald test: statistic, df and p-value band."""

    stat: Q
    df: Q
    p_lo: float
    p_hi: float

    def admits_p(self, got, rounding: float) -> bool:
        if got is None:
            return False
        got = float(got)
        return (self.p_lo * (1.0 - rounding) - 1e-300 <= got
                <= self.p_hi * (1.0 + rounding) + 1e-300)

    def admits_stars(self, got: str) -> bool:
        # Either side of a threshold is acceptable when the band spans it.
        return got in {stars(self.p_lo), stars(self.p_hi)}

    @property
    def significant(self):
        """True/False at 5%, or None when the band straddles 0.05."""
        if self.p_hi < 0.05:
            return True
        if self.p_lo >= 0.05:
            return False
        return None


def _ptest(stat_a, stat_b, df_a, df_b) -> PTest:
    stat, df = _q(stat_a, stat_b), _q(df_a, df_b)
    s_lo, s_hi = stat.band(0.0)
    d_lo, d_hi = df.band(0.0)
    # The survival function falls in the statistic; over df it is
    # monotone too, so the band's corners bound it.
    corners = [scipy.stats.chi2.sf(max(s, 0.0), max(d, 1e-9))
               for s in (s_lo, s_hi) for d in (d_lo, d_hi)]
    return PTest(stat, df, float(min(corners)), float(max(corners)))


# ---------------------------------------------------------------------------
# Stored-model references
# ---------------------------------------------------------------------------

@dataclass
class ModelRef:
    """Everything a summary, diagram or curve of one stored model should
    show, computed from the model file and the raw CSV."""

    net: oracle.Net
    theta: np.ndarray
    lam: float
    names: tuple
    kinds: tuple
    means: np.ndarray
    sds: np.ndarray
    y_mean: float
    y_sd: float
    x: np.ndarray            # standardized with the stored constants
    y: np.ndarray
    sigma_sq: float | None
    cov: oracle.Sandwich     # from the step-h Hessian
    cov_fine: oracle.Sandwich  # from the step-h/2 Hessian
    loglik: float
    grad_max: float
    family: str


def model_reference(model_path, csv_path) -> ModelRef:
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    net = oracle.Net(p=doc["p"], q=doc["q"],
                     logistic_output=doc["output_activation"] == "logistic")
    theta = np.array(doc["theta"], dtype=float)
    lam = float(doc["lambda"])
    metas = doc["column_meta"]
    names, raw_x, raw_y = read_model_columns(csv_path)
    order = [names.index(m["name"]) for m in metas]
    raw_x = raw_x[:, order]
    means = np.array([m["mean"] for m in metas], dtype=float)
    sds = np.array([m["sd"] for m in metas], dtype=float)
    x = (raw_x - means) / sds
    resp = doc["response_meta"]
    y = (raw_y - resp["mean"]) / resp["sd"]
    family = "bernoulli" if net.logistic_output else "gaussian"
    sigma_sq = None if net.logistic_output else oracle.profiled_sigma_sq(
        net, theta, x, y)
    info = oracle.fd_information(net, theta, x, y, sigma_sq)
    info_fine = oracle.fd_information(net, theta, x, y, sigma_sq,
                                      oracle.HESSIAN_STEP / 2.0)
    # Stationarity on the optimizer's scale (sigma^2 = 1 for Gaussian).
    grad = (oracle.loglik_gradient(net, theta, x, y, 1.0)
            - 2.0 * lam * theta * net.penalized())
    return ModelRef(
        net=net, theta=theta, lam=lam,
        names=tuple(m["name"] for m in metas),
        kinds=tuple(m["kind"] for m in metas), means=means, sds=sds,
        y_mean=float(resp["mean"]), y_sd=float(resp["sd"]), x=x, y=y,
        sigma_sq=sigma_sq, cov=oracle.sandwich(info, lam),
        cov_fine=oracle.sandwich(info_fine, lam),
        loglik=oracle.penalized_loglik(net, theta, x, y, lam),
        grad_max=float(np.max(np.abs(grad))), family=family)


def check_standardization(ref: ModelRef, fit_csv) -> list:
    """Stored centering constants are the fitting table's own moments."""
    names, raw_x, raw_y = read_model_columns(fit_csv)
    errors = []
    for j, (name, kind) in enumerate(zip(ref.names, ref.kinds)):
        col = raw_x[:, names.index(name)]
        if kind == "continuous":
            want = (float(np.mean(col)), float(np.std(col, ddof=1)))
            got = (ref.means[j], ref.sds[j])
            if not np.allclose(got, want, rtol=1e-12, atol=1e-12):
                errors.append(f"{name}: stored mean/sd {got} != {want}")
        elif set(np.unique(col)) - {0.0, 1.0}:
            errors.append(f"{name}: stored as a dummy but not 0/1")
    if ref.family == "gaussian":
        want = (float(np.mean(raw_y)), float(np.std(raw_y, ddof=1)))
        if not np.allclose((ref.y_mean, ref.y_sd), want, rtol=1e-12):
            errors.append(f"response mean/sd {(ref.y_mean, ref.y_sd)} != "
                          f"{want}")
    return errors


@dataclass(frozen=True)
class Cell:
    estimate: float
    se: Q
    test: PTest


@dataclass
class SummaryRef:
    family: str
    n: int
    p: int
    q: int
    lam: float
    loglik: Q
    sigma_sq: Q | None
    converged: bool | None   # None when too close to the 1e-6 threshold
    names: tuple
    cells: dict              # (j, k) -> Cell, covariates j = 1..p
    groups: dict             # j -> PTest
    gammas: dict             # k -> Cell, k = 1..q
    gamma0: float


def summary_reference(ref: ModelRef) -> SummaryRef:
    net, theta = ref.net, ref.theta

    def cell(idx):
        sa, sea = oracle.wald_single(theta, ref.cov, idx)
        sb, seb = oracle.wald_single(theta, ref.cov_fine, idx)
        return Cell(float(theta[idx]), _q(sea, seb), _ptest(sa, sb, 1.0, 1.0))

    cells = {(j, k): cell(net.omega_index(j, k))
             for j in range(1, net.p + 1) for k in range(1, net.q + 1)}
    groups = {}
    for j in range(1, net.p + 1):
        sa, da = oracle.wald_group(net, theta, ref.cov, j)
        sb, db = oracle.wald_group(net, theta, ref.cov_fine, j)
        groups[j] = _ptest(sa, sb, da, db)
    converged = None
    if ref.grad_max < 1e-7:
        converged = True
    elif ref.grad_max > 1e-5:
        converged = False
    return SummaryRef(
        family=ref.family, n=len(ref.y), p=net.p, q=net.q, lam=ref.lam,
        loglik=Q(ref.loglik, 1e-9 * abs(ref.loglik)),
        sigma_sq=(None if ref.sigma_sq is None
                  else Q(ref.sigma_sq, 1e-12 * ref.sigma_sq)),
        converged=converged, names=ref.names, cells=cells, groups=groups,
        gammas={k: cell(net.gamma_index(k)) for k in range(1, net.q + 1)},
        gamma0=float(theta[net.gamma_index(0)]))


def _num(text):
    return None if text in ("NA", "", None) else float(text)


def _check_cell(where, ref_cell: Cell, est, star, errors, se=None,
                p_value=None, full=True):
    """Estimate and stars always; SE and p-value when ``full`` (the text
    summary prints neither)."""
    if not Q(ref_cell.estimate, 0.0).admits(est, ROUND6):
        errors.append(f"{where}: estimate {est} != {ref_cell.estimate:.8g}")
    if full and not ref_cell.se.admits(se, ROUND6):
        errors.append(f"{where}: se {se} != {ref_cell.se.value:.8g}")
    if full and not ref_cell.test.admits_p(p_value, ROUND6):
        errors.append(f"{where}: p-value {p_value} outside "
                      f"[{ref_cell.test.p_lo:.6g}, {ref_cell.test.p_hi:.6g}]")
    if not ref_cell.test.admits_stars(star):
        errors.append(f"{where}: stars {star!r} for p in "
                      f"[{ref_cell.test.p_lo:.3g}, {ref_cell.test.p_hi:.3g}]")


def check_summary_json(text: str, ref: SummaryRef) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"summary json does not parse: {exc}"]
    errors = []
    for key, want in (("family", ref.family), ("n", ref.n), ("p", ref.p),
                      ("q", ref.q), ("positive_definite", True)):
        if doc.get(key) != want:
            errors.append(f"summary {key} = {doc.get(key)!r}, want {want!r}")
    if ref.converged is not None and doc.get("converged") != ref.converged:
        errors.append(f"summary converged = {doc.get('converged')!r}")
    if not Q(ref.lam, 0.0).admits(doc.get("lambda"), ROUND6):
        errors.append(f"summary lambda {doc.get('lambda')}")
    if not ref.loglik.admits(doc.get("log_likelihood"), ROUND6):
        errors.append(f"log_likelihood {doc.get('log_likelihood')} != "
                      f"{ref.loglik.value:.8g}")
    if ref.sigma_sq is not None and not ref.sigma_sq.admits(
            doc.get("sigma_sq"), ROUND6):
        errors.append(f"sigma_sq {doc.get('sigma_sq')} != "
                      f"{ref.sigma_sq.value:.8g}")
    if not Q(ref.gamma0, 0.0).admits(doc.get("gamma0"), ROUND6):
        errors.append(f"gamma0 {doc.get('gamma0')} != {ref.gamma0:.8g}")
    covs = doc.get("covariates", [])
    if [c.get("name") for c in covs] != list(ref.names):
        return errors + [f"covariate names {[c.get('name') for c in covs]}"]
    for j, cov in enumerate(covs, start=1):
        for k, w in enumerate(cov["weights"], start=1):
            _check_cell(f"{cov['name']} node {k}", ref.cells[(j, k)],
                        w["estimate"], w["stars"], errors, w["se"],
                        w["p_value"])
            if not ref.cells[(j, k)].test.stat.admits(w["statistic"], ROUND6):
                errors.append(f"{cov['name']} node {k}: statistic "
                              f"{w['statistic']}")
        _check_group(cov["name"], ref.groups[j], cov["mp"]["statistic"],
                     cov["mp"]["df"], cov["mp"]["p_value"],
                     cov["mp"]["stars"], errors)
    for k, g in enumerate(doc.get("gamma", []), start=1):
        _check_cell(f"gamma_{k}", ref.gammas[k], g["estimate"], g["stars"],
                    errors, g["se"], g["p_value"])
    if len(doc.get("gamma", [])) != ref.q:
        errors.append("summary lists the wrong number of output weights")
    return errors


def _check_group(name, test: PTest, stat, df, p_value, star, errors):
    if stat is not None and not test.stat.admits(stat, ROUND6):
        errors.append(f"{name}: grouped statistic {stat} != "
                      f"{test.stat.value:.8g}")
    if df is not None and not test.df.admits(df, ROUND6):
        errors.append(f"{name}: grouped df {df} != {test.df.value:.8g}")
    if not test.admits_p(p_value, ROUND6):
        errors.append(f"{name}: grouped p-value {p_value} outside "
                      f"[{test.p_lo:.6g}, {test.p_hi:.6g}]")
    if not test.admits_stars(star):
        errors.append(f"{name}: grouped stars {star!r}")


def check_summary_csv(text: str, ref: SummaryRef) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["row_kind", "name", "node", "estimate", "se",
                               "statistic", "df", "p_value", "stars"]:
        return ["summary csv header is wrong"]
    errors = []
    seen = 0
    index = {name: j for j, name in enumerate(ref.names, start=1)}
    for row in rows[1:]:
        kind, name, node = row[0], row[1], row[2]
        if kind == "weight":
            c = ref.cells[(index[name], int(node))]
            _check_cell(f"{name} node {node}", c, _num(row[3]), row[8],
                        errors, _num(row[4]), _num(row[7]))
        elif kind == "mp":
            _check_group(name, ref.groups[index[name]], _num(row[5]),
                         _num(row[6]), _num(row[7]), row[8], errors)
        elif kind == "gamma" and int(node) == 0:
            if not Q(ref.gamma0, 0.0).admits(_num(row[3]), ROUND6):
                errors.append(f"gamma_0 {row[3]}")
        elif kind == "gamma":
            _check_cell(name, ref.gammas[int(node)], _num(row[3]), row[8],
                        errors, _num(row[4]), _num(row[7]))
        else:
            errors.append(f"unexpected summary csv row {row}")
        seen += 1
    want = ref.p * (ref.q + 1) + ref.q + 1
    if seen != want:
        errors.append(f"summary csv has {seen} rows, want {want}")
    return errors


_STARS = re.compile(r"^\*{1,3}$")


def _take(tokens):
    """Pop a number and its optional significance stars."""
    value = _num(tokens.pop(0))
    star = tokens.pop(0) if tokens and _STARS.match(tokens[0]) else ""
    return value, star


def check_summary_text(text: str, ref: SummaryRef) -> list:
    lines = text.splitlines()
    errors = []
    head = (f"family {ref.family}, n = {ref.n}, p = {ref.p}, q = {ref.q}, "
            f"lambda = ")
    if len(lines) < 3 or not lines[1].startswith(head):
        return [f"summary text header {lines[1:2]!r}"]
    m = re.match(r"log-likelihood = (\S+?)(?:, sigma\^2 = (\S+?))?, "
                 r"converged = (yes|no)$", lines[2])
    if not m:
        return [f"summary text line 3 {lines[2]!r}"]
    if not ref.loglik.admits(float(m.group(1)), ROUND6):
        errors.append(f"text log-likelihood {m.group(1)}")
    if ref.sigma_sq is not None and not ref.sigma_sq.admits(
            _num(m.group(2)), ROUND6):
        errors.append(f"text sigma^2 {m.group(2)}")
    if ref.converged is not None and (m.group(3) == "yes") != ref.converged:
        errors.append(f"text converged = {m.group(3)}")
    rules = [i for i, line in enumerate(lines) if set(line) == {"-"}]
    if len(rules) != 2:
        return errors + ["summary text lacks its table rules"]
    body = lines[rules[0] + 1:rules[1]]
    if len(body) != ref.p:
        return errors + [f"summary text has {len(body)} covariate rows"]
    for j, line in enumerate(body, start=1):
        tokens = line.split()
        name = tokens.pop(0)
        if name != ref.names[j - 1]:
            errors.append(f"text row {j} names {name!r}")
            continue
        for k in range(1, ref.q + 1):
            est, star = _take(tokens)
            _check_cell(f"text {name} node {k}", ref.cells[(j, k)], est,
                        star, errors, full=False)
        p_value, star = _take(tokens)
        _check_group(f"text {name}", ref.groups[j], None, None, p_value,
                     star, errors)
    tail = lines[rules[1] + 1]
    m = re.search(r"gamma_0 = (\S+?),", tail)
    if not (m and Q(ref.gamma0, 0.0).admits(float(m.group(1)), ROUND6)):
        errors.append(f"text gamma_0 in {tail!r}")
    for k in range(1, ref.q + 1):
        m = re.search(rf"gamma_{k} = (\S+?)( \*+)?(?:,|$)", tail)
        if not m:
            errors.append(f"text lacks gamma_{k}")
            continue
        _check_cell(f"text gamma_{k}", ref.gammas[k], float(m.group(1)),
                    (m.group(2) or "").strip(), errors, full=False)
    return errors


_NODE = re.compile(r'^\s*"(\w+)" \[label="([^"]*)", shape=(\w+), '
                   r'color=(\w+), fontcolor=(\w+)\];$')
_EDGE = re.compile(r'^\s*"(\w+)" -> "(\w+)" \[color=(\w+)\];$')


def check_diagram(text: str, ref: SummaryRef) -> list:
    nodes, edges = {}, {}
    for line in text.splitlines():
        m = _NODE.match(line)
        if m:
            nodes[m.group(1)] = (m.group(2), m.group(4))
            continue
        m = _EDGE.match(line)
        if m:
            edges[(m.group(1), m.group(2))] = m.group(3)
    errors = []
    want_nodes = ({f"x{j}" for j in range(1, ref.p + 1)}
                  | {f"h{k}" for k in range(1, ref.q + 1)} | {"out"})
    if set(nodes) != want_nodes:
        return [f"diagram nodes {sorted(nodes)}"]
    want_edges = ({(f"x{j}", f"h{k}") for j in range(1, ref.p + 1)
                   for k in range(1, ref.q + 1)}
                  | {(f"h{k}", "out") for k in range(1, ref.q + 1)})
    if set(edges) != want_edges:
        return [f"diagram edges {sorted(edges)}"]

    def expect(what, test: PTest, color):
        sig = test.significant
        if sig is not None and color != ("black" if sig else "gray"):
            errors.append(f"diagram {what} is {color}, p in "
                          f"[{test.p_lo:.3g}, {test.p_hi:.3g}]")

    for j in range(1, ref.p + 1):
        label, color = nodes[f"x{j}"]
        if label != ref.names[j - 1]:
            errors.append(f"diagram x{j} label {label!r}")
        expect(f"node x{j}", ref.groups[j], color)
        for k in range(1, ref.q + 1):
            expect(f"edge x{j}->h{k}", ref.cells[(j, k)].test,
                   edges[(f"x{j}", f"h{k}")])
    for k in range(1, ref.q + 1):
        expect(f"edge h{k}->out", ref.gammas[k].test, edges[(f"h{k}", "out")])
        if nodes[f"h{k}"][1] != "black":
            errors.append(f"diagram hidden node h{k} is not black")
    return errors


# ---------------------------------------------------------------------------
# Partial covariate effects
# ---------------------------------------------------------------------------

@dataclass
class CurveRef:
    covariate: str
    label: str
    pin: tuple | None        # (1-based column, standardized value)
    scale: str
    d: float
    x: np.ndarray
    beta: np.ndarray
    se: list                 # of Q


def pce_reference(ref: ModelRef, covariate: str, by: str | None = None,
                  original: bool = False) -> list:
    """Reference curves as ``statnn pce`` with default step and grid
    documents them: d is the sample sd of the (standardized) column,
    the grid 101 points from its minimum to its maximum minus d; a
    dummy covariate gets d = 1 at the single point 0; ``--by`` pins a
    second covariate at 0 and 1 (dummy) or its mean -/+ one sd."""
    j = ref.names.index(covariate) + 1
    col = ref.x[:, j - 1]
    if ref.kinds[j - 1] == "dummy":
        d, grid = 1.0, np.array([0.0])
    else:
        d = float(np.std(col, ddof=1))
        grid = np.linspace(float(np.min(col)), float(np.max(col)) - d, 101)
    pins = [None]
    if by is not None:
        k = ref.names.index(by) + 1
        if ref.kinds[k - 1] == "dummy":
            values = (0.0, 1.0)
        else:
            ck = ref.x[:, k - 1]
            m, s = float(np.mean(ck)), float(np.std(ck, ddof=1))
            values = (m - s, m + s)
        pins = [(k, v) for v in values]
    sx, mx = ((ref.sds[j - 1], ref.means[j - 1])
              if original and ref.kinds[j - 1] == "continuous" else (1.0, 0.0))
    sy = ref.y_sd if original else 1.0
    curves = []
    for pin in pins:
        beta, grad = oracle.pce(ref.net, ref.theta, ref.x, j, d, grid, pin)
        se = oracle.delta_se(grad, ref.cov)
        se_fine = oracle.delta_se(grad, ref.cov_fine)
        label = "" if pin is None else f"{by}={pin[1]:.6g}"
        # 1e-7 relative covers the finite-difference gradient's error.
        curves.append(CurveRef(
            covariate=covariate, label=label, pin=pin,
            scale="original" if original else "standardized", d=d * sx,
            x=grid * sx + mx, beta=beta * sy,
            se=[Q(b * sy, (ERR_FACTOR * abs(a - b) + 1e-7 * b) * sy)
                for a, b in zip(se, se_fine)]))
    return curves


def check_pce_csv(text: str, curves: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["covariate", "condition", "scale", "d", "x",
                               "beta_hat", "se", "lo", "hi"]:
        return ["pce csv header is wrong"]
    body = rows[1:]
    want = sum(len(c.x) for c in curves)
    if len(body) != want:
        return [f"pce csv has {len(body)} rows, want {want}"]
    errors = []
    z = oracle.Z_95
    i = 0
    for c in curves:
        scale_y = max(1e-300, float(np.max(np.abs(c.beta))))
        for x, beta, se in zip(c.x, c.beta, c.se):
            row = body[i]
            i += 1
            where = f"pce {c.covariate} [{c.label}] x={x:.6g}"
            if row[:3] != [c.covariate, c.label, c.scale]:
                errors.append(f"{where}: row starts {row[:3]}")
                continue
            got = [float(v) for v in row[3:]]
            # Means of predictions agree to summation rounding, far
            # below 1e-11 of the curve's scale.
            beta_q = Q(beta, 1e-11 * (1.0 + scale_y))
            band_err = beta_q.err + z * se.err
            checks = [("d", Q(c.d, 1e-12 * abs(c.d)), got[0]),
                      ("x", Q(x, 1e-12 * (1.0 + abs(x))), got[1]),
                      ("beta_hat", beta_q, got[2]), ("se", se, got[3]),
                      ("lo", Q(beta - z * se.value, band_err), got[4]),
                      ("hi", Q(beta + z * se.value, band_err), got[5])]
            for name, ref_q, value in checks:
                if not ref_q.admits(value, ROUND10):
                    errors.append(f"{where}: {name} {value!r} != "
                                  f"{ref_q.value!r} (err {ref_q.err:.2g})")
    return errors


def check_pce_svg(text: str, curves: list) -> list:
    """The plot parses as SVG and draws each curve once: a line through
    every grid point and a band polygon, or a marker for a single point."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"svg root is {root.tag}"]
    ns = "{http://www.w3.org/2000/svg}"
    count = {"polyline": [], "polygon": [], "circle": 0}
    for el in root.iter():
        tag = el.tag.replace(ns, "")
        if tag in ("polyline", "polygon"):
            count[tag].append(len(el.get("points", "").split()))
        elif tag == "circle":
            count["circle"] += 1
    errors = []
    for c in curves:
        n = len(c.x)
        if n == 1:
            continue
        if n not in count["polyline"]:
            errors.append(f"svg lacks a {n}-point line for [{c.label}]")
        if 2 * n not in count["polygon"]:
            errors.append(f"svg lacks a band for [{c.label}]")
    singles = sum(1 for c in curves if len(c.x) == 1)
    if count["circle"] != singles:
        errors.append(f"svg has {count['circle']} markers, want {singles}")
    for c in curves:
        if c.label and c.label not in text:
            errors.append(f"svg legend lacks {c.label!r}")
    return errors


# ---------------------------------------------------------------------------
# Width selection
# ---------------------------------------------------------------------------

def check_sweep(text: str, table_path, q_max: int, true_q: int,
                noise_sd: float) -> tuple:
    """(failed candidates, errors) for one ``statnn select`` table."""
    rows = list(csv.DictReader(io.StringIO(text)))
    errors = []
    if [int(r["q"]) for r in rows] != list(range(q_max + 1)):
        return q_max + 1, [f"sweep lists widths {[r['q'] for r in rows]}"]
    failed = [r for r in rows if r["error"] or r["bic"] == "NA"
              or r["cv_rmse"] == "NA"]
    ok = {int(r["q"]): r for r in rows if r not in failed}
    _, x, y = read_model_columns(table_path)
    y_std = (y - np.mean(y)) / np.std(y, ddof=1)
    # OLS via lstsq on the raw coding agrees with the program's pivoted QR
    # on standardized columns to ~1e-12 in the log-likelihood.
    want = Q(oracle.ols_bic(x, y_std), 1e-7)
    if 0 in ok and not want.admits(float(ok[0]["bic"]), ROUND10):
        errors.append(f"linear BIC {ok[0]['bic']} != {want.value:.10g}")
    if 0 in ok and true_q in ok and not (
            float(ok[true_q]["cv_rmse"]) < float(ok[0]["cv_rmse"])):
        errors.append(f"CV RMSE at q = {true_q} ({ok[true_q]['cv_rmse']}) "
                      f"does not beat the linear model ({ok[0]['cv_rmse']})")
    for q, r in ok.items():
        # A held-out RMSE well under the noise SD would mean leakage; with
        # 1,000 rows its sampling SD is about 1/sqrt(2000), 2.2% of the
        # noise SD, so 0.9 x the noise SD is 4.5 sampling SDs below it.
        if float(r["cv_rmse"]) < 0.9 * noise_sd:
            errors.append(f"CV RMSE at q = {q} is {r['cv_rmse']}, below "
                          f"0.9 x the noise SD {noise_sd}")
        if not (math.isfinite(float(r["bic"]))
                and float(r["cv_se"]) >= 0.0):
            errors.append(f"q = {q}: BIC or CV SE not finite")
    return len(failed), errors


# ---------------------------------------------------------------------------
# Monte Carlo study
# ---------------------------------------------------------------------------

def check_simulation(reports, truth, asym_se, null_j: int) -> list:
    """Pooled checks over whole rounds of ``run_scenario``.

    * every parameter's mean aligned estimate lies within ``MC_Z`` Monte
      Carlo SEs of the truth (the SE taken as the larger of the
      empirical and the asymptotic one), plus ``BIAS_ALLOW`` asymptotic
      SEs of one estimate;
    * every parameter's mean estimated SE is within ``SEE_BIAS +
      SEE_SPREAD / sqrt(N)`` of its asymptotic SE at the truth, relative;
    * the null covariate's grouped-test rejections are not improbably
      many for a 5% test: P(Binomial(N, 0.05) >= count) >= ``NULL_TAIL``.
    """
    k = np.array([r.n_total - r.n_fit_failed for r in reports], dtype=float)
    n = float(k.sum())
    means = np.array([r.mean_estimate for r in reports])
    emp = np.array([r.emp_se for r in reports])
    pooled = (k[:, None] * means).sum(axis=0) / n
    within = ((k[:, None] - 1.0) * emp ** 2).sum(axis=0)
    between = (k[:, None] * (means - pooled) ** 2).sum(axis=0)
    sd = np.sqrt((within + between) / (n - 1.0))
    limit = (MC_Z * np.maximum(sd, asym_se) / math.sqrt(n)
             + BIAS_ALLOW * asym_se)
    errors = []
    for i in np.flatnonzero(~(np.abs(pooled - truth) <= limit)):
        errors.append(f"parameter {i}: mean estimate {pooled[i]:.4g} is "
                      f"{abs(pooled[i] - truth[i]):.3g} from the truth "
                      f"{truth[i]:.4g} (limit {limit[i]:.3g})")
    n_pd = np.array([r.n_pd for r in reports], dtype=float)
    see = (n_pd[:, None] * np.array([r.see for r in reports])).sum(
        axis=0) / n_pd.sum()
    see_rtol = SEE_BIAS + SEE_SPREAD / math.sqrt(n_pd.sum())
    for i in np.flatnonzero(~(np.abs(see / asym_se - 1.0) <= see_rtol)):
        errors.append(f"parameter {i}: mean estimated SE {see[i]:.4g} "
                      f"vs asymptotic {asym_se[i]:.4g} (tolerance "
                      f"{see_rtol:.3g} relative)")
    total = sum(r.n_total for r in reports)
    rejections = int(round(sum(r.mp_rejection[null_j - 1] * r.n_total
                               for r in reports)))
    if scipy.stats.binom.sf(rejections - 1, total, 0.05) < NULL_TAIL:
        errors.append(f"null covariate {null_j} rejected {rejections} of "
                      f"{total} times at the 5% level")
    return errors
