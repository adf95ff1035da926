"""The three workloads: Monte Carlo study, width selection, model queries.

Each workload is a closed loop of one caller: it calls an entry point,
waits for the result, then calls the next.  A workload object offers

* ``setup()``: prepare the inputs and anything the program must build
  before the first request (timed as ``setup_s``);
* ``run(i)``: round ``i``, a fixed list of calls, each timed alone and
  returned as :class:`Call` records; the inputs of a round depend only
  on the workload seed and ``i``;
* ``check()``: compare every output kept so far with the references of
  :mod:`checks`, returning a list of errors.

Calls go through module attributes (``statnn.cli.main``,
``statnn.simgen.run_scenario``) at call time, so an installed tracer
sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass, replace

import statnn.cli
import statnn.simgen
from statnn.serialize import load_scenario, save_scenario

import checks
import oracle
from inputs import NOISE_SD, derive_seed, write_table


@dataclass(frozen=True)
class Call:
    """One timed call into an entry point and the operations it made."""

    seconds: float
    attempted: int
    failed: int


def call_cli(argv):
    """Run ``statnn`` in process; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = statnn.cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue()


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateSize:
    n: int = 1000
    replicates: int = 12
    restarts: int = 10


class Simulate:
    """``run_scenario`` on the headline cell: q = 2, pattern "5-1",
    n = 1000, lambda = 0.01, 10 restarts; one call of 12 replicates per
    round."""

    trace_rounds = 2

    def __init__(self, seed: int, work: str, size: SimulateSize):
        self.seed = seed
        self.work = work
        self.size = size
        self.scenario = None
        self.reports = {}          # round -> SimReport; a rerun replaces it

    def setup(self):
        """Write and read back the scenario file, as ``statnn simulate``
        would."""
        wanted = statnn.simgen.SimScenario(
            q=2, nz_pattern="5-1", n=self.size.n, lam=0.01,
            replicates=self.size.replicates, restarts=self.size.restarts,
            seed=derive_seed(self.seed, 1, 0))
        path = os.path.join(self.work, "scenario.json")
        save_scenario(wanted, path)
        self.scenario = load_scenario(path)
        if self.scenario != wanted:
            raise RuntimeError("scenario file does not round-trip")

    def run(self, i: int):
        scenario = replace(self.scenario, seed=derive_seed(self.seed, 1, i))
        start = time.perf_counter()
        report = statnn.simgen.run_scenario(scenario, n_jobs=1)
        seconds = time.perf_counter() - start
        self.reports[i] = report
        not_pd = report.n_total - report.n_fit_failed - report.n_pd
        return [Call(seconds, report.n_total, report.n_fit_failed + not_pd)]

    def check(self):
        return self.check_reports(list(self.reports.values()))

    def check_reports(self, reports):
        truth = reports[0].true_values
        asym = oracle.asymptotic_se(oracle.Net(p=6, q=2), truth, self.size.n,
                                    0.01, 1.0)
        return checks.check_simulation(reports, truth, asym, null_j=1)


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectSize:
    rows: int = 1000
    q_max: int = 3
    folds: int = 5
    restarts: int = 4


class Select:
    """``statnn select`` over q = 0..3 with 5-fold CV on a fresh mixed
    table per round, drawn from a width-2 network."""

    trace_rounds = 1

    def __init__(self, seed: int, work: str, size: SelectSize):
        self.seed = seed
        self.work = work
        self.size = size
        self.errors = []

    def _table(self, i: int) -> str:
        return os.path.join(self.work, f"select-{i}.csv")

    def setup(self):
        write_table(self._table(0), self.size.rows,
                    derive_seed(self.seed, 2, 0))

    def run(self, i: int):
        table = self._table(i)
        if not os.path.exists(table):
            write_table(table, self.size.rows, derive_seed(self.seed, 2, i))
        out = os.path.join(self.work, f"select-{i}.out.csv")
        code, seconds, err = call_cli([
            "select", table, "--response", "y",
            "--q-max", str(self.size.q_max), "--folds", str(self.size.folds),
            "--restarts", str(self.size.restarts), "--seed", str(i),
            "--out", out])
        candidates = self.size.q_max + 1
        if code != 0:
            return [Call(seconds, candidates, candidates)]
        try:
            failed, errors = checks.check_sweep(_read(out), table,
                                                self.size.q_max, 2, NOISE_SD)
        except (KeyError, ValueError) as exc:
            failed, errors = 0, [f"malformed sweep table: {exc!r}"]
        self.errors.extend(f"round {i}: {e}" for e in errors)
        return [Call(seconds, candidates, failed)]

    def check(self):
        return list(self.errors)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeSize:
    rows: int = 1500
    large_rows: int = 10_000
    restarts: int = 2


#: name -> (table, q, family)
MODELS = {
    "g2": ("gauss", 2, "gaussian"),
    "g3": ("gauss", 3, "gaussian"),
    "b2": ("bern", 2, "bernoulli"),
    "L2": ("large", 2, "gaussian"),
}

#: The fixed query cycle: (command, model, extra arguments).  Nine fast
#: queries on 1,500-row tables (summaries, diagrams, dummy effects at
#: one point), two on the 10,000-row table, two 101-point curves and
#: two conditioned 2 x 101-point curves, so the median latency lies
#: inside the fast cluster.
QUERIES = (
    ("summary", "g2", ("--format", "text")),
    ("summary", "g3", ("--format", "json")),
    ("summary", "b2", ("--format", "csv")),
    ("diagram", "g3", ()),
    ("pce", "g3", ("--covariate", "flag", "--svg")),
    ("summary", "g2", ("--format", "json")),
    ("diagram", "b2", ()),
    ("pce", "g2", ("--covariate", "grp.b", "--by", "flag")),
    ("summary", "g3", ("--format", "csv")),
    ("summary", "L2", ("--format", "json")),
    ("pce", "L2", ("--covariate", "flag")),
    ("pce", "g2", ("--covariate", "x1")),
    ("pce", "b2", ("--covariate", "x1", "--original-scale")),
    ("pce", "g3", ("--covariate", "x2", "--by", "x3")),
    ("pce", "g2", ("--covariate", "x3", "--by", "x1", "--svg")),
)


def _flag(args, name):
    return args[args.index(name) + 1] if name in args else None


class Serve:
    """The query cycle against models fitted at set-up."""

    trace_rounds = 3

    def __init__(self, seed: int, work: str, size: ServeSize):
        self.seed = seed
        self.work = work
        self.size = size
        self.first_models = None
        self.outputs = {}          # query index -> (text, svg text)
        self.errors = []

    def _path(self, name):
        return os.path.join(self.work, name)

    def table_of(self, model):
        return self._path(f"{MODELS[model][0]}.csv")

    def setup(self):
        """Write the tables and fit the stored models through the CLI."""
        # The q = 3 model is fitted to a width-3 table: on width-2 data
        # its third unit is nearly redundant, the information can be
        # indefinite and the queries on it then fail for some seeds.
        tables = {"gauss": (self.size.rows, "gaussian", 3),
                  "bern": (self.size.rows, "bernoulli", 2),
                  "large": (self.size.large_rows, "gaussian", 2)}
        for tag, (name, (rows, family, width)) in enumerate(tables.items()):
            write_table(self._path(f"{name}.csv"), rows,
                        derive_seed(self.seed, 3, tag), family, width)
        for name, (_, q, family) in MODELS.items():
            code, _, err = call_cli([
                "fit", self.table_of(name), "--response", "y", "--q", str(q),
                "--family", family, "--restarts", str(self.size.restarts),
                "--seed", "0", "--out", self._path(f"{name}.json")])
            if code != 0:
                raise RuntimeError(f"fitting stored model {name} failed: "
                                   f"{err.strip()}")
        models = {n: _read(self._path(f"{n}.json")) for n in MODELS}
        if self.first_models is None:
            self.first_models = models
        elif models != self.first_models:
            self.errors.append("refitting a stored model gave different bytes")

    def argv(self, index):
        command, model, args = QUERIES[index]
        argv = [command, self._path(f"{model}.json"), self.table_of(model)]
        argv += [a for a in args if a != "--svg"]
        if "--svg" in args:
            argv += ["--svg", self._path(f"q{index}.svg")]
        return argv + ["--out", self._path(f"q{index}.out")]

    def run(self, i: int):
        calls = []
        for index in range(len(QUERIES)):
            code, seconds, err = call_cli(self.argv(index))
            calls.append(Call(seconds, 1, int(code != 0)))
            if code != 0:
                self.errors.append(f"query {index} exited {code}: "
                                   f"{err.strip()}")
                continue
            svg = (_read(self._path(f"q{index}.svg"))
                   if "--svg" in QUERIES[index][2] else None)
            got = (_read(self._path(f"q{index}.out")), svg)
            first = self.outputs.setdefault(index, got)
            if got != first:
                self.errors.append(f"query {index} output changed in round "
                                   f"{i}")
        return calls

    @staticmethod
    def _check_query(index, text, svg, refs, summaries):
        command, model, args = QUERIES[index]
        if command == "summary":
            check = {"text": checks.check_summary_text,
                     "json": checks.check_summary_json,
                     "csv": checks.check_summary_csv}[_flag(args, "--format")]
            return check(text, summaries[model])
        if command == "diagram":
            return checks.check_diagram(text, summaries[model])
        curves = checks.pce_reference(
            refs[model], _flag(args, "--covariate"), _flag(args, "--by"),
            "--original-scale" in args)
        found = checks.check_pce_csv(text, curves)
        if svg is not None:
            found += checks.check_pce_svg(svg, curves)
        return found

    def check(self):
        errors = list(self.errors)
        refs = {}
        for name in MODELS:
            refs[name] = checks.model_reference(self._path(f"{name}.json"),
                                                self.table_of(name))
            errors += [f"{name}: {e}" for e in checks.check_standardization(
                refs[name], self.table_of(name))]
        summaries = {n: checks.summary_reference(r) for n, r in refs.items()}
        for index, (text, svg) in sorted(self.outputs.items()):
            command, model, _ = QUERIES[index]
            try:
                found = self._check_query(index, text, svg, refs, summaries)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                found = [f"malformed output: {exc!r}"]
            errors += [f"query {index} ({command} {model}): {e}"
                       for e in found]
        return errors


WORKLOADS = {
    "simulate": (Simulate, SimulateSize()),
    "select": (Select, SelectSize()),
    "serve": (Serve, ServeSize()),
}
