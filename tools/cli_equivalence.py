"""Record the ``statnn`` command line's outputs for one source tree, and
compare two recordings.

    python3 tools/cli_equivalence.py record SRC OUT
    python3 tools/cli_equivalence.py compare A B

``record`` writes seeded tables with ``perfbench/inputs.write_table``
(a Gaussian one and a Bernoulli one), then runs a fixed list of
``statnn`` commands on them, each as its own ``python -m statnn.cli``
process with ``PYTHONPATH=SRC`` and one BLAS thread, inside OUT.  Each
command leaves the files it writes in OUT, plus ``<label>.log`` with its
exit code, stdout and stderr (SRC itself is written as ``<src>``).  Last
come the refusals, bad inputs which exit 2: the bad models are copies of
the Gaussian model with JSON fields edited (a model whose theta or
lambda was edited no longer matches its stored fit), the bad tables
copies of its table with one cell replaced or dropped, or cut to one
row, a schema whose ``columns`` is a list, and a summary of the
Gaussian model on the Bernoulli table, which is not its training
data.  The commands import
nothing from the package and patch nothing, so the same list runs
unchanged against any two versions of it, across API changes.

Last, ``record`` writes the library outputs that no command reaches to
``library/`` in OUT, as hex-float text (one array row per line), with
``library.log``: ``forward_batch``, ``prediction_gradient``,
``gradient``, ``log_likelihood`` and ``observed_information`` at a given
sigma^2 on both stored models; ``fit`` on both stored tables at q = 1, 2
and 3 with 3 restarts (theta-hat, ``restart_logliks`` and
``restart_iterations``);
and ``align_to``'s (aligned, T) at q = 3 and 4.  One ``PYTHONPATH=SRC``
process (``LIBRARY_SCRIPT``) computes them by calling only public
functions.  Unlike the commands,
this part needs the same public signatures on both sides: where one
changed, ``library.log`` shows the error and ``compare`` reports its
files missing.

``compare`` lists every file of either recording as ``byte-identical``,
``JSON-equal`` (a ``.json`` file whose bytes differ but whose parsed
values, floats included, are equal), ``different`` or missing on one
side.  A different ``.json`` or ``.csv`` file also gets the largest
relative difference between numbers at the same position, or
``structure differs`` when anything else differs: keys, lengths, text
cells.  It exits 1 if any file is different or missing, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCENARIOS = {
    "cell.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                  "n": 200, "replicates": 4, "restarts": 2, "seed": 0},
    "power.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                   "n": 100, "replicates": 4, "restarts": 1, "seed": 0,
                   "effect": [0.0, 0.5]},
    # Unpenalized at n = 60 and 90 some replicates have no positive
    # definite covariance.
    "pd.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                "n": [60, 90], "lambda": [0.0, 0.01], "replicates": 10,
                "restarts": 2, "seed": 7},
    "badnoise.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                      "n": 50, "replicates": 2, "restarts": 1,
                      "noise_sd": float("inf")},
    "badlam.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                    "n": 50, "replicates": 2, "restarts": 1,
                    "lambda": float("nan")},
    # No default truth for q = 3.
    "q3.json": {"format_version": 1, "q": 3, "nz_pattern": "5-1", "n": 50,
                "replicates": 2, "restarts": 1},
    # q = 4: alignment searches a group of 384 ops, not 8.
    "cell4.json": {"format_version": 1, "q": 4, "nz_pattern": "3-3",
                   "n": 200, "replicates": 3, "restarts": 2, "seed": 0},
    # 10 restarts, so a study's fits can stop before the cap
    # (fit.RESTART_CONFIRMATIONS).
    "cell10.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                    "n": 200, "replicates": 4, "restarts": 10, "seed": 0},
    # 17 weights for p = 6, q = 2; json.dumps writes the last as Infinity.
    "inftruth.json": {"format_version": 1, "q": 2, "nz_pattern": "5-1",
                      "n": 50, "replicates": 2, "restarts": 1,
                      "true_theta": [0.5] * 16 + [float("inf")]},
}


def _family_commands(tag: str, family: str) -> list:
    """Fit, query and sweep commands on table ``<tag>.csv``."""
    table, model = f"{tag}.csv", f"{tag}_model.json"
    fam = ["--family", family]
    return [
        (f"{tag}_fit", ["fit", table, "--response", "y", "--q", "2",
                        "--restarts", "2", "--seed", "0", "--out", model]
         + fam),
        (f"{tag}_summary_text", ["summary", model, table]),
        (f"{tag}_summary_json", ["summary", model, table, "--format",
                                 "json", "--out", f"{tag}_summary.json"]),
        (f"{tag}_summary_csv", ["summary", model, table, "--format", "csv",
                                "--out", f"{tag}_summary.csv"]),
        (f"{tag}_pce_by", ["pce", model, table, "--covariate", "x1", "--by",
                           "grp.b", "--grid-points", "21",
                           "--out", f"{tag}_pce_by.csv",
                           "--svg", f"{tag}_pce_by.svg"]),
        # 301 x rows x q > 2^16 values: the curve runs in several chunks.
        (f"{tag}_pce_fine", ["pce", model, table, "--covariate", "x1",
                             "--grid-points", "301",
                             "--out", f"{tag}_pce_fine.csv"]),
        (f"{tag}_pce_original", ["pce", model, table, "--covariate", "x2",
                                 "--original-scale", "--grid-points", "21",
                                 "--out", f"{tag}_pce_original.csv"]),
        (f"{tag}_pce_dummy", ["pce", model, table, "--covariate", "flag",
                              "--by", "x1", "--original-scale",
                              "--linear-reference",
                              "--out", f"{tag}_pce_dummy.csv",
                              "--svg", f"{tag}_pce_dummy.svg"]),
        (f"{tag}_diagram", ["diagram", model, table,
                            "--out", f"{tag}_net.dot"]),
        (f"{tag}_select", ["select", table, "--response", "y", "--q-max",
                           "2" if family == "gaussian" else "1",
                           "--folds", "3", "--restarts", "2",
                           "--out", f"{tag}_sweep.csv",
                           "--svg", f"{tag}_sweep.svg"] + fam),
    ]


COMMANDS = (
    _family_commands("g", "gaussian")
    + _family_commands("b", "bernoulli")
    + [("g3_fit", ["fit", "g.csv", "--response", "y", "--q", "3",
                   "--restarts", "2", "--seed", "0",
                   "--out", "g3_model.json"]),
       ("g3_summary_text", ["summary", "g3_model.json", "g.csv"]),
       # 10 restarts: a fit outside a simulation study runs every one.
       ("g10_fit", ["fit", "g.csv", "--response", "y", "--q", "2",
                    "--restarts", "10", "--seed", "0",
                    "--out", "g10_model.json"]),
       ("simulate_cell", ["simulate", "cell.json", "--out-dir", "cell"]),
       ("simulate_cell10", ["simulate", "cell10.json",
                            "--out-dir", "cell10"]),
       ("simulate_cell4", ["simulate", "cell4.json", "--out-dir", "cell4"]),
       ("simulate_power", ["simulate", "power.json", "--out-dir", "power"]),
       ("simulate_pd", ["simulate", "pd.json", "--out-dir", "pd"])])


def _node2(model: dict, copy: bool) -> list:
    """The model's theta with hidden node 2 a copy of node 1, or all zero.

    For q = 2, omega_j2 sits right after omega_j1 (j = 0..p) and gamma_2
    right after gamma_1, at (p + 1) q + 1."""
    p, q, theta = model["p"], model["q"], list(model["theta"])
    for i in [j * q + 1 for j in range(p + 1)] + [(p + 1) * q + 2]:
        theta[i] = theta[i - 1] if copy else 0.0
    return theta


def _corrupt_models(model: dict) -> dict:
    """Copies of the Gaussian model with fields replaced, for REFUSALS."""
    return {
        "tanh_model.json": {"hidden_activation": "tanh"},
        "relu_model.json": {"output_activation": "relu"},
        "nullact_model.json": {"output_activation": None},
        "neglam_model.json": {"lambda": -1.0},
        # Edited after fitting.  Stored by a fit at these values, the
        # first would have a covariance that is not positive definite
        # and the second an exactly singular information.
        "dup_model.json": {"theta": _node2(model, copy=True)},
        "dead_model.json": {"theta": _node2(model, copy=False),
                            "lambda": 0.0},
        "nudged_model.json": {"theta": [model["theta"][0] + 1e-9]
                              + model["theta"][1:]},
    }


#: Bad inputs, each of which should exit 2 with a message.
REFUSALS = [
    ("select_linear_nan", ["select", "g.csv", "--response", "y", "--q-list",
                           "0", "--no-cv", "--lambda", "nan"]),
    ("fit_inf", ["fit", "g.csv", "--response", "y", "--q", "1",
                 "--lambda", "inf", "--out", "inf_model.json"]),
    ("summary_tanh", ["summary", "tanh_model.json", "g.csv"]),
    ("summary_relu", ["summary", "relu_model.json", "g.csv"]),
    ("summary_nullact", ["summary", "nullact_model.json", "g.csv"]),
    ("summary_neglam", ["summary", "neglam_model.json", "g.csv"]),
    ("simulate_badnoise", ["simulate", "badnoise.json",
                           "--out-dir", "badnoise"]),
    ("simulate_badlam", ["simulate", "badlam.json", "--out-dir", "badlam"]),
    ("simulate_q3", ["simulate", "q3.json", "--out-dir", "q3"]),
    ("simulate_inftruth", ["simulate", "inftruth.json",
                           "--out-dir", "inftruth"]),
    ("summary_dup", ["summary", "dup_model.json", "g.csv"]),
    ("diagram_dup", ["diagram", "dup_model.json", "g.csv"]),
    ("pce_dup", ["pce", "dup_model.json", "g.csv", "--covariate", "x1"]),
    ("summary_dead", ["summary", "dead_model.json", "g.csv"]),
    ("summary_nudged", ["summary", "nudged_model.json", "g.csv"]),
    # not the model's training data
    ("summary_other_table", ["summary", "g_model.json", "b.csv"]),
    ("summary_na", ["summary", "g_model.json", "g_na.csv"]),
    ("summary_inf", ["summary", "g_model.json", "g_inf.csv"]),
    ("summary_ragged", ["summary", "g_model.json", "g_ragged.csv"]),
    ("summary_bigfield", ["summary", "g_model.json", "g_bigfield.csv"]),
    ("select_folds_over_n", ["select", "three.csv", "--response", "y",
                             "--q-max", "1", "--folds", "5"]),
    ("select_one_fold", ["select", "three.csv", "--response", "y",
                         "--q-max", "1", "--folds", "1"]),
    ("select_negative_width", ["select", "g.csv", "--response", "y",
                               "--q-list", "2,-1", "--folds", "3",
                               "--restarts", "2"]),
    ("fit_schema_list", ["fit", "g.csv", "--response", "y", "--q", "1",
                         "--schema", "listschema.json",
                         "--out", "listschema_model.json"]),
    # one row: the conditioning covariate has no spread to pin it by
    ("pce_by_one_row", ["pce", "g_model.json", "g_one.csv", "--covariate",
                        "flag", "--by", "x3"]),
    ("fit_response_only", ["fit", "yonly.csv", "--response", "y", "--q",
                           "1", "--out", "yonly_model.json"]),
    # a response that is not 0/1, and a Bernoulli sweep of the linear
    # baseline alone
    ("fit_bernoulli_nonbinary", ["fit", "g.csv", "--response", "y", "--q",
                                 "1", "--family", "bernoulli",
                                 "--out", "gb_model.json"]),
    ("select_bernoulli_nonbinary", ["select", "g.csv", "--response", "y",
                                    "--family", "bernoulli"]),
    ("select_bernoulli_width0", ["select", "b.csv", "--response", "y",
                                 "--family", "bernoulli", "--q-list", "0"]),
]

#: Small files for REFUSALS: three rows, the response alone, and a
#: schema whose ``columns`` is not an object.
SMALL_FILES = {"three.csv": "x,y\n1.0,2.0\n2.0,1.5\n3.5,4.0\n",
               "yonly.csv": "y\n1.0\n2.0\n4.0\n",
               "listschema.json": '{"columns": ["x1"]}\n'}


def _bad_tables(lines: list) -> dict:
    """Copies of the Gaussian table's lines (header first) with one cell
    of one data row replaced or dropped, or with one data row, for
    REFUSALS."""
    header = lines[0].rstrip("\n").split(",")

    def edited(row: int, column: str, cell: str | None) -> str:
        cells = lines[row].rstrip("\n").split(",")
        i = header.index(column)
        cells[i:i + 1] = [] if cell is None else [cell]
        return "".join(lines[:row] + [",".join(cells) + "\n"]
                       + lines[row + 1:])

    return {
        "g_na.csv": edited(3, "x2", "NA"),
        "g_inf.csv": edited(4, "x2", "inf"),
        "g_ragged.csv": edited(5, "flag", None),
        # over the csv module's field limit of 131,072 characters
        "g_bigfield.csv": edited(6, "grp", "z" * 140_000),
        "g_one.csv": "".join(lines[:2]),
    }


#: Run as ``python -c LIBRARY_SCRIPT OUT`` with ``PYTHONPATH=SRC``;
#: public functions only.
LIBRARY_SCRIPT = r"""
import os
import sys

import numpy as np

from statnn.canonical import align_to, apply_symmetry
from statnn.fit import FitConfig, fit
from statnn.likelihood import (gradient, log_likelihood,
                               observed_information, prediction_gradient)
from statnn.model import Architecture, ParamVector, forward_batch
from statnn.preprocess import dataset_from_meta
from statnn.serialize import load_model

out = os.path.join(sys.argv[1], "library")
os.makedirs(out)


def write(name, array):
    rows = np.atleast_2d(np.asarray(array, dtype=float))
    with open(os.path.join(out, name + ".txt"), "w") as fh:
        for row in rows:
            fh.write(" ".join(float(v).hex() for v in row) + "\n")


for tag, sigma_sq in (("g", 0.8), ("b", None)):
    doc = load_model(os.path.join(sys.argv[1], f"{tag}_model.json"))
    data = dataset_from_meta(os.path.join(sys.argv[1], f"{tag}.csv"),
                             doc.column_meta, doc.response_meta)
    theta = doc.theta
    write(f"{tag}_forward_batch", forward_batch(theta, data))
    write(f"{tag}_prediction_gradient", prediction_gradient(theta, data.x))
    write(f"{tag}_gradient", gradient(theta, data, 0.03, sigma_sq))
    write(f"{tag}_log_likelihood",
          log_likelihood(theta, data, 0.03, sigma_sq))
    write(f"{tag}_observed_information",
          observed_information(theta, data, sigma_sq))
    # at q = 1 a forward product on a contiguous transposed design is a
    # gemv, not a gemm, so a layout change there shows in the bits
    for q in (1, 2, 3):
        res = fit(Architecture(data.p, q, theta.arch.family), data, 0.01,
                  FitConfig(n_restarts=3, seed=q))
        write(f"{tag}_fit_q{q}_theta", res.theta_hat.values)
        write(f"{tag}_fit_q{q}_restart_logliks", res.restart_logliks)
        write(f"{tag}_fit_q{q}_restart_iterations", res.restart_iterations)

rng = np.random.default_rng(20)
for p, q in ((3, 3), (2, 4)):
    arch = Architecture(p, q)
    for case in range(4):
        ref = ParamVector(arch, rng.normal(size=arch.r))
        flips = tuple(k for k in range(1, q + 1) if rng.random() < 0.5)
        src = tuple(int(k) + 1 for k in rng.permutation(q))
        moved = apply_symmetry(ref, (flips, src)).values
        theta = ParamVector(arch, moved + rng.normal(scale=0.3,
                                                     size=arch.r))
        aligned, t = align_to(theta, ref)
        write(f"align_q{q}_{case}", aligned.values)
        write(f"align_q{q}_{case}_T", t)
"""


def _write_inputs(out: Path):
    sys.path.insert(0, str(PERFBENCH))
    from inputs import write_table

    write_table(out / "g.csv", 300, 7)
    write_table(out / "b.csv", 400, 5, "bernoulli")
    with open(out / "g.csv", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    for name, text in _bad_tables(lines).items():
        (out / name).write_text(text, encoding="utf-8", newline="")
    for name, text in SMALL_FILES.items():
        (out / name).write_text(text, encoding="utf-8")
    for name, payload in SCENARIOS.items():
        (out / name).write_text(json.dumps(payload), encoding="utf-8")


def _run(src: str, out: Path, commands, python_args=("-m", "statnn.cli")):
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    for label, argv in commands:
        proc = subprocess.run([sys.executable, *python_args, *argv],
                              cwd=out, env=env, capture_output=True,
                              text=True)
        log = (f"exit: {proc.returncode}\n--- stdout\n{proc.stdout}"
               f"--- stderr\n{proc.stderr}").replace(src, "<src>")
        (out / f"{label}.log").write_text(log, encoding="utf-8")
        print(f"{label}: exit {proc.returncode}")


def record(src: str, out: str) -> int:
    src = str(Path(src).resolve())
    out = Path(out).resolve()     # the library process runs inside OUT
    out.mkdir(parents=True, exist_ok=False)
    _write_inputs(out)
    _run(src, out, COMMANDS)
    model = json.loads((out / "g_model.json").read_text(encoding="utf-8"))
    for name, changes in _corrupt_models(model).items():
        (out / name).write_text(json.dumps({**model, **changes}),
                                encoding="utf-8")
    _run(src, out, REFUSALS)
    _run(src, out, [("library", [str(out)])], ("-c", LIBRARY_SCRIPT))
    return 0


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix()
            for p in root.rglob("*") if p.is_file()}


def _parse(path: Path):
    """A .json file's values, a .csv file's rows of cells (numbers where
    a cell parses as one), else None."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".csv":
        rows = []
        for row in csv.reader(io.StringIO(text)):
            cells = []
            for cell in row:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
            rows.append(cells)
        return rows
    return None


def _max_rel(left, right) -> float | None:
    """Largest relative difference between numbers at the same position
    of two parsed files; None if anything else differs."""
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return None
        pairs = [(left[k], right[k]) for k in left]
    elif isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return None
        pairs = list(zip(left, right))
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (left, right)):
        if left == right or (math.isnan(left) and math.isnan(right)):
            return 0.0
        if not (math.isfinite(left) and math.isfinite(right)):
            return math.inf
        return abs(left - right) / max(abs(left), abs(right))
    else:
        return 0.0 if left == right else None
    worst = 0.0
    for a, b in pairs:
        rel = _max_rel(a, b)
        if rel is None:
            return None
        worst = max(worst, rel)
    return worst


def _verdict(a: Path, b: Path) -> tuple:
    """(verdict, detail) for one file of both recordings."""
    left, right = a.read_bytes(), b.read_bytes()
    if left == right:
        return "byte-identical", ""
    try:
        parsed = _parse(a), _parse(b)
    except (UnicodeDecodeError, ValueError):
        return "different", ""
    if a.suffix == ".json" and parsed[0] == parsed[1]:
        return "JSON-equal", ""
    if parsed[0] is None:
        return "different", ""
    rel = _max_rel(*parsed)
    return "different", (" (structure differs)" if rel is None
                         else f" (max rel {rel:.1e})")


def compare(a: str, b: str) -> int:
    a, b = Path(a), Path(b)
    left, right = _files(a), _files(b)
    bad = 0
    for name in sorted(left | right):
        detail = ""
        if name not in right:
            verdict = f"only in {a}"
        elif name not in left:
            verdict = f"only in {b}"
        else:
            verdict, detail = _verdict(a / name, b / name)
        bad += verdict not in ("byte-identical", "JSON-equal")
        print(f"{verdict:15} {name}{detail}")
    print(f"{len(left | right)} files, {bad} different or missing")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in ("record", "compare"):
        print(__doc__, file=sys.stderr)
        return 2
    return (record if argv[0] == "record" else compare)(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main())
