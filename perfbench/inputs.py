"""Seeded inputs: mixed-type CSV tables drawn from a known network.

Every table has the same eight raw columns:

* ``x1``..``x5``: continuous, standard normals mapped to unequal means
  and scales (so the program's standardization matters);
* ``flag``: a 0/1 indicator (P(1) = 0.4), passed through as a dummy;
* ``grp``: a three-level factor ``a``/``b``/``c`` (P = 0.4/0.35/0.25);
  the first row is always ``a`` so ``a`` is the reference level and the
  model columns are ``grp.b`` and ``grp.c``;
* ``y``: the response.

That gives p = 8 model columns.  The true network acts on the latent
standard normals z1..z5, ``flag`` and the two ``grp`` dummies; x4 has no
effect at all.  Width 2 uses the first two hidden units, width 3 adds a
third on z5, ``flag`` and ``grp.b``.  Gaussian tables add
N(0, NOISE_SD^2) noise; Bernoulli tables draw y = 1 with probability
sigmoid(2 (f - 3)).
"""

from __future__ import annotations

import csv

import numpy as np

RAW_MEAN = np.array([50.0, -3.0, 1.0, 100.0, 0.0])
RAW_SCALE = np.array([10.0, 2.0, 0.5, 30.0, 1.0])

#: Rows z1..z5, flag, grp.b, grp.c; columns the hidden units.
TRUE_W = np.array([
    [2.5, 0.3, 0.0],
    [0.4, -2.2, 0.0],
    [-0.8, 1.8, 0.0],
    [0.0, 0.0, 0.0],
    [0.6, 0.5, -1.5],
    [1.0, 0.0, 0.8],
    [0.0, -1.0, 0.9],
    [-0.8, 0.7, 0.0],
])
TRUE_W0 = np.array([0.4, -0.3, 0.2])
#: Output intercept, then one output weight per hidden unit.
TRUE_GAMMA = np.array([1.0, 4.0, -3.5, 3.0])

#: Generating noise SD of the Gaussian response, in raw units.
NOISE_SD = 0.5

COLUMNS = ("x1", "x2", "x3", "x4", "x5", "flag", "grp", "y")


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on ``parts``."""
    state = np.random.SeedSequence([int(v) for v in parts]).generate_state(
        2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def _sigmoid(s):
    return 0.5 * (1.0 + np.tanh(0.5 * s))


def write_table(path, rows: int, seed: int, family: str = "gaussian",
                width: int = 2):
    """Write one mixed-type CSV drawn from the first ``width`` hidden
    units; the same arguments give the same bytes."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, 5))
    flag = (rng.random(rows) < 0.4).astype(int)
    grp = rng.choice(np.array(["a", "b", "c"]), rows, p=[0.4, 0.35, 0.25])
    grp[0] = "a"
    features = np.column_stack([z, flag, grp == "b", grp == "c"]).astype(float)
    hidden = _sigmoid(TRUE_W0[:width] + features @ TRUE_W[:, :width])
    f = TRUE_GAMMA[0] + hidden @ TRUE_GAMMA[1:width + 1]
    if family == "gaussian":
        y = [f"{v:.6f}" for v in f + NOISE_SD * rng.standard_normal(rows)]
    else:
        y = [str(int(v)) for v in rng.random(rows) < _sigmoid(2.0 * (f - 3.0))]
    raw = z * RAW_SCALE + RAW_MEAN
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for i in range(rows):
            writer.writerow([*(f"{v:.6f}" for v in raw[i]), flag[i], grp[i],
                             y[i]])


def read_model_columns(path):
    """Independent reading of a table as raw model columns.

    Returns (names, x, y): continuous columns as written, ``flag`` as 0/1
    and ``grp`` as the ``grp.b``/``grp.c`` indicators, unstandardized.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cells = list(reader)
    col = {name: [row[i] for row in cells] for i, name in enumerate(header)}
    x = [np.array(col[f"x{k}"], dtype=float) for k in range(1, 6)]
    x.append(np.array(col["flag"], dtype=float))
    grp = np.array(col["grp"])
    x.append((grp == "b").astype(float))
    x.append((grp == "c").astype(float))
    names = ("x1", "x2", "x3", "x4", "x5", "flag", "grp.b", "grp.c")
    return names, np.column_stack(x), np.array(col["y"], dtype=float)
