"""Network architecture, parameter-vector layout, and the forward map.

The model is a single-hidden-layer feedforward network

    NN(x, theta) = phi_o( gamma_0 + sum_k gamma_k * sigmoid( sum_j omega_jk x_j ) )

with x_0 = 1, input weights omega_jk for j = 0..p (j = 0 is the hidden
intercept), k = 1..q, and output weights gamma_0..gamma_q.  The response
family fixes the output activation phi_o, the inverse of its canonical
link: the identity for the Gaussian family, the logistic function for
the Bernoulli family.  The flat parameter vector is laid out as

    theta = (omega_0^T, omega_1^T, ..., omega_p^T, gamma^T)

where omega_j = (omega_j1, ..., omega_jq) and gamma = (gamma_0, ..., gamma_q),
giving r = (p + 2) q + 1 entries in total.  The ordering is part of the
serialization contract, and ``Architecture.split`` and ``join`` are its
one map between flat theta and (W, gamma), W[j, k-1] = omega_jk.

A ``ParamVector`` carries its ``Architecture``: every function that takes
theta reads p, q and the family from ``theta.arch``, and only functions
that have no theta yet (``fit``, ``initialize``) take an architecture.

``Architecture`` is the one reader of the family: both links are
canonical, so the score per row is y - mu and the weight -d2l/dz2 the
variance function V(mu) (McCullagh & Nelder 1989, ch. 2), and the
package asks it for ``mean``, ``variance``, ``sigma_profiled`` and
``check_response``; only the log-likelihoods live in ``likelihood``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError, ShapeError

#: Response families and the output activation a model file names.
FAMILIES = {"gaussian": "identity", "bernoulli": "logistic"}


def sigmoid(s, out=None):
    """Numerically stable logistic function, elementwise, written into
    ``out`` if given.

    With e = exp(-|s|) this is 1 / (1 + e) for s >= 0 and e / (1 + e)
    below, so large net inputs (which occur routinely during exploratory
    optimization) never overflow.  One exponential serves both branches,
    and since e <= 1 the numerator is max(e, [s >= 0]).  Besides the
    result, e is the only float buffer made.  ``out`` may be ``s`` itself:
    [s >= 0] is taken before the numerator overwrites s.
    """
    s = np.asarray(s, dtype=float)
    e = np.abs(s, out=np.empty(s.shape))
    np.negative(e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty(s.shape)
    np.maximum(e, s >= 0, out=out)
    e += 1.0
    np.divide(out, e, out=out)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class Architecture:
    """Network shape and response family: p covariates (excluding the
    intercept), q hidden nodes, ``family`` one of ``FAMILIES``."""

    p: int
    q: int
    family: str = "gaussian"

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {tuple(FAMILIES)}, "
                             f"got {self.family!r}")

    def mean(self, z, out=None):
        """The inverse link mu(z), returned; ``out`` (which may be z) is a
        buffer it may be written into, and the identity returns z."""
        return sigmoid(z, out=out) if self.family == "bernoulli" else z

    def variance(self, mu):
        """V(mu) = dmu/dz = -d2l/dz2, a new array; None where it is 1."""
        if self.family == "gaussian":
            return None
        v = 1.0 - mu
        v *= mu
        return v

    @property
    def sigma_profiled(self) -> bool:
        """Whether sigma^2 is profiled at RSS/n (and the link identity)."""
        return self.family == "gaussian"

    def check_response(self, data) -> None:
        """Refuse a response the family cannot model (Bernoulli: not 0/1)."""
        if self.family != "bernoulli":
            return
        bad = np.flatnonzero((data.y != 0.0) & (data.y != 1.0))
        if bad.size:
            raise DataError(
                f"response column {data.response_meta.name!r} must be 0/1 "
                f"for the bernoulli family: row {bad[0] + 1} holds "
                f"{float(data.y[bad[0]])!r}, outside {{0, 1}}")

    @property
    def r(self) -> int:
        """Total number of parameters, (p + 2) q + 1."""
        return (self.p + 2) * self.q + 1

    def check_covariates(self, data) -> None:
        """Refuse a ``Dataset`` whose covariate count is not p."""
        if data.p != self.p:
            raise ShapeError("covariate count", self.p, data.p)

    def omega_index(self, j: int, k: int) -> int:
        """Flat index of omega_jk, j in 0..p, k in 1..q."""
        if not 0 <= j <= self.p:
            raise IndexError(f"input index j must be in 0..{self.p}, got {j}")
        if not 1 <= k <= self.q:
            raise IndexError(f"hidden index k must be in 1..{self.q}, got {k}")
        return j * self.q + (k - 1)

    def covariate_block(self, j: int) -> slice:
        """Slice of theta holding omega_j1..omega_jq, j in 1..p."""
        if not 1 <= j <= self.p:
            raise IndexError(f"covariate index must be in 1..{self.p} "
                             f"(intercepts are not testable), got {j}")
        return slice(j * self.q, (j + 1) * self.q)

    def gamma_index(self, k: int) -> int:
        """Flat index of gamma_k, k in 0..q."""
        if not 0 <= k <= self.q:
            raise IndexError(f"output index k must be in 0..{self.q}, got {k}")
        return (self.p + 1) * self.q + k

    def split(self, values):
        """Views (W, gamma) of theta on the last axis of ``values``, W the
        (p + 1) x q matrix of omega_jk; leading axes ride along."""
        n_omega = (self.p + 1) * self.q
        return (values[..., :n_omega].reshape(
            values.shape[:-1] + (self.p + 1, self.q)), values[..., n_omega:])

    def join(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Flat theta from (W, gamma): ``split``'s inverse, a new array."""
        return np.concatenate((w.reshape(g.shape[:-1] + (-1,)), g), -1)

    def penalized_mask(self) -> np.ndarray:
        """Boolean mask over theta selecting the ridge-penalized entries.

        Excludes exactly the hidden intercepts omega_0k and the output
        intercept gamma_0.
        """
        mask = np.ones(self.r, dtype=bool)
        w, g = self.split(mask)
        w[0] = g[0] = False
        return mask


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat parameter vector with structured accessors."""

    arch: Architecture
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.arch.r,):
            raise ShapeError("parameter vector length", (self.arch.r,), values.shape)
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, arch: Architecture) -> "ParamVector":
        return cls(arch, np.zeros(arch.r))

    def omega(self, j: int, k: int) -> float:
        """Weight from input j (0 = intercept) to hidden node k."""
        return float(self.values[self.arch.omega_index(j, k)])

    def gamma(self, k: int) -> float:
        """Weight from hidden node k (0 = intercept) to the output."""
        return float(self.values[self.arch.gamma_index(k)])

    def with_omega(self, j: int, k: int, value: float) -> "ParamVector":
        v = self.values.copy()
        v[self.arch.omega_index(j, k)] = value
        return ParamVector(self.arch, v)

    def with_gamma(self, k: int, value: float) -> "ParamVector":
        v = self.values.copy()
        v[self.arch.gamma_index(k)] = value
        return ParamVector(self.arch, v)

    def omega_matrix(self) -> np.ndarray:
        """(p + 1) x q matrix W with W[j, k-1] = omega_jk (a fresh copy)."""
        return self.arch.split(self.values)[0].copy()

    def gamma_vector(self) -> np.ndarray:
        """Length-(q + 1) vector (gamma_0, ..., gamma_q) (a fresh copy)."""
        return self.arch.split(self.values)[1].copy()

    @classmethod
    def from_parts(cls, arch: Architecture, omega: np.ndarray,
                   gamma: np.ndarray) -> "ParamVector":
        """Assemble from the (p + 1) x q input-weight matrix and gamma vector."""
        omega = np.asarray(omega, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        if omega.shape != (arch.p + 1, arch.q):
            raise ShapeError("omega matrix shape", (arch.p + 1, arch.q), omega.shape)
        if gamma.shape != (arch.q + 1,):
            raise ShapeError("gamma vector length", (arch.q + 1,), gamma.shape)
        return cls(arch, arch.join(omega, gamma))


@dataclass(frozen=True)
class ColumnMeta:
    """How one model column is read from a CSV file, and its scale map.

    ``raw`` is the CSV column the values come from (``name`` unless
    given).  ``level`` is set only on a factor level's indicator: the
    column is 1 where the raw cell equals ``level`` and 0 elsewhere.
    Otherwise the raw cells are numbers.  ``mean`` and ``sd`` are the
    column's map from CSV to model units, ``to_model(v) = (v - mean) /
    sd``, inverted by ``to_original``: a standardized column's training
    mean and sd, else the identity (mean 0, sd 1), which a dummy must
    have.  An sd that is not finite and positive is refused.  Cross-
    validation re-estimates a map on each training fold unless it is the
    identity.
    """

    name: str
    kind: str = "continuous"
    mean: float = 0.0
    sd: float = 1.0
    raw: str | None = None
    level: str | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "dummy"):
            raise ValueError(f"column kind must be continuous or dummy, got {self.kind!r}")
        if self.level is not None and self.kind != "dummy":
            raise ValueError(f"column {self.name!r} has a level, so it must be a dummy column")
        got = f"mean {self.mean!r}, sd {self.sd!r}"
        if not (np.isfinite(self.mean) and np.isfinite(self.sd) and self.sd > 0.0):
            raise DataError(f"column {self.name!r} has an unusable scale map "
                            f"({got}): sd must be finite and positive")
        if self.kind == "dummy" and not self.identity:
            raise DataError(f"dummy column {self.name!r} must have mean 0 and sd 1, got {got}")
        if self.raw is None:
            object.__setattr__(self, "raw", self.name)

    @property
    def identity(self) -> bool:
        """True if model units are CSV units (mean 0, sd 1)."""
        return self.mean == 0.0 and self.sd == 1.0

    def to_model(self, v):
        """CSV units to model units."""
        return (v - self.mean) / self.sd

    def to_original(self, v):
        """Model units to CSV units."""
        return v * self.sd + self.mean


@dataclass(frozen=True)
class Dataset:
    """Design matrix (without the implicit intercept column) and response."""

    x: np.ndarray
    y: np.ndarray
    column_meta: tuple = ()
    response_meta: ColumnMeta = field(default_factory=lambda: ColumnMeta("y"))

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2:
            raise ShapeError("design matrix dimensions", 2, x.ndim)
        if y.shape != (x.shape[0],):
            raise ShapeError("response length", (x.shape[0],), y.shape)
        if x.shape[0] < 1:
            raise DataError("dataset must contain at least one observation")
        if not np.all(np.isfinite(x)):
            raise DataError("design matrix contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise DataError("response contains non-finite entries")
        meta = tuple(self.column_meta)
        if meta:
            if len(meta) != x.shape[1]:
                raise ShapeError("column metadata count", x.shape[1], len(meta))
        else:
            meta = tuple(ColumnMeta(f"x{j + 1}") for j in range(x.shape[1]))
        for j, cm in enumerate(meta):
            if cm.kind == "dummy":
                col = x[:, j]
                if not np.all((col == 0.0) | (col == 1.0)):
                    raise DataError(f"dummy column {cm.name!r} contains values outside {{0, 1}}")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "column_meta", meta)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column_index(self, name: str) -> int:
        """0-based column index for a model-column name."""
        for j, cm in enumerate(self.column_meta):
            if cm.name == name:
                return j
        raise KeyError(f"no model column named {name!r}")


def design_with_intercept(x: np.ndarray) -> np.ndarray:
    """Prepend the implicit column of ones."""
    x = np.asarray(x, dtype=float)
    return np.hstack([np.ones((x.shape[0], 1)), x])


def forward(theta: ParamVector, x) -> float:
    """Evaluate the network at a single covariate vector of length p."""
    x = np.asarray(x, dtype=float)
    p = theta.arch.p
    if x.shape != (p,):
        raise ShapeError("covariate vector length", (p,), x.shape)
    if not np.all(np.isfinite(x)):
        raise DataError("covariate vector contains non-finite entries")
    return float(forward_design(theta, design_with_intercept(x[None, :]))[0])


def forward_batch(theta: ParamVector, data: Dataset) -> np.ndarray:
    """Evaluate the network at every row of the dataset, preserving order."""
    theta.arch.check_covariates(data)
    return forward_design(theta, design_with_intercept(data.x))


def _activation_block(x1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The units-major (q + 1) x n block H for the (p + 1) x q input
    weights W: row 0 is ones, row k the hidden activations h_k."""
    hb = np.empty((w.shape[1] + 1, x1.shape[0]))
    hb[0] = 1.0
    sigmoid(w.T @ x1.T, out=hb[1:])
    return hb


def forward_design(theta: ParamVector, x1: np.ndarray) -> np.ndarray:
    """Forward pass over a design matrix that already carries the 1-column."""
    arch = theta.arch
    w, g = arch.split(theta.values)
    return arch.mean(g @ _activation_block(x1, w))
