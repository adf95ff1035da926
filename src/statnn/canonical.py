"""Weight-space symmetries, canonical form, and reducibility diagnostics.

A single-hidden-layer network with logistic hidden activation has a
likelihood that is exactly invariant under two families of weight
transformations:

* sign flips: for any hidden node k, negate its incoming weights
  (omega_k -> -omega_k) and its outgoing weight (gamma_k -> -gamma_k),
  absorbing the constant into the output intercept
  (gamma_0 -> gamma_0 + gamma_k), using sigmoid(-s) = 1 - sigmoid(s);
* node permutations: relabel the hidden nodes, permuting the omega
  columns and the gamma entries together.

Together these form a group of 2^q * q! linear maps of the parameter
vector.  ``canonicalize`` picks one representative per orbit, which
makes fitted parameters comparable across runs, restarts, and the true
values of a simulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import Architecture, Dataset, ParamVector, design_with_intercept


@dataclass(frozen=True)
class SymmetryOp:
    """One element of the symmetry group for a width-q network.

    ``sign_flips`` lists the hidden nodes (1-based) whose weights are
    negated; ``permutation`` is a bijection on {1..q} read as "slot k of
    the result holds node permutation[k-1] of the input".  Flips are
    applied before the permutation, on the original node labels.
    """

    q: int
    sign_flips: frozenset
    permutation: tuple

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        if not all(1 <= k <= self.q for k in self.sign_flips):
            raise ValueError(f"sign_flips must be node indices in 1..{self.q}")
        if sorted(self.permutation) != list(range(1, self.q + 1)):
            raise ValueError(
                f"permutation must be a bijection on 1..{self.q}, "
                f"got {self.permutation}")

    @classmethod
    def identity(cls, q: int) -> "SymmetryOp":
        return cls(q=q, sign_flips=frozenset(), permutation=tuple(range(1, q + 1)))

    def is_identity(self) -> bool:
        return not self.sign_flips and self.permutation == tuple(range(1, self.q + 1))


def _flip_sets(q: int):
    """The 2^q sign-flip sets, by size and then lexicographically."""
    nodes = range(1, q + 1)
    for m in range(q + 1):
        for flips in itertools.combinations(nodes, m):
            yield frozenset(flips)


def all_symmetry_ops(q: int):
    """Iterate over the full group: 2^q * q! operations."""
    for fs in _flip_sets(q):
        for perm in itertools.permutations(range(1, q + 1)):
            yield SymmetryOp(q=q, sign_flips=fs, permutation=perm)


def _apply_op_raw(w: np.ndarray, g: np.ndarray, op: SymmetryOp):
    """Apply an op to an omega matrix and gamma vector (copies)."""
    w = w.copy()
    g = g.copy()
    for k in op.sign_flips:
        g[0] += g[k]
        g[k] = -g[k]
        w[:, k - 1] = -w[:, k - 1]
    src = [s - 1 for s in op.permutation]
    w = w[:, src]
    g[1:] = g[1:][src]
    return w, g


def apply_symmetry(theta: ParamVector, op: SymmetryOp) -> ParamVector:
    """Transformed parameter with identical input-output behaviour."""
    arch = theta.arch
    if op.q != arch.q:
        raise ValueError(f"op is for q={op.q}, parameter has q={arch.q}")
    w, g = _apply_op_raw(theta.omega_matrix(), theta.gamma_vector(), op)
    return ParamVector.from_parts(arch, w, g)


def symmetry_matrix(arch: Architecture, op: SymmetryOp) -> np.ndarray:
    """The op as an r x r matrix T with apply_symmetry(theta) = T theta.

    Every op is linear in theta (the gamma_0 update is a shear), so the
    matrix is the op applied to the r unit vectors at once, carried as a
    trailing axis of the omega matrix and gamma vector.
    """
    r = arch.r
    n_omega = (arch.p + 1) * arch.q
    eye = np.eye(r)
    tw, tg = _apply_op_raw(eye[:n_omega].reshape(arch.p + 1, arch.q, r),
                           eye[n_omega:], op)
    return np.concatenate([tw.reshape(n_omega, r), tg])


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def _canonical_flip_set(w: np.ndarray, g: np.ndarray) -> frozenset:
    """Nodes to flip so gamma_k >= 0, ties broken by the omega column."""
    flips = []
    q = w.shape[1]
    for k in range(1, q + 1):
        gk = g[k]
        if gk < 0.0:
            flips.append(k)
        elif gk == 0.0:
            col = w[:, k - 1]
            nz = np.nonzero(col)[0]
            if nz.size and col[nz[0]] < 0.0:
                flips.append(k)
    return frozenset(flips)


def canonical_op(theta: ParamVector) -> SymmetryOp:
    """The group element mapping ``theta`` to its canonical representative.

    Flip every node so its output weight is nonnegative (for gamma_k = 0
    the first nonzero entry of the omega column must be positive), then
    sort nodes by decreasing gamma_k, breaking ties lexicographically on
    the omega column.
    """
    q = theta.arch.q
    w = theta.omega_matrix()
    g = theta.gamma_vector()
    flips = _canonical_flip_set(w, g)
    wf, gf = _apply_op_raw(w, g, SymmetryOp(q=q, sign_flips=flips,
                                            permutation=tuple(range(1, q + 1))))
    order = sorted(range(q), key=lambda k: (-gf[k + 1], tuple(wf[:, k])))
    return SymmetryOp(q=q, sign_flips=flips,
                      permutation=tuple(k + 1 for k in order))


def canonicalize(theta: ParamVector) -> ParamVector:
    """Canonical representative of the symmetry orbit of ``theta``."""
    return apply_symmetry(theta, canonical_op(theta))


# ---------------------------------------------------------------------------
# Reducibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducibilityReport:
    """Advisory diagnosis of formally redundant hidden nodes.

    ``reasons`` is a tuple of (kind, nodes) pairs with kind one of
    "zero_gamma", "sign_equivalent_pair", "constant_net_input"; nodes
    are 1-based hidden-node indices.
    """

    reducible: bool
    reasons: tuple


def check_reducible(arch: Architecture, theta: ParamVector, data: Dataset,
                    tol: float = 1e-6) -> ReducibilityReport:
    """Detect hidden nodes that contribute no identifiable signal.

    Checks, each against ``tol``: an output weight at zero; two nodes
    whose net inputs agree up to sign on every observation; a node whose
    net input is constant across the data.  The verdict is advisory (no
    exception, no refusal to proceed).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    x1 = design_with_intercept(data.x)
    s = x1 @ theta.omega_matrix()
    g = theta.gamma_vector()
    reasons = []
    for k in range(1, arch.q + 1):
        if abs(g[k]) <= tol:
            reasons.append(("zero_gamma", (k,)))
    abs_s = np.abs(s)
    for k1 in range(1, arch.q + 1):
        for k2 in range(k1 + 1, arch.q + 1):
            if np.max(np.abs(abs_s[:, k1 - 1] - abs_s[:, k2 - 1])) <= tol:
                reasons.append(("sign_equivalent_pair", (k1, k2)))
    for k in range(1, arch.q + 1):
        col = s[:, k - 1]
        if np.max(np.abs(col - col.mean())) <= tol:
            reasons.append(("constant_net_input", (k,)))
    return ReducibilityReport(reducible=bool(reasons), reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# Alignment (used when comparing estimates to a reference parameter)
# ---------------------------------------------------------------------------

def align_to(theta_hat: ParamVector, theta_ref: ParamVector):
    """Symmetry image of ``theta_hat`` closest to ``theta_ref``.

    Finds the op minimizing the Euclidean distance
    ``||T theta_hat - theta_ref||`` and returns ``(aligned, op, t_matrix)``
    where ``t_matrix`` is the op as an r x r linear map (useful for
    transforming a covariance as T Sigma T^T alongside the point
    estimate).

    For a fixed flip set the new gamma_0 does not depend on the
    permutation, and the rest of the squared distance is a sum over
    hidden slots of the cost of moving node k into slot s.  So each
    flip set needs one linear assignment
    (``scipy.optimize.linear_sum_assignment``), 2^q solves in all
    instead of 2^q * q! op evaluations.  Flip sets are visited in
    ``all_symmetry_ops`` order and a later one replaces the best so far
    only when its distance is smaller by more than 1e-15.  Among
    permutations at exactly the same distance the assignment solver may
    pick a different one than a scan of the whole group in that order.
    """
    import scipy.optimize   # here, not at module load: serving never aligns

    arch = theta_hat.arch
    if arch.r != theta_ref.arch.r or arch.q != theta_ref.arch.q:
        raise ValueError("theta_hat and theta_ref have different architectures")
    q = arch.q
    identity = tuple(range(1, q + 1))
    w = theta_hat.omega_matrix()
    g = theta_hat.gamma_vector()
    ref_w = theta_ref.omega_matrix()
    ref_g = theta_ref.gamma_vector()
    best = None
    best_d = np.inf
    for flips in _flip_sets(q):
        fw, fg = _apply_op_raw(w, g, SymmetryOp(q=q, sign_flips=flips,
                                                permutation=identity))
        cost = (((fw[:, :, None] - ref_w[:, None, :]) ** 2).sum(axis=0)
                + (fg[1:, None] - ref_g[None, 1:]) ** 2)
        nodes, slots = scipy.optimize.linear_sum_assignment(cost)
        src = nodes[np.argsort(slots)]          # node moved into each slot
        d = np.concatenate([fw[:, src].ravel(), fg[:1], fg[1:][src]])
        d -= theta_ref.values
        dist = float(d @ d)
        if dist < best_d - 1e-15 or best is None:
            best_d = dist
            best = (flips, src)
    best_op = SymmetryOp(q=q, sign_flips=best[0],
                         permutation=tuple(int(k) + 1 for k in best[1]))
    aligned = apply_symmetry(theta_hat, best_op)
    return aligned, best_op, symmetry_matrix(arch, best_op)
