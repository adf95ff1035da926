"""Weight-space symmetries, canonical form, and alignment to a reference.

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
vector.  An element is a plain pair ``(flips, src)`` in the package's
1-based node numbering, as in ``omega_index(j, k)`` and ``gamma_index(k)``:
``flips`` holds the distinct nodes whose signs flip, applied in
ascending order (so gamma_0 sums the flipped gamma_k in that order),
and then slot s of the result holds node ``src[s - 1]`` of the flipped
input.  ``canonicalize`` picks one representative per orbit, which
makes fitted parameters comparable across runs, restarts, and the true
values of a simulation.
"""

from __future__ import annotations

import itertools

import numpy as np

from .model import Architecture, ParamVector


def _apply(w: np.ndarray, g: np.ndarray, flips, src):
    """Flip, then permute, omega matrix w and gamma vector g (copies);
    leading axes ride along, as in ``Architecture.split``."""
    w, g = w.copy(), g.copy()
    for k in flips:
        g[..., 0] += g[..., k]
        g[..., k] = -g[..., k]
        w[..., k - 1] = -w[..., k - 1]
    idx = [s - 1 for s in src]
    w = w[..., idx]
    g[..., 1:] = g[..., 1:][..., idx]
    return w, g


def _checked(q: int, op) -> tuple:
    """``op`` with its flips ascending; a ValueError unless it is a
    symmetry of the width-q network."""
    flips, src, nodes = sorted(op[0]), tuple(op[1]), range(1, q + 1)
    if flips != sorted(set(flips) & set(nodes)) or sorted(src) != [*nodes]:
        raise ValueError(f"{op!r} is not a symmetry of {q} hidden nodes: "
                         f"flips must be distinct nodes in 1..{q} and src "
                         "a permutation of them")
    return flips, src


def _flip_sets(q: int):
    """The 2^q sign-flip sets, by size and then lexicographically."""
    for m in range(q + 1):
        yield from itertools.combinations(range(1, q + 1), m)


def all_symmetry_ops(q: int):
    """Iterate over the full group: 2^q * q! ``(flips, src)`` pairs."""
    for flips in _flip_sets(q):
        for src in itertools.permutations(range(1, q + 1)):
            yield flips, src


def apply_symmetry(theta: ParamVector, op) -> ParamVector:
    """Transformed parameter with identical input-output behaviour."""
    arch = theta.arch
    w, g = _apply(*arch.split(theta.values), *_checked(arch.q, op))
    return ParamVector(arch, arch.join(w, g))


def symmetry_matrix(arch: Architecture, op) -> np.ndarray:
    """The op as an r x r matrix T with apply_symmetry(theta) = T theta.

    Every op is linear in theta (the gamma_0 update is a shear), so the
    matrix is the op applied to the r unit vectors at once, as rows of
    the identity: image i is column i of T.
    """
    images = arch.join(*_apply(*arch.split(np.eye(arch.r)),
                               *_checked(arch.q, op)))
    return np.ascontiguousarray(images.T)


def canonicalize(theta: ParamVector) -> ParamVector:
    """Canonical representative of the symmetry orbit of ``theta``.

    Flip every node so its output weight is nonnegative (for gamma_k = 0
    the first nonzero entry of the omega column must be positive; an
    all-zero column stays), then sort nodes by decreasing gamma_k,
    breaking ties lexicographically on the omega column.
    """
    nodes = range(1, theta.arch.q + 1)
    w, g = theta.arch.split(theta.values)
    flips = [k for k in nodes if g[k] < 0.0 or g[k] == 0.0
             and (w[:, k - 1][w[:, k - 1] != 0.0][:1] < 0.0).any()]
    w, g = _apply(w, g, flips, nodes)
    src = sorted(nodes, key=lambda k: (-g[k], tuple(w[:, k - 1])))
    w, g = _apply(w, g, (), src)
    return ParamVector.from_parts(theta.arch, w, g)


def align_to(theta_hat: ParamVector, theta_ref: ParamVector):
    """Symmetry image of ``theta_hat`` closest to ``theta_ref``.

    Finds the op minimizing the Euclidean distance ``||T theta_hat -
    theta_ref||`` and returns ``(aligned, T)``, T the op as an r x r
    matrix (to move a covariance as T Sigma T^T with the estimate).

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
    nodes = range(1, arch.q + 1)
    w, g = arch.split(theta_hat.values)
    ref_w, ref_g = theta_ref.arch.split(theta_ref.values)
    best, best_d = None, np.inf
    for flips in _flip_sets(arch.q):
        fw, fg = _apply(w, g, flips, nodes)
        cost = (((fw[:, :, None] - ref_w[:, None, :]) ** 2).sum(axis=0)
                + (fg[1:, None] - ref_g[None, 1:]) ** 2)
        ks, slots = scipy.optimize.linear_sum_assignment(cost)
        # the node moved into each slot
        src = [int(k) + 1 for k in ks[np.argsort(slots)]]
        image = arch.join(*_apply(fw, fg, (), src))
        d = image - theta_ref.values
        dist = float(d @ d)
        if dist < best_d - 1e-15 or best is None:
            best, best_d = (image, (flips, src)), dist
    return ParamVector(arch, best[0]), symmetry_matrix(arch, best[1])
