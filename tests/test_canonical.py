"""Hidden-node symmetry group and canonical-representative tests."""

import math

import numpy as np
import pytest

from statnn.canonical import (align_to, all_symmetry_ops, apply_symmetry,
                              canonicalize, symmetry_matrix)
from statnn.likelihood import log_likelihood
from statnn.model import Architecture, Dataset, ParamVector, forward


def _random_theta(arch, seed, scale=1.5):
    rng = np.random.default_rng(seed)
    return ParamVector(arch, rng.uniform(-scale, scale, arch.r))


def test_group_size():
    for q in (1, 2, 3):
        assert sum(1 for _ in all_symmetry_ops(q)) == 2 ** q * math.factorial(q)


def test_symmetry_preserves_network_function():
    """Every group element leaves the fitted function unchanged."""
    arch = Architecture(p=2, q=3)
    theta = _random_theta(arch, 20)
    rng = np.random.default_rng(21)
    xs = rng.normal(size=(6, 2))
    base = [forward(theta, x) for x in xs]
    for op in all_symmetry_ops(3):
        image = apply_symmetry(theta, op)
        got = [forward(image, x) for x in xs]
        np.testing.assert_allclose(got, base, rtol=0, atol=1e-12)


def test_symmetry_preserves_loglik():
    arch = Architecture(p=2, q=2)
    theta = _random_theta(arch, 22)
    rng = np.random.default_rng(23)
    data = Dataset(x=rng.normal(size=(10, 2)), y=rng.normal(size=10))
    lam = 0.3
    base = log_likelihood(theta, data, lam, sigma_sq=1.0)
    for op in all_symmetry_ops(2):
        image = apply_symmetry(theta, op)
        got = log_likelihood(image, data, lam, sigma_sq=1.0)
        assert abs(got - base) <= 1e-12


def test_symmetry_matrix_matches_apply():
    """The r x r matrix form agrees with the direct parameter shuffle."""
    arch = Architecture(p=3, q=3)
    theta = _random_theta(arch, 24)
    for op in all_symmetry_ops(3):
        t = symmetry_matrix(arch, op)
        via_matrix = t @ theta.values
        direct = apply_symmetry(theta, op).values
        np.testing.assert_allclose(via_matrix, direct, rtol=0, atol=1e-12)


def test_symmetry_matrix_unimodular_and_flips_involutive():
    """Each op is an invertible map with |det| = 1; pure flips square to I.

    Flips are not orthogonal: negating a node's input weights rewrites
    gamma_0 <- gamma_0 + gamma_k alongside gamma_k <- -gamma_k (the
    logistic identity sigma(-x) = 1 - sigma(x)), a shear in the gamma
    block.  Applying the same flip twice restores everything.
    """
    arch = Architecture(p=2, q=3)
    identity = np.eye(arch.r)
    for op in all_symmetry_ops(3):
        t = symmetry_matrix(arch, op)
        assert abs(abs(np.linalg.det(t)) - 1.0) < 1e-10
        if op[1] == (1, 2, 3):  # pure flip
            np.testing.assert_allclose(t @ t, identity, atol=1e-15)


def test_identity_op():
    arch = Architecture(p=2, q=3)
    theta = _random_theta(arch, 25)
    identity = ((), (1, 2, 3))
    assert next(iter(all_symmetry_ops(3))) == identity
    np.testing.assert_array_equal(apply_symmetry(theta, identity).values,
                                  theta.values)
    np.testing.assert_array_equal(symmetry_matrix(arch, identity),
                                  np.eye(arch.r))


def test_op_validation():
    """An op that is not a symmetry of the width-q network is refused."""
    arch = Architecture(p=1, q=2)
    theta = _random_theta(arch, 26)
    for op in [((3,), (1, 2)),        # node 3 of 2
               ((0,), (1, 2)),        # nodes are numbered from 1
               ((1, 1), (1, 2)),      # a node flipped twice
               ((), (1, 1)),          # not a permutation
               ((), (0, 1)),
               ((), (1, 2, 3)),       # an op for q = 3
               ((), (1,))]:           # an op for q = 1
        with pytest.raises(ValueError, match="not a symmetry of 2 hidden"):
            apply_symmetry(theta, op)
        with pytest.raises(ValueError, match="not a symmetry of 2 hidden"):
            symmetry_matrix(arch, op)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_canonicalize_constant_on_orbit(q):
    """Every image of theta under the group canonicalizes identically."""
    arch = Architecture(p=2, q=q)
    theta = _random_theta(arch, 26 + q)
    reference = canonicalize(theta).values
    for op in all_symmetry_ops(q):
        image = apply_symmetry(theta, op)
        np.testing.assert_allclose(canonicalize(image).values, reference,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_canonicalize_idempotent(q):
    arch = Architecture(p=3, q=q)
    theta = _random_theta(arch, 30 + q)
    once = canonicalize(theta)
    twice = canonicalize(once)
    np.testing.assert_array_equal(twice.values, once.values)


def test_canonical_gamma_order():
    """Canonical form has nonnegative gamma sorted in decreasing order."""
    arch = Architecture(p=2, q=3)
    theta = _random_theta(arch, 34)
    rep = canonicalize(theta)
    gams = [rep.gamma(k) for k in range(1, 4)]
    assert all(g >= 0.0 for g in gams)
    assert gams == sorted(gams, reverse=True)


def test_canonical_zero_gamma_tiebreak():
    """With gamma_k = 0 the flip is decided by the omega column sign."""
    arch = Architecture(p=1, q=1)
    theta = (ParamVector.zeros(arch).with_omega(0, 1, -0.5)
             .with_omega(1, 1, -2.0))
    rep = canonicalize(theta)
    assert rep.omega(0, 1) == 0.5
    assert rep.omega(1, 1) == 2.0
    assert rep.gamma(1) == 0.0


def test_canonical_equal_gamma_ordered_by_omega_column():
    """Nodes with equal gamma_k are sorted by their omega columns,
    lexicographically, whatever their labels."""
    arch = Architecture(p=1, q=3)
    w = np.array([[0.5, 0.5, -0.2],
                  [1.0, -1.0, 3.0]])
    theta = ParamVector.from_parts(arch, w, np.array([0.3, 1.0, 1.0, 1.0]))
    want = ParamVector.from_parts(arch, w[:, [2, 1, 0]], theta.gamma_vector())
    for op in all_symmetry_ops(3):
        got = canonicalize(apply_symmetry(theta, op))
        np.testing.assert_allclose(got.values, want.values, rtol=0,
                                   atol=1e-15)
    assert canonicalize(theta).values.tobytes() == want.values.tobytes()


def test_canonical_zero_gamma_with_zero_column_is_not_flipped():
    """gamma_k = 0 with an all-zero omega column: no flip, no error.  A
    column that leads with zeros is flipped on its first nonzero entry."""
    arch = Architecture(p=2, q=2)
    w = np.array([[0.0, 0.0],
                  [0.0, 0.0],
                  [0.0, -2.0]])
    theta = ParamVector.from_parts(arch, w, np.array([0.7, 0.0, 0.0]))
    rep = canonicalize(theta)
    # tied at gamma = 0, the columns sort (0, 0, 0) < (0, 0, 2); a flip
    # would turn the zero node's +0.0 entries into -0.0
    zero_node = [rep.omega(j, 1) for j in range(3)] + [rep.gamma(1)]
    assert zero_node == [0.0] * 4 and not np.signbit(zero_node).any()
    assert [rep.omega(j, 2) for j in range(3)] == [0.0, 0.0, 2.0]
    assert rep.gamma(0) == 0.7


def test_align_recovers_scrambling_op():
    """align_to undoes an arbitrary symmetry op applied to the reference."""
    arch = Architecture(p=2, q=3)
    ref = _random_theta(arch, 35)
    for op in [((2,), (3, 1, 2)), ((1, 3), (2, 3, 1))]:
        scrambled = apply_symmetry(ref, op)
        aligned, t = align_to(scrambled, ref)
        np.testing.assert_allclose(aligned.values, ref.values, atol=1e-12)
        np.testing.assert_allclose(t @ scrambled.values, ref.values,
                                   atol=1e-12)



def _assert_align_matches_full_scan(theta_hat, ref):
    """Reference alignment: every op of the group, first strict winner;
    align_to's aligned theta and T must equal the winner's byte for byte."""
    best_op, best_d = None, np.inf
    for op in all_symmetry_ops(theta_hat.arch.q):
        d = apply_symmetry(theta_hat, op).values - ref.values
        dist = float(d @ d)
        if best_op is None or dist < best_d - 1e-15:
            best_op, best_d = op, dist
    aligned, t = align_to(theta_hat, ref)
    assert aligned.values.tobytes() == apply_symmetry(
        theta_hat, best_op).values.tobytes()
    assert t.tobytes() == symmetry_matrix(theta_hat.arch, best_op).tobytes()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_align_matches_full_group_scan(q):
    """The per-flip-set assignment finds the scan's op, both for an
    unrelated pair of vectors and for a noisy scrambled copy."""
    arch = Architecture(p=2, q=q)
    rng = np.random.default_rng(40 + q)
    ops = list(all_symmetry_ops(q))
    for case in range(8):
        ref = _random_theta(arch, 100 * q + case)
        if case % 2:
            hat = _random_theta(arch, 1000 + 100 * q + case)
        else:
            op = ops[rng.integers(len(ops))]
            hat = ParamVector(arch, apply_symmetry(ref, op).values
                              + rng.normal(scale=0.3, size=arch.r))
        _assert_align_matches_full_scan(hat, ref)


def test_align_matches_full_group_scan_at_width_six():
    arch = Architecture(p=1, q=6)
    ref = _random_theta(arch, 61)
    _assert_align_matches_full_scan(_random_theta(arch, 62), ref)


def test_align_transforms_covariance_consistently():
    arch = Architecture(p=1, q=2)
    ref = _random_theta(arch, 36)
    scrambled = apply_symmetry(ref, ((1,), (2, 1)))
    _, t = align_to(scrambled, ref)
    cov = np.diag(np.arange(1.0, arch.r + 1.0))
    moved = t @ cov @ t.T
    # T Sigma T^T keeps symmetry and generalized volume; the omega block
    # of T is a signed permutation so those variances are only relabeled.
    np.testing.assert_allclose(moved, moved.T, atol=0)
    assert np.linalg.det(moved) == pytest.approx(np.linalg.det(cov), rel=1e-9)
    n_omega = (arch.p + 1) * arch.q
    omega_diag = np.diag(moved)[:n_omega]
    np.testing.assert_allclose(sorted(omega_diag),
                               sorted(np.diag(cov)[:n_omega]), atol=1e-12)
