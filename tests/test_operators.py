"""Weighted trace-ideal utilities: norms, bounds, and the theta bridge.

The largest singular value is cross-checked against a hand-rolled power
iteration on A^* A in the weighted inner product, which never forms the
orthonormal-frame conjugation that the library uses.
"""

import numpy as np
import pytest

import oracles
from zetasphere.discretize import assemble, build_basis, mass
from zetasphere.eigensolve import apply_function, generalized_eigs, resolvent
from zetasphere.errors import DomainError
from zetasphere.heatzeta import heat_operator, theta
from zetasphere.metrics import fs_metric, parse_metric_spec, pnorm_metric
from zetasphere.operators import (
    InnerProduct,
    block_operator_norm,
    equivalence_bounds,
    lidskii_defect,
    operator_norm,
    singular_values,
    trace_norm,
)

N_INSTANCES = 25


def random_instance(rng, n=9):
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    G = B.T @ B + n * np.eye(n)
    return A, InnerProduct.from_gram(G)


def test_identity_gram_matches_plain_svd():
    rng = np.random.default_rng(20260818)
    ip = InnerProduct.from_gram(np.eye(7))
    for _ in range(N_INSTANCES):
        A = rng.standard_normal((7, 7))
        sv = singular_values(A, ip)
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.abs(sv - ref).max() < 1e-12


def test_singular_values_descending_and_norms():
    rng = np.random.default_rng(1)
    for _ in range(N_INSTANCES):
        A, ip = random_instance(rng)
        sv = singular_values(A, ip)
        assert np.all(np.diff(sv) <= 1e-12 * sv[0])
        assert trace_norm(A, ip) == pytest.approx(sv.sum(), rel=1e-14)
        assert operator_norm(A, ip) == pytest.approx(sv[0], rel=1e-14)
        assert trace_norm(A, ip) >= operator_norm(A, ip) - 1e-14


def test_trace_dominated_by_trace_norm():
    rng = np.random.default_rng(2)
    for _ in range(N_INSTANCES):
        A, ip = random_instance(rng)
        assert abs(np.trace(A)) <= trace_norm(A, ip) + 1e-10


def test_hoelder_inequality():
    """trace_norm(A T B) <= op(A) trace_norm(T) op(B), all in one frame."""
    rng = np.random.default_rng(3)
    for _ in range(N_INSTANCES):
        A, ip = random_instance(rng)
        T = rng.standard_normal(A.shape)
        B = rng.standard_normal(A.shape)
        lhs = trace_norm(A @ T @ B, ip)
        rhs = operator_norm(A, ip) * trace_norm(T, ip) * operator_norm(B, ip)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_lidskii_defect_small():
    rng = np.random.default_rng(4)
    for _ in range(N_INSTANCES):
        A, ip = random_instance(rng)
        assert lidskii_defect(A) <= 1e-10 * max(1.0, trace_norm(A, ip))


def test_largest_singular_value_vs_power_iteration():
    rng = np.random.default_rng(5)
    for seed in range(8):
        A, ip = random_instance(rng)
        got = operator_norm(A, ip)
        ref = oracles.power_iteration_sigma(A, ip.gram, seed=seed)
        assert got == pytest.approx(ref, rel=1e-4)


def test_rank_one_singular_values():
    rng = np.random.default_rng(6)
    A, ip = random_instance(rng)
    u = rng.standard_normal(9)
    v = rng.standard_normal(9)
    sv = singular_values(np.outer(u, v), ip)
    assert sv[0] > 0.0
    assert sv[1:].max() < 1e-12 * sv[0]
    assert trace_norm(np.outer(u, v), ip) == pytest.approx(sv[0], rel=1e-12)


def test_from_gram_rejects_indefinite():
    G = np.eye(4)
    G[2, 2] = -1.0
    with pytest.raises(DomainError):
        InnerProduct.from_gram(G)


def test_norm_method():
    ip = InnerProduct.from_gram(np.diag([4.0, 9.0]))
    assert ip.norm(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert ip.norm(np.array([0.0, 1.0])) == pytest.approx(3.0)


def test_equivalence_exact_scaling():
    """ip2 = c * ip1 leaves every weighted norm unchanged: ratio exactly 1."""
    rng = np.random.default_rng(7)
    A, ip1 = random_instance(rng)
    for c in (0.25, 3.0):
        ip2 = InnerProduct.from_gram(c * ip1.gram)
        rep = equivalence_bounds(A, ip1, ip2)
        assert rep.kappa_min == pytest.approx(c, rel=1e-12)
        assert rep.kappa_max == pytest.approx(c, rel=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.lower <= 1.0 <= rep.upper
        assert rep.consistent


def test_equivalence_bounds_hold_under_perturbation():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A, ip1 = random_instance(rng)
        n = ip1.gram.shape[0]
        S = rng.standard_normal((n, n))
        S = 0.005 * (S + S.T) / 2.0
        ip2 = InnerProduct.from_gram(
            ip1.factor.T @ (np.eye(n) + S) @ ip1.factor
        )
        rep = equivalence_bounds(A, ip1, ip2)
        assert rep.consistent
        assert 0.97 <= rep.ratio <= 1.03
        assert rep.lower <= rep.ratio <= rep.upper


def test_equivalence_rejects_indefinite_pencil():
    rng = np.random.default_rng(9)
    A, ip1 = random_instance(rng)
    bad = InnerProduct(np.diag([1.0] * 8 + [-1.0]), np.eye(9))
    with pytest.raises(DomainError):
        equivalence_bounds(A, ip1, bad)


def test_theta_bridge():
    """trace_norm of the kernel-projected heat operator equals theta(t).

    Per azimuthal block, each in its own M_m inner product: block 0 with the
    kernel vector projected out, and every m >= 1 block for its cos and sin
    copies.
    """
    basis = build_basis(7)
    spec = generalized_eigs(assemble(basis, pnorm_metric(3.0)))
    M = spec.pair.mass_blocks
    ips = [InnerProduct.from_gram(M_m) for M_m in M]
    v0 = spec.block_vectors[0][:, 0]
    P0 = np.eye(M[0].shape[0]) - np.outer(v0, v0 @ M[0])
    for t in (0.3, 1.0, 2.5):
        E = apply_function(spec, lambda lam: np.exp(-t * lam))
        got = trace_norm(P0 @ E[0], ips[0]) + sum(
            2.0 * trace_norm(E_m, ip) for E_m, ip in zip(E[1:], ips[1:])
        )
        want = theta(spec.eigenvalues, t)
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, want))


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_block_norm_matches_dense_norm(spec):
    """Block norm of a resolvent (and heat operator) difference between two
    metrics against the dense weighted norm of the difference placed by the
    oracle's scatter, and against the dense-pencil oracle, to 1e-12 relative."""
    basis = build_basis(12)
    a = generalized_eigs(assemble(basis, parse_metric_spec(spec)))
    b = generalized_eigs(assemble(basis, pnorm_metric(2.0)))
    ref = mass(basis, fs_metric())
    ips = [InnerProduct.from_gram(M) for M in ref]
    ip_dense = InnerProduct.from_gram(oracles.dense_matrix(ref))
    for ops, f in (
        (resolvent, lambda lam: 1.0 / (1.0 + lam)),
        (lambda s: heat_operator(s, 1.0), lambda lam: np.exp(-lam)),
    ):
        got = block_operator_norm([x - y for x, y in zip(ops(a), ops(b))], ips)
        dense = operator_norm(
            oracles.dense_matrix(ops(a)) - oracles.dense_matrix(ops(b)), ip_dense
        )
        diff = (
            oracles.dense_pencil_function(a.pair.stiffness_blocks, a.pair.mass_blocks, f)
            - oracles.dense_pencil_function(b.pair.stiffness_blocks, b.pair.mass_blocks, f)
        )
        want = oracles.weighted_operator_norm(diff, oracles.dense_matrix(ref))
        assert got > 0.0
        assert got == pytest.approx(dense, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-12)
