"""Weighted singular values and block operator norms, and the theta bridge.

`eigensolve.singular_values` takes the singular values of an operator in the
inner product of a Gram matrix, and the operator norm of a block-diagonal
operator in the mass inner product is the largest block norm, which an
`eigensolve.BlockMax` reducer keeps as the solve hands over each block
(`blocks.block_operator_norms` takes it from blocks held at once). The
largest singular value is cross-checked against a hand-rolled power
iteration on A^* A in the weighted inner product, which never forms the
orthonormal-frame conjugation that the package uses, and every dense
reference is `oracles.weighted_operator_norm`.
"""

import numpy as np
import pytest

import blocks
import oracles
from blocks import apply_function, block_operator_norms
from zetasphere.discretize import build_basis, masses
from zetasphere.eigensolve import BlockMax, block_function, family_eigvals, singular_values
from zetasphere.errors import DomainError
from zetasphere.heatzeta import theta_values
from zetasphere.metrics import fs_metric, parse_metric_spec, pnorm_metric

N_INSTANCES = 25


def random_instance(rng, n=9):
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    return A, B.T @ B + n * np.eye(n)


def test_identity_gram_matches_plain_svd():
    rng = np.random.default_rng(20260818)
    for _ in range(N_INSTANCES):
        A = rng.standard_normal((7, 7))
        sv = singular_values(A, np.eye(7))
        ref = np.linalg.svd(A, compute_uv=False)
        assert np.abs(sv - ref).max() < 1e-12


def test_singular_values_descending_and_norms():
    rng = np.random.default_rng(1)
    for _ in range(N_INSTANCES):
        A, G = random_instance(rng)
        sv = singular_values(A, G)
        assert np.all(np.diff(sv) <= 1e-12 * sv[0])
        assert sv[0] == pytest.approx(oracles.weighted_operator_norm(A, G), rel=1e-12)
        assert sv.sum() >= sv[0]


def test_trace_dominated_by_singular_value_sum():
    rng = np.random.default_rng(2)
    for _ in range(N_INSTANCES):
        A, G = random_instance(rng)
        assert abs(np.trace(A)) <= singular_values(A, G).sum() + 1e-10


def test_hoelder_inequality():
    """||A T B||_1 <= ||A|| ||T||_1 ||B||, all in one weighted frame."""
    rng = np.random.default_rng(3)
    for _ in range(N_INSTANCES):
        A, G = random_instance(rng)
        T = rng.standard_normal(A.shape)
        B = rng.standard_normal(A.shape)
        lhs = singular_values(A @ T @ B, G).sum()
        rhs = singular_values(A, G)[0] * singular_values(T, G).sum() * singular_values(B, G)[0]
        assert lhs <= rhs * (1.0 + 1e-12)


def test_largest_singular_value_vs_power_iteration():
    rng = np.random.default_rng(5)
    for seed in range(8):
        A, G = random_instance(rng)
        got = singular_values(A, G)[0]
        ref = oracles.power_iteration_sigma(A, G, seed=seed)
        assert got == pytest.approx(ref, rel=1e-4)


def test_rank_one_singular_values():
    rng = np.random.default_rng(6)
    _, G = random_instance(rng)
    u = rng.standard_normal(9)
    v = rng.standard_normal(9)
    sv = singular_values(np.outer(u, v), G)
    assert sv[0] > 0.0
    assert sv[1:].max() < 1e-12 * sv[0]
    assert sv.sum() == pytest.approx(sv[0], rel=1e-12)


def test_singular_values_broadcast_stack_is_each_matrix_alone():
    """A (2, K, n, n) stack against K Gram matrices, as the sweep passes both
    operator columns against one Cholesky factor per pair, maps each matrix
    bitwise as it would be alone."""
    rng = np.random.default_rng(7)
    pairs = [random_instance(rng) for _ in range(6)]
    grams = np.stack([G for _, G in pairs[:3]])
    stack = np.stack([A for A, _ in pairs]).reshape(2, 3, 9, 9)
    got = singular_values(stack, grams)
    for i, k in np.ndindex(2, 3):
        np.testing.assert_array_equal(got[i, k], singular_values(stack[i, k], grams[k]))


def test_singular_values_rejects_indefinite_gram():
    G = np.eye(4)
    G[2, 2] = -1.0
    with pytest.raises(DomainError, match="not positive definite"):
        singular_values(np.eye(4), G)


def test_theta_bridge():
    """The trace norm of the kernel-projected heat operator equals theta(t).

    Per azimuthal block, each in its own M_m inner product: block 0 with the
    kernel vector projected out, and every m >= 1 block for its cos and sin
    copies.
    """
    basis = build_basis(7)
    (spec,) = blocks.solve_stacks(masses(basis, (pnorm_metric(3.0),)), 7, ("pnorm:3",))
    M = spec.mass_blocks
    v0 = spec.block_vectors[0][:, 0]
    P0 = np.eye(M[0].shape[0]) - np.outer(v0, v0 @ M[0])
    for t in (0.3, 1.0, 2.5):
        E = apply_function(spec, lambda lam: np.exp(-t * lam))
        got = singular_values(P0 @ E[0], M[0]).sum() + sum(
            2.0 * singular_values(E_m, M_m).sum() for E_m, M_m in zip(E[1:], M[1:])
        )
        want = theta_values(spec.eigenvalues, np.array([t]))[0]
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, want))


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_block_norm_matches_dense_norm(spec):
    """Block norm of a resolvent (and heat operator) difference between two
    metrics against the dense weighted norm of the difference placed by the
    oracle's scatter, and against the dense-pencil oracle, to 1e-12 relative.
    Each norm is taken alone, as a stack of one operator; stacked together,
    in either order, the two differences get bitwise the same norms."""
    basis = build_basis(12)
    a, b = blocks.solve_stacks(
        masses(basis, (parse_metric_spec(spec), pnorm_metric(2.0))), 12, (spec, "pnorm:2")
    )
    K = oracles.exact_stiffness_blocks(12)
    ref = tuple(M for (M,) in masses(basis, (fs_metric(),)))
    gram_dense = oracles.dense_matrix(ref)
    diffs, alone = [], []
    for f in (lambda lam: 1.0 / (1.0 + lam), lambda lam: np.exp(-lam)):
        op_a, op_b = apply_function(a, f), apply_function(b, f)
        diffs.append([x - y for x, y in zip(op_a, op_b)])
        (got,) = block_operator_norms([A[None] for A in diffs[-1]], ref)
        alone.append(got)
        dense = oracles.weighted_operator_norm(
            oracles.dense_matrix(op_a) - oracles.dense_matrix(op_b), gram_dense
        )
        diff = (
            oracles.dense_pencil_function(K, a.mass_blocks, f)
            - oracles.dense_pencil_function(K, b.mass_blocks, f)
        )
        want = oracles.weighted_operator_norm(diff, gram_dense)
        assert got > 0.0
        assert got == pytest.approx(dense, rel=1e-12)
        assert got == pytest.approx(want, rel=1e-12)
    for order in ((0, 1), (1, 0)):
        stacked = block_operator_norms(
            [np.stack([blocks[k] for k in order]) for blocks in zip(*diffs)], ref
        )
        assert stacked.tolist() == [alone[k] for k in order], order


def test_block_max_reducer_is_the_largest_block_norm():
    """A `BlockMax` reducer that takes each block's norms as the solve hands
    it over ends, bitwise, at the norms `block_operator_norms` takes from the
    same blocks held at once: the heat-operator difference of two metrics,
    and each operator alone."""
    metrics = (parse_metric_spec("max"), pnorm_metric(2.0))
    stacks = list(masses(build_basis(12), metrics))

    def heat(lam):
        return np.exp(-0.5 * lam)

    def norms(m, M, lam, V):
        E = block_function(lam, V, M, heat)
        return singular_values(np.concatenate([E[:1] - E[1:], E]), M[[0, 0, 1]])[:, 0]

    reduce = BlockMax(norms)
    family_eigvals(stacks, 12, [g.id for g in metrics], reduce)
    a, b = blocks.solve_stacks(stacks, 12, [g.id for g in metrics])
    E_a, E_b = apply_function(a, heat), apply_function(b, heat)
    want = block_operator_norms(
        [np.stack((x - y, x, y)) for x, y in zip(E_a, E_b)],
        [np.stack((M_a, M_a, M_b)) for M_a, M_b in zip(a.mass_blocks, b.mass_blocks)],
    )
    assert reduce.value.tolist() == want.tolist()
    assert reduce.value[0] > 0.0
