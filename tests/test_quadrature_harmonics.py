"""Quadrature rule and normalized-harmonic table checks.

The per-m Legendre blocks are compared against scipy's associated Legendre
functions with the normalization written out explicitly and, bitwise,
against the dense three-table recurrence (tests/oracles.py),
whose theta-derivative table feeds the reference stiffness and is checked
here by stencil; the rule's polynomial exactness is checked against
closed-form monomial integrals. The Gauss-Legendre rule itself is checked
against 40-digit mpmath Newton (tests/oracles.py).
"""

import math

import numpy as np
import pytest
from scipy.special import lpmv, roots_legendre

import oracles
from zetasphere.errors import DomainError
from zetasphere.harmonics import legendre_blocks
from zetasphere.quadrature import build_quadrature, gauss_legendre


@pytest.fixture(scope="module")
def quad():
    return build_quadrature(12)


def test_weights_normalization(quad):
    """wx integrates dx over [-1, 1]; the halved weights are a probability."""
    assert quad.wx.sum() == pytest.approx(2.0, abs=1e-14)
    assert quad.weights_theta.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(quad.wx > 0.0)


def test_nodes_ascending_and_interior(quad):
    assert np.all(np.diff(quad.x) > 0.0)
    assert np.all(np.abs(quad.x) < 1.0)
    # two panels of n_theta nodes split at the equator x = 0
    assert quad.x.size == 2 * quad.n_theta
    assert np.sum(quad.x < 0.0) == quad.n_theta
    assert np.sum(quad.x > 0.0) == quad.n_theta


def test_radii_map(quad):
    """r = tan(theta/2) against x = cos(theta), checked both ways."""
    r = quad.radii_theta
    assert np.allclose((1.0 - r * r) / (1.0 + r * r), quad.x, atol=1e-14)
    # equator maps to r = 1: nodes straddle it, none sits on it
    assert np.all((r < 1.0) == (quad.x > 0.0))


def test_monomial_exactness():
    """Each panel is Gauss-Legendre, so x^k is exact for k <= 2n-1."""
    quad = build_quadrature(5)
    for k in range(10):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = float(np.sum(quad.wx * quad.x**k))
        assert got == pytest.approx(exact, abs=1e-14), k


def test_kinked_integrand_split():
    """The panel split at x = 0 keeps |x| spectrally integrable."""
    quad = build_quadrature(24)
    got = float(np.sum(quad.wx * np.abs(quad.x)))
    assert got == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 8, 16, 20, 32, 34, 50, 66, 98, 258])
def test_gauss_legendre_matches_mpmath(n):
    """Nodes to 2e-16 absolute and weights to 1e-12 relative against the
    40-digit rule; numpy's companion-matrix leggauss misses the weight bound
    from n = 66 on (3.4e-12 there, 1.4e-10 at n = 258)."""
    x, w = gauss_legendre(n)
    x_ref, w_ref = oracles.gauss_legendre(n)
    assert np.max(np.abs(x - x_ref)) <= 2e-16
    assert np.max(np.abs(w - w_ref) / w_ref) <= 1e-12


def test_gauss_legendre_is_cached_read_only_and_symmetric():
    x, w = gauss_legendre(7)
    assert gauss_legendre(7)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1]) and x[3] == 0.0
    assert np.array_equal(w, w[::-1])
    with pytest.raises(DomainError):
        gauss_legendre(0)


def test_build_quadrature_validation():
    with pytest.raises(DomainError):
        build_quadrature(0)


def test_legendre_against_scipy():
    """pbar_{lm} = (-1)^m sqrt((2l+1)(l-m)!/(l+m)!) P_l^m with scipy's P_l^m."""
    x = np.array([-0.83, -0.31, 0.02, 0.47, 0.9])
    L = 6
    pbar = list(legendre_blocks(L, x))
    for m in range(L + 1):
        assert pbar[m].shape == (L + 1 - m, x.size)
        for ell in range(m, L + 1):
            norm = math.sqrt(
                (2 * ell + 1) * math.factorial(ell - m) / math.factorial(ell + m)
            )
            ref = (-1.0) ** m * norm * lpmv(m, ell, x)
            assert np.allclose(pbar[m][ell - m], ref, atol=1e-12), (ell, m)


def test_legendre_orthonormality_independent_rule():
    """Rows are orthogonal with squared norm 2 under a plain 200-node rule."""
    x, w = roots_legendre(200)
    L = 10
    for m, P in enumerate(legendre_blocks(L, x)):
        G = (P * w[None, :]) @ P.T
        assert np.allclose(G, 2.0 * np.eye(L + 1 - m), atol=1e-12), m


def test_legendre_theta_derivative():
    """The oracle's dpbar table, which the reference stiffness pairs, is the
    theta derivative of pbar(cos theta), by stencil."""
    theta = np.array([0.4, 1.1, 1.9, 2.6])
    h = 1e-6
    L = 5
    _, dpbar, _ = oracles.dense_legendre_tables(L, np.cos(theta))
    p_hi = legendre_blocks(L, np.cos(theta + h))
    p_lo = legendre_blocks(L, np.cos(theta - h))
    for m, (hi, lo) in enumerate(zip(p_hi, p_lo)):
        fd = (hi - lo) / (2.0 * h)
        assert np.allclose(dpbar[m:, m], fd, atol=1e-8), m


def test_legendre_blocks_own_their_rows():
    """Each block m holds only its rows ell = m..L in an array of its own, so
    no table is shared between blocks, and the blocks come in order m = 0..L."""
    L, x = 8, np.linspace(-0.9, 0.9, 7)
    blocks = list(legendre_blocks(L, x))
    assert [P.shape for P in blocks] == [(L + 1 - m, x.size) for m in range(L + 1)]
    assert all(P.base is None for P in blocks)


@pytest.mark.parametrize("L", [0, 1, 2, 8, 48])
def test_packed_table_matches_dense_oracle(L):
    """The per-m blocks, packed to the rows ell = m..L, reproduce the dense
    three-table rows bitwise (the recurrence is the same, step for step)."""
    x = build_quadrature(2 * L + 2).x
    dense_p, _, _ = oracles.dense_legendre_tables(L, x)
    blocks = list(legendre_blocks(L, x))
    assert len(blocks) == L + 1
    for m, P in enumerate(blocks):
        assert np.array_equal(P, dense_p[m:, m]), m


def test_legendre_validation():
    """Bad arguments are refused when the generator is made, before a block."""
    with pytest.raises(DomainError):
        legendre_blocks(4, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        legendre_blocks(-1, np.array([0.5]))
    with pytest.raises(DomainError):
        legendre_blocks(3, np.zeros((2, 2)))
