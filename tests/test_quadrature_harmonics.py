"""Quadrature rule and normalized-harmonic table checks.

The packed Legendre table is compared against scipy's associated Legendre
functions with the normalization written out explicitly and, bitwise,
against the dense three-table recurrence it replaced (tests/oracles.py);
the rule's polynomial exactness is checked against closed-form monomial
integrals.
"""

import math

import numpy as np
import pytest
from scipy.special import lpmv, roots_legendre

import oracles
from zetasphere.errors import DomainError
from zetasphere.harmonics import legendre_tables, theta_derivative
from zetasphere.quadrature import build_quadrature


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


def test_build_quadrature_validation():
    with pytest.raises(DomainError):
        build_quadrature(0)


def test_legendre_against_scipy():
    """pbar_{lm} = (-1)^m sqrt((2l+1)(l-m)!/(l+m)!) P_l^m with scipy's P_l^m."""
    x = np.array([-0.83, -0.31, 0.02, 0.47, 0.9])
    L = 6
    pbar = legendre_tables(L, x)
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
    pbar = legendre_tables(L, x)
    for m in range(L + 1):
        G = (pbar[m] * w[None, :]) @ pbar[m].T
        assert np.allclose(G, 2.0 * np.eye(L + 1 - m), atol=1e-12), m


def test_legendre_theta_derivative():
    """theta_derivative is the theta derivative of pbar(cos theta), by stencil."""
    theta = np.array([0.4, 1.1, 1.9, 2.6])
    h = 1e-6
    L = 5
    pbar = legendre_tables(L, np.cos(theta))
    p_hi = legendre_tables(L, np.cos(theta + h))
    p_lo = legendre_tables(L, np.cos(theta - h))
    for m in range(L + 1):
        fd = (p_hi[m] - p_lo[m]) / (2.0 * h)
        assert np.allclose(theta_derivative(pbar, m), fd, atol=1e-8), m


def test_packed_table_is_one_array():
    """The per-m blocks are views that tile one packed array, none of m > ell."""
    L, x = 8, np.linspace(-0.9, 0.9, 7)
    pbar = legendre_tables(L, x)
    base = pbar[0].base
    assert base.shape == ((L + 1) * (L + 2) // 2, x.size)
    assert all(block.base is base for block in pbar)
    assert sum(block.nbytes for block in pbar) == base.nbytes


@pytest.mark.parametrize("L", [0, 1, 2, 8, 48])
def test_packed_table_matches_dense_oracle(L):
    """The packed recurrence reproduces the dense three-table rows bitwise,
    and the shift identity reproduces the dense dpbar table bitwise."""
    x = build_quadrature(2 * L + 2).x
    pbar = legendre_tables(L, x)
    dense_p, dense_dp, _ = oracles.dense_legendre_tables(L, x)
    for m in range(L + 1):
        assert np.array_equal(pbar[m], dense_p[m:, m]), m
        assert np.array_equal(theta_derivative(pbar, m), dense_dp[m:, m]), m


def test_legendre_validation():
    with pytest.raises(DomainError):
        legendre_tables(4, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        legendre_tables(-1, np.array([0.5]))
    with pytest.raises(DomainError):
        legendre_tables(3, np.zeros((2, 2)))
