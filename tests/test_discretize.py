"""Galerkin assembly: stiffness, mass matrices, and their parameter variation.

The closed-form stiffness is checked against the oracle's quadrature of the
Dirichlet form from the dense Legendre tables. The radial mass blocks are
placed into dense matrices by the oracle's own scatter and cross-checked
against the full-grid oracle (which sees the azimuthal factors explicitly),
and the mass variation against a centered stencil in the family parameter.
"""

import numpy as np
import pytest

import oracles
from zetasphere.discretize import (
    SpectralBasis,
    build_basis,
    mass,
    stiffness,
    variation_weights,
    weighted_grams,
)
from zetasphere.eigensolve import generalized_eigs
from zetasphere.errors import DomainError, InvalidMetricError
from zetasphere.harmonics import legendre_blocks
from zetasphere.metrics import (
    ConformalMetric,
    fs_metric,
    interpolate,
    max_metric,
    pnorm_family,
    parse_metric_spec,
    pnorm_metric,
    scaled_metric,
    volume,
)
from zetasphere.quadrature import build_quadrature


@pytest.fixture(scope="module")
def basis():
    return build_basis(8)


def mass_log_variation(basis, metric):
    """Gram blocks of the mass's parameter derivative, m = 0..L."""
    return [G for (G,) in weighted_grams(basis, variation_weights(basis, metric)[None])]


def test_build_basis_defaults(basis):
    assert basis.L == 8
    assert basis.quad.n_theta == 18
    assert basis.quad.x.size == 36
    assert [M.shape for M in mass(basis, fs_metric())] == [(9 - m, 9 - m) for m in range(9)]


def test_basis_size_validation():
    with pytest.raises(DomainError):
        SpectralBasis(8, build_quadrature(10))
    with pytest.raises(DomainError):
        SpectralBasis(-1)


@pytest.mark.parametrize("L", [4, 8, 12])
def test_gram_defect(L):
    """The quadrature reproduces the orthonormal Gram matrix exactly."""
    assert build_basis(L).gram_defect() < 1e-12


@pytest.mark.parametrize("L", [4, 8, 16])
def test_gram_exact_from_L_plus_1_nodes(L):
    """The per-m Gram is a polynomial of degree 2L in x, so two Gauss panels
    of L + 1 nodes integrate it exactly; L nodes miss by 4^-L (measured at
    L = 16: defect 2.3e-10 with 16 nodes, 4.3e-15 with 17). The basis
    default 2L + 2 is accuracy margin for the metric density, not exactness."""

    def defect(n_theta):
        quad = build_quadrature(n_theta)
        return max(
            float(np.abs((P * quad.weights_theta) @ P.T - np.eye(P.shape[0])).max())
            for P in legendre_blocks(L, quad.x)
        )

    assert defect(L + 1) < 1e-12
    assert defect(L) > 1e-12


def test_stiffness_properties():
    """K_m is the diagonal ell (ell + 1), ell = m..L; only the constant has
    zero energy."""
    for m in range(9):
        d = stiffness(8, m)
        assert d.shape == (9 - m,)
        assert np.array_equal(d, np.arange(m, 9) * np.arange(m + 1, 10))
    assert stiffness(8, 0)[0] == 0.0


@pytest.mark.parametrize("L, rel", [(8, 1e-14), (64, 1e-13)])
def test_stiffness_matches_dense_table_oracle(L, rel):
    """The closed form against the oracle's quadrature of the Dirichlet form.

    The oracle pairs the flat gradients in the plane coordinate from its
    dense dpbar and qbar tables on the basis's nodes. Every block agrees
    with diag(ell (ell + 1)) to ``rel`` relative to the block's largest
    entry (measured 5.3e-15 at L = 8, 1.1e-13 at L = 48 and 1.9e-14 at
    L = 64): the quadrature's rounding near the poles.
    """
    quad = build_quadrature(2 * L + 2)
    want = oracles.dense_stiffness_blocks(L, quad.x, quad.weights_theta)
    for m, K in enumerate(oracles.exact_stiffness_blocks(L)):
        assert np.array_equal(K, np.diag(stiffness(L, m))), m
        assert np.abs(K - want[m]).max() <= rel * np.abs(K).max(), m


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_eigenvalues_match_dense_table_path(spec):
    """Block eigenvalues against the dense sygvd solve of the pencil whose
    stiffness comes from the dense three-table oracle, to 1e-12 relative."""
    L = 24
    basis = build_basis(L)
    quad = basis.quad
    blocks = tuple(mass(basis, parse_metric_spec(spec)))
    got = generalized_eigs(blocks, L, spec).eigenvalues
    K = oracles.dense_stiffness_blocks(L, quad.x, quad.weights_theta)
    want = oracles.dense_pencil_eigenvalues(K, blocks)
    rel = np.abs(got[1:] - want[1:]) / want[1:]
    assert rel.max() <= 1e-12, f"{spec}: {rel.max():.2e}"


def test_fs_round_diagonal(basis):
    """Round factor: density ratio is the constant 2, so M = 2I and K = M diag(l(l+1)/2)."""
    M = oracles.dense_matrix(mass(basis, fs_metric()))
    assert np.abs(M - 2.0 * np.eye(81)).max() < 1e-12
    K = oracles.dense_matrix(oracles.exact_stiffness_blocks(8))
    ell = np.repeat(np.arange(9), 2 * np.arange(9) + 1)  # degree of each flat row
    lam = ell * (ell + 1) / 2.0
    assert np.abs(K - M * lam[None, :]).max() < 1e-9


def test_mass_volume_entry(basis):
    """M_0[0,0] is the volume, independently computed by the metrics layer."""
    for metric in (pnorm_metric(2.0), pnorm_metric(5.0), max_metric()):
        M0 = next(mass(basis, metric))
        assert M0[0, 0] == pytest.approx(volume(metric, basis.quad), rel=1e-13)
    # and against the closed form, through a finer rule than the basis uses
    fine = build_quadrature(192)
    m = pnorm_metric(5.0)
    assert volume(m, fine) == pytest.approx(float(oracles.pnorm_volume(5.0)), rel=1e-10)


def test_block_vs_dense_assembly(basis):
    """Radial block path against the package-free full-grid oracle, whose
    own rule and harmonics see the azimuthal factors explicitly."""
    cases = (
        (pnorm_metric(3.0), oracles.pnorm_density(3.0)),
        (max_metric(), oracles.max_density),
    )
    for metric, density in cases:
        dense = oracles.full_grid_mass(basis.L, density)
        blocked = oracles.dense_matrix(mass(basis, metric))
        assert np.abs(dense - blocked).max() < 1e-12, metric.id


def test_mass_symmetric_positive(basis):
    M = oracles.dense_matrix(mass(basis, max_metric()))
    assert np.allclose(M, M.T, atol=1e-14)
    assert np.linalg.eigvalsh(M).min() > 0.0


def test_scaled_metric_scales_mass_only(basis):
    base = pnorm_metric(3.0)
    assert np.allclose(
        oracles.dense_matrix(mass(basis, scaled_metric(2.0, base))),
        2.0 * oracles.dense_matrix(mass(basis, base)),
        rtol=1e-14,
    )


def test_mass_rejects_invalid_density(basis):
    def bad_jet(r):
        zero = np.zeros_like(r)
        return np.where(r > 1.0, np.nan, 0.0), zero, zero

    bad = ConformalMetric("bad-density", "smooth", bad_jet)
    with pytest.raises(InvalidMetricError):
        mass(basis, bad)


def test_mass_log_variation_stencil(basis):
    """Analytic d(mass)/du against a centered difference along the family."""
    fam = pnorm_family()
    u, h = 2.5, 1e-4
    got = oracles.dense_matrix(mass_log_variation(basis, interpolate(fam, u)))
    fd = (
        oracles.dense_matrix(mass(basis, interpolate(fam, u + h)))
        - oracles.dense_matrix(mass(basis, interpolate(fam, u - h)))
    ) / (2.0 * h)
    scale = np.abs(fd).max()
    assert np.abs(got - fd).max() < 1e-7 * scale
    assert np.allclose(got, got.T, atol=1e-14)


def test_mass_log_variation_vanishes_when_stationary(basis):
    fam = pnorm_family()
    # plain metrics carry no family parameter at all, and at integer u the
    # smooth blend is stationary by construction
    for metric in (pnorm_metric(3.0), interpolate(fam, 2.0)):
        assert np.all(oracles.dense_matrix(mass_log_variation(basis, metric)) == 0.0)


def test_mass_log_variation_rayleigh_range(basis):
    """Generalized eigenvalues of (dM, M) lie in the node range of dlog.

    Both matrices weight the same node values, so every Rayleigh quotient is
    a weighted average of d(log density)/du over the colatitude nodes.
    """
    import scipy.linalg

    fam = pnorm_family()
    m = interpolate(fam, 2.5)
    M = oracles.dense_matrix(mass(basis, m))
    dM = oracles.dense_matrix(mass_log_variation(basis, m))
    pencil = scipy.linalg.eigh(dM, M, eigvals_only=True)
    dlog = m.d_log_density_du(basis.quad.radii_theta)
    lo, hi = float(dlog.min()), float(dlog.max())
    span = hi - lo
    assert pencil.min() >= lo - 1e-12 * max(1.0, span)
    assert pencil.max() <= hi + 1e-12 * max(1.0, span)
