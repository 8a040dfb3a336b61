"""Galerkin assembly: stiffness, mass matrices, and their parameter variation.

The radial blocks are placed into dense matrices by the oracle's own
scatter and cross-checked against the full-grid oracle (which sees the
azimuthal factors explicitly), and the mass variation against a centered
stencil in the family parameter.
"""

import numpy as np
import pytest

import oracles
from zetasphere.discretize import (
    SpectralBasis,
    _radial_weighted_gram,
    assemble,
    build_basis,
    mass,
    mass_log_variation,
    stiffness,
)
from zetasphere.eigensolve import generalized_eigs
from zetasphere.errors import DomainError, InvalidMetricError
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


def test_build_basis_defaults(basis):
    assert basis.L == 8
    assert [K.shape for K in stiffness(basis)] == [(9 - m,) * 2 for m in range(9)]
    assert basis.quad.n_theta == 18


def test_basis_size_validation():
    with pytest.raises(DomainError):
        SpectralBasis(8, build_quadrature(10))
    with pytest.raises(DomainError):
        SpectralBasis(-1)


@pytest.mark.parametrize("L", [4, 8, 12])
def test_gram_defect(L):
    """The quadrature reproduces the orthonormal Gram matrix exactly."""
    assert build_basis(L).gram_defect() < 1e-12


def test_stiffness_properties(basis):
    K = oracles.dense_matrix(stiffness(basis))
    assert K.shape == (81, 81)
    assert np.allclose(K, K.T, atol=1e-13)
    # constants span the kernel of the pairing
    assert np.abs(K[0]).max() < 1e-12
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() > -1e-10


@pytest.mark.parametrize("L, angular_rel", [(8, 1e-14), (48, 1e-13)])
def test_stiffness_matches_dense_table_oracle(L, angular_rel):
    """Stiffness from the packed table against the dense three-table path.

    The (1/r) d/dphi amplitude is pbar / r, so the m^2 term of K_m is the
    pbar Gram block under the plane weight over r^2. The oracle builds it
    from the qbar table instead. Whole blocks K_m agree to 1e-14 relative
    (measured 2.0e-16 at L = 8, 6.1e-16 at L = 48). The m^2 term alone
    agrees to 1.9e-15 at L = 8 and 3.1e-14 at L = 48 (m = 1, ell = 48), where
    both routes sit about 3e-12 relative from the exact diagonal (2 ell + 1) / (2 m):
    that is rounding of the recurrences near the poles, shared by both.
    """
    basis = build_basis(L)
    quad = basis.quad
    r = quad.radii_theta
    plane_weight = quad.weights_theta * (1.0 + r * r) ** 2 / 4.0
    angular = _radial_weighted_gram(basis, plane_weight / (r * r))
    _, want_angular = oracles.dense_stiffness_terms(L, quad.x, quad.weights_theta)
    want = oracles.dense_stiffness_blocks(L, quad.x, quad.weights_theta)
    for m, K in enumerate(stiffness(basis)):
        assert np.abs(K - want[m]).max() <= 1e-14 * np.abs(want[m]).max(), m
        if m > 0:
            scale = np.abs(want_angular[m]).max()
            assert np.abs(angular[m] - want_angular[m]).max() <= angular_rel * scale, m
            exact = (2.0 * np.arange(m, L + 1) + 1.0) / (2.0 * m)
            assert np.abs(np.diag(angular[m]) - exact).max() <= 1e-11 * exact.max(), m


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_eigenvalues_match_dense_table_path(spec):
    """Block eigenvalues against the dense sygvd solve of the pencil whose
    stiffness comes from the dense three-table oracle, to 1e-12 relative."""
    L = 24
    basis = build_basis(L)
    quad = basis.quad
    pair = assemble(basis, parse_metric_spec(spec))
    got = generalized_eigs(pair).eigenvalues
    K = oracles.dense_stiffness_blocks(L, quad.x, quad.weights_theta)
    want = oracles.dense_pencil_eigenvalues(K, pair.mass_blocks)
    rel = np.abs(got[1:] - want[1:]) / want[1:]
    assert rel.max() <= 1e-12, f"{spec}: {rel.max():.2e}"


def test_stiffness_is_metric_independent(basis):
    """assemble() reuses one stiffness matrix whatever the metric."""
    k1 = assemble(basis, fs_metric()).stiffness_blocks
    k2 = assemble(basis, pnorm_metric(3.0)).stiffness_blocks
    assert k1 is k2


def test_fs_round_diagonal(basis):
    """Round factor: density ratio is the constant 2, so M = 2I and K = M diag(l(l+1)/2)."""
    M = oracles.dense_matrix(mass(basis, fs_metric()))
    assert np.abs(M - 2.0 * np.eye(81)).max() < 1e-12
    K = oracles.dense_matrix(stiffness(basis))
    ell = np.repeat(np.arange(9), 2 * np.arange(9) + 1)  # degree of each flat row
    lam = ell * (ell + 1) / 2.0
    assert np.abs(K - M * lam[None, :]).max() < 1e-9


def test_mass_volume_entry(basis):
    """M_0[0,0] is the volume, independently computed by the metrics layer."""
    for metric in (pnorm_metric(2.0), pnorm_metric(5.0), max_metric()):
        M0 = mass(basis, metric)[0]
        assert M0[0, 0] == pytest.approx(volume(metric, basis.quad), rel=1e-13)
        assert assemble(basis, metric).volume == M0[0, 0]
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
    pair_base = assemble(basis, base)
    pair_scaled = assemble(basis, scaled_metric(2.0, base))
    assert np.allclose(
        oracles.dense_matrix(pair_scaled.mass_blocks),
        2.0 * oracles.dense_matrix(pair_base.mass_blocks),
        rtol=1e-14,
    )
    assert pair_scaled.stiffness_blocks is pair_base.stiffness_blocks


def test_mass_rejects_invalid_density(basis):
    bad = ConformalMetric(
        "bad-density", "smooth", lambda r: np.where(r > 1.0, np.nan, 0.0)
    )
    with pytest.raises(InvalidMetricError):
        mass(basis, bad)


def test_operator_pair_metadata(basis):
    pair = assemble(basis, pnorm_metric(2.0))
    assert pair.metric_id == "pnorm:2"
    assert pair.L == 8
    assert pair.n == 81


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
