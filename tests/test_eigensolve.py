"""Eigensolver checks: residuals, orthonormality, kernel handling, calculus."""

import numpy as np
import pytest
import scipy.linalg

import oracles
from zetasphere.discretize import OperatorPair, assemble, build_basis
from zetasphere.eigensolve import (
    KERNEL_SNAP_REL,
    apply_function,
    generalized_eigs,
    pencil_eigh,
    resolvent,
)
from zetasphere.errors import (
    EigenConvergenceError,
    IndefiniteMassError,
    InvalidMetricError,
)
from zetasphere.heatzeta import heat_operator
from zetasphere.metrics import (
    fs_metric,
    max_metric,
    parse_metric_spec,
    pnorm_metric,
    scaled_metric,
)

METRICS = [fs_metric(), pnorm_metric(3.0), max_metric()]


@pytest.fixture(scope="module")
def basis():
    return build_basis(12)


@pytest.fixture(scope="module", params=[m.id for m in METRICS])
def spectrum(request, basis):
    metric = next(m for m in METRICS if m.id == request.param)
    return generalized_eigs(assemble(basis, metric))


def _blocks(spectrum):
    """(K_m, M_m, lam_m, V_m) for m = 0..L."""
    pair = spectrum.pair
    return zip(
        pair.stiffness_blocks, pair.mass_blocks,
        spectrum.block_values, spectrum.block_vectors,
    )


def test_eigen_residuals(spectrum):
    """K_m V_m = M_m V_m diag(lam_m) on every block, and the merged spectrum
    holds block 0 once and every m >= 1 block twice."""
    for K, M, lam, V in _blocks(spectrum):
        res = np.linalg.norm(K @ V - (M @ V) * lam[None, :], axis=0)
        scale = np.linalg.norm(K, 2) + np.abs(lam) * np.linalg.norm(M, 2)
        assert np.all(res <= 1e-9 * scale), spectrum.metric_id
    values = spectrum.block_values
    copies = [values[0]] + [v for v in values[1:] for _ in ("cos", "sin")]
    assert np.array_equal(spectrum.eigenvalues, np.sort(np.concatenate(copies)))


def test_mass_orthonormality(spectrum):
    """V_m^T M_m V_m = I on every block."""
    for _, M, lam, V in _blocks(spectrum):
        assert np.abs(V.T @ M @ V - np.eye(lam.size)).max() < 1e-10


def test_kernel_is_constants(spectrum):
    assert spectrum.eigenvalues[0] == 0.0
    assert spectrum.block_values[0][0] == 0.0
    assert spectrum.lambda1 > 0.0
    # the kernel vector is the constant: block_vectors[0][:, 0] = e_0 / sqrt(M_0[0, 0])
    v0 = spectrum.block_vectors[0][:, 0]
    m00 = spectrum.pair.mass_blocks[0][0, 0]
    assert abs(v0[0]) == pytest.approx(1.0 / np.sqrt(m00), rel=1e-10)
    assert np.abs(v0[1:]).max() < 1e-8 * abs(v0[0])


def test_positive_excludes_kernel(spectrum):
    pos = spectrum.positive
    assert pos.shape == (spectrum.eigenvalues.size - 1,)
    assert pos.min() == spectrum.lambda1
    assert np.all(pos > 0.0)
    assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)


def test_round_spectrum_exact():
    """l(l+1)/2 with multiplicity 2l+1: the basis diagonalizes the round pencil."""
    spec = generalized_eigs(assemble(build_basis(16), fs_metric()))
    expect = np.concatenate(
        [np.full(2 * ell + 1, ell * (ell + 1) / 2.0) for ell in range(17)]
    )
    assert spec.eigenvalues.shape == expect.shape
    assert spec.eigenvalues[0] == 0.0
    rel = np.abs(spec.eigenvalues[1:] - expect[1:]) / expect[1:]
    assert rel.max() < 1e-10


def test_scaled_metric_scales_spectrum(basis):
    base = generalized_eigs(assemble(basis, pnorm_metric(3.0)))
    for t0 in (0.5, 2.0, 10.0):
        scaled = generalized_eigs(assemble(basis, scaled_metric(t0, pnorm_metric(3.0))))
        rel = np.abs(scaled.positive - base.positive / t0) / (base.positive / t0)
        assert rel.max() < 1e-12, t0


def test_against_expert_lapack_driver(basis):
    """Same pencil through the gvx expert routine instead of gv."""
    pair = assemble(basis, pnorm_metric(3.0))
    spec = generalized_eigs(pair)
    vals = scipy.linalg.eigh(
        oracles.dense_matrix(pair.stiffness_blocks),
        oracles.dense_matrix(pair.mass_blocks),
        eigvals_only=True,
        driver="gvx",
    )
    scale = np.maximum(np.abs(vals), 1.0)
    assert (np.abs(spec.eigenvalues - vals) / scale).max() < 1e-11


def test_apply_function_identity(spectrum):
    """f(lam) = lam reconstructs the operator M^{-1} K."""
    got = oracles.dense_matrix(apply_function(spectrum, lambda lam: lam))
    want = np.linalg.solve(
        oracles.dense_matrix(spectrum.pair.mass_blocks),
        oracles.dense_matrix(spectrum.pair.stiffness_blocks),
    )
    scale = np.abs(want).max()
    assert np.abs(got - want).max() < 1e-10 * max(1.0, scale)


def test_apply_function_preserves_constants(spectrum):
    e0 = np.zeros(spectrum.pair.n)
    e0[0] = 1.0
    heat = oracles.dense_matrix(apply_function(spectrum, lambda lam: np.exp(-0.7 * lam)))
    assert np.abs(heat @ e0 - e0).max() < 1e-10


def test_resolvent_inverts(spectrum):
    shift = 1.0
    R = oracles.dense_matrix(resolvent(spectrum, shift))
    op = np.linalg.solve(
        oracles.dense_matrix(spectrum.pair.mass_blocks),
        oracles.dense_matrix(spectrum.pair.stiffness_blocks),
    )
    prod = (shift * np.eye(spectrum.pair.n) + op) @ R
    assert np.abs(prod - np.eye(spectrum.pair.n)).max() < 1e-9


def test_resolvent_rejects_nonpositive_shift(spectrum):
    with pytest.raises(InvalidMetricError):
        resolvent(spectrum, 0.0)
    with pytest.raises(InvalidMetricError):
        resolvent(spectrum, -1.0)


def test_indefinite_mass_is_reported():
    K = (np.eye(2), np.eye(1))
    M0 = np.eye(2)
    M0[0, 0] = -1.0
    pair = OperatorPair(
        stiffness_blocks=K, mass_blocks=(M0, np.eye(1)), metric_id="synthetic", L=1
    )
    with pytest.raises(IndefiniteMassError):
        generalized_eigs(pair)


def test_indefinite_mass_block_names_m():
    """A real pencil with one indefinite mass block M_3 fails on that block."""
    pair = assemble(build_basis(6), fs_metric())
    bad = pair.mass_blocks[3].copy()
    bad[1, 1] = -bad[1, 1]
    blocks = pair.mass_blocks[:3] + (bad,) + pair.mass_blocks[4:]
    broken = OperatorPair(pair.stiffness_blocks, blocks, pair.metric_id, pair.L)
    with pytest.raises(IndefiniteMassError, match=r"block m = 3\b"):
        generalized_eigs(broken)


def _with_nan(blocks, m):
    bad = blocks[m].copy()
    bad[1, 0] = np.nan
    return blocks[:m] + (bad,) + blocks[m + 1:]


def test_nan_blocks_are_classified():
    """A NaN in M_m is an indefinite mass on block m; a NaN in K_m stalls block m."""
    pair = assemble(build_basis(6), fs_metric())
    with pytest.raises(ValueError):
        pencil_eigh(pair.stiffness_blocks[2], _with_nan(pair.mass_blocks, 2)[2])
    bad_mass = OperatorPair(
        pair.stiffness_blocks, _with_nan(pair.mass_blocks, 2), pair.metric_id, pair.L
    )
    with pytest.raises(IndefiniteMassError, match=r"block m = 2\b"):
        generalized_eigs(bad_mass)
    bad_stiffness = OperatorPair(
        _with_nan(pair.stiffness_blocks, 4), pair.mass_blocks, pair.metric_id, pair.L
    )
    with pytest.raises(EigenConvergenceError, match=r"block m = 4\b") as info:
        generalized_eigs(bad_stiffness)
    assert info.value.stuck_index == 4


def test_missing_kernel_is_reported():
    eye = (np.eye(2), np.eye(1))
    pair = OperatorPair(stiffness_blocks=eye, mass_blocks=eye, metric_id="synthetic", L=1)
    with pytest.raises(InvalidMetricError):
        generalized_eigs(pair)


def test_cluster_vectors_stay_orthonormal():
    """Degenerate round clusters come back M-orthonormal from the block solve."""
    spec = generalized_eigs(assemble(build_basis(10), fs_metric()))
    for _, M, lam, V in _blocks(spec):
        assert np.abs(V.T @ M @ V - np.eye(lam.size)).max() < 1e-12


@pytest.mark.parametrize("L", [8, 16, 24])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_blocks_match_dense_oracle(spec, L):
    """Block eigenvalues against the dense sygvd solve of the scattered pencil."""
    pair = assemble(build_basis(L), parse_metric_spec(spec))
    got = generalized_eigs(pair).eigenvalues
    want = oracles.dense_pencil_eigenvalues(pair.stiffness_blocks, pair.mass_blocks)
    assert got.shape == want.shape == ((L + 1) ** 2,)
    assert got[0] == 0.0
    assert abs(want[0]) <= 1e-8 * want[1]
    rel = np.abs(got[1:] - want[1:]) / want[1:]
    assert rel.max() <= 1e-12, f"{spec} L={L}: {rel.max():.2e}"


@pytest.mark.parametrize("L", [8, 16])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_block_operators_match_dense_oracle(spec, L):
    """apply_function, resolvent and heat_operator blocks, placed by the
    oracle's scatter, against V diag(f(lam)) V^T M of the dense sygvd solve,
    to 1e-12 relative."""
    pair = assemble(build_basis(L), parse_metric_spec(spec))
    spectrum = generalized_eigs(pair)
    cases = [
        ("apply_function", apply_function(spectrum, lambda lam: lam / (1.0 + lam) ** 2),
         lambda lam: lam / (1.0 + lam) ** 2),
        ("resolvent", resolvent(spectrum, 2.0), lambda lam: 1.0 / (2.0 + lam)),
        ("heat_operator", heat_operator(spectrum, 0.7), lambda lam: np.exp(-0.7 * lam)),
    ]
    for name, blocks, f in cases:
        assert [b.shape for b in blocks] == [(L + 1 - m,) * 2 for m in range(L + 1)]
        got = oracles.dense_matrix(blocks)
        want = oracles.dense_pencil_function(pair.stiffness_blocks, pair.mass_blocks, f)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12, f"{name} {spec} L={L}: {rel:.2e}"


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_pencil_eigh_matches_sygvd(spec):
    """Every block at L = 48 against scipy's sygvd: eigenvalues to 1e-12
    relative, residuals and M-orthonormality to 1e-13.

    The kernel value of the m = 0 block is zero up to roundoff, so it is
    compared against the block's top value instead of itself.
    """
    pair = assemble(build_basis(48), parse_metric_spec(spec))
    for m, (K, M) in enumerate(zip(pair.stiffness_blocks, pair.mass_blocks)):
        lam, V = pencil_eigh(K, M)
        want = scipy.linalg.eigh(K, M, eigvals_only=True, driver="gvd")
        top = np.abs(want).max()
        scale = np.where(np.abs(want) > KERNEL_SNAP_REL * top, np.abs(want), top)
        rel = np.abs(lam - want) / scale
        assert rel.max() <= 1e-12, f"{spec} m={m}: eigenvalues {rel.max():.2e}"
        norm_k, norm_m = np.linalg.norm(K, 2), np.linalg.norm(M, 2)
        res = np.abs(K @ V - (M @ V) * lam).max() / (norm_k + np.abs(lam).max() * norm_m)
        assert res <= 1e-13, f"{spec} m={m}: residual {res:.2e}"
        orth = np.abs(V.T @ M @ V - np.eye(lam.size)).max()
        assert orth <= 1e-13, f"{spec} m={m}: orthonormality {orth:.2e}"
