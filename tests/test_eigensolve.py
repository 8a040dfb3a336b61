"""Eigensolver checks: residuals, orthonormality, kernel handling, calculus.

The stiffness side of every dense reference is the closed form
``oracles.exact_stiffness_blocks``; the eigenvalues themselves are also
checked against a 40-digit mpmath solve of the same blocks. The values-only
path of the scalar commands runs the same block routine as the vectors path,
so its errors, and its eigenvalues to rounding, are checked against it.
"""

import numpy as np
import pytest
import scipy.linalg

import oracles
from zetasphere import eigensolve
from zetasphere.discretize import build_basis, mass
from zetasphere.eigensolve import (
    apply_function,
    generalized_eigs,
    generalized_eigvals,
    pencil_eigvalsh,
    resolvent,
)
from zetasphere.errors import (
    DomainError,
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


def _solve(basis, metric):
    """The vectors path on the metric's mass blocks."""
    return generalized_eigs(mass(basis, metric), basis.L, metric.id)


@pytest.fixture(scope="module", params=[m.id for m in METRICS])
def spectrum(request, basis):
    metric = next(m for m in METRICS if m.id == request.param)
    return _solve(basis, metric)


def _blocks(spectrum):
    """(K_m, M_m, lam_m, V_m) for m = 0..L."""
    return zip(
        oracles.exact_stiffness_blocks(spectrum.L), spectrum.mass_blocks,
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
    m00 = spectrum.mass_blocks[0][0, 0]
    assert v0[0] == 1.0 / np.sqrt(m00)
    assert np.all(v0[1:] == 0.0)


def test_spectrum_metadata(basis):
    """The spectrum names its metric and degree and keeps one mass block per
    m, M_0[0, 0] being the volume."""
    spectrum = _solve(basis, pnorm_metric(2.0))
    assert spectrum.metric_id == "pnorm:2"
    assert spectrum.L == 12
    assert [M.shape for M in spectrum.mass_blocks] == [(13 - m,) * 2 for m in range(13)]
    assert spectrum.volume == spectrum.mass_blocks[0][0, 0]
    assert spectrum.eigenvalues.shape == (13**2,)


def test_positive_excludes_kernel(spectrum):
    pos = spectrum.positive
    assert pos.shape == (spectrum.eigenvalues.size - 1,)
    assert pos.min() == spectrum.lambda1
    assert np.all(pos > 0.0)
    assert np.all(np.diff(spectrum.eigenvalues) >= 0.0)


def test_round_spectrum_exact():
    """l(l+1)/2 with multiplicity 2l+1: the basis diagonalizes the round pencil.

    With the Newton Gauss-Legendre weights the largest relative error is
    5.2e-15 at L = 16 and 3.7e-14 at L = 128 (numpy's leggauss gave 2.0e-14
    and 1.5e-12)."""
    for L in (16, 128):
        spec = _solve(build_basis(L), fs_metric())
        expect = np.concatenate(
            [np.full(2 * ell + 1, ell * (ell + 1) / 2.0) for ell in range(L + 1)]
        )
        assert spec.eigenvalues.shape == expect.shape
        assert spec.eigenvalues[0] == 0.0
        rel = np.abs(spec.eigenvalues[1:] - expect[1:]) / expect[1:]
        assert rel.max() < 1e-13, L


def test_scaled_metric_scales_spectrum(basis):
    base = _solve(basis, pnorm_metric(3.0))
    for t0 in (0.5, 2.0, 10.0):
        scaled = _solve(basis, scaled_metric(t0, pnorm_metric(3.0)))
        rel = np.abs(scaled.positive - base.positive / t0) / (base.positive / t0)
        assert rel.max() < 1e-12, t0


def test_against_expert_lapack_driver(basis):
    """Same pencil through the gvx expert routine instead of gv."""
    spec = _solve(basis, pnorm_metric(3.0))
    vals = scipy.linalg.eigh(
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spec.L)),
        oracles.dense_matrix(spec.mass_blocks),
        eigvals_only=True,
        driver="gvx",
    )
    scale = np.maximum(np.abs(vals), 1.0)
    assert (np.abs(spec.eigenvalues - vals) / scale).max() < 1e-11


def test_apply_function_identity(spectrum):
    """f(lam) = lam reconstructs the operator M^{-1} K."""
    got = oracles.dense_matrix(apply_function(spectrum, lambda lam: lam))
    want = np.linalg.solve(
        oracles.dense_matrix(spectrum.mass_blocks),
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spectrum.L)),
    )
    scale = np.abs(want).max()
    assert np.abs(got - want).max() < 1e-10 * max(1.0, scale)


def test_apply_function_preserves_constants(spectrum):
    e0 = np.zeros(spectrum.eigenvalues.size)
    e0[0] = 1.0
    heat = oracles.dense_matrix(apply_function(spectrum, lambda lam: np.exp(-0.7 * lam)))
    assert np.abs(heat @ e0 - e0).max() < 1e-10


def test_resolvent_inverts(spectrum):
    shift = 1.0
    R = oracles.dense_matrix(resolvent(spectrum, shift))
    op = np.linalg.solve(
        oracles.dense_matrix(spectrum.mass_blocks),
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spectrum.L)),
    )
    n = spectrum.eigenvalues.size
    prod = (shift * np.eye(n) + op) @ R
    assert np.abs(prod - np.eye(n)).max() < 1e-9


def test_resolvent_rejects_nonpositive_shift(spectrum):
    with pytest.raises(InvalidMetricError):
        resolvent(spectrum, 0.0)
    with pytest.raises(InvalidMetricError):
        resolvent(spectrum, -1.0)


def _solves(blocks, L, metric_id):
    """Both paths of the block routine on one pencil: with vectors, then
    values only from blocks handed in one at a time."""
    yield lambda: generalized_eigs(blocks, L, metric_id)
    yield lambda: generalized_eigvals(iter(blocks), L, metric_id)


def test_indefinite_mass_is_reported():
    """M_0[0, 0] <= 0, and a positive M_0[0, 0] with an indefinite Schur
    complement on the constant, are both an indefinite M_0."""
    M0 = np.eye(2)
    M0[0, 0] = -1.0
    schur = np.array([[1.0, 2.0], [2.0, 1.0]])  # 1 - 2^2 / 1 < 0
    for bad in (M0, schur):
        for solve in _solves((bad, np.eye(1)), 1, "synthetic"):
            with pytest.raises(IndefiniteMassError, match=r"block m = 0\b"):
                solve()


def test_indefinite_mass_block_names_m():
    """A real pencil with one indefinite mass block M_3 fails on that block."""
    blocks = tuple(mass(build_basis(6), fs_metric()))
    bad = blocks[3].copy()
    bad[1, 1] = -bad[1, 1]
    for solve in _solves(blocks[:3] + (bad,) + blocks[4:], 6, "fs"):
        with pytest.raises(IndefiniteMassError, match=r"block m = 3\b"):
            solve()


def _with_nan(blocks, m):
    bad = blocks[m].copy()
    bad[1, 0] = np.nan
    return blocks[:m] + (bad,) + blocks[m + 1:]


def test_nan_blocks_are_classified(monkeypatch):
    """A NaN in M_m is an indefinite mass on block m; a failing symmetric
    solve on block m is an EigenConvergenceError stuck at m."""
    blocks = tuple(mass(build_basis(6), fs_metric()))
    K = oracles.exact_stiffness_blocks(6)
    with pytest.raises(ValueError):
        pencil_eigvalsh(K[2], _with_nan(blocks, 2)[2])
    for solve in _solves(_with_nan(blocks, 2), 6, "fs"):
        with pytest.raises(IndefiniteMassError, match=r"block m = 2\b"):
            solve()

    for name, solve in zip(("eigh", "eigvalsh"), _solves(blocks, 6, "fs")):
        real, calls = getattr(np.linalg, name), []

        def stall_on_block_4(a, real=real, calls=calls):  # solved in the order m = 0, 1, ...
            calls.append(a)
            if len(calls) == 5:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, name, stall_on_block_4)
        with pytest.raises(EigenConvergenceError, match=r"block m = 4\b") as info:
            solve()
        assert info.value.stuck_index == 4, name
        monkeypatch.undo()


def test_cluster_vectors_stay_orthonormal():
    """Degenerate round clusters come back M-orthonormal from the block solve."""
    spec = _solve(build_basis(10), fs_metric())
    for _, M, lam, V in _blocks(spec):
        assert np.abs(V.T @ M @ V - np.eye(lam.size)).max() < 1e-12


@pytest.mark.parametrize("L", [8, 16, 24])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_blocks_match_dense_oracle(spec, L):
    """Block eigenvalues against the dense sygvd solve of the scattered pencil."""
    spectrum = _solve(build_basis(L), parse_metric_spec(spec))
    got = spectrum.eigenvalues
    want = oracles.dense_pencil_eigenvalues(
        oracles.exact_stiffness_blocks(L), spectrum.mass_blocks
    )
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
    spectrum = _solve(build_basis(L), parse_metric_spec(spec))
    cases = [
        ("apply_function", apply_function(spectrum, lambda lam: lam / (1.0 + lam) ** 2),
         lambda lam: lam / (1.0 + lam) ** 2),
        ("resolvent", resolvent(spectrum, 2.0), lambda lam: 1.0 / (2.0 + lam)),
        ("heat_operator", heat_operator(spectrum, 0.7), lambda lam: np.exp(-0.7 * lam)),
    ]
    for name, blocks, f in cases:
        assert [b.shape for b in blocks] == [(L + 1 - m,) * 2 for m in range(L + 1)]
        got = oracles.dense_matrix(blocks)
        want = oracles.dense_pencil_function(
            oracles.exact_stiffness_blocks(L), spectrum.mass_blocks, f
        )
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12, f"{name} {spec} L={L}: {rel:.2e}"


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_pencil_eigh_matches_sygvd(spec):
    """`pencil_eigvalsh` on every block at L = 48 against scipy's sygvd:
    eigenvalues to 1e-12 relative.

    The kernel value of the m = 0 block is zero up to roundoff, so it is
    compared against the block's top value instead of itself.
    """
    blocks = mass(build_basis(48), parse_metric_spec(spec))
    for m, (K, M) in enumerate(zip(oracles.exact_stiffness_blocks(48), blocks)):
        lam = pencil_eigvalsh(K, M)
        want = scipy.linalg.eigh(K, M, eigvals_only=True, driver="gvd")
        top = np.abs(want).max()
        scale = np.where(np.abs(want) > 1e-8 * top, np.abs(want), top)
        rel = np.abs(lam - want) / scale
        assert rel.max() <= 1e-12, f"{spec} m={m}: eigenvalues {rel.max():.2e}"


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_blocks_match_40_digit_reference(spec):
    """Blocks m in {0, 1, 16, 31} at L = 32 against an mpmath solve of the
    same M_m with the exact D_m at 40 digits (Cholesky, then eigsy): every
    eigenvalue from lambda_1 up to 1e-13 relative (measured at most 1.1e-14
    with vectors, 7.5e-15 values only), and the kernel exactly 0.0, on both
    paths of the block routine."""
    L = 32
    spectrum = _solve(build_basis(L), parse_metric_spec(spec))
    blocks = spectrum.mass_blocks
    values_only, _, _ = eigensolve._solve_blocks(blocks, L, spec, vectors=False)
    for path, values in (("vectors", spectrum.block_values), ("values", values_only)):
        assert values[0][0] == 0.0, path
        for m in (0, 1, 16, 31):
            want = oracles.mp_block_eigenvalues(blocks[m], m, L)
            k = 1 if m == 0 else 0  # the kernel is compared exactly above
            rel = np.abs(values[m][k:] - want[k:]) / want[k:]
            assert rel.max() <= 1e-13, f"{spec} {path} m={m}: {rel.max():.2e}"


@pytest.mark.parametrize("L", [32, 64])
@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_values_only_matches_vectors_path(spec, L):
    """The scalar commands' solve (mass blocks built, solved by eigvalsh and
    dropped one m at a time) against the vectors path on the kept blocks:
    the same volume and kernel, every other eigenvalue within 1e-13 relative
    (measured at most 1.1e-14 at L = 32 and 1.3e-14 at L = 64). The two
    differ only in how LAPACK rounds with and without vectors."""
    metric = parse_metric_spec(spec)
    basis = build_basis(L)
    spectrum = _solve(basis, metric)
    lam, vol = generalized_eigvals(mass(basis, metric), L, metric.id)
    assert vol == spectrum.volume
    assert lam.shape == spectrum.eigenvalues.shape == ((L + 1) ** 2,)
    assert lam[0] == 0.0 and np.all(np.diff(lam) >= 0.0)
    rel = np.abs(lam[1:] - spectrum.eigenvalues[1:]) / spectrum.eigenvalues[1:]
    assert rel.max() <= 1e-13, f"{spec} L={L}: {rel.max():.2e}"


@pytest.mark.parametrize("t0", [1e-310, 1e-320])
def test_overflowing_eigenvalues_are_refused(t0):
    """A volume so small that 1 / (vol mu) overflows is refused on both paths
    with an error naming the block and the metric, never an inf eigenvalue."""
    metric = scaled_metric(t0, fs_metric())
    blocks = tuple(mass(build_basis(4), metric))
    for solve in _solves(blocks, 4, metric.id):
        with pytest.raises(DomainError, match=r"block m = 0 of 'scaled:1e-3[12]0:fs'"):
            solve()
