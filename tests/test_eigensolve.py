"""Eigensolver checks: residuals, orthonormality, kernel handling, calculus.

The stiffness side of every dense reference is the closed form
``oracles.exact_stiffness_blocks``; the eigenvalues themselves are also
checked against a 40-digit mpmath solve of the same blocks. The solve keeps
no block, so the block checks read the blocks that a test-side reducer
(`blocks.solve_stacks`) collects as the solve hands them over. The
values-only path of the scalar commands runs the same block routine as the
reducer path, so its errors, and its eigenvalues to rounding, are checked
against it.
"""

import numpy as np
import pytest
import scipy.linalg

import blocks
import oracles
from zetasphere import eigensolve
from zetasphere.discretize import build_basis, masses
from zetasphere.eigensolve import Spectrum, family_eigvals, nested_degree
from blocks import apply_function
from zetasphere.errors import DomainError, EigenConvergenceError, IndefiniteMassError
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
    """The reducer path on the metric's mass blocks, a family of one, with
    the blocks it hands over kept."""
    (spectrum,) = blocks.solve_stacks(masses(basis, (metric,)), basis.L, (metric.id,))
    return spectrum


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
    """The spectrum names its metric and degree, and the reducer is handed
    one mass block per m, M_0[0, 0] being the volume. The record itself has
    no block fields: the solve keeps no block past its m."""
    spectrum = _solve(basis, pnorm_metric(2.0))
    assert spectrum.metric_id == "pnorm:2"
    assert spectrum.L == 12
    assert [M.shape for M in spectrum.mass_blocks] == [(13 - m,) * 2 for m in range(13)]
    assert spectrum.volume == spectrum.mass_blocks[0][0, 0]
    assert spectrum.eigenvalues.shape == (13**2,)
    assert Spectrum._fields == ("metric_id", "L", "eigenvalues", "volume", "nested")
    handed = []
    (record,) = family_eigvals(
        masses(basis, (pnorm_metric(2.0),)), 12, ("pnorm:2",),
        lambda m, M, lam, V: handed.append((m, M.shape, lam.shape, V.shape)),
    )
    assert isinstance(record, Spectrum)
    assert handed == [(m, (1, 13 - m, 13 - m), (1, 13 - m), (1, 13 - m, 13 - m)) for m in range(13)]


def test_positive_excludes_kernel(spectrum):
    pos = spectrum.eigenvalues[1:]
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
        want = base.eigenvalues[1:] / t0
        rel = np.abs(scaled.eigenvalues[1:] - want) / want
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
    R = oracles.dense_matrix(apply_function(spectrum, lambda lam: 1.0 / (shift + lam)))
    op = np.linalg.solve(
        oracles.dense_matrix(spectrum.mass_blocks),
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spectrum.L)),
    )
    n = spectrum.eigenvalues.size
    prod = (shift * np.eye(n) + op) @ R
    assert np.abs(prod - np.eye(n)).max() < 1e-9


def _heat(spec, t):
    """The dense heat operator exp(-t operator), placed by the oracle's scatter."""
    return oracles.dense_matrix(apply_function(spec, lambda lam: np.exp(-t * lam)))


def test_heat_operator_semigroup():
    spec = _solve(build_basis(8), pnorm_metric(3.0))
    n = spec.eigenvalues.size
    E = {t: _heat(spec, t) for t in (0.0, 0.4, 0.6, 1.0)}
    assert np.abs(E[0.0] - np.eye(n)).max() < 1e-10
    assert np.abs(E[0.4] @ E[0.6] - E[1.0]).max() < 1e-10


def test_heat_operator_self_adjoint_and_contractive():
    spec = _solve(build_basis(8), pnorm_metric(3.0))
    E = _heat(spec, 0.8)
    M = oracles.dense_matrix(spec.mass_blocks)
    ME = M @ E
    assert np.abs(ME - ME.T).max() < 1e-10
    # eigenvalue 0 rides along, so the norm is exactly one
    assert oracles.weighted_operator_norm(E, M) == pytest.approx(1.0, abs=1e-10)


def test_heat_operator_solves_heat_equation():
    spec = _solve(build_basis(8), pnorm_metric(3.0))
    op = np.linalg.solve(
        oracles.dense_matrix(spec.mass_blocks),
        oracles.dense_matrix(oracles.exact_stiffness_blocks(spec.L)),
    )
    t, h = 0.7, 1e-5
    dE = (_heat(spec, t + h) - _heat(spec, t - h)) / (2.0 * h)
    want = -op @ _heat(spec, t)
    assert np.abs(dE - want).max() < 1e-8


def _family_solves(stacks, L, metric_ids):
    """Both paths of the block routine on a family's stacks: with vectors
    handed to a reducer, then values only, each from stacks handed in one at
    a time. One pencil is the family of one whose stacks are its blocks
    M[None]."""
    yield lambda: family_eigvals(iter(stacks), L, metric_ids, lambda *block: None)
    yield lambda: family_eigvals(iter(stacks), L, metric_ids)


def test_indefinite_mass_is_reported():
    """M_0[0, 0] <= 0, and a positive M_0[0, 0] with an indefinite Schur
    complement on the constant, are both an indefinite M_0."""
    M0 = np.eye(2)
    M0[0, 0] = -1.0
    schur = np.array([[1.0, 2.0], [2.0, 1.0]])  # 1 - 2^2 / 1 < 0
    for bad in (M0, schur):
        for solve in _family_solves((bad[None], np.eye(1)[None]), 1, ("synthetic",)):
            with pytest.raises(IndefiniteMassError, match=r"block m = 0\b"):
                solve()


def test_indefinite_mass_block_names_m():
    """A real pencil with one indefinite mass block M_3 fails on that block."""
    stacks = tuple(masses(build_basis(6), (fs_metric(),)))
    bad = stacks[3].copy()
    bad[0, 1, 1] = -bad[0, 1, 1]
    for solve in _family_solves(stacks[:3] + (bad,) + stacks[4:], 6, ("fs",)):
        with pytest.raises(IndefiniteMassError, match=r"block m = 3\b"):
            solve()


def _with_nan(stacks, m):
    bad = stacks[m].copy()
    bad[..., 1, 0] = np.nan
    return stacks[:m] + (bad,) + stacks[m + 1:]


def test_nan_blocks_are_classified(monkeypatch):
    """A NaN in M_m is an indefinite mass on block m; a failing symmetric
    solve on block m of a stack is an EigenConvergenceError stuck at m that
    names the failing member, found by solving that m again one member at a
    time."""
    stacks = tuple(masses(build_basis(6), (fs_metric(),)))
    for solve in _family_solves(_with_nan(stacks, 2), 6, ("fs",)):
        with pytest.raises(IndefiniteMassError, match=r"block m = 2\b"):
            solve()

    ids = ("fs", "pnorm:3", "max")
    stacks = tuple(masses(build_basis(6), [parse_metric_spec(i) for i in ids]))
    for name, solve in zip(("eigh", "eigvalsh"), _family_solves(stacks, 6, ids)):
        real, alone = getattr(np.linalg, name), []
        # block m = 4 at L = 6 is 3 x 3, and so is the nested (L' = 5)
        # sub-block of m = 3, which eigvalsh solves first on the values path
        nested_first = name == "eigvalsh"

        def stall_on_block_4(a, real=real, alone=alone, skip=nested_first):
            if a.shape[-1] == 3:
                alone.append(a.ndim == 2)
                # the stacked call fails, and so does 'pnorm:3' solved alone
                if alone == [False] * (1 + skip) or alone.count(True) == 2:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a)

        monkeypatch.setattr(np.linalg, name, stall_on_block_4)
        with pytest.raises(EigenConvergenceError, match=r"block m = 4 of 'pnorm:3'"):
            solve()
        # no member after the failing one
        assert alone == [False] * (1 + nested_first) + [True, True], name
        monkeypatch.undo()


FAMILY = ("fs", "pnorm:3", "max", "interp:2.5:pnorm", "scaled:1e200:fs")


@pytest.mark.parametrize("L", [16, 32])
@pytest.mark.parametrize("specs", [FAMILY, FAMILY[3:4]], ids=["five", "one"])
def test_family_solve_is_bitwise_per_member(specs, L):
    """Solved together, every member of a family is bitwise its own solve, on
    both paths: eigenvalues, volume, nested eigenvalues, and the block
    values, block vectors and mass blocks that the reducer path hands over."""
    basis = build_basis(L)
    metrics = [parse_metric_spec(i) for i in specs]
    ids = [m.id for m in metrics]
    together = blocks.solve_stacks(masses(basis, metrics), L, ids)
    values_only = family_eigvals(masses(basis, metrics), L, ids)
    for metric, spec, vals in zip(metrics, together, values_only):
        alone = _solve(basis, metric)
        assert spec.metric_id == metric.id and spec.L == L
        assert np.array_equal(spec.eigenvalues, alone.eigenvalues), metric.id
        assert np.array_equal(spec.nested, alone.nested), metric.id
        assert spec.volume == alone.volume
        for name in ("block_values", "block_vectors", "mass_blocks"):
            a, b = getattr(spec, name), getattr(alone, name)
            assert len(a) == len(b) == L + 1
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), (metric.id, name)
        (vals_alone,) = family_eigvals(masses(basis, (metric,)), L, (metric.id,))
        assert vals.metric_id == metric.id and vals.L == L
        assert np.array_equal(vals.eigenvalues, vals_alone.eigenvalues), metric.id
        assert vals.volume == vals_alone.volume, metric.id
        assert np.array_equal(vals.nested, vals_alone.nested), metric.id


def test_family_errors_name_the_member():
    """A member whose eigenvalues overflow fails the family solve on both
    paths with its own error, not the stack's."""
    ids = ("fs", "scaled:1e-320:fs")
    stacks = tuple(masses(build_basis(4), [parse_metric_spec(i) for i in ids]))
    for solve in _family_solves(stacks, 4, ids):
        with pytest.raises(DomainError, match=r"block m = 0 of 'scaled:1e-320:fs'"):
            solve()


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
    """Per-block function blocks of a rational f, the resolvent and the heat
    operator, placed by the oracle's scatter, against V diag(f(lam)) V^T M
    of the dense sygvd solve, to 1e-12 relative."""
    spectrum = _solve(build_basis(L), parse_metric_spec(spec))
    cases = [
        ("rational", lambda lam: lam / (1.0 + lam) ** 2),
        ("resolvent", lambda lam: 1.0 / (2.0 + lam)),
        ("heat", lambda lam: np.exp(-0.7 * lam)),
    ]
    for name, f in cases:
        op = apply_function(spectrum, f)
        assert [b.shape for b in op] == [(L + 1 - m,) * 2 for m in range(L + 1)]
        got = oracles.dense_matrix(op)
        want = oracles.dense_pencil_function(
            oracles.exact_stiffness_blocks(L), spectrum.mass_blocks, f
        )
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12, f"{name} {spec} L={L}: {rel:.2e}"


@pytest.mark.parametrize("spec", ["fs", "pnorm:3", "max", "interp:2.5:pnorm"])
def test_pencil_eigh_matches_sygvd(spec):
    """The block routine's values on every block at L = 48 against scipy's
    sygvd of the same (D_m, M_m): eigenvalues to 1e-12 relative (measured
    at most 1.1e-13).

    The kernel value of the m = 0 block is zero up to roundoff, so it is
    compared against the block's top value instead of itself.
    """
    spectrum = _solve(build_basis(48), parse_metric_spec(spec))
    blocks = zip(oracles.exact_stiffness_blocks(48), spectrum.mass_blocks, spectrum.block_values)
    for m, (K, M, lam) in enumerate(blocks):
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
    mass = spectrum.mass_blocks
    (values_only,), _, _ = eigensolve._solve_stacks([M[None] for M in mass], L, (spec,), None)
    oracle = {m: oracles.mp_block_eigenvalues(mass[m], m, L) for m in (0, 1, 16, 31)}
    for path, values in (("vectors", spectrum.block_values), ("values", values_only)):
        assert values[0][0] == 0.0, path
        for m, want in oracle.items():
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
    (values,) = family_eigvals(masses(basis, (metric,)), L, (metric.id,))
    lam = values.eigenvalues
    assert values.volume == spectrum.volume
    assert lam.shape == spectrum.eigenvalues.shape == ((L + 1) ** 2,)
    assert lam[0] == 0.0 and np.all(np.diff(lam) >= 0.0)
    rel = np.abs(lam[1:] - spectrum.eigenvalues[1:]) / spectrum.eigenvalues[1:]
    assert rel.max() <= 1e-13, f"{spec} L={L}: {rel.max():.2e}"


@pytest.mark.parametrize("L", [16, 64])
@pytest.mark.parametrize("spec", ["fs", "pnorm:8", "max", "interp:2.5:pnorm"])
def test_nested_eigenvalues_are_the_coarse_pencil(spec, L):
    """The Galerkin spaces are nested, so the leading sub-blocks of the L
    pencil are the pencil at L' = 7L/8: the nested eigenvalues match a
    direct solve at L' to 1e-11 relative, and each lies above its
    counterpart of the full spectrum (min-max), to 1e-11."""
    metric = parse_metric_spec(spec)
    (fine,) = family_eigvals(masses(build_basis(L), (metric,)), L, (metric.id,))
    coarse = nested_degree(L)
    (solo,) = family_eigvals(masses(build_basis(coarse), (metric,)), coarse, (metric.id,))
    lam, nested, direct = fine.eigenvalues, fine.nested, solo.eigenvalues
    assert nested.shape == direct.shape == ((coarse + 1) ** 2,)
    assert nested[0] == direct[0] == 0.0
    rel = np.abs(nested[1:] - direct[1:]) / direct[1:]
    assert rel.max() <= 1e-11, f"{spec} L={L}: {rel.max():.2e}"
    assert np.all(nested[1:] >= lam[1 : nested.size] * (1.0 - 1e-11))


@pytest.mark.parametrize("t0", [1e-310, 1e-320])
def test_overflowing_eigenvalues_are_refused(t0):
    """A volume so small that 1 / (vol mu) overflows is refused on both paths
    with an error naming the block and the metric, never an inf eigenvalue."""
    metric = scaled_metric(t0, fs_metric())
    stacks = tuple(masses(build_basis(4), (metric,)))
    for solve in _family_solves(stacks, 4, (metric.id,)):
        with pytest.raises(DomainError, match=r"block m = 0 of 'scaled:1e-3[12]0:fs'"):
            solve()
