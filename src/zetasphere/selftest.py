"""Fast built-in checks behind the ``selftest`` subcommand.

Each check is a small, self-contained assertion battery; together they
touch every module at low degree so a fresh checkout can verify itself in
a few seconds. The operator checks work on the azimuthal blocks, like the
rest of the package, and the battery needs numpy alone: the exponential
integral is checked against reference values written out below. The
convergence checks reuse the harness on a short family and report its
named tags directly. Only the cache check touches a spectrum cache, in a
temporary directory of its own.
"""

from __future__ import annotations

import time

__all__ = ["run_selftest"]

# E1(x) at 25 significant digits (mpmath), rounded to double.
_E1_REFERENCE = {
    0.05: 2.467898488509974,
    0.8: 0.310596578545543,
    1.3: 0.13545095784912914,
    7.0: 0.00011548173161033822,
    40.0: 1.036773261451657e-19,
}


def _check_quadrature() -> None:
    import numpy as np

    from .discretize import build_basis
    from .quadrature import build_quadrature

    quad = build_quadrature(18)
    assert abs(float(quad.wx.sum()) - 2.0) < 1e-14, "node weights must sum to 2"
    assert abs(float(quad.weights_theta.sum()) - 1.0) < 1e-14, "probability weights must sum to 1"
    assert np.all(np.diff(quad.x) > 0), "cosine nodes must ascend"
    basis = build_basis(8)
    defect = basis.gram_defect()
    assert defect < 1e-12, f"per-m basis Gram defect {defect:.3e} too large"


def _check_round_spectrum() -> None:
    import numpy as np

    from .metrics import fs_metric
    from .pipeline import family_spectra

    (spectrum,) = family_spectra((fs_metric(),), 8)
    lam = spectrum.eigenvalues
    assert lam.size == 81, f"expected 81 modes, got {lam.size}"
    assert lam[0] == 0.0, f"kernel eigenvalue {lam[0]!r} is not exactly 0.0"
    for ell in range(1, 9):
        group = lam[ell * ell:(ell + 1) ** 2]
        exact = ell * (ell + 1) / 2.0
        rel = float(np.abs(group - exact).max()) / exact
        assert rel < 1e-12, f"multiplet ell={ell} is {rel:.3e} from l(l+1)/2"
    assert np.all(np.diff(lam) >= 0), "eigenvalues must ascend"


def _check_operators() -> None:
    import numpy as np

    from .heatzeta import heat_operator, theta
    from .metrics import fs_metric
    from .operators import InnerProduct, lidskii_defect, operator_norm, singular_values, trace_norm
    from .pipeline import family_spectra

    # theta(t) is the trace norm of the heat operator with the constants
    # projected out: block m = 0 once, each m >= 1 block for its two copies.
    (spectrum,) = family_spectra((fs_metric(),), 6)
    t = 0.7
    E = heat_operator(spectrum, t)
    M = spectrum.mass_blocks
    v0 = spectrum.block_vectors[0][:, 0]
    P0 = np.eye(M[0].shape[0]) - np.outer(v0, v0 @ M[0])
    norm = trace_norm(P0 @ E[0], InnerProduct.from_gram(M[0])) + sum(
        2.0 * trace_norm(E_m, InnerProduct.from_gram(M_m)) for E_m, M_m in zip(E[1:], M[1:])
    )
    bridge = abs(norm - theta(spectrum.eigenvalues, t))
    assert bridge < 1e-10, f"heat-trace bridge defect {bridge:.3e}"

    # five fixed, full-rank, non-normal matrices, so numpy.random stays unloaded
    i = np.arange(144.0).reshape(12, 12)
    for k in range(1, 6):
        A = np.sin(0.37 * k * i**2 / 12.0 + k)
        sv = singular_values(A, InnerProduct.from_gram(np.eye(12)))
        assert np.all(np.diff(sv) <= 1e-12), "singular values must descend"
        ip_id = InnerProduct.from_gram(np.eye(12))
        assert abs(np.trace(A)) <= trace_norm(A, ip_id) + 1e-10, "trace bound"
        assert trace_norm(A, ip_id) >= operator_norm(A, ip_id) - 1e-12, "norm order"
        assert lidskii_defect(A) <= 1e-10 * (1.0 + trace_norm(A, ip_id)), "trace vs eigenvalue sum"


def _check_heatzeta() -> None:
    import numpy as np

    from .heatzeta import _weighted_fit, exp_e1, geometric_grid, zeta_direct
    from .metrics import fs_metric
    from .pipeline import compute_zeta, family_spectral_data

    for x, want in _E1_REFERENCE.items():
        rel = abs(exp_e1(x) - want) / want
        assert rel < 1e-13, f"exponential integral at {x}: rel err {rel:.3e}"

    t = geometric_grid(0.05, 0.5, 40)
    synth = 3.0 / t + 5.0 + 0.1 * t
    coef = _weighted_fit(t, synth, 1.0)[0]
    err = max(abs(coef[0] - 3.0), abs(coef[1] - 5.0), abs(coef[2] - 0.1))
    assert err < 1e-10, f"synthetic expansion recovery off by {err:.3e}"

    point = zeta_direct(np.array([0.0, 1.0, 4.0]), 2.0)
    assert abs(point.value - 1.0625) < 1e-15, "zeta(2) of {1, 4}"

    (data,) = family_spectral_data((fs_metric(),), 16)
    zres = compute_zeta(data.eigenvalues, fs_metric())
    rel = abs(zres.fit.b_minus1 - data.volume) / data.volume
    assert rel < 0.02, f"leading coefficient vs volume: rel err {rel:.3e}"
    assert zres.error_budget < 0.05, f"round-metric budget {zres.error_budget:.3e}"


def _check_determinism() -> None:
    import json

    from .metrics import pnorm_metric
    from .pipeline import compute_zeta, family_spectral_data

    def payload() -> str:
        (data,) = family_spectral_data((pnorm_metric(3.0),), 16)
        zres = compute_zeta(data.eigenvalues, pnorm_metric(3.0))
        return json.dumps(
            {
                "eigenvalues": ["%.17g" % v for v in data.eigenvalues],
                "b": ["%.17g" % v for v in zres.fit.coefficients],
                "zeta_prime0": "%.17g" % zres.zeta_prime0,
            },
            sort_keys=True,
        )

    first = payload()
    second = payload()
    assert first == second, "repeated runs must serialize identically"


def _check_cache() -> None:
    import tempfile

    import numpy as np

    from .cache import SpectrumCache, spectrum_cache_key

    with tempfile.TemporaryDirectory() as root:
        cache = SpectrumCache(root)
        key = spectrum_cache_key("selftest-metric", 4, 10, "v1")
        other = spectrum_cache_key("selftest-metric", 4, 10, "v2")
        assert key != other, "solver version must enter the cache key"
        assert cache.load(key) is None, "empty cache must miss"
        values = np.linspace(0.0, 1.0, 5)
        cache.store(key, eigenvalues=values, volume=np.float64(2.0))
        hit = cache.load(key)
        assert hit is not None and np.array_equal(hit["eigenvalues"], values), "roundtrip"
        path = cache.path_for(key)
        path.write_bytes(b"not an archive")
        assert cache.load(key) is None, "corrupted entries must read as misses"


def run_selftest() -> tuple[dict[str, bool], list[str]]:
    """Run the whole battery; returns (tag -> ok, printable detail lines)."""
    from .harness import convergence_summary
    from .metrics import pnorm_family

    tags: dict[str, bool] = {}
    details: list[str] = []

    def run(name: str, fn) -> None:
        start = time.monotonic()
        try:
            fn()
            tags[name] = True
            details.append(f"ok   {name} ({time.monotonic() - start:.2f}s)")
        except Exception as e:  # noqa: BLE001 - report, do not abort the battery
            tags[name] = False
            details.append(
                f"FAIL {name} ({time.monotonic() - start:.2f}s): {type(e).__name__}: {e}"
            )

    run("quadrature", _check_quadrature)
    run("round_spectrum", _check_round_spectrum)
    run("operators", _check_operators)
    run("heatzeta", _check_heatzeta)
    run("determinism", _check_determinism)
    run("cache", _check_cache)

    family = pnorm_family(params=(1.0, 2.0, 3.0))
    start = time.monotonic()
    try:
        summary = convergence_summary(family, L=16, variation_u=1.5, variation_L=10)
        tags.update(summary.tags)
        for tag, ok in summary.tags.items():
            details.append(
                f"{'ok  ' if ok else 'FAIL'} {tag} "
                f"(family {summary.family_id}, L={summary.L})"
            )
        details.append(
            f"     harness block took {time.monotonic() - start:.2f}s"
        )
    except Exception as e:  # noqa: BLE001
        from .harness import THEOREM_TAGS

        for tag in THEOREM_TAGS:
            tags[tag] = False
        details.append(
            f"FAIL harness ({time.monotonic() - start:.2f}s): {type(e).__name__}: {e}"
        )
    return tags, details
