"""Fast built-in checks behind the ``selftest`` subcommand.

Each check is a small, self-contained assertion battery; together they
touch every module at low degree so a fresh checkout can verify itself in
a few seconds. The operator check works on the azimuthal blocks, like the
rest of the package: a reducer takes the heat operator's trace norm in the
mass inner product block by block as the solve hands each block over, and
the sum must equal the heat trace. The battery needs numpy
alone: the exponential integral is checked against reference values written
out below. The convergence checks reuse the harness on a short family and
report its named tags directly. Only the cache check touches a spectrum
cache, in a temporary directory of its own.
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

# zeta'(0) of the round metric fs: -(2/3) log 2 - 1/2 + 4 zeta'(-1) (mpmath).
_FS_ZETA_PRIME0 = -1.6237826951751007


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
    from .pipeline import family_spectral_data

    (spectrum,) = family_spectral_data((fs_metric(),), 8)
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

    from .discretize import build_basis, masses
    from .eigensolve import block_function, family_eigvals, singular_values
    from .heatzeta import theta_values
    from .metrics import fs_metric

    # theta(t) is the trace norm of the heat operator with the constants
    # projected out: block m = 0 once, each m >= 1 block for its two copies.
    t, norms = 0.7, []

    def trace_norm(m, M, lam, V):
        E = block_function(lam[0], V[0], M[0], lambda x: np.exp(-t * x))
        if m == 0:
            v0 = V[0][:, 0]
            E = (np.eye(len(v0)) - np.outer(v0, v0 @ M[0])) @ E
        norms.append((1.0 if m == 0 else 2.0) * singular_values(E, M[0]).sum())

    (spectrum,) = family_eigvals(masses(build_basis(6), (fs_metric(),)), 6, ("fs",), trace_norm)
    bridge = abs(sum(norms) - theta_values(spectrum.eigenvalues, np.array([t]))[0])
    assert bridge < 1e-10, f"heat-trace bridge defect {bridge:.3e}"


def _check_heatzeta() -> None:
    import numpy as np

    from .heatzeta import exp_e1, heat_invariants, zeta_direct, zeta_result
    from .metrics import fs_metric
    from .pipeline import family_spectral_data

    for x, want in _E1_REFERENCE.items():
        rel = abs(exp_e1(x) - want) / want
        assert rel < 1e-13, f"exponential integral at {x}: rel err {rel:.3e}"

    b1, b2 = heat_invariants(fs_metric())
    err = max(abs(b1 - 1.0 / 30.0), abs(b2 - 1.0 / 315.0))
    assert err < 1e-14, f"round-metric heat invariants off by {err:.3e}"

    point = zeta_direct(np.array([0.0, 1.0, 4.0]), 2.0)
    assert abs(point.value - 1.0625) < 1e-15, "zeta(2) of {1, 4}"

    (data,) = family_spectral_data((fs_metric(),), 16)
    zres = zeta_result(data, fs_metric())
    err = abs(zres.zeta_prime0 - _FS_ZETA_PRIME0)
    assert err <= zres.error_budget, (
        f"round-metric zeta'(0) off by {err:.3e}, budget {zres.error_budget:.3e}"
    )


def _check_determinism() -> None:
    import json

    from .heatzeta import zeta_result
    from .metrics import pnorm_metric
    from .pipeline import family_spectral_data

    def payload() -> str:
        (data,) = family_spectral_data((pnorm_metric(3.0),), 16)
        zres = zeta_result(data, pnorm_metric(3.0))
        return json.dumps(
            {
                "eigenvalues": ["%.17g" % v for v in data.eigenvalues],
                "budget": "%.17g" % zres.error_budget,
                "zeta_prime0": "%.17g" % zres.zeta_prime0,
            },
            sort_keys=True,
        )

    first = payload()
    second = payload()
    assert first == second, "repeated runs must serialize identically"


def _check_cache() -> None:
    import tempfile

    from .metrics import fs_metric
    from .pipeline import SpectrumCache, family_spectral_data

    metric = fs_metric()
    with tempfile.TemporaryDirectory() as root:
        cache = SpectrumCache(root)
        assert cache.load(metric.id, 4) is None, "empty cache must miss"
        (solved,) = family_spectral_data((metric,), 4, cache)
        hit = cache.load(metric.id, 4)
        assert hit is not None, "a stored spectrum must load"
        for name in ("eigenvalues", "nested"):
            assert getattr(hit, name).tobytes() == getattr(solved, name).tobytes(), name
        assert hit.volume == solved.volume, "volume roundtrip"
        cache.path_for(metric.id, 4).write_bytes(b"not an archive")
        assert cache.load(metric.id, 4) is None, "corrupted entries must read as misses"


def run_selftest() -> tuple[dict[str, bool], list[str]]:
    """Run the whole battery; returns (tag -> ok, printable detail lines)."""
    from .harness import convergence_summary
    from .metrics import metric_family

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

    family = metric_family("pnorm", (1.0, 2.0, 3.0))
    start = time.monotonic()
    try:
        summary = convergence_summary(family, L=16)
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
