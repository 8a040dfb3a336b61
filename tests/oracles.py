"""Independent reference values for the test suite, computed with mpmath.

Everything in this module is re-derived from scratch: closed forms, series
with provable remainders, or high-precision quadrature. Nothing imports from
``zetasphere``, so the package under test can never feed its own output back
as an expectation.
"""

import functools
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

EULER_GAMMA = float(mp.euler)


@functools.lru_cache(maxsize=None)
def pnorm_volume(p: float) -> float:
    """Volume of the pnorm(p) factor: integral of (1+r^(2p))^(-2/p) dxdy/pi.

    Substituting x = r^(2p) turns the radial integral into a Beta function,
    giving Gamma(1/p)^2 / (p Gamma(2/p)). Checks: p = 1 -> 1, p = 2 -> pi/2.
    """
    q = mp.mpf(p)
    return float(mp.gamma(1 / q) ** 2 / (q * mp.gamma(2 / q)))


@functools.lru_cache(maxsize=None)
def round_zeta_prime0() -> float:
    """zeta'(0) of the round factor's operator, eigenvalues l(l+1)/2.

    Two independent continuations of Z(s) = sum (2l+1) (l(l+1))^(-s):

    * the classical closed form via zeta'(-1) for the l(l+1) spectrum,
      shifted by log(2) * Z(0) for the halved eigenvalues;
    * a Hurwitz-zeta expansion in powers of 1/(2l+1)^2, differentiated
      term by term at s = 0.

    Both are computed here and must agree to 1e-20 before the value is
    released to any test.
    """
    route_a = -mp.mpf(2) / 3 * mp.log(2) - mp.mpf(1) / 2 + 4 * mp.zeta(-1, 1, 1)

    half3 = mp.mpf(3) / 2
    z_at_0 = 2 * mp.zeta(-1, half3) + mp.mpf(1) / 4
    tail = mp.nsum(
        lambda k: mp.factorial(k - 1) / (4**k * mp.factorial(k)) * mp.zeta(2 * k - 1, half3),
        [2, mp.inf],
    )
    zp_at_0 = 4 * mp.zeta(-1, half3, 1) - mp.digamma(half3) / 2 + 2 * tail
    route_b = mp.log(2) * z_at_0 + zp_at_0

    assert abs(route_a - route_b) < mp.mpf("1e-20"), (route_a, route_b)
    assert abs(z_at_0 + mp.mpf(2) / 3) < mp.mpf("1e-25")
    return float(route_a)


ROUND_ZETA0 = -2.0 / 3.0  # Z(0) above; the kernel-excluded trace constant


@functools.lru_cache(maxsize=None)
def max_zeta_prime0() -> float:
    """zeta'(0) of the max factor's operator: -log 2 - 1/6 + 4 zeta'(-1).

    The max sphere is two flat unit disks glued along their rim (in w = 1/z
    the outer half is flat too), of volume 2, so log h_Q(max) =
    log 2 + zeta'(0) = -1/6 + 4 zeta'(-1). The closed form is released only
    after a second route agrees to 1e-15, the precision of the double that
    `round_zeta_prime0` returns: the round value moved by the exact anomaly,
    zeta'(0)(fs) - I(max, fs), with I integrated from the factors' first
    derivatives (`bott_chern_by_parts`) and both volumes 2.
    """
    closed = -mp.log(2) - mp.mpf(1) / 6 + 4 * mp.zeta(-1, 1, 1)
    with mp.workdps(40):
        transported = mp.mpf(round_zeta_prime0()) - _bott_chern_by_parts(mp_jet_max, mp_jet_fs)
    assert abs(closed - transported) < mp.mpf("1e-15"), (closed, transported)
    return float(closed)


def pnorm_zeta_prime0(p: float) -> float:
    """zeta'(0) of pnorm(p), p >= 1, by the exact smoothing law.

    The anomaly integral of pnorm(p) against max is exactly 1/(3p), so
    log h_Q(pnorm:p) = log h_Q(max) - 1/(3p) with log h_Q(max) =
    -1/6 + 4 zeta'(-1) (`max_zeta_prime0` plus log 2), and zeta'(0) is
    that minus log vol, the volume from `pnorm_volume`:

        -1/6 + 4 zeta'(-1) - 1/(3p) - log(Gamma(1/p)^2 / (p Gamma(2/p))).

    At p = 1, the round metric at half scale, this is -1/2 + 4 zeta'(-1).
    """
    q = mp.mpf(p)
    log_vol = mp.log(mp.gamma(1 / q) ** 2 / (q * mp.gamma(2 / q)))
    return float(-mp.mpf(1) / 6 + 4 * mp.zeta(-1, 1, 1) - 1 / (3 * q) - log_vol)


def zeta_prime0_by_anomaly(jet, ref_jet, ref_log_quillen: float, dps: int = 30) -> float:
    """zeta'(0) of a continuous radial factor, carried from a reference one.

    ``jet`` and ``ref_jet`` give (f, f') in r, as for `bott_chern_by_parts`;
    ``ref_log_quillen`` is log h_Q of the reference. Polyakov's formula
    gives log h_Q = ref_log_quillen - I(factor, reference), and zeta'(0) is
    that minus log vol, the volume 2 int lambda r dr by quadrature.
    """
    with mp.workdps(dps):
        vol = 2 * mp.quad(lambda x: mp.exp(jet(x)[0]) * x, [0, 1, mp.inf])
        log_quillen = mp.mpf(ref_log_quillen) - _bott_chern_by_parts(jet, ref_jet)
        return float(log_quillen - mp.log(vol))


def s_jet_pnorm(p: float, offset=0):
    """(F, F', F'', F''') in s = log r of the factor (1 + r^(2p))^(-2/p)
    times e^offset, in closed form: with the logistic
    sigma = r^(2p) / (1 + r^(2p)), F' = -4 sigma, F'' = -8p sigma (1 - sigma)
    and F''' = -16 p^2 sigma (1 - sigma) (1 - 2 sigma)."""
    q = mp.mpf(p)

    def jet(s):
        sig = 1 / (1 + mp.exp(-2 * q * s))
        one = 1 - sig
        return (offset - 2 / q * mp.log1p(mp.exp(2 * q * s)), -4 * sig,
                -8 * q * sig * one, -16 * q**2 * sig * one * (one - sig))

    return jet


def s_jet_fs(s):
    """`s_jet_pnorm` of the round factor 2 / (1 + r^2)^2."""
    return s_jet_pnorm(1, mp.log(2))(s)


def s_jet_geomean(jet_a, jet_b):
    """s-jet of the geometric mean of two factors: the average of the parts."""
    return lambda s: tuple((a + b) / 2 for a, b in zip(jet_a(s), jet_b(s)))


def s_jet_blend(jet_a, jet_b, rho: float):
    """s-jet of log((1 - rho) e^A + rho e^B), A and B the s-jets' F.

    The derivatives of the log of a sum of exponentials are the cumulants
    of the mixture with shares w_a, w_b: F' = w_a A' + w_b B',
    F'' = w_a A'' + w_b B'' + w_a w_b D^2 and the third adds
    3 w_a w_b D D_2 + w_a w_b (w_b - w_a) D^3 to the weighted mean of the
    third derivatives, with D = A' - B' and D_2 = A'' - B''.
    """

    def jet(s):
        A, B = list(jet_a(s)), list(jet_b(s))
        A[0] += mp.log(1 - mp.mpf(rho))
        B[0] += mp.log(mp.mpf(rho))
        F0 = mp.log(mp.exp(A[0]) + mp.exp(B[0]))
        wa, wb = mp.exp(A[0] - F0), mp.exp(B[0] - F0)
        d1, d2 = A[1] - B[1], A[2] - B[2]
        return (
            F0,
            wa * A[1] + wb * B[1],
            wa * A[2] + wb * B[2] + wa * wb * d1**2,
            wa * A[3] + wb * B[3] + 3 * wa * wb * d1 * d2 + wa * wb * (wb - wa) * d1**3,
        )

    return jet


def r_jet(s_jet):
    """(f, f') in r of a factor given by its s-jet: f' = F'(log r) / r."""

    def jet(x):
        F = s_jet(mp.log(x))
        return F[0], F[1] / x

    return jet


def heat_invariants(s_jet, dps: int = 20) -> tuple[float, float]:
    """b_1 and b_2 of a smooth radial factor given by its s-jet in s = log r.

    With r = e^s and the s-derivatives F1, F2, F3 of F = log lambda:
    c1 = -F2 / (4 r^2), dc1/dr = -(F3 - 2 F2) / (4 r^3), K = 2 c1 / lambda,
    dK/dr = 2 (dc1/dr - c1 F1 / r) / lambda, and int g r dr = int g r^2 ds:

        b_1 = (1/30) int c1^2 / lambda r dr,
        b_2 = (1/32) int ((4/315) K^3 lambda - (1/70) (dK/dr)^2) r dr.

    The integrands fall like e^(-2|s|) or faster, so [-40, 40] leaves out
    less than 1e-30.
    """
    with mp.workdps(dps):
        @functools.lru_cache(maxsize=None)
        def parts(s):
            F0, F1, F2, F3 = s_jet(s)
            r = mp.exp(s)
            lam = mp.exp(F0)
            c1 = -F2 / (4 * r**2)
            dc1 = -(F3 - 2 * F2) / (4 * r**3)
            dK = 2 * (dc1 - c1 * F1 / r) / lam
            return r**2 * c1**2 / lam, r**2 * (mp.mpf(32) / 315 * c1**3 / lam**2 - dK**2 / 70)

        pts = [-40, -10, -2, 0, 2, 10, 40]
        b1 = mp.quad(lambda s: parts(s)[0], pts) / 30
        b2 = mp.quad(lambda s: parts(s)[1], pts) / 32
        return float(b1), float(b2)


def e1(x: float) -> float:
    """Exponential integral E1 at high precision."""
    return float(mp.e1(mp.mpf(x)))


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int, dps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n at ``dps`` digits, from the guesses
    cos(pi (4k - 1) / (4n + 2)), each root iterated until its step is below
    10^(5 - dps); the weight is 2 / ((1 - x^2) P_n'(x)^2) at that precision.
    The upper-half roots are found one by one and mirrored; the result must
    come out strictly ascending, so no root is found twice.
    """

    def value_and_slope(x):
        p_prev, p = mp.mpf(1), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, n * (p_prev - x * p) / (1 - x * x)

    with mp.workdps(dps):
        upper = []
        for k in range((n + 1) // 2, 0, -1):
            x = mp.cos(mp.pi * (4 * k - 1) / (4 * n + 2))
            for _ in range(100):
                p, dp = value_and_slope(x)
                step = p / dp
                x -= step
                if abs(step) < mp.mpf(10) ** (5 - dps):
                    break
            else:
                raise AssertionError(f"Newton did not settle on a root of P_{n}")
            _, dp = value_and_slope(x)
            upper.append((x, 2 / ((1 - x * x) * dp * dp)))
        if n % 2:
            upper[0] = (mp.mpf(0), upper[0][1])
        nodes = [-x for x, _ in upper[n % 2:][::-1]] + [x for x, _ in upper]
        weights = [w for _, w in upper[n % 2:][::-1]] + [w for _, w in upper]
        x = np.array([float(v) for v in nodes])
        w = np.array([float(v) for v in weights])
    assert x.size == n and np.all(np.diff(x) > 0.0), n
    return x, w


def sup_log_pnorm_to_max(p: float) -> float:
    """sup over the sphere of |log(lambda_pnorm(p) / lambda_max)|.

    Both log densities agree as r -> 0 and r -> inf; the gap
    (2/p) log(1 + r^(-2p|...|)) peaks at r = 1 with value (2/p) log 2.
    """
    return float(2 * mp.log(2) / mp.mpf(p))


def bott_chern_pnorm_pair(p: float, q: float) -> float:
    """Anomaly integral between pnorm(p) and pnorm(q): (1/3)(1/p - 1/q).

    The closed form is cross-checked against direct high-precision radial
    quadrature of -(1/12) int dlog (c1_p + c1_q), with the curvature density
    c1 = 2p r^(2p-2) / (1+r^(2p))^2 derived from the radial Laplacian of
    log lambda.
    """
    pp, qq = mp.mpf(p), mp.mpf(q)

    def dlog(r):
        return -2 / pp * mp.log1p(r ** (2 * pp)) + 2 / qq * mp.log1p(r ** (2 * qq))

    def c1(r, a):
        return 2 * a * r ** (2 * a - 2) / (1 + r ** (2 * a)) ** 2

    quad = -mp.mpf(1) / 12 * 2 * mp.quad(
        lambda r: dlog(r) * (c1(r, pp) + c1(r, qq)) * r, [0, 1, mp.inf]
    )
    closed = (1 / pp - 1 / qq) / 3
    assert abs(quad - closed) < mp.mpf("1e-22"), (quad, closed)
    return float(closed)


def pnorm_c1_density(r, p: float):
    """Curvature density of pnorm(p) against dxdy/pi: 2p r^(2p-2)/(1+r^(2p))^2."""
    r = np.asarray(r, dtype=float)
    return 2.0 * p * r ** (2.0 * p - 2.0) / (1.0 + r ** (2.0 * p)) ** 2


def mp_log_fs(x):
    """log of the round factor 2/(1 + x^2)^2 in mpmath."""
    return mp.log(2) - 2 * mp.log1p(x**2)


def mp_log_pnorm(p: float):
    """log of the pnorm factor (1 + x^(2p))^(-2/p) as an mpmath function."""
    return lambda x: -2 / mp.mpf(p) * mp.log1p(x ** (2 * mp.mpf(p)))


def mp_jet_fs(x):
    """(f, f') of the round factor in mpmath, f = log 2 - 2 log(1 + x^2)."""
    return mp_log_fs(x), -4 * x / (1 + x**2)


def mp_jet_pnorm(p: float):
    """(f, f') of the pnorm factor as an mpmath function of x."""
    q = mp.mpf(p)
    return lambda x: (mp_log_pnorm(p)(x), -4 * x ** (2 * q - 1) / (1 + x ** (2 * q)))


def mp_jet_max(x):
    """(f, f') of the max factor: 0 inside the unit circle, -4 log x outside;
    at x = 1 f' is the inner one-sided value."""
    return (mp.mpf(0), mp.mpf(0)) if x <= 1 else (-4 * mp.log(x), -4 / mp.mpf(x))


def mp_jet_geomean(jet_a, jet_b):
    """(f, f') of the geometric mean of two factors: the parts' average."""
    return lambda x: tuple((a + b) / 2 for a, b in zip(jet_a(x), jet_b(x)))


def _bott_chern_by_parts(jet_p, jet_q):
    g_inf = jet_p(mp.mpf(10) ** 20)[0] - jet_q(mp.mpf(10) ** 20)[0]

    def energy(x):
        dp, dq = jet_p(x)[1], jet_q(x)[1]
        return x * (dp * dp - dq * dq)

    return -(4 * g_inf + mp.quad(energy, [0, 1, mp.inf]) / 2) / 12


def bott_chern_by_parts(jet_p, jet_q, dps: int = 40) -> float:
    """Anomaly integral I(p, q) of two continuous radial factors from f' alone.

    ``jet_p`` and ``jet_q`` give (f, f') with f = log lambda. The curvature
    measure of a radial factor against dx dy / pi is mu = -(1/2) d(r f'),
    a kink's line mass included (the jump of r f' there). With
    g = log(h_p/h_q), r f' -> 0 at 0 and r f' -> -4 at infinity, parts give

        int g dmu = 2 g(inf) + (1/2) int_0^inf g' r f' dr,

    so I(p, q) = -(1/12) [4 g(inf) + (1/2) int r (f_p'^2 - f_q'^2) dr]: no
    second derivative and no line mass enters. The integral splits at the
    kink circle r = 1, and g(inf) is read at r = 1e20.
    """
    with mp.workdps(dps):
        return float(_bott_chern_by_parts(jet_p, jet_q))


def mp_log_blend(log_a, log_b, rho: float):
    """log((1 - rho) e^log_a + rho e^log_b): a convex blend of two factors.

    Written as log_a + log1p(rho expm1(log_b - log_a)), which keeps full
    relative precision where both logs are tiny.
    """
    return lambda x: log_a(x) + mp.log1p(mp.mpf(rho) * mp.expm1(log_b(x) - log_a(x)))


def mp_bump(x):
    """The blend's transition function in mpmath: 0 for x <= 0, 1 for x >= 1
    and e^(-1/x) / (e^(-1/x) + e^(-1/(1-x))) in between."""
    if x <= 0:
        return mp.mpf(0)
    if x >= 1:
        return mp.mpf(1)
    f, g = mp.exp(-1 / x), mp.exp(-1 / (1 - x))
    return f / (f + g)


def d_log_blend_du(log_a, log_b, x: float, r: float, dps: int = 40) -> float:
    """d/du of log((1 - rho) e^log_a + rho e^log_b) at radius r, rho = bump.

    On a segment of the family the blend's argument is x = u - k + 1, so the
    u-derivative is the x-derivative at ``x``, taken by mpmath's numerical
    differentiation at ``dps`` digits.
    """
    with mp.workdps(dps):
        x0, r0 = mp.mpf(x), mp.mpf(r)
        return float(mp.diff(lambda s: mp_log_blend(log_a, log_b, mp_bump(s))(r0), x0))


def radial_jet(log_lambda, r: float, dps: int = 40) -> tuple[float, float, float, float]:
    """(f, f', c1, dc1/dr) of a radial factor with f = log_lambda(x), at r > 0.

    c1 = -(f'' + f'/r)/4 is the curvature density against dx dy / pi, the
    radial form of -d2/dz dzbar f, and dc1/dr = -(f''' + f''/r - f'/r^2)/4.
    The derivatives come from mpmath's numerical differentiation at ``dps``
    digits.
    """
    with mp.workdps(dps):
        x = mp.mpf(r)
        f, d1, d2, d3 = mp.diffs(log_lambda, x, 3)
        return (float(f), float(d1), float(-(d2 + d1 / x) / 4),
                float(-(d3 + d2 / x - d1 / x**2) / 4))


def inverted_log_density(log_density, w):
    """log of a radial factor in the coordinate w = 1/z, at radii |w| > 0.

    Gluing rule of the two standard charts: lambda_w(w) = lambda(1/|w|) |w|^-4.
    """
    w = np.asarray(w, dtype=float)
    return log_density(1.0 / w) - 4.0 * np.log(w)


def log_density_at_infinity(log_density, R: float = 1e8) -> float:
    """log lambda(R) + 4 log R: the factor in the coordinate w = 1/z near w = 0."""
    return float(log_density(np.array([R]))[0] + 4.0 * math.log(R))


def closed_form_zeta_prime(eigenvalues, b_minus1: float, b0: float, b1: float,
                           b2: float, t_lo: float) -> float:
    """zeta'(0) of a trace theta(t) = sum exp(-lambda t) over the positive
    spectrum above t_lo and b_-1/t + b_0 + b_1 t + b_2 t^2 below it:

        sum_k E1(lambda_k t_lo) - b_-1/t_lo - b_0 (log(1/t_lo) - gamma)
        + b_1 t_lo + b_2 t_lo^2 / 2.
    """
    lam = [mp.mpf(v) for v in eigenvalues if v > 0]
    tl = mp.mpf(t_lo)
    total = mp.fsum(mp.e1(v * tl) for v in lam)
    total -= mp.mpf(b_minus1) / tl
    total -= mp.mpf(b0) * (mp.log(1 / tl) - mp.euler)
    total += mp.mpf(b1) * tl + mp.mpf(b2) * tl**2 / 2
    return float(total)


def e1_zeta_prime_parts(eigenvalues, t_lo: float) -> float:
    """The spectral part of zeta'(0) from mpmath's E1.

    Over the positive spectrum, int_{t_lo}^inf theta(t)/t dt is
    sum_k E1(lambda_k t_lo), the only part of the closed form that reads
    the eigenvalues.
    """
    tl = mp.mpf(t_lo)
    return float(mp.fsum(mp.e1(mp.mpf(v) * tl) for v in eigenvalues if v > 0))


def zeta_mellin(eigenvalues, s: float) -> float:
    """zeta(s) = (1/Gamma(s)) int_0^inf t^(s-1) theta(t) dt by panel quadrature.

    The discrete trace theta(t) = sum exp(-lambda t) over the positive
    spectrum is finite at t = 0+, so the integral needs no model head. It
    runs over 48 geometric panels of [1e-10, 60/lambda_1] with 20
    Gauss-Legendre nodes each (``gauss_legendre`` above). Below 1e-10 the
    integrand is at most n t^(s-1), contributing under n 1e-10^s / s, about
    1e-12 relative; above, the trace has decayed by exp(-60), and its tail
    is bounded by theta(t_hi) t_hi^(s-1) / lambda_1, which is added. Needs
    s > 1.
    """
    if s <= 1.0:
        raise ValueError(f"Mellin route implemented for s > 1, got {s}")
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 0.0]
    t_hi = 60.0 / lam[0]
    xg, wg = gauss_legendre(20)
    edges = np.geomspace(1e-10, t_hi, 49)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * xg).ravel()
    w = (half[:, None] * wg).ravel()
    theta = np.exp(-np.multiply.outer(t, lam)).sum(axis=1)
    tail = np.exp(-lam * t_hi).sum() * t_hi ** (s - 1.0) / lam[0]
    return float((np.sum(w * t ** (s - 1.0) * theta) + tail) / math.gamma(s))


def finite_spectrum_log_det(eigenvalues) -> float:
    """-zeta'(0) has no regularization for a finite spectrum: sum log lambda."""
    return float(mp.fsum(mp.log(mp.mpf(v)) for v in eigenvalues if v > 0))


def finite_spectrum_correction(eigenvalues, b_minus1: float, b0: float,
                               b1: float, b2: float, t_lo: float) -> float:
    """Exact offset of the zeta'(0) closed form from -sum log(lambda_k).

    For a finite positive spectrum the identity
        -sum log lambda = sum E1(lambda t_lo) + int_0^{t_lo} (theta - N)/t dt
                          + N (gamma + log t_lo)
    holds with N the number of positive modes. Evaluating the closed form
    ``closed_form_zeta_prime`` with arbitrary coefficients (b_-1, b_0, b_1,
    b_2) and subtracting gives the offset returned here:

        -int_0^{t_lo} (theta - N)/t dt + (N - b_0)(log(1/t_lo) - gamma)
        - b_-1/t_lo + b_1 t_lo + b_2 t_lo^2 / 2.
    """
    lam = [mp.mpf(v) for v in eigenvalues if v > 0]
    n = len(lam)
    tl = mp.mpf(t_lo)

    def integrand(t):
        return (mp.fsum(mp.exp(-v * t) for v in lam) - n) / t

    head = mp.quad(integrand, [0, tl])
    out = -head
    out += (n - mp.mpf(b0)) * (mp.log(1 / tl) - mp.euler)
    out += -mp.mpf(b_minus1) / tl + mp.mpf(b1) * tl + mp.mpf(b2) * tl**2 / 2
    return float(out)


def power_iteration_sigma(A: np.ndarray, gram: np.ndarray, seed: int,
                          n_starts: int = 20, n_iters: int = 200) -> float:
    """Largest weighted singular value by brute force.

    Maximizes ||A v||_G / ||v||_G with the G-adjoint A* = G^{-1} A^T G via
    power iteration on A* A from random starts; no SVD anywhere.
    """
    rng = np.random.RandomState(seed)
    n = A.shape[0]
    best = 0.0
    for _ in range(n_starts):
        v = rng.randn(n)
        for _ in range(n_iters):
            w = np.linalg.solve(gram, A.T @ (gram @ (A @ v)))
            nrm = np.sqrt(w @ (gram @ w))
            if nrm == 0.0:
                break
            v = w / nrm
        av = A @ v
        num = np.sqrt(av @ (gram @ av))
        den = np.sqrt(v @ (gram @ v))
        if den > 0.0:
            best = max(best, num / den)
    return float(best)


def duhamel_integral_by_quadrature(block_values, block_vectors, mass_blocks, d_blocks,
                                   t: float, n: int) -> list[np.ndarray]:
    """int_0^t E(t - s) D E(s) ds per block, E(s) = V diag(exp(-s lam)) V^T M,
    by an ``n``-point Gauss-Legendre rule on [0, t]."""
    xg, wg = gauss_legendre(n)
    s_nodes = 0.5 * t * (xg + 1.0)
    s_wts = 0.5 * t * wg
    out = []
    for lam, V, M, D in zip(block_values, block_vectors, mass_blocks, d_blocks):
        # E(t - s) and E(s) of this block at every node, as two stacks
        VtM = V.T @ M
        late = (V * np.exp(-(t - s_nodes)[:, None] * lam)[:, None, :]) @ VtM
        early = (V * np.exp(-s_nodes[:, None] * lam)[:, None, :]) @ VtM
        out.append(np.einsum("k,kij->ij", s_wts, late @ D @ early))
    return out


def dense_matrix(blocks) -> np.ndarray:
    """The n x n matrix holding per-m blocks on their flat harmonic rows.

    The flat index lists, for each ell, the zonal function, then the cos and
    sin functions of m = 1..ell: position ell^2 for m = 0 and
    ell^2 + 2m - 1, ell^2 + 2m for the cos and sin copies. Block m holds the
    rows ell = m..L of each copy. ``blocks`` may be any iterable of them.
    """
    blocks = tuple(blocks)
    L = len(blocks) - 1
    n = (L + 1) ** 2
    out = np.zeros((n, n))
    for m in range(L + 1):
        ells = np.arange(m, L + 1)
        for offset in ((0,) if m == 0 else (2 * m - 1, 2 * m)):
            rows = ells * ells + offset
            out[np.ix_(rows, rows)] = blocks[m]
    return out


def exact_stiffness_blocks(L: int) -> list[np.ndarray]:
    """Dirichlet-form blocks K_m = diag(ell (ell + 1)), ell = m..L, in closed form.

    The Dirichlet form is conformally invariant, so it is the round one, and
    the real harmonics are round-Laplacian eigenfunctions with eigenvalue
    ell (ell + 1), orthonormal for the round probability measure.
    """
    return [np.diag(np.arange(m, L + 1.0) * np.arange(m + 1.0, L + 2.0)) for m in range(L + 1)]


def mp_block_eigenvalues(mass_block: np.ndarray, m: int, L: int, dps: int = 40) -> np.ndarray:
    """Ascending eigenvalues of diag(ell (ell + 1)) v = lambda M v, ell = m..L,
    solved in ``dps``-digit arithmetic.

    The float block M is taken as exact. With M = C C^T (mpmath Cholesky),
    the pencil's eigenvalues are those of the symmetric C^-1 D C^-T, which
    mpmath's symmetric solver ``eigsy`` returns.
    """
    with mp.workdps(dps):
        Ci = mp.inverse(mp.cholesky(mp.matrix(mass_block.tolist())))
        D = mp.diag([ell * (ell + 1) for ell in range(m, L + 1)])
        E = mp.eigsy(Ci * D * Ci.T, eigvals_only=True)
        return np.sort(np.array([float(e) for e in E]))


def dense_pencil_eigenvalues(stiffness_blocks, mass_blocks) -> np.ndarray:
    """Eigenvalues of the dense n x n pencil scattered from per-m blocks.

    This is the full generalized solve (LAPACK sygvd through scipy) on the
    flat harmonic index of `dense_matrix`.
    """
    import scipy.linalg

    K, M = dense_matrix(stiffness_blocks), dense_matrix(mass_blocks)
    return scipy.linalg.eigh(K, M, eigvals_only=True, driver="gvd")


def dense_pencil_function(stiffness_blocks, mass_blocks, f) -> np.ndarray:
    """f(M^-1 K) as the n x n matrix V diag(f(lam)) V^T M of the dense pencil.

    V holds the M-orthonormal eigenvectors of the dense sygvd solve, so
    degenerate clusters come out in whatever basis LAPACK picks; the matrix
    does not depend on that choice.
    """
    import scipy.linalg

    K, M = dense_matrix(stiffness_blocks), dense_matrix(mass_blocks)
    lam, V = scipy.linalg.eigh(K, M, driver="gvd")
    return (V * f(lam)[None, :]) @ (V.T @ M)


def weighted_operator_norm(A: np.ndarray, gram: np.ndarray) -> float:
    """sup ||A v||_G / ||v||_G as the top singular value of C^T A C^-T, G = C C^T."""
    import scipy.linalg

    C = np.linalg.cholesky(gram)
    X = scipy.linalg.solve_triangular(C, (C.T @ A).T, lower=True).T
    return float(np.linalg.svd(X, compute_uv=False)[0])


def dense_gram_pencil_top(mass_blocks, ref_mass_blocks) -> float:
    """Largest generalized eigenvalue of the dense pencil (M, M_ref)."""
    import scipy.linalg

    M, M_ref = dense_matrix(mass_blocks), dense_matrix(ref_mass_blocks)
    return float(scipy.linalg.eigh(M, M_ref, eigvals_only=True, driver="gvd")[-1])


def full_grid_mass(L: int, density, n_theta: int | None = None,
                   n_phi: int | None = None) -> np.ndarray:
    """Mass matrix of a conformal factor on the full (colatitude x azimuth) grid.

    ``density`` maps chart-0 radii r to lambda(r). The rule is its own: two
    Gauss-Legendre panels of ``n_theta`` nodes in x = cos(theta), split at
    the equator, times ``n_phi`` uniform azimuth nodes, both 2L + 2 by
    default. The harmonics are built from scipy's P_l^m with the
    normalization written out, times 1, sqrt(2) cos(m phi), sqrt(2) sin(m phi),
    on the flat index of `dense_matrix`. No radial symmetry is used: each
    entry sums lambda (1 + r^2)^2 Y_i Y_j over every grid node against the
    round probability measure.
    """
    from scipy.special import lpmv, roots_legendre

    n_theta = 2 * L + 2 if n_theta is None else n_theta
    n_phi = 2 * L + 2 if n_phi is None else n_phi
    xg, wg = roots_legendre(n_theta)
    x = np.concatenate([0.5 * (xg - 1.0), 0.5 * (xg + 1.0)])
    wx = np.concatenate([0.5 * wg, 0.5 * wg])
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    n = (L + 1) ** 2
    Y = np.empty((n, x.size, n_phi))
    for ell in range(L + 1):
        for m in range(ell + 1):
            norm = math.sqrt((2 * ell + 1) * math.factorial(ell - m) / math.factorial(ell + m))
            p = (-1.0) ** m * norm * lpmv(m, ell, x)
            if m == 0:
                Y[ell * ell] = p[:, None] * np.ones(n_phi)
            else:
                Y[ell * ell + 2 * m - 1] = p[:, None] * (math.sqrt(2.0) * np.cos(m * phi))
                Y[ell * ell + 2 * m] = p[:, None] * (math.sqrt(2.0) * np.sin(m * phi))
    r = np.sqrt((1.0 - x) / (1.0 + x))
    ratio = density(r) * (1.0 + r * r) ** 2
    w = (wx * ratio / 2.0)[:, None] * np.full(n_phi, 1.0 / n_phi)
    Y = Y.reshape(n, -1)
    return (Y * w.reshape(-1)[None, :]) @ Y.T


def pnorm_density(p: float):
    """The pnorm(p) conformal factor (1 + r^(2p))^(-2/p) as a function of r."""
    return lambda r: (1.0 + np.asarray(r, dtype=float) ** (2.0 * p)) ** (-2.0 / p)


def max_density(r):
    """The max conformal factor 1 / max(1, r)^4."""
    return 1.0 / np.maximum(1.0, np.asarray(r, dtype=float)) ** 4


def dense_legendre_tables(L: int, x):
    """Dense tables pbar, dpbar, qbar of shape (L+1, L+1, len(x)).

    The three-table recurrence, kept unchanged as the reference for the
    package's per-m Legendre blocks: entry [ell, m] holds Pbar_{ell m}(x),
    its theta derivative, and Pbar_{ell m}(x) / sin(theta) for m >= 1
    (generated by the same ell-recurrence from a diagonal seed with the sine
    divided out); entries with m > ell are zero.
    """
    x = np.asarray(x, dtype=float)
    nx = x.size
    s = np.sqrt(1.0 - x * x)

    pbar = np.zeros((L + 1, L + 1, nx))
    qbar = np.zeros((L + 1, L + 1, nx))

    pbar[0, 0] = 1.0
    for m in range(1, L + 1):
        c = np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        pbar[m, m] = c * s * pbar[m - 1, m - 1]
        if m == 1:
            qbar[1, 1] = c
        else:
            qbar[m, m] = c * s * qbar[m - 1, m - 1]
    for m in range(0, L + 1):
        if m + 1 <= L:
            c = np.sqrt(2.0 * m + 3.0)
            pbar[m + 1, m] = c * x * pbar[m, m]
            if m >= 1:
                qbar[m + 1, m] = c * x * qbar[m, m]
        for ell in range(m + 2, L + 1):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            b = np.sqrt(((ell - 1.0) ** 2 - m * m) / (4.0 * (ell - 1.0) ** 2 - 1.0))
            pbar[ell, m] = a * (x * pbar[ell - 1, m] - b * pbar[ell - 2, m])
            if m >= 1:
                qbar[ell, m] = a * (x * qbar[ell - 1, m] - b * qbar[ell - 2, m])

    dpbar = np.zeros_like(pbar)
    for ell in range(1, L + 1):
        dpbar[ell, 0] = -np.sqrt(ell * (ell + 1.0)) * pbar[ell, 1]
        for m in range(1, ell + 1):
            lo = np.sqrt((ell + m) * (ell - m + 1.0)) * pbar[ell, m - 1]
            hi = 0.0
            if m + 1 <= ell:
                hi = np.sqrt((ell - m) * (ell + m + 1.0)) * pbar[ell, m + 1]
            dpbar[ell, m] = 0.5 * (lo - hi)
    return pbar, dpbar, qbar


def dense_stiffness_terms(L: int, x, weights):
    """Per-m Gram terms of the Dirichlet form from the dense tables.

    Returns (radial, angular): radial[m] pairs the d/dr rows dpbar dtheta/dr,
    angular[m] the (1/r) d/dphi amplitudes qbar dtheta/dr (divided by m),
    both against the plane weight weights (1 + r^2)^2 / 4 at r = tan(theta/2).
    The stiffness block is the symmetric part of radial[m] + m^2 angular[m].
    """
    _, dpbar, qbar = dense_legendre_tables(L, x)
    x = np.asarray(x, dtype=float)
    r = np.sqrt((1.0 - x) / (1.0 + x))
    jac = 2.0 / (1.0 + r * r)
    gw = weights * (1.0 + r * r) ** 2 / 4.0
    radial, angular = [], []
    for m in range(L + 1):
        dth = dpbar[m:, m] * jac[None, :]
        radial.append((dth * gw[None, :]) @ dth.T)
        q = qbar[m:, m] * jac[None, :]
        angular.append((q * gw[None, :]) @ q.T)
    return radial, angular


def dense_stiffness_blocks(L: int, x, weights):
    """Stiffness blocks K_m assembled from the dense tables."""
    radial, angular = dense_stiffness_terms(L, x, weights)
    blocks = []
    for m, (rad, ang) in enumerate(zip(radial, angular)):
        blk = rad + (m * m) * ang if m > 0 else rad
        blocks.append(0.5 * (blk + blk.T))
    return blocks
