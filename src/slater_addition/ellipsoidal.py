"""Two-centre test integral in prolate spheroidal coordinates.

T(a,bc) couples three exponential centres on a line with separation R:

    T(a,bc) = 2 R^3 int_1^inf dlam int_{-1}^{1} dmu
              ((lam - mu)/R + (lam^2 - mu^2)) e^{-3R lam - R mu}
              e^{-R sqrt(lam^2 + mu^2 - 1)}.

Three routes are provided: the 2-D quadrature oracle, the exact
Ei/exponential closed form, and the single-series expansion obtained by
inserting the derivative-form addition theorem (the exponential carries no
1/L denominator here, so the series of Macdonald order n - 1/2 applies with
C = lam^2 and B = mu^2 - 1).  The oracle integrates in lam = 1 + t^2, which
removes the sqrt(lam - 1) edge of the root at lam = 1, over mu folded onto
[0, 1], with the peak factor e^{-3R} applied after the quadrature.  The series
takes each increment in O(1): its J-sums over Gamma(a, 4R) are integrals H_m(s) of
K_{m+1/2}, carried by three recurrences on one upward K walk at z = R, anchored where
they are stable by one sum over a short gamma_walk(3, 4R); its I_{k+1/2}(R) come off
one Miller Bessel-I walk, read as each increment first needs it.
It decays algebraically after a few terms; stall_detector quantifies the plateau the
way the convergence study reports it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

from .errors import CapacityError, DomainError, RangeError, _check_index
from .quadrature import QuadratureResult, integrate_2d
from .specfun import bessel_i_walk, exp_integral_ei, gamma_walk, k_half_coef
from .theorems import DEFAULT_POLICY, SeriesEvaluation, TruncationPolicy, accumulate_series

__all__ = [
    "EllipsoidalParams",
    "StallReport",
    "t_abc_integrand",
    "t_abc_oracle",
    "t_abc_exact",
    "t_abc_term",
    "t_abc_series",
    "stall_detector",
]

_SQRT_PI = math.sqrt(math.pi)
_SERIES_SCALE = _SQRT_PI * 2.0**1.5  # sqrt(pi) 2^{3/2}, the H form's prefactor
# the series' smallest R: below it Gamma(-2, 4R) ~ 1/(32 R^2), read by increment 2, leaves
# double precision, and T(a,bc) = 3/8 - O(R^2) is 3/8 to double precision anyway
SERIES_MIN_R = 1e-150
# t_abc_exact's largest R: T(a,bc) falls below the smallest normal double at R ~ 239.27
EXACT_MAX_R = 239.26


def _check_r(name: str, R: float, low: float = 0.0) -> None:
    if not (math.isfinite(R) and R > 0):
        raise DomainError(f"{name}: R must be positive and finite, got {R!r}")
    if R < low:
        raise DomainError(f"{name}: R = {R!r} is below the series' domain R >= {low:g}")


@dataclass(frozen=True)
class EllipsoidalParams:
    """A point (lam, mu) of the integration domain at separation R."""

    R: float
    lam: float
    mu: float

    def __post_init__(self):
        _check_r("EllipsoidalParams", self.R)
        if not (self.lam >= 1.0 and abs(self.mu) <= 1.0):
            raise DomainError("EllipsoidalParams: need lam >= 1 and |mu| <= 1")


def t_abc_integrand(pt: EllipsoidalParams) -> float:
    """Integrand of T(a,bc) including the 2 R^3 measure factor; 0 past lam ~ 1e154, where lam^2
    overflows to inf and the exponential has underflowed to 0.  Within 1e-12 of 30-digit mpmath for
    R in [0.01, 20], lam in [1, 31] and |mu| <= 1 where the value is a normal double."""
    value = math.exp(-3.0 * pt.R) * _t_abc_scaled(pt.R, 2.0 * pt.R**3, pt.lam - 1.0, pt.mu)[0]
    return 0.0 if math.isnan(value) else value


def _t_abc_scaled(R: float, measure: float, t2: float, mu: float) -> tuple[float, float]:
    # e^{3R} times the integrand at lam = 1 + t2 and mu, then at -mu, so the exponents peak
    # at 0: lam^2 + mu^2 - 1 = t2 (2 + t2) + mu^2 is even in mu, and -3R lam = -3R - 3R t2.
    # measure = 2 R^3, taken as an argument so the oracle computes it once
    lam = 1.0 + t2
    root = math.sqrt(t2 * (2.0 + t2) + mu * mu)
    even = lam / R + (lam * lam - mu * mu)
    odd = mu / R
    x = -3.0 * R * t2 - R * root
    return (measure * (even - odd) * math.exp(x - R * mu),
            measure * (even + odd) * math.exp(x + R * mu))


def _t_abc_oracle_integrand(R: float):
    """The oracle's integrand f(t, mu) + f(t, -mu) over [0, inf) x [0, 1], where f is the
    integrand over [0, inf) x [-1, 1] in lam = 1 + t^2, dlam = 2t dt, without the e^{-3R}
    factor: one call sharing the mu-even root and exponent."""
    measure = 2.0 * R**3

    # R is checked by the caller and the nodes lie in the domain, so skip EllipsoidalParams
    def f(t: float, mu: float) -> float:
        at_mu, at_minus_mu = _t_abc_scaled(R, measure, t * t, min(1.0, mu))
        return 2.0 * t * (at_mu + at_minus_mu)

    return f


def t_abc_oracle(R: float, tol: float = 1e-9) -> QuadratureResult:
    """T(a,bc) by nested adaptive quadrature in lam = 1 + t^2 over [0, inf) x [-1, 1],
    with mu folded onto [0, 1]: the quadrature integrates f(t, mu) + f(t, -mu), so
    each evaluation it counts is the integrand at two points.

    The substitution removes the sqrt(lam - 1) edge of the root at lam = 1, and the peak factor
    e^{-3R} multiplies value and error estimate after the quadrature, so a T far below the
    quadrature's absolute floor keeps its relative accuracy.  Within 1e-12 of 40-digit mpmath for
    tol = 1e-10 and R in {0.011, 0.18, 1.1, 5, 8, 12, 20}.  Within 1e-12 of 40-digit mpmath for tol
    in {1e-9, 2e-9} and R in {0.011, 0.05, 0.11, 0.5, 1.1, 1.2}.
    """
    _check_r("t_abc_oracle", R)
    res = integrate_2d(_t_abc_oracle_integrand(R), (0.0, math.inf, 0.0, 1.0), tol)
    peak = math.exp(-3.0 * R)
    return replace(res, value=res.value * peak, error_estimate=res.error_estimate * peak)


def t_abc_exact(R: float) -> float:
    """The exact closed form in Ei and exponentials.

    The second group carries a single overall minus sign.  From R ~ 93, where Ei(-8R) underflows to
    0, the first group (~e^{-5R}) is taken as 0.  At R = 239.27 T(a,bc) leaves the normal doubles,
    so the domain is 0.001 <= R <= EXACT_MAX_R: DomainError below, RangeError above.  The 116/(9R)
    terms cancel as R falls, and past R = 236.13 e^{-3R} is subnormal.  Within 2e-12 of 40-digit
    mpmath for R in [0.001, 0.011].  Within 5.8e-14 of 40-digit mpmath for R in [0.011, 236.13].
    Within 1.2e-12 of 40-digit mpmath for R in (236.13, 239.26].
    """
    _check_r("t_abc_exact", R)
    if R < 1e-3:
        raise DomainError(f"t_abc_exact: R = {R!r} is below its domain R >= 0.001")
    if R > EXACT_MAX_R:
        raise RangeError(f"t_abc_exact: R = {R!r} is above its domain R <= {EXACT_MAX_R}, "
                         "where T(a,bc) leaves the normal doubles")
    ei8 = exp_integral_ei(-8.0 * R)
    ei2 = exp_integral_ei(-2.0 * R)
    # where Ei(-8R) is 0, e^{3R} times its polynomial would overflow and turn the 0 into nan
    t1 = 0.0 if ei8 == 0.0 else math.exp(3.0 * R) * (
        -16.0 * R**2 + 44.0 * R + 116.0 / (9.0 * R) - 116.0 / 3.0) * ei8
    t2 = -math.exp(-3.0 * R) * (16.0 * R**2 + 44.0 * R + 116.0 / (9.0 * R) + 116.0 / 3.0) * (
        ei2 + 2.0 * math.log(2.0)
    )
    t3 = math.exp(-3.0 * R) * (624.0 * R**2 + 2256.0 * R + 131.0 / (3.0 * R) + 1670.0) / 16.0
    t4 = -math.exp(-5.0 * R) * (160.0 * R + 131.0 / (3.0 * R) + 34.0) / 16.0
    return (t1 + t2 + t3 + t4) / 81.0


def _j_top(n: int) -> int:
    # floor(|n - 1/2| - 1/2): 0 at n = 0, n - 1 for n >= 1
    return 0 if n == 0 else n - 1


@functools.cache
def _row(n: int) -> tuple[float, ...]:
    # a_{n,J} = sqrt(pi) 2^{J+2n-9/2} c(max(n-1, 0), J) for J = 0..max(n-1, 0): the R-free
    # constants of increment n, shared by all R (the Gamma(n+1) of the assembled line cancels
    # the 1/n! of the source series)
    nt = _j_top(n)
    return tuple(_SQRT_PI * 2.0 ** (big_j + 2 * n - 4.5) * float(k_half_coef(nt, big_j))
                 for big_j in range(nt + 1))


def t_abc_term(n: int, big_j: int, R: float) -> float:
    """The (n, J) contribution after both angular moments are expressed in
    modified Bessel I and the lam integral in incomplete gammas:

        sqrt(pi) 2^{J+2n-9/2} R^{2n} c(max(n-1, 0), J)
            [I_{n+5/2}(R) (4 G2 + G3 - 16 R^2 G1) R^{-n-1/2}
             + (2n+3) I_{n+3/2}(R) (4 G2 + G3) R^{-n-3/2}],

    with c = k_half_coef, the K finite-series coefficient, and Gm = Gamma(m - J - n, 4R).  Integers
    n >= 0 and 0 <= J <= max(n-1, 0), R >= SERIES_MIN_R (DomainError otherwise); n <= 86, where
    k_half_coef's factorials stop, and I_{n+3/2}(R) and the Gm normal doubles (CapacityError
    otherwise).  Within 1e-14 of 40-digit mpmath for n <= 86, J <= max(n - 1, 0) and R in [1e-3, 20]
    where I_{n+3/2}(R) and Gamma(m - J - n, 4R), m = 1, 2, 3, are normal doubles.
    """
    _check_r("t_abc_term", R, SERIES_MIN_R)
    _check_index("t_abc_term", "n", n)
    _check_index("t_abc_term", "J", big_j)
    nt = _j_top(n)
    if big_j > nt:
        raise DomainError(f"t_abc_term: J = {big_j} outside 0..{nt}")
    k = n + big_j  # the walk from Gamma(3, 4R) reads Gamma(3 - k, 4R) at index k
    g3, g2, g1 = itertools.islice(gamma_walk(3.0 - k, 4.0 * R), 3)
    i_low, i_top = itertools.islice(bessel_i_walk(R), n + 1, n + 3)
    if min(i_low, g1, g2, g3) < sys.float_info.min:
        raise CapacityError(f"t_abc_term: I_{{{n + 1}+1/2}}({R}) or Gamma({1 - k}..{3 - k}, {4.0 * R}) "
                            "is below the normal doubles")
    # R^{n-3/2} I_{n+5/2}(R) alone is 0.0 at n = 79, R = 0.0675, where the term is not: the powers
    # of two of R^n, the I factor and the Gamma factor are summed apart from their mantissas
    u = R * i_top + (2 * n + 3) * i_low
    mu, eu = math.frexp(u)
    mw, ew = math.frexp(4.0 * g2 + g3 - 16.0 * R**3 * i_top / u * g1)
    mant, expo = math.frexp(R)
    return math.ldexp(_row(n)[big_j] * mant**n * R**-1.5 * (mu * mw), eu + ew + expo * n)


def _k_walk(R: float, top: int) -> list[float]:
    # beta_m = R^m e^{-4R} q_m(R), m = 0..top, where K_{m+1/2}(z) = sqrt(pi/(2z)) e^{-z} q_m(z):
    # K's stable upward recurrence (DLMF 10.29.1) scaled by R^{m+1/2} e^{-3R} sqrt(2/pi),
    # beta_{m+1} = (2m+1) beta_m + R^2 beta_{m-1}.  Each beta is positive and larger than the
    # one before, so the list stops before the first that is not finite (m ~ 150 at R << 1,
    # where beta_m ~ (2m-1)!!)
    e4 = math.exp(-4.0 * R)
    beta = [e4, (1.0 + R) * e4][:top + 1]
    r2 = R * R
    for m in range(1, top):
        b = (2 * m + 1) * beta[m] + r2 * beta[m - 1]
        if not math.isfinite(b):
            break
        beta.append(b)
    return beta


def _eta_walk(R: float, anchor: int, gammas: list[float], beta: list[float]) -> list[float]:
    # eta_m = R^{2m} H_m(0), m = 0..len(beta)-1, with H_m(s) = int_R^inf z^{s-m-1} e^{-4z}
    # q_m(z) dz.  Integrating by parts with u_m = z^{-m-1} e^{-z} q_m(z), whose derivative is
    # u_m' = -z u_{m+1} = -(u_{m-1} + (2m+1) u_m) / z (DLMF 10.29.4 on z^{-nu} K_nu and
    # z^{nu} K_nu), gives, with b_m = R^{-m-1} e^{-4R} q_m(R) = beta_m / R^{2m+1},
    #     H_{m+1}(1) = b_m - 3 H_m(0),
    #     H_{m+1}(2) = R b_m + H_m(0) - 3 H_m(1),
    #     (2m+2) H_{m+1}(0) = 8 H_m(0) + R b_{m+1} - 3 b_m,  H_0(0) = E_1(4R) = Gamma(0, 4R),
    # so (2m+2) eta_{m+1} = 8 R^2 eta_m + beta_{m+1} - 3 R beta_m.  Its homogeneous solution
    # (4R^2)^m / m! grows against eta_m below m ~ 1.3 R (DLMF 3.6): the walk is anchored at
    # m = anchor ~ 1.3 R, eta_a = (4R^2)^a sum_J c(a, J) 2^J Gamma(-a-J, 4R), a sum of positive
    # terms over G_{3+a+J}, and runs up above it and down below it, each way where it is stable
    a, fact = anchor, math.factorial
    try:  # c(a, J) 2^J exact, as k_half_coef without its factorial cap
        scale = (4.0 * R) ** a * R**a
        eta_a = math.fsum(float(fact(a + big_j) // (fact(big_j) * fact(a - big_j)) << big_j)
                          * (gammas[3 + a + big_j] * scale) for big_j in range(a + 1))
    except OverflowError as exc:
        raise CapacityError(f"t_abc_series: the anchor of the eta walk at m = {a} overflows "
                            "double precision") from exc
    eta = [0.0] * len(beta)
    eta[a] = eta_a
    r2_8 = 8.0 * R * R
    for m in range(a - 1, -1, -1):
        eta[m] = math.fsum(((2 * m + 2) * eta[m + 1], -beta[m + 1], 3.0 * R * beta[m])) / r2_8
    for m in range(a, len(beta) - 1):
        eta[m + 1] = math.fsum((r2_8 * eta[m], beta[m + 1], -3.0 * R * beta[m])) / (2 * m + 2)
    return eta


def _lost(n: int, R: float, mant: float, expo: int, weight: float) -> float:
    # a bound on increment n where I_{n+3/2}(R) >= I_{n+5/2}(R) are below the smallest normal
    # double: the increment with both replaced by it, weight = (R + 2n + 3) |S_m| + R^2 |eta_m|,
    # scaled by R^{-n} before the small factors so that nothing underflows on the way
    try:
        scaled_min = math.ldexp(sys.float_info.min * mant**-n, -expo * n)
        return _SERIES_SCALE * R**1.5 * (scaled_min * weight)
    except OverflowError:
        return math.inf


def t_abc_series(R: float, n_max: int = 20,
                 policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Series for T(a,bc): increment n is the finite J-sum of t_abc_term, taken in O(1) as

        sqrt(pi) 2^{3/2} R^{3/2-n} [(R I_{n+5/2} + (2n+3) I_{n+3/2}) S_m - R^2 I_{n+5/2} eta_m]

    for n >= 1, m = n - 1, with S_m = R^{2m-1} (H_m(1) + H_m(2)) and eta_m = R^{2m} H_m(0), H_m(s) =
    int_R^inf z^{s-m-1} e^{-4z} q_m(z) dz, and K_{m+1/2}(z) = sqrt(pi/(2z)) e^{-z} q_m(z).  Over the
    J-sum, sum_J c(m,J) 2^J Gamma(s-m-J, 4R) = 4^{s-m} H_m(s).  The H come from three recurrences
    driven by one upward K walk at z = R (see _eta_walk), each three-term update one math.fsum;
    increment 0 is closed in Gamma(3, 4R), Gamma(2, 4R) and Gamma(1, 4R).  It reads one
    bessel_i_walk(R) and one gamma_walk(3, 4R) where an increment first needs their values:
    increment 0 reads I_{k+1/2}(R) and Gamma(3 - k, 4R) for k < 3, each later increment one more I,
    and increment 1 the rest of the 2a + 4 Gamma orders for the anchor a (0 at R <= 1, else
    ceil(1.3 R), at most top - 1 for the last increment top the sum can draw); a walk's error is
    raised at the increment that first needs a value past where the walk stopped.  A series costs
    O(top): ~44 us at n_max = 20, 0.69x the per-increment dot products it replaced.  Integer n_max
    >= 0 and R >= SERIES_MIN_R (DomainError otherwise).  CapacityError, where the budget draws that
    far: where I_{1/2}(R) overflows (R >= 714); at the first increment whose I_{n+3/2}(R) is below
    the normal doubles unless a bound on it is below half an ulp of increment 0 (n = 54 at R = 1e-4,
    64 at 1e-3, 133 at 0.5, 151 at 1.1); at increment m + 1 where the K walk's beta_m ~ (2m-1)!!
    overflows (m = 152 at R = 1.2 to 200 at R = 92); where the anchor overflows (a >= 111 to 121
    from R = 92.5); and where its 2a + 4 Gamma orders pass GAMMA_RECURRENCE_LIMIT (a >= 201:
    R > 153.8 and n_max >= 202).  Past R ~ 177.1 each
    increment is NaN and the sum is flagged.  The sum plateaus (the J = n-1 term dominates);
    stall_detector sizes it.  Within 2.5e-15 of 40-digit mpmath for increments n <= 20 at R in
    [0.001, 2.5], and 87 <= n <= 100 at R = 0.5 and 2.5.  Within 1e-14 of 40-digit mpmath for
    increments n <= 20 at R in (2.5, 20].
    """
    _check_r("t_abc_series", R, SERIES_MIN_R)
    _check_index("t_abc_series", "n_max", n_max)
    policy = policy or DEFAULT_POLICY
    top = min(n_max, policy.max_terms - 1)  # the last increment the sum can draw
    anchor = 0 if R <= 1.0 else min(math.ceil(1.3 * R), max(top - 1, 0))

    def increments():
        i_walk = bessel_i_walk(R)  # I_{k+1/2}(R), read as each increment first needs it
        _, i_low, i_top = itertools.islice(i_walk, 3)  # I_{1/2}, I_{3/2}, I_{5/2} for increment 0
        if math.exp(-4.0 * R) < sys.float_info.min:  # e^{-4R} is not a normal double
            yield math.nan
            for _ in range(n_max):
                next(i_walk)
                yield math.nan
            return
        g_walk = gamma_walk(3.0, 4.0 * R)  # G_k = Gamma(3 - k, 4R), k < 3 for increment 0
        g0, g1, g2 = gammas = list(itertools.islice(g_walk, 3))
        # increment 0's Bessel factors, R^{-3/2} (R I_{5/2} + 3 I_{3/2}) and 16 R^{3/2} I_{5/2}
        r = R**-1.5
        p, q = r * (R * i_top + 3 * i_low), 16.0 * R**3 * r * i_top
        a00 = _row(0)[0]
        first = p * (a00 * (4.0 * g1 + g0)) - q * (a00 * g2)
        yield first
        if not top:
            return
        gammas += itertools.islice(g_walk, 2 * anchor + 1)  # k < 2a + 4, for the anchor
        beta = _k_walk(R, top - 1)
        k_error = CapacityError(
            f"t_abc_series: the K walk overflows double precision at m = {len(beta)}")
        if anchor >= len(beta):
            raise k_error
        eta = _eta_walk(R, anchor, gammas, beta)
        theta, zeta = g2 / (4.0 * R), g1 / (16.0 * R * R)  # R^{2m-1} H_m(1), R^{2m-2} H_m(2)
        r15, r2, r3 = R**1.5, R * R, 3.0 * R
        mant, expo = math.frexp(R)  # R^{-n} = mant^{-n} 2^{-expo n}, applied by ldexp
        normal, negligible = sys.float_info.min, 0.5 * sys.float_info.epsilon * abs(first)
        for n in range(1, top + 1):
            i_low, i_top = i_top, next(i_walk)  # I_{n+3/2}(R), I_{n+5/2}(R)
            if n > len(beta):
                raise k_error
            b, e = beta[n - 1], eta[n - 1]
            if i_low < normal and _lost(n, R, mant, expo, (R + 2 * n + 3) * abs(
                    theta + R * zeta) + r2 * abs(e)) > negligible:
                raise CapacityError(f"t_abc_series: increment {n} needs I_{{{n + 1}+1/2}}({R}), "
                                    "which is below the normal doubles")
            bracket = (R * i_top + (2 * n + 3) * i_low) * (theta + R * zeta) - r2 * i_top * e
            yield _SERIES_SCALE * math.ldexp(r15 * bracket * mant**-n, -expo * n)
            # the H_{m+1}(1) and H_{m+1}(2) relations times R^{2m+1} and R^{2m}
            theta, zeta = b - r3 * e, math.fsum((b, e, -r3 * theta))

    return accumulate_series(increments(), policy)


@dataclass(frozen=True)
class StallReport:
    """Plateau diagnostics for a slowly-converging series."""

    stalled: bool
    index: int | None
    magnitude: float | None


def stall_detector(evaluation: SeriesEvaluation, window: int = 4) -> StallReport:
    """Flag a plateau: |term| failed to halve across ``window`` terms.

    Scans for the first index i >= window with |t_i| > |t_{i-window}| / 2 and
    reports |t_i| as the plateau magnitude.  A geometric tail with ratio
    below 2^{-1/window} never trips the detector.  ``window`` is an integer >= 1,
    checked as the series' indices are (DomainError otherwise).
    """
    _check_index("stall_detector", "window", window, 1)
    mags = [abs(t) for t in evaluation.terms]
    if len(mags) <= window:
        raise DomainError("stall_detector: evaluation has fewer terms than the window")
    for i in range(window, len(mags)):
        if mags[i] > 0.5 * mags[i - window] and mags[i] > 0.0:
            return StallReport(stalled=True, index=i, magnitude=mags[i])
    return StallReport(stalled=False, index=None, magnitude=None)
