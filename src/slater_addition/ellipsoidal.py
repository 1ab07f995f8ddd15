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
K_{m+1/2}, carried over (2m+3)!! by three recurrences on one upward K walk at z = R, anchored
where they are stable by one sum over a short gamma_walk(3, 4R); its I_{k+1/2}(R) come scaled
by (2k+1)!!/R^k off bessel_i_walk's Miller walk, read as each increment first needs them.
It decays algebraically after a few terms; stall_detector quantifies the plateau the
way the convergence study reports it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .errors import CapacityError, DomainError, RangeError, _check_index
from .quadrature import QuadratureResult, integrate_2d
from .specfun import (BESSEL_I_WALK_ORDERS, _scaled_i_blocks, bessel_i_walk, exp_integral_ei, gamma_walk,
                      k_half_coef)
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
# the series' smallest R: not far below it R^2, which the series and t_abc_term (Gamma(-2, 4R) ~
# 1/(32 R^2)) divide by, leaves the normal doubles, and T(a,bc) = 3/8 - O(R^2) is 3/8 there anyway
SERIES_MIN_R = 1e-150
# 2n + 3, (2n+1)(2n+3), (2n+3)(2n+5) and 2n (2n+3) as exact floats, the factors of t_abc_series'
# updates at increment n, for n = 1 .. 1019: increment n reads order n + 2 of the Bessel walk
_ORDERS = tuple((2.0 * n + 3, (2.0 * n + 1) * (2 * n + 3), (2.0 * n + 3) * (2 * n + 5),
                 2.0 * n * (2 * n + 3)) for n in range(1, BESSEL_I_WALK_ORDERS - 2))
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


@functools.cache
def _anchor_weights(a: int) -> tuple[float, ...]:
    # c(a, J) 2^J 4^a / (2a+3)!!, J = 0..a, each an exact integer ratio rounded once: the R-free
    # weights of the eta walk's anchor at m = a
    fact, dfact = math.factorial, math.prod(range(2 * a + 3, 0, -2))
    return tuple((fact(a + big_j) // (fact(big_j) * fact(a - big_j)) << big_j + 2 * a) / dfact
                 for big_j in range(a + 1))


def _eta_anchor(R: float, a: int, gammas: list[float]) -> float:
    # eta_a / (2a+3)!!, eta_a = (4R^2)^a sum_J c(a, J) 2^J Gamma(-a-J, 4R), a sum of positive terms.
    # A Gamma below the normal doubles is known to its last place, 2^-1074, and below 2 g / (4R)^k,
    # g the last normal one k orders up (Gamma(s - 1, z) < Gamma(s, z) / z): CapacityError where that
    # could move the sum by more than an ulp, or where the leading Gamma(-a, 4R) is not normal (past
    # it R^a may overflow)
    normal, gs = sys.float_info.min, gammas[3 + a:]
    if gs[0] >= normal:
        if not a:  # eta_0 = Gamma(0, 4R)
            return gs[0] / 3.0
        weights, r_a = _anchor_weights(a), R**a
        eta_a = math.fsum([w * (g * r_a * r_a) for w, g in zip(weights, gs)])
        if gs[-1] >= normal:  # the Gammas fall with J where any is subnormal (z = 4R > 1)
            return eta_a
        lost, known = 0.0, 2.0 * gs[0]
        for w, g in zip(weights, gs):
            known = 2.0 * g if g >= normal else known / (4.0 * R)
            lost += 0.0 if g >= normal else w * (min(2.0**-1074, known) * r_a * r_a)
        if lost <= sys.float_info.epsilon * eta_a:
            return eta_a
    order = -a - next(big_j for big_j, g in enumerate(gs) if g < normal)
    raise CapacityError(f"t_abc_series: the anchor of the eta walk at m = {a} reads Gamma({order}, "
                        f"{4.0 * R}), which is below the normal doubles")


def _increments(R: float, n_max: int, top: int, anchor: int) -> Iterator[float]:
    # t_abc_series' increments 0 .. top, each walk read where an increment first needs it
    w_walk = itertools.chain.from_iterable(_scaled_i_blocks(R))  # w_k = I_{k+1/2}(R) (2k+1)!! / R^k
    _, w_low, w_top = itertools.islice(w_walk, 3)  # w_0, w_1, w_2 for increment 0
    e4 = math.exp(-4.0 * R)
    if e4 < sys.float_info.min:  # e^{-4R} is not a normal double
        yield math.nan
        yield from (math.nan for _ in zip(range(n_max), w_walk))  # one more w per increment
        return
    g_walk = gamma_walk(3.0, 4.0 * R)  # G_k = Gamma(3 - k, 4R), k < 3 for increment 0
    g0, g1, g2 = gammas = list(itertools.islice(g_walk, 3))
    # increment 0's Bessel factors, R^{-3/2} (R I_{5/2} + 3 I_{3/2}) and 16 R^{3/2} I_{5/2}
    r2 = R * R
    v = r2 * w_top / 15.0  # I_{5/2}(R)
    r15 = R**1.5
    p, q = R**-0.5 * (v + w_low), 16.0 * r15 * v
    a00 = _row(0)[0]
    yield p * (a00 * (4.0 * g1 + g0)) - q * (a00 * g2)
    if not top:
        return
    gammas += itertools.islice(g_walk, 2 * anchor + 1)  # k < 2a + 4, for the anchor
    # beta through a, and eta down from the anchor to 0, with the loop's factors of n = 1 .. a
    beta = [e4 / 3.0, (1.0 + R) * e4 / 15.0]
    for _, dd_low, dd, _ in _ORDERS[:anchor][:-1]:  # beta_{n+1}, n = 1 .. a - 1
        beta.append((dd_low * beta[-1] + r2 * beta[-2]) / dd)
    eta = [_eta_anchor(R, anchor, gammas)]
    r3, r8 = 3.0 * R, 8.0 * r2
    for m, (d, _, _, dd_eta) in zip(range(anchor - 1, -1, -1), reversed(_ORDERS[:anchor])):
        eta.append((dd_eta * eta[-1] - d * beta[m + 1] + r3 * beta[m]) / r8)
    eta.reverse()
    theta, zeta = g2 / (12.0 * R), g1 / (48.0 * r2)
    b, b_up, e = beta[0], beta[1], eta[0]  # beta_m, beta_{m+1}, eta_m at m = n - 1
    scale, w_low = _SERIES_SCALE * r15 * R, w_top
    for n, w_top, (d, dd_low, dd, dd_eta) in zip(range(1, top + 1), w_walk, _ORDERS):
        v = r2 * w_top / dd  # w_low = w_{n+1}, w_top = w_{n+2}
        yield scale * ((v + w_low) * (theta + R * zeta) - R * v * e)
        theta, zeta = (b - r3 * e) / d, (b + e - r3 * theta) / d
        e = eta[n] if n <= anchor else (r8 * e + d * b_up - r3 * b) / dd_eta
        b, b_up, w_low = b_up, (dd_low * b_up + r2 * b) / dd, w_top


def t_abc_series(R: float, n_max: int = 20,
                 policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Series for T(a,bc): increment n is the finite J-sum of t_abc_term, taken in O(1) as

        sqrt(pi) 2^{3/2} R^{5/2} [(v + w_{n+1}) (theta_m + R zeta_m) - R v eta_m],
        v = R^2 w_{n+2} / ((2n+3)(2n+5)),

    for n >= 1, m = n - 1, with w_k = I_{k+1/2}(R) (2k+1)!! / R^k from the scaled Miller walk that
    bessel_i_walk views, and theta_m, zeta_m, eta_m = R^{2m-1} H_m(1), R^{2m-2} H_m(2), R^{2m} H_m(0)
    over (2m+3)!!, H_m(s) = int_R^inf z^{s-m-1} e^{-4z} q_m(z) dz, K_{m+1/2}(z) = sqrt(pi/(2z))
    e^{-z} q_m(z): sum_J c(m,J) 2^J Gamma(s-m-J, 4R) = 4^{s-m} H_m(s).  With beta_m = R^m e^{-4R}
    q_m(R) / (2m+3)!!, K's stable upward recurrence (DLMF 10.29.1) is (2m+3)(2m+5) beta_{m+1} =
    (2m+1)(2m+3) beta_m + R^2 beta_{m-1}, and by parts (DLMF 10.29.4) (2m+5) theta_{m+1} = beta_m -
    3R eta_m, (2m+5) zeta_{m+1} = beta_m + eta_m - 3R theta_m and (2m+2)(2m+5) eta_{m+1} = 8R^2 eta_m
    + (2m+5) beta_{m+1} - 3R beta_m, whose homogeneous solution grows against eta_m below m ~ 1.3 R
    (DLMF 3.6): eta is anchored at m = a (0 at R <= 1, else ceil(1.3 R), at most top - 1 for the last
    increment top the sum can draw) by one sum over Gamma(-a-J, 4R), and walks down and up from it.
    Nothing grows like (2m-1)!! or shrinks like R^n; one loop takes each increment in float updates.
    Increment 0 is closed in Gamma(3, 4R), Gamma(2, 4R) and Gamma(1, 4R).  The w walk and one
    gamma_walk(3, 4R) are read where an increment first needs them: increment 0 w_k and Gamma(3 - k,
    4R) for k < 3, each later increment one more w, and increment 1 the rest of the 2a + 4 Gamma
    orders; a walk's error is raised at the increment that first needs a value past where it stopped.
    A series costs O(top): 28-35 us at n_max = 20 and R in {0.3, 0.9, 1.1}, 0.54-0.61x the K-walk
    version it replaced (CPython 3.11, 2-vCPU x86-64 VM).  Integer n_max >= 0 and R >= SERIES_MIN_R
    (DomainError otherwise).  CapacityError, where the budget draws that far: where I_{1/2}(R)
    overflows (R >= 714); where the anchor's Gamma(-a-J, 4R) below the normal doubles could move it by
    more than an ulp (from R ~ 128 at n_max = 20, R ~ 42.4 at n_max >= 57); and where its 2a + 4
    Gamma orders pass GAMMA_RECURRENCE_LIMIT (a >= 201).  Past R ~ 177.1, where e^{-4R} is below the
    normal doubles, each increment is NaN and the sum is flagged.  The sum plateaus (the J = n-1 term
    dominates); stall_detector sizes it.  Within 2.5e-15 of 40-digit mpmath for increments n <= 20 at
    R in [0.001, 2.5], and 87 <= n <= 100 at R = 0.5 and 2.5, n <= 400 at R = 2 and n <= 59 at R =
    0.0003.  Within 1e-14 of 40-digit mpmath for increments n <= 20 at R in (2.5, 20].
    """
    _check_r("t_abc_series", R, SERIES_MIN_R)
    _check_index("t_abc_series", "n_max", n_max)
    policy = policy or DEFAULT_POLICY
    top = min(n_max, policy.max_terms - 1)  # the last increment the sum can draw
    anchor = 0 if R <= 1.0 else min(math.ceil(1.3 * R), max(top - 1, 0))
    return accumulate_series(_increments(R, n_max, top, anchor), policy)


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
