"""Amplitude integrals over products of Slater orbitals.

The object of study is

    S1(eta1, eta2, x2, k) = 2 pi int_0^1 e^{-i (k.x2) tau} e^{-x2 L}/L dtau,
    L = sqrt((1 - tau)(k^2 tau + eta2^2) + eta1^2 tau),

the general-k overlap of two Slater orbitals with one shifted centre and a
plane wave.  This module provides its exact closed forms at k = 0, the
adaptive-quadrature oracle for general k, the Macdonald-series terms in the
variable s = sqrt((eta1^2-eta2^2) tau + eta2^2) with the erf and
incomplete-gamma closed forms of term 0, theorem 1 about the vertex of L^2 at eta1 = eta2
(cheshire_series), one angular integral with a split real/imaginary branch, and
the double-series reconstructions of the k = 0 closed forms.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

from .errors import CapacityError, DomainError, RangeError, _check_index
from .quadrature import QuadratureResult, integrate_finite
from .specfun import (
    bessel_k_half,
    cosine_moment_walk,
    erf_complex,
    factorial,
    gamma_walk,
    k_half_coef,
    upper_incomplete_gamma,
)
from .theorems import (
    DERIVATIVE_REL_TOL,
    SeriesEvaluation,
    TruncationPolicy,
    YukawaFormParams,
    _macdonald_terms,
    _series_eval,
    accumulate_series,
)

__all__ = [
    "SlaterPair",
    "s1_coulomb_closed",
    "s1_two_slater_closed",
    "s1_equal_eta_closed",
    "s1_tau_oracle",
    "s1_series_n_term",
    "s1_n0_erf_closed",
    "s1_general_term_gamma",
    "cheshire_series",
    "theorem2_angular",
    "theorem3_block_k_terms",
    "theorem3_series",
    "theorem4_block",
    "theorem4_series",
    "corollary6_n0_closed",
]

_SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SlaterPair:
    """(eta1, eta2, x2, k) configuration with the phase scalar k.x2.

    k_dot_x2 is the dot product of the momentum with the shift vector; it
    defaults to k*x2 (parallel geometry) and must satisfy |k_dot_x2| <= k*x2.
    """

    eta1: float
    eta2: float
    x2: float
    k: float = 0.0
    k_dot_x2: float | None = None

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.eta1, self.eta2, self.x2)):
            raise DomainError(f"SlaterPair: eta1, eta2, x2 must be positive and finite in {self}")
        if not 0 <= self.k < math.inf:
            raise DomainError(f"SlaterPair: k = {self.k}, must be nonnegative and finite")
        if self.k_dot_x2 is None:
            object.__setattr__(self, "k_dot_x2", self.k * self.x2)
        elif not abs(self.k_dot_x2) <= self.k * self.x2 * (1 + 1e-12):  # NaN too
            raise DomainError("SlaterPair: |k_dot_x2| exceeds k*x2")


# ---------------------------------------------------------------------------
# exact closed forms
# ---------------------------------------------------------------------------

def s1_coulomb_closed(eta1: float, x2: float) -> float:
    """S1 against the bare Coulomb tail: 4 pi (1 - e^{-eta1 x2}) / (x2 eta1^2).  Within 1e-14 of
    30-digit mpmath for eta1 in [0.05, 50] and eta1 x2 in [0.01, 700]."""
    if not (0 < eta1 < math.inf and 0 < x2 < math.inf):
        raise DomainError("s1_coulomb_closed: eta1, x2 must be positive and finite")
    return 4.0 * math.pi * (1.0 - math.exp(-eta1 * x2)) / (x2 * eta1**2)


def s1_two_slater_closed(p: SlaterPair) -> float:
    """k = 0 closed form: 4 pi (e^{-eta2 x2} - e^{-eta1 x2}) / (x2 (eta1^2 - eta2^2)).  Within 1e-11
    of 30-digit mpmath for the theorem-3 box, x2 eta2 <= 0.25 and |eta1^2 - eta2^2| in [0.05, 0.2]
    eta2^2, and eta1 != eta2 in [0.05, 2] at x2 in [0.05, 2]."""
    if p.eta1 == p.eta2:
        raise DomainError(
            "s1_two_slater_closed is singular at eta1 = eta2; use s1_equal_eta_closed"
        )
    return (
        4.0
        * math.pi
        * (math.exp(-p.eta2 * p.x2) - math.exp(-p.eta1 * p.x2))
        / (p.x2 * (p.eta1**2 - p.eta2**2))
    )


def s1_equal_eta_closed(eta2: float, x2: float) -> float:
    """Equal-exponent limit of the k = 0 closed form: 2 pi e^{-x2 eta2} / eta2.  Within 2e-15 of
    30-digit mpmath for eta2 in [0.05, 2] and x2 in [1e-6, 20]."""
    if not (0 < eta2 < math.inf and 0 < x2 < math.inf):
        raise DomainError("s1_equal_eta_closed: eta2, x2 must be positive and finite")
    return TWO_PI * math.exp(-x2 * eta2) / eta2


# ---------------------------------------------------------------------------
# the general-k amplitude: oracle and series terms
# ---------------------------------------------------------------------------

def s1_tau_oracle(p: SlaterPair, tol: float = 1e-10) -> QuadratureResult:
    """2 pi int_0^1 e^{-i (k.x2) tau} e^{-x2 L}/L dtau by adaptive quadrature.  Within 1e-10 of
    20-digit mpmath quadrature for tol in {1e-12, 2e-10, 1e-7}, eta1, eta2 in [0.3, 1.5], x2 in
    [0.1, 1] and k in [0.05, 0.9]."""
    k2, e1sq, e2sq = p.k**2, p.eta1**2, p.eta2**2
    kx2 = p.k_dot_x2

    def integrand(tau: float) -> complex:
        ell = math.sqrt((1.0 - tau) * (k2 * tau + e2sq) + e1sq * tau)
        return cmath.exp(complex(-p.x2 * ell, -kx2 * tau)) / ell

    res = integrate_finite(integrand, 0.0, 1.0, tol)
    return QuadratureResult(TWO_PI * res.value, TWO_PI * res.error_estimate,
                            res.evaluations, res.converged)


def _series_prefactor(n: int, p: SlaterPair) -> complex:
    d = p.eta1**2 - p.eta2**2
    return (
        TWO_PI
        * 2.0 ** (1.5 - n)
        * p.k ** (2 * n)
        / (_SQRT_PI * factorial(n))
        * d ** (-2 * n - 1)
        * p.x2 ** (n + 0.5)
        * cmath.exp(1j * p.eta2**2 * p.k_dot_x2 / d)
    )


def s1_series_n_term(n: int, p: SlaterPair, tol: float = 1e-11) -> complex:
    """Term n of the Macdonald series in s = sqrt((eta1^2-eta2^2) tau + eta2^2):

        pref(n) int_{eta2}^{eta1} s^{1/2-n} (s^2-eta1^2)^n (s^2-eta2^2)^n
                K_{n+1/2}(s x2) e^{-i s^2 (k.x2)/(eta1^2-eta2^2)} ds,

    evaluated by quadrature; the orientation of the s interval (and the sign of the prefactor's odd
    power of eta1^2-eta2^2) handles eta1 < eta2.  Within 1e-10 of 20-digit mpmath quadrature for n
    <= 3, tol in {1e-11, 1e-12}, eta1 != eta2 in [0.3, 1.5], x2 in [0.1, 1], k in [0.05, 0.9].
    """
    _check_index("s1_series_n_term", "n", n)
    if p.eta1 == p.eta2:
        raise DomainError("s1_series_n_term: degenerate s interval; use cheshire_series")
    d = p.eta1**2 - p.eta2**2
    e1sq, e2sq = p.eta1**2, p.eta2**2
    phase = -p.k_dot_x2 / d

    def integrand(s: float) -> complex:
        s2 = s * s
        return (
            s ** (0.5 - n)
            * (s2 - e1sq) ** n
            * (s2 - e2sq) ** n
            * bessel_k_half(n, s * p.x2).real
            * cmath.exp(1j * phase * s2)
        )

    lo, hi, sgn = ((p.eta2, p.eta1, 1.0) if p.eta1 > p.eta2 else (p.eta1, p.eta2, -1.0))
    res = integrate_finite(integrand, lo, hi, tol)
    res.raise_if_not_converged("s1_series_n_term")
    return _series_prefactor(n, p) * sgn * res.value


def s1_n0_erf_closed(p: SlaterPair) -> complex:
    """The n = 0 term in closed form as a difference of complex error functions.

    Completing the square in exp(-s x2 - i s^2 (k.x2)/(eta1^2-eta2^2)) gives

        (4 pi / d) e^{beta eta2^2 + x2^2/(4 beta)} sqrt(pi)/(2 sqrt(beta))
            [ erf(w(eta1)) - erf(w(eta2)) ],
        beta = i (k.x2)/d,  w(s) = sqrt(beta) s + x2/(2 sqrt(beta)),  d = eta1^2 - eta2^2,

    which for d > 0 matches the erf-difference form whose arguments carry the phase (-1)^{3/4}.  One
    principal sqrt(beta) is used throughout, keeping the identity valid for either sign of d or of
    the phase scalar.  Within 1e-10 of 20-digit mpmath quadrature for eta1 != eta2 in [0.3, 1.5], x2
    in [0.1, 1], k in [0.05, 0.9].
    """
    if p.eta1 == p.eta2:
        raise DomainError("s1_n0_erf_closed: eta1 = eta2; use cheshire_series")
    if p.k == 0 or p.k_dot_x2 == 0:
        raise DomainError("s1_n0_erf_closed needs a nonzero phase; use s1_two_slater_closed")
    d = p.eta1**2 - p.eta2**2
    beta = 1j * p.k_dot_x2 / d
    rb = cmath.sqrt(beta)
    try:
        pref = (4.0 * math.pi / d) * cmath.exp(beta * p.eta2**2 + p.x2**2 / (4.0 * beta))
    except OverflowError as exc:
        raise RangeError(f"s1_n0_erf_closed: exponential prefactor overflows at {p}") from exc
    pref *= _SQRT_PI / (2.0 * rb)

    def w(s: float) -> complex:
        return rb * s + p.x2 / (2.0 * rb)

    return pref * (erf_complex(w(p.eta1)) - erf_complex(w(p.eta2)))


def s1_general_term_gamma(n: int, p: SlaterPair) -> complex:
    """Term n = 0 of the series as one incomplete-gamma channel.

    The shift s = t + D, D = i x2 d / (2 k.x2), turns e^{-s x2 - i s^2 (k.x2)/d} into a constant
    phase times the pure Gaussian e^{-a t^2}, a = i (k.x2)/d, whose integral over the shifted
    segment t1 = eta2 - D ... t2 = eta1 - D is (1/2) a^{-1/2} [Gamma(1/2, a t1^2) - Gamma(1/2, a
    t2^2)].  Terms n >= 1 come from s1_series_n_term (DomainError here).  Within 1e-10 of 20-digit
    mpmath quadrature for n = 0, eta1 != eta2 in [0.3, 1.5], x2 in [0.1, 1], k in [0.05, 0.9].
    """
    _check_index("s1_general_term_gamma", "n", n)
    if n != 0:
        raise DomainError(f"s1_general_term_gamma: term n = {n!r} has no incomplete-gamma form here; "
                          "use s1_series_n_term")
    if p.eta1 == p.eta2:
        raise DomainError("s1_general_term_gamma: eta1 = eta2; use cheshire_series")
    if p.k == 0 or p.k_dot_x2 == 0:
        raise DomainError("s1_general_term_gamma needs a nonzero phase scalar")
    d = p.eta1**2 - p.eta2**2
    kx2 = p.k_dot_x2
    x2 = p.x2
    a = 1j * kx2 / d              # gaussian coefficient after the shift
    big_d = 1j * x2 * d / (2.0 * kx2)
    phase = cmath.exp(-1j * x2 * x2 * d / (4.0 * kx2))
    # K_{1/2}(s x2)'s sqrt(pi/(2 s x2)); its s^{-1/2} cancels the s^{1/2} of s1_series_n_term
    pref = _series_prefactor(0, p) * math.sqrt(math.pi / (2.0 * x2))
    g1, g2 = (next(gamma_walk(0.5, a * t * t)) for t in (p.eta2 - big_d, p.eta1 - big_d))
    return pref * phase * (0.5 * a**-0.5 * (g1 - g2))


def cheshire_series(eta1: float, x2: float, k: float, k_dot_x2: float | None = None,
                    policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Equal-exponent amplitude as theorem 1 about the vertex of L^2 = eta1^2 + k^2 tau(1 - tau):
    with u = 2 tau - 1, L^2 = C - k^2 u^2 / 4, C = eta1^2 + k^2 / 4, and y = k.x2/2, the tau
    integral 2 pi int_0^1 e^{-i (k.x2) tau} e^{-x2 L}/L dtau is 2 pi e^{-iy} int_0^1 cos(yu)
    e^{-x2 L}/L du, which theorem 1 with B = -u^2/4 expands term by term into

        2 pi e^{-iy} sum_n mu_n(y) theorem1_term(n; B = -1/4, C, k, x2),

    mu_n(y) = int_0^1 u^{2n} cos(yu) du, with e^{-iy} taken once and every mu_n from one
    cosine_moment_walk(y). |B k^2| <= k^2/4 < C on the whole interval, so it converges for any k,
    its terms shrinking like (k^2 / (4 eta1^2 + k^2))^n; on the default 60-term budget it converges
    up to k / eta1 ~ 3.5 at x2 eta1 <= 1, less as x2 eta1 grows (~2 at 20), and past that is
    returned flagged.  Within 3e-10 of 20-digit mpmath quadrature for eta1 in [0.2, 2], x2 in [0.1,
    20] and k / eta1 in [0, 4] where converged.
    """
    pair = SlaterPair(eta1, eta1, x2, k, k_dot_x2)
    # B = -1/4 rather than B = -1 and 4^{-n} outside: B k^2 + C = eta1^2 never reaches the pole
    p = YukawaFormParams(-0.25, eta1**2 + k * k / 4.0, k, x2)
    y = pair.k_dot_x2 / 2.0
    phase = TWO_PI * cmath.exp(-1j * y)
    terms = (phase * mu * t for mu, t in zip(cosine_moment_walk(y), _macdonald_terms(p, 0)))
    return _series_eval(terms, p, policy)


def theorem2_angular(eta2: float, x1: float, x2: float) -> complex:
    """int_{-1}^{1} e^{-sqrt(2) eta2 sqrt(-u x1 x2)} / sqrt(-u x1 x2) du = sqrt(2) (-e^{-sqrt(2)
    sqrt(x1 x2) eta2} + e^{-i sqrt(2) sqrt(x1 x2) eta2}) / (x1 x2 eta2), with the principal branch
    sqrt(-u) = i sqrt(u) on the u > 0 half.  Within 1e-10 of the CLI's quadrature oracle for eta2,
    x1, x2 in [0.5, 2].
    """
    if not all(0 < v < math.inf for v in (eta2, x1, x2)):
        raise DomainError("theorem2_angular: eta2, x1, x2 must be positive and finite")
    c = math.sqrt(2.0) * math.sqrt(x1 * x2) * eta2
    return math.sqrt(2.0) * (-math.exp(-c) + cmath.exp(-1j * c)) / (x1 * x2 * eta2)


def _theorem2_oracle(eta2: float, x1: float, x2: float) -> complex:
    # theorem2_angular by quadrature, split at u = 0 where sqrt(-u x1 x2) turns imaginary
    c = math.sqrt(2 * x1 * x2) * eta2

    def neg_half(w: float) -> float:
        return 2.0 * math.exp(-c * w) / math.sqrt(x1 * x2)

    def pos_half(w: float) -> complex:
        return 2.0 * cmath.exp(-1j * c * w) / (1j * math.sqrt(x1 * x2))

    return (
        integrate_finite(neg_half, 0.0, 1.0, 1e-12).value
        + integrate_finite(pos_half, 0.0, 1.0, 1e-12).value
    )


# ---------------------------------------------------------------------------
# double-series reconstructions of the k = 0 closed forms
# ---------------------------------------------------------------------------

def _theorem3_coefs(n: int, lead: float, eta2: float, x2: float) -> list[tuple[float, int]]:
    """(coefficient, Gamma order at k = 0) for every (i, j) of block n; the
    k-th term of the block is b_k sum coefficient * Gamma(order - 2k, x2 eta2).
    Theorem 3 has lead = eta1 (at lead = eta1 = eta2 the k = 0 term is theorem4_block,
    which has its own closed form).  Each coefficient is a
    product A P_i Q_j of an n-only, an (n, i) and an (n, j) factor."""
    if n % 2 != 0:
        raise DomainError("theorem3/theorem4 blocks exist for even n >= 0 only")
    m = n // 2
    # A = sqrt(pi) (-1)^m lead 2^{m+3} Gamma((n+3)/2) / (n+1)! = 4 pi (-1)^m lead / (2^m m!)
    a = math.ldexp((-1) ** m * 4.0 * math.pi * lead / factorial(m), -m)
    # A P_i, with P_i = (-1)^i C(m, i) eta2^{n-2i} x2^{n+2-2i}
    ap = [a * (-1) ** i * math.comb(m, i) * eta2 ** (n - 2 * i) * x2 ** (n + 2 - 2 * i)
          for i in range(m + 1)]
    # Q_j = 2^{-j} k_half_coef(nu, j) with nu = (|n-1|-1)/2
    nu = abs(n - 1) // 2
    q = [math.ldexp(k_half_coef(nu, j), -j) for j in range(nu + 1)]
    return [(api * qj, 2 * i - j - m - 2) for i, api in enumerate(ap) for j, qj in enumerate(q)]


def theorem3_block_k_terms(n: int, p: SlaterPair,
                           policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """The k-series of block n (each term already summed over the finite i, j sums) under the
    policy: its tail rule against the block's running sum and its max_terms budget.  Its incomplete
    gammas come off one gamma_walk from the block's top order m - 2, read as far as a term first
    needs; a term past where the walk stopped raises the walk's error.  The (i, j) sum of a high
    block cancels, so its k-terms carry few correct digits: at n = 40 max|term|/|sum| grows from
    ~5e4 (k = 0) to ~7e9 (k = 5), and the k-terms are off by up to ~5e-6 relative to a 60-digit
    evaluation.
    Within 5e-14 relative to the sum of its |terms| of its (i, j) sum of 40-digit mpmath Gamma
    values for blocks n in {0, 2, 10, 20, 40}, x2 eta2 <= 0.25 and |eta1^2 - eta2^2| <= 0.3
    eta2^2."""
    _check_index("theorem3_block_k_terms", "n", n)
    coefs = _theorem3_coefs(n, p.eta1, p.eta2, p.x2)
    top = n // 2 - 2  # the highest order a block reads (see _theorem3_coefs)
    walk = gamma_walk(top, p.x2 * p.eta2)
    table: list[float] = []  # Re Gamma(top - i, x2 eta2), i = 0, 1, ...

    def gamma_at(order: int) -> float:
        try:
            return table[top - order]
        except IndexError:  # the first term to need this order reads the walk on to it
            while len(table) <= top - order:
                table.append(next(walk).real)
            return table[top - order]

    ratio = p.x2 * p.x2 * (p.eta1**2 - p.eta2**2)

    def k_terms():
        # b_k = (-1)^k ((n+3)/2)_k / k! (x2^2 (eta1^2 - eta2^2))^k
        b_k = 1.0
        for k in itertools.count():
            yield math.fsum(b_k * c * gamma_at(order - 2 * k) for c, order in coefs)
            b_k *= -((n + 3) / 2.0 + k) / (k + 1) * ratio

    return accumulate_series(k_terms(), policy)


def theorem3_series(p: SlaterPair, n_max: int = 40,
                    policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """k = 0 reconstruction of s1_two_slater_closed as a double series.

    Terms of the returned evaluation are the per-n blocks for even n <= n_max (the odd-n terms
    vanish by angular parity), each the math.fsum of an inner k-series over incomplete gammas
    (theorem3_block_k_terms) under the same policy as the outer series.  The expansion is organised
    around eta2.  The evaluation is flagged unconverged when the k-series of any block it sums is.
    Integer n_max >= 0 (DomainError otherwise).  Within 0.01 of 30-digit mpmath for the defaults,
    x2 eta2 <= 0.25 and (eta1^2 - eta2^2) / eta2^2 = +-[0.05, 0.2].
    """
    if p.eta1 == p.eta2:
        raise DomainError("theorem3_series: eta1 = eta2; use theorem4_series")
    _check_index("theorem3_series", "n_max", n_max)
    converged = True

    def blocks():
        nonlocal converged
        for n in range(0, n_max + 1, 2):
            ks = theorem3_block_k_terms(n, p, policy)
            converged &= ks.converged
            yield math.fsum(t.real for t in ks.terms)

    ev = accumulate_series(blocks(), policy)
    return ev if converged else replace(ev, converged=False)


@functools.cache
def _theorem4_table(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(L, M) of block n (even >= 0): block n = 4 pi eta2 x2^2 [e^{-z} sum_p L_p z^p
    + E_1(z) sum_p M_p z^p], z = x2 eta2, with L given for p = -2 ... n-1 and M as
    (M_{n-2}, M_n), the only powers it has (M_{-2} = 0 at n = 0).  Built once per n
    from exact integers over the common denominator 2^{m+nu} m! top!, with the
    1/(2^m m!) prefactor folded in, and rounded once: every (i, j) Gamma order
    a = 2i - j - m - 2 is an integer, so Gamma(a, z) = (a-1)! e^{-z} sum_{k<a} z^k/k! for
    a >= 1 (DLMF 8.4.8) and (-1)^K/K! [E_1(z) - e^{-z} sum_{j<K} (-1)^j j! z^{-j-1}]
    for a = -K <= 0 (DLMF 8.4.15).  Suffix sums over the order make it O(n^2) integer
    operations; exact integers keep it free of FACTORIAL_LIMIT."""
    m = n // 2
    nu = abs(n - 1) // 2
    top = m + 2 + nu  # Gamma orders run down to -top
    fact = [math.factorial(k) for k in range(top + 1)]
    top_over = [fact[top] // f for f in fact]  # top!/k!
    q = [fact[nu + j] // (fact[j] * fact[nu - j]) << (nu - j) for j in range(nu + 1)]
    e_part, e1_part = [0] * (n + 2), [0] * (n + 3)  # z^p at index p + 2
    for i in range(m + 1):
        s = n - 2 * i
        sign_comb = (-1) ** (m + i) * math.comb(m, i)
        w = {2 * i - j - m - 2: sign_comb * qj for j, qj in enumerate(q)}  # order -> weight
        acc = 0  # sum over orders a > k of w_a (a-1)!
        for k in range(max(w) - 1, -1, -1):
            acc += w.get(k + 1, 0) * fact[k]
            e_part[s + k + 2] += acc * top_over[k]
        g = {-a: wa * (-1) ** -a * top_over[-a] for a, wa in w.items() if a <= 0}
        e1_part[s + 2] += sum(g.values())
        acc = 0  # sum over K > j of g_K
        for j in range(max(g, default=0) - 1, -1, -1):
            acc += g.get(j + 1, 0)
            e_part[s - j + 1] -= (-1) ** j * fact[j] * acc
    den = (fact[m] * fact[top]) << (m + nu)
    return tuple(c / den for c in e_part), (e1_part[n] / den, e1_part[n + 2] / den)


@functools.cache
def _theorem4_abs_sum(n: int) -> float:
    """sum_p |L_p| of block n, inflated by (n + 4) eps: times max(1, z)^{n+1} (libm pow, within
    1 ulp) it is at least the rounded Horner sweep of sum_p |L_p| z^{p+2} (2n + 2 roundings)."""
    return math.fsum(map(abs, _theorem4_table(n)[0])) * (1.0 + (n + 4) * sys.float_info.epsilon)


def _theorem4_bracket(n: int, z: float, emz: float, e1: float) -> float:
    """block n / (4 pi eta2 x2^2) at z = x2 eta2 from the closed form, given
    emz = e^{-z} and e1 = E_1(z), in O(n); RangeError where the terms cancel.
    The guard first tries the per-order bound _theorem4_abs_sum(n) max(1, z)^{n+1} on the
    sizes of the e^{-z} terms, and sweeps those sizes one by one only where that fails."""
    if n % 2 != 0:
        raise DomainError("theorem3/theorem4 blocks exist for even n >= 0 only")
    ell, (m_lo, m_hi) = _theorem4_table(n)
    poly = 0.0
    for c in reversed(ell):
        poly = poly * z + c
    try:
        e1_zn = e1 * z**n
    except OverflowError:
        e1_zn = math.inf
    # z^2 times the bracket (both tables start at p = -2), and the sizes of its E_1 terms
    value = emz * poly + e1_zn * (m_lo + m_hi * z * z)
    e1_size = e1_zn * (abs(m_lo) + abs(m_hi) * z * z)
    bracket = value / z / z
    if not math.isfinite(bracket):
        raise CapacityError(f"theorem4_block: block {n} at x2 eta2 = {z} leaves double precision")
    limit = DERIVATIVE_REL_TOL * abs(value)
    try:
        reach = max(1.0, z) ** (n + 1)
    except OverflowError:
        reach = math.inf
    # rounding is monotone, so where the bound passes, the swept sum of sizes passes too
    if not sys.float_info.epsilon * (emz * (_theorem4_abs_sum(n) * reach) + e1_size) <= limit:
        size = 0.0
        for c in reversed(ell):
            size = size * z + abs(c)
        size = emz * size + e1_size
        if not sys.float_info.epsilon * size <= limit:
            raise RangeError(f"theorem4_block: the closed form of block {n} cancels to "
                             f"{abs(value) / size:.3g} of its size at x2 eta2 = {z}")
    return bracket


def _theorem4_point(eta2: float, x2: float) -> tuple[float, float, float, float]:
    """(4 pi eta2 x2^2, z, e^{-z}, E_1(z)) at z = x2 eta2."""
    if not (0 < eta2 < math.inf and 0 < x2 < math.inf):
        raise DomainError(f"theorem4: eta2 = {eta2}, x2 = {x2}, must be positive and finite")
    z = x2 * eta2
    return 4.0 * math.pi * eta2 * x2 * x2, z, math.exp(-z), upper_incomplete_gamma(0.0, z).real


def theorem4_block(n: int, eta2: float, x2: float) -> float:
    """Block n (even) of the equal-exponent reconstruction, the finite (i, j) sum
    4 pi eta2 x2^2 (-1)^m/(2^m m!) sum_{i,j} (-1)^i C(m, i) z^{n-2i} 2^{-j} k_half_coef(nu, j)
    Gamma(2i - j - m - 2, z), m = n/2, z = x2 eta2 (the k = 0 term of the theorem-3 block
    at eta1 = eta2), in closed form:

        4 pi eta2 x2^2 [e^{-z} sum_{p=-1}^{n-1} L_p z^p + E_1(z) (M_{n-2} z^{n-2} + M_n z^n)]

    (p = -2 also at n = 0), from the exact per-n table _theorem4_table and one E_1(z), where the
    float (i, j) sum cancels (block 120 at (0.37, 0.29) came out negative).  The terms cancel as z
    grows (block 10 at z = 10 is 9e-12 off): RangeError where eps sum|term| exceeds
    DERIVATIVE_REL_TOL |block|, as at z = 10, n = 10 and z = 30, n = 40.  Within 1e-14 of 70-digit
    mpmath for even n <= 120 and z = x2 eta2 in [0.005, 3]."""
    _check_index("theorem4_block", "n", n)
    scale, z, emz, e1 = _theorem4_point(eta2, x2)
    return scale * _theorem4_bracket(n, z, emz, e1)


def theorem4_series(eta2: float, x2: float, n_max: int = 40,
                    policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Equal-exponent reconstruction of s1_equal_eta_closed: the blocks
    theorem4_block(n) for even n <= n_max, with e^{-z} and E_1(z) taken once per
    series and each block evaluated in O(n) (same domain and RangeError guard).

    No inner geometric-correction series is needed, and all blocks are positive at real parameters.
    Integer n_max >= 0 (DomainError otherwise).  Within 0.01 of 30-digit mpmath for the defaults and
    x2 eta2 <= 0.25.
    """
    _check_index("theorem4_series", "n_max", n_max)
    scale, z, emz, e1 = _theorem4_point(eta2, x2)
    blocks = (scale * _theorem4_bracket(n, z, emz, e1) for n in range(0, n_max + 1, 2))
    return accumulate_series(blocks, policy)


def corollary6_n0_closed(eta1: float, eta2: float) -> float:
    """Closed form of the leading Cartesian-grouping amplitude term: 4 pi asinh(sqrt(eta2^2/eta1^2 -
    1)) / sqrt(eta2^2 - eta1^2), for eta2 > eta1 > 0.  Within 1e-14 of 30-digit mpmath for eta1 in
    [0.05, 5] and eta2 / eta1 in [1.01, 20].
    """
    if not math.inf > eta2 > eta1 > 0:
        raise DomainError("corollary6_n0_closed requires finite eta2 > eta1 > 0")
    return (
        4.0
        * math.pi
        / math.sqrt(eta2**2 - eta1**2)
        * math.asinh(math.sqrt(eta2**2 / eta1**2 - 1.0))
    )
