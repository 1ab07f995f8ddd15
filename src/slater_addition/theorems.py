"""One-range addition theorems for Yukawa-form functions and Slater orbitals.

The closed form treated throughout is

    yukawa_form:  e^{-x2 sqrt(B k^2 + C)} / sqrt(B k^2 + C),

expanded for |B k^2| < |C| into Macdonald-function series with increasing
half-integer order (an alternating series when B, C > 0): the base theorem,
its derivative (no 1/L denominator) and the Meijer-G generalisation, all as
x2-derivatives of the base term (e^{-z} times one polynomial in z = x2 sqrt(C)
per order and term: one upward Bessel-K walk per series for orders 0 and 1,
exact integer coefficients above), the six corollary substitutions that
specialise the same identity to spherical and Cartesian Slater-orbital
geometry, and the classical two-range min/max expansion kept as a baseline.

The truncation engine shared by every series in the package also lives
here: Kahan-compensated accumulation that stops once ``TAIL_WINDOW``
consecutive terms drop below ``rel_tol * |sum|``, or after ``max_terms``
terms (60 unless a ``TruncationPolicy`` says otherwise).  The theorems'
series take any k: outside |B k^2| < |C| their terms do not shrink, so they
come back with ``converged = False``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .errors import CapacityError, DomainError, PoleError, RangeError
from .specfun import (
    FACTORIAL_LIMIT,
    bessel_i_half,
    bessel_k_half,
    cos_power_to_legendre,
    factorial,
    k_half_coef,
    legendre_walk,
)

__all__ = [
    "YukawaFormParams",
    "TruncationPolicy",
    "SeriesEvaluation",
    "CorollaryConfig",
    "COROLLARY_VARIANTS",
    "accumulate_series",
    "yukawa_form",
    "theorem1_term",
    "theorem1_eval",
    "theorem5_term",
    "theorem5_eval",
    "theorem6_term",
    "theorem6_eval",
    "corollary_to_params",
    "corollary1_legendre_eval",
    "two_range_mos_terms",
    "two_range_mos_eval",
]

# consecutive terms below rel_tol * |sum| that end a series
TAIL_WINDOW = 2
# largest eps * sum|term| / |sum| a theorem-6 term's polynomial or a theorem-4 block may return
DERIVATIVE_REL_TOL = 1e-11
# two_range_mos_terms' largest n_terms: I_{n+1/2} needs (2n+1)!! within FACTORIAL_LIMIT
TWO_RANGE_MAX_TERMS = (FACTORIAL_LIMIT - 1) // 2 + 1


@dataclass(frozen=True)
class YukawaFormParams:
    """The (B, C, k, x2) parameterisation of e^{-x2 sqrt(Bk^2+C)}/sqrt(Bk^2+C).

    C may be negative or complex (principal square roots are used
    throughout); after the corollary substitutions x2 plays the role of the
    Slater exponent eta.
    """

    B: float
    C: complex | float
    k: float
    x2: float

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.B, self.C, self.k, self.x2))):
            raise DomainError(f"YukawaFormParams: non-finite input in {self}")
        if self.x2 <= 0:
            raise DomainError("YukawaFormParams: x2 must be positive")
        if self.k < 0:
            raise DomainError("YukawaFormParams: k must be nonnegative")
        if self.B * self.k**2 + self.C == 0:
            raise PoleError("YukawaFormParams: B k^2 + C = 0")


@dataclass(frozen=True)
class TruncationPolicy:
    """Tolerances and term limits governing infinite-series cutoff."""

    rel_tol: float = 1e-10
    max_terms: int = 60

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise DomainError(f"TruncationPolicy: rel_tol = {self.rel_tol}, must be positive and finite")
        if self.max_terms < 1:
            raise DomainError("TruncationPolicy: need max_terms >= 1")


@dataclass(frozen=True)
class SeriesEvaluation:
    """Ordered term list, partial sums, converged value, truncation diagnostics."""

    terms: tuple[complex, ...]
    partial_sums: tuple[complex, ...]
    value: complex
    converged: bool
    terms_used: int

    @property
    def real(self) -> float:
        return self.value.real


def accumulate_series(terms: Iterable[complex],
                      policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Kahan-compensated accumulation with tail-window truncation.

    The iterator is drawn until TAIL_WINDOW consecutive terms satisfy
    |term| <= rel_tol * |sum|, or until max_terms terms have been
    taken (flagged as not converged).  A generator that simply stops early
    declares its own (exact, degenerate) convergence.  ``policy`` defaults
    to TruncationPolicy().
    """
    policy = policy or TruncationPolicy()
    out_terms: list[complex] = []
    partials: list[complex] = []
    s = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    small_run = 0
    converged = False
    it = iter(terms)
    for _ in range(policy.max_terms):
        try:
            t = complex(next(it))
        except StopIteration:
            converged = True
            break
        y = t - comp
        new_s = s + y
        comp = (new_s - s) - y
        s = new_s
        out_terms.append(t)
        partials.append(s)
        if abs(t) <= policy.rel_tol * abs(s):
            small_run += 1
            if small_run >= TAIL_WINDOW:
                converged = True
                break
        else:
            small_run = 0
    if not out_terms:
        raise DomainError("accumulate_series: empty series")
    return SeriesEvaluation(
        terms=tuple(out_terms),
        partial_sums=tuple(partials),
        value=partials[-1],
        converged=converged,
        terms_used=len(out_terms),
    )


# ---------------------------------------------------------------------------
# the Yukawa-form closed form and the three theorem series
# ---------------------------------------------------------------------------

def yukawa_form(p: YukawaFormParams) -> complex:
    """e^{-x2 sqrt(Bk^2+C)} / sqrt(Bk^2+C), principal branch."""
    l2 = p.B * p.k**2 + p.C
    if l2 == 0:
        raise PoleError("yukawa_form: B k^2 + C = 0")
    ell = cmath.sqrt(l2)
    return cmath.exp(-p.x2 * ell) / ell


def _theorem6_closed(j: int, p: YukawaFormParams) -> complex:
    """Theorem 6's left-hand side (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}; theorem 5 is j = 1."""
    ell = cmath.sqrt(p.B * p.k**2 + complex(p.C))
    return ell ** (j - 1.0) * cmath.exp(-p.x2 * ell)


def _slater_direct(cfg: CorollaryConfig) -> float:
    """e^{-eta r}/r at the separation r of a corollary geometry, the left-hand side it expands."""
    if cfg.variant in ("C5", "C6"):
        r = math.sqrt(cfg.x1**2 + cfg.y1**2 + (cfg.z1 - cfg.z2) ** 2)
    else:
        r = math.sqrt(cfg.x1**2 - 2 * cfg.x1 * cfg.x2 * cfg.cos_theta + cfg.x2**2)
    return math.exp(-cfg.eta * r) / r


@functools.cache
def _macdonald_coefs(n: int, j: int) -> tuple[float, ...]:
    """P_{n,j} / (n! 4^n), highest power first.  x^{n+1/2} K_{n+1/2}(xs) is sqrt(pi/2s) e^{-xs}
    (2s)^{-n} sum_p c(n, n-p) (2xs)^p with c = k_half_coef (DLMF 10.49.12), and (-d/dx)^j
    [e^{-xs} Q] = e^{-xs} (s - d/dx)^j Q, so the alternating derivative sum cancels exactly in
    the integers beta_p = sum_i (-1)^i binom(j, i) c(n, n-p-i) 2^{p+i} (p+i)!/p!."""
    scale = factorial(n) * 4**n
    return tuple(
        sum((-1) ** i * math.comb(j, i) * k_half_coef(n, n - p - i) * 2 ** (p + i)
            * math.perm(p + i, i) for i in range(min(j, n - p) + 1)) / scale
        for p in range(n, -1, -1)
    )


def _macdonald_terms(p: YukawaFormParams, j: int, first: int = 0) -> Iterator[complex]:
    """Terms first, first + 1, ... of theorem 1 (j = 0), theorem 5 (j = 1) or theorem 6 (order
    j), (-d/dx2)^j of theorem 1's term: (-B k^2)^n C^{j/2-n-1/2} e^{-z} w_{n,j}(z) at
    z = x2 sqrt(C), w_{n,j} = P_{n,j}/(n! 4^n), with sqrt(C) and e^{-z} computed once.
    For j <= 1, one upward walk gives each term in O(1): w_{n,0} = z^n q_n/(n! 2^n), where
    q_n = sum_J k_half_coef(n, J) (2z)^{-J} obeys K's recurrence q_{n+1} = q_{n-1} + (2n+1)/z q_n
    (DLMF 10.29.1, stable upward), and w_{n,1} = z w_{n-1,0}/(2n).  For j >= 2, a Horner pass over
    the exact _macdonald_coefs(n, j), with RangeError where eps sum|beta_p z^p| exceeds
    DERIVATIVE_REL_TOL |P_{n,j}(z)|."""
    if isinstance(j, bool) or not isinstance(j, int) or j < 0:
        raise DomainError(f"theorem6_term: j must be an integer >= 0, got {j!r}")
    name = ("theorem1_term", "theorem5_term")[j] if j < 2 else "theorem6_term"
    if first < 0:
        raise DomainError(f"{name}: n must be >= 0")
    c = complex(p.C)
    if c == 0:
        raise PoleError(f"{name}: C = 0")
    z = p.x2 * cmath.sqrt(c)
    decay = cmath.exp(-z)
    if decay == 0:  # P_{n,j}(z) may overflow, but every term is 0
        yield from itertools.repeat(0j)
    B, k, z2, r = p.B, p.k, z * z, abs(z)
    # powers of exact inputs; only where C^{-n-1/2} overflows, (-Bk^2/C)^n (n-fold rounding)
    scales = (lambda n: (-1.0) ** n * B**n * k ** (2 * n) * c ** (j / 2 - n - 0.5),
              lambda n: (-B * k**2 / p.C) ** n * c ** (j / 2 - 0.5))
    w_prev = w = 1.0  # w_{n-1,0}, w_{n,0}
    for n in itertools.count():
        if n >= first:
            if j == 0:
                poly = w
            elif j == 1:
                poly = z * w_prev / (2 * n) if n else 1.0
            else:
                poly, size = 0.0, 0.0
                for a in _macdonald_coefs(n, j):
                    poly, size = poly * z + a, size * r + abs(a)
            for scale in scales:
                try:
                    term = scale(n) * decay * poly
                except OverflowError:
                    continue
                if cmath.isfinite(term):
                    break
            else:
                raise CapacityError(f"{name}: term {n} at x2 sqrt(C) = {z} overflows double precision")
            if j >= 2 and sys.float_info.epsilon * size > DERIVATIVE_REL_TOL * abs(poly):
                raise RangeError(f"{name}: the order-{j} polynomial cancels to "
                                 f"{abs(poly) / size:.3g} of its size at n = {n}")
            yield term
        if j < 2:  # q_1 = 1 + 1/z gives w_1 = (1 + z)/2
            w_prev, w = w, ((2 * n + 1) * w + z2 * w_prev / (2 * n)) / (2 * n + 2) if n else (1 + z) / 2


def theorem1_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the base series:
    sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{-n/2-1/4} K_{n+1/2}(x2 sqrt(C)).
    """
    return next(_macdonald_terms(p, 0, n))


def theorem5_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the derivative series (for e^{-x2 sqrt(Bk^2+C)}, no denominator):
    sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{1/4-n/2} K_{n-1/2}(x2 sqrt(C)).
    """
    return next(_macdonald_terms(p, 1, n))


def theorem6_term(j: int, n: int, p: YukawaFormParams) -> complex:
    """Term n of the order-j series for (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}, which the paper
    writes (1/sqrt(pi)) (-1)^n B^n k^{2n}/n! C^{j/2-n-1/2} G(j, n-(j+1)/2, 4/(C x2^2)), as
    (-d/dx2)^j theorem1_term(n, p): e^{-z} times a degree-n polynomial in z = x2 sqrt(C) with
    exact integer coefficients; theorem1_term and theorem5_term (and evals) bit for bit at j = 0
    and 1.  RangeError where eps sum|beta_p z^p| exceeds DERIVATIVE_REL_TOL |P(z)|."""
    return next(_macdonald_terms(p, j, n))


def _series_eval(terms: Iterator[complex], p: YukawaFormParams,
                 policy: TruncationPolicy | None) -> SeriesEvaluation:
    # every n >= 1 term carries B^n k^{2n}: at B k^2 = 0 the series is exact at one term
    return accumulate_series(itertools.islice(terms, 1) if p.B * p.k**2 == 0 else terms, policy)


def theorem1_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem1_term; converges to yukawa_form(p) for |B k^2| < |C|."""
    return _series_eval(_macdonald_terms(p, 0), p, policy)


def theorem5_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem5_term; converges to exp(-x2 sqrt(Bk^2+C)) for |B k^2| < |C|."""
    return _series_eval(_macdonald_terms(p, 1), p, policy)


def theorem6_eval(j: int, p: YukawaFormParams,
                  policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem6_term; converges to (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}
    for |B k^2| < |C|."""
    return _series_eval(_macdonald_terms(p, j), p, policy)


# ---------------------------------------------------------------------------
# corollary substitutions
# ---------------------------------------------------------------------------

COROLLARY_VARIANTS = ("C1", "C2", "C3", "C4", "C5", "C6")


@dataclass(frozen=True)
class CorollaryConfig:
    """Geometry for the corollary substitutions.

    Spherical variants C1-C4 use (x1, x2, cos_theta); Cartesian variants
    C5-C6 use (x1, y1, z1, z2).  eta is the Slater exponent and lands in the
    x2 slot of YukawaFormParams; k stays at the theorems' k = 1 specialisation
    unless explicitly overridden.
    """

    variant: str
    eta: float
    x1: float = 0.0
    x2: float = 0.0
    cos_theta: float = 0.0
    y1: float = 0.0
    z1: float = 0.0
    z2: float = 0.0
    k: float = 1.0

    def __post_init__(self):
        if self.variant not in COROLLARY_VARIANTS:
            raise DomainError(f"unknown corollary variant {self.variant!r}")
        if self.eta <= 0:
            raise DomainError("CorollaryConfig: eta must be positive")
        if self.variant in ("C1", "C2", "C3", "C4"):
            if self.x1 <= 0 or self.x2 <= 0:
                raise DomainError("spherical corollaries need x1, x2 > 0")
            if abs(self.cos_theta) > 1:
                raise DomainError("|cos_theta| must be <= 1")
        else:
            if self.x1**2 + self.y1**2 <= 0:
                raise DomainError("Cartesian corollaries need x1^2 + y1^2 > 0")


def corollary_to_params(cfg: CorollaryConfig) -> YukawaFormParams:
    """Map a corollary geometry onto YukawaFormParams.

    C1: C = x2^2,          B = x1^2 - 2 x1 x2 cos(theta)
    C2: C = x1^2,          B = x2^2 - 2 x1 x2 cos(theta)
    C3: C = -2 x1 x2 cos(theta),  B = x1^2 + x2^2   (imaginary sqrt(C) for cos > 0)
    C4: C = x1^2 + x2^2,   B = -2 x1 x2 cos(theta)  (the most reliably convergent)
    C5: C = (z1 - z2)^2,   B = x1^2 + y1^2          (reverts to a two-range form)
    C6: C = x1^2 + y1^2,   B = (z1 - z2)^2
    """
    dot = cfg.x1 * cfg.x2 * cfg.cos_theta
    if cfg.variant == "C1":
        B, C = cfg.x1**2 - 2 * dot, cfg.x2**2
    elif cfg.variant == "C2":
        B, C = cfg.x2**2 - 2 * dot, cfg.x1**2
    elif cfg.variant == "C3":
        if cfg.cos_theta == 0:
            raise PoleError("corollary C3 has C = 0 at cos_theta = 0")
        B, C = cfg.x1**2 + cfg.x2**2, -2 * dot
    elif cfg.variant == "C4":
        B, C = -2 * dot, cfg.x1**2 + cfg.x2**2
    elif cfg.variant == "C5":
        if cfg.z1 == cfg.z2:
            raise PoleError("corollary C5 has C = 0 at z1 = z2")
        B, C = cfg.x1**2 + cfg.y1**2, (cfg.z1 - cfg.z2) ** 2
    else:  # C6
        B, C = (cfg.z1 - cfg.z2) ** 2, cfg.x1**2 + cfg.y1**2
    return YukawaFormParams(B=B, C=C, k=cfg.k, x2=cfg.eta)


def corollary1_legendre_eval(cfg: CorollaryConfig,
                             policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Corollary-1 series with its finite Legendre second series written out.

    Term n is theorem1_term of the C1 mapping with B^n = (x1^2 - 2 x1 x2 cos)^n
    written out as the inner finite sums over j (its binomial expansion) and
    over m (the expansion of cos^j in Legendre polynomials).
    """
    if cfg.variant != "C1":
        raise DomainError("corollary1_legendre_eval expects a C1 configuration")
    x1, x2 = cfg.x1, cfg.x2
    p = corollary_to_params(cfg)
    walk = legendre_walk(cfg.cos_theta)
    # per series, grown with n: P_m(cos), L_j = cos^j = sum_m c_{j,m} P_m(cos), (-2 x2)^j and
    # x1^m, each power taken once by pow
    legendre: list[float] = []
    cos_powers: list[float] = []
    x2_powers: list[float] = []
    x1_powers: list[float] = []

    def inner(n: int) -> float:
        while len(cos_powers) <= n:
            j = len(cos_powers)
            legendre.append(next(walk))
            cos_powers.append(sum(c * legendre[m] for m, c in cos_power_to_legendre(j).items()))
            x2_powers.append((-1.0) ** j * 2.0**j * x2**j)
        while len(x1_powers) <= 2 * n:
            x1_powers.append(x1 ** len(x1_powers))
        total = 0.0
        for j in range(n + 1):
            total += x2_powers[j] * math.comb(n, j) * x1_powers[2 * n - j] * cos_powers[j]
        return total

    terms = (t * inner(n) for n, t in enumerate(_macdonald_terms(replace(p, B=1.0), 0)))
    return _series_eval(terms, p, policy)


# ---------------------------------------------------------------------------
# two-range baseline
# ---------------------------------------------------------------------------

def two_range_mos_terms(eta: float, x1: float, x2: float, cos_theta: float,
                        n_terms: int) -> list[float]:
    """Terms of the classical min/max expansion of e^{-eta x12}/x12:

        x1^{-1/2} x2^{-1/2} (2n+1) P_n(cos) I_{n+1/2}(eta x_<) K_{n+1/2}(eta x_>).

    1 <= n_terms <= TWO_RANGE_MAX_TERMS = 85: order 84 is bessel_i_half's last
    (CapacityError beyond).  P_0 ... P_{n_terms-1} come from one legendre_walk, which
    raises DomainError for cos_theta outside [-1, 1] or NaN.
    """
    if eta <= 0 or x1 <= 0 or x2 <= 0:
        raise DomainError("two_range_mos: eta, x1, x2 must be positive")
    if n_terms < 1:
        raise DomainError("two_range_mos: n_terms must be >= 1")
    if n_terms > TWO_RANGE_MAX_TERMS:
        raise CapacityError(f"two_range_mos: n_terms = {n_terms} exceeds {TWO_RANGE_MAX_TERMS}, "
                            "past the last order bessel_i_half holds")
    if x1 == x2:
        warnings.warn(
            "two_range_mos at x1 = x2: evaluated on the boundary of the stated "
            "domain 0 < x_< < x_> (by continuity)",
            stacklevel=3,
        )
    lo, hi = min(x1, x2), max(x1, x2)
    pref = 1.0 / math.sqrt(x1 * x2)
    return [
        pref
        * (2 * n + 1)
        * legendre
        * bessel_i_half(n, eta * lo)
        * bessel_k_half(n, eta * hi).real
        for n, legendre in zip(range(n_terms), legendre_walk(cos_theta))
    ]


def two_range_mos_eval(eta: float, x1: float, x2: float, cos_theta: float,
                       n_terms: int = 60) -> float:
    """Partial sum of the two-range expansion through n_terms terms."""
    return math.fsum(two_range_mos_terms(eta, x1, x2, cos_theta, n_terms))
