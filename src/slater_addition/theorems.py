"""One-range addition theorems for Yukawa-form functions and Slater orbitals.

The closed form treated throughout is

    yukawa_form:  e^{-x2 sqrt(B k^2 + C)} / sqrt(B k^2 + C),

expanded for |B k^2| < |C| into Macdonald-function series with increasing
half-integer order (an alternating series when B, C > 0): the base theorem,
its derivative (no 1/L denominator) and the Meijer-G generalisation, all as
x2-derivatives of the base term (e^{-z} times one polynomial in z = x2 sqrt(C)
per order and term, all from one upward Bessel-K walk per series and a
two-term recurrence across orders), the six corollary substitutions that
specialise the same identity to spherical and Cartesian Slater-orbital
geometry, and the classical two-range min/max expansion kept as a baseline.

The truncation engine shared by every series in the package also lives
here: Kahan-compensated accumulation that stops once ``TAIL_WINDOW``
consecutive terms drop below ``rel_tol * |sum|``, or after ``max_terms``
terms (60 unless a ``TruncationPolicy`` says otherwise).  It sums in floats
while the terms are real, derives partial sums on demand and reports the
cancellation max|term| / |value|.  At a real C > 0 the theorem series run in
floats.  The theorems' series take any k: outside |B k^2| < |C| their terms
do not shrink, so they come back with ``converged = False``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .errors import CapacityError, DomainError, PoleError, RangeError, _check_index
from .specfun import (
    bessel_i_walk,
    bessel_k_half,
    cos_power_to_legendre,
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
        _check_index("TruncationPolicy", "max_terms", self.max_terms, 1)


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesEvaluation:
    """Ordered terms, value and truncation diagnostics of one series.

    ``terms`` are stored as complex.  ``value`` is accumulate_series' Kahan
    sum; its imaginary part is 0.0 where every term was real.
    ``cancellation`` is max|term| / |value| (inf where the value is 0): one
    rounding (eps) of the largest term moves the value by eps times it,
    relative to |value|, which ``converged`` does not look at.
    ``partial_sums`` replays the same Kahan loop over ``terms`` on demand.
    """

    terms: tuple[complex, ...]
    value: complex
    converged: bool
    terms_used: int
    cancellation: float

    @property
    def partial_sums(self) -> tuple[complex, ...]:
        """The Kahan partial sums of ``terms``, bit for bit those of accumulate_series; the last
        is ``value``."""
        out: list[complex] = []
        s = comp = 0.0
        for t in self.terms:
            y = t - comp
            new_s = s + y
            comp = (new_s - s) - y
            s = new_s
            out.append(s)
        return tuple(out)


def accumulate_series(terms: Iterable[complex],
                      policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Kahan-compensated accumulation with tail-window truncation.

    The iterator is drawn until TAIL_WINDOW consecutive terms satisfy
    |term| <= rel_tol * |sum|, or until max_terms terms have been
    taken (flagged as not converged).  A generator that simply stops early
    declares its own (exact, degenerate) convergence.  ``policy`` defaults
    to DEFAULT_POLICY.  The sum stays in float arithmetic while the terms are
    real, and the first complex term promotes it; either way the real parts are
    those of a complex loop bit for bit.  The largest |term| is kept for
    ``cancellation``.  A sum that is not finite is flagged as not converged.
    """
    policy = policy or DEFAULT_POLICY
    rel_tol = policy.rel_tol
    out_terms: list[complex] = []
    s = comp = peak = 0.0
    small_run = 0
    for t in itertools.islice(terms, policy.max_terms):
        y = t - comp
        new_s = s + y
        comp = (new_s - s) - y
        s = new_s
        out_terms.append(complex(t))
        size = abs(t)
        if size > peak:
            peak = size
        if size <= rel_tol * abs(s):
            small_run += 1
            if small_run >= TAIL_WINDOW:
                converged = True
                break
        else:
            small_run = 0
    else:  # a generator that stops inside the budget is finite
        converged = len(out_terms) < policy.max_terms
    if not out_terms:
        raise DomainError("accumulate_series: empty series")
    return SeriesEvaluation(
        terms=tuple(out_terms),
        value=complex(s),
        converged=converged and cmath.isfinite(s),
        terms_used=len(out_terms),
        cancellation=peak / abs(s) if s else math.inf,
    )


# ---------------------------------------------------------------------------
# the Yukawa-form closed form and the three theorem series
# ---------------------------------------------------------------------------

def yukawa_form(p: YukawaFormParams) -> complex:
    """e^{-x2 sqrt(Bk^2+C)} / sqrt(Bk^2+C), principal branch.  Within 1e-14 of 30-digit mpmath for
    |B k^2/C| <= 0.7, any arg C, |C| in [0.05, 9], k in [0.05, 3], x2 in [0.05, 2]."""
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


def _power(c: complex, n: int) -> complex:
    """c^n, n >= 0, by repeated squaring, O(log n) roundings."""
    out = 1.0
    while n:
        if n & 1:
            out *= c
        n >>= 1
        c *= c
    return out


def _macdonald_terms(name: str, p: YukawaFormParams, j: int, first: int = 0) -> Iterator[complex]:
    """Terms first, first + 1, ... of theorem 1 (j = 0), theorem 5 (j = 1) or theorem 6 (order
    j), (-d/dx2)^j of theorem 1's term: (-B k^2)^n C^{j/2-n-1/2} e^{-z} w_{n,j}(z) at
    z = x2 sqrt(C), w_{n,j} = P_{n,j}/(n! 4^n), with sqrt(C) and e^{-z} computed once.  One upward
    walk gives w_{n,0} = z^n q_n/(n! 2^n): q_n = sum_J k_half_coef(n, J) (2z)^{-J} obeys K's
    recurrence q_{n+1} = q_{n-1} + (2n+1)/z q_n (DLMF 10.29.1, stable upward; q_1 = 1 + 1/z).
    Leibniz's rule on -d/dx [x^nu K_nu(xs)] = s x^nu K_{nu-1}(xs) (DLMF 10.29(ii)) gives the rest,
    w_{n,i} = (z w_{n-1,i-1} - (i-1) w_{n-1,i-2})/(2n), w_{0,i} = 1: O(j) a term.  For j >= 2,
    RangeError where the terms' rounding so far, eps times each term's scale times the same
    recurrence run on |z| and absolute values, exceeds DERIVATIVE_REL_TOL times |their sum|.

    A real C > 0 (a float or an int, not a bool) runs the walk in floats and yields floats; any
    other C runs it in complex arithmetic.  The two agree bit for bit at even j; at odd j,
    C^{j/2-n-1/2} is an integer power, which libm's pow and the complex power round differently.
    A non-real C takes that prefactor as C^{(j-1)/2} / C^n, C^n by repeated squaring, and a real
    C < 0 as |C|^{j/2-n-1/2} times its phase, a power of +-i.  Its errors name the public function
    the caller passes as name."""
    _check_index(name, "j", j)
    _check_index(name, "n", first)
    real = isinstance(p.C, (int, float)) and not isinstance(p.C, bool) and p.C > 0
    if real:
        c, sqrt, exp, isfinite = float(p.C), math.sqrt, math.exp, math.isfinite
    else:
        c, sqrt, exp, isfinite = complex(p.C), cmath.sqrt, cmath.exp, cmath.isfinite
    if c == 0:
        raise PoleError(f"{name}: C = 0")
    z = p.x2 * sqrt(c)
    decay = exp(-z)
    if decay == 0:  # P_{n,j}(z) may overflow, but every term is 0
        yield from itertools.repeat(0.0 if real else 0j)
    B, k, z2, r = p.B, p.k, z * z, abs(z)
    root = c ** ((j - 1) / 2) if c.imag else None  # at non-real C, C^{j/2-n-1/2} = root / C^n
    # at real C < 0, arg C = +-pi with the sign of its zero imaginary part: C^e = |C|^e (+-i)^{2e},
    # the phase exact where the complex power rounds pi e
    neg = -c.real if not c.imag and c.real < 0 else None
    turns = (1, 1j, -1, -1j) if math.copysign(1.0, c.imag) > 0 else (1, -1j, -1, 1j)
    w_prev, w, total, err = 1.0, 1.0, 0.0, 0.0  # w_{n-1,0}, w_{n,0}, the sum so far, its rounding
    if j >= 2:  # w_{n,i} for i <= j, and the same walk on |z|; theorems 1 and 5 need neither
        row, size = [1.0] * (j + 1), [1.0] * (j + 1)
    for n in itertools.count():
        if n >= first:
            if j == 0:
                poly = w
            elif j == 1:
                poly = z * w_prev / (2 * n) if n else 1.0
            else:
                poly = row[j]
            # powers of exact inputs; only where C^{-n-1/2} overflows, (-Bk^2/C)^n (n-fold rounding)
            try:
                if neg is not None:
                    power = neg ** (j / 2 - n - 0.5) * turns[(j - 1 - 2 * n) % 4]
                else:
                    power = c ** (j / 2 - n - 0.5) if root is None else root / _power(c, n)
                unit = (-1.0) ** n * B**n * k ** (2 * n) * power * decay
                term = unit * poly
            except (OverflowError, ZeroDivisionError):  # C^m under- or overflows in the power
                term = math.nan
            if not isfinite(term):
                try:
                    unit = (-B * k**2 / p.C) ** n * c ** (j / 2 - 0.5) * decay
                    term = unit * poly
                except OverflowError:
                    pass
                if not isfinite(term):
                    raise CapacityError(f"{name}: term {n} at x2 sqrt(C) = {complex(z)} "
                                        "overflows double precision")
            if j >= 2:
                total, err = total + term, err + sys.float_info.epsilon * size[j] * abs(unit)
                if err > DERIVATIVE_REL_TOL * abs(total):
                    raise RangeError(f"{name}: the order-{j} terms cancel: their sum is "
                                     f"{abs(total) / err:.3g} times their rounding at n = {n}")
            yield term
        w_prev, w = w, ((2 * n + 1) * w + z2 * w_prev / (2 * n)) / (2 * n + 2) if n else (1 + z) / 2
        if j >= 2:  # row n + 1 in place, i = j down; s_0 by K's recurrence, ((2n+1) s_0 + |z| s_1)/m
            m = 2 * n + 2
            for i in range(j, 1, -1):
                row[i] = (z * row[i - 1] - (i - 1) * row[i - 2]) / m
                size[i] = (r * size[i - 1] + (i - 1) * size[i - 2]) / m
            row[0], row[1] = w, z * w_prev / m
            size[0], size[1] = ((m - 1) * size[0] + r * size[1]) / m, r * size[0] / m


def theorem1_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the base series: sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{-n/2-1/4}
    K_{n+1/2}(x2 sqrt(C)).  Within 1.5e-14 of exact P_{n,j} in 40-digit mpmath for n <= 120 at
    non-real C, |C| in [0.05, 4], |B k^2/C| in [0.3, 0.9], k in [0.05, 1], x2 in [0.05, 2], where
    the term is a normal double.  Within 2e-15 of exact P_{n,j} in 40-digit mpmath for n <= 120 at
    real C in {-0.08, -0.4, -1.5, -3}, x2 in {0.05, 0.6, 2}, |B k^2/C| in [0.3, 0.9], k in [0.05,
    1], where the term is a normal double.
    """
    return next(_macdonald_terms("theorem1_term", p, 0, n))


def theorem5_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the derivative series (for e^{-x2 sqrt(Bk^2+C)}, no denominator): sqrt(2/pi) (-1)^n
    B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{1/4-n/2} K_{n-1/2}(x2 sqrt(C)).  Within 1.5e-14 of exact
    P_{n,j} in 40-digit mpmath for n <= 120 at non-real C, |C| in [0.05, 4], |B k^2/C| in [0.3,
    0.9], k in [0.05, 1], x2 in [0.05, 2], where the term is a normal double.
    """
    return next(_macdonald_terms("theorem5_term", p, 1, n))


def theorem6_term(j: int, n: int, p: YukawaFormParams) -> complex:
    """Term n of the order-j series for (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}, which the paper
    writes (1/sqrt(pi)) (-1)^n B^n k^{2n}/n! C^{j/2-n-1/2} G(j, n-(j+1)/2, 4/(C x2^2)), as
    (-d/dx2)^j theorem1_term(n, p): e^{-z} times a degree-n polynomial in z = x2 sqrt(C), from
    theorem 1's K walk and w_{n,i} = (z w_{n-1,i-1} - (i-1) w_{n-1,i-2})/(2n) in O(j) a term, with
    no order cap; theorem1_term and theorem5_term (and evals) bit for bit at j = 0 and 1.
    RangeError where eps times the same recurrence on |z| exceeds DERIVATIVE_REL_TOL |P(z)|.

    Within 1e-14 times min(kappa, 10 at j <= 2 or 1000), kappa = sum|beta_p z^p| / |P_{n,j}(z)|, of
    exact P_{n,j} in 40-digit mpmath for j <= 8, n in {0, 1, 2, 5, 10, 20, 30}, B, k in [0.05, 1]
    and C, x2 in [0.05, 2].  Within 1e-11 of the paper's G-form in 40-digit mpmath for 3 <= j <= 8,
    n in {0, 1, 2, 5, 10, 20}, B, k in [0.05, 1] and C, x2 in [0.05, 2].  Within 1e-14 of exact
    P_{n,j} in 40-digit mpmath for (j, n) = (2, 86), (3, 100), (5, 120) at C = 0.8, and n = 20 at C
    = 1e-16.  Within 3e-14 of exact P_{n,j} in 40-digit mpmath for j = 5, n <= 120 at non-real C,
    |C| in [0.05, 4], |B k^2/C| in [0.3, 0.9], k in [0.05, 1], x2 in [0.05, 2], where the term is a
    normal double."""
    return next(_macdonald_terms("theorem6_term", p, j, n))


def _series_eval(terms: Iterator[complex], p: YukawaFormParams,
                 policy: TruncationPolicy | None) -> SeriesEvaluation:
    # every n >= 1 term carries B^n k^{2n}: at B k^2 = 0 the series is exact at one term
    return accumulate_series(itertools.islice(terms, 1) if p.B * p.k**2 == 0 else terms, policy)


def theorem1_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem1_term; converges to yukawa_form(p) for |B k^2| < |C|.  Within 1e-9 of
    30-digit mpmath for |B k^2/C| <= 0.5, any arg C, |C| in [0.05, 9], k in [0.05, 3], x2 in [0.05,
    2], and the golden C4 grid."""
    return _series_eval(_macdonald_terms("theorem1_eval", p, 0), p, policy)


def theorem5_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem5_term; converges to exp(-x2 sqrt(Bk^2+C)) for |B k^2| < |C|.  Within
    1e-9 of 30-digit mpmath for |B k^2/C| <= 0.5, any arg C, |C| in [0.05, 9], k in [0.05, 3], x2 in
    [0.05, 2]."""
    return _series_eval(_macdonald_terms("theorem5_eval", p, 1), p, policy)


def theorem6_eval(j: int, p: YukawaFormParams,
                  policy: TruncationPolicy | None = None) -> SeriesEvaluation:
    """Partial sums of theorem6_term, all from one walk; converges to (Bk^2+C)^{(j-1)/2} e^{-x2
    sqrt(Bk^2+C)} for |B k^2| < |C|.  RangeError where the terms' rounding, bounded by the walk's
    recurrence on |z|, outgrows DERIVATIVE_REL_TOL |sum|.  Within 1e-9 of 30-digit mpmath for j = 2,
    3, |B k^2/C| <= 0.5, any arg C, |C| in [0.05, 9], k in [0.05, 3], x2 in [0.05, 2].  Within 3e-14
    of exact P_{n,j} in 40-digit mpmath for terms n <= 60 of j <= 5 at x2 sqrt(C) = 53.7i, 5.8
    sqrt(-1.5446), 7 sqrt(0.65 + 1.69i) and 7 sqrt(2)."""
    return _series_eval(_macdonald_terms("theorem6_eval", p, j), p, policy)


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
        if not 0 < self.eta < math.inf:
            raise DomainError(f"CorollaryConfig: eta = {self.eta}, must be positive and finite")
        if self.variant in ("C1", "C2", "C3", "C4"):
            if not (0 < self.x1 < math.inf and 0 < self.x2 < math.inf):
                raise DomainError("spherical corollaries need finite x1, x2 > 0")
            if not abs(self.cos_theta) <= 1:  # NaN too
                raise DomainError("|cos_theta| must be <= 1")
        else:
            if not all(map(math.isfinite, (self.x1, self.y1, self.z1, self.z2))):
                raise DomainError("Cartesian corollaries need finite x1, y1, z1, z2")
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

    Term n is theorem1_term of the C1 mapping with B^n = (x1^2 - 2 x1 x2 cos)^n written out as the
    inner finite sums over j (its binomial expansion) and over m (the expansion of cos^j in Legendre
    polynomials).  Within 1e-9 of 30-digit mpmath for C1 at |B k^2/C| <= 0.5 with cos theta <= -1/2,
    or at k = 1, x1/x2 <= 0.3 and |cos theta| <= 0.9.
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

    base = _macdonald_terms("corollary1_legendre_eval", replace(p, B=1.0), 0)
    terms = (t * inner(n) for n, t in enumerate(base))
    return _series_eval(terms, p, policy)


# ---------------------------------------------------------------------------
# two-range baseline
# ---------------------------------------------------------------------------

def _two_range_terms(name: str, eta: float, x1: float, x2: float, cos_theta: float,
                     n_terms: int) -> list[float]:
    # two_range_mos_terms for the public function name, which its errors and warning name
    if not all(0 < v < math.inf for v in (eta, x1, x2)):
        raise DomainError(f"{name}: eta, x1, x2 must be positive and finite, got {eta}, {x1}, {x2}")
    if not abs(cos_theta) <= 1:  # NaN too
        raise DomainError(f"{name}: cos_theta = {cos_theta} is outside [-1, 1]")
    _check_index(name, "n_terms", n_terms, 1)
    if x1 == x2:
        warnings.warn(f"{name} at x1 = x2: evaluated on the boundary of the stated domain 0 < x_< < x_> "
                      "(by continuity)", stacklevel=3)
    lo, hi = min(x1, x2), max(x1, x2)
    pref = 1.0 / math.sqrt(x1 * x2)
    walks = zip(range(n_terms), legendre_walk(cos_theta), bessel_i_walk(eta * lo))
    return [pref * (2 * n + 1) * legendre * i_half * bessel_k_half(n, eta * hi).real
            for n, legendre, i_half in walks]


def two_range_mos_terms(eta: float, x1: float, x2: float, cos_theta: float,
                        n_terms: int) -> list[float]:
    """Terms of the classical min/max expansion of e^{-eta x12}/x12:

        x1^{-1/2} x2^{-1/2} (2n+1) P_n(cos) I_{n+1/2}(eta x_<) K_{n+1/2}(eta x_>).

    DomainError unless eta, x1 and x2 are positive and finite and |cos_theta| <= 1.  1 <= n_terms
    <= 86: bessel_k_half's CapacityError past order 85 stops a longer expansion.  The P_n come from
    one legendre_walk and the I_{n+1/2}(eta x_<) from one bessel_i_walk (CapacityError where
    I_{1/2} overflows).  Within 1e-14 relative to (2n+1) |I K| / sqrt(x1 x2)
    of 30-digit mpmath for n < 84, x_< / x_> in [0.15, 0.9], |cos theta| <= 0.9, eta in [0.1,
    1.5], x_> in [0.5, 2.5].
    """
    return _two_range_terms("two_range_mos_terms", eta, x1, x2, cos_theta, n_terms)


def two_range_mos_eval(eta: float, x1: float, x2: float, cos_theta: float,
                       n_terms: int = 60) -> float:
    """Partial sum of the two-range expansion through n_terms terms.  Within 1e-12 of 30-digit
    mpmath for 84 terms, x_< / x_> in [0.15, 0.3], |cos theta| <= 0.9, eta in [0.3, 1.5], x_> in
    [0.5, 2.5].  Within 0.0001 of 30-digit mpmath for 84 terms, x_< / x_> in [0.15, 0.9], |cos
    theta| <= 0.9, eta in [0.3, 1.5], x_> in [0.5, 2.5]."""
    return math.fsum(_two_range_terms("two_range_mos_eval", eta, x1, x2, cos_theta, n_terms))
