"""One-range addition theorems for Yukawa-form functions and Slater orbitals.

The closed form treated throughout is

    yukawa_form:  e^{-x2 sqrt(B k^2 + C)} / sqrt(B k^2 + C),

expanded for k <= 1 into Macdonald-function series with increasing
half-integer order (an alternating series when B, C > 0): the base theorem
and its derivative (no 1/L denominator), the Meijer-G generalisation, the
six corollary substitutions that specialise the same identity to spherical
and Cartesian Slater-orbital geometry, and the classical two-range
min/max expansion kept as a comparison baseline.

The truncation engine shared by every series in the package also lives
here: Kahan-compensated accumulation that stops after ``tail_window``
consecutive terms drop below ``rel_tol * |sum| + abs_tol``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainError, PoleError
from .specfun import (
    bessel_i_half,
    bessel_k_half,
    binomial,
    cos_power_to_legendre,
    factorial,
    legendre_p,
    meijer_g_0313,
)

__all__ = [
    "YukawaFormParams",
    "TruncationPolicy",
    "SeriesEvaluation",
    "CorollaryConfig",
    "COROLLARY_VARIANTS",
    "accumulate_series",
    "default_policy",
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

MAX_TERMS_ENV = "SLATER_ADDITION_MAX_TERMS"


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
    abs_tol: float = 0.0
    max_terms: int = 60
    tail_window: int = 2

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol < 0:
            raise DomainError("TruncationPolicy: tolerances must be positive")
        if not self.max_terms >= self.tail_window >= 1:
            raise DomainError("TruncationPolicy: need max_terms >= tail_window >= 1")


def default_policy() -> TruncationPolicy:
    """Default truncation policy; SLATER_ADDITION_MAX_TERMS overrides max_terms."""
    raw = os.environ.get(MAX_TERMS_ENV)
    if raw:
        n = int(raw)
        return TruncationPolicy(max_terms=n, tail_window=min(2, n))
    return TruncationPolicy()


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

    The iterator is drawn until ``tail_window`` consecutive terms satisfy
    |term| <= rel_tol * |sum| + abs_tol, or until max_terms terms have been
    taken (flagged as not converged).  A generator that simply stops early
    declares its own (exact, degenerate) convergence.  ``policy`` defaults
    to default_policy().
    """
    policy = policy or default_policy()
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
        if abs(t) <= policy.rel_tol * abs(s) + policy.abs_tol:
            small_run += 1
            if small_run >= policy.tail_window:
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


def _check_k(p: YukawaFormParams, allow_k_gt_1: bool) -> None:
    if p.k > 1.0 and not allow_k_gt_1:
        raise DomainError(
            f"k = {p.k} > 1 is outside the stated convergence domain; "
            "pass allow_k_gt_1=True to evaluate anyway"
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


def _macdonald_term(n: int, p: YukawaFormParams, shift: int) -> complex:
    """Term n of theorem 1 (shift 0) or theorem 5 (shift 1), which moves the C exponent
    by +1/2 and the Bessel order by -1 (K_{-1/2} = K_{1/2} at n = 0)."""
    name = ("theorem1_term", "theorem5_term")[shift]
    if n < 0:
        raise DomainError(f"{name}: n must be >= 0")
    c = complex(p.C)
    if c == 0:
        raise PoleError(f"{name}: C = 0")
    root_c = cmath.sqrt(c)
    return (
        math.sqrt(2.0 / math.pi)
        * (-1.0) ** n
        * p.B**n
        * p.k ** (2 * n)
        / factorial(n)
        * 2.0 ** (-n)
        * p.x2 ** (n + 0.5)
        * c ** (shift / 2.0 - n / 2.0 - 0.25)
        * bessel_k_half(n - shift, p.x2 * root_c)
    )


def theorem1_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the base series:
    sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{-n/2-1/4} K_{n+1/2}(x2 sqrt(C)).
    """
    return _macdonald_term(n, p, 0)


def theorem5_term(n: int, p: YukawaFormParams) -> complex:
    """Term n of the derivative series (for e^{-x2 sqrt(Bk^2+C)}, no denominator):
    sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{1/4-n/2} K_{n-1/2}(x2 sqrt(C)).
    """
    return _macdonald_term(n, p, 1)


def theorem6_term(j: int, n: int, p: YukawaFormParams, quad_tol: float = 1e-11) -> complex:
    """Term n of the order-j series for (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}:
    (1/sqrt(pi)) (-1)^n B^n k^{2n}/n! C^{j/2-n-1/2} G(j, mu=n-(j+1)/2, arg=4/(C x2^2)),
    with the G factor supplied by the inverse-Gaussian-transform quadrature.
    Requires real positive C (the quadrature identity's domain).
    """
    c = complex(p.C)
    if c.imag != 0 or c.real <= 0:
        raise DomainError("theorem6_term: requires real C > 0")
    g = meijer_g_0313(j, n - (j + 1) / 2.0, 4.0 / (c.real * p.x2**2), tol=quad_tol)
    return (
        (1.0 / math.sqrt(math.pi))
        * (-1.0) ** n
        * p.B**n
        * p.k ** (2 * n)
        / factorial(n)
        * c.real ** (j / 2.0 - n - 0.5)
        * g
    )


def _series_eval(term_fn: Callable[[int], complex], p: YukawaFormParams,
                 policy: TruncationPolicy | None, allow_k_gt_1: bool) -> SeriesEvaluation:
    _check_k(p, allow_k_gt_1)
    # every n >= 1 term carries B^n k^{2n}: at B k^2 = 0 the series is exact at one term
    return accumulate_series(
        map(term_fn, range(1) if p.B * p.k**2 == 0 else itertools.count()), policy
    )


def theorem1_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None,
                  allow_k_gt_1: bool = False) -> SeriesEvaluation:
    """Partial sums of theorem1_term; converges to yukawa_form(p) for |B k^2| < |C|."""
    return _series_eval(lambda n: theorem1_term(n, p), p, policy, allow_k_gt_1)


def theorem5_eval(p: YukawaFormParams, policy: TruncationPolicy | None = None,
                  allow_k_gt_1: bool = False) -> SeriesEvaluation:
    """Partial sums of theorem5_term; converges to exp(-x2 sqrt(Bk^2+C))."""
    return _series_eval(lambda n: theorem5_term(n, p), p, policy, allow_k_gt_1)


def theorem6_eval(j: int, p: YukawaFormParams, policy: TruncationPolicy | None = None,
                  quad_tol: float = 1e-11, allow_k_gt_1: bool = False) -> SeriesEvaluation:
    """Partial sums of theorem6_term; converges to (Bk^2+C)^{(j-1)/2} e^{-x2 sqrt(Bk^2+C)}.

    j = 0 and j = 1 reproduce theorem1_eval and theorem5_eval term for term
    (up to quadrature tolerance).
    """
    return _series_eval(lambda n: theorem6_term(j, n, p, quad_tol), p, policy, allow_k_gt_1)


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
                             policy: TruncationPolicy | None = None,
                             allow_k_gt_1: bool = False) -> SeriesEvaluation:
    """Corollary-1 series with its finite Legendre second series written out.

    Term n carries the inner finite sums over j (binomial expansion of
    (x1^2 - 2 x1 x2 cos)^n) and over m (expansion of cos^j in Legendre
    polynomials); it equals theorem1_term of the C1 mapping exactly.
    """
    if cfg.variant != "C1":
        raise DomainError("corollary1_legendre_eval expects a C1 configuration")
    eta, x1, x2, u = cfg.eta, cfg.x1, cfg.x2, cfg.cos_theta
    k2 = cfg.k**2

    def term(n: int) -> complex:
        pref = (
            (1.0 / math.sqrt(math.pi))
            * (-1.0) ** n
            * k2**n
            / factorial(n)
            * 2.0 ** (0.5 - n)
            * eta ** (n + 0.5)
            * x2 ** (-n - 0.5)
            * bessel_k_half(n, eta * x2)
        )
        inner = 0.0
        for j in range(n + 1):
            leg = cos_power_to_legendre(j).evaluate(u)
            inner += (-1.0) ** j * 2.0**j * x2**j * binomial(n, j) * x1 ** (2 * n - j) * leg
        return pref * inner

    return _series_eval(term, corollary_to_params(cfg), policy, allow_k_gt_1)


# ---------------------------------------------------------------------------
# two-range baseline
# ---------------------------------------------------------------------------

def two_range_mos_terms(eta: float, x1: float, x2: float, cos_theta: float,
                        n_terms: int) -> list[float]:
    """Terms of the classical min/max expansion of e^{-eta x12}/x12:

        x1^{-1/2} x2^{-1/2} (2n+1) P_n(cos) I_{n+1/2}(eta x_<) K_{n+1/2}(eta x_>).
    """
    if eta <= 0 or x1 <= 0 or x2 <= 0:
        raise DomainError("two_range_mos: eta, x1, x2 must be positive")
    if abs(cos_theta) > 1:
        raise DomainError("two_range_mos: |cos_theta| > 1")
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
        * legendre_p(n, cos_theta)
        * bessel_i_half(n, eta * lo)
        * bessel_k_half(n, eta * hi).real
        for n in range(n_terms)
    ]


def two_range_mos_eval(eta: float, x1: float, x2: float, cos_theta: float,
                       n_terms: int = 60) -> float:
    """Partial sum of the two-range expansion through n_terms terms."""
    return math.fsum(two_range_mos_terms(eta, x1, x2, cos_theta, n_terms))
