"""Special-function kernel over complex arguments: half-integer Bessel K and I, cosine moments,
Legendre and Hermite polynomials, the upper incomplete gamma function at integer and half-integer
order and real argument, erf, Kummer 1F1, Ei and theorem 6's Meijer G, in double precision.
Nothing here calls the quadrature oracle.  Every function is pure; the factorial caches hold exact
integers and the cos^j Legendre cache its rows, each written once.  An accuracy claim is a relative error unless it says otherwise.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from typing import Iterator

from .errors import CapacityError, DomainError, RangeError, TruncationError, _check_index

__all__ = [
    "factorial",
    "double_factorial",
    "bessel_k_half",
    "bessel_i_half",
    "bessel_i_walk",
    "cosine_moment_walk",
    "legendre_walk",
    "legendre_p",
    "cos_power_to_legendre",
    "gamma_walk",
    "upper_incomplete_gamma",
    "erf_complex",
    "kummer_1f1",
    "hermite_h",
    "exp_integral_ei",
    "meijer_g_0313",
]

# Largest n with n! representable in double precision (170! ~ 7.3e306).
FACTORIAL_LIMIT = 170
# bessel_i_walk's orders 0 ... 1021: x^n's mantissa m^n, m in [1/2, 1), stays a normal double
BESSEL_I_WALK_ORDERS = 1022
# Largest number of recurrence steps an incomplete-gamma walk takes from its anchor.
GAMMA_RECURRENCE_LIMIT = 400
# real z from which Gamma(a, z) at integer a < 0 comes from the continued fraction at a: the
# downward walk loses ~z/|a| per step there (2.8e-14 at z = 7, 2.7e-5 at z = 28)
GAMMA_CF_REAL_Z = 5.0
# real z from which Gamma(a, z) at half-integer a < 0 comes from the continued fraction at a:
# the walk down from Gamma(1/2, z) is up to 9.6e-16 off from z = 1.2 and 2.2e-14 at 4.8, the
# fraction within 4.3e-16 on [1, 5] (a in [-60, -0.5], against 40-digit mpmath)
GAMMA_CF_HALF_Z = 1.0
# real z from which the anchor Gamma(1/2, z) is the fraction (5.4e-16; the series 3.3e-15)
GAMMA_HALF_ANCHOR_CF_Z = 0.3
# _gamma_cf at real z >= 1 starts its backward evaluation at depth
# ceil(CF_DEPTH_SCALE / z) + CF_DEPTH_MIN, ~1.3 (ln(1/eps)/4)^2 / z + 10: the fraction's tail
# there is below 7.3e-18 relative for every order it serves (a in {0, 1/2}, half-integers in
# [-399.5, -0.5], integers in [-400, -1] from GAMMA_CF_REAL_Z; z in [1, 10^4], 34-digit mpmath)
CF_DEPTH_SCALE = 105.0
CF_DEPTH_MIN = 10
# kummer_1f1's Taylor cut-off, term budget, and largest accepted max|term|/|sum| (~5 digits lost)
KUMMER_REL_TOL = 1e-15
KUMMER_MAX_TERMS = 500
KUMMER_CANCELLATION_LIMIT = 1e5
# bessel_k_half (at non-real z) and meijer_g_0313 raise RangeError where their finite sum
# cancels past eps sum|term| > CANCELLATION_BOUND |sum|, ~4.5e3-fold
CANCELLATION_BOUND = 1e-12
_LOG_DBL_MAX = math.log(sys.float_info.max)

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_PI = math.sqrt(2.0 / math.pi)
_FACT: list[int] = [1, 1]
_DFACT: list[int] = [1, 1]
# (M, t) with (2n+1)!! = M 2^t, M in [1, 2] rounded once, for bessel_i_walk's orders
_ODD_DFACT = tuple((d / (1 << d.bit_length() - 1), d.bit_length() - 1) for d in
                   itertools.accumulate(range(1, 2 * BESSEL_I_WALK_ORDERS, 2), int.__mul__))
# (2n+1)(2n+3) as exact floats for the Miller recurrence's orders: the last block's top is below
# 2 BESSEL_I_WALK_ORDERS, and its start at most 34 orders above it (r < 1/2)
_MILLER_DENOMS = tuple(float((2 * n + 1) * (2 * n + 3)) for n in range(2 * BESSEL_I_WALK_ORDERS + 40))


def factorial(n: int) -> int:
    """n! as an exact integer.  Exact against math.factorial for 0 <= n <= 170."""
    if n < 0:
        raise DomainError(f"factorial of negative integer {n}")
    if n > FACTORIAL_LIMIT:
        raise CapacityError(f"factorial({n}) exceeds the double-precision cache bound")
    while len(_FACT) <= n:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[n]


def double_factorial(n: int) -> int:
    """n!! with (-1)!! = 0!! = 1.  Exact against math.prod(range(n, 0, -2)) for -1 <= n <= 170."""
    if n < -1:
        raise DomainError(f"double factorial of {n}")
    if n > FACTORIAL_LIMIT:
        raise CapacityError(f"double_factorial({n}) exceeds the cache bound")
    if n == -1:
        return 1
    while len(_DFACT) <= n:
        m = len(_DFACT)
        _DFACT.append(_DFACT[m - 2] * m)
    return _DFACT[n]


def k_half_coef(n: int, j: int) -> int:
    """(n+j)!/(j!(n-j)!), the coefficient of (2z)^{-j} in K_{n+1/2}(z), as an exact integer."""
    return factorial(n + j) // (factorial(j) * factorial(n - j))


# ---------------------------------------------------------------------------
# half-integer Bessel functions
# ---------------------------------------------------------------------------

def bessel_k_half(n: int, z: complex | float) -> complex:
    """Macdonald function of half-integer order, K_{n+1/2}(z), as a finite series.

        K_{n+1/2}(z) = sqrt(pi/(2z)) e^{-z} sum_{J=0}^{n} (J+n)!/(J!(n-J)!) (2z)^{-J}

    Negative n is routed through K_{-nu} = K_nu, principal branch.  DomainError for z = 0 or
    non-finite; CapacityError past n = 85 or where K leaves double precision.  At non-real z,
    RangeError where eps sum|term| (the sum at |z|) exceeds CANCELLATION_BOUND |sum|; in the sector
    |arg z| <= pi/4 the sum cancels up to 3.7e3-fold.  Within 1e-14 of 40-digit mpmath for -86 <= n
    <= 85 and real z in [1e-2, 700].  Within 1e-12 of 40-digit mpmath for -86 <= n <= 85, |z| in
    [1e-2, 700] and |arg z| <= pi/4.  Within 1e-14 of 40-digit mpmath for -9 <= n <= 8, |z| in [0.5,
    5] and Re z > 0.
    """
    _check_index("bessel_k_half", "n", n, -math.inf)
    if n < 0:
        n = -n - 1
    z = complex(z)
    if z == 0 or not cmath.isfinite(z):
        raise DomainError(f"bessel_k_half: z = {z}, not a nonzero finite number")
    if 2 * n > FACTORIAL_LIMIT:
        raise CapacityError(f"bessel_k_half: order {n}+1/2 exceeds the factorial cache")
    s = 0.0 + 0.0j
    try:
        for J in range(n, -1, -1):
            s += factorial(J + n) / (factorial(J) * factorial(n - J)) * (2 * z) ** (-J)
        k = cmath.sqrt(math.pi / (2 * z)) * cmath.exp(-z) * s
    except OverflowError:  # a power (2z)^{-J} or e^{-z} leaves double precision, and so does K
        k = math.inf
    if z.imag != 0 and cmath.isfinite(k):  # every coefficient is positive: sum|term| is the sum at |z|
        size = sum(factorial(J + n) / (factorial(J) * factorial(n - J)) * (2 * abs(z)) ** (-J)
                   for J in range(n + 1))
        if sys.float_info.epsilon * size > CANCELLATION_BOUND * abs(s):
            raise RangeError(f"bessel_k_half({n}, {z}): the finite sum cancels {size / abs(s):.3g}-fold")
    if not cmath.isfinite(k):
        raise CapacityError(f"bessel_k_half: order {n}+1/2 at z = {z} overflows double precision")
    return k


def _scaled_i_blocks(x: float) -> Iterator[list[float]]:
    """w_n = I_{n+1/2}(x) (2n+1)!! / x^n, n < BESSEL_I_WALK_ORDERS, in blocks, by Miller's algorithm
    (Gautschi, SIAM Rev. 9 (1967)) over f_n = 0F1(; n+3/2; x^2/4) (DLMF 10.39.9), f_{n-1} = f_n + x^2
    f_{n+1} / ((2n+1)(2n+3)) down from (0, 1) past a top order, in blocks of orders lo ... top (lo + 1
    ... top after the first), each scaled to the last value of the one before and the first to w_0 =
    I_{1/2}(x) = sqrt(2/(pi x)) sinh x; each top doubles the last.  w_n falls from w_0 towards
    sqrt(2x/pi), a normal double.  bessel_i_walk's errors, raised at the first block or past the last."""
    if not 0 < x < math.inf:
        raise DomainError(f"bessel_i_walk: x = {x}, must be positive and finite")
    try:
        anchor = _SQRT_2_PI * (math.sinh(x) / math.sqrt(x))
    except OverflowError:  # sinh x overflows from x ~ 710.5, I_{1/2}(x) only from x ~ 714
        half = math.exp(min(0.5 * x, _LOG_DBL_MAX))  # e^{x/2}, capped where I is inf anyway
        anchor = half * (0.5 * _SQRT_2_PI / math.sqrt(x) * half)
    if anchor == math.inf:
        raise CapacityError(f"bessel_i_walk: I_{{1/2}}({x}) overflows double precision")
    x2 = x * x
    lo, top = 0, 22 + math.ceil(x)  # a first block through order 22 + ceil(x): T(a,bc) reads 0 ... 22
    while True:
        # past top, a start's error decays like r^2 per order, r = x / (top + sqrt(top^2 + x^2))
        r = x / (top + math.sqrt(top * top + x2))
        f_up, f, block = 0.0, 1.0, []  # the f from the start down to f_lo
        for denom in _MILLER_DENOMS[top + math.ceil(-10.0 / math.log10(r)):lo:-1]:  # (2n+1)(2n+3)
            f_up, f = f, f + x2 * f_up / denom
            block.append(f)
        block = block[:lo - top - 2:-1]  # f_lo, ..., f_top
        scale = anchor / block[0]
        yield list(map(scale.__mul__, block[lo > 0:BESSEL_I_WALK_ORDERS - lo]))
        if top >= BESSEL_I_WALK_ORDERS - 1:
            raise CapacityError(f"bessel_i_walk: order {BESSEL_I_WALK_ORDERS}+1/2 is past the walk's last")
        anchor, lo, top = scale * block[-1], top, 2 * top


def bessel_i_walk(x: float) -> Iterator[float]:
    """I_{n+1/2}(x), n < BESSEL_I_WALK_ORDERS = 1022, the ldexp view of _scaled_i_blocks: w_n x^n /
    (2n+1)!! = (w_n m^n / M) 2^{en - t} for x = m 2^e, m in [1/2, 1), (2n+1)!! = M 2^t, rounded once
    (to a subnormal or 0.0 below the normal doubles).  DomainError for x not positive and finite;
    CapacityError where I_{1/2}(x) overflows (x ~ 714), and past order 1021.  Within 2e-15 of 40-digit
    mpmath for orders 0 to 84 at x in [1e-3, 50] or [700, 713.9] where I is a normal double.  Within
    3.1e-15 of 40-digit mpmath for orders 85 to 150 at x in [1e-3, 50] where I is a normal double.
    Within 2e-14 of 40-digit mpmath for orders 151 to 1021 at x in [100, 713]."""
    m, e = math.frexp(x)
    for n, w, (mant, t) in zip(itertools.count(), itertools.chain.from_iterable(_scaled_i_blocks(x)),
                               _ODD_DFACT):
        yield math.ldexp(w * (m ** n / mant), e * n - t)


def bessel_i_half(n: int, x: float) -> float:
    """Modified Bessel function I_{n+1/2}(x), the n-th value of bessel_i_walk(x), with its domain
    and errors: an int 0 <= n <= 1021 (DomainError below 0) and finite x > 0.  Within 3.1e-15 of
    40-digit mpmath for orders 85 to 150 at x in {0.37, 13, 50} where I is a normal double."""
    _check_index("bessel_i_half", "n", n)
    return next(itertools.islice(bessel_i_walk(x), n, None))


def cosine_moment_walk(y: float) -> Iterator[float]:
    """mu_0(y), mu_1(y), ... with mu_n(y) = int_0^1 u^{2n} cos(yu) du, even in y, |mu_n| <=
    1/(2n+1), mu_n(0) = 1/(2n+1).  By parts, y^2 mu_n = y sin y + 2n cos y - 2n(2n-1) mu_{n-1},
    which multiplies an error by 2n(2n-1)/y^2: upward from mu_0 = sin y / y while that is <= 1, then
    downward in blocks lo ... top, each started at mu = 0 where the product of y^2/(2m(2m-1)) over
    the orders past top falls below 1e-17, each top doubling the last.  No order bound; O(n + |y|)
    work for n values.  DomainError for y not finite.  Within 1e-15 relative to the envelope
    1/(2n+1) of 30-digit mpmath for n <= 60 and |y| <= 1000."""
    if not math.isfinite(y):
        raise DomainError(f"cosine_moment_walk: y = {y} is not finite")
    sin, c, y2 = math.sin(y), math.cos(y), y * y
    s, mu = y * sin, sin / y if y else 1.0
    yield mu
    lo = 1
    while 2 * lo * (2 * lo - 1) <= y2:
        mu = (s + 2 * lo * c - 2 * lo * (2 * lo - 1) * mu) / y2
        yield mu
        lo += 1
    top = 2 * lo + 16
    while True:
        start, decay = top, 1.0
        while decay >= 1e-17:
            start += 1
            decay *= y2 / (2 * start * (2 * start - 1))
        mu, block = 0.0, []  # mu_{start-1} down to mu_lo
        for m in range(start, lo, -1):
            mu = (s + 2 * m * c - y2 * mu) / (2 * m * (2 * m - 1))
            block.append(mu)
        yield from block[:lo - top - 2:-1]
        lo, top = top + 1, 2 * top


# ---------------------------------------------------------------------------
# orthogonal polynomials
# ---------------------------------------------------------------------------

def legendre_walk(u: float) -> Iterator[float]:
    """P_0(u), P_1(u), P_2(u), ... on [-1, 1], one step of the three-term recurrence P_{m+1} =
    ((2m+1) u P_m - m P_{m-1}) / (m+1) per value; |u| > 1 or a NaN u raises DomainError at the first
    value.  The one Legendre recurrence of the package: a series that needs many degrees at one u
    walks it once.  Within 2e-14 absolute of 40-digit mpmath for degrees 0 to 84 and |u| <= 0.99.
    Within 5e-13 absolute of 40-digit mpmath for degrees 0 to 84 and 1e-9 <= 1 - |u| <= 1e-2."""
    if not abs(u) <= 1.0:
        raise DomainError(f"legendre_walk: u = {u} is outside [-1, 1]")
    p0, p1 = 0.0, 1.0  # P_{-1}, P_0: the first step gives P_1 = u
    for m in itertools.count():
        yield p1
        p0, p1 = p1, ((2 * m + 1) * u * p1 - m * p0) / (m + 1)


def legendre_p(n: int, u: float) -> float:
    """Legendre polynomial P_n(u), the n-th value of legendre_walk(u) (DomainError unless n is an
    int >= 0).  Within 1e-12 absolute of 40-digit mpmath for 0 <= n <= 300 and |u| <= 1."""
    _check_index("legendre_p", "n", n)
    return next(itertools.islice(legendre_walk(u), n, None))


def hermite_h(j: int, x: float) -> float:
    """Physicists' Hermite polynomial H_j(x) by recurrence.  Within 1e-14 relative to sum|term| =
    |H_j(i|x|)| of 30-digit mpmath for 0 <= j <= 30 and |x| <= 10."""
    _check_index("hermite_h", "j", j)
    if not math.isfinite(x):
        raise DomainError(f"hermite_h: x = {x} is not finite")
    h0, h1 = 0.0, 1.0  # H_{-1}, H_0: the first step gives H_1 = 2x
    for m in range(j):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * m * h0
    return h1


_COS_POWER_ROWS: dict[int, tuple[tuple[int, float], ...]] = {}  # j -> ((m, c_m), ...), m = j, j - 2


def cos_power_to_legendre(j: int) -> dict[int, float]:
    """{m: c_m} with cos^j(theta) = sum_m c_m P_m(cos theta):

    c_m = (2m+1) j! 2^{(m-j)/2} / ( ((j-m)/2)! (j+m+1)!! ),  m = j, j-2, ..., (0 or 1),

    so only m of the same parity as j appear.  Each row is built once from exact integers and
    cached; every call returns a new dict.  Within 1e-15 of the exact projection (2m+1)/2 int u^j
    P_m(u) du for 0 <= j <= 84.
    """
    _check_index("cos_power_to_legendre", "j", j)
    row = _COS_POWER_ROWS.get(j)
    if row is None:
        row = _COS_POWER_ROWS[j] = tuple(
            (m, (2 * m + 1) * factorial(j) * 2.0 ** ((m - j) / 2)
             / (factorial((j - m) // 2) * double_factorial(j + m + 1)))
            for m in range(j, -1, -2))
    return dict(row)


# ---------------------------------------------------------------------------
# upper incomplete gamma, integer and half-integer first argument
# ---------------------------------------------------------------------------

def _gamma_series(a: float, z: complex | float, s: complex | float) -> complex | float:
    """s + sum_{k>=1} (-z)^k / (k! (a+k)), the terms past k = 0 of the ascending series gamma(a, z)
    = z^a sum_k (-z)^k / (k! (a+k)) (DLMF 8.7.1), in z's own number type: E_1, Gamma(1/2, z) and
    erf sum it from their own first terms.  It stops at the first term below 1e-18 max(a + k, |s|):
    an increment below 1e-18, or a term below 1e-18 |s|."""
    term = 1.0
    for k in range(1, 1200):
        term *= -z / k
        s += term / (a + k)
        if abs(term) < 1e-18 * max(a + k, abs(s)):
            return s
    raise TruncationError("incomplete gamma ascending series did not converge")


def _cf_depth(z: float) -> int:
    """The level, ceil(CF_DEPTH_SCALE / z) + CF_DEPTH_MIN, from which the fraction at real
    z >= 1 is evaluated backward."""
    return math.ceil(CF_DEPTH_SCALE / z) + CF_DEPTH_MIN


def _cf_levels(a: float, depth: int) -> tuple[tuple[float, float], ...]:
    """(2 (k - 1), k (k - a)) for k = depth, depth - 1, ..., 1: the levels of the fraction at a."""
    return tuple((2.0 * (k - 1), k * (k - a)) for k in range(depth, 0, -1))


# the anchors' levels down from the deepest start, shared by every real z the fraction serves
_CF_ANCHOR_LEVELS = {a: _cf_levels(a, _cf_depth(GAMMA_HALF_ANCHOR_CF_Z)) for a in (0.0, 0.5)}


def _cf_backward(a: float, z: float, depth: int) -> float:
    """The denominator z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(z+5-a - ...)) of _gamma_cf at real z,
    evaluated backward in float arithmetic from level depth."""
    levels = _CF_ANCHOR_LEVELS.get(a)
    levels = levels[-depth:] if levels and depth <= len(levels) else _cf_levels(a, depth)
    base = z + 1.0 - a
    t = base + 2.0 * depth
    for two_k, num in levels:
        t = base + two_k - num / t
    return t


def _gamma_cf(a: float, z: complex | float, emz: complex | float) -> complex | float:
    """Gamma(a, z) = e^{-z} z^a / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(z+5-a - ...))) (DLMF 8.9.2),
    emz is e^{-z}.

    At a float z the fraction is evaluated once, backward in float arithmetic from the a-priori
    level _cf_depth(z), and the value is a float.  That depth is validated for z >= 1 (a = 1/2:
    z >= 0.3; see CF_DEPTH_SCALE): the fraction from it is within 1 ulp of the fraction from 50
    levels deeper, and the backward pass rounds far less than a forward running product (E_1 over
    z in [1, 10]: 3.8e-16 relative at worst; modified Lentz was 1.1e-14 off on [1, 3]).  The
    non-real z of erf_complex run modified Lentz forward and stop where a level changes the value
    by less than 1e-16 relative: the depth a complex argument needs is not known in advance.
    """
    if isinstance(z, float):
        return emz * z**a / _cf_backward(a, z, _cf_depth(z))
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 600):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            scale = emz * z**a  # overflows before h ~ 1/z brings it back, e.g. at z = -709 + 1j
            return scale * h if cmath.isfinite(scale) else emz * (z**a * h)
    raise TruncationError("incomplete gamma continued fraction did not converge")


def _gamma_anchor(b: float, z: float, emz: float) -> float:
    """Gamma(b, z) at an anchor b and real z > 0: E_1(z) at b = 0, Gamma(1/2, z) at b = 1/2, with
    emz = e^{-z}.  The ascending series _gamma_series below z = 1 (E_1) or 0.3 (Gamma(1/2, z)), the
    backward fraction from there, where it is the more accurate (9e-16 against 4.5e-15 on [1, 2];
    5.4e-16 against 3.3e-15 on [0.3, 1))."""
    if z < (GAMMA_HALF_ANCHOR_CF_Z if b else 1.0):
        if b:  # Gamma(1/2, z) = sqrt(pi) - z^{1/2} (2 + sum)
            return _SQRT_PI - z**0.5 * _gamma_series(0.5, z, 2.0)
        return -_gamma_series(0.0, z, 0.5772156649015328606 + math.log(z))  # E_1 = -(gamma_E + ln z + sum)
    return _gamma_cf(b, z, emz)


def _past_limit(depth: int) -> CapacityError:
    return CapacityError(f"upper_incomplete_gamma: recurrence depth {depth} exceeds "
                         f"bound {GAMMA_RECURRENCE_LIMIT}")


def _overflow(order: float) -> CapacityError:
    return CapacityError(f"upper_incomplete_gamma: the walk to a = {order} overflows")


_NOT_FINITE = "upper_incomplete_gamma overflowed double precision"


def gamma_walk(a: float, z: float) -> Iterator[float]:
    """Gamma(a, z), Gamma(a - 1, z), ... as floats for integer or half-integer a and real z >= 0,
    e^{-z} taken once per walk.  Orders above Gamma(1, z) or Gamma(1/2, z) are walked up from it and
    handed out top-down, those at and below Gamma(0, z) or Gamma(1/2, z) walked down.  Each order
    raises where the walk reaches it, as upper_incomplete_gamma(order, z) does; a non-real z is a
    DomainError naming upper_incomplete_gamma.

    At and below the anchor one loop takes every order, the anchor at its step 0, each step one
    recurrence step (a power z^b, a multiply, a subtract and a divide; the continued fraction at b
    where it takes over) and three checks: a depth past GAMMA_RECURRENCE_LIMIT, an OverflowError or
    ZeroDivisionError from the step (CapacityError naming the order about to be handed out, or the
    first order while the walk is above it) and a value that is not finite (raised once the first
    order is reached).  That is ~0.15 us per order (218 orders from a = 18 at z = 0.1 in 32-35 us,
    CPython 3.11 on a 2-vCPU x86-64 VM).  Within 5e-14 of 40-digit mpmath for theorem 3's walk, a =
    18 down to -199 short of overflow, real z in [0.005, 0.25].  Within 1.5e-14 of 40-digit mpmath
    for T(a,bc)'s walk, a = 3 down to -40, real z in [0.044, 4.8].  Within 1e-14 of 40-digit mpmath
    for integer and half-integer a in [-42, 3] and real z in [5, 40].  Within 6e-16 of 80-digit
    mpmath for T(a,bc)'s walk at R in [10, 20], a = 3 down to the last normal value, real z in [40,
    80]."""
    if z.imag:
        raise DomainError(f"upper_incomplete_gamma: z = {z} is not real")
    z = float(z.real)
    if not math.isfinite(z):
        raise DomainError(f"upper_incomplete_gamma: z = {z} is not finite")
    if not math.isfinite(a):
        raise DomainError(f"upper_incomplete_gamma: a = {a} is not finite")
    two_a = round(2 * a)
    if abs(2 * a - two_a) > 1e-12:
        raise DomainError(f"upper_incomplete_gamma: a = {a} is not integer or half-integer")
    if z < 0:
        raise DomainError("upper_incomplete_gamma: z on the negative real axis")
    if z == 0:  # Gamma(a, 0) = Gamma(a); the walk ends at the first a <= 0
        for two_a in itertools.count(two_a, -2):
            if two_a <= 0:
                raise DomainError("upper_incomplete_gamma diverges at z = 0 for a <= 0")
            try:
                g = math.gamma(two_a / 2.0)
            except OverflowError as exc:
                raise CapacityError(f"upper_incomplete_gamma: Gamma({two_a / 2.0}) overflows") from exc
            yield g
    half = two_a % 2  # the half-integer orders walk both ways from Gamma(1/2)
    first = two_a / 2.0  # the first order handed out
    up = two_a > half
    depth = (two_a - 2 + half) // 2 if up else (half - two_a) // 2  # steps from the anchor to a
    if depth > GAMMA_RECURRENCE_LIMIT:
        raise _past_limit(depth)
    b = half / 2.0  # the anchor at and below which the walk goes down: Gamma(0) or Gamma(1/2)
    emz = math.exp(-z)
    if up:  # Gamma(c + 1) = c Gamma(c) + z^c e^{-z} from Gamma(1) or Gamma(1/2), handed out top-down
        try:
            c, run = 1.0 - b, [_gamma_anchor(b, z, emz) if half else emz]
            for _ in range(depth):
                run.append(c * run[-1] + z**c * emz)
                c += 1.0
        except (OverflowError, ZeroDivisionError) as exc:  # z^c leaves double precision
            raise _overflow(first) from exc
        if not all(map(math.isfinite, run)):
            raise CapacityError(_NOT_FINITE)
        yield from reversed(run)
        first = -half / 2.0
    g = run[0] if up and half else None
    # down by Gamma(b-1) = (Gamma(b) - z^{b-1} e^{-z}) / (b-1), or at z >= GAMMA_CF_REAL_Z (integer
    # b) or GAMMA_CF_HALF_Z (half-integer b) by the fraction at each order, from the anchor at step
    # 0; above the first order an overflow names it, and a non-finite value raises there
    cf = z >= (GAMMA_CF_HALF_Z if half else GAMMA_CF_REAL_Z)
    finite = True
    for step in range(GAMMA_RECURRENCE_LIMIT + 1):
        try:
            if step:
                b -= 1.0
                g = _gamma_cf(b, z, emz) if cf else (g - z**b * emz) / b
            elif g is None:
                g = _gamma_anchor(b, z, emz)
        except (OverflowError, ZeroDivisionError) as exc:
            raise _overflow(min(b, first)) from exc
        finite = finite and math.isfinite(g)
        if b <= first:
            if not finite:
                raise CapacityError(_NOT_FINITE)
            yield g
    raise _past_limit(GAMMA_RECURRENCE_LIMIT + 1)


def upper_incomplete_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) for integer or half-integer a and real z >= 0, the first
    value of gamma_walk(a, z), by Gamma(a+1, z) = a Gamma(a, z) + z^a e^{-z} from Gamma(1, z) =
    e^{-z}, E_1(z) or Gamma(1/2, z).  DomainError for a non-finite a or z, a non-real or negative z
    and a <= 0 at z = 0, CapacityError where the walk leaves double precision.  The orders a < 0
    come from the continued fraction at a from GAMMA_CF_REAL_Z (integer a) or GAMMA_CF_HALF_Z,
    since the downward step loses ~z/|a| per order.  Within 2e-15 of 40-digit mpmath for integer and
    half-integer a in [0, 3] and real z in [1e-3, 700].  Within 5e-16 of 80-digit mpmath for integer
    and half-integer a in [-60, -0.5] and real z in [5, 100].  Within 5e-16 of 80-digit mpmath for
    half-integer a in [-59.5, -0.5] and real z in [1, 5].
    """
    return next(gamma_walk(a, z))


# ---------------------------------------------------------------------------
# error function and Kummer 1F1
# ---------------------------------------------------------------------------

def erf_complex(z: complex | float) -> complex:
    """Error function of a complex argument; odd in z.

    Real arguments delegate to math.erf.  After the odd reduction to Re z >= 0, arguments with Re z
    <= 2 go through erf(z) = gamma(1/2, z^2)/sqrt(pi), the entire ascending series that E_1 and
    Gamma(1/2, z) share (its e^{2 Re(z)^2} cancellation then costs at most ~3.5 digits, at any
    height short of overflow), and the rest through erf(z) = 1 - Gamma(1/2, z^2)/sqrt(pi), whose
    continued fraction holds full precision once Re z >= 2.  Where e^{-z^2} itself overflows double
    precision, RangeError is raised; a z that is not finite is a DomainError.  Within 1e-12 relative
    to max(|erf z|, |erfc z|) of 40-digit mpmath for |Re z|, |Im z| <= 25.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"erf_complex: z = {z} is not finite")
    if z.imag == 0.0:
        return complex(math.erf(z.real))
    if z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0):
        return -erf_complex(-z)
    z2 = z * z
    if -z2.real > 700.0:
        raise RangeError(f"erf_complex: e^(-z^2) overflows for z = {z}")
    if z.real <= 2.0:  # gamma(1/2, z^2) / sqrt(pi) = z (2 + sum) / sqrt(pi)
        return z * _gamma_series(0.5, z2, 2.0) / _SQRT_PI
    return 1.0 - _gamma_cf(0.5, z2, cmath.exp(-z2)) / _SQRT_PI


def kummer_1f1(a: int, b: int, z: complex | float) -> complex:
    """Confluent hypergeometric 1F1(a; b; z) by its Taylor series, for integers b >= a >= 1.

    Off the positive real axis the terms cancel, costing ~log10(max|term|/|sum|) digits: past
    KUMMER_CANCELLATION_LIMIT = 1e5 RangeError is raised.  Within 1e-11 of 30-digit mpmath for
    integers 1 <= a <= 30, a <= b <= a + 32 and |z| <= 20 where max|term| <= 1e5 |sum|.
    """
    _check_index("kummer_1f1", "a", a, 1)
    _check_index("kummer_1f1", "b", b, a)
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"kummer_1f1: z = {z} is not finite")
    term = 1.0 + 0.0j
    total = term
    peak = 1.0
    small = 0
    for k in range(KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        size = abs(term)
        if size > peak:
            peak = size
        if size <= KUMMER_REL_TOL * abs(total):
            small += 1
            if small >= 2:
                if peak > KUMMER_CANCELLATION_LIMIT * abs(total):
                    raise RangeError(
                        f"kummer_1f1({a}, {b}, {z}): max|term| = {peak:.3g} against "
                        f"|sum| = {abs(total):.3g}; the Taylor series cancels"
                    )
                return total
        else:
            small = 0
    raise TruncationError(f"kummer_1f1 did not converge in {KUMMER_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# exponential integral and the theorem-6 Meijer G
# ---------------------------------------------------------------------------

def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for x < 0, via Ei(x) = -E_1(-x).  Within 2e-15 of 30-digit mpmath
    for x in [-700, -1e-3].  Within 1e-12 of the CLI's quadrature oracle for x in {-9.6, -3, -1,
    -0.1}."""
    if x >= 0:
        raise DomainError("exp_integral_ei is defined here for x < 0 only")
    return -upper_incomplete_gamma(0.0, -x)


def meijer_g_0313(j: int, mu: float, arg: float) -> float:
    """The G^{0,3}_{3,1} value fixed by the inverse Gaussian transform

        int_0^inf rho^mu e^{-a^2/rho - p rho} H_j(a/sqrt(rho)) drho
            = 2^j p^{-mu-1} G^{0,3}_{3,1}( 1/(a^2 p) | (1/2, 1, -mu); (j+1)/2 ),

    as the finite sum the transform reduces to.  With H_j(x) = sum_m c_m x^{j-2m} each
    monomial integrates by Gradshteyn-Ryzhik 3.471.9 (DLMF 10.32.10),
    int_0^inf rho^{nu-1} e^{-a^2/rho - rho} drho = 2 a^nu K_nu(2a), so at p = 1, a = arg^{-1/2}

        G = 2^{-j} sum_m c_m a^{j-2m} 2 a^{nu_m} K_{nu_m}(2a),   nu_m = mu + 1 - j/2 + m.

    Every nu_m is a half-integer, so every K is a bessel_k_half, exactly when 2 mu - j is an odd
    integer: theorem 6's mu = n - (j+1)/2 all are.  DomainError for j not an integer >= 0, 2 mu - j
    not an odd integer, or arg not finite and positive.  CapacityError where a term or its K leaves
    the normal doubles (e.g. (0, -60.5, 1e6), where the value is ~1e436).  RangeError where the
    Hermite terms cancel, eps sum|term| > CANCELLATION_BOUND |G|: at large arg near mu = -(k+3)/2, 0
    <= k < j, k = j (mod 2), where the leading large-arg order int_0^inf w^k e^{-w^2} H_j(w) dw
    vanishes by orthogonality (e.g. (7, -4, 1e8) cancels from ~1e28 to 1.77), and near a zero of G
    in arg.

    Within 25 times eps sum|term| / |G| of 30-digit mpmath for j <= 8, 2 mu - j odd, mu in [-4, 30]
    and arg in [1e-2, 1e8].  Within 1e-14 of 20-digit mpmath for theorem 6's range, j <= 2, mu = n -
    (j+1)/2 for n <= 20 and arg in [10, 1e4].  Within 1e-13 of 20-digit mpmath for j <= 8 on the
    grid mu in {-4, -3.5, -3, -1.5, 4.5, 30}, arg in {1e-2, 1, 1e2, 1e4, 1e8} off the cancellation
    set.  Within 1e-12 of 20-digit mpmath for that grid on the cancellation set mu = -(k+3)/2, 0 <=
    k < j, k = j (mod 2).
    """
    _check_index("meijer_g_0313", "j", j)
    if not (2 * mu - j) % 2 == 1:  # NaN and inf too
        raise DomainError(f"meijer_g_0313: 2 mu - j must be an odd integer, got mu = {mu!r}, j = {j}")
    if not (math.isfinite(arg) and arg > 0):
        raise DomainError(f"meijer_g_0313: arg must be finite and positive, got {arg!r}")
    z = 2.0 * arg ** -0.5
    terms = []
    for m in range(j // 2 + 1):
        c = (-1) ** m * 2 ** (j - 2 * m) * factorial(j) // (factorial(m) * factorial(j - 2 * m))
        nu = mu + 1.0 - 0.5 * j + m
        try:  # a^{j-2m} a^nu in one power of the exact arg
            t = c * arg ** (-0.5 * (j - 2 * m + nu)) * bessel_k_half(round(nu - 0.5), z).real
        except OverflowError:
            t = math.inf
        if not sys.float_info.min <= abs(t) < math.inf:
            raise CapacityError(f"meijer_g_0313({j}, {mu}, {arg}): term {m} leaves double precision")
        terms.append(t)
    g = math.fsum(terms)
    size = math.fsum(map(abs, terms))
    if sys.float_info.epsilon * size > CANCELLATION_BOUND * abs(g):
        raise RangeError(f"meijer_g_0313({j}, {mu}, {arg}): the Hermite terms cancel "
                         f"{size / abs(g) if g else math.inf:.3g}-fold")
    return math.ldexp(g, 1 - j)
