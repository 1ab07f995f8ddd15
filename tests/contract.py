"""The accuracy contract: one row per public kernel and series.

A row names a callable, its domain as a seeded sampler, the reference (mpmath at stated digits, an
exact value, or the CLI's quadrature oracle), the bound, the least number of values checked, and
the errors raised at stated points outside the domain.  Its claim, "Within <bound> <measure> of
<reference> for <domain>.", is stated here and carried by the callable's docstring.  An open row
is a region outside the domain that misses the bound; it runs as a strict expected failure.

test_contract.py runs every row and checks each claim against its docstring and README's table
against render_table().  To add a row, append it to ROWS, put its claim in the docstring and
rewrite the table with `PYTHONPATH=src python tests/contract.py`.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import inspect
import itertools
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Iterator

from slater_addition import amplitudes as am, cli, ellipsoidal as el, specfun as sf, theorems as th
from slater_addition.errors import CapacityError, DomainError, PoleError, RangeError

try:
    import mpmath as mp
except ImportError:  # the rows with an mpmath reference skip
    mp = None

EPS, TINY, HUGE = sys.float_info.epsilon, sys.float_info.min, sys.float_info.max
README = Path(__file__).resolve().parent.parent / "README.md"
TABLE_START = "<!-- accuracy table: generated by tests/contract.py -->"
TABLE_END = "<!-- end of the generated table -->"

Checks = Iterator[tuple[float, object]]  # per checked value: its error, and where it was taken


@dataclass(frozen=True)
class Outside:  # a point outside the domain, the error raised there and a pattern its message matches
    text: str
    call: Callable[[], object]
    error: type
    match: str | None = None


def at(func: Callable, *args, error: type, match: str | None = None, text: str = "") -> Outside:
    """func(*args) raises error, its message matching match; a walk raises it at its first value."""
    call = (lambda: next(func(*args))) if inspect.isgeneratorfunction(func) else (lambda: func(*args))
    return Outside(text or ", ".join(map(repr, args)), call, error, match)


@dataclass(frozen=True)
class Row:
    func: Callable  # the public callable whose docstring carries the claim
    domain: str
    reference: str
    bound: float
    points: int
    checks: Callable[..., Checks]
    measure: str = ""  # what the error is relative to, or "absolute"; relative to the value if empty
    outside: tuple[Outside, ...] = ()
    open: str = ""  # an open row: what is seen there
    cases: tuple[tuple, ...] = ()  # each a test of its own, checks(rng, *case); points is then per case

    @property
    def claim(self) -> str:
        if self.bound == 0:
            return f"Exact against {self.reference} for {self.domain}."
        return f"Within {self.bound_text} of {self.reference} for {self.domain}."

    @property
    def bound_text(self) -> str:
        return "exact" if self.bound == 0 else re.sub(r"e([+-])0", r"e\1", f"{self.bound:g} {self.measure}".strip())

    @property
    def id(self) -> str:
        return f"{self.func.__name__}-{re.sub(r'[^0-9a-z]+', '_', self.domain.lower()).strip('_')[:40]}"


def rel(got, want) -> float:
    return float(abs((got - want) / want))


def logu(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def sweep(func: Callable, reference: Callable, draws: Callable[[random.Random], Iterable[tuple]],
          dps: int = 30, absolute: bool = False) -> Callable[[random.Random], Checks]:
    """func(*args) against reference(*args) at dps digits for each args of draws(rng): the absolute
    error, or the relative one wherever the reference is a normal double."""
    def checks(rng: random.Random) -> Checks:
        with mp.workdps(dps):
            for args in draws(rng):
                want = reference(*args)
                if absolute:
                    yield float(abs(func(*args) - want)), args
                elif abs(want) >= TINY:
                    yield rel(func(*args), want), args
    return checks


def oracle(name: str, **params) -> complex:
    """The CLI's registered oracle for target name."""
    return complex(cli._outcome(cli.TARGETS[name].oracle(cli.Context(tol=1e-6), **params)).value)


# specfun
def _k_half(fixed: Iterable[tuple], count: int, draw: Callable) -> Callable[[random.Random], Checks]:
    # where K leaves double precision the kernel raises CapacityError instead
    fixed = tuple(fixed)

    def checks(rng: random.Random) -> Checks:
        with mp.workdps(40):
            for n, z in itertools.chain(fixed, (draw(rng) for _ in range(count))):
                want = mp.besselk(abs(n + 0.5), mp.mpc(z.real, z.imag))
                if abs(want) >= HUGE:
                    try:
                        yield math.inf, (n, z, sf.bessel_k_half(n, z))
                    except CapacityError:
                        yield 0.0, (n, z)
                elif abs(want) >= TINY:
                    yield rel(sf.bessel_k_half(n, z), want), (n, z)
    return checks


def _i_walk(runs: Iterable[tuple[float, range]]) -> Checks:
    with mp.workdps(40):
        for x, orders in runs:
            for n, got in itertools.islice(enumerate(sf.bessel_i_walk(x)), orders.start, orders.stop):
                want = mp.besseli(n + mp.mpf(1) / 2, x)
                if want >= TINY:
                    yield rel(got, want), (x, n)


# x in [1e-3, 50]: tiny, around the T(a,bc) and two-range arguments, and past the orders
I_XS = (1e-3, 0.003, 0.01, 0.05, 0.11, 0.37, 0.7, 1.0, 1.2, 2.5, 7.0, 13.0, 20.0, 33.0, 50.0)


def _cosine_moments(rng: random.Random) -> Checks:
    # mu_n(y) = 1F2(n+1/2; 1/2, n+3/2; -y^2/4) / (2n+1), against the envelope 1/(2n+1) of |mu_n|
    ys = (0.0, 1e-8, -0.3, 1.4, 2.0, -2.2, math.pi, 11.8, 12.5, 100.0, -109.9, 300.0, -1000.0, 1000.0)
    with mp.workdps(30):
        for y in ys + tuple(round(rng.uniform(-1000, 1000), 6) for rng in [random.Random(7)] for _ in range(10)):
            for n, mu in enumerate(itertools.islice(sf.cosine_moment_walk(y), 61)):
                want = mp.hyp1f2(n + 0.5, 0.5, n + 1.5, -mp.mpf(y) ** 2 / 4) / (2 * n + 1)
                yield float(abs(mu - want)) * (2 * n + 1), (y, n)


def _legendre_band(endpoint: bool) -> Callable[[random.Random], Checks]:
    def checks(rng: random.Random) -> Checks:
        with mp.workdps(40):
            for _ in range(40):
                size = 1 - 10 ** rng.uniform(-9, -2) if endpoint else rng.uniform(0, 0.99)
                u = rng.choice([-1, 1]) * size
                for n, got in enumerate(itertools.islice(sf.legendre_walk(u), 85)):
                    yield abs(got - float(mp.legendre(n, u))), (n, u)
    return checks


@functools.cache
def _legendre_poly(m: int) -> tuple[Fraction, ...]:
    """P_m's coefficients, constant term first, exactly."""
    if m < 2:
        return (Fraction(1),) if m == 0 else (Fraction(0), Fraction(1))
    up, down = (0,) + _legendre_poly(m - 1), _legendre_poly(m - 2) + (0, 0)
    return tuple(((2 * m - 1) * a - (m - 1) * b) / m for a, b in zip(up, down))


def _cos_powers(rng: random.Random) -> Checks:
    # c_m = (2m+1)/2 int_{-1}^{1} u^j P_m(u) du exactly, with int u^k du = 2/(k+1) at even k
    for j in range(85):
        for m, got in sf.cos_power_to_legendre(j).items():
            poly = _legendre_poly(m)
            want = (2 * m + 1) * sum(c / (j + k + 1) for k, c in enumerate(poly) if (j + k) % 2 == 0)
            yield rel(Fraction(got), want), (j, m)


def _hermite(rng: random.Random) -> Checks:
    # relative to sum|term| = |H_j(i|x|)|: near a zero of H_j the value is the terms' cancellation
    with mp.workdps(30):
        for j, x in ((rng.randint(0, 30), rng.uniform(-10, 10)) for _ in range(150)):
            scale = abs(mp.hermite(j, mp.mpc(0, abs(x))))
            yield float(abs(sf.hermite_h(j, x) - mp.hermite(j, x)) / scale), (j, x)


def _gamma_walks(starts: Iterable[tuple[float, float]], count: int, dps: int = 40) -> Checks:
    # count orders of each walk against dps-digit mpmath.gammainc, each a float; a walk stops at
    # its first CapacityError, which it may raise only where the value is past 1e300
    with mp.workdps(dps):
        for a, z in starts:
            w, i = mp.mpf(z), -1
            try:
                for i, g in enumerate(itertools.islice(sf.gamma_walk(a, z), count)):
                    want = mp.gammainc(a - i, w)
                    if abs(want) >= TINY:
                        yield (rel(g, want) if type(g) is float else math.inf), (a - i, z)
            except CapacityError:
                yield (0.0 if abs(mp.gammainc(a - i - 1, w)) >= 1e300 else math.inf), (a - i - 1, z)


def _gamma_anchors(rng: random.Random) -> Checks:
    # E_1 and Gamma(1/2, z), every walk's anchors, log-spaced and on [1, 3], and the walk up to a = 3
    draws = [(a, logu(rng, 1e-3, 700.0)) for a, count in ((0.0, 300), (0.5, 150)) for _ in range(count)]
    draws += [(a, rng.uniform(1.0, 3.0)) for a in (0.0, 0.5) for _ in range(300)]
    return _gamma_walks(draws + [(rng.randrange(2, 7) / 2, logu(rng, 1e-3, 700.0)) for _ in range(100)], 1)


def _meijer(j: int, mu: float, arg: float):
    return mp.meijerg([[0.5, 1, -mu], []], [[], [(j + 1) / 2]], arg)


def _meijer_overflow(j: int, mu: float, arg: float) -> float:
    """meijer_g_0313 at a point where G itself leaves the doubles, as mpmath confirms if importable."""
    assert mp is None or float(abs(_meijer(j, mu, arg))) == math.inf, (j, mu, arg)
    return sf.meijer_g_0313(j, mu, arg)


def _hermite_cancels(j: int, mu: float) -> bool:
    # mu = -(k+3)/2, 0 <= k < j, k = j (mod 2): the leading large-arg order int_0^inf w^k e^{-w^2}
    # H_j(w) dw vanishes
    k = -2 * mu - 3
    return k == int(k) and 0 <= k < j and (j - k) % 2 == 0


def _meijer_grid(cancelling: bool) -> Callable[[random.Random], Checks]:
    # the guard raises only on the cancellation set
    def checks(rng: random.Random) -> Checks:
        grid = itertools.product(range(9), (-4.0, -3.5, -3.0, -1.5, 4.5, 30.0), (1e-2, 1.0, 1e2, 1e4, 1e8))
        with mp.workdps(20):
            for j, mu, arg in grid:
                if (2 * mu - j) % 2 == 1 and _hermite_cancels(j, mu) == cancelling:
                    try:
                        yield rel(sf.meijer_g_0313(j, mu, arg), _meijer(j, mu, arg)), (j, mu, arg)
                    except RangeError:
                        yield (0.0 if cancelling else math.inf), (j, mu, arg, "RangeError")
    return checks


def _meijer_sweep(rng: random.Random) -> Checks:
    # the error in units of eps sum|term| / |G| (terms c_m a^{j-2m} 2 a^nu K_nu(2a) in mpmath); the guard
    # raises exactly where eps sum|term| > CANCELLATION_BOUND |G|, within a 10% band of rounding
    limit = sf.CANCELLATION_BOUND / EPS
    with mp.workdps(30):
        for _ in range(300):
            j = rng.randrange(9)
            mu, arg = rng.randrange(-7 - j % 2, 61, 2) / 2, 10.0 ** rng.uniform(-2.0, 8.0)  # 2 mu - j odd
            a, fact = mp.mpf(arg) ** -0.5, math.factorial
            nus = [mu + 1 - mp.mpf(j) / 2 + m for m in range(j // 2 + 1)]
            terms = [(-1) ** m * 2 ** (j - 2 * m) * fact(j) // (fact(m) * fact(j - 2 * m))
                     * a ** (j - 2 * m) * 2 * a**nu * mp.besselk(nu, 2 * a) for m, nu in enumerate(nus)]
            cond = float(mp.fsum(map(abs, terms)) / abs(mp.fsum(terms)))
            try:
                got = sf.meijer_g_0313(j, mu, arg)
                err = rel(got, _meijer(j, mu, arg)) / (EPS * cond) if cond < 1.1 * limit else math.inf
            except RangeError:
                err = 0.0 if cond > 0.9 * limit else math.inf
            yield err, (j, mu, arg, cond)


def _kummer(rng: random.Random) -> Checks:
    # past its 1e5 cancellation bound, outside the domain, kummer_1f1 raises RangeError
    draws = [(a, a + rng.randint(0, 32), cmath.rect(rng.uniform(0, 20), rng.uniform(-math.pi, math.pi)))
             for a in (rng.randint(1, 30) for _ in range(200))]
    with mp.workdps(30):
        for a, b, z in [(4, 8, -13j), (2, 4, -14j), (10, 20, -17j), (30, 62, -20j), (2, 4, -0.7j)] + draws:
            with contextlib.suppress(RangeError):
                yield rel(sf.kummer_1f1(a, b, z), mp.hyp1f1(a, b, z)), (a, b, z)


# theorems
@functools.cache
def p_nj_coefs(j: int, n: int) -> tuple[int, ...]:
    """P_{n,j}'s exact integer coefficients, constant term first: x^{n+1/2} K_{n+1/2}(xs) = sqrt(pi/2s)
    e^{-xs} (2s)^{-n} sum_p c(n, n-p) (2xs)^p (DLMF 10.49.12), c(n, J) = (n+J)!/(J! (n-J)!), and
    (-d/dx)^j [e^{-xs} Q] = e^{-xs} (s - d/dx)^j Q give beta_p = sum_i (-1)^i binom(j, i) c(n, n-p-i)
    2^{p+i} (p+i)!/p!."""
    c = lambda J: math.factorial(n + J) // (math.factorial(J) * math.factorial(n - J))
    return tuple(sum((-1) ** i * math.comb(j, i) * c(n - p - i) * 2 ** (p + i) * math.perm(p + i, i)
                     for i in range(min(j, n - p) + 1)) for p in range(n + 1))


def mp_theorem6_term(j: int, n: int, p: th.YukawaFormParams):
    """Term n of theorem 6's order-j series, (-d/dx2)^j of theorem 1's: (-B k^2)^n C^{j/2-n-1/2} e^{-z}
    P_{n,j}(z) / (n! 4^n) at z = x2 sqrt(C), principal branch, in mpmath at the working precision."""
    C = mp.mpmathify(p.C)
    z = p.x2 * mp.sqrt(C)
    poly = 0
    for b in reversed(p_nj_coefs(j, n)):
        poly = poly * z + b
    lead = (-p.B * mp.mpf(p.k) ** 2) ** n / (math.factorial(n) * 4**n)
    return lead * C ** (mp.mpf(j - 2 * n - 1) / 2) * mp.exp(-z) * poly


def _mp_closed(j: int, p: th.YukawaFormParams):
    """(B k^2 + C)^{(j-1)/2} e^{-x2 sqrt(B k^2 + C)}: theorem 1's left-hand side at j = 0, 5's at 1."""
    ell = mp.sqrt(p.B * mp.mpf(p.k) ** 2 + mp.mpmathify(p.C))
    return ell ** (j - 1) * mp.exp(-p.x2 * ell)


def _point(rng: random.Random, rho: tuple[float, float], top: float = 9.0, ks: tuple = (0.05, 3.0),
           non_real: bool = False) -> th.YukawaFormParams:
    """C of modulus 0.05 ... top, positive, negative or non-real; |B k^2| / |C| in rho, x2 in [0.05, 2]."""
    mag, k = rng.uniform(0.05, top), rng.uniform(*ks)
    if non_real:
        C = cmath.rect(mag, rng.choice((-1, 1)) * rng.uniform(0.05, math.pi - 0.05))
    else:
        C = rng.choice((mag, -mag, cmath.rect(mag, rng.uniform(-math.pi, math.pi))))
    return th.YukawaFormParams(rng.choice((-1, 1)) * rng.uniform(*rho) * mag / k**2, C, k, rng.uniform(0.05, 2.0))


def _terms_non_real_c(j: int, count: int) -> Callable[[random.Random], Checks]:
    # terms of a converging series at non-real C to order 120, where the term is a normal double
    def checks(rng: random.Random) -> Checks:
        with mp.workdps(40):
            for p in (_point(rng, (0.3, 0.9), 4.0, (0.05, 1.0), True) for _ in range(count)):
                for n in (0, 1, 5, 20, 60, 86, 100, 120):
                    got = th.theorem6_term(j, n, p)
                    if abs(got) > 1e-290:
                        yield rel(got, mp_theorem6_term(j, n, p)), (j, n, p)
    return checks


def _terms_negative_c(rng: random.Random) -> Checks:
    # theorem 1's terms at real C < 0 to order 120, where the term is a normal double; the phase of
    # C^{-n-1/2} is a power of i, which a complex power rounds by ~n ulp of pi
    with mp.workdps(40):
        for C, x2 in itertools.product((-0.08, -0.4, -1.5, -3.0), (0.05, 0.6, 2.0)):
            k = rng.uniform(0.05, 1.0)
            p = th.YukawaFormParams(rng.choice((-1, 1)) * rng.uniform(0.3, 0.9) * -C / k**2, C, k, x2)
            for n in (0, 1, 5, 20, 40, 60, 86, 100, 120):
                got = th.theorem1_term(n, p)
                if abs(got) > 1e-290:
                    yield rel(got, mp_theorem6_term(0, n, p)), (n, p)


def _theorem6_condition(j: int, n: int, z: float) -> float:
    """kappa = sum|beta_p z^p| / |P_{n,j}(z)|."""
    beta = p_nj_coefs(j, n)
    return math.fsum(abs(b) * z**p for p, b in enumerate(beta)) / abs(math.fsum(b * z**p for p, b in enumerate(beta)))


def _theorem6_derivative(rng: random.Random) -> Checks:
    # the relative error over min(kappa, 10) at j <= 2 and min(kappa, 1000) above; the guard fires
    # only where P itself cancels, on under 1% of the box: at none of these 70 terms per order
    points = [th.YukawaFormParams(*(rng.uniform(0.05, top) for top in (1, 2, 1, 2))) for _ in range(8)]
    points += [th.YukawaFormParams(0.7, 0.0625, 0.6, 0.08), th.YukawaFormParams(0.3, 1.0, 0.9, 0.02)]
    with mp.workdps(40):
        for j, p, n in itertools.product(range(9), points, (0, 1, 2, 5, 10, 20, 30)):
            try:
                got = th.theorem6_term(j, n, p).real
            except RangeError:
                yield math.inf, (j, n, p, "RangeError")
                continue
            kappa = _theorem6_condition(j, n, p.x2 * math.sqrt(p.C))
            yield rel(got, mp_theorem6_term(j, n, p)) / min(kappa, 10 if j <= 2 else 1000), (j, n, p)


def _theorem6_g_form(rng: random.Random) -> Checks:
    # the paper's G-form (1/sqrt(pi)) (-B k^2)^n / n! C^{j/2-n-1/2} G^{0,3}_{3,1}(4/(C x2^2) | 1/2,
    # 1, -mu; (j+1)/2), mu = n - (j+1)/2, independent of the derivative route; at each j the guard
    # fires on at most a quarter of the 36 terms
    with mp.workdps(40):
        for j in range(3, 9):
            raised = 0
            for p in (th.YukawaFormParams(*(rng.uniform(0.05, top) for top in (1, 2, 1, 2))) for _ in range(6)):
                B, C, k, x2 = (mp.mpf(v) for v in (p.B, p.C, p.k, p.x2))
                for n in (0, 1, 2, 5, 10, 20):
                    try:
                        got = th.theorem6_term(j, n, p).real
                    except RangeError:
                        raised += 1
                        continue
                    top = mp.mpf(j + 1) / 2
                    g = mp.meijerg([[mp.mpf(1) / 2, 1, top - n], []], [[], [top]], 4 / (C * x2**2))
                    want = (-B * k**2) ** n / mp.factorial(n) / mp.sqrt(mp.pi) * C ** (top - 1 - n) * g
                    yield rel(got, want), (j, n, p)
            yield (math.inf if 4 * raised > 36 else 0.0), f"the guard raised at {raised} of 36 terms at j = {j}"


def _theorem6_far(rng: random.Random) -> Checks:
    # the terms of a series at large |x2 sqrt(C)|, where Horner over P_{n,j} loses up to 3e-5 (a
    # lone term's guard raises there; the series' guard measures the terms against their sum)
    every = th.TruncationPolicy(rel_tol=1e-300, max_terms=61)
    with mp.workdps(40):
        for C, x2 in ((-1.8926, 39.04), (-1.5446, 5.8), (0.65 + 1.69j, 7.0), (2.0, 7.0)):
            p = th.YukawaFormParams(0.8, C, 0.6, x2)
            for j in (0, 1, 2, 3, 5):
                terms = th.theorem6_eval(j, p, every).terms
                for n in (0, 1, 5, 20, 40, 60):
                    yield rel(terms[n], mp_theorem6_term(j, n, p)), (j, n, p)


def _theorem6_high(rng: random.Random) -> Checks:
    # high orders, and a tiny C, where C^{-n-1/2} alone leaves double precision
    cases = [(j, n, th.YukawaFormParams(0.6, 0.8, 0.9, 1.5)) for j, n in ((2, 86), (3, 100), (5, 120))]
    with mp.workdps(40):
        for j, n, p in cases + [(0, 20, th.YukawaFormParams(1e-10, 1e-16, 1.0, 1.0))]:
            yield rel(th.theorem6_term(j, n, p), mp_theorem6_term(j, n, p)), (j, n, p)


def _series(evaluate: Callable, orders: tuple[int, ...], fixed: tuple = ()) -> Callable[[random.Random], Checks]:
    # converged, and within the bound of the closed form, inside the radius |B k^2| < |C|
    def checks(rng: random.Random) -> Checks:
        with mp.workdps(30):
            for j in orders:
                for p in fixed + tuple(_point(rng, (0.0, 0.5)) for _ in range(80)):
                    ev = evaluate(j, p)
                    yield (rel(ev.value, _mp_closed(j, p)) if ev.converged else math.inf), (j, p)
    return checks


def _corollary1(rng: random.Random) -> Checks:
    # the series-sweep box, and cos theta <= -1/2 at k in (1, 3], where the finite Legendre sums
    # keep their digits (x1 solves B = x1^2 - 2 x1 x2 cos = rho x2^2 / k^2)
    with mp.workdps(30):
        for i in range(160):
            if i % 2:
                x2 = rng.uniform(0.5, 2.5)
                x1, cos = x2 * rng.uniform(0.05, 0.3), rng.uniform(-0.9, 0.9)
                cfg = th.CorollaryConfig("C1", rng.uniform(0.3, 1.5), x1, x2, cos)
            else:
                x2, cos, rho, k = rng.uniform(0.05, 3), rng.uniform(-1, -0.5), rng.uniform(0.01, 0.5), rng.uniform(1, 3)
                x1 = x2 * (math.sqrt(cos**2 + rho / k**2) + cos)
                cfg = th.CorollaryConfig("C1", rng.uniform(0.05, 2), x1, x2, cos, k=k)
            ev = th.corollary1_legendre_eval(cfg)
            yield (rel(ev.value, _mp_closed(0, th.corollary_to_params(cfg))) if ev.converged else math.inf), cfg


def _two_range_draw(rng: random.Random, top: float, eta: float = 0.3) -> tuple[float, float, float, float]:
    x2 = rng.uniform(0.5, 2.5)
    return rng.uniform(eta, 1.5), x2 * rng.uniform(0.15, top), x2, rng.uniform(-0.9, 0.9)


def _mp_slater(eta, x1, x2, cos):
    r = mp.sqrt(mp.mpf(x1) ** 2 - 2 * mp.mpf(x1) * x2 * cos + mp.mpf(x2) ** 2)
    return mp.exp(-eta * r) / r


def _two_range_terms(rng: random.Random) -> Checks:
    # relative to (2n+1) |I K| / sqrt(x1 x2): near a zero of P_n the value is P_n's absolute error
    with mp.workdps(30):
        for eta, x1, x2, cos in (_two_range_draw(rng, 0.9, 0.1) for _ in range(3)):
            for n, got in enumerate(th.two_range_mos_terms(eta, x1, x2, cos, 84)):
                ik = (2 * n + 1) * mp.besseli(n + 0.5, eta * x1) * mp.besselk(n + 0.5, eta * x2) / mp.sqrt(x1 * x2)
                if ik >= TINY:
                    yield float(abs(got - ik * mp.legendre(n, cos)) / ik), (n, eta, x1, x2, cos)


# amplitudes
def _pair(rng: random.Random) -> am.SlaterPair:
    """The block-series and oracle-check draw of s1_general_term_gamma and s1_series_n_term."""
    return am.SlaterPair(*(rng.uniform(*box) for box in ((0.3, 1.5), (0.3, 1.5), (0.1, 1.0), (0.05, 0.9))))


def _theorem3_box(rng: random.Random, equal: bool = False) -> tuple[float, ...]:
    """x2 eta2 <= 0.25 and (eta1^2 - eta2^2) / eta2^2 = +-[0.05, 0.2]: the block-series draw."""
    eta2 = rng.uniform(0.1, 1.0)
    x2 = rng.uniform(0.05, 0.25 / eta2)
    return (eta2, x2) if equal else (eta2 * math.sqrt(1 + rng.choice((-1, 1)) * rng.uniform(0.05, 0.2)), eta2, x2)


def _mp_two_slater(eta1, eta2, x2):
    return 4 * mp.pi * (mp.exp(-mp.mpf(eta2) * x2) - mp.exp(-mp.mpf(eta1) * x2)) / (x2 * (mp.mpf(eta1) ** 2 - eta2**2))


def _mp_equal_eta(eta2, x2):
    return 2 * mp.pi * mp.exp(-mp.mpf(x2) * eta2) / eta2


def _mp_series_term(n: int, p: am.SlaterPair):
    """Term n of the Macdonald series in s by 20-digit mpmath quadrature of its defining integral."""
    with mp.workdps(20):
        e1, e2, x2, k, kx = (mp.mpf(v) for v in (p.eta1, p.eta2, p.x2, p.k, p.k_dot_x2))
        d, half = e1**2 - e2**2, mp.mpf(1) / 2
        pref = (2 * mp.pi * 2 ** (3 * half - n) * k ** (2 * n) / (mp.sqrt(mp.pi) * mp.factorial(n))
                * d ** (-2 * n - 1) * x2 ** (n + half) * mp.expj(e2**2 * kx / d))
        return pref * mp.quad(lambda s: s ** (half - n) * (s * s - e1**2) ** n * (s * s - e2**2) ** n
                              * mp.besselk(n + half, s * x2) * mp.expj(-kx / d * s * s), [e2, e1])


def _series_terms(func: Callable, pairs: Iterable[tuple[int, am.SlaterPair]]) -> Checks:
    for n, p in pairs:
        try:
            err = rel(func(n, p), _mp_series_term(n, p))
        except CapacityError:
            err = math.inf
        yield (err if err == err else math.inf), (n, p)


def tau_mpmath(eta1: float, eta2: float, x2: float, k: float, dps: int = 20, pieces: int = 5) -> complex:
    """2 pi int_0^1 e^{-i k x2 tau} e^{-x2 L}/L dtau, L^2 = (1 - tau)(k^2 tau + eta2^2) + eta1^2 tau,
    by mpmath quadrature at dps digits over pieces - 1 equal panels."""
    with mp.workdps(dps):
        e1, e2, x, kk = (mp.mpf(v) for v in (eta1, eta2, x2, k))

        def integrand(tau):
            ell = mp.sqrt((1 - tau) * (kk**2 * tau + e2**2) + e1**2 * tau)
            return mp.exp(mp.mpc(-x * ell, -kk * x * tau)) / ell

        return complex(2 * mp.pi * mp.quad(integrand, mp.linspace(0, 1, pieces)))


def _tau_oracle(rng: random.Random) -> Checks:
    for p, tol in ((_pair(rng), tol) for tol in (1e-12, 2e-10, 1e-7) for _ in range(4)):
        p = am.SlaterPair(p.eta1, p.eta1, p.x2, min(p.k, 1.5 * p.eta1)) if rng.random() < 0.5 else p
        res = am.s1_tau_oracle(p, tol=tol)
        yield (rel(res.value, tau_mpmath(p.eta1, p.eta2, p.x2, p.k)) if res.converged else math.inf), p


def _cheshire(rng: random.Random) -> Checks:
    # mpmath, not s1_tau_oracle, whose absolute floor leaves it 1.4e-3 off at (1.821, 16.82,
    # 1.92 eta1); a flagged series is not a checked value
    draws = [(eta1, rng.uniform(0.1, 20), eta1 * rng.uniform(0, 4))
             for eta1 in (rng.uniform(0.2, 2) for _ in range(150))]
    for eta1, x2, k in draws:
        ev = am.cheshire_series(eta1, x2, k)
        if ev.converged:
            yield rel(ev.value, tau_mpmath(eta1, eta1, x2, k)), (eta1, x2, k)


def _block_k_terms(rng: random.Random) -> Checks:
    # each k-term against the same (i, j) sum of 40-digit Gamma values, relative to the sum of its
    # |terms|: the sum itself cancels (max|term| / |sum| reaches 4e10 at n = 40)
    with mp.workdps(40):
        fixed = [(0.11, 0.13, 0.17), (0.52, 0.5, 0.45), (0.3, 0.32, 0.7)]
        for e1, e2, x2 in fixed + [_theorem3_box(rng) for _ in range(2)]:
            z, ratio, gamma = mp.mpf(x2) * e2, mp.mpf(x2) ** 2 * (mp.mpf(e1) ** 2 - e2**2), functools.cache(mp.gammainc)
            for n in (0, 2, 10, 20, 40):
                b_k = mp.mpf(1)  # (-1)^k ((n+3)/2)_k / k! (x2^2 (eta1^2 - eta2^2))^k
                for k, got in enumerate(t.real for t in am.theorem3_block_k_terms(n, am.SlaterPair(e1, e2, x2)).terms):
                    terms = [b_k * c * gamma(order - 2 * k, z) for c, order in am._theorem3_coefs(n, e1, e2, x2)]
                    yield float(abs(got - mp.fsum(terms)) / mp.fsum(map(abs, terms))), (n, k, e1, e2, x2)
                    b_k *= -(mp.mpf(n + 3) / 2 + k) / (k + 1) * ratio


def _block_series(func: Callable, closed: Callable, draws: Iterable[tuple]) -> Checks:
    with mp.workdps(30):
        for args in draws:
            ev = func(*args)
            yield (rel(ev.value, closed(*args)) if ev.converged else math.inf), args


def _mp_theorem4_block(n: int, eta2: float, x2: float):
    """Block n as the defining (i, j) sum of incomplete gammas, in 70-digit mpmath."""
    with mp.workdps(70):
        m, nu, z, fact = n // 2, abs(n - 1) // 2, mp.mpf(eta2) * x2, math.factorial
        gamma = {a: mp.gammainc(a, z) for a in range(-m - nu - 2, m - 1)}
        q = [mp.mpf(fact(nu + j)) / (fact(j) * fact(nu - j) * 2**j) for j in range(nu + 1)]
        total = mp.fsum((-1) ** i * math.comb(m, i) * z ** (n - 2 * i)
                        * mp.fsum(qj * gamma[2 * i - j - m - 2] for j, qj in enumerate(q)) for i in range(m + 1))
        return 4 * mp.pi * eta2 * mp.mpf(x2) ** 2 * (-1) ** m / (mp.mpf(2) ** m * fact(m)) * total


def _theorem4_draws(rng: random.Random) -> list[tuple]:
    fixed = [(n, eta2, z / eta2) for n in (0, 2, 6, 14, 40, 76, 120)
             for eta2, z in ((0.9, 0.005), (0.2, 0.04), (1.7, 0.3), (0.5, 1.1), (1.3, 2.05), (0.7, 3.0))]
    draws = [(2 * rng.randrange(61), eta2, logu(rng, 0.005, 3.0) / eta2)
             for eta2 in (rng.uniform(0.1, 2) for _ in range(2))]
    return fixed + [(80, 0.37, 0.29), (120, 0.37, 0.29)] + draws


# ellipsoidal
def _mp_t_abc_exact(R):
    r = mp.mpf(R)
    c, c3, d = mp.mpf(116) / (9 * r), mp.mpf(116) / 3, mp.mpf(131) / (3 * r)
    return mp.fsum((mp.exp(3 * r) * (-16 * r**2 + 44 * r + c - c3) * mp.ei(-8 * r),
                    -mp.exp(-3 * r) * (16 * r**2 + 44 * r + c + c3) * (mp.ei(-2 * r) + 2 * mp.log(2)),
                    mp.exp(-3 * r) * (624 * r**2 + 2256 * r + d + 1670) / 16,
                    -mp.exp(-5 * r) * (160 * r + d + 34) / 16)) / 81


def _t_abc_exact(lo: float, hi: float, fixed: tuple = (), count: int = 60) -> Callable[[random.Random], Checks]:
    draws = lambda rng: [(R,) for R in fixed + tuple(logu(rng, lo, hi) for _ in range(count))]
    return sweep(el.t_abc_exact, _mp_t_abc_exact, draws, 40)


def _t_abc_oracle(R_s: tuple[float, ...], tols: tuple[float, ...]) -> Callable[[random.Random], Checks]:
    oracle = lambda R, tol: (lambda res: res.value.real if res.converged else math.nan)(el.t_abc_oracle(R, tol))
    return sweep(oracle, lambda R, tol: _mp_t_abc_exact(R), lambda rng: itertools.product(R_s, tols), 40)


def _mp_t_abc_integrand(R, lam, mu):
    R, lam, mu = mp.mpf(R), mp.mpf(lam), mp.mpf(mu)
    root = mp.sqrt(lam**2 + mu**2 - 1)
    return 2 * R**3 * ((lam - mu) / R + lam**2 - mu**2) * mp.exp(-3 * R * lam - R * mu - R * root)


@functools.lru_cache(maxsize=None)
def _mp_gamma(a: int, R: float):
    """Gamma(a, 4R) at 60 digits: 40-digit gammainc loses digits at integer a near -4R, 1.4e-13 at
    (-81, 20.0), while 60 digits agree with 120 to 5e-34 on every point the T(a,bc) rows sample."""
    with mp.workdps(60):
        return mp.gammainc(a, 4 * mp.mpf(R))


def _mp_increment(n: int, R: float, js: Iterable[int] | None = None):
    """Increment n of the T(a,bc) series, the J-sum of t_abc_term's formula (over the J of js), in
    40-digit mpmath with the K coefficient c(m, J) = (m+J)!/(J! (m-J)!) an exact integer."""
    with mp.workdps(40):
        m, r, fact = max(n - 1, 0), mp.mpf(R), math.factorial
        top, r2_16 = mp.besseli(n + 2.5, r) * r ** (-n - 0.5), 16 * r**2
        low = (2 * n + 3) * mp.besseli(n + 1.5, r) * r ** (-n - 1.5)
        total = 0
        for big_j in (range(m + 1) if js is None else js):
            g1, g2, g3 = (_mp_gamma(k - big_j - n, R) for k in (1, 2, 3))
            c = fact(m + big_j) // (fact(big_j) * fact(m - big_j)) << big_j  # c(m, J) 2^J
            total += c * (top * (4 * g2 + g3 - r2_16 * g1) + low * (4 * g2 + g3))
        return mp.sqrt(mp.pi) * mp.mpf(2) ** (2 * n - 4.5) * r ** (2 * n) * total


def _t_abc_terms(rng: random.Random) -> Checks:
    # 100 draws, and six points of the corner n >= 34 at R = 20 that they miss: Gamma(m - J - n, 80) to -115
    draws = [(n, rng.randint(0, max(n - 1, 0)), logu(rng, 1e-3, 20)) for n in (rng.randint(0, 86) for _ in range(100))]
    corner = [(84, 0, 20.0), (40, 39, 20.0), (60, 10, 20.0), (34, 33, 20.0), (70, 40, 20.0), (86, 30, 20.0)]
    with mp.workdps(40):
        for n, big_j, R in draws + corner:
            if min(mp.besseli(n + 1.5, R), *(_mp_gamma(m - big_j - n, R) for m in (1, 2, 3))) >= TINY:
                yield rel(el.t_abc_term(n, big_j, R), _mp_increment(n, R, (big_j,))), (n, big_j, R)


def _t_abc_increments(rng: random.Random, R: float, n_max: int, first: int) -> Checks:
    # increments first ... n_max of t_abc_series(R, n_max); past n = 20 it sums every one of them
    every = th.TruncationPolicy(rel_tol=1e-300, max_terms=n_max + 1) if n_max > 20 else None
    ev = el.t_abc_series(R, n_max, every)
    assert every is None or ev.terms_used == n_max + 1, (R, ev.terms_used)
    for n in range(first, len(ev.terms)):
        yield rel(ev.terms[n].real, _mp_increment(n, R)), (R, n)


# the golden suite's one-vs-two-range grid, eta = 0.8: |B k^2/C| up to 0.7
GOLDEN_C4 = tuple(th.corollary_to_params(th.CorollaryConfig("C4", 0.8, x1, x2, u))
                  for x1 in (0.5, 1.0, 1.8) for x2 in (0.6, 1.15, 2.2) for u in (-0.6, 0.1, 0.7))

# the H_m(0) walk's anchor m = ceil(1.3 R) steps at R = k / 1.3: both sides of each step up to
# R = 12, of the anchor's switch from m = 0 at R = 1, and 40 log-spaced R in [0.001, 20]
T_ABC_RS = ((0.003, 0.05, 0.11, 0.49, 0.51, 1.0 - 1e-9, 1.0 + 1e-9, 1.1, 2.5, 7.0)
            + tuple(0.001 * 20000 ** (i / 39) for i in range(40))
            + tuple(k / 1.3 * (1.0 + side) for k in range(1, 16) for side in (-1e-9, 1e-9)))


def _rows() -> tuple[Row, ...]:
    K, I_WALK, GAMMA, MEIJER = sf.bessel_k_half, sf.bessel_i_walk, sf.upper_incomplete_gamma, sf.meijer_g_0313
    ratios = "any arg C, |C| in [0.05, 9], k in [0.05, 3], x2 in [0.05, 2]"
    non_real = "non-real C, |C| in [0.05, 4], |B k^2/C| in [0.3, 0.9], k in [0.05, 1], x2 in [0.05, 2]"
    pair_box = "eta1 != eta2 in [0.3, 1.5], x2 in [0.1, 1], k in [0.05, 0.9]"
    two_range = "x_< / x_> in [0.15, {}], |cos theta| <= 0.9, eta in [0.3, 1.5], x_> in [0.5, 2.5]"
    t6_box = "B, k in [0.05, 1] and C, x2 in [0.05, 2]"
    exact_p = "exact P_{n,j} in 40-digit mpmath"
    box = "x2 eta2 <= 0.25"
    recon, golden = am.SlaterPair(0.11, 0.13, 0.17), th.YukawaFormParams(0.13, 0.11, 0.23, 0.17)
    eval84 = lambda *args: th.two_range_mos_eval(*args, n_terms=84)

    return (
        Row(sf.factorial, "0 <= n <= 170", "math.factorial", 0, 171,
            lambda rng: ((float(sf.factorial(n) != math.factorial(n)), n) for n in range(171)),
            outside=(at(sf.factorial, -1, error=DomainError), at(sf.factorial, 171, error=CapacityError))),
        Row(sf.double_factorial, "-1 <= n <= 170", "math.prod(range(n, 0, -2))", 0, 172,
            lambda rng: ((float(sf.double_factorial(n) != math.prod(range(n, 0, -2))), n) for n in range(-1, 171)),
            outside=(at(sf.double_factorial, -2, error=DomainError),
                     at(sf.double_factorial, 171, error=CapacityError))),
        Row(K, "-86 <= n <= 85 and real z in [1e-2, 700]", "40-digit mpmath", 1e-14, 436,
            _k_half(itertools.product(range(9), (0.1 + 0j, 0.7 + 0j, 2 + 0j, 5 + 0j)), 400,
                    lambda rng: (rng.randint(-86, 85), complex(logu(rng, 1e-2, 700.0)))),
            outside=(*(at(K, n, z, error=DomainError) for n, z in ((0, 0.0), (2, math.nan))),
                     *(at(K, n, z, error=CapacityError) for n, z in ((90, 1.0), (83, 0.01), (85, 1e-4))),
                     *(at(K, n, z, error=RangeError) for n, z in ((80, 1.518 - 60.11j), (83, 0.209 - 49.05j))))),
        Row(K, "-86 <= n <= 85, |z| in [1e-2, 700] and |arg z| <= pi/4", "40-digit mpmath", 1e-12, 412,
            _k_half(itertools.product((0, 2, 5, 8), (2 - 1j, 3 + 2j, 4 - 1.8j)), 400,
                    lambda rng: (rng.randint(-86, 85), cmath.rect(logu(rng, 1e-2, 700), rng.uniform(-0.8, 0.8))))),
        Row(K, "-9 <= n <= 8, |z| in [0.5, 5] and Re z > 0", "40-digit mpmath", 1e-14, 206,
            _k_half(itertools.product(range(3), (0.5 + 1.5j, 1 + 2j)), 200,
                    lambda rng: (rng.randint(-9, 8), cmath.rect(rng.uniform(0.5, 5), rng.uniform(-1.57, 1.57))))),
        Row(I_WALK, "orders 0 to 84 at x in [1e-3, 50] or [700, 713.9] where I is a normal double",
            "40-digit mpmath", 2e-15, 1578,
            lambda rng: _i_walk((x, range(85)) for x in I_XS + (700.0, 710.0, 712.0, 713.9)),
            outside=(*(at(I_WALK, x, error=DomainError) for x in (0.0, -1.0, math.nan, math.inf)),
                     *(at(I_WALK, x, error=CapacityError, match="overflows") for x in (714.1, 800.0, 1e10, 1e300)),
                     Outside("1.0, order 1022", lambda: list(itertools.islice(I_WALK(1.0), 1023)), CapacityError,
                             "order 1022"))),
        Row(I_WALK, "orders 85 to 150 at x in [1e-3, 50] where I is a normal double", "40-digit mpmath", 3.1e-15, 659,
            lambda rng: _i_walk((x, range(85, 151)) for x in I_XS)),
        Row(I_WALK, "orders 151 to 1021 at x in [100, 713]", "40-digit mpmath", 2e-14, 11,
            lambda rng: _i_walk((rng.uniform(100, 713), range(n, n + 1))
                                for n in [rng.randrange(151, 1022) for _ in range(12)])),
        Row(sf.bessel_i_half, "orders 85 to 150 at x in {0.37, 13, 50} where I is a normal double", "40-digit mpmath",
            3.1e-15, 174, sweep(sf.bessel_i_half, lambda n, x: mp.besseli(n + mp.mpf(1) / 2, x),
                                lambda rng: itertools.product(range(85, 151), (0.37, 13.0, 50.0)), 40),
            outside=(at(sf.bessel_i_half, -1, 1.0, error=DomainError), at(sf.bessel_i_half, 0, 0.0, error=DomainError),
                     *(at(sf.bessel_i_half, n, x, error=CapacityError, match="overflows")
                       for n, x in ((0, 800.0), (0, 1e10), (5, 1e200))),
                     at(sf.bessel_i_half, 1022, 1.0, error=CapacityError, match="order 1022"))),
        Row(sf.cosine_moment_walk, "n <= 60 and |y| <= 1000", "30-digit mpmath", 1e-15, 1464, _cosine_moments,
            "relative to the envelope 1/(2n+1)",
            tuple(at(sf.cosine_moment_walk, y, error=DomainError) for y in (math.nan, math.inf, -math.inf))),
        Row(sf.legendre_walk, "degrees 0 to 84 and |u| <= 0.99", "40-digit mpmath", 2e-14, 3400,
            _legendre_band(False), "absolute",
            tuple(at(sf.legendre_walk, u, error=DomainError) for u in (1.0001, -1.0001, math.nan))),
        Row(sf.legendre_walk, "degrees 0 to 84 and 1e-9 <= 1 - |u| <= 1e-2", "40-digit mpmath", 5e-13, 3400,
            _legendre_band(True), "absolute"),
        Row(sf.legendre_p, "0 <= n <= 300 and |u| <= 1", "40-digit mpmath", 1e-12, 120,
            sweep(sf.legendre_p, lambda n, u: mp.legendre(n, u),
                  lambda rng: [(rng.randint(0, 300), rng.uniform(-1, 1)) for _ in range(120)], 40, True), "absolute",
            tuple(at(sf.legendre_p, n, u, error=DomainError) for n, u in ((-1, 0.5), (2, 1.0001), (3, math.nan)))),
        Row(sf.cos_power_to_legendre, "0 <= j <= 84", "the exact projection (2m+1)/2 int u^j P_m(u) du", 1e-15,
            1849, _cos_powers, outside=(at(sf.cos_power_to_legendre, -1, error=DomainError),
                                        at(sf.cos_power_to_legendre, 85, error=CapacityError))),
        Row(sf.hermite_h, "0 <= j <= 30 and |x| <= 10", "30-digit mpmath", 1e-14, 150, _hermite,
            "relative to sum|term| = |H_j(i|x|)|",
            (at(sf.hermite_h, -1, 1.0, error=DomainError),
             at(sf.hermite_h, 3, math.nan, error=DomainError, match="not finite"))),
        Row(sf.gamma_walk, "theorem 3's walk, a = 18 down to -199 short of overflow, real z in [0.005, 0.25]",
            "40-digit mpmath", 5e-14, 1570,
            lambda rng: _gamma_walks([(18.0, z) for z in (0.005, 0.01, 0.03, 0.07, 0.12, 0.25)]
                                     + [(18.0, logu(rng, 0.005, 0.25)) for _ in range(2)], 218)),
        Row(sf.gamma_walk, "T(a,bc)'s walk, a = 3 down to -40, real z in [0.044, 4.8]", "40-digit mpmath", 1.5e-14,
            2948, lambda rng: _gamma_walks([(3.0, z) for z in (0.044, 0.2, 0.9, 1.96, 2.04, 3.3, 4.8)]
                                           + [(3.0, rng.uniform(0.044, 4.8)) for _ in range(60)], 44)),
        Row(sf.gamma_walk, "integer and half-integer a in [-42, 3] and real z in [5, 40]", "40-digit mpmath", 1e-14,
            720, lambda rng: _gamma_walks([(a, z) for z in (5.0, 10.0, 16.0, 28.0, 40.0)
                                           + tuple(rng.uniform(5, 40) for _ in range(3)) for a in (3.0, 2.5)], 45)),
        Row(sf.gamma_walk, "T(a,bc)'s walk at R in [10, 20], a = 3 down to the last normal value, real z in [40, 80]",
            "80-digit mpmath", 6e-16, 1300,
            lambda rng: _gamma_walks([(3.0, z) for z in (40.0, 50.0, 60.0, 70.0, 80.0)]
                                     + [(3.0, rng.uniform(40, 80)) for _ in range(3)], 190, 80)),
        Row(GAMMA, "integer and half-integer a in [0, 3] and real z in [1e-3, 700]", "40-digit mpmath", 2e-15, 1150,
            _gamma_anchors, outside=(
                *(at(GAMMA, *a, error=DomainError) for a in ((-1.0, 0.0), (0.25, 1.0), (1.0, -3.0), (math.nan, 1.0))),
                *(at(GAMMA, *a, error=CapacityError) for a in ((-500.0, 0.5), (-120.0, 0.001), (300.0, 50.0))),
                *(at(GAMMA, *a, error=DomainError, match="is not real") for a in (
                    (-3.0, 1.5 + 0.5j), (0.5, 0.8 + 6j), (-9.5, 20j), (-5.0, -21.59 - 0.339j))))),
        Row(GAMMA, "integer and half-integer a in [-60, -0.5] and real z in [5, 100]", "80-digit mpmath", 5e-16, 150,
            sweep(GAMMA, lambda a, z: mp.gammainc(a, z),
                  lambda rng: [(-rng.randrange(1, 121) / 2, rng.uniform(5, 100)) for _ in range(150)], 80)),
        Row(GAMMA, "half-integer a in [-59.5, -0.5] and real z in [1, 5]", "80-digit mpmath", 5e-16, 151,
            sweep(GAMMA, lambda a, z: mp.gammainc(a, z),
                  lambda rng: [(-4.5, 4.8)] + [(-0.5 - rng.randrange(60), rng.uniform(1, 5)) for _ in range(150)], 80)),
        Row(sf.erf_complex, "|Re z|, |Im z| <= 25", "40-digit mpmath", 1e-12, 207,
            sweep(lambda z: (sf.erf_complex(z) - mp.erf(z)) / max(abs(mp.erf(z)), abs(mp.erfc(z))), lambda z: 0,
                  lambda rng: [(z,) for z in (0.5 + 0.5j, 2 - 1j, 0.3 + 2j, 4.2 + 0.4j, 1.2 + 4j, 0.4 - 6j, 3 + 3j)]
                  + [(complex(rng.uniform(-25, 25), rng.uniform(-25, 25)),) for _ in range(200)], 40, True),
            "relative to max(|erf z|, |erfc z|)",
            (at(sf.erf_complex, 1 + 40j, error=RangeError),
             *(at(sf.erf_complex, z, error=DomainError, match="not finite")
               for z in (math.nan, complex(1, math.nan), complex(math.inf, 1), math.inf, -math.inf)))),
        Row(sf.kummer_1f1, "integers 1 <= a <= 30, a <= b <= a + 32 and |z| <= 20 where max|term| <= 1e5 |sum|",
            "30-digit mpmath", 1e-11, 106, _kummer,
            outside=(at(sf.kummer_1f1, 2, 1, 0.5, error=DomainError),
                     at(sf.kummer_1f1, 1, 2, math.nan, error=DomainError, match="not finite"),
                     at(sf.kummer_1f1, 4, 8, -30j, error=RangeError, match="cancels"),
                     at(sf.kummer_1f1, 1, 2, -40.0, error=RangeError))),
        Row(sf.exp_integral_ei, "x in [-700, -1e-3]", "30-digit mpmath", 2e-15, 101,
            sweep(sf.exp_integral_ei, lambda x: mp.ei(x),
                  lambda rng: [(-1.0,)] + [(-logu(rng, 1e-3, 700),) for _ in range(100)]),
            outside=(at(sf.exp_integral_ei, 0.0, error=DomainError), at(sf.exp_integral_ei, 1.0, error=DomainError))),
        Row(sf.exp_integral_ei, "x in {-9.6, -3, -1, -0.1}", "the CLI's quadrature oracle", 1e-12, 4,
            lambda rng: ((rel(sf.exp_integral_ei(x), oracle("exp_integral_ei", x=x).real), x)
                         for x in (-9.6, -3, -1, -0.1))),
        Row(MEIJER, "theorem 6's range, j <= 2, mu = n - (j+1)/2 for n <= 20 and arg in [10, 1e4]",
            "20-digit mpmath", 1e-14, 225,
            sweep(lambda j, n, arg: MEIJER(j, n - (j + 1) / 2, arg), lambda j, n, arg: _meijer(j, n - (j + 1) / 2, arg),
                  lambda rng: list(itertools.product(range(3), range(0, 21, 2), (10.0, 50.0, 1e3, 8e3, 1e4)))
                  + [(rng.randrange(3), rng.randrange(21), logu(rng, 10, 1e4)) for _ in range(60)], 20),
            outside=(*(at(MEIJER, *a, error=DomainError) for a in (
                (0, 0.0, -1.0), (-1, 0.0, 1.0), (1.5, 0.0, 1.0), (True, 0.0, 1.0), (2.0, 0.0, 1.0), (0, math.nan, 1.0),
                (0, math.inf, 1.0), (0, 0.0, math.nan), (0, 0.0, math.inf), (0, 0.0, 0.0))),
                     *(at(MEIJER, *a, error=DomainError, match="odd") for a in (  # 2 mu - j even
                         (0, 0.0, 1.0), (0, -4.0, 1e-2), (7, -1.5, 0.3), (2, 0.3, 1.0), (1, 1.5, 4.0), (3, 2.25, 4.0))),
                     at(_meijer_overflow, 0, -60.5, 1e6, error=CapacityError),
                     at(_meijer_overflow, 0, -80.5, 1e8, error=CapacityError),
                     at(MEIJER, 7, -4.0, 1e8, error=RangeError, match="cancel"))),
        Row(MEIJER, "j <= 8 on the grid mu in {-4, -3.5, -3, -1.5, 4.5, 30}, arg in {1e-2, 1, 1e2, 1e4, 1e8} off "
            "the cancellation set", "20-digit mpmath", 1e-13, 90, _meijer_grid(False)),
        Row(MEIJER, "that grid on the cancellation set mu = -(k+3)/2, 0 <= k < j, k = j (mod 2)", "20-digit mpmath",
            1e-12, 45, _meijer_grid(True)),
        Row(MEIJER, "j <= 8, 2 mu - j odd, mu in [-4, 30] and arg in [1e-2, 1e8]", "30-digit mpmath", 25, 300,
            _meijer_sweep, "times eps sum|term| / |G|"),
        Row(th.yukawa_form, f"|B k^2/C| <= 0.7, {ratios}", "30-digit mpmath", 1e-14, 150,
            sweep(th.yukawa_form, lambda p: _mp_closed(0, p),
                  lambda rng: [(_point(rng, (0, 0.7)),) for _ in range(150)]),
            outside=(Outside("B k^2 + C = 0", lambda: th.yukawa_form(th.YukawaFormParams(-1, 1, 1, 0.5)), PoleError),)),
        Row(th.theorem1_term, f"n <= 120 at {non_real}, where the term is a normal double", exact_p,
            1.5e-14, 96, _terms_non_real_c(0, 12),
            outside=(at(th.theorem1_term, 20, th.YukawaFormParams(1.0, 1e-20, 1.0, 1.0), error=CapacityError,
                        match="overflows", text="n = 20, C = 1e-20"),
                     at(th.theorem1_term, 2.5, golden, error=DomainError, match="n must be an integer",
                        text="n = 2.5"))),
        Row(th.theorem1_term, "n <= 120 at real C in {-0.08, -0.4, -1.5, -3}, x2 in {0.05, 0.6, 2}, |B k^2/C| in "
            "[0.3, 0.9], k in [0.05, 1], where the term is a normal double", exact_p, 2e-15, 100, _terms_negative_c),
        Row(th.theorem5_term, f"n <= 120 at {non_real}, where the term is a normal double", exact_p,
            1.5e-14, 96, _terms_non_real_c(1, 12),
            outside=(at(th.theorem5_term, 2.5, golden, error=DomainError, match="n must be an integer",
                        text="n = 2.5"),)),
        Row(th.theorem6_term, f"j <= 8, n in {{0, 1, 2, 5, 10, 20, 30}}, {t6_box}", exact_p, 1e-14, 630,
            _theorem6_derivative, "times min(kappa, 10 at j <= 2 or 1000), kappa = sum|beta_p z^p| / |P_{n,j}(z)|,",
            (at(th.theorem6_term, -1, 0, golden, error=DomainError, text="j = -1"),
             at(th.theorem6_term, 2, 2.5, golden, error=DomainError, match="n must be an integer", text="n = 2.5"),
             at(th.theorem6_term, 2, 2, th.YukawaFormParams(0.5, 1, 0.5, (1 + 5**0.5) / 2), error=RangeError,
                text="j = n = 2 at the root z = (1 + 5^0.5)/2 of P_{2,2}"))),
        Row(th.theorem6_term, f"3 <= j <= 8, n in {{0, 1, 2, 5, 10, 20}}, {t6_box}",
            "the paper's G-form in 40-digit mpmath", 1e-11, 216, _theorem6_g_form),
        Row(th.theorem6_term, "(j, n) = (2, 86), (3, 100), (5, 120) at C = 0.8, and n = 20 at C = 1e-16",
            exact_p, 1e-14, 4, _theorem6_high),
        Row(th.theorem6_term, f"j = 5, n <= 120 at {non_real}, where the term is a normal double",
            exact_p, 3e-14, 32, _terms_non_real_c(5, 4)),
        Row(th.theorem1_eval, f"|B k^2/C| <= 0.5, {ratios}, and the golden C4 grid", "30-digit mpmath", 1e-9, 107,
            _series(lambda j, p: th.theorem1_eval(p), (0,), GOLDEN_C4)),
        Row(th.theorem5_eval, f"|B k^2/C| <= 0.5, {ratios}", "30-digit mpmath", 1e-9, 80,
            _series(lambda j, p: th.theorem5_eval(p), (1,))),
        Row(th.theorem6_eval, f"j = 2, 3, |B k^2/C| <= 0.5, {ratios}", "30-digit mpmath", 1e-9, 160,
            _series(th.theorem6_eval, (2, 3)),
            outside=(at(th.theorem6_eval, 1.5, golden, error=DomainError, match="j must be", text="j = 1.5"),)),
        Row(th.theorem6_eval, "terms n <= 60 of j <= 5 at x2 sqrt(C) = 53.7i, 5.8 sqrt(-1.5446), 7 sqrt(0.65 + 1.69i) "
            "and 7 sqrt(2)", exact_p, 3e-14, 120, _theorem6_far),
        Row(th.corollary1_legendre_eval, "C1 at |B k^2/C| <= 0.5 with cos theta <= -1/2, or at k = 1, x1/x2 <= 0.3 "
            "and |cos theta| <= 0.9", "30-digit mpmath", 1e-9, 160, _corollary1,
            outside=(Outside("a C2 geometry", lambda: th.corollary1_legendre_eval(th.CorollaryConfig("C2", 1, 1, 1)),
                             DomainError),)),
        Row(th.two_range_mos_eval, "84 terms, " + two_range.format(0.3), "30-digit mpmath", 1e-12, 25,
            sweep(eval84, _mp_slater, lambda rng: [_two_range_draw(rng, 0.3) for _ in range(25)]),
            outside=(at(th.two_range_mos_eval, 1.0, 0.3, 1.0, 1.5, error=DomainError),
                     *(at(th.two_range_mos_eval, *a, error=DomainError, match="^two_range_mos_eval: eta, x1, x2")
                       for a in ((0.5, 0.3, math.nan, 0.5), (math.nan, 0.3, 0.5, 0.5), (0.5, math.inf, 0.5, 0.5))),
                     at(th.two_range_mos_eval, 1.0, 800.0, 801.0, 0.5, 5, error=CapacityError))),
        Row(th.two_range_mos_eval, "84 terms, " + two_range.format(0.9), "30-digit mpmath", 1e-4, 25,
            sweep(eval84, _mp_slater, lambda rng: [_two_range_draw(rng, 0.9) for _ in range(25)])),
        Row(th.two_range_mos_terms, "n < 84, " + two_range.format(0.9).replace("0.3,", "0.1,"), "30-digit mpmath",
            1e-14, 250, _two_range_terms, "relative to (2n+1) |I K| / sqrt(x1 x2)",
            (at(th.two_range_mos_terms, 0.3, 0.5, 2.0, 0.5, 87, error=CapacityError),
             at(th.two_range_mos_terms, 0.13, 0.3, 0.17, 0.4, 0, error=DomainError))),
        Row(am.s1_coulomb_closed, "eta1 in [0.05, 50] and eta1 x2 in [0.01, 700]", "30-digit mpmath", 1e-14, 100,
            sweep(am.s1_coulomb_closed, lambda e1, x2: 4 * mp.pi * (1 - mp.exp(-e1 * x2)) / (x2 * e1**2),
                  lambda rng: [(e1, logu(rng, 0.01, 700) / e1) for e1 in (logu(rng, 0.05, 50) for _ in range(100))]),
            outside=(at(am.s1_coulomb_closed, math.nan, 0.3, error=DomainError),)),
        Row(am.s1_two_slater_closed, f"the theorem-3 box, {box} and |eta1^2 - eta2^2| in [0.05, 0.2] eta2^2, and "
            "eta1 != eta2 in [0.05, 2] at x2 in [0.05, 2]", "30-digit mpmath", 1e-11, 100,
            sweep(lambda *a: am.s1_two_slater_closed(am.SlaterPair(*a)), _mp_two_slater,
                  lambda rng: [_theorem3_box(rng) if i % 2 else tuple(rng.uniform(0.05, 2) for _ in "abc")
                               for i in range(100)]),
            outside=(Outside("eta1 = eta2", lambda: am.s1_two_slater_closed(am.SlaterPair(1, 1, 1)), DomainError),)),
        Row(am.s1_equal_eta_closed, "eta2 in [0.05, 2] and x2 in [1e-6, 20]", "30-digit mpmath", 2e-15, 100,
            sweep(am.s1_equal_eta_closed, _mp_equal_eta,
                  lambda rng: [(rng.uniform(0.05, 2), logu(rng, 1e-6, 20)) for _ in range(100)]),
            outside=(at(am.s1_equal_eta_closed, math.nan, 0.3, error=DomainError),)),
        Row(am.s1_tau_oracle, "tol in {1e-12, 2e-10, 1e-7}, eta1, eta2 in [0.3, 1.5], x2 in [0.1, 1] and k in "
            "[0.05, 0.9]", "20-digit mpmath quadrature", 1e-10, 12, _tau_oracle),
        Row(am.s1_series_n_term, f"n <= 3, tol in {{1e-11, 1e-12}}, {pair_box}", "20-digit mpmath quadrature", 1e-10, 8,
            lambda rng: _series_terms(lambda n, p: am.s1_series_n_term(n, p, 10.0 ** -(11 + n % 2)),
                                      [(rng.randrange(4), _pair(rng)) for _ in range(8)]),
            outside=(Outside("eta1 = eta2", lambda: am.s1_series_n_term(0, am.SlaterPair(0.5, 0.5, 1, 0.2)),
                             DomainError),)),
        Row(am.s1_n0_erf_closed, pair_box, "20-digit mpmath quadrature", 1e-10, 8,
            lambda rng: _series_terms(lambda n, p: am.s1_n0_erf_closed(p), [(0, _pair(rng)) for _ in range(8)]),
            outside=(Outside("k = 0", lambda: am.s1_n0_erf_closed(am.SlaterPair(0.8, 0.5, 1.0)), DomainError),)),
        Row(am.s1_general_term_gamma, f"n = 0, {pair_box}", "20-digit mpmath quadrature", 1e-10, 10,
            lambda rng: _series_terms(am.s1_general_term_gamma, [(0, _pair(rng)) for _ in range(10)]),
            outside=(Outside("k = 0", lambda: am.s1_general_term_gamma(0, am.SlaterPair(0.8, 0.5, 1)), DomainError),
                     # terms n >= 1 at the benchmark's block-series and oracle-check probe inputs
                     *(at(am.s1_general_term_gamma, n, am.SlaterPair(*pair), error=DomainError,
                          match="use s1_series_n_term", text=f"n = {n}, " + ", ".join(map(str, pair)))
                       for n, *pair in ((1, 0.968, 0.5538, 0.5035, 0.4027), (2, 0.968, 0.5538, 0.5035, 0.4027),
                                        (3, 0.968, 0.5538, 0.5035, 0.4027), (1, 0.65, 1.0438, 0.6761, 0.2833),
                                        (3, 0.7714, 1.0435, 0.113, 0.1117), (3, 1.1229, 1.1869, 0.6722, 0.3779),
                                        (1, 1.2696, 0.695, 0.8859, 0.3023), (3, 0.5192, 0.9115, 0.9048, 0.4802))))),
        Row(am.cheshire_series, "eta1 in [0.2, 2], x2 in [0.1, 20] and k / eta1 in [0, 4] where converged",
            "20-digit mpmath quadrature", 3e-10, 105, _cheshire,
            outside=(Outside("|k.x2| > k x2", lambda: am.cheshire_series(0.8, 0.5, 0.1, 5.0), DomainError,
                             "k_dot_x2"),)),
        Row(am.theorem2_angular, "eta2, x1, x2 in [0.5, 2]", "the CLI's quadrature oracle", 1e-10, 37,
            lambda rng: ((rel(am.theorem2_angular(*a), oracle("theorem2_angular", eta2=a[0], x1=a[1], x2=a[2])), a)
                         for a in itertools.chain(itertools.product((0.5, 1.0, 2.0), repeat=3),
                                                  [tuple(rng.uniform(0.5, 2) for _ in "abc") for _ in range(10)])),
            outside=(at(am.theorem2_angular, math.nan, 0.3, 0.4, error=DomainError),)),
        Row(am.theorem3_block_k_terms, f"blocks n in {{0, 2, 10, 20, 40}}, {box} and |eta1^2 - eta2^2| <= 0.3 eta2^2",
            "its (i, j) sum of 40-digit mpmath Gamma values", 5e-14, 351, _block_k_terms,
            "relative to the sum of its |terms|",
            (at(am.theorem3_block_k_terms, 3, recon, error=DomainError, text="odd n"),
             *(at(am.theorem3_block_k_terms, n, recon, error=DomainError, match="n must be an integer", text=f"n = {n}")
               for n in (4.0, 2.5)))),
        Row(am.theorem3_series, f"the defaults, {box} and (eta1^2 - eta2^2) / eta2^2 = +-[0.05, 0.2]",
            "30-digit mpmath", 1e-2, 6,
            lambda rng: _block_series(lambda *a: am.theorem3_series(am.SlaterPair(*a)), _mp_two_slater,
                                      [_theorem3_box(rng) for _ in range(6)]),
            outside=(Outside("eta1 = eta2", lambda: am.theorem3_series(am.SlaterPair(0.5, 0.5, 1)), DomainError),
                     Outside("(eta1, eta2, x2) = (1.05e-5, 1e-5, 1)",
                             lambda: am.theorem3_series(am.SlaterPair(1.05e-5, 1e-5, 1.0)), CapacityError,
                             r"the walk to a = -62\.0 overflows"))),
        Row(am.theorem3_series, "the defaults, x2 eta2 in [0.5, 1.35] and |eta1^2 - eta2^2| < eta2^2",
            "30-digit mpmath", 1e-2, 3,
            lambda rng: _block_series(lambda *a: am.theorem3_series(am.SlaterPair(*a)), _mp_two_slater,
                                      [(1.2, 1.0, 0.5), (0.7, 0.9, 1.5), (0.9, 0.6, 0.8)]),
            open="1.3% and 3.3% off, and -3.4e10 flagged at (0.9, 0.6, 0.8)"),
        Row(am.theorem4_block, "even n <= 120 and z = x2 eta2 in [0.005, 3]", "70-digit mpmath", 1e-14, 46,
            sweep(am.theorem4_block, _mp_theorem4_block, _theorem4_draws),
            outside=(at(am.theorem4_block, 40, 1.0, 30.0, error=RangeError, match="cancels"),
                     at(am.theorem4_block, 3, 0.13, 0.17, error=DomainError),
                     *(at(am.theorem4_block, n, 0.13, 0.17, error=DomainError, match="n must be an integer")
                       for n in (4.0, 2.5)))),
        Row(am.theorem4_series, f"the defaults and {box}", "30-digit mpmath", 1e-2, 12,
            lambda rng: _block_series(am.theorem4_series, _mp_equal_eta, [_theorem3_box(rng, True) for _ in range(12)]),
            outside=(at(am.theorem4_series, 1.0, 30.0, error=RangeError, match="cancels"),)),
        Row(am.corollary6_n0_closed, "eta1 in [0.05, 5] and eta2 / eta1 in [1.01, 20]", "30-digit mpmath", 1e-14, 100,
            sweep(am.corollary6_n0_closed,
                  lambda e1, e2: 4 * mp.pi / mp.sqrt(e2**2 - e1**2) * mp.asinh(mp.sqrt(e2**2 / e1**2 - 1)),
                  lambda rng: [(e1, e1 * rng.uniform(1.01, 20)) for e1 in (logu(rng, 0.05, 5) for _ in range(100))]),
            outside=(at(am.corollary6_n0_closed, 2.0, 1.0, error=DomainError),)),
        Row(el.t_abc_integrand, "R in [0.01, 20], lam in [1, 31] and |mu| <= 1 where the value is a normal double",
            "30-digit mpmath", 1e-12, 100,
            sweep(lambda *a: el.t_abc_integrand(el.EllipsoidalParams(*a)), _mp_t_abc_integrand,
                  lambda rng: [(logu(rng, 0.01, 20), 1 + logu(rng, 1e-6, 30), rng.uniform(-1, 1)) for _ in range(100)]),
            outside=(Outside("lam < 1", lambda: el.EllipsoidalParams(1.0, 0.5, 0.0), DomainError),)),
        Row(el.t_abc_oracle, "tol = 1e-10 and R in {0.011, 0.18, 1.1, 5, 8, 12, 20}", "40-digit mpmath", 1e-12, 7,
            _t_abc_oracle((0.011, 0.18, 1.1, 5.0, 8.0, 12.0, 20.0), (1e-10,)),
            outside=(at(el.t_abc_oracle, -1.0, error=DomainError),)),
        Row(el.t_abc_oracle, "tol in {1e-9, 2e-9} and R in {0.011, 0.05, 0.11, 0.5, 1.1, 1.2}", "40-digit mpmath",
            1e-12, 12, _t_abc_oracle((0.011, 0.05, 0.11, 0.5, 1.1, 1.2), (1e-9, 2e-9))),
        Row(el.t_abc_exact, "R in [0.001, 0.011]", "40-digit mpmath", 2e-12, 61, _t_abc_exact(0.001, 0.011, (0.001,)),
            outside=(at(el.t_abc_exact, 1e-4, error=DomainError, match="R >= 0.001"),
                     *(at(el.t_abc_exact, R, error=RangeError) for R in (239.27, 1e200)))),
        Row(el.t_abc_exact, "R in [0.011, 236.13]", "40-digit mpmath", 5.8e-14, 184,
            _t_abc_exact(0.011, 236.13, (0.011, 0.05, 20.0, 236.0), 180)),
        Row(el.t_abc_exact, "R in (236.13, 239.26]", "40-digit mpmath", 1.2e-12, 62,
            _t_abc_exact(236.14, 239.26, (239.0, el.EXACT_MAX_R))),
        Row(el.t_abc_term, "n <= 86, J <= max(n - 1, 0) and R in [1e-3, 20] where I_{n+3/2}(R) and Gamma(m - J - n, "
            "4R), m = 1, 2, 3, are normal doubles", "40-digit mpmath", 1e-14, 83, _t_abc_terms,
            outside=(at(el.t_abc_term, 0, 1, 0.11, error=DomainError), at(el.t_abc_term, 3, 3, 0.11, error=DomainError),
                     *(at(el.t_abc_term, n, J, R, error=DomainError, match="R >= 1e-150")
                       for n, J in ((0, 0), (2, 1)) for R in (1e-300, 1e-200, 9e-151)),
                     at(el.t_abc_term, 2.0, 1, 0.11, error=DomainError),
                     *(at(el.t_abc_term, *args, error=CapacityError, match="below the normal doubles")
                       for args in ((1, 0, 1e-130), (77, 76, 20.0))))),
        Row(el.t_abc_series, "increments n <= 20 at R in [0.001, 2.5], and 87 <= n <= 100 at R = 0.5 and 2.5, "
            "n <= 400 at R = 2 and n <= 59 at R = 0.0003", "40-digit mpmath", 2.5e-15, 6, _t_abc_increments,
            outside=(at(el.t_abc_series, 0.0, error=DomainError),
                     *(at(el.t_abc_series, R, error=DomainError, match="R >= 1e-150")
                       for R in (1e-300, 1e-200, 9e-151)),
                     at(el.t_abc_series, 800.0, error=CapacityError, match=r"I_\{1/2\}\(800\.0\) overflows"),
                     # Gamma(-19, 600) is subnormal: the anchor would lose its digits
                     at(el.t_abc_series, 150.0, error=CapacityError,
                        match=r"anchor of the eta walk at m = 19 reads Gamma\(-19, 600\.0\)"),
                     *(at(el.t_abc_series, R, n_max, th.TruncationPolicy(1e-300, n_max + 1), error=CapacityError,
                          match=match, text=f"{R}, n_max = {n_max}, max_terms = {n_max + 1}, rel_tol = 1e-300")
                       for R, n_max, match in ((160.0, 210, "recurrence depth 401 exceeds bound 400"),
                                               (100.0, 150, r"anchor of the eta walk at m = 130 reads "
                                                            r"Gamma\(-130, 400\.0\), which is below")))),
            cases=tuple((R, 20, 0) for R in T_ABC_RS if R <= 2.5) + ((0.5, 100, 87), (2.5, 100, 87), (2.0, 400, 0),
                                                                      (0.0003, 59, 0))),
        Row(el.t_abc_series, "increments n <= 20 at R in (2.5, 20]", "40-digit mpmath", 1e-14, 21,
            _t_abc_increments, cases=tuple((R, 20, 0) for R in T_ABC_RS if R > 2.5)),
    )


ROWS = _rows()
assert len({row.id for row in ROWS}) == len(ROWS), "a row's id seeds its sampler: the ids must differ"

# public callables that evaluate no number of their own, and why
NO_ROW = {
    "accumulate_series": "sums the terms it is given; every series row runs it",
    "corollary_to_params": "maps a geometry onto (B, C, k, x2), which the theorem rows draw directly",
    "stall_detector": "reads a series' terms and evaluates none",
}


def render_table() -> str:
    """README's accuracy table, one line per row, the open rows last."""
    lines = ["| callable | domain | reference | bound | values | raises outside the domain |",
             "|---|---|---|---|---|---|"]
    for row in sorted(ROWS, key=lambda r: bool(r.open)):
        bound = row.bound_text.rstrip(",")
        bound = f"**open**: misses {bound}; {row.open}" if row.open else bound
        raises = []  # the outside points, grouped by error and message pattern
        for (error, match), group in itertools.groupby(row.outside, lambda o: (o.error, o.match)):
            name = f"{error.__name__} `{match}`" if match else error.__name__
            raises.append(f"{name} at " + ", ".join(f"({o.text})" for o in group))
        values = f"{row.points} at each of {len(row.cases)} cases" if row.cases else str(row.points)
        cells = (f"`{row.func.__name__}`", row.domain, row.reference, bound, values, "; ".join(raises))
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    return "\n".join(lines) + "\n"


def with_table(text: str) -> str:
    """README's text with render_table() between its table markers."""
    start, end = text.index(TABLE_START) + len(TABLE_START), text.index(TABLE_END)
    return text[:start] + "\n\n" + render_table() + "\n" + text[end:]


if __name__ == "__main__":
    README.write_text(with_table(README.read_text()))
