"""Special-function kernel: frozen values, independent oracles, properties."""

import cmath
import hashlib
import itertools
import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from slater_addition import specfun as sf
from slater_addition.cli import EXIT_ERROR, main
from slater_addition.errors import CapacityError, DomainError, RangeError, SlaterAdditionError
from slater_addition.quadrature import integrate_finite, integrate_semi_infinite

SQRT_PI = math.sqrt(math.pi)


def k_half_integral_oracle(n, z):
    """K_{n+1/2}(z) = int_0^inf e^{-z cosh t} cosh((n+1/2) t) dt, Re z > 0."""
    nu = n + 0.5
    res = integrate_semi_infinite(
        lambda t: cmath.exp(-z * math.cosh(t)) * math.cosh(nu * t), 0.0, 1e-12
    )
    assert res.converged
    return res.value


class TestFactorials:
    def test_exact_values(self):
        assert sf.factorial(0) == 1
        assert sf.factorial(10) == 3628800
        assert sf.double_factorial(-1) == 1
        assert sf.double_factorial(7) == 105
        assert sf.double_factorial(8) == 384

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sf.factorial(171)
        with pytest.raises(DomainError):
            sf.factorial(-1)

    def test_binomial(self):
        assert sf.binomial_general(-2, 3) == pytest.approx(-4.0)


class TestBesselKHalf:
    def test_k_half_closed_form(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}, exactly as built
        assert sf.bessel_k_half(0, 1.0).real == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-15
        )
        assert sf.bessel_k_half(0, 1.0).real == pytest.approx(0.4610685044478945, rel=1e-14)

    def test_order_three_halves_vs_integral_oracle(self):
        got = sf.bessel_k_half(1, 2.0).real
        assert got == pytest.approx(0.17990665795209218, rel=1e-13)
        assert got == pytest.approx(k_half_integral_oracle(1, 2.0).real, rel=1e-9)

    def test_leading_theorem_argument(self):
        z = 0.17 * math.sqrt(0.11)
        want = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert sf.bessel_k_half(0, z).real == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("n", range(9))
    @pytest.mark.parametrize("z", [0.1, 0.7, 2.0, 5.0])
    def test_real_grid_vs_oracle(self, n, z):
        assert sf.bessel_k_half(n, z).real == pytest.approx(
            k_half_integral_oracle(n, z).real, rel=1e-9
        )

    # small Re(z) is paired with low orders only: the oracle integrand peaks
    # near e^{nu*t - Re(z) cosh t} and becomes ill-conditioned for large nu
    @pytest.mark.parametrize(
        "n, z",
        [(n, z) for n in (0, 2, 5, 8) for z in (2.0 - 1.0j, 3.0 + 2.0j, 4.0 - 1.8j)]
        + [(n, z) for n in (0, 1, 2) for z in (0.5 + 1.5j, 1.0 + 2.0j)],
    )
    def test_complex_grid_vs_oracle(self, n, z):
        got = sf.bessel_k_half(n, z)
        want = k_half_integral_oracle(n, z)
        assert abs(got - want) <= 1e-7 * abs(want)

    def test_negative_order_routing(self):
        # K_{-nu} = K_nu: order -(n+1/2) routes to (-n-1)+1/2
        for z in (0.3, 2.0, 1.0 + 1.0j):
            assert sf.bessel_k_half(-1, z) == sf.bessel_k_half(0, z)
            assert sf.bessel_k_half(-4, z) == sf.bessel_k_half(3, z)

    @given(n=st.integers(min_value=-9, max_value=8),
           re=st.floats(0.1, 5.0), im=st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_by_construction(self, n, re, im):
        z = complex(re, im)
        assert sf.bessel_k_half(n, z) == sf.bessel_k_half(-n - 1, z)

    @staticmethod
    def _check_vs_mpmath(mpmath, n, z, tol):
        # 40-digit mpmath.besselk; where K leaves double precision the kernel raises instead
        with mpmath.workdps(40):
            want = mpmath.besselk(abs(n + 0.5), mpmath.mpc(z.real, z.imag))
            if abs(want) >= sys.float_info.max:
                with pytest.raises(CapacityError):
                    sf.bessel_k_half(n, z)
                return
            assume(abs(want) >= sys.float_info.min)
            assert float(abs((sf.bessel_k_half(n, z) - want) / want)) <= tol, (n, z)

    @given(n=st.integers(-86, 85), x=st.floats(-2.0, math.log10(700.0)).map(lambda t: 10.0**t))
    @settings(max_examples=200, deadline=None)
    def test_real_z_vs_mpmath(self, n, x):
        # every order at real z in [1e-2, 700]: all terms positive (measured worst 6.6e-15)
        self._check_vs_mpmath(pytest.importorskip("mpmath"), n, complex(x), 1e-14)

    @given(n=st.integers(-86, 85), r=st.floats(-2.0, math.log10(700.0)).map(lambda t: 10.0**t),
           theta=st.floats(-math.pi / 4, math.pi / 4))
    @settings(max_examples=200, deadline=None)
    def test_sector_vs_mpmath(self, n, r, theta):
        # |arg z| <= pi/4: the finite sum cancels by up to 3.7e3 (n = 85, |z| ~ 67 on the
        # edge; measured worst 2.2e-13)
        self._check_vs_mpmath(pytest.importorskip("mpmath"), n, cmath.rect(r, theta), 1e-12)

    @pytest.mark.parametrize("n, z", [(80, 1.518 - 60.11j), (83, 0.209 - 49.05j)])
    def test_cancelling_sum_raises(self, n, z, capsys):
        # the finite sum cancels ~1e15-fold here; its value was 3.6e-2 and 2.4e-3 off mpmath
        with pytest.raises(RangeError, match="cancels"):
            sf.bessel_k_half(n, z)
        z_arg = f"{z.real!r}{z.imag:+}i"
        args = ["eval", "bessel_k_half", "--param", f"n={n}", "--param", f"z={z_arg}"]
        assert main(args) == EXIT_ERROR
        assert "cancels" in capsys.readouterr().err

    def test_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_k_half(0, 0.0)
        with pytest.raises(CapacityError):
            sf.bessel_k_half(90, 1.0)

    def test_overflow_raises(self, capsys):
        # 0.02^-83 times the J = 83 coefficient leaves double precision
        with pytest.raises(CapacityError, match="overflows"):
            sf.bessel_k_half(83, 0.01)
        assert main(["eval", "bessel_k_half", "--param", "n=83", "--param", "z=0.01"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: bessel_k_half")

    def test_k_half_coef_is_the_series_coefficient(self):
        # K_{n+1/2}(z) sqrt(2z/pi) e^z = sum_j k_half_coef(n, j) (2z)^{-j}
        assert [sf.k_half_coef(3, j) for j in range(4)] == [1, 12, 60, 120]
        z = 1.7
        for n in range(6):
            want = sf.bessel_k_half(n, z).real * math.exp(z) * math.sqrt(2 * z / math.pi)
            got = math.fsum(sf.k_half_coef(n, j) * (2 * z) ** -j for j in range(n + 1))
            assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="finite"):
        sf.bessel_i_half(2, bad)
    with pytest.raises(DomainError, match="finite"):
        sf.bessel_k_half(2, bad)
    with pytest.raises(DomainError, match="finite"):
        sf.bessel_k_half(2, complex(1.0, bad))
    with pytest.raises(DomainError, match="finite"):
        sf.upper_incomplete_gamma(2.0, bad)
    with pytest.raises(DomainError, match="finite"):
        sf.upper_incomplete_gamma(bad, 1.0)
    with pytest.raises(DomainError, match="finite"):
        next(sf.gamma_walk(2.0, bad))


class TestBesselIHalf:
    def test_i_half_closed_form(self):
        assert sf.bessel_i_half(0, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-14
        )

    def test_i_three_halves_closed_form(self):
        x = 2.0
        want = math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - math.sinh(x) / x)
        assert sf.bessel_i_half(1, x) == pytest.approx(want, rel=1e-13)

    def test_small_argument_vs_power_series_oracle(self):
        # 20-term ascending series written out independently
        n, x = 2, 0.11
        nu = n + 0.5
        total = 0.0
        for k in range(20):
            total += (x / 2.0) ** (2 * k + nu) / (math.factorial(k) * math.gamma(k + nu + 1.0))
        assert sf.bessel_i_half(n, x) == pytest.approx(total, rel=1e-14)

    def test_underflowed_value_returned(self):
        # the leading term is already subnormal: I_{83.5}(0.01) = 2.0248713e-318 (mpmath)
        assert sf.bessel_i_half(83, 0.01) == pytest.approx(2.0248713e-318, rel=1e-5)
        # I_{83.5}(0.001) = 6.4e-402 lies below the smallest double
        assert sf.bessel_i_half(83, 0.001) == 0.0

    def test_errors(self):
        with pytest.raises(DomainError):
            sf.bessel_i_half(0, 0.0)
        with pytest.raises(DomainError):
            sf.bessel_i_half(-1, 1.0)

    def test_is_the_walk_to_order_150_vs_mpmath(self):
        # the n-th value of bessel_i_walk, also past order 84, where (2n+1)!! leaves the
        # factorial cache
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in (0.37, 13.0, 50.0):
                walked = list(itertools.islice(sf.bessel_i_walk(x), 151))
                for n in range(85, 151):
                    got = sf.bessel_i_half(n, x)
                    assert got == walked[n]
                    want = mpmath.besseli(n + mpmath.mpf(1) / 2, x)
                    if want >= sys.float_info.min:
                        assert float(abs((got - want) / want)) <= 3.1e-15, (x, n)
        with pytest.raises(CapacityError, match="order 1022"):
            sf.bessel_i_half(sf.BESSEL_I_WALK_ORDERS, 1.0)

    def test_overflow_raises(self):
        # I_{1/2}(700) = 1.5293200e302 (mpmath) is still a double; I_{1/2}(800) ~ 1e346 is not
        assert sf.bessel_i_half(0, 700.0) == pytest.approx(1.5293200e302, rel=1e-7)
        for n, x in ((0, 800.0), (0, 1e10), (5, 1e200)):
            with pytest.raises(CapacityError, match="overflows"):
                sf.bessel_i_half(n, x)


# x in [1e-3, 50]: tiny, around the T(a,bc) and two-range arguments, and past the orders
BESSEL_I_XS = (1e-3, 0.003, 0.01, 0.05, 0.11, 0.37, 0.7, 1.0, 1.2, 2.5, 7.0, 13.0, 20.0, 33.0, 50.0)


# SHA-256 over float.hex() of bessel_i_walk at every order 0 ... 1021, x in BESSEL_I_XS, 300, 713
BESSEL_I_WALK_DIGEST = "75d1f98f686000ed4af9d5a37f90e66b561d87b562276cc5e5083672c210929d"


class TestBesselIWalk:
    def test_walks_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for x in BESSEL_I_XS + (300.0, 713.0):
            for v in itertools.islice(sf.bessel_i_walk(x), sf.BESSEL_I_WALK_ORDERS):
                digest.update(v.hex().encode())
        assert digest.hexdigest() == BESSEL_I_WALK_DIGEST

    def test_vs_mpmath(self):
        # orders 0..84 across the block edges at 16, 32, 64 and 83, where I is a normal double
        # (measured worst 1.8e-15)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in BESSEL_I_XS:
                for n, got in enumerate(itertools.islice(sf.bessel_i_walk(x), 85)):
                    want = mpmath.besseli(n + mpmath.mpf(1) / 2, x)
                    if want >= sys.float_info.min:
                        assert float(abs((got - want) / want)) <= 2e-15, (x, n)

    def test_to_order_150_vs_mpmath(self):
        # past order 84, where (2n+1)!! leaves the factorial cache: the walk forms x^n / (2n+1)!!
        # from the mantissas (measured worst 2.27e-15 at these x, 2.99e-15 over 375 x in [1e-3, 50])
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in BESSEL_I_XS:
                walked = list(itertools.islice(sf.bessel_i_walk(x), 151))
                for n in range(85, 151):
                    want = mpmath.besseli(n + mpmath.mpf(1) / 2, x)
                    if want >= sys.float_info.min:
                        assert float(abs((walked[n] - want) / want)) <= 3.1e-15, (x, n)

    @pytest.mark.parametrize("x", [0.37, 50.0])
    def test_calls_no_bessel_i_half(self, x, monkeypatch):
        # one Miller walk: no order is seeded from the ascending series
        called = []
        kernel = sf.bessel_i_half
        monkeypatch.setattr(sf, "bessel_i_half", lambda n, x: called.append(n) or kernel(n, x))
        assert len(list(itertools.islice(sf.bessel_i_walk(x), 151))) == 151
        assert called == []

    @pytest.mark.parametrize("x, subnormal", [(1e-150, []), (1e-10, [27]), (0.003, [72, 73, 74, 75])])
    def test_underflowed_orders_are_the_rounded_product(self, x, subnormal):
        # below the normal doubles an order is its product rounded once: subnormal, then 0.0
        mpmath = pytest.importorskip("mpmath")
        walked = list(itertools.islice(sf.bessel_i_walk(x), 151))
        assert walked[0] == pytest.approx(math.sqrt(2.0 / (math.pi * x)) * math.sinh(x), rel=1e-15)
        tiny = [n for n, v in enumerate(walked) if v < sys.float_info.min]
        assert [n for n in tiny if walked[n] > 0.0] == subnormal
        assert tiny == list(range(tiny[0], 151)) and walked[-1] == 0.0
        with mpmath.workdps(40):
            for n in tiny:
                want = mpmath.besseli(n + mpmath.mpf(1) / 2, x)
                assert float(abs(walked[n] - want)) <= 2e-15 * want + 5e-324, n

    def test_errors(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                next(sf.bessel_i_walk(x))
        for x in (714.1, 800.0, 1e10, 1e300):  # I_{1/2}(800) ~ 1e346
            with pytest.raises(CapacityError, match="overflows"):
                next(sf.bessel_i_walk(x))
        # m^n, x = m 2^e, stays a normal double through order 1021
        assert len(list(itertools.islice(sf.bessel_i_walk(1.0), sf.BESSEL_I_WALK_ORDERS))) == 1022
        with pytest.raises(CapacityError, match="order 1022"):
            list(itertools.islice(sf.bessel_i_walk(1.0), sf.BESSEL_I_WALK_ORDERS + 1))

    @pytest.mark.parametrize("x", [710.0, 712.0, 713.9])
    def test_past_sinh_overflow(self, x):
        # sinh x overflows from x ~ 710.5, I_{1/2}(x) only from ~714
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n, got in enumerate(itertools.islice(sf.bessel_i_walk(x), 3)):
                want = mpmath.besseli(n + mpmath.mpf(1) / 2, x)
                assert float(abs((got - want) / want)) <= 2e-15, n


class TestCosineMomentWalk:
    # y = 0, tiny, negative, at the upward/downward switch 2n(2n-1) = y^2 (y ~ 2, 12, 110), and a
    # seeded spread to |y| = 1000, where the upward run alone covers n <= 60
    YS = (0.0, 1e-8, -0.3, 1.4, 2.0, -2.2, math.pi, 11.8, 12.5, 100.0, -109.9, 300.0, -1000.0,
          1000.0) + tuple(round(random.Random(7).uniform(-1000, 1000), 6) for _ in range(10))

    def test_vs_mpmath(self):
        # mu_n(y) = 1F2(n+1/2; 1/2, n+3/2; -y^2/4) / (2n+1) for n <= 60, against the envelope
        # 1/(2n+1) of |mu_n| (measured worst 2.5e-16)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            for y in self.YS:
                got = list(itertools.islice(sf.cosine_moment_walk(y), 61))
                q = -mpmath.mpf(y) ** 2 / 4
                for n, mu in enumerate(got):
                    want = mpmath.hyp1f2(n + 0.5, 0.5, n + 1.5, q) / (2 * n + 1)
                    assert abs(mu - want) * (2 * n + 1) <= 1e-15, (y, n)

    def test_zero_and_symmetry(self):
        assert list(itertools.islice(sf.cosine_moment_walk(0.0), 6)) == [1 / (2 * n + 1) for n in range(6)]
        assert list(itertools.islice(sf.cosine_moment_walk(-3.7), 200)) == list(
            itertools.islice(sf.cosine_moment_walk(3.7), 200))
        assert next(sf.cosine_moment_walk(1e-8)) == 1.0

    def test_errors(self):
        for y in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                next(sf.cosine_moment_walk(y))


class TestLegendre:
    def test_low_orders(self):
        assert sf.legendre_p(0, 0.3) == 1.0
        assert sf.legendre_p(1, 0.3) == 0.3

    def test_degree_four_explicit(self):
        u = -0.6
        want = (35 * u**4 - 30 * u**2 + 3) / 8.0
        assert sf.legendre_p(4, u) == pytest.approx(want, rel=1e-14)
        assert sf.legendre_p(4, u) == pytest.approx(-0.408, abs=1e-12)

    @given(n=st.integers(0, 10), u=st.floats(-1.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_vs_binomial_sum(self, n, u):
        want = 2.0 ** (-n) * math.fsum(
            math.comb(n, k) ** 2 * (u - 1.0) ** (n - k) * (u + 1.0) ** k
            for k in range(n + 1)
        )
        assert sf.legendre_p(n, u) == pytest.approx(want, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.legendre_p(2, 1.0001)
        with pytest.raises(DomainError):
            sf.legendre_p(-1, 0.5)
        with pytest.raises(DomainError):
            next(sf.legendre_walk(-1.0001))
        with pytest.raises(DomainError):
            sf.legendre_p(3, math.nan)

    @pytest.mark.parametrize("u", [-1.0, -0.73, 0.0, 0.31, 1.0])
    def test_walk_is_legendre_p_bit_for_bit(self, u):
        walk = itertools.islice(sf.legendre_walk(u), 85)
        assert list(walk) == [sf.legendre_p(n, u) for n in range(85)]

    @pytest.mark.parametrize("band, tol", [
        # measured worst: 2.2e-15 for |u| <= 0.99, 2.0e-13 within 1e-7 of an endpoint
        ("interior", 2e-14),
        ("endpoint", 5e-13),
    ])
    def test_vs_mpmath(self, band, tol):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2718)
        with mpmath.workdps(40):
            for _ in range(40):
                if band == "interior":
                    size = rng.uniform(0.0, 0.99)
                else:
                    size = 1.0 - 10.0 ** rng.uniform(-9.0, -2.0)
                u = rng.choice([-1.0, 1.0]) * size
                for n, got in enumerate(itertools.islice(sf.legendre_walk(u), 85)):
                    assert abs(got - float(mpmath.legendre(n, u))) <= tol, (n, u)


class TestCosPowerToLegendre:
    def test_trivial_powers(self):
        assert sf.cos_power_to_legendre(0) == {0: 1.0}
        assert sf.cos_power_to_legendre(1) == {1: 1.0}

    def test_square_via_projection_oracle(self):
        # c_m = (2m+1)/2 int_{-1}^{1} u^2 P_m(u) du
        cs = sf.cos_power_to_legendre(2)
        for m in (0, 2):
            proj = integrate_finite(
                lambda u: u**2 * sf.legendre_p(m, u), -1.0, 1.0, 1e-13
            ).value.real * (2 * m + 1) / 2.0
            assert cs[m] == pytest.approx(proj, abs=1e-12)
        assert cs[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert cs[2] == pytest.approx(2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("j", range(13))
    def test_pointwise_reconstruction(self, j):
        cs = sf.cos_power_to_legendre(j)
        for i in range(50):
            u = math.cos(math.pi * (i + 0.5) / 50.0)
            assert abs(sum(c * sf.legendre_p(m, u) for m, c in cs.items()) - u**j) < 1e-12

    def test_parity_structure(self):
        for j in (4, 7):
            ms = sorted(sf.cos_power_to_legendre(j))
            assert all(m % 2 == j % 2 for m in ms)
            assert ms[0] == (0 if j % 2 == 0 else 1)


class TestUpperIncompleteGamma:
    def test_exponential_anchor(self):
        assert sf.upper_incomplete_gamma(1.0, 2.0).real == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_small_real_z_negative_a(self):
        # the value that drives the leading reconstruction-series term
        got = sf.upper_incomplete_gamma(-2.0, 0.0221).real
        e1 = sf.upper_incomplete_gamma(0.0, 0.0221).real
        z = 0.0221
        want = 0.5 * (e1 + math.exp(-z) * (1.0 / z**2 - 1.0 / z))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a, z", [(-3.0, 1.5 + 0.5j), (-2.5, -2.1 - 0.5j),
                                      (1.5, -1.0 + 2.0j)])
    def test_complex_z_vs_ray_quadrature(self, a, z):
        # the ray z + u stays off the cut and reaches the right half-plane
        got = sf.upper_incomplete_gamma(a, z)
        res = integrate_semi_infinite(
            lambda u: (z + u) ** (a - 1.0) * cmath.exp(-(z + u)), 0.0, 1e-13
        )
        assert res.converged
        assert abs(got - res.value) <= 1e-9 * abs(res.value)

    @given(
        two_a=st.integers(-12, 12),
        z=st.sampled_from([0.0221, 0.5, 2.3, 5.0, 1.5 + 0.5j, 0.3 - 0.8j, 4.0 + 3.0j,
                           -2.1 - 0.5j, -4.0 + 1.5j, 0.1 + 3.0j]),
    )
    @settings(max_examples=150, deadline=None)
    def test_recurrence_identity(self, two_a, z):
        a = two_a / 2.0
        lhs = sf.upper_incomplete_gamma(a + 1.0, z)
        rhs = a * sf.upper_incomplete_gamma(a, z) + complex(z) ** a * cmath.exp(-complex(z))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @given(z=st.one_of(st.floats(1e-3, 700.0),
                       st.floats(-3.0, math.log10(700.0)).map(lambda t: 10.0**t)))
    @settings(max_examples=300, deadline=None)
    def test_e1_vs_mpmath(self, z):
        """E_1(z) = upper_incomplete_gamma(0, z) on real z in [1e-3, 700] is within 2e-15
        relative of mpmath.e1: measured worst 9.5e-16 over 85,000 points, from the series
        just below z = 1 (6.6e-15 with the forward-evaluated continued fraction and the
        series up to z = 2)."""
        mpmath = pytest.importorskip("mpmath")
        got = sf.upper_incomplete_gamma(0, z)
        with mpmath.workdps(30):
            want = mpmath.e1(z)
            assert got.imag == 0.0
            assert float(abs((got.real - want) / want)) <= 2e-15

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_real_anchors_vs_mpmath_from_one(self, a):
        # real z in [1, 3]: the backward-evaluated continued fraction (measured worst
        # 7.8e-16 over 20,000 points), where the series (up to z = 2) and the forward
        # Lentz fraction were up to 1.6e-14 off
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(31)
        with mpmath.workdps(30):
            for _ in range(300):
                z = rng.uniform(1.0, 3.0)
                want = mpmath.gammainc(a, z)
                assert float(abs((sf.upper_incomplete_gamma(a, z).real - want) / want)) <= 2e-15, z

    # every (a, z) the real fraction serves: the anchors from z = 1, half-integers a < 0 from
    # GAMMA_CF_HALF_Z, integers a < 0 from GAMMA_CF_REAL_Z
    CF_ZS = [1.0 + i / 100 for i in range(400)] + [5.0 * 2000.0 ** (i / 120) for i in range(121)]
    CF_HALVES = [-0.5 - i for i in range(30)] + [-50.5, -100.5, -250.5, -399.5]
    CF_INTS = [-1.0 - i for i in range(30)] + [-50.0, -100.0, -250.0, -400.0]

    def test_real_fraction_depth_has_converged(self):
        # the fraction from the a-priori depth is within 1 ulp of the fraction from 50 levels
        # deeper, at every routed order (the value's own rounding may then add one more ulp)
        assert sf.GAMMA_CF_HALF_Z == 1.0
        count = 0
        for z in self.CF_ZS:
            depth = sf._cf_depth(z)
            for a in [0.0, 0.5] + self.CF_HALVES + (self.CF_INTS if z >= sf.GAMMA_CF_REAL_Z else []):
                want = sf._cf_backward(a, z, depth + 50)
                assert abs(sf._cf_backward(a, z, depth) - want) <= math.ulp(want), (a, z)
                count += 1
        assert count > 20_000

    def test_half_anchor_fraction_depth_below_one_vs_mpmath(self):
        # Gamma(1/2, z) on [GAMMA_HALF_ANCHOR_CF_Z, 1): the fraction cut at the a-priori depth,
        # evaluated in 40 digits, is within 3.8e-18 of mpmath.gammainc (its truncation); in
        # floats it is within 1 ulp of the fraction from 50 levels deeper, and the value within
        # 5.4e-16 (measured worst over 4,000 points)
        mpmath = pytest.importorskip("mpmath")
        assert sf.GAMMA_HALF_ANCHOR_CF_Z == 0.3
        with mpmath.workdps(40):
            for i in range(71):
                z = 0.3 + i / 100 if i < 70 else math.nextafter(1.0, 0.0)
                depth, x, half = sf._cf_depth(z), mpmath.mpf(z), mpmath.mpf(0.5)
                want = mpmath.gammainc(half, x)
                t = x + half + 2 * depth
                for k in range(depth, 0, -1):
                    t = x + half + 2 * (k - 1) - k * (k - half) / t
                assert abs(mpmath.exp(-x) * mpmath.sqrt(x) / t / want - 1) <= 1e-17, z
                deep = sf._cf_backward(0.5, z, depth + 50)
                assert abs(sf._cf_backward(0.5, z, depth) - deep) <= math.ulp(deep), z
                got = sf.upper_incomplete_gamma(0.5, z)
                assert got.imag == 0.0 and float(abs((got.real - want) / want)) <= 6e-16, z

    @pytest.mark.parametrize("z", [0.840274, 0.841266])
    def test_half_anchor_near_0_841(self, z):
        # the ascending series cancelled against sqrt(pi) here: 2.9e-15 off, the worst two of
        # 2,001 points on [0.840, 0.842] (its error is spiky: 3.4e-16 at 0.841 itself)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.gammainc(0.5, z)
            assert float(abs((sf.upper_incomplete_gamma(0.5, z).real - want) / want)) <= 1e-15

    @pytest.mark.parametrize("a, z, want", [
        # complex z keeps the forward modified-Lentz fraction, bit for bit
        (0.0, 3 + 4j, ("0x1.c4f5effe16de0p-11", "0x1.1fe80ed1654f5p-7")),
        (0.5, 2.5 - 1j, ("0x1.256fcb104be74p-6", "0x1.47e5e2ee1b988p-5")),
        (0.0, 10 + 0.5j, ("0x1.dc4c4722bcabdp-19", "-0x1.216dfcb6ad753p-19")),
        (0.5, 0.8 + 6j, ("0x1.55b9e656e8deap-3", "-0x1.030364efa5660p-4")),
        (-3.0, 6 - 2j, ("-0x1.0a31a3446d3a6p-20", "-0x1.24ad30bec3754p-25")),
        (-2.5, 1.5 + 3.5j, ("0x1.dbe9fb92ed788p-11", "-0x1.fb68a991299f5p-11")),
    ])
    def test_complex_fraction_pinned(self, a, z, want):
        got = sf._gamma_cf(a, z, cmath.exp(-z))
        assert (got.real.hex(), got.imag.hex()) == want

    def test_complex_fraction_past_its_prefactor_overflow(self):
        # e^{-z} z^a overflows at z = -709 + 1j before the fraction h ~ 1/z brings it back
        mpmath = pytest.importorskip("mpmath")
        z = -709 + 1j
        got = sf.upper_incomplete_gamma(0.5, z)
        with mpmath.workdps(40):
            want = mpmath.gammainc(0.5, mpmath.mpc(z.real, z.imag))
            assert float(abs((got - want) / want)) <= 1e-14

    def test_real_fraction_and_series_run_in_floats(self):
        for a, z in ((0.0, 0.5), (0.5, 0.5), (0.0, 2.0), (0.5, 2.0), (-7.5, 3.0)):
            g = next(sf.gamma_walk(a, z))
            assert type(g) is float, (a, z)

    def test_half_integer_below_five_vs_mpmath(self):
        # the walk down from Gamma(1/2, 4.8) was 2.2e-14 off at a = -4.5; the fraction at a is not
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(80):
            want = mpmath.gammainc(-4.5, 4.8)
            assert float(abs((sf.upper_incomplete_gamma(-4.5, 4.8).real - want) / want)) <= 1e-15

    def test_positive_half_integer_vs_erfc_form(self):
        # Gamma(1/2, z) = sqrt(pi) (1 - erf(sqrt(z))) on the real axis
        for z in (0.2, 1.0, 4.0):
            want = SQRT_PI * (1.0 - math.erf(math.sqrt(z)))
            assert sf.upper_incomplete_gamma(0.5, z).real == pytest.approx(want, rel=1e-12)

    def test_errors(self):
        with pytest.raises(DomainError):
            sf.upper_incomplete_gamma(-1.0, 0.0)
        with pytest.raises(DomainError):
            sf.upper_incomplete_gamma(0.25, 1.0)
        with pytest.raises(DomainError):
            sf.upper_incomplete_gamma(1.0, -3.0)
        with pytest.raises(CapacityError):
            sf.upper_incomplete_gamma(-500.0, 0.5)
        assert sf.upper_incomplete_gamma(2.0, 0.0).real == pytest.approx(1.0)

    @pytest.mark.parametrize("a, z", [(-120.0, 0.001), (300.0, 50.0)])
    def test_power_overflow_is_capacity_error(self, a, z, capsys):
        # z^b leaves double precision on the walk, before the final isinf check
        with pytest.raises(CapacityError):
            sf.upper_incomplete_gamma(a, z)
        code = main(["eval", "upper_incomplete_gamma", "--param", f"a={a:g}", "--param", f"z={z:g}"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


LADDER_ZS = (0.01, 0.25, 1.9, 2.1, 4.8, 0.5 + 1j)
LADDER_ORDERS = [two_a / 2.0 for two_a in range(-120, 61)]  # integers and half-integers in [-60, 30]


# the digest of the walks below, recorded from the chain-cached ladder the walk replaced: the
# hex of every value and the text of every error, bit for bit
WALK_DIGEST = "c6decf827a6a16d67b5ab8d9f1a8be3444a334ed3cdc9e7bd5f494414974b14c"


class TestGammaWalk:
    def test_walks_match_the_recorded_digest(self):
        lines = []
        for z in LADDER_ZS + (5.0, 28.0, 40.0):
            for start in (30.0, 29.5, 3.0, -3.0, -120.0):
                try:
                    for g in itertools.islice(sf.gamma_walk(start, z), 91):
                        lines.append(f"{type(g).__name__} {g.real.hex()} {g.imag.hex()}")
                except SlaterAdditionError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
        assert len(lines) == 4040
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WALK_DIGEST

    @pytest.mark.parametrize("z", LADDER_ZS)
    def test_bit_identical_to_kernel(self, z):
        # every order of LADDER_ORDERS off two walks, the integers from 30 and the
        # half-integers from 29.5
        for start in (30.0, 29.5):
            orders = [a for a in LADDER_ORDERS[::-1] if (a - start) % 1 == 0]
            for a, g in zip(orders, sf.gamma_walk(start, z)):
                assert complex(g) == sf.upper_incomplete_gamma(a, z), a

    @pytest.mark.parametrize("a, z, error", [
        (-1.0, 0.0, DomainError), (0.0, 0.0, DomainError),            # z = 0, a <= 0
        (2.0, -3.0, DomainError), (-1.5, -0.5, DomainError),          # negative real z
        (0.25, 1.0, DomainError),                                     # a off the half-integers
        (-500.0, 0.5, CapacityError), (402.5, 1.0, CapacityError),    # past GAMMA_RECURRENCE_LIMIT
        (-120.0, 0.001, CapacityError),                               # z^b overflows on the walk
        (-2.0, 1e-300, CapacityError),                                # z^b overflows, as 1/0
        (450.0, 0.0, CapacityError),                                  # Gamma(a) overflows at z = 0
    ])
    def test_errors_match_kernel(self, a, z, error):
        with pytest.raises(error) as single:
            sf.upper_incomplete_gamma(a, z)
        with pytest.raises(error) as walked:  # a walk's first order raises as the single order does
            next(sf.gamma_walk(a, z))
        assert str(walked.value) == str(single.value)

    @pytest.mark.parametrize("z", LADDER_ZS + (0.0,))
    @pytest.mark.parametrize("start", [30.0, 29.5, 3.0])
    def test_walk_bit_identical_to_kernel(self, z, start):
        # down through the anchors, and T(a,bc)'s walk from a = 3; at z = 0 the walk stops with
        # the kernel's DomainError at the first a <= 0
        walk = sf.gamma_walk(start, z)
        for i in range(91):
            a = start - i
            try:
                want = sf.upper_incomplete_gamma(a, z)
            except DomainError:
                with pytest.raises(DomainError):
                    next(walk)
                return
            assert next(walk) == want, a

    def test_walk_chain_stays_valid_after_an_overflow(self):
        # a walk down from -3 overflows near -103, naming the order it was about to hand out;
        # the orders it passed are the kernel's
        walked = []
        with pytest.raises(CapacityError, match="overflow"):
            for g in sf.gamma_walk(-3.0, 0.001):
                walked.append(g)
        assert len(walked) > 90
        for i, g in enumerate(walked):
            assert g == sf.upper_incomplete_gamma(-3.0 - i, 0.001)

    @pytest.mark.parametrize("z", [1.5, 3.0, 0.5 + 1j])
    def test_exp_minus_z_evaluated_once_per_ladder(self, z, monkeypatch):
        # the anchors (series at |z| < 2, continued fraction above) and every
        # step of a walk share one e^{-z}, also where it passes from Gamma(1) to E_1
        calls = []
        exp = cmath.exp
        monkeypatch.setattr(cmath, "exp", lambda w: calls.append(w) or exp(w))
        for start in (30.0, 29.5, -2.0):
            list(itertools.islice(sf.gamma_walk(start, z), 91))
            assert calls == [-complex(z)], start
            calls.clear()

    def test_chain_stays_valid_after_an_overflow(self):
        # the walk to -120 overflows near -103; a walk keeps no state, so the orders above it
        # still evaluate
        with pytest.raises(CapacityError):
            next(sf.gamma_walk(-120.0, 0.001))
        for a in (-50.0, -100.0, -3.0):
            assert next(sf.gamma_walk(a, 0.001)) == sf.upper_incomplete_gamma(a, 0.001).real

    @pytest.mark.parametrize("zs, orders", [
        # theorem 3/4 blocks: z = x2 eta2 in (0, 0.25], a in [-120, 18]
        ((0.005, 0.01, 0.03, 0.07, 0.12, 0.25), range(-120, 19)),
        # T(a,bc): z = 4R in [0.2, 4.8] across the anchor switch at |z| = 2, a in [-40, 3]
        ((0.2, 0.9, 1.96, 2.04, 3.3, 4.8), range(-40, 4)),
    ])
    def test_vs_mpmath_on_block_series_orders(self, zs, orders):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for z in zs:
                for a, g in zip(orders[::-1], sf.gamma_walk(orders[-1], z)):
                    want = mpmath.gammainc(a, z)
                    assert float(abs((g - want) / want)) <= 5e-14, (a, z)

    @given(z=st.floats(0.2, 4.8))
    @settings(max_examples=60, deadline=None)
    def test_t_abc_walk_vs_mpmath(self, z):
        """T(a,bc)'s walk, Gamma(3, z) down to Gamma(-40, z) at real z = 4R in [0.2, 4.8], is
        within 1.5e-14 relative of 40-digit mpmath.gammainc: measured worst 1.01e-14 over
        36,000 walks, at a = -4 and -5 near z = 4.5 to 4.8, where the walk down from E_1 loses
        ~z/|a| per step."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for i, g in enumerate(itertools.islice(sf.gamma_walk(3.0, z), 44)):
                want = mpmath.gammainc(3 - i, z)
                assert type(g) is float
                assert float(abs((g - want) / want)) <= 1.5e-14, (3 - i, z)

    @pytest.mark.parametrize("start", [3.0, 2.5])
    def test_vs_mpmath_at_large_real_z(self, start):
        # from z = GAMMA_CF_REAL_Z = 5 the orders a < 0 come from the continued fraction at a,
        # where the downward walk loses ~z/|a| per step (2.7e-5 over a = 3 ... -41 at z = 28)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for z in (5.0, 10.0, 16.0, 28.0):
                walk = sf.gamma_walk(start, z)
                for i in range(45):
                    want = mpmath.gammainc(start - i, z)
                    assert float(abs((next(walk) - want) / want)) <= 1e-14, (start - i, z)
            want = mpmath.gammainc(-15, 40)
            assert float(abs((sf.upper_incomplete_gamma(-15.0, 40.0).real - want) / want)) <= 1e-14

    def test_walk_below_the_threshold(self, monkeypatch):
        # the T(a,bc) arguments z = 4R <= 4.8 take only their E_1 anchor from the fraction
        calls = []
        cf = sf._gamma_cf
        monkeypatch.setattr(sf, "_gamma_cf", lambda a, z, emz: calls.append(a) or cf(a, z, emz))
        list(itertools.islice(sf.gamma_walk(3.0, 4.8), 60))
        assert sf.GAMMA_CF_REAL_Z > 4.8 and calls == [0.0]


class TestErfComplex:
    def test_zero_and_real_axis(self):
        assert sf.erf_complex(0.0) == 0.0
        assert sf.erf_complex(1.0).real == pytest.approx(0.8427007929497149, rel=1e-15)

    def test_real_axis_series_oracle(self):
        # independent Taylor sum on the real axis
        z = 1.0
        total = 0.0
        for k in range(60):
            total += (-1.0) ** k * z ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
        total *= 2.0 / SQRT_PI
        assert sf.erf_complex(z).real == pytest.approx(total, rel=1e-14)

    @pytest.mark.parametrize("z", [0.5 + 0.5j, 2.0 - 1.0j, 0.3 + 2.0j, 4.2 + 0.4j,
                                   1.2 + 4.0j, 0.4 - 6.0j, 3.0 + 3.0j])
    def test_complex_vs_ray_quadrature(self, z):
        res = integrate_finite(lambda u: cmath.exp(-((z * u) ** 2)), 0.0, 1.0, 1e-13)
        want = 2.0 * z / SQRT_PI * res.value
        assert abs(sf.erf_complex(z) - want) <= 1e-10 * max(1.0, abs(want))

    @given(re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_odd(self, re, im):
        z = complex(re, im)
        assert sf.erf_complex(-z) == -sf.erf_complex(z)

    @given(re=st.floats(-25.0, 25.0), im=st.floats(-25.0, 25.0))
    @settings(max_examples=200, deadline=None)
    def test_vs_mpmath(self, re, im):
        # |Re z|, |Im z| <= 25, relative to max(|erf z|, |erfc z|), which stays ~1 through the
        # zeros of erf; measured worst 4.8e-13 just below Re z = 2, where the Taylor series'
        # e^{2 Re(z)^2} cancellation is largest
        mpmath = pytest.importorskip("mpmath")
        z = complex(re, im)
        got = sf.erf_complex(z)
        with mpmath.workdps(40):
            w = mpmath.mpc(re, im)
            want = mpmath.erf(w)
            assert float(abs(got - want) / max(abs(want), abs(mpmath.erfc(w)))) <= 1e-12, z

    def test_overflow_region(self):
        with pytest.raises(RangeError):
            sf.erf_complex(1.0 + 40.0j)

    def test_tall_imaginary_arguments_supported(self):
        # large e^{-z^2} growth short of overflow stays accurate
        got = sf.erf_complex(1.5 + 10.0j)
        assert got == got  # finite, no NaN
        assert abs(got) > 1e38  # |erf| ~ e^{y^2-x^2} scale


class TestKummer1F1:
    def test_at_zero(self):
        assert sf.kummer_1f1(1, 2, 0.0) == 1.0

    def test_two_term_expansion(self):
        got = sf.kummer_1f1(1, 2, -0.001j)
        assert got.real == pytest.approx(1.0, abs=2e-7)
        assert got.imag == pytest.approx(-0.0005, abs=2e-7)

    def test_vs_beta_integral_oracle(self):
        a, b, z = 2, 4, -0.7j
        got = sf.kummer_1f1(a, b, z)
        assert got == pytest.approx(0.9279156275727151 - 0.33871564486249695j, rel=1e-12)
        beta = sf.factorial(a - 1) * sf.factorial(b - a - 1) / sf.factorial(b - 1)
        res = integrate_finite(
            lambda t: cmath.exp(z * t) * t ** (a - 1.0) * (1.0 - t) ** (b - a - 1.0),
            0.0, 1.0, 1e-13,
        )
        assert abs(got - res.value / beta) <= 1e-10 * abs(got)

    @given(
        a=st.integers(1, 5), delta=st.integers(1, 4),
        re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_kummer_transform(self, a, delta, re, im):
        b = a + delta
        z = complex(re, im)
        lhs = sf.kummer_1f1(a, b, z)
        rhs = cmath.exp(z) * sf.kummer_1f1(delta, b, -z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.kummer_1f1(2, 1, 0.5)

    def test_cancellation_raises(self):
        # max|term|/|sum| = 2.7e11 here, where the unguarded Taylor sum is 5.5e-5 off
        with pytest.raises(RangeError, match="cancels"):
            sf.kummer_1f1(4, 8, -30j)
        with pytest.raises(RangeError):
            sf.kummer_1f1(1, 2, -40.0)

    def test_accepted_cancellation_stays_accurate(self):
        mpmath = pytest.importorskip("mpmath")
        # up to the 1e5 cancellation bound the Taylor sum keeps ~11 digits
        for a, b, im in ((4, 8, -13.0), (2, 4, -14.0), (10, 20, -17.0), (30, 62, -20.0)):
            want = complex(mpmath.hyp1f1(a, b, mpmath.mpc(0, im)))
            assert abs(sf.kummer_1f1(a, b, complex(0, im)) - want) <= 1e-11 * abs(want)


class TestHermite:
    def test_low_orders(self):
        assert sf.hermite_h(0, 1.7) == 1.0
        assert sf.hermite_h(1, 1.7) == pytest.approx(3.4)

    def test_degree_four_explicit(self):
        x = 0.5
        assert sf.hermite_h(4, x) == pytest.approx(16 * x**4 - 48 * x**2 + 12, rel=1e-14)
        assert sf.hermite_h(4, 0.5) == pytest.approx(1.0, rel=1e-13)


class TestExpIntegral:
    def test_vs_quadrature_oracle(self):
        got = sf.exp_integral_ei(-1.0)
        res = integrate_semi_infinite(lambda t: math.exp(-t) / t, 1.0, 1e-13)
        assert got == pytest.approx(-res.value.real, rel=1e-12)
        assert got == pytest.approx(-0.21938393439552029, rel=1e-13)

    def test_asymptotic_sign_and_limit(self):
        prev = sf.exp_integral_ei(-5.0)
        for x in (-10.0, -20.0, -40.0):
            cur = sf.exp_integral_ei(x)
            assert prev < cur < 0.0
            prev = cur

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.exp_integral_ei(0.0)
        with pytest.raises(DomainError):
            sf.exp_integral_ei(1.0)


def _mpmath_meijer_g(mpmath, j, mu, arg):
    return float(mpmath.meijerg([[0.5, 1, -mu], []], [[], [(j + 1) / 2]], arg))


def _mpmath_meijer_g_condition(mpmath, j, mu, arg):
    """sum|term| / |sum| of meijer_g_0313's finite Macdonald sum, each term
    c_m a^{j-2m} 2 a^nu_m K_nu_m(2a) from mpmath.besselk: the factor by which
    the Hermite terms cancel."""
    a = mpmath.mpf(arg) ** -0.5
    terms = []
    for m in range(j // 2 + 1):
        c = (-1) ** m * 2 ** (j - 2 * m) * math.factorial(j) // (math.factorial(m) * math.factorial(j - 2 * m))
        nu = mpmath.mpf(mu) + 1 - mpmath.mpf(j) / 2 + m
        terms.append(c * a ** (j - 2 * m) * 2 * a ** nu * mpmath.besselk(nu, 2 * a))
    total = abs(mpmath.fsum(terms))
    return float(mpmath.fsum(map(abs, terms)) / total) if total else math.inf


def _rel(got, want):
    return abs(got - want) / abs(want)


def _hermite_cancels(j, mu):
    """mu = -(k+3)/2 with 0 <= k < j, k = j (mod 2): there the large-arg leading
    order int_0^inf w^k e^{-w^2} H_j(w) dw of the transform vanishes by orthogonality."""
    k = -2 * mu - 3
    return k == int(k) and 0 <= k < j and (j - k) % 2 == 0


class TestMeijerG:
    def test_j0_is_macdonald_half(self):
        # at j = 0, mu = -1/2 the defining integral collapses to
        # sqrt(pi) e^{-2/sqrt(arg)}
        for arg in (0.5, 4.0, 40.0):
            want = SQRT_PI * math.exp(-2.0 / math.sqrt(arg))
            assert sf.meijer_g_0313(0, -0.5, arg) == pytest.approx(want, rel=1e-10)

    def test_domain(self):
        for j, mu, arg in ((0, 0.0, -1.0), (-1, 0.0, 1.0), (1.5, 0.0, 1.0), (True, 0.0, 1.0),
                           (2.0, 0.0, 1.0), (0, math.nan, 1.0), (0, math.inf, 1.0),
                           (0, 0.0, math.nan), (0, 0.0, math.inf), (0, 0.0, 0.0)):
            with pytest.raises(DomainError):
                sf.meijer_g_0313(j, mu, arg)

    def test_even_two_mu_minus_j_is_outside_the_domain(self):
        # the monomials' K orders are half-integers only where 2 mu - j is odd
        for j, mu, arg in ((0, 0.0, 1.0), (0, -4.0, 1e-2), (7, -1.5, 0.3), (2, 0.3, 1.0),
                           (1, 1.5, 4.0), (3, 2.25, 4.0)):
            with pytest.raises(DomainError, match="odd"):
                sf.meijer_g_0313(j, mu, arg)

    def test_overflow_raises(self):
        # the term's product overflows at the first point, its power of arg at the second
        mpmath = pytest.importorskip("mpmath")
        for j, mu, arg in ((0, -60.5, 1e6), (0, -80.5, 1e8)):
            assert _mpmath_meijer_g(mpmath, j, mu, arg) == math.inf  # past the largest double
            with pytest.raises(CapacityError):
                sf.meijer_g_0313(j, mu, arg)

    def test_hermite_cancellation_raises(self):
        # at mu = -4 the leading large-arg order of H_7's transform vanishes, so the
        # Hermite terms cancel to 1.77 from ~1e28 (mpmath.meijerg gives 1.7720994)
        with pytest.raises(RangeError, match="cancel"):
            sf.meijer_g_0313(7, -4.0, 1e8)

    def test_vs_mpmath_on_theorem6_range(self):
        # theorem 6's G-form term (the golden suite's reference for theorem6_term)
        # takes mu = n - (j+1)/2 and arg = 4/(C x2^2)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            for j in (0, 1, 2):
                for n in range(0, 21, 2):
                    mu = n - (j + 1) / 2
                    for arg in (10.0, 50.0, 1e3, 8e3, 1e4):
                        want = _mpmath_meijer_g(mpmath, j, mu, arg)
                        assert _rel(sf.meijer_g_0313(j, mu, arg), want) <= 1e-14, (j, mu, arg)

    @pytest.mark.parametrize("j", range(9))
    def test_vs_mpmath_wide(self, j):
        mpmath = pytest.importorskip("mpmath")
        raised = []
        with mpmath.workdps(20):
            for mu in (-4.0, -3.5, -3.0, -1.5, 4.5, 30.0):
                if (2 * mu - j) % 2 != 1:
                    continue
                for arg in (1e-2, 1.0, 1e2, 1e4, 1e8):
                    try:
                        got = sf.meijer_g_0313(j, mu, arg)
                    except RangeError:
                        raised.append((mu, arg))
                        continue
                    want = _mpmath_meijer_g(mpmath, j, mu, arg)
                    bound = 1e-12 if _hermite_cancels(j, mu) else 1e-13
                    assert _rel(got, want) <= bound, (mu, arg)
        assert all(_hermite_cancels(j, mu) for mu, _ in raised), raised

    def test_seeded_sweep_vs_mpmath(self):
        # admissible (j, mu, arg), arg log-uniform: the guard raises exactly where the terms
        # cancel past eps sum|term| > CANCELLATION_BOUND |G| (within a 10% band of rounding),
        # and a returned value is within 25 eps sum|term| / |G| of mpmath
        mpmath = pytest.importorskip("mpmath")
        eps, rng = sys.float_info.epsilon, random.Random(30)
        limit = sf.CANCELLATION_BOUND / eps
        with mpmath.workdps(30):
            for _ in range(300):
                j = rng.randrange(9)
                mu = rng.randrange(-7 - j % 2, 61, 2) / 2  # 2 mu - j odd, mu in [-4, 30]
                arg = 10.0 ** rng.uniform(-2.0, 8.0)
                cond = _mpmath_meijer_g_condition(mpmath, j, mu, arg)
                try:
                    got = sf.meijer_g_0313(j, mu, arg)
                except RangeError:
                    assert cond > 0.9 * limit, (j, mu, arg, cond)
                    continue
                assert cond < 1.1 * limit, (j, mu, arg, cond)
                err = _rel(got, _mpmath_meijer_g(mpmath, j, mu, arg))
                assert err <= 25 * eps * cond, (j, mu, arg, cond, err)
