"""Special-function kernel: frozen values, independent oracles, properties."""

import cmath
import hashlib
import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from contract import I_XS
from slater_addition import specfun as sf
from slater_addition.cli import EXIT_ERROR, main
from slater_addition.errors import CapacityError, DomainError, RangeError, SlaterAdditionError

SQRT_PI = math.sqrt(math.pi)


class TestBesselKHalf:
    def test_k_half_closed_form(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}, exactly as built
        assert sf.bessel_k_half(0, 1.0).real == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-15
        )
        assert sf.bessel_k_half(0, 1.0).real == pytest.approx(0.4610685044478945, rel=1e-14)

    def test_leading_theorem_argument(self):
        z = 0.17 * math.sqrt(0.11)
        want = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert sf.bessel_k_half(0, z).real == pytest.approx(want, rel=1e-15)

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

    @pytest.mark.parametrize("n, z", [(80, 1.518 - 60.11j), (83, 0.209 - 49.05j)])
    def test_cancelling_sum_raises(self, n, z, capsys):
        # the finite sum cancels ~1e15-fold here; its value was 3.6e-2 and 2.4e-3 off mpmath
        with pytest.raises(RangeError, match="cancels"):
            sf.bessel_k_half(n, z)
        z_arg = f"{z.real!r}{z.imag:+}i"
        args = ["eval", "bessel_k_half", "--param", f"n={n}", "--param", f"z={z_arg}"]
        assert main(args) == EXIT_ERROR
        assert "cancels" in capsys.readouterr().err

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
    for call in (lambda: sf.bessel_i_half(2, bad), lambda: sf.bessel_k_half(2, bad),
                 lambda: sf.bessel_k_half(2, complex(1.0, bad)), lambda: sf.upper_incomplete_gamma(2.0, bad),
                 lambda: sf.upper_incomplete_gamma(bad, 1.0), lambda: next(sf.gamma_walk(2.0, bad))):
        with pytest.raises(DomainError, match="finite"):
            call()


class TestBesselIHalf:
    @pytest.mark.parametrize("x", [0.37, 13.0, 50.0])
    def test_is_the_walk_past_the_factorial_cache(self, x):
        walked = itertools.islice(sf.bessel_i_walk(x), 85, 151)  # (2n+1)!! past the cache from n = 85
        assert [sf.bessel_i_half(n, x) for n in range(85, 151)] == list(walked)

    def test_i_three_halves_closed_form(self):
        x = 2.0
        want = math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - math.sinh(x) / x)
        assert sf.bessel_i_half(1, x) == pytest.approx(want, rel=1e-13)

    def test_underflowed_value_returned(self):
        # the leading term is already subnormal: I_{83.5}(0.01) = 2.0248713e-318 (mpmath)
        assert sf.bessel_i_half(83, 0.01) == pytest.approx(2.0248713e-318, rel=1e-5)
        # I_{83.5}(0.001) = 6.4e-402 lies below the smallest double
        assert sf.bessel_i_half(83, 0.001) == 0.0


# SHA-256 over float.hex() of bessel_i_walk at every order 0 ... 1021, x in I_XS, 300, 713
BESSEL_I_WALK_DIGEST = "75d1f98f686000ed4af9d5a37f90e66b561d87b562276cc5e5083672c210929d"


class TestBesselIWalk:
    def test_walks_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for x in I_XS + (300.0, 713.0):
            for v in itertools.islice(sf.bessel_i_walk(x), sf.BESSEL_I_WALK_ORDERS):
                digest.update(v.hex().encode())
        assert digest.hexdigest() == BESSEL_I_WALK_DIGEST

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

    @pytest.mark.parametrize("x", [1e-150, 0.003, 0.37, 50.0])
    def test_scaled_walk_keeps_its_digits_where_i_underflows(self, x):
        # w_n = I_{n+1/2}(x) (2n+1)!! / x^n, which bessel_i_walk views, stays between sqrt(2x/pi)
        # and I_{1/2}(x) at every order, also where I itself has left the doubles
        mpmath = pytest.importorskip("mpmath")
        scaled = list(itertools.islice(itertools.chain.from_iterable(sf._scaled_i_blocks(x)), 151))
        assert all(math.sqrt(2.0 * x / math.pi) * (1 - 1e-15) <= w <= scaled[0] for w in scaled)
        with mpmath.workdps(40):
            for n in (0, 1, 27, 75, 150):
                want = mpmath.besseli(n + mpmath.mpf(1) / 2, x) * mpmath.fac2(2 * n + 1) / mpmath.mpf(x) ** n
                assert float(abs(scaled[n] / want - 1)) <= 3.1e-15, n

    def test_scaled_walk_stops_where_the_walk_does(self):
        # seven blocks, to orders 23, 46, ..., 736 and then 1021 of the one to 1472
        blocks = sf._scaled_i_blocks(0.37)
        assert [len(b) for b in itertools.islice(blocks, 7)] == [24, 23, 46, 92, 184, 368, 285]
        with pytest.raises(CapacityError, match="past the walk's last"):
            next(blocks)


class TestCosineMomentWalk:
    def test_zero_and_symmetry(self):
        assert list(itertools.islice(sf.cosine_moment_walk(0.0), 6)) == [1 / (2 * n + 1) for n in range(6)]
        assert list(itertools.islice(sf.cosine_moment_walk(-3.7), 200)) == list(
            itertools.islice(sf.cosine_moment_walk(3.7), 200))
        assert next(sf.cosine_moment_walk(1e-8)) == 1.0


class TestLegendre:
    def test_low_orders(self):
        assert sf.legendre_p(0, 0.3) == 1.0
        assert sf.legendre_p(1, 0.3) == 0.3

    def test_degree_four_explicit(self):
        u = -0.6
        want = (35 * u**4 - 30 * u**2 + 3) / 8.0
        assert sf.legendre_p(4, u) == pytest.approx(want, rel=1e-14)
        assert sf.legendre_p(4, u) == pytest.approx(-0.408, abs=1e-12)

    @pytest.mark.parametrize("u", [-1.0, -0.73, 0.0, 0.31, 1.0])
    def test_walk_is_legendre_p_bit_for_bit(self, u):
        walk = itertools.islice(sf.legendre_walk(u), 85)
        assert list(walk) == [sf.legendre_p(n, u) for n in range(85)]


class TestCosPowerToLegendre:
    def test_trivial_powers(self):
        assert sf.cos_power_to_legendre(0) == {0: 1.0}
        assert sf.cos_power_to_legendre(1) == {1: 1.0}

    def test_rows_are_cached_but_not_shared(self):
        # a row is built once; each call hands out its own dict, so a caller's edit stays its own
        first = sf.cos_power_to_legendre(6)
        first[0] = 0.0
        del first[6]
        again = sf.cos_power_to_legendre(6)
        assert again is not first and again == sf.cos_power_to_legendre(6)
        assert list(again) == [6, 4, 2, 0] and again[0] == 1 / 7

    def test_parity_structure(self):
        for j in (4, 7):
            ms = sorted(sf.cos_power_to_legendre(j))
            assert all(m % 2 == j % 2 for m in ms)
            assert ms[0] == (0 if j % 2 == 0 else 1)


class TestUpperIncompleteGamma:
    def test_exponential_anchor(self):
        assert sf.upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)

    @given(two_a=st.integers(-12, 12), z=st.sampled_from([0.0221, 0.5, 2.3, 5.0]))
    @settings(max_examples=150, deadline=None)
    def test_recurrence_identity(self, two_a, z):
        a = two_a / 2.0
        lhs = sf.upper_incomplete_gamma(a + 1.0, z)
        rhs = a * sf.upper_incomplete_gamma(a, z) + z**a * math.exp(-z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    @pytest.mark.parametrize("z", [1.5 + 0.5j, 0.3 - 0.8j, 20j, -21.59 - 0.339j, 1 + 1e-300j,
                                   complex(2.0, math.nan)])
    def test_non_real_z_is_a_domain_error(self, z):
        # the walk serves real z >= 0 only; a complex z with a zero imaginary part is real
        for call in (lambda: sf.upper_incomplete_gamma(-9.5, z), lambda: next(sf.gamma_walk(3.0, z))):
            with pytest.raises(DomainError, match="^upper_incomplete_gamma: z = .* is not real$"):
                call()
        assert sf.upper_incomplete_gamma(-2.5, complex(1.5, 0.0)) == sf.upper_incomplete_gamma(-2.5, 1.5)

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
                assert float(abs((got - want) / want)) <= 6e-16, z

    @pytest.mark.parametrize("z", [0.840274, 0.841266])
    def test_half_anchor_near_0_841(self, z):
        # the ascending series cancelled against sqrt(pi) here: 2.9e-15 off, the worst two of
        # 2,001 points on [0.840, 0.842] (its error is spiky: 3.4e-16 at 0.841 itself)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.gammainc(0.5, z)
            assert float(abs((sf.upper_incomplete_gamma(0.5, z) - want) / want)) <= 1e-15

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
        got = sf._gamma_cf(0.5, z, cmath.exp(-z))
        with mpmath.workdps(40):
            want = mpmath.gammainc(0.5, mpmath.mpc(z.real, z.imag))
            assert float(abs((got - want) / want)) <= 1e-14

    def test_real_fraction_and_series_run_in_floats(self):
        for a, z in ((0.0, 0.5), (0.5, 0.5), (0.0, 2.0), (0.5, 2.0), (-7.5, 3.0), (2.5, 0), (12.0, 40.0)):
            assert type(next(sf.gamma_walk(a, z))) is float, (a, z)
            assert type(sf.upper_incomplete_gamma(a, z)) is float, (a, z)

    @pytest.mark.parametrize("a, z", [(-120.0, 0.001), (300.0, 50.0)])
    def test_power_overflow_is_capacity_error(self, a, z, capsys):
        # z^b leaves double precision on the walk, before the final isinf check
        with pytest.raises(CapacityError):
            sf.upper_incomplete_gamma(a, z)
        code = main(["eval", "upper_incomplete_gamma", "--param", f"a={a:g}", "--param", f"z={z:g}"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


LADDER_ZS = (0.01, 0.25, 1.9, 2.1, 4.8)
LADDER_ORDERS = [two_a / 2.0 for two_a in range(-120, 61)]  # integers and half-integers in [-60, 30]


# the digest of the walks below, recorded from the chain-cached ladder the walk replaced: the
# hex of every value and the text of every error, bit for bit (re-recorded over real z only when
# the walk left complex z: the same lines less those of z = 0.5 + 1j)
WALK_DIGEST = "4314733f9ac1bba272b8ef25ef6b4acd1cb5e8b2294c30999cc3bd8f57acecbe"


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
        assert len(lines) == 3585
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WALK_DIGEST

    @pytest.mark.parametrize("z", LADDER_ZS)
    def test_bit_identical_to_kernel(self, z):
        # every order of LADDER_ORDERS off two walks, the integers from 30 and the
        # half-integers from 29.5
        for start in (30.0, 29.5):
            orders = [a for a in LADDER_ORDERS[::-1] if (a - start) % 1 == 0]
            for a, g in zip(orders, sf.gamma_walk(start, z)):
                assert g == sf.upper_incomplete_gamma(a, z), a

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

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.0, 7.0])
    def test_exp_minus_z_evaluated_once_per_ladder(self, z, monkeypatch):
        # the anchors (series below z = 1, continued fraction above) and every step of a walk
        # share one e^{-z}, also where it passes from Gamma(1) to E_1
        calls = []
        exp = math.exp
        monkeypatch.setattr(math, "exp", lambda w: calls.append(w) or exp(w))
        for start in (30.0, 29.5, -2.0):
            list(itertools.islice(sf.gamma_walk(start, z), 91))
            assert calls == [-z], start
            calls.clear()

    def test_chain_stays_valid_after_an_overflow(self):
        # the walk to -120 overflows near -103; a walk keeps no state, so the orders above it
        # still evaluate
        with pytest.raises(CapacityError):
            next(sf.gamma_walk(-120.0, 0.001))
        for a in (-50.0, -100.0, -3.0):
            assert next(sf.gamma_walk(a, 0.001)) == sf.upper_incomplete_gamma(a, 0.001)

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

    @given(re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_odd(self, re, im):
        z = complex(re, im)
        assert sf.erf_complex(-z) == -sf.erf_complex(z)


class TestKummer1F1:
    def test_at_zero(self):
        assert sf.kummer_1f1(1, 2, 0.0) == 1.0

    def test_two_term_expansion(self):
        got = sf.kummer_1f1(1, 2, -0.001j)
        assert got.real == pytest.approx(1.0, abs=2e-7)
        assert got.imag == pytest.approx(-0.0005, abs=2e-7)

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


class TestHermite:
    def test_low_orders(self):
        assert sf.hermite_h(0, 1.7) == 1.0
        assert sf.hermite_h(1, 1.7) == pytest.approx(3.4)

    def test_degree_four_explicit(self):
        x = 0.5
        assert sf.hermite_h(4, x) == pytest.approx(16 * x**4 - 48 * x**2 + 12, rel=1e-14)
        assert sf.hermite_h(4, 0.5) == pytest.approx(1.0, rel=1e-13)


class TestMeijerG:
    def test_j0_is_macdonald_half(self):
        # at j = 0, mu = -1/2 the defining integral collapses to
        # sqrt(pi) e^{-2/sqrt(arg)}
        for arg in (0.5, 4.0, 40.0):
            want = SQRT_PI * math.exp(-2.0 / math.sqrt(arg))
            assert sf.meijer_g_0313(0, -0.5, arg) == pytest.approx(want, rel=1e-10)


