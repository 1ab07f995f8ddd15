"""Addition theorems: golden terms, corollary groupings, two-range baseline."""

import cmath
import itertools
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from slater_addition import theorems as th
from slater_addition.amplitudes import cheshire_series, s1_equal_eta_closed
from slater_addition.errors import CapacityError, DomainError, PoleError, RangeError
from slater_addition.specfun import bessel_i_half, bessel_k_half, cos_power_to_legendre, legendre_p
from slater_addition.theorems import (
    CorollaryConfig,
    TruncationPolicy,
    YukawaFormParams,
    corollary1_legendre_eval,
    corollary_to_params,
    theorem1_eval,
    theorem1_term,
    theorem5_eval,
    theorem5_term,
    theorem6_term,
    two_range_mos_eval,
    two_range_mos_terms,
    yukawa_form,
)

# golden tuple anchoring the base-series reference terms; the derivative and
# Meijer-G reference terms are anchored at the x2/k-swapped companion tuple
GOLDEN = YukawaFormParams(B=0.13, C=0.11, k=0.17, x2=0.23)
GOLDEN_T5 = YukawaFormParams(B=0.13, C=0.11, k=0.23, x2=0.17)
B_ZERO = YukawaFormParams(B=0.0, C=0.11, k=0.23, x2=0.17)
C1_K_ZERO = CorollaryConfig(variant="C1", eta=0.5, x1=0.3, x2=0.7, cos_theta=0.4, k=0.0)


class TestYukawaForm:
    def test_golden_value(self):
        assert yukawa_form(GOLDEN).real == pytest.approx(2.7436, abs=5e-5)

    def test_unit_case(self):
        p = YukawaFormParams(B=0.0, C=1.0, k=0.77, x2=1.0)
        assert yukawa_form(p).real == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_k_zero_kills_b(self):
        p = YukawaFormParams(B=0.13, C=0.11, k=0.0, x2=0.17)
        want = math.exp(-0.17 * math.sqrt(0.11)) / math.sqrt(0.11)
        assert yukawa_form(p).real == pytest.approx(want, rel=1e-15)

    def test_pole(self):
        with pytest.raises(PoleError):
            YukawaFormParams(B=-1.0, C=1.0, k=1.0, x2=0.5)

    @pytest.mark.parametrize("field", ["B", "C", "k", "x2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_non_finite_input_is_a_domain_error(self, field, bad):
        values = dict(B=0.13, C=0.11, k=0.17, x2=0.23)
        values[field] = bad if field == "C" else abs(bad)
        with pytest.raises(DomainError, match="non-finite"):
            YukawaFormParams(**values)


class TestTheorem1:
    def test_golden_terms(self):
        want = (2.79367, -0.051348, 0.001318, -0.000038)
        for n, w in enumerate(want):
            assert theorem1_term(n, GOLDEN).real == pytest.approx(w, abs=5e-6)

    def test_b_zero_term_is_closed_form(self):
        p = YukawaFormParams(B=0.0, C=0.11, k=0.23, x2=0.17)
        assert theorem1_term(0, p) == pytest.approx(yukawa_form(p), rel=1e-15)

    def test_tail_term_bound_and_alternation(self):
        t4 = theorem1_term(4, GOLDEN).real
        t5 = theorem1_term(5, GOLDEN).real
        assert abs(t5) < 1e-6
        assert t4 > 0 > t5
        ratio_bound = GOLDEN.B * GOLDEN.k**2 / GOLDEN.C
        assert abs(t5) < abs(t4) * ratio_bound * 1.5

    def test_eval_converges_to_closed_form(self):
        ev = theorem1_eval(GOLDEN)
        assert ev.converged
        assert abs(sum(ev.terms[:4]) - yukawa_form(GOLDEN)) <= 5e-4

    # every series whose n >= 1 terms carry B^n k^{2n} (or k^{2n}) stops after one exact term
    @pytest.mark.parametrize("evaluate, want, rel", [
        (lambda: theorem1_eval(B_ZERO), lambda: yukawa_form(B_ZERO), 1e-15),
        (lambda: theorem5_eval(B_ZERO), lambda: math.exp(-0.17 * math.sqrt(0.11)), 1e-15),
        (lambda: th.theorem6_eval(2, B_ZERO),
         lambda: math.sqrt(0.11) * math.exp(-0.17 * math.sqrt(0.11)), 1e-14),
        (lambda: corollary1_legendre_eval(C1_K_ZERO),
         lambda: yukawa_form(corollary_to_params(C1_K_ZERO)), 1e-14),
        (lambda: cheshire_series(0.82, 0.036, 0.0), lambda: s1_equal_eta_closed(0.82, 0.036), 1e-14),
    ], ids=["theorem1", "theorem5", "theorem6", "corollary1_legendre", "cheshire"])
    def test_degenerate_b_zero_single_term(self, evaluate, want, rel):
        ev = evaluate()
        assert ev.converged and ev.terms_used == 1
        assert ev.value == pytest.approx(want(), rel=rel)

    def test_moderate_ratio_high_precision(self):
        p = YukawaFormParams(B=0.1, C=0.66**2, k=1.0, x2=1.0)
        ev = theorem1_eval(p)
        assert ev.converged
        assert abs(ev.value - yukawa_form(p)) <= 1e-8 * abs(yukawa_form(p))

    def test_radius_not_k_decides_convergence(self):
        # rho = |B k^2| / |C|: k = 1.5 at rho = 0.375 converges, k = 1 at rho = 1.3 and
        # k = 1.5 at rho = 2.66 are flagged, not silently wrong
        inside = YukawaFormParams(B=0.1, C=0.6, k=1.5, x2=0.7)
        ev = theorem1_eval(inside)
        assert ev.converged
        assert abs(ev.value - yukawa_form(inside)) <= 1e-10 * abs(yukawa_form(inside))
        for p in (YukawaFormParams(B=0.78, C=0.6, k=1.0, x2=0.7),
                  YukawaFormParams(B=0.13, C=0.11, k=1.5, x2=0.17)):
            assert not theorem1_eval(p).converged

    @given(
        b=st.floats(0.01, 1.0), c=st.floats(0.05, 2.0),
        k=st.floats(0.05, 1.0), x2=st.floats(0.05, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_alternating_signs(self, b, c, k, x2):
        assume(b * k * k < 0.95 * c)
        p = YukawaFormParams(B=b, C=c, k=k, x2=x2)
        terms = [theorem1_term(n, p).real for n in range(6)]
        for t_even, t_odd in zip(terms[0::2], terms[1::2]):
            assert t_even > 0 > t_odd

    def test_partial_sum_bookkeeping(self):
        ev = theorem1_eval(GOLDEN)
        acc = 0.0 + 0.0j
        for t, s in zip(ev.terms, ev.partial_sums):
            acc += t
            assert abs(acc - s) <= 1e-15 * max(1.0, abs(acc))
        assert ev.value == ev.partial_sums[-1]
        assert ev.terms_used == len(ev.terms)


class TestTheorem5:
    def test_reference_terms(self):
        want = (0.945177, -0.001665, 0.000028, -8.6e-8)
        for n, w in enumerate(want):
            assert theorem5_term(n, GOLDEN_T5).real == pytest.approx(w, abs=5e-6)

    def test_b_zero_single_term(self):
        p = YukawaFormParams(B=0.0, C=0.11, k=0.3, x2=0.17)
        ev = theorem5_eval(p)
        assert ev.terms_used == 1
        assert ev.value.real == pytest.approx(math.exp(-0.17 * math.sqrt(0.11)), rel=1e-15)

    def test_derivative_link_via_finite_differences(self):
        # -d/dx2 of the theorem-1 sum reproduces the theorem-5 sum
        h = 1e-5
        for pt in (GOLDEN_T5, GOLDEN,
                   YukawaFormParams(B=0.2, C=0.5, k=0.8, x2=0.9),
                   YukawaFormParams(B=0.05, C=0.9, k=0.4, x2=1.7),
                   YukawaFormParams(B=0.3, C=1.4, k=0.6, x2=0.33)):
            up = theorem1_eval(YukawaFormParams(pt.B, pt.C, pt.k, pt.x2 + h)).value.real
            dn = theorem1_eval(YukawaFormParams(pt.B, pt.C, pt.k, pt.x2 - h)).value.real
            fd = -(up - dn) / (2.0 * h)
            t5 = theorem5_eval(pt).value.real
            assert fd == pytest.approx(t5, rel=1e-6)


def _mpmath_theorem6_term(mpmath, j, n, p):
    """(-d/dx2)^j of theorem 1's term n, differentiated by mpmath at the working precision."""
    B, C, k = mpmath.mpf(p.B), mpmath.mpf(p.C), mpmath.mpf(p.k)
    half = mpmath.mpf(1) / 2
    lead = (mpmath.sqrt(2 / mpmath.pi) * (-B * k**2 / 2) ** n / mpmath.factorial(n)
            * C ** (-(n + half) / 2))
    term = lambda x: lead * x ** (n + half) * mpmath.besselk(n + half, x * mpmath.sqrt(C))
    return (-1) ** j * mpmath.diff(term, mpmath.mpf(p.x2), j)


def _mpmath_theorem6_g_form(mpmath, j, n, p):
    """The paper's G-form of theorem 6's term n, with mpmath.meijerg at the working precision:
    (1/sqrt(pi)) (-B k^2)^n / n! C^{j/2-n-1/2} G^{0,3}_{3,1}(4/(C x2^2) | 1/2, 1, -mu; (j+1)/2),
    mu = n - (j+1)/2."""
    B, C, k, x2 = (mpmath.mpf(v) for v in (p.B, p.C, p.k, p.x2))
    half = mpmath.mpf(1) / 2
    top = mpmath.mpf(j + 1) / 2
    g = mpmath.meijerg([[half, 1, top - n], []], [[], [top]], 4 / (C * x2**2))
    return ((-B * k**2) ** n / mpmath.factorial(n) / mpmath.sqrt(mpmath.pi)
            * C ** (j * half - n - half) * g)


class TestTheorem6:
    def test_j0_and_j1_reduce_term_for_term(self):
        for n in range(4):
            assert theorem6_term(0, n, GOLDEN_T5) == theorem1_term(n, GOLDEN_T5)
            assert theorem6_term(1, n, GOLDEN_T5) == theorem5_term(n, GOLDEN_T5)

    def test_j2_leading_term(self):
        assert theorem6_term(2, 0, GOLDEN_T5).real == pytest.approx(0.31348, abs=5e-5)

    def test_eval_hits_closed_form(self):
        ev = th.theorem6_eval(2, GOLDEN_T5, TruncationPolicy(rel_tol=1e-8, max_terms=10))
        l2 = GOLDEN_T5.B * GOLDEN_T5.k**2 + GOLDEN_T5.C
        closed = math.sqrt(l2) * math.exp(-GOLDEN_T5.x2 * math.sqrt(l2))
        assert ev.value.real == pytest.approx(closed, abs=5e-4)

    @pytest.mark.parametrize("C", [-0.4, 0.3 + 0.2j], ids=["negative", "complex"])
    def test_negative_and_complex_c(self, C):
        p = YukawaFormParams(B=0.2, C=C, k=1.0, x2=0.5)
        for j in range(4):
            ev = th.theorem6_eval(j, p)
            assert ev.converged
            assert ev.value == pytest.approx(th._theorem6_closed(j, p), rel=1e-9), j

    @pytest.mark.parametrize("j", range(9))
    def test_vs_mpmath_derivative_of_theorem1(self, j):
        # within 1e-14 times the polynomial's condition sum|beta_p z^p| / |P(z)|, which is 1
        # for j <= 1 and grows only near a root of P, and never looser than the flat 1e-13
        # (j <= 2) or 1e-11 (j >= 3) of the K-entry table; two extra points at x2 sqrt(C) = 0.02
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(21)
        points = [YukawaFormParams(B=rng.uniform(0.05, 1), C=rng.uniform(0.05, 2),
                                   k=rng.uniform(0.05, 1), x2=rng.uniform(0.05, 2))
                  for _ in range(8)]
        points += [YukawaFormParams(B=0.7, C=0.0625, k=0.6, x2=0.08),
                   YukawaFormParams(B=0.3, C=1.0, k=0.9, x2=0.02)]
        accepted = tried = 0
        with mpmath.workdps(40):
            for p in points:
                z = p.x2 * math.sqrt(p.C)
                for n in (0, 1, 2, 5, 10, 20, 30):
                    tried += 1
                    try:
                        got = theorem6_term(j, n, p).real
                    except RangeError:
                        continue
                    coefs = th._macdonald_coefs(n, j)
                    condition = (math.fsum(abs(a) * z**q for q, a in enumerate(reversed(coefs)))
                                 / abs(math.fsum(a * z**q for q, a in enumerate(reversed(coefs)))))
                    want = _mpmath_theorem6_term(mpmath, j, n, p)
                    bound = min(1e-13 if j <= 2 else 1e-11, 1e-14 * condition)
                    assert float(abs((got - want) / want)) <= bound, (n, p)
                    accepted += 1
        # the guard fires only where P itself cancels, on under 1% of the box
        assert 100 * (tried - accepted) < tried

    @pytest.mark.parametrize("j", range(3, 9))
    def test_vs_mpmath_meijer_g_form(self, j):
        # independent of the derivative route: the paper's G-form, not d/dx2 of theorem 1
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(5)
        accepted = tried = 0
        with mpmath.workdps(40):
            for _ in range(6):
                p = YukawaFormParams(B=rng.uniform(0.05, 1), C=rng.uniform(0.05, 2),
                                     k=rng.uniform(0.05, 1), x2=rng.uniform(0.05, 2))
                for n in (0, 1, 2, 5, 10, 20):
                    tried += 1
                    try:
                        got = theorem6_term(j, n, p).real
                    except RangeError:
                        continue
                    want = _mpmath_theorem6_g_form(mpmath, j, n, p)
                    assert float(abs((got - want) / want)) <= 1e-11, (n, p)
                    accepted += 1
        assert 4 * accepted >= 3 * tried

    def test_small_z_order_8_matches_mpmath(self):
        # the K-entry sum cancelled here to ~1e-14 of its size; P_{0,8} = 1 does not cancel
        mpmath = pytest.importorskip("mpmath")
        p = YukawaFormParams(B=0.25784198547080417, C=0.6150741484514469,
                             k=0.4866232924508469, x2=0.09190492526852231)
        with mpmath.workdps(40):
            want = _mpmath_theorem6_term(mpmath, 8, 0, p)
            assert float(abs((theorem6_term(8, 0, p).real - want) / want)) <= 1e-15

    def test_cancelling_polynomial_raises(self):
        # P_{2,2}(z) = 4 (z^2 - z - 1) vanishes at the golden ratio
        assert th._macdonald_coefs(2, 2) == (4 / 32, -4 / 32, -4 / 32)
        golden = (1 + math.sqrt(5)) / 2
        with pytest.raises(RangeError, match="cancel"):
            theorem6_term(2, 2, YukawaFormParams(B=0.5, C=1.0, k=0.5, x2=golden))

    @pytest.mark.parametrize("C", [0.7, -0.4, 0.3 + 0.2j], ids=["positive", "negative", "complex"])
    def test_j0_j1_match_the_bessel_k_form(self, C):
        # sqrt(2/pi) (-1)^n B^n k^{2n} / n! 2^{-n} x2^{n+1/2} C^{j/2-n/2-1/4} K_{n+1/2-j}(x2 sqrt(C)),
        # the paper's forms of theorems 1 and 5, on the principal branch
        p = YukawaFormParams(B=0.2, C=C, k=0.9, x2=0.6)
        z = p.x2 * cmath.sqrt(C)
        for j in (0, 1):
            for n in range(12):
                want = (math.sqrt(2 / math.pi) * (-p.B * p.k**2 / 2) ** n / math.factorial(n)
                        * p.x2 ** (n + 0.5) * complex(C) ** (j / 2 - n / 2 - 0.25)
                        * bessel_k_half(n - j, z))
                assert abs(theorem6_term(j, n, p) - want) <= 1e-13 * abs(want), (j, n)

    def test_overflowing_term_raises(self):
        # C^{-n-1/2} leaves double precision at C = 1e-20, n = 20
        with pytest.raises(CapacityError, match="overflows"):
            theorem1_term(20, YukawaFormParams(B=1.0, C=1e-20, k=1.0, x2=1.0))

    def test_large_term_at_tiny_c_is_finite(self):
        # C^{-n-1/2} alone is ~1e328 here, but the term is ~1.25e127
        mpmath = pytest.importorskip("mpmath")
        p = YukawaFormParams(B=1e-10, C=1e-16, k=1.0, x2=1.0)
        with mpmath.workdps(40):
            want = _mpmath_theorem6_term(mpmath, 0, 20, p)
            assert float(abs((theorem1_term(20, p).real - want) / want)) <= 1e-14

    def test_underflowed_decay_is_a_zero_term(self):
        # P_{n,j}(z) overflows past z ~ 1e103, where e^{-z} has long underflowed
        p = YukawaFormParams(B=0.5, C=1.0, k=0.5, x2=1e160)
        assert theorem1_term(3, p) == 0j and theorem6_term(4, 3, p) == 0j

    def test_negative_j_is_a_domain_error(self):
        with pytest.raises(DomainError):
            theorem6_term(-1, 0, GOLDEN_T5)
        with pytest.raises(DomainError, match="j must be"):
            th.theorem6_eval(1.5, GOLDEN_T5)


def _horner_term(n, p, j):
    """Term n of theorem 6 of order j from the exact polynomial _macdonald_coefs(n, j) by Horner,
    with the series' exact-power prefactor; also the polynomial's condition sum|a z^p| / |P(z)|."""
    c = complex(p.C)
    z = p.x2 * cmath.sqrt(c)
    poly = size = 0.0
    for a in th._macdonald_coefs(n, j):
        poly, size = poly * z + a, size * abs(z) + abs(a)
    scale = (-1.0) ** n * p.B**n * p.k ** (2 * n) * c ** (j / 2 - n - 0.5)
    return scale * cmath.exp(-z) * poly, size / abs(poly)


class TestMacdonaldWalk:
    @pytest.mark.parametrize("C", [0.7, 2.0, -0.4, -1.5, 0.3 + 0.2j, -0.5 + 1.1j])
    def test_walk_matches_exact_polynomial(self, C):
        # |z| <= 2.5 here, where the Horner reference itself is conditioned to <= 11
        for x2 in (0.05, 0.6, 2.0):
            p = YukawaFormParams(B=0.35, C=C, k=0.8, x2=x2)
            for j in (0, 1):
                walk = list(itertools.islice(th._macdonald_terms(p, j), 61))
                for n, got in enumerate(walk):
                    want, _ = _horner_term(n, p, j)
                    assert abs(got - want) <= 1e-14 * abs(want), (x2, j, n)

    @pytest.mark.parametrize("C, x2", [(-1.8926, 39.04), (-1.5446, 5.8), (0.65 + 1.69j, 7.0)])
    def test_walk_vs_mpmath_at_large_oscillating_argument(self, C, x2):
        # at z = 53.7i the Horner reference's condition reaches 2.5e12 at n = 60 (3e-5 off there);
        # the walk does not sum signed powers of z and stays at rounding level
        mpmath = pytest.importorskip("mpmath")
        p = YukawaFormParams(B=0.8, C=C, k=0.6, x2=x2)
        with mpmath.workdps(40):
            B, k, c, x = (mpmath.mpmathify(v) for v in (p.B, p.k, p.C, p.x2))
            z = x * mpmath.sqrt(c)
            for j in (0, 1):
                walk = list(itertools.islice(th._macdonald_terms(p, j), 61))
                for n in (0, 1, 5, 20, 40, 60):
                    # (-B k^2)^n x2^n C^{-n/2} / (n! 2^n) sqrt(2z/pi) K_{n+1/2-j}(z), times C^{-1/2} at j = 0
                    want = ((-B * k**2) ** n * x**n * c ** (-mpmath.mpf(n) / 2)
                            / (mpmath.factorial(n) * 2**n) * mpmath.sqrt(2 * z / mpmath.pi)
                            * mpmath.besselk(n + mpmath.mpf(1) / 2 - j, z) * c ** (-mpmath.mpf(1 - j) / 2))
                    assert float(abs(walk[n] - want) / abs(want)) <= 3e-14, (j, n)

    def test_single_terms_are_the_walk_values(self):
        p = YukawaFormParams(B=0.3, C=0.5 - 0.2j, k=0.9, x2=1.3)
        for j in range(4):
            walk = list(itertools.islice(th._macdonald_terms(p, j), 25))
            assert [theorem6_term(j, n, p) for n in range(25)] == walk, j
        assert [theorem1_term(n, p) for n in range(25)] == list(itertools.islice(th._macdonald_terms(p, 0), 25))
        assert [theorem5_term(n, p) for n in range(25)] == list(itertools.islice(th._macdonald_terms(p, 1), 25))

    def test_truncation_matches_exact_polynomial_series(self):
        # the stop rule sees the walk's terms as it saw the exact-polynomial terms: the same
        # terms_used and converged flag on a seeded C4/C1 box, converged and unconverged
        rng = random.Random(16)
        flagged = 0
        for _ in range(150):
            x2 = rng.uniform(0.2, 3.0)
            cfg = CorollaryConfig(rng.choice(["C1", "C4"]), rng.uniform(0.1, 2.0), x1=x2 * rng.uniform(0.05, 0.9),
                                  x2=x2, cos_theta=rng.uniform(-1, 1))
            p = corollary_to_params(cfg)
            j = rng.choice([0, 1])
            got = (theorem1_eval, theorem5_eval)[j](p)
            want = th.accumulate_series(_horner_term(n, p, j)[0] for n in itertools.count())
            assert (got.terms_used, got.converged) == (want.terms_used, want.converged), cfg
            assert abs(got.value - want.value) <= 1e-13 * abs(want.value), cfg
            flagged += not got.converged
        assert 10 <= flagged <= 140


# C positive, negative or complex, of modulus 0.05 ... 4
C_SLOTS = st.one_of(
    st.floats(0.05, 4.0),
    st.floats(-4.0, -0.05),
    st.builds(lambda mag, arg: mag * cmath.exp(1j * arg), st.floats(0.05, 4.0), st.floats(-math.pi, math.pi)),
)


def _polynomial_near_root(n, j, p):
    """P_{n,j}(z) at z = x2 sqrt(C) is under 1e-4 of sum |beta_q z^q|: z is near one of its roots."""
    z = p.x2 * cmath.sqrt(p.C)
    coefs = th._macdonald_coefs(n, j)
    size = sum(abs(a) * abs(z) ** q for q, a in enumerate(reversed(coefs)))
    return abs(sum(a * z**q for q, a in enumerate(reversed(coefs)))) < 1e-4 * size


class TestConvergenceRadius:
    """rho = |B k^2| / |C| < 1 is the domain of theorems 1, 5, 6 and their corollaries, for any k:
    past it every series is returned flagged (or, at j >= 2, raises RangeError), inside it
    converges to its closed form."""

    @given(c=C_SLOTS, sign=st.sampled_from([1, -1]), rho=st.floats(1.0, 3.0),
           k=st.floats(0.01, 3.0), x2=st.floats(0.05, 60.0))
    @settings(max_examples=80, deadline=None)
    def test_outside_radius_never_converged(self, c, sign, rho, k, x2):
        b = sign * rho * abs(c) / k**2
        assume(b * k**2 + c != 0)
        p = YukawaFormParams(B=b, C=c, k=k, x2=x2)
        assert not theorem1_eval(p).converged
        assert not theorem5_eval(p).converged
        for j in (2, 3):
            try:
                assert not th.theorem6_eval(j, p).converged, j
            except RangeError:
                pass

    @given(c=C_SLOTS, sign=st.sampled_from([1, -1]), rho=st.floats(0.0, 0.5),
           k=st.floats(1.0, 3.0, exclude_min=True), x2=st.floats(0.05, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_inside_radius_converges_past_k_1(self, c, sign, rho, k, x2):
        p = YukawaFormParams(B=sign * rho * abs(c) / k**2, C=c, k=k, x2=x2)
        evals = [lambda: theorem1_eval(p), lambda: theorem5_eval(p),
                 lambda: th.theorem6_eval(2, p), lambda: th.theorem6_eval(3, p)]
        for j, evaluate in enumerate(evals):
            try:
                ev = evaluate()
            except RangeError as exc:
                # only at j >= 2, where term n's polynomial sits at a root (P_{1,2}(z) = z - 1 at z = 1)
                n = int(re.search(r"at n = (\d+)", str(exc)).group(1))
                assert j >= 2 and _polynomial_near_root(n, j, p), (j, str(exc))
                continue
            want = yukawa_form(p) if j == 0 else th._theorem6_closed(j, p)
            assert ev.converged, j
            assert abs(ev.value - want) <= 1e-9 * abs(want), j

    @given(x1=st.floats(0.05, 3.0), x2=st.floats(0.05, 3.0), cos_theta=st.floats(-1.0, 1.0),
           k=st.floats(0.01, 3.0), eta=st.floats(0.05, 60.0))
    @settings(max_examples=80, deadline=None)
    def test_corollary1_legendre_outside_radius_never_converged(self, x1, x2, cos_theta, k, eta):
        cfg = CorollaryConfig("C1", eta, x1, x2, cos_theta, k=k)
        try:
            p = corollary_to_params(cfg)
        except PoleError:  # B k^2 + C = x12^2 = 0 at k = 1: the two centres coincide
            reject()
        assume(abs(p.B) * k**2 >= abs(p.C))
        assert not corollary1_legendre_eval(cfg).converged

    @given(x2=st.floats(0.05, 3.0), cos_theta=st.floats(-1.0, -0.5), rho=st.floats(0.01, 0.5),
           k=st.floats(1.0, 3.0, exclude_min=True), eta=st.floats(0.05, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_corollary1_legendre_inside_radius_converges_past_k_1(self, x2, cos_theta, rho, k, eta):
        # x1 solves B = x1^2 - 2 x1 x2 cos = rho x2^2 / k^2.  At cos <= -1/2 the finite Legendre
        # sums for B^n keep their digits; nearer cos = 0 they cancel and the series is flagged
        x1 = x2 * (math.sqrt(cos_theta**2 + rho / k**2) + cos_theta)
        cfg = CorollaryConfig("C1", eta, x1, x2, cos_theta, k=k)
        ev = corollary1_legendre_eval(cfg)
        want = yukawa_form(corollary_to_params(cfg))
        assert ev.converged
        assert abs(ev.value - want) <= 1e-9 * abs(want)


class TestCorollaries:
    POINT = dict(eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4)

    def _slater(self):
        x1, x2, u = self.POINT["x1"], self.POINT["x2"], self.POINT["cos_theta"]
        x12 = math.sqrt(x1 * x1 - 2 * x1 * x2 * u + x2 * x2)
        return math.exp(-self.POINT["eta"] * x12) / x12

    def test_c4_substitution_identity(self):
        cfg = CorollaryConfig(variant="C4", **self.POINT)
        ev = theorem1_eval(corollary_to_params(cfg))
        assert ev.converged
        assert ev.value.real == pytest.approx(self._slater(), rel=1e-9)

    def test_mutual_consistency_where_convergent(self):
        results = {}
        for variant in ("C1", "C2", "C3", "C4"):
            cfg = CorollaryConfig(variant=variant, **self.POINT)
            results[variant] = theorem1_eval(corollary_to_params(cfg))
        assert results["C2"].converged and results["C4"].converged
        assert not results["C1"].converged and not results["C3"].converged
        for variant in ("C2", "C4"):
            assert results[variant].value.real == pytest.approx(self._slater(), rel=1e-6)

    def test_c3_imaginary_macdonald_argument(self):
        cfg = CorollaryConfig(variant="C3", eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4)
        p = corollary_to_params(cfg)
        assert p.C < 0  # sqrt(C) purely imaginary, principal branch +i sqrt(|C|)
        t0 = theorem1_term(0, p)
        assert math.isfinite(t0.real) and math.isfinite(t0.imag)
        assert abs(t0.imag) > 0

    def test_pole_configurations(self):
        with pytest.raises(PoleError):
            corollary_to_params(CorollaryConfig(variant="C3", eta=1.0, x1=1.0, x2=1.0,
                                                cos_theta=0.0))
        with pytest.raises(PoleError):
            corollary_to_params(CorollaryConfig(variant="C5", eta=1.0, x1=1.0, y1=0.5,
                                                z1=0.7, z2=0.7))

    def test_cartesian_mappings(self):
        cfg5 = CorollaryConfig(variant="C5", eta=0.4, x1=0.6, y1=0.8, z1=1.1, z2=0.5)
        p5 = corollary_to_params(cfg5)
        assert p5.C == pytest.approx(0.36) and p5.B == pytest.approx(1.0)
        cfg6 = CorollaryConfig(variant="C6", eta=0.4, x1=0.6, y1=0.8, z1=1.1, z2=0.5)
        p6 = corollary_to_params(cfg6)
        assert p6.C == pytest.approx(1.0) and p6.B == pytest.approx(0.36)
        # the C6 grouping has |B| < C here and converges to the direct Slater value
        r = math.sqrt(cfg6.x1**2 + cfg6.y1**2 + (cfg6.z1 - cfg6.z2) ** 2)
        direct = math.exp(-cfg6.eta * r) / r
        ev = theorem1_eval(p6)
        assert ev.converged
        assert ev.value.real == pytest.approx(direct, rel=1e-9)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            CorollaryConfig(variant="C7", eta=1.0, x1=1.0, x2=1.0)
        with pytest.raises(DomainError):
            CorollaryConfig(variant="C1", eta=-1.0, x1=1.0, x2=1.0)
        with pytest.raises(DomainError):
            CorollaryConfig(variant="C1", eta=1.0, x1=1.0, x2=1.0, cos_theta=1.5)
        with pytest.raises(DomainError):
            CorollaryConfig(variant="C5", eta=1.0, x1=0.0, y1=0.0, z1=1.0, z2=0.0)


def _legendre_inner_sum(cfg, n):
    """Corollary 1's finite second series at term n, every cos^j rebuilt from legendre_p."""
    inner = 0.0
    for j in range(n + 1):
        leg = sum(c * legendre_p(m, cfg.cos_theta) for m, c in cos_power_to_legendre(j).items())
        inner += (-1.0) ** j * 2.0**j * cfg.x2**j * math.comb(n, j) * cfg.x1 ** (2 * n - j) * leg
    return inner


class TestCorollary1Legendre:
    def test_terms_match_direct_binomial_power(self):
        cfg = CorollaryConfig(variant="C1", eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4)
        pol = TruncationPolicy(rel_tol=1e-14, max_terms=5)
        legendre = corollary1_legendre_eval(cfg, pol)
        direct = theorem1_eval(corollary_to_params(cfg), pol)
        for a, b in zip(legendre.terms, direct.terms):
            assert a.real == pytest.approx(b.real, rel=1e-10)

    @pytest.mark.parametrize("cfg", [
        CorollaryConfig(variant="C1", eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4),
        CorollaryConfig(variant="C1", eta=0.3, x1=0.2, x2=0.9, cos_theta=0.0),
        CorollaryConfig(variant="C1", eta=0.4, x1=0.1, x2=0.8, cos_theta=0.3),
    ])
    def test_terms_match_explicit_prefactor(self, cfg):
        # (1/sqrt(pi)) (-1)^n k^{2n}/n! 2^{1/2-n} eta^{n+1/2} x2^{-n-1/2} K_{n+1/2}(eta x2)
        # times the Legendre inner sum.  The theorem-1 form raises x2^2 to
        # -n-1/2, which magnifies the rounding of x2^2 up to ~1.5e-15 at n = 30.
        every = TruncationPolicy(rel_tol=1e-300, max_terms=31)
        ev = corollary1_legendre_eval(cfg, every)
        assert ev.terms_used == 31
        eta, x2 = cfg.eta, cfg.x2
        for n, got in enumerate(ev.terms):
            pref = (
                (-1.0) ** n * cfg.k ** (2 * n) / math.factorial(n) * 2.0 ** (0.5 - n) / math.sqrt(math.pi)
                * eta ** (n + 0.5) * x2 ** (-n - 0.5) * bessel_k_half(n, eta * x2)
            )
            want = pref * _legendre_inner_sum(cfg, n)
            assert abs(got - want) <= 2e-15 * abs(want), n

    @pytest.mark.parametrize("n_terms", [1, 2, 31])
    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0, -0.4261, 0.8817])
    def test_terms_bit_for_bit_per_term_legendre(self, u, n_terms):
        rng = random.Random(f"{u}/{n_terms}")
        cfg = CorollaryConfig(variant="C1", eta=rng.uniform(0.1, 2.0), x1=rng.uniform(0.05, 1.5),
                              x2=rng.uniform(0.05, 1.5), cos_theta=u)
        ev = corollary1_legendre_eval(cfg, TruncationPolicy(rel_tol=1e-300, max_terms=n_terms))
        assert ev.terms_used == n_terms
        unit_b = replace(corollary_to_params(cfg), B=1.0)
        assert list(ev.terms) == [theorem1_term(n, unit_b) * _legendre_inner_sum(cfg, n)
                                  for n in range(n_terms)]

    def test_value_sums_the_per_term_formula(self):
        cfg = CorollaryConfig(variant="C1", eta=0.9, x1=0.35, x2=1.3, cos_theta=0.4)
        ev = corollary1_legendre_eval(cfg)
        unit_b = replace(corollary_to_params(cfg), B=1.0)
        want = th.accumulate_series(theorem1_term(n, unit_b) * _legendre_inner_sum(cfg, n)
                                    for n in itertools.count())
        assert ev.converged and ev.terms_used == want.terms_used > 10
        assert ev.value == want.value

    def test_cos_zero_reduces_inner_sum(self):
        cfg = CorollaryConfig(variant="C1", eta=0.3, x1=0.2, x2=0.9, cos_theta=0.0)
        legendre = corollary1_legendre_eval(cfg)
        direct = theorem1_eval(corollary_to_params(cfg))
        assert legendre.value.real == pytest.approx(direct.value.real, rel=1e-10)

    def test_matches_slater_value_where_convergent(self):
        cfg = CorollaryConfig(variant="C1", eta=0.4, x1=0.1, x2=0.8, cos_theta=0.3)
        ev = corollary1_legendre_eval(cfg)
        assert ev.converged
        x12 = math.sqrt(cfg.x1**2 - 2 * cfg.x1 * cfg.x2 * cfg.cos_theta + cfg.x2**2)
        assert ev.value.real == pytest.approx(math.exp(-cfg.eta * x12) / x12, rel=1e-8)

    def test_wrong_variant_rejected(self):
        with pytest.raises(DomainError):
            corollary1_legendre_eval(CorollaryConfig(variant="C2", eta=1.0, x1=1.0, x2=1.0))


class TestTwoRangeBaseline:
    def test_converges_to_slater(self):
        eta, x1, x2, u = 0.13, 0.3, 0.17, 0.4
        x12 = math.sqrt(x1 * x1 - 2 * x1 * x2 * u + x2 * x2)
        got = two_range_mos_eval(eta, x1, x2, u, n_terms=40)
        assert got == pytest.approx(math.exp(-eta * x12) / x12, rel=1e-8)

    def test_collinear_case(self):
        eta, x1, x2 = 1.0, 0.5, 1.0
        got = two_range_mos_eval(eta, x1, x2, 1.0, n_terms=60)
        assert got == pytest.approx(math.exp(-eta * (x2 - x1)) / (x2 - x1), rel=1e-8)

    @pytest.mark.parametrize("n_terms", [1, 2, 31])
    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0, -0.4261, 0.8817])
    def test_terms_bit_for_bit_per_term_legendre(self, u, n_terms):
        rng = random.Random(f"{u}/{n_terms}")
        eta, x1, x2 = rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
        lo, hi = min(x1, x2), max(x1, x2)
        want = [
            1.0 / math.sqrt(x1 * x2) * (2 * n + 1) * legendre_p(n, u)
            * bessel_i_half(n, eta * lo) * bessel_k_half(n, eta * hi).real
            for n in range(n_terms)
        ]
        assert two_range_mos_terms(eta, x1, x2, u, n_terms) == want

    @pytest.mark.parametrize("u", [math.nan, 1.5, -math.inf])
    def test_cos_theta_outside_the_domain(self, u):
        with pytest.raises(DomainError, match="outside"):
            two_range_mos_eval(1.0, 0.3, 1.0, u)

    def test_underflowed_bessel_i_orders(self):
        # I_{n+1/2}(0.003) is subnormal from n = 72 and 0.0 from n = 76: terms, not errors
        x12 = math.sqrt(0.01**2 - 2 * 0.01 * 2.0 * 0.5 + 2.0**2)
        got = two_range_mos_eval(0.3, 0.01, 2.0, 0.5, n_terms=84)
        assert got == pytest.approx(math.exp(-0.3 * x12) / x12, rel=1e-15)

    def test_order_bound_names_n_terms(self):
        assert math.isfinite(two_range_mos_eval(0.3, 0.5, 2.0, 0.5, n_terms=th.TWO_RANGE_MAX_TERMS))
        with pytest.raises(CapacityError, match="n_terms = 86"):
            two_range_mos_terms(0.3, 0.5, 2.0, 0.5, th.TWO_RANGE_MAX_TERMS + 1)

    def test_overflowed_bessel_i_raises(self):
        # I_{n+1/2}(800) leaves double precision while K_{n+1/2}(801) underflows to 0:
        # their product would be NaN
        with pytest.raises(CapacityError, match="bessel_i_half"):
            two_range_mos_eval(1.0, 800.0, 801.0, 0.5, n_terms=5)

    @pytest.mark.parametrize("n_terms", [0, -3])
    def test_empty_expansion_rejected(self, n_terms):
        with pytest.raises(DomainError, match="n_terms"):
            two_range_mos_terms(0.13, 0.3, 0.17, 0.4, n_terms)
        with pytest.raises(DomainError, match="n_terms"):
            two_range_mos_eval(0.13, 0.3, 0.17, 0.4, n_terms)

    def test_equal_radii_warns_but_evaluates(self):
        with pytest.warns(UserWarning):
            val = two_range_mos_eval(0.8, 1.0, 1.0, 0.3, n_terms=60)
        assert math.isfinite(val)

    def test_cancellation_metric_exceeds_one_range(self):
        eta, x2, u = 0.13, 1.0, 0.4
        x1 = 0.9 * x2
        terms = two_range_mos_terms(eta, x1, x2, u, 60)
        metric_two = max(abs(t) for t in terms) / abs(math.fsum(terms))
        cfg = CorollaryConfig(variant="C4", eta=eta, x1=x1, x2=x2, cos_theta=u)
        ev = theorem1_eval(corollary_to_params(cfg))
        metric_one = max(abs(t) for t in ev.terms) / abs(ev.value)
        assert metric_two > metric_one


class TestPolicyAndEnv:
    def test_policy_validation(self):
        with pytest.raises(DomainError):
            TruncationPolicy(rel_tol=0.0)
        # an infinite tolerance stopped every series after two terms, flagged converged
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                TruncationPolicy(rel_tol=bad)
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=0)
