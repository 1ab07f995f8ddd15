"""Addition theorems: golden terms, corollary groupings, two-range baseline."""

import cmath
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from contract import mp_theorem6_term, p_nj_coefs
from slater_addition import theorems as th
from slater_addition.amplitudes import cheshire_series, s1_equal_eta_closed
from slater_addition.errors import CapacityError, DomainError, PoleError, RangeError
from slater_addition.specfun import bessel_i_walk, bessel_k_half, cos_power_to_legendre, legendre_p
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

    def test_cancellation_reported_at_large_x2_positive_c(self):
        # flagged converged after 58 terms, yet ~1e-8 off the closed form: the terms outgrow
        # their sum by ~2e7, which the tail-window rule does not see; cancellation does
        p = YukawaFormParams(B=3.82410352422214, C=4.656851695693855, k=0.4528972375207281,
                             x2=51.907655532232695)
        ev = theorem5_eval(p)
        assert ev.converged and ev.terms_used == 58
        assert ev.cancellation > 1e6
        want = th._theorem6_closed(1, p)
        assert 1e-10 < abs(ev.value - want) / abs(want) <= 1e-14 * ev.cancellation

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


def _exact_coefs(n, j):
    """P_{n,j} / (n! 4^n), highest power first: the exact reference for theorem 6's walk."""
    return tuple(b / (math.factorial(n) * 4**n) for b in reversed(p_nj_coefs(j, n)))


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

    def test_small_z_order_8_matches_mpmath(self):
        # the K-entry sum cancelled here to ~1e-14 of its size; P_{0,8} = 1 does not cancel
        mpmath = pytest.importorskip("mpmath")
        p = YukawaFormParams(B=0.25784198547080417, C=0.6150741484514469,
                             k=0.4866232924508469, x2=0.09190492526852231)
        with mpmath.workdps(40):
            want = mp_theorem6_term(8, 0, p)
            assert float(abs((theorem6_term(8, 0, p).real - want) / want)) <= 1e-15

    def test_cancelling_polynomial_raises(self):
        # P_{2,2}(z) = 4 (z^2 - z - 1) vanishes at the golden ratio
        assert _exact_coefs(2, 2) == (4 / 32, -4 / 32, -4 / 32)
        golden = (1 + math.sqrt(5)) / 2
        with pytest.raises(RangeError, match="cancel"):
            theorem6_term(2, 2, YukawaFormParams(B=0.5, C=1.0, k=0.5, x2=golden))

    @pytest.mark.parametrize("p", [
        YukawaFormParams(B=0.125, C=1.0, k=2.0, x2=1.0),            # P_{1,2}(z) = z - 1 at z = 1
        YukawaFormParams(B=0.1, C=1.0, k=1.0, x2=(1 + 5**0.5) / 2),  # P_{2,2} at the golden ratio
    ], ids=["P12-root", "P22-root"])
    def test_series_sums_through_a_polynomial_root(self, p):
        # the term at the root is ~0 beside the terms before it, so its rounding costs the sum
        # nothing: the series guard measures the terms' rounding against their sum
        ev = th.theorem6_eval(2, p)
        want = th._theorem6_closed(2, p)
        assert ev.converged
        assert abs(ev.value - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("sign", [-1, 1], ids=["negative-C", "positive-C"])
    def test_large_x2_values_keep_their_digits_or_raise(self, sign):
        # at x2 in [10, 60] the terms outgrow their sum by up to ~1e5, so a guard on each term
        # alone, or on the largest term, lets values 1e-10 to 2e-8 off through as converged
        rng = random.Random(3)
        kept = 0
        for _ in range(100):
            C, k = sign * rng.uniform(0.05, 4.0), rng.uniform(0.05, 1.0)
            p = YukawaFormParams(B=rng.choice((-1, 1)) * rng.uniform(0.01, 0.5) * abs(C) / k**2,
                                 C=C, k=k, x2=rng.uniform(10, 60))
            for j in (2, 3):
                try:
                    ev = th.theorem6_eval(j, p)
                except RangeError:
                    continue
                if ev.converged:
                    want = th._theorem6_closed(j, p)
                    assert abs(ev.value - want) <= 1e-10 * abs(want), (j, p)
                    kept += 1
        assert kept >= 120

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

    def test_underflowed_decay_is_a_zero_term(self):
        # P_{n,j}(z) overflows past z ~ 1e103, where e^{-z} has long underflowed
        p = YukawaFormParams(B=0.5, C=1.0, k=0.5, x2=1e160)
        assert theorem1_term(3, p) == 0j and theorem6_term(4, 3, p) == 0j


def _horner_term(n, p, j):
    """Term n of theorem 6 of order j from the exact polynomial _exact_coefs(n, j) by Horner,
    with the series' exact-power prefactor; also the polynomial's condition sum|a z^p| / |P(z)|."""
    c = complex(p.C)
    z = p.x2 * cmath.sqrt(c)
    poly = size = 0.0
    for a in _exact_coefs(n, j):
        poly, size = poly * z + a, size * abs(z) + abs(a)
    scale = (-1.0) ** n * p.B**n * p.k ** (2 * n) * c ** (j / 2 - n - 0.5)
    return scale * cmath.exp(-z) * poly, size / abs(poly)


def _eval_or_error(j, p):
    try:
        return th.theorem6_eval(j, p)
    except (CapacityError, RangeError) as exc:
        return exc


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

    def test_real_c_walk_matches_complex_c(self):
        # a real C > 0 runs the walk in floats; C = complex(C) runs the same walk in complex
        # arithmetic.  Even j agrees bit for bit, exceptions included.  At odd j, C^{j/2-n-1/2}
        # is an integer power: libm's pow against CPython's repeated-multiplication complex
        # power, within 64 ulp a term (under 40 in seeded sweeps)
        rng = random.Random(22)
        odd_moved = 0
        for _ in range(200):
            C = rng.choice((rng.uniform(0.05, 5.0), rng.randint(1, 5)))
            k = rng.uniform(0.05, 1.0)
            B = rng.choice((-1, 1)) * rng.uniform(0.0, 1.2) * C / k**2
            x2 = rng.choice((rng.uniform(0.01, 3.0), rng.uniform(3.0, 60.0)))
            p = YukawaFormParams(B=B, C=C, k=k, x2=x2)
            for j in range(5):
                got, want = (_eval_or_error(j, q) for q in (p, replace(p, C=complex(C))))
                if isinstance(want, Exception):
                    assert type(got) is type(want), (j, p)
                    assert j % 2 or str(got) == str(want), (j, p)
                    continue
                assert (got.terms_used, got.converged) == (want.terms_used, want.converged), (j, p)
                assert all(t.imag == 0 for t in got.terms) and got.value.imag == 0
                if j % 2 == 0:
                    assert [t.real.hex() for t in got.terms] == [t.real.hex() for t in want.terms]
                    assert got.value.real.hex() == want.value.real.hex(), (j, p)
                    continue
                bound = 0.0
                for a, b in zip(got.terms, want.terms):
                    ulp = math.ulp(max(abs(a), abs(b)))
                    assert abs(a - b) <= 64 * ulp, (j, p)
                    bound += 64 * ulp
                assert abs(got.value - want.value) <= bound + 4 * math.ulp(abs(want.value)), (j, p)
                odd_moved += got.terms != want.terms
        assert odd_moved >= 100

    @pytest.mark.parametrize("C", [-1e-300, 1e-300j])
    @pytest.mark.parametrize("j", [1, 3])
    def test_odd_j_at_tiny_c_raises_capacity_error(self, j, C):
        # the complex power C^{j/2-n-1/2} at an integer exponent divides by an underflowed C^m;
        # the term goes to the (-Bk^2/C)^n fallback and overflows there, as at even j
        p = YukawaFormParams(B=0.1, C=C, k=1.0, x2=1.0)
        with pytest.raises(CapacityError, match="overflows"):
            th.theorem6_eval(j, p)

    def test_real_c_walk_yields_floats(self):
        for C in (0.7, 2):
            for j in range(4):
                assert type(next(th._macdonald_terms(replace(GOLDEN, C=C), j))) is float
        for C in (-0.7, 0.7 + 0j, True):
            assert type(next(th._macdonald_terms(replace(GOLDEN, C=C), 0))) is complex

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
    def test_terms_bit_for_bit_per_term_legendre_and_sweep(self, u, n_terms):
        rng = random.Random(f"{u}/{n_terms}")
        eta, x1, x2 = rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5)
        lo, hi = min(x1, x2), max(x1, x2)
        i_half = list(itertools.islice(bessel_i_walk(eta * lo), n_terms))
        want = [
            1.0 / math.sqrt(x1 * x2) * (2 * n + 1) * legendre_p(n, u)
            * i_half[n] * bessel_k_half(n, eta * hi).real
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

    def test_order_bound_is_bessel_k_halfs(self):
        # order 85 is bessel_k_half's last (2n within FACTORIAL_LIMIT); the I walk goes on
        assert math.isfinite(two_range_mos_eval(0.3, 0.5, 2.0, 0.5, n_terms=86))
        with pytest.raises(CapacityError, match="bessel_k_half: order 86"):
            two_range_mos_terms(0.3, 0.5, 2.0, 0.5, 87)

    def test_overflowed_bessel_i_raises(self):
        # I_{n+1/2}(800) leaves double precision while K_{n+1/2}(801) underflows to 0:
        # their product would be NaN
        with pytest.raises(CapacityError, match="bessel_i_walk"):
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


class TestAccumulateSeries:
    def test_real_terms_sum_like_complex_terms(self):
        rng = random.Random(7)
        for _ in range(50):
            terms = [rng.uniform(-1, 1) * 10.0 ** rng.uniform(-12, 3) for _ in range(rng.randint(1, 80))]
            got = th.accumulate_series(iter(terms))
            want = th.accumulate_series(complex(t) for t in terms)
            assert got == want
            assert got.cancellation == max(map(abs, got.terms)) / abs(got.value)

    def test_complex_term_promotes_the_sum(self):
        terms = [0.75, -0.125, 0.1 + 0.3j, 1e-3, -2e-4j, 1e-7]
        got = th.accumulate_series(iter(terms))
        assert got == th.accumulate_series(complex(t) for t in terms)
        assert got.value.imag != 0 and got.partial_sums[1].imag == 0
        assert got.partial_sums[-1] == got.value

    @pytest.mark.parametrize("terms", [
        [1.0, math.nan],                           # a finite generator stops on a NaN
        [1.0, math.inf, 0.0, 0.0, 0.0],
        [1e308, 1e308, 0.0, 0.0, 0.0],             # the sum itself overflows
        [0.5j, complex(0.25, math.nan), 0.0, 0.0, 0.0],
    ])
    def test_non_finite_sum_is_not_converged(self, terms):
        ev = th.accumulate_series(iter(terms))
        assert not cmath.isfinite(ev.value) and not ev.converged

    def test_zero_sum_has_infinite_cancellation(self):
        ev = th.accumulate_series(iter([1.0, -1.0]))
        assert ev.value == 0 and ev.cancellation == math.inf


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
        # NaN passed as a budget; 2.5 ended in islice's ValueError
        for bad in (math.nan, 2.5, 60.0, True):
            with pytest.raises(DomainError, match="max_terms must be an integer"):
                TruncationPolicy(max_terms=bad)
