"""Amplitude integrals: closed forms, series terms, double-series reconstructions."""

import cmath
import itertools
import math
import random
import tracemalloc

import pytest

from contract import _pair, tau_mpmath
from slater_addition import amplitudes, cli
from slater_addition.amplitudes import (
    SlaterPair,
    cheshire_series,
    corollary6_n0_closed,
    s1_coulomb_closed,
    s1_equal_eta_closed,
    s1_general_term_gamma,
    s1_n0_erf_closed,
    s1_series_n_term,
    s1_tau_oracle,
    s1_two_slater_closed,
    theorem2_angular,
    theorem3_block_k_terms,
    theorem3_series,
    theorem4_block,
    theorem4_series,
    _theorem3_coefs,
)
from slater_addition.errors import CapacityError, DomainError
from slater_addition.quadrature import integrate_2d
from slater_addition.specfun import (
    cosine_moment_walk,
    upper_incomplete_gamma,
)
from slater_addition.theorems import TruncationPolicy, YukawaFormParams, accumulate_series, theorem1_term

# the point at which the general-k reference values were computed
PAIR = SlaterPair(eta1=0.82, eta2=0.66, x2=0.36, k=0.19)
RECON = SlaterPair(eta1=0.11, eta2=0.13, x2=0.17)


class TestClosedForms:
    def test_coulomb_value_and_2d_oracle(self):
        got = s1_coulomb_closed(1.0, 2.0)
        assert got == pytest.approx(4 * math.pi * (1 - math.exp(-2.0)) / 2.0, rel=1e-14)

        def f(x1, u):
            x12 = math.sqrt(x1 * x1 - 2 * x1 * 2.0 * u + 4.0)
            return 2.0 * math.pi * x1 * math.exp(-x1) / x12

        oracle = integrate_2d(f, (0.0, math.inf, -1.0, 1.0), 1e-8)
        assert oracle.converged
        assert got == pytest.approx(oracle.value.real, rel=1e-7)

    def test_coulomb_limits(self):
        assert s1_coulomb_closed(500.0, 2.0) == pytest.approx(4 * math.pi / (2.0 * 500.0**2), rel=1e-6)
        # leading small-x2 behaviour 4 pi / eta1 (1 - eta1 x2 / 2 + ...)
        assert s1_coulomb_closed(0.7, 1e-6) == pytest.approx(
            4 * math.pi / 0.7 * (1 - 0.7 * 1e-6 / 2), rel=1e-9
        )
        assert s1_coulomb_closed(0.7, 0.01) == pytest.approx(
            4 * math.pi / 0.7 * (1 - 0.7 * 0.01 / 2), rel=1e-5
        )

    def test_two_slater_golden(self):
        assert s1_two_slater_closed(RECON) == pytest.approx(51.3025821, abs=1e-7)

    def test_two_slater_limits_and_symmetry(self):
        p_small = SlaterPair(eta1=1.0, eta2=1e-9, x2=2.0)
        assert s1_two_slater_closed(p_small) == pytest.approx(s1_coulomb_closed(1.0, 2.0), rel=1e-6)
        swapped = SlaterPair(eta1=RECON.eta2, eta2=RECON.eta1, x2=RECON.x2)
        assert s1_two_slater_closed(swapped) == s1_two_slater_closed(RECON)
        with pytest.raises(DomainError):
            s1_two_slater_closed(SlaterPair(eta1=0.5, eta2=0.5, x2=1.0))

    def test_equal_eta(self):
        assert s1_equal_eta_closed(0.13, 0.17) == pytest.approx(47.27577, abs=5e-5)
        near = s1_two_slater_closed(SlaterPair(eta1=0.13 * (1 + 1e-6), eta2=0.13, x2=0.17))
        assert near == pytest.approx(s1_equal_eta_closed(0.13, 0.17), abs=5e-4)
        assert s1_equal_eta_closed(0.5, 1e-12) == pytest.approx(2 * math.pi / 0.5, rel=1e-9)


class TestTauOracle:
    def test_reduces_to_two_slater_at_k_zero(self):
        p = SlaterPair(eta1=0.82, eta2=0.66, x2=0.36, k=0.0)
        res = s1_tau_oracle(p, tol=1e-11)
        assert res.converged
        assert res.value.real == pytest.approx(s1_two_slater_closed(p), rel=1e-10)
        assert abs(res.value.imag) < 1e-12

    def test_reduces_to_equal_eta_at_k_zero(self):
        p = SlaterPair(eta1=0.66, eta2=0.66, x2=0.36, k=0.0)
        res = s1_tau_oracle(p, tol=1e-11)
        assert res.value.real == pytest.approx(s1_equal_eta_closed(0.66, 0.36), rel=1e-10)

    def test_reference_point(self):
        res = s1_tau_oracle(PAIR, tol=1e-9)
        assert res.converged
        assert res.value.real == pytest.approx(6.4564, abs=1e-4)
        assert res.value.imag == pytest.approx(-0.210837, abs=1e-4)


class TestSeriesTerms:
    def test_reference_n0_n1(self):
        t0 = s1_series_n_term(0, PAIR)
        t1 = s1_series_n_term(1, PAIR)
        assert t0.real == pytest.approx(6.50124, abs=5e-5)
        assert t0.imag == pytest.approx(-0.212271, abs=5e-5)
        assert t1.real == pytest.approx(-0.0452324, abs=5e-6)
        assert t1.imag == pytest.approx(0.00144522, abs=5e-6)

    def test_partial_sums_track_oracle(self):
        oracle = s1_tau_oracle(PAIR, tol=1e-10).value
        partial = sum(s1_series_n_term(n, PAIR) for n in range(4))
        assert abs(partial - oracle) <= 1e-3 * abs(oracle)

    def test_gamma_and_erf_forms_of_term_zero_agree(self):
        # two closed forms off independent kernels, gamma_walk and erf_complex, tighter than the
        # 1e-10 quadrature rows of either; the Gamma(1/2, .) difference cancels as eta1 -> eta2,
        # 4e-12 at eta1 / eta2 = 0.996
        rng = random.Random(0)
        for p in (_pair(rng) for _ in range(600)):
            erf0 = s1_n0_erf_closed(p)
            assert abs(s1_general_term_gamma(0, p) - erf0) <= 1e-11 * abs(erf0), p

    def test_erf_closed_form_conjugation(self):
        flipped = SlaterPair(PAIR.eta1, PAIR.eta2, PAIR.x2, PAIR.k, k_dot_x2=-PAIR.k_dot_x2)
        assert s1_n0_erf_closed(flipped) == s1_n0_erf_closed(PAIR).conjugate()

    @staticmethod
    def _gamma_form_matches_quadrature(n, pair, tol):
        # term 0 is one Gamma(1/2, .) channel; terms n >= 1 are left to the quadrature
        if n == 0:
            quad = s1_series_n_term(0, pair, tol=1e-12)
            assert abs(s1_general_term_gamma(0, pair) - quad) <= tol * abs(quad)
        else:
            with pytest.raises(DomainError, match="use s1_series_n_term"):
                s1_general_term_gamma(n, pair)

    @pytest.mark.parametrize("n", range(4))
    def test_gamma_form_equals_quadrature_term(self, n):
        self._gamma_form_matches_quadrature(n, PAIR, 1e-6)

    @pytest.mark.parametrize("n", range(3))
    def test_gamma_form_reversed_orientation(self, n):
        rev = SlaterPair(eta1=0.66, eta2=0.82, x2=0.36, k=0.19)
        self._gamma_form_matches_quadrature(n, rev, 1e-8)
        erf0 = s1_n0_erf_closed(rev)
        assert abs(erf0 - s1_series_n_term(0, rev)) <= 1e-8 * abs(erf0)

    @pytest.mark.parametrize("n", range(3))
    @pytest.mark.parametrize("pair", [
        PAIR,
        SlaterPair(eta1=0.66, eta2=0.82, x2=0.36, k=0.19),
        SlaterPair(eta1=0.968, eta2=0.5538, x2=0.5035, k=0.4027),  # benchmark probes of n = 1, 2
        SlaterPair(eta1=0.65, eta2=1.0438, x2=0.6761, k=0.2833),  # benchmark probe of n = 1
    ])
    def test_shared_ladders_match_one_walk_per_gamma(self, n, pair, monkeypatch):
        # the segment-end Gamma(1/2, .) walks against upper_incomplete_gamma: bit-identical
        # values at n = 0, and the same DomainError at n >= 1
        def outcome():
            try:
                v = s1_general_term_gamma(n, pair)
            except Exception as exc:
                return type(exc)
            return v.real.hex(), v.imag.hex()

        shared = outcome()
        monkeypatch.setattr(amplitudes, "gamma_walk", lambda a, z: (
            upper_incomplete_gamma(a - i, z) for i in itertools.count()))
        assert outcome() == shared

    def test_degenerate_interval_rejected(self):
        p = SlaterPair(eta1=0.5, eta2=0.5, x2=1.0, k=0.2)
        for fn in (lambda: s1_series_n_term(0, p), lambda: s1_n0_erf_closed(p),
                   lambda: s1_general_term_gamma(0, p)):
            with pytest.raises(DomainError):
                fn()


class TestCheshireSeries:
    def test_k_zero_single_term_is_closed_form(self):
        ev = cheshire_series(0.82, 0.036, 0.0)
        assert ev.terms_used == 1 and ev.converged
        assert ev.value.real == pytest.approx(s1_equal_eta_closed(0.82, 0.036), rel=1e-14)

    @pytest.mark.parametrize(
        "eta1, x2, k, kdot",
        [(0.82, 0.036, 0.019, None), (1.0, 1.0, 0.5, 0.3), (0.82, 0.36, 0.19, None)],
    )
    def test_matches_tau_oracle(self, eta1, x2, k, kdot):
        ev = cheshire_series(eta1, x2, k, kdot)
        assert ev.converged
        oracle = s1_tau_oracle(SlaterPair(eta1, eta1, x2, k, kdot), tol=1e-11)
        assert abs(ev.value - oracle.value) <= 1e-6 * abs(oracle.value)

    @pytest.mark.parametrize(
        "eta1, x2, k, kdot",
        [(0.82, 0.036, 0.019, 0.019 * 0.036), (1.0, 1.0, 0.5, 0.3), (0.82, 0.36, 0.19, 0.19 * 0.36)],
    )
    def test_terms_match_vertex_formula(self, eta1, x2, k, kdot):
        # 2 pi e^{-iy} mu_n(y) sqrt(2/pi) (k^2/4)^n / n! 2^{-n} x2^{n+1/2} C^{-n/2-1/4}
        #     K_{n+1/2}(x2 sqrt(C)), C = eta1^2 + k^2/4 as the series rounds it, y = k.x2/2,
        # mu_n(y) = 1F2(n+1/2; 1/2, n+3/2; -y^2/4) / (2n+1), written out term by term
        # in 50-digit mpmath: a float re-evaluation through bessel_k_half at
        # x2 sqrt(C) ~ 0.03 carries ~2e-15 error of its own.
        mp = pytest.importorskip("mpmath")
        every = TruncationPolicy(rel_tol=1e-300, max_terms=31)
        ev = cheshire_series(eta1, x2, k, kdot, every)
        assert ev.terms_used == 31
        with mp.workdps(50):
            e1, x, kk, kd = (mp.mpf(v) for v in (eta1, x2, k, kdot))
            c, y, half = mp.mpf(eta1**2 + k * k / 4), kd / 2, mp.mpf(1) / 2
            for n, got in enumerate(ev.terms):
                mu = mp.hyp1f2(n + half, half, n + 3 * half, -y * y / 4) / (2 * n + 1)
                want = (
                    2 * mp.pi * mp.expj(-y) * mu * mp.sqrt(2 / mp.pi) * (kk**2 / 4) ** n
                    / mp.factorial(n) / 2**n * x ** (n + half) * c ** (-mp.mpf(n) / 2 - half / 2)
                    * mp.besselk(n + half, x * mp.sqrt(c))
                )
                assert abs(got - want) <= 2e-15 * abs(want), n

    def test_sums_its_per_term_formula(self):
        # 2 pi e^{-iy} mu_n(y) theorem1_term(n; B = -1/4, C = eta1^2 + k^2/4, k, x2), y = k.x2/2
        eta1, x2, k = 0.8, 0.7, 0.9
        ev = cheshire_series(eta1, x2, k)
        p = YukawaFormParams(-0.25, eta1**2 + k * k / 4, k, x2)
        y = k * x2 / 2
        mu = list(itertools.islice(cosine_moment_walk(y), ev.terms_used))
        terms = [amplitudes.TWO_PI * cmath.exp(-1j * y) * mu[n] * theorem1_term(n, p)
                 for n in range(ev.terms_used)]
        assert ev.converged and ev.terms_used > 10
        assert list(ev.terms) == terms
        assert ev.value == accumulate_series(terms).value

    @pytest.mark.parametrize("eta1, x2, k", [(1.0, 30.0, 0.9), (0.8, 25.0, 1.0), (1.0, 20.0, 0.9),
                                             (1.2, 16.0, 1.0)])
    def test_large_phase_vs_mpmath(self, eta1, x2, k):
        # k.x2 from 16 to 27: a 1F1 Taylor series per term cancels there past 5 digits
        pytest.importorskip("mpmath")
        ev = cheshire_series(eta1, x2, k)
        assert ev.converged
        assert abs(ev.value - tau_mpmath(eta1, eta1, x2, k, 30, 9)) <= 1e-10 * abs(ev.value)

    def test_long_budget_keeps_memory_small(self):
        # the sweep grows with the terms drawn, not with max_terms
        tracemalloc.start()
        try:
            ev = cheshire_series(0.8, 0.7, 0.9, policy=TruncationPolicy(max_terms=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ev.converged and peak < 100_000

    def test_no_radius_in_k(self):
        # |B k^2| <= k^2/4 < C = eta1^2 + k^2/4 for every k: past k = 2 eta1 too
        for k in (1.5, 2.5):
            ev = cheshire_series(1.0, 0.5, k)
            oracle = s1_tau_oracle(SlaterPair(1.0, 1.0, 0.5, k), 1e-12).value
            assert ev.converged
            assert abs(ev.value - oracle) <= 1e-10 * abs(oracle), k
        # at k = 5 eta1 the terms shrink like (25/29)^n: past the default 60 terms, not past 200
        assert not cheshire_series(1.0, 0.5, 5.0).converged
        ev = cheshire_series(1.0, 0.5, 5.0, policy=TruncationPolicy(max_terms=200))
        oracle = s1_tau_oracle(SlaterPair(1.0, 1.0, 0.5, 5.0), 1e-12).value
        assert ev.converged and abs(ev.value - oracle) <= 1e-9 * abs(oracle)

    @pytest.mark.parametrize("eta1, x2, k", [(0.3332, 0.8282, 0.6364), (0.3521, 0.6133, 0.7506),
                                             (0.3479, 0.7074, 0.8142)])
    def test_past_k_2_eta1_vs_mpmath(self, eta1, x2, k):
        # k / eta1 = 1.9, 2.1, 2.3, where the series about tau = 0 ran out of its 60 terms
        pytest.importorskip("mpmath")
        ev = cheshire_series(eta1, x2, k)
        assert ev.converged
        assert abs(ev.value - tau_mpmath(eta1, eta1, x2, k, 30, 9)) <= 1e-10 * abs(ev.value)


class TestTheorem2Angular:
    def test_small_exponent_expansion(self):
        got = theorem2_angular(1e-4, 1.0, 1.0)
        assert abs(got - 2.0 * (1.0 - 1.0j)) <= 5e-4

    def test_scaling_homogeneity(self):
        # the closed form carries dimension 1/length: v(lam eta, x1/lam, x2/lam) = lam v
        lam = 1.7
        a = theorem2_angular(0.8, 1.1, 0.6)
        b = theorem2_angular(0.8 * lam, 1.1 / lam, 0.6 / lam)
        assert abs(b - lam * a) <= 1e-13 * abs(b)


class TestTheorem3Series:
    def test_higher_block_k_terms(self):
        want_n2 = (0.527506, 0.082122, 0.017650, 0.004191, 0.001043, 0.000267,
                   0.00007, 0.000018, 5e-6)
        nine = TruncationPolicy(max_terms=9)
        got = [t.real for t in theorem3_block_k_terms(2, RECON, nine).terms]
        for g, w in zip(got, want_n2):
            assert g == pytest.approx(w, abs=5e-6)
        want_n4 = (0.115654, 0.017087, 0.003642, 0.000862, 0.000214, 0.00005,
                   0.000014, 3e-6, 1e-6)
        got = [t.real for t in theorem3_block_k_terms(4, RECON, nine).terms]
        for g, w in zip(got, want_n4):
            assert g == pytest.approx(w, abs=5e-6)

    def test_block_k_series_runs_under_the_policy_budget(self):
        # a tail rule that never fires: max_terms = 3 ends the k-series, flagged
        ev = theorem3_block_k_terms(2, RECON, TruncationPolicy(rel_tol=1e-300, max_terms=3))
        assert ev.terms_used == 3 and not ev.converged

    def test_k_series_closing_its_tail_window_on_the_last_budgeted_term_is_converged(self):
        # block 0's k-series meets the tail rule on its 20th term
        policy = TruncationPolicy(max_terms=20)
        assert theorem3_block_k_terms(0, RECON, policy).terms_used == 20
        assert theorem3_series(RECON, n_max=0, policy=policy).converged

    def test_blocks_positive_and_monotone_partials(self):
        ev = theorem3_series(RECON, n_max=8)
        assert all(t.real > 0 for t in ev.terms)
        for a, b in zip(ev.partial_sums, ev.partial_sums[1:]):
            assert b.real > a.real
        assert abs(ev.value.imag) < 1e-12

    def test_converges_toward_closed_form(self):
        ev = theorem3_series(RECON, n_max=8)
        closed = s1_two_slater_closed(RECON)
        assert 0 < closed - ev.value.real < 0.2

    def test_swapped_exponents_converge_to_same_value(self):
        swapped = SlaterPair(eta1=0.13, eta2=0.11, x2=0.17)
        ev = theorem3_series(swapped, n_max=8)
        closed = s1_two_slater_closed(swapped)
        assert closed == pytest.approx(s1_two_slater_closed(RECON), rel=1e-14)
        assert 0 < closed - ev.value.real < 0.2

    def test_past_validity_ratio_flagged(self):
        # |eta1^2 - eta2^2| / eta2^2 = 3: the k-series of each block runs to its budget
        assert not theorem3_series(SlaterPair(eta1=1.0, eta2=0.5, x2=0.4), n_max=2,
                                   policy=TruncationPolicy(max_terms=4)).converged

    @pytest.mark.parametrize("pair", [
        SlaterPair(eta1=0.6165, eta2=0.4665, x2=0.6202),    # ratio 0.75, 7.8e-3 off
        SlaterPair(eta1=0.5 * math.sqrt(1.9), eta2=0.5, x2=0.3),  # ratio 0.9, 26x off
    ])
    def test_flagged_where_a_block_k_series_runs_to_its_budget(self, pair):
        ev = theorem3_series(pair)
        assert abs(ev.value.real / s1_two_slater_closed(pair) - 1) > 1e-3
        assert not ev.converged

    def test_converged_when_every_k_series_meets_the_tail_rule(self):
        assert theorem3_series(RECON).converged

    def test_equal_exponents_rejected(self):
        with pytest.raises(DomainError):
            theorem3_series(SlaterPair(eta1=0.5, eta2=0.5, x2=1.0))

    def test_block_past_where_its_walk_stopped_raises_the_walk_error(self):
        # block 0 reads Gamma(-2 - 2k, 1e-5): the walk overflows at order -62, k = 30
        never = TruncationPolicy(rel_tol=1e-300, max_terms=60)
        with pytest.raises(CapacityError, match=r"the walk to a = -62\.0 overflows"):
            theorem3_block_k_terms(0, SlaterPair(1.05e-5, 1e-5, 1.0), never)

    def test_converged_short_of_the_order_whose_walk_overflows(self):
        # at x2 eta2 = 1e-5 the walk to Gamma(-62, .) overflows; n_max = 40 reaches it (see contract.py)
        assert theorem3_series(SlaterPair(1.05e-5, 1e-5, 1.0), n_max=4).converged


class TestBlockCoefficients:
    @pytest.mark.parametrize("n", [0, 2, 10, 40])
    def test_theorem4_block_is_theorem3_k0_at_equal_exponents(self, n):
        # the theorem-3 k = 0 term is the float (i, j) sum, which cancels (5e-12 off the
        # closed form at n = 40, and it is the inaccurate one), so the two are compared
        # on the scale of the terms that sum adds
        p = SlaterPair(0.37, 0.37, 0.29)
        coefs = _theorem3_coefs(n, 0.37, 0.37, 0.29)
        magnitude = sum(abs(c * upper_incomplete_gamma(a, 0.29 * 0.37).real) for c, a in coefs)
        got = theorem3_block_k_terms(n, p).terms[0].real
        assert abs(got - theorem4_block(n, 0.37, 0.29)) <= 1e-12 * magnitude

    @pytest.mark.parametrize("lead, eta2, x2", [
        (0.37, 0.37, 0.29), (0.11, 0.13, 0.17), (0.52, 0.5, 0.45), (1.0, 0.1, 2.5), (0.3, 0.32, 0.7),
    ])
    def test_coefficients_match_mpmath(self, lead, eta2, x2):
        # each (n, i, j) coefficient against the unsplit theorem-3 formula at 40
        # digits, its integer factors taken as one exact ratio
        mp = pytest.importorskip("mpmath")
        fact = math.factorial
        with mp.workdps(40):
            for n in range(0, 61, 2):
                head = (mp.sqrt(mp.pi) * (-1) ** (n // 2) * mp.mpf(lead) * mp.gamma(mp.mpf(n + 3) / 2)
                        * mp.mpf(2) ** (mp.mpf(n) / 2 + 3))
                pairs = [(i, j) for i in range(n // 2 + 1) for j in range(1 if n == 0 else n // 2)]
                got = _theorem3_coefs(n, lead, eta2, x2)
                assert len(got) == len(pairs)
                for (c, order), (i, j) in zip(got, pairs):
                    assert order == 2 * i - j - n // 2 - 2
                    ratio = mp.mpf(
                        (-1) ** i * math.comb(n // 2, i) * fact((abs(n - 1) + 2 * j - 1) // 2)
                    ) / (fact(j) * fact(n + 1) * fact((abs(n - 1) - 2 * j - 1) // 2) * 2 ** j)
                    want = head * ratio * mp.mpf(eta2) ** (n - 2 * i) * mp.mpf(x2) ** (n + 2 - 2 * i)
                    assert abs(c - want) <= 4e-15 * abs(want), (n, i, j)


class TestTheorem4Series:
    def test_blocks_all_positive(self):
        blocks = [theorem4_block(n, 0.13, 0.17) for n in (0, 2, 4, 6, 8)]
        assert all(b > 0 for b in blocks)

    def test_bracketed_by_neighbouring_theorem3(self):
        mid = theorem4_series(0.13, 0.17, n_max=8).value.real
        lo = theorem3_series(SlaterPair(0.13 * (1 + 1e-4), 0.13, 0.17), n_max=8).value.real
        hi = theorem3_series(SlaterPair(0.13 * (1 - 1e-4), 0.13, 0.17), n_max=8).value.real
        assert min(lo, hi) <= mid <= max(lo, hi)


class TestTheorem4ClosedForm:
    def test_every_block_positive_to_the_60_block_budget(self):
        ev = theorem4_series(0.37, 0.29, n_max=118, policy=TruncationPolicy(max_terms=60))
        assert ev.terms_used == 60
        assert all(t.real > 0 for t in ev.terms)
        assert [t.real for t in ev.terms] == [theorem4_block(n, 0.37, 0.29) for n in range(0, 119, 2)]

    def test_series_takes_e1_once(self, monkeypatch):
        calls = []

        def counted(a, z):
            calls.append(a)
            return upper_incomplete_gamma(a, z)

        monkeypatch.setattr(amplitudes, "upper_incomplete_gamma", counted)
        theorem4_series(0.37, 0.29, n_max=60)
        assert calls == [0.0]

    def test_table_bounds(self):
        # the 1/(2^m m!) prefactor folded in keeps every coefficient <= 0.5
        for n in range(0, 121, 2):
            ell, ems = amplitudes._theorem4_table(n)
            assert len(ell) == n + 2 and max(map(abs, ell + ems)) <= 0.5


class TestCorollary6N0:
    def test_double_ratio_value_and_quadrature(self):
        got = corollary6_n0_closed(1.0, 2.0)
        assert got == pytest.approx(4 * math.pi / math.sqrt(3.0) * math.asinh(math.sqrt(3.0)),
                                    rel=1e-14)

        # reduced 2-D oracle: tau = v^2, w = 1/rho2 regularisations
        def f(w, v):
            if v <= 0.0 or w <= 0.0:
                return 0.0
            tau = v * v
            b = (1.0 * (1.0 - tau) / tau + 4.0) / 4.0
            return math.sqrt(math.pi) * (2.0 / v) * math.exp(-b * w) / math.sqrt(w)

        oracle = integrate_2d(f, (0.0, math.inf, 0.0, 1.0), 1e-7)
        assert got == pytest.approx(oracle.value.real, rel=1e-6)

    @pytest.mark.parametrize("eta1,ratio", [(0.05, 1.01), (0.3, 20.0), (1.0, 2.0), (5.0, 1.1)])
    def test_cli_oracle_in_s_matches_closed_form(self, eta1, ratio):
        # --tol 1e-6 gives oracle tol 2e-8.  The s-form needs 222k-281k
        # evaluations here; an outer integrand with a 1/sqrt(w) edge needs >= 736k.
        ctx = cli.Context(tol=1e-6)
        res = cli._corollary6_2d_oracle(ctx, eta1, eta1 * ratio)
        assert res.converged
        assert res.evaluations < 350_000
        assert res.value.real == pytest.approx(corollary6_n0_closed(eta1, eta1 * ratio), rel=5e-9)

    def test_equal_exponent_limit(self):
        assert corollary6_n0_closed(1.0, 1.0 + 1e-8) == pytest.approx(4 * math.pi, rel=1e-6)

    def test_scaling(self):
        lam = 2.3
        assert corollary6_n0_closed(0.7 * lam, 1.9 * lam) == pytest.approx(
            corollary6_n0_closed(0.7, 1.9) / lam, rel=1e-13
        )


class TestSlaterPairValidation:
    def test_default_phase_scalar(self):
        p = SlaterPair(1.0, 1.0, 2.0, 0.25)
        assert p.k_dot_x2 == pytest.approx(0.5)

    def test_phase_bound(self):
        with pytest.raises(DomainError):
            SlaterPair(1.0, 1.0, 2.0, 0.25, k_dot_x2=0.6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_a_domain_error(self, bad):
        for args in ((bad, 0.3, 0.3), (0.3, bad, 0.3), (0.3, 0.3, bad), (0.3, 0.3, 0.3, bad),
                     (0.3, 0.3, 0.3, 0.2, bad), (0.3, 0.3, 0.3, 0.2, -bad)):
            with pytest.raises(DomainError):
                SlaterPair(*args)
        for f, args in ((s1_equal_eta_closed, (bad, 0.3)), (s1_equal_eta_closed, (0.3, bad)),
                        (s1_coulomb_closed, (bad, 0.3)), (s1_coulomb_closed, (0.3, bad)),
                        (corollary6_n0_closed, (0.3, bad)), (corollary6_n0_closed, (bad, 0.5)),
                        (theorem2_angular, (bad, 0.3, 0.4)), (theorem2_angular, (0.3, 0.4, bad)),
                        (theorem4_block, (2, bad, 0.3)), (theorem4_series, (0.3, bad))):
            with pytest.raises(DomainError, match="finite"):
                f(*args)

    def test_bounds_validation(self):
        with pytest.raises(DomainError, match="theorem3_series: n_max"):
            theorem3_series(RECON, n_max=-2)
        with pytest.raises(DomainError, match="theorem4_series: n_max"):
            theorem4_series(0.13, 0.17, n_max=-2)

    @pytest.mark.parametrize("bad", [True, 2.5, 4.0, math.nan])
    @pytest.mark.parametrize("route, arg", [
        (lambda v: theorem3_series(RECON, n_max=v), "n_max"),
        (lambda v: theorem4_series(0.3, 0.4, n_max=v), "n_max"),
    ])
    def test_budgets_must_be_integers(self, route, arg, bad):
        # a float budget ended in islice's ValueError or range's TypeError
        with pytest.raises(DomainError, match=f"{arg} must be an integer"):
            route(bad)


class TestReconstructionConvergenceDirection:
    def test_theorem4_residual_shrinks_with_bounds(self):
        closed = s1_equal_eta_closed(0.13, 0.17)
        r8 = closed - theorem4_series(0.13, 0.17, n_max=8).value.real
        r30 = closed - theorem4_series(0.13, 0.17, n_max=30).value.real
        assert 0 < r30 < r8

    def test_theorem3_residual_shrinks_with_bounds(self):
        closed = s1_two_slater_closed(RECON)
        r8 = closed - theorem3_series(RECON, n_max=8).value.real
        r16 = closed - theorem3_series(RECON, n_max=16).value.real
        assert 0 < r16 < r8
