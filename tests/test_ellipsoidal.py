"""Ellipsoidal-coordinate case study: oracle, exact form, series, stall."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from slater_addition import ellipsoidal, specfun
from slater_addition.ellipsoidal import (
    EXACT_MAX_R,
    EllipsoidalParams,
    StallReport,
    stall_detector,
    t_abc_exact,
    t_abc_integrand,
    t_abc_oracle,
    t_abc_series,
    t_abc_term,
    _t_abc_oracle_integrand,
)
from slater_addition.cli import EXIT_ERROR, EXIT_FLAGGED, main
from slater_addition.errors import CapacityError, DomainError, RangeError
from slater_addition.specfun import bessel_i_half
from slater_addition.theorems import SeriesEvaluation, TruncationPolicy


def _fake_eval(terms):
    s = 0.0
    for t in terms:
        s += t
    return SeriesEvaluation(
        terms=tuple(complex(t) for t in terms),
        value=complex(s),
        converged=False,
        terms_used=len(terms),
        cancellation=max(map(abs, terms)) / abs(s),
    )


class TestOracleAndExact:

    def test_oracle_cost_at_unit_separation(self):
        # the compare command's oracle tolerance; 45,795 evaluations in lam
        assert t_abc_oracle(1.1, 2e-9).evaluations <= 20_000

    def test_oracle_matches_validated_integrand(self):
        # the oracle integrates f(t, mu) + f(t, -mu) over mu in [0, 1], f being e^{3R} 2t times
        # the public integrand at lam = 1 + t^2; these t have lam - 1 == t^2 exactly
        for R in (0.05, 1.1, 12.0):
            f = _t_abc_oracle_integrand(R)
            peak = math.exp(-3.0 * R)
            for t in (0.0, 0.125, 0.5, 1.5, 3.0):
                for mu in (0.0, 0.3, 0.7, 1.0):
                    want = 2.0 * t * (t_abc_integrand(EllipsoidalParams(R, 1.0 + t * t, mu))
                                      + t_abc_integrand(EllipsoidalParams(R, 1.0 + t * t, -mu)))
                    assert peak * f(t, mu) == pytest.approx(want, rel=1e-15, abs=0.0), (R, t, mu)

    def test_integrand_past_lam_squared_overflow_is_zero(self):
        # lam^2 overflows to inf where the exponential has underflowed to 0
        assert t_abc_integrand(EllipsoidalParams(1.0, 1e200, 0.0)) == 0.0

    @pytest.mark.parametrize("R", [239.27, 240.0, 300.0, 1e5, 1e200])
    def test_exact_above_its_domain_raises(self, R, capsys):
        # T(a,bc) leaves the normal doubles at R ~ 239.27; at 1e200 R^2 overflows
        with pytest.raises(RangeError, match="R <= 239.26"):
            t_abc_exact(R)
        assert main(["eval", "t_abc_exact", "--param", f"R={R!r}"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_large_separation_decays(self):
        assert t_abc_oracle(30.0, tol=1e-6).value.real < 1e-30

    def test_domain(self):
        with pytest.raises(DomainError):
            t_abc_exact(0.0)
        with pytest.raises(DomainError):
            t_abc_oracle(-1.0)
        for lam, mu in ((0.5, 0.0), (math.nan, 0.0), (2.0, math.nan), (2.0, 1.5)):
            with pytest.raises(DomainError):
                EllipsoidalParams(R=1.0, lam=lam, mu=mu)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("route", [
        t_abc_exact, t_abc_oracle, t_abc_series, lambda R: t_abc_term(1, 0, R),
        lambda R: EllipsoidalParams(R, 1.0, 0.0),
    ], ids=["exact", "oracle", "series", "term", "params"])
    def test_non_finite_or_nonpositive_separation_rejected(self, route, R):
        with pytest.raises(DomainError, match="positive and finite"):
            route(R)


class TestSeries:
    def test_six_reference_increments(self):
        ev = t_abc_series(0.11, n_max=6)
        want = (0.356284, 0.003537, 0.00019, 0.000036, 0.000013, 0.000005)
        for got, w in zip(ev.terms, want):
            assert got.real == pytest.approx(w, abs=5e-6)
        assert math.fsum(t.real for t in ev.terms[:6]) == pytest.approx(0.360061, abs=1e-5)

    def test_late_terms_dominated_by_top_macdonald_index(self):
        R = 0.11
        for n in (7, 9):
            top = abs(t_abc_term(n, n - 1, R))
            rest = sum(abs(t_abc_term(n, j, R)) for j in range(n - 1))
            assert top > rest

    def test_term_keeps_a_tiny_bessel_factor_against_large_gammas(self):
        # R^{n-3/2} I_{n+5/2}(R) is below the doubles here, the term itself is not; 40-digit mpmath
        want = 7.470967808070783e-111
        assert abs(t_abc_term(79, 37, 0.0675) - want) <= 1e-14 * want

    @pytest.mark.parametrize("route", [
        lambda: t_abc_term(2.0, 1, 0.11), lambda: t_abc_term(2, 1.0, 0.11),
        lambda: t_abc_term(True, 0, 0.11), lambda: t_abc_term(1, False, 0.11),
        lambda: t_abc_term(-1, 0, 0.11), lambda: t_abc_series(0.11, n_max=True),
        lambda: t_abc_series(0.11, n_max=-1), lambda: t_abc_series(0.11, n_max=2.0),
    ])
    def test_indices_must_be_integers(self, route):
        # floats, bools and negative values are not indices
        with pytest.raises(DomainError, match=r"t_abc_(term|series): (n|J|n_max) must be an integer"):
            route()

    @pytest.mark.parametrize("R", [1e-150, 1e-50, 1e-10])
    def test_tiny_separation_is_three_eighths(self, R):
        # T(a,bc) = 3/8 - O(R^2)
        ev = t_abc_series(R)
        assert ev.converged and ev.value.real == pytest.approx(0.375, rel=1e-15)

    @pytest.mark.parametrize("R, n_max, policy", [
        *(pytest.param(R, 20, None, id=str(R)) for R in (0.001, 0.003, 0.05, 0.11, 0.49, 0.51, 1.1, 2.5, 7.0)),
        # every increment t_abc_term holds
        pytest.param(2.5, 86, TruncationPolicy(rel_tol=1e-300, max_terms=90), id="2.5-n_max86"),
    ])
    def test_series_increments_are_j_sums_of_public_terms(self, R, n_max, policy):
        # the series takes each increment from the H recurrences; the public term, one J at a time
        ev = t_abc_series(R, n_max=n_max, policy=policy)
        assert policy is None or ev.terms_used == n_max + 1
        for n, got in enumerate(ev.terms):
            want = math.fsum(t_abc_term(n, big_j, R) for big_j in range(max(n, 1)))
            assert got.imag == 0.0 and abs(got.real - want) <= 2e-15 * abs(want), (R, n)

    @pytest.mark.parametrize("n_max", [0, 1, 14, 20])
    def test_series_calls_no_bessel_i_half(self, n_max, monkeypatch):
        # I_{k+1/2}(R), k = 1..n_max+2, come from one Miller walk, none from the ascending series
        orders = []

        def counted(k, x):
            orders.append(k)
            return bessel_i_half(k, x)

        monkeypatch.setattr(specfun, "bessel_i_half", counted)
        assert not hasattr(ellipsoidal, "bessel_i_half")
        assert t_abc_series(0.37, n_max=n_max).terms_used == n_max + 1
        assert orders == []

    @pytest.mark.parametrize("R, n_max, orders", [
        (0.7, 20, 4),  # anchored at m = 0: Gamma(3, 4R) .. Gamma(0, 4R)
        (1.2, 20, 8),  # m = ceil(1.56) = 2
        (7.0, 20, 24),  # m = ceil(9.1) = 10
        (20.0, 20, 42),  # m = 26 capped at the top increment's m = 19
        (20.0, 1, 4),
    ])
    def test_series_gamma_orders_follow_the_anchor(self, R, n_max, orders, monkeypatch):
        # 2 m + 4 orders of the walk for the anchor m, not the 2 n_max + 2 that dot products read
        read = []

        def counted(a, z):
            for g in specfun.gamma_walk(a, z):
                read.append(g)
                yield g

        monkeypatch.setattr(ellipsoidal, "gamma_walk", counted)
        t_abc_series(R, n_max=n_max)
        assert len(read) == orders

    @given(R=st.floats(-150.0, 4.0).map(lambda t: max(10.0**t, 1e-150)), n_max=st.integers(0, 100),
           rel_tol=st.sampled_from([1e-10, 1e-300]))
    @settings(max_examples=300, deadline=None)
    def test_series_never_leaks_a_bare_error(self, R, n_max, rel_tol):
        # over the whole R range and up to 101 terms, a value or the library's own errors; where
        # T(a,bc) has left the doubles the value is never a converged 0
        try:
            ev = t_abc_series(R, n_max=n_max, policy=TruncationPolicy(rel_tol, max_terms=101))
        except (DomainError, CapacityError, RangeError):
            return
        assert ev.value.imag == 0.0
        if R > EXACT_MAX_R:  # T(a,bc) is below the normal doubles
            assert not ev.converged
        if ev.converged:
            assert math.isfinite(ev.value.real) and ev.value.real > 0.0

    @pytest.mark.parametrize("n_max", [2, 20])
    def test_nan_series_is_flagged(self, n_max, capsys):
        # at R = 700 Gamma(3 - k, 4R) underflows to 0 while R^{2n} I_{n+5/2}(R) overflows: the
        # increments are NaN, and a NaN sum is not converged
        ev = t_abc_series(700.0, n_max=n_max)
        assert math.isnan(ev.value.real) and not ev.converged
        assert main(["eval", "t_abc_series", "--param", "R=700", "--param", f"n_max={n_max}"]) == EXIT_FLAGGED
        assert "converged = false" in capsys.readouterr().out

    @pytest.mark.parametrize("R", [0.05, 0.7, 7.0])
    def test_series_enters_the_gamma_ladder_once(self, R, monkeypatch):
        # every Gamma(a, 4R) of the series comes from one validated walk; one walk per order
        # would start 2 n_max + 3 of them
        walks = []

        def counted(a, z):
            walks.append((a, z))
            return specfun.gamma_walk(a, z)

        monkeypatch.setattr(ellipsoidal, "gamma_walk", counted)
        t_abc_series(R, n_max=20)
        assert walks == [(3.0, 4.0 * R)]

    @pytest.mark.parametrize("R, value, terms_used, converged", [
        # bits of the increments from the (2m+3)!!-scaled K walk and H recurrences, the float
        # Gamma walk's anchor and the scaled Miller I walk
        (0.05, "0x1.7c76fc4c40398p-2", 21, True),
        (0.49, "0x1.c8240c9dac698p-3", 21, True),
        (0.51, "0x1.b91f5e11efe67p-3", 21, True),
        (1.2, "0x1.bad9fc80958ddp-5", 21, True),
        (7.0, "0x1.ad75ab48b65c1p-27", 21, True),
    ])
    def test_series_values_pinned(self, R, value, terms_used, converged):
        ev = t_abc_series(R, n_max=20)
        assert (ev.value.real.hex(), ev.value.imag, ev.terms_used, ev.converged) == (
            value, 0.0, terms_used, converged)

    @pytest.mark.parametrize("R", [0.05, 0.49, 0.51, 1.2, 7.0])
    def test_partial_sums_replay_the_complex_kahan_loop(self, R):
        # the partial sums a complex Kahan loop over the terms stored, bit for bit, at the
        # pinned points; the float loop's value is the last of them
        ev = t_abc_series(R, n_max=20)
        want, s, comp = [], 0j, 0j
        for t in ev.terms:
            y = complex(t) - comp
            new_s = s + y
            comp = (new_s - s) - y
            s = new_s
            want.append(s)
        assert [(v.real.hex(), v.imag) for v in ev.partial_sums] == [(v.real.hex(), v.imag) for v in want]
        assert ev.value == want[-1]

    @pytest.mark.parametrize("R, n_max, value, terms_used, converged", [
        # the term budget (60) stops the first, the tail rule the second, both far short of
        # the Gamma orders -(2 n_max + 1) that an eager walk to n_max would reach
        (0.11, 300, "0x1.70b680175e56fp-2", 60, False),
        (0.0003, 59, "0x1.7ffff6d1e1fe1p-2", 4, True),
    ])
    def test_series_walks_no_deeper_than_it_sums(self, R, n_max, value, terms_used, converged):
        ev = t_abc_series(R, n_max=n_max)
        assert (ev.value.real.hex(), ev.terms_used, ev.converged) == (value, terms_used, converged)

    @pytest.mark.parametrize("R, message", [
        (1000.0, "bessel_i_walk: I_.* overflows"),
    ])
    def test_short_walk_raises_at_the_increment_that_needs_it(self, R, message):
        # both walks are read before the first increment; the error of one that stops short is
        # raised by the increment that needs its missing value, as a lazy read raised it
        with pytest.raises(CapacityError, match=message):
            t_abc_series(R, n_max=59, policy=TruncationPolicy(rel_tol=1e-300, max_terms=60))

    @pytest.mark.parametrize("R, n_max, order", [
        (150.0, 20, -19),  # the leading Gamma(-19, 600) is subnormal: increment 20 was 0.38 off
        (145.2, 20, -20),  # Gamma(-20, 580.8) is, and J = 1 carries a third of the anchor
        (42.4, 100, -104),  # Gamma(-104 .. -112, 169.6) underflow: the anchor would lose 2e-14
    ])
    def test_anchor_on_subnormal_gammas_raises(self, R, n_max, order):
        # the anchor's digits in Gamma(-a-J, 4R) below the normal doubles are not returned as a value
        with pytest.raises(CapacityError, match=rf"anchor of the eta walk .* reads Gamma\({order}, "):
            t_abc_series(R, n_max=n_max, policy=TruncationPolicy(rel_tol=1e-300, max_terms=n_max + 1))


class TestStallDetector:
    def test_geometric_sequence_never_stalls(self):
        rep = stall_detector(_fake_eval([2.0 ** (-n) for n in range(20)]), window=4)
        assert rep == StallReport(stalled=False, index=None, magnitude=None)

    def test_constant_tail_stalls_at_tail_value(self):
        rep = stall_detector(_fake_eval([1.0] + [0.5] * 10), window=4)
        assert rep.stalled and rep.magnitude == pytest.approx(0.5)

    @pytest.mark.parametrize("window", [True, False, 2.5, 3.0, math.nan, -1, "4"])
    def test_window_must_be_a_positive_integer(self, window):
        # as the series' own indices: bools and floats are not windows
        with pytest.raises(DomainError, match="stall_detector: window must be an integer >= 1"):
            stall_detector(_fake_eval([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03]), window=window)

    def test_window_validation(self):
        with pytest.raises(DomainError):
            stall_detector(_fake_eval([1.0, 0.5]), window=0)
        with pytest.raises(DomainError):
            stall_detector(_fake_eval([1.0, 0.5]), window=4)

    @pytest.mark.parametrize("R, scale", [(0.11, 1e-7), (0.011, 1e-10), (1.1, 1e-6)])
    def test_plateau_scale(self, R, scale):
        ev = t_abc_series(R, n_max=20)
        rep = stall_detector(ev, window=4)
        assert rep.stalled
        assert scale / 10.0 <= rep.magnitude <= scale * 10.0

    @pytest.mark.parametrize("R", [0.11, 0.011])
    def test_residual_bounded_by_plateau_budget(self, R):
        ev = t_abc_series(R, n_max=20)
        rep = stall_detector(ev, window=4)
        resid = abs(t_abc_exact(R) - ev.value.real)
        assert resid <= rep.magnitude * ev.terms_used

    def test_stalled_gap_at_large_separation(self):
        # the fourth-significant-digit stall: the residual stays above 1e-5
        ev = t_abc_series(1.1, n_max=20)
        assert t_abc_exact(1.1) - ev.value.real >= 1e-5
