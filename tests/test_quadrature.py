"""Adaptive quadrature engine: analytic values, error contract, 2-D nesting."""

import cmath
import math
import random

import pytest

from slater_addition import amplitudes
from slater_addition import specfun as sf
from slater_addition.cli import _s1_defining_2d
from slater_addition.errors import DomainError, QuadratureError
from slater_addition.quadrature import (
    _WG, _WGK, _XGK, _gk15, integrate_2d, integrate_finite, integrate_semi_infinite,
)
from slater_addition.theorems import YukawaFormParams, yukawa_form


def _gk15_complex_loop(f, a, b):
    """Reference panel: the node loop with every value and sum in complex."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = complex(f(mid))
    ik = _WGK[7] * fc
    ig = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        fv = complex(f(mid - dx)) + complex(f(mid + dx))
        ik += _WGK[i] * fv
        if i % 2 == 1:
            ig += _WG[i // 2] * fv
    ik *= half
    ig *= half
    return ik, abs(ik - ig)


class TestPanel:
    @pytest.mark.parametrize("f", [
        lambda t: math.exp(-t) * math.cos(3.0 * t) - 0.25,
        lambda t: cmath.exp(complex(-t, 2.0 * t)) / (1.0 + t * t),
        lambda t: math.sin(t) if t < 0.4 else complex(math.cos(t), -t),
    ], ids=["real", "complex", "mixed"])
    def test_matches_complex_loop_bit_for_bit(self, f):
        rng = random.Random(20261018)
        for _ in range(200):
            a = rng.uniform(-2.0, 2.0)
            b = a + 10.0 ** rng.uniform(-8.0, 1.0)
            value, err = _gk15(f, a, b)
            want_value, want_err = _gk15_complex_loop(f, a, b)
            assert type(value) is complex
            assert value == want_value
            assert err == want_err


class TestFinite:
    def test_linear_moment(self):
        res = integrate_finite(lambda t: t, 0.0, 1.0, 1e-12)
        assert res.converged and res.evaluations >= 15
        assert abs(res.value.real - 0.5) <= 1e-14

    def test_legendre_orthogonality(self):
        res = integrate_finite(lambda u: sf.legendre_p(2, u) ** 2, -1.0, 1.0, 1e-12)
        assert res.value.real == pytest.approx(2.0 / 5.0, rel=1e-12)

    def test_general_k_amplitude_value(self):
        # the tau-form amplitude integrand at the general-k reference point
        eta1, eta2, x2, k = 0.82, 0.66, 0.36, 0.19
        kx2 = k * x2

        def f(tau):
            ell = math.sqrt((1 - tau) * (k * k * tau + eta2**2) + eta1**2 * tau)
            return cmath.exp(complex(-x2 * ell, -kx2 * tau)) / ell

        res = integrate_finite(f, 0.0, 1.0, 1e-10)
        value = 2.0 * math.pi * res.value
        assert res.converged
        assert value.real == pytest.approx(6.4564, abs=1e-4)
        assert value.imag == pytest.approx(-0.210837, abs=1e-4)

    def test_complex_components_share_subdivision(self):
        res = integrate_finite(lambda t: cmath.exp(1j * t), 0.0, math.pi / 2, 1e-13)
        assert res.value.real == pytest.approx(1.0, rel=1e-12)
        assert res.value.imag == pytest.approx(1.0, rel=1e-12)

    def test_integrable_endpoint_singularity(self):
        res = integrate_finite(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, 1e-8)
        assert res.converged
        assert res.value.real == pytest.approx(2.0, rel=1e-7)

    def test_empty_interval_rejected(self):
        with pytest.raises(QuadratureError):
            integrate_finite(lambda t: t, 1.0, 1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-10])
    def test_tol_must_be_positive_and_finite(self, tol):
        # tol = nan stopped after one panel, converged: -3.0e-4 for an integral of 2.6e-7
        def f(x):
            return math.exp(-30 * x * x) * math.cos(40 * x)

        p = amplitudes.SlaterPair(0.8, 0.6, 0.5, 0.3)
        for route in (lambda: integrate_finite(f, 0.0, 1.0, tol),
                      lambda: integrate_semi_infinite(lambda x: math.exp(-x), 0.0, tol),
                      lambda: integrate_2d(lambda x, y: x * y, (0.0, 1.0, 0.0, 1.0), tol),
                      lambda: amplitudes.s1_tau_oracle(p, tol)):
            with pytest.raises(DomainError, match="tol"):
                route()

    def test_budget_exhaustion_is_flagged(self):
        res = integrate_finite(lambda t: math.sin(300.0 * t * t), 0.0, 20.0, 1e-12,
                               max_evals=300)
        assert not res.converged
        assert res.error_estimate > 0

    def test_linearity_on_random_polynomials(self):
        rng = random.Random(20240817)
        for _ in range(5):
            c1 = [rng.uniform(-2, 2) for _ in range(5)]
            c2 = [rng.uniform(-2, 2) for _ in range(5)]
            al, be = rng.uniform(-3, 3), rng.uniform(-3, 3)
            f = lambda t: sum(c * t**i for i, c in enumerate(c1))
            g = lambda t: sum(c * t**i for i, c in enumerate(c2))
            lhs = integrate_finite(lambda t: al * f(t) + be * g(t), -1.0, 2.0, 1e-12)
            rhs = (al * integrate_finite(f, -1.0, 2.0, 1e-12).value
                   + be * integrate_finite(g, -1.0, 2.0, 1e-12).value)
            tol = lhs.error_estimate + 1e-12
            assert abs(lhs.value - rhs) <= tol + 1e-12

    def test_halving_tol_never_worsens_golden_error(self):
        ref = math.pi
        errs = []
        tol = 1e-3
        while tol > 1e-13:
            res = integrate_finite(lambda t: 4.0 / (1.0 + t * t), 0.0, 1.0, tol)
            errs.append(abs(res.value.real - ref))
            tol /= 2.0
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15


class TestSemiInfinite:
    def test_unit_exponential(self):
        res = integrate_semi_infinite(lambda t: math.exp(-t), 0.0, 1e-12)
        assert res.value.real == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_second_moment(self):
        # int_0^inf e^{-(rho1+rho2) x^2} x^2 dx = sqrt(pi)/(4 (rho1+rho2)^{3/2}) at rho1+rho2 = 2
        res = integrate_semi_infinite(lambda x: math.exp(-2.0 * x * x) * x * x, 0.0, 1e-12)
        assert res.value.real == pytest.approx(math.sqrt(math.pi) / (4.0 * 2.0**1.5), rel=1e-11)

    def test_gaussian_transform_seed(self):
        # int_0^inf rho^{-1/2} e^{-C rho - x2^2/(4 rho)} drho = sqrt(pi/C) e^{-x2 sqrt(C)},
        # i.e. sqrt(pi) times the B = 0 closed form
        C, x2 = 0.11, 0.17
        res = integrate_semi_infinite(
            lambda r: math.exp(-C * r - x2 * x2 / (4.0 * r)) / math.sqrt(r), 0.0, 1e-11
        )
        closed = math.sqrt(math.pi) * yukawa_form(YukawaFormParams(B=0.0, C=C, k=0.5, x2=x2))
        assert res.value.real == pytest.approx(closed.real, rel=1e-10)
        assert res.value.real == pytest.approx(math.sqrt(math.pi / C) * math.exp(-x2 * math.sqrt(C)), rel=1e-10)

    def test_shifted_origin(self):
        res = integrate_semi_infinite(lambda t: math.exp(-t), 3.0, 1e-12)
        assert res.value.real == pytest.approx(math.exp(-3.0), rel=1e-11)


class TestTwoDimensional:
    def test_unit_square(self):
        res = integrate_2d(lambda x, y: 1.0, (0.0, 1.0, 0.0, 1.0), 1e-10)
        assert res.converged
        assert res.value.real == pytest.approx(1.0, rel=1e-12)

    def test_two_centre_reference_value(self):
        R = 0.11

        def f(lam, mu):
            root = math.sqrt(max(lam * lam + mu * mu - 1.0, 0.0))
            poly = (lam - mu) / R + (lam * lam - mu * mu)
            return 2.0 * R**3 * poly * math.exp(-3.0 * R * lam - R * mu - R * root)

        res = integrate_2d(f, (1.0, math.inf, -1.0, 1.0), 1e-8)
        assert res.converged
        assert res.value.real == pytest.approx(0.360071, abs=1e-5)

    def test_defining_amplitude_integral(self):
        # int d^3x1 (e^{-eta1 x1}/x1)(e^{-eta2 x12}/x12) at the reconstruction point
        eta1, eta2, x2 = 0.11, 0.13, 0.17

        def f(x1, u):
            x12 = math.sqrt(x1 * x1 - 2.0 * x1 * x2 * u + x2 * x2)
            return 2.0 * math.pi * x1 * math.exp(-eta1 * x1 - eta2 * x12) / x12

        res = integrate_2d(f, (0.0, math.inf, -1.0, 1.0), 1e-7)
        assert res.converged
        assert res.value.real == pytest.approx(51.3025821, rel=1e-6)


class TestS1DefiningOracle:
    @pytest.mark.parametrize("eta1, eta2, x2", [
        (1.2340591979700124, 0.8132778399726039, 0.6180776076027422),
        (1.0635752976061903, 1.1687853792236353, 0.33460864566165105),
    ])
    def test_meets_its_tolerance_near_x12_zero(self, eta1, eta2, x2):
        # the outer x1 range is split at the kink x1 = x2; without the split
        # these points were 2.2e-6 and 5.5e-6 off at a 2e-8 request
        res = _s1_defining_2d(eta1, eta2, x2, 2e-8)
        ref = amplitudes.s1_two_slater_closed(amplitudes.SlaterPair(eta1, eta2, x2))
        assert res.converged
        assert abs(res.value - ref) <= 2e-8 * abs(ref)


class TestPathologies:
    def test_nan_integrand_is_flagged_not_silent(self):
        res = integrate_finite(lambda t: float("nan") if 0.4 < t < 0.6 else t, 0.0, 1.0, 1e-10)
        assert not res.converged
        assert math.isinf(res.error_estimate)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("scale", [1.0, 1.0 - 2.0j])
    @pytest.mark.parametrize("cut", [0.6, 1e-3], ids=["first-panel", "after-bisection"])
    def test_bad_node_value_in_float_or_complex_is_flagged(self, bad, scale, cut):
        # below the cut the integrand is bad: the first panel's nodes reach 0.6,
        # 1e-3 only after the 1/sqrt(t) singularity has forced bisections
        res = integrate_finite(lambda t: scale * (bad if t < cut else 1.0 / math.sqrt(t)),
                               0.0, 1.0, 1e-10)
        assert not res.converged
        assert math.isinf(res.error_estimate)

    def test_infinite_integrand_is_flagged(self):
        res = integrate_finite(
            lambda t: math.inf if abs(t - 0.5) < 1e-3 else t, 0.0, 1.0, 1e-10
        )
        assert not res.converged
        assert math.isinf(res.error_estimate)
