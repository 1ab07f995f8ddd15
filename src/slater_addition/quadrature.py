"""Adaptive Gauss-Kronrod integration used as the independent oracle.

A 7/15 Gauss-Kronrod pair drives globally-adaptive bisection with the
largest-error interval refined first.  One panel serves float and complex
integrands, each in its own number type: a float integrand is summed in
float arithmetic, a complex one in ``complex``, where both components share
one subdivision.  Panel values are returned as ``complex`` either way.
Semi-infinite ranges are mapped to [0, 1) with t = a + u/(1-u);
two-dimensional product domains nest one adaptive pass inside another with a
tighter inner tolerance.

Stopping is absolute-plus-relative: an integral is converged once the summed
interval errors fall below ``tol * |value| + 1e-15``.  A result that exhausts
its evaluation budget is returned flagged, never silently.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import math
from dataclasses import dataclass

from .errors import DomainError, QuadratureError

__all__ = [
    "QuadratureResult",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_2d",
]

ABS_FLOOR = 1e-15
DEFAULT_BUDGET = 1_000_000

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = (
    0.9914553711208126392069,
    0.9491079123427585245262,
    0.8648644233597690727897,
    0.7415311855993944398639,
    0.5860872354676911302941,
    0.4058451513773971669066,
    0.2077849550078984676007,
    0.0,
)
_WGK = (
    0.0229353220105292249637,
    0.0630920926299785532907,
    0.1047900103222501838399,
    0.1406532597155259187452,
    0.1690047266392679028266,
    0.1903505780647854099133,
    0.2044329400752988924142,
    0.2094821410847278280130,
)
_WG = (
    0.1294849661688696932706,
    0.2797053914892766679015,
    0.3818300505051189449504,
    0.4179591836734693877551,
)


@dataclass
class QuadratureResult:
    """Value with error estimate from the oracle integrator."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool

    def raise_if_not_converged(self, context: str = "integral") -> None:
        if not self.converged:
            raise QuadratureError(
                f"{context}: quadrature budget exhausted "
                f"(value ~ {self.value}, error ~ {self.error_estimate:.3e})",
                value=self.value,
                error_estimate=self.error_estimate,
            )


def _gk15(f, a: float, b: float) -> tuple[complex, float]:
    """One Gauss-Kronrod 7/15 panel on [a, b]: (K15 value, |K15 - G7|).

    Unrolled, with the sums in f's own number type: a float integrand stays
    in float arithmetic and a complex value promotes the sums.  The K15 sum
    runs over the node pairs in order and the G7 sum over the odd pairs, so
    the result is bit-identical to the same sums done in ``complex``.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x0, x1, x2, x3, x4, x5, x6, _ = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    d0, d1, d2, d3 = half * x0, half * x1, half * x2, half * x3
    d4, d5, d6 = half * x4, half * x5, half * x6
    fc = f(mid)
    f0 = f(mid - d0) + f(mid + d0)
    f1 = f(mid - d1) + f(mid + d1)
    f2 = f(mid - d2) + f(mid + d2)
    f3 = f(mid - d3) + f(mid + d3)
    f4 = f(mid - d4) + f(mid + d4)
    f5 = f(mid - d5) + f(mid + d5)
    f6 = f(mid - d6) + f(mid + d6)
    ik = (w7 * fc + w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3 + w4 * f4 + w5 * f5 + w6 * f6) * half
    ig = (g3 * fc + g0 * f1 + g1 * f3 + g2 * f5) * half
    return complex(ik), abs(ik - ig)


def _is_bad(value: complex, err: float) -> bool:
    return math.isnan(err) or cmath.isnan(value) or cmath.isinf(value)


def integrate_finite(f, a: float, b: float, tol: float = 1e-10,
                     max_evals: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Adaptive integral of f over [a, b] to relative tolerance tol.

    f may return float or complex; endpoint values are never requested, so
    integrable endpoint singularities are admissible.  A NaN or infinity from
    the integrand flags the result as non-converged instead of poisoning a
    "converged" answer.  DomainError unless tol is positive and finite.
    """
    if not 0 < tol < math.inf:
        raise DomainError(f"integrate_finite: tol = {tol}, must be positive and finite")
    if not a < b:
        raise QuadratureError(f"integrate_finite: empty interval [{a}, {b}]")
    ik, err = _gk15(f, a, b)
    evals = 15
    if _is_bad(ik, err):
        return QuadratureResult(ik, math.inf, evals, False)
    heap = [(-err, a, b, ik, err)]
    total = ik
    total_err = err
    while total_err > tol * abs(total) + ABS_FLOOR:
        if evals + 30 > max_evals or not heap:
            return QuadratureResult(total, total_err, evals, False)
        neg_err, xa, xb, ikp, errp = heapq.heappop(heap)
        xm = 0.5 * (xa + xb)
        if xm <= xa or xm >= xb:  # interval at rounding resolution; leave its error in place
            continue
        ik1, e1 = _gk15(f, xa, xm)
        ik2, e2 = _gk15(f, xm, xb)
        evals += 30
        if _is_bad(ik1, e1) or _is_bad(ik2, e2):
            return QuadratureResult(total, math.inf, evals, False)
        total += ik1 + ik2 - ikp
        total_err += e1 + e2 - errp
        heapq.heappush(heap, (-e1, xa, xm, ik1, e1))
        heapq.heappush(heap, (-e2, xm, xb, ik2, e2))
    return QuadratureResult(total, total_err, evals, True)


def integrate_semi_infinite(f, a: float, tol: float = 1e-10,
                            max_evals: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Adaptive integral of f over [a, inf) for integrands with exponential decay.

    Uses the compactifying map t = a + u/(1-u).  Overflow while evaluating
    the far tail is treated as an exactly-vanishing contribution, which is
    sound only because of the decay precondition.
    """

    def g(u: float):
        w = 1.0 - u
        if w <= 0.0:  # only reachable through rounding of very deep panels
            return 0.0
        try:
            return f(a + u / w) / (w * w)
        except OverflowError:
            return 0.0

    return integrate_finite(g, 0.0, 1.0, tol, max_evals)


def integrate_2d(f, domain: tuple[float, float, float, float], tol: float = 1e-8,
                 max_evals: int = DEFAULT_BUDGET) -> QuadratureResult:
    """Nested adaptive integral of f(x, y) over [ax, bx] x [ay, by].

    bx may be math.inf.  The inner (y) integral runs at a twentieth of the
    requested tolerance; its worst error is folded into the outer estimate.
    """
    ax, bx, ay, by = domain
    inner_tol = tol / 20.0
    inner_budget = min(50_000, max(2000, max_evals // 100))
    state = {"evals": 0, "inner_err": 0.0, "inner_ok": True}

    def outer_integrand(x: float):
        res = integrate_finite(functools.partial(f, x), ay, by, inner_tol, inner_budget)
        state["evals"] += res.evaluations
        state["inner_err"] = max(state["inner_err"], res.error_estimate)
        state["inner_ok"] = state["inner_ok"] and res.converged
        return res.value

    if math.isinf(bx):
        outer = integrate_semi_infinite(outer_integrand, ax, tol, max_evals)
    else:
        outer = integrate_finite(outer_integrand, ax, bx, tol, max_evals)
    return QuadratureResult(
        value=outer.value,
        error_estimate=outer.error_estimate + state["inner_err"],
        evaluations=state["evals"],
        converged=outer.converged and state["inner_ok"] and state["evals"] <= max_evals,
    )
