"""Golden reproduction suite.

Each check re-evaluates one golden numeric anchor (a reference series term,
block value, or closed-form total) or one structural property, at a pinned
tolerance.  The same registry backs ``slater-addition reproduce`` and the
acceptance test module, so there is exactly one source of truth for the
golden constants.

Note the two golden tuples for the (B, C, k, x2) series: the base series is
anchored at x2 = 0.23, k = 0.17 while the derivative and Meijer-G series are
anchored at x2 = 0.17, k = 0.23.  Each set of reference terms is reproducible
only at its own tuple (swapping the base tuple back moves its leading term
from 2.79367 to 2.84982).
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass
from typing import Callable

from . import amplitudes, ellipsoidal, theorems
from .specfun import bessel_k_half, upper_incomplete_gamma
from .theorems import TruncationPolicy, YukawaFormParams

__all__ = ["CheckResult", "CHECKS", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(got: float, want: float, atol: float) -> bool:
    return abs(got - want) <= atol


def _fmt(x: complex | float, digits: int = 9) -> str:
    """``digits`` significant digits, complex as ``re+imi``; the CLI prints with it too."""
    if isinstance(x, complex):
        if x.imag == 0:
            return f"{x.real:.{digits}g}"
        return f"{x.real:.{digits}g}{x.imag:+.{digits}g}i"
    return f"{x:.{digits}g}"


# -- criterion 1: base series golden point ----------------------------------

_T1_POINT = YukawaFormParams(B=0.13, C=0.11, k=0.17, x2=0.23)
_T1_TERMS = (2.79367, -0.051348, 0.001318, -0.000038)


def chk_theorem1_terms() -> tuple[bool, str]:
    got = [theorems.theorem1_term(n, _T1_POINT).real for n in range(4)]
    ok = all(_close(g, w, 5e-6) for g, w in zip(got, _T1_TERMS))
    return ok, f"terms {[_fmt(g) for g in got]} vs {_T1_TERMS} (atol 5e-6)"


def chk_theorem1_sum() -> tuple[bool, str]:
    s4 = sum(theorems.theorem1_term(n, _T1_POINT).real for n in range(4))
    closed = theorems.yukawa_form(_T1_POINT).real
    ok = _close(s4, closed, 5e-4) and _close(s4, 2.7436, 5e-4)
    return ok, f"4-term sum {s4:.6f} vs closed {closed:.6f} vs 2.7436 (atol 5e-4)"


# -- criterion 2: derivative series, untransposed point ----------------------

_T5_POINT = YukawaFormParams(B=0.13, C=0.11, k=0.23, x2=0.17)
_T5_TERMS = (0.945177, -0.001665, 0.000028, -8.6e-8)


def chk_theorem5_terms() -> tuple[bool, str]:
    got = [theorems.theorem5_term(n, _T5_POINT).real for n in range(4)]
    ok = all(_close(g, w, 5e-6) for g, w in zip(got, _T5_TERMS))
    return ok, f"terms {[_fmt(g) for g in got]} vs {_T5_TERMS} (atol 5e-6)"


def chk_theorem5_sum() -> tuple[bool, str]:
    ev = theorems.theorem5_eval(_T5_POINT)
    closed = theorems._theorem6_closed(1, _T5_POINT).real
    ok = ev.converged and _close(ev.value.real, closed, 5e-6)
    return ok, f"sum {ev.value.real:.8f} vs closed {closed:.8f} (atol 5e-6)"


# -- criterion 3: Meijer-G generalisation -----------------------------------

_T6_TERMS_J2 = (0.31348, 0.00924, -0.000161, 0.000005)


def chk_theorem6_j0_j1() -> tuple[bool, str]:
    worst = 0.0
    for n in range(4):
        t0 = theorems.theorem6_term(0, n, _T5_POINT).real
        t1r = theorems.theorem1_term(n, _T5_POINT).real
        t5g = theorems.theorem6_term(1, n, _T5_POINT).real
        t5r = theorems.theorem5_term(n, _T5_POINT).real
        worst = max(worst, abs(t0 - t1r) / abs(t1r), abs(t5g - t5r) / abs(t5r))
    return worst <= 1e-6, f"worst relative term mismatch {worst:.2e} (tol 1e-6)"


def chk_theorem6_j2() -> tuple[bool, str]:
    got = [theorems.theorem6_term(2, n, _T5_POINT).real for n in range(4)]
    terms_ok = all(_close(g, w, 5e-5) for g, w in zip(got, _T6_TERMS_J2))
    closed = theorems._theorem6_closed(2, _T5_POINT).real
    sum_ok = _close(sum(got), closed, 5e-4) and _close(sum(got), 0.32257, 5e-4)
    return terms_ok and sum_ok, (
        f"terms {[_fmt(g) for g in got]} vs {_T6_TERMS_J2}; sum {sum(got):.6f} "
        f"vs closed {closed:.6f} vs 0.32257"
    )


# -- criterion 4: general-k amplitude ----------------------------------------

_S4_PAIR = amplitudes.SlaterPair(eta1=0.82, eta2=0.66, x2=0.36, k=0.19)
_S4_ORACLE = complex(6.4564, -0.210837)
_S4_N0 = complex(6.50124, -0.212271)
_S4_N01 = complex(6.45601, -0.210825)


def chk_s4_tau_oracle() -> tuple[bool, str]:
    res = amplitudes.s1_tau_oracle(_S4_PAIR, tol=1e-7)
    ok = (
        res.converged
        and _close(res.value.real, _S4_ORACLE.real, 1e-4)
        and _close(res.value.imag, _S4_ORACLE.imag, 1e-4)
    )
    return ok, f"oracle {_fmt(res.value)} vs reference {_fmt(_S4_ORACLE)} (atol 1e-4/component)"


def chk_s4_n0_closed() -> tuple[bool, str]:
    v = amplitudes.s1_n0_erf_closed(_S4_PAIR)
    ok = _close(v.real, _S4_N0.real, 5e-5) and _close(v.imag, _S4_N0.imag, 5e-5)
    return ok, f"n=0 closed {_fmt(v)} vs {_fmt(_S4_N0)} (atol 5e-5/component)"


def chk_s4_first_two_terms() -> tuple[bool, str]:
    s = sum(amplitudes.s1_series_n_term(n, _S4_PAIR) for n in range(2))
    ok = _close(s.real, _S4_N01.real, 5e-5) and _close(s.imag, _S4_N01.imag, 5e-5)
    return ok, f"n<=1 sum {_fmt(s)} vs {_fmt(_S4_N01)} (atol 5e-5/component)"


def chk_s4_tail_magnitudes() -> tuple[bool, str]:
    m2 = abs(amplitudes.s1_series_n_term(2, _S4_PAIR))
    m3 = abs(amplitudes.s1_series_n_term(3, _S4_PAIR))
    ok = 2.5e-4 <= m2 <= 1e-3 and 2.5e-6 <= m3 <= 1e-5
    return ok, f"|n=2| = {m2:.2e} (~5e-4), |n=3| = {m3:.2e} (~5e-6), factor-2 bands"


# -- criterion 5: double-series reconstruction, unequal exponents ------------

_T3_PAIR = amplitudes.SlaterPair(eta1=0.11, eta2=0.13, x2=0.17)
_T3_CLOSED = 51.3025821
_T3_N0_K = (39.1836, 8.45916, 2.008, 0.499656, 0.127812, 0.033291, 0.008782, 0.002339, 0.000628)
_T3_BLOCKS = (0.632872, 0.137535, 0.0593952, 0.033087)


def chk_theorem3_closed() -> tuple[bool, str]:
    v = amplitudes.s1_two_slater_closed(_T3_PAIR)
    return _close(v, _T3_CLOSED, 1e-7), f"closed {v:.7f} vs {_T3_CLOSED} (atol 1e-7)"


def chk_theorem3_n0_k_terms() -> tuple[bool, str]:
    ks = amplitudes.theorem3_block_k_terms(0, _T3_PAIR, k_max=9)
    terms_ok = all(_close(g, w, 5e-4) for g, w in zip(ks, _T3_N0_K))
    block = math.fsum(ks[:9])
    block_ok = _close(block, 50.3232, 5e-4)
    return terms_ok and block_ok, (
        f"nine k-terms worst diff "
        f"{max(abs(g - w) for g, w in zip(ks, _T3_N0_K)):.1e}; 9-term block {block:.4f} vs 50.3232"
    )


def _t3_blocks() -> list[float]:
    pol = TruncationPolicy(rel_tol=1e-12, max_terms=200, tail_window=2)
    return [
        math.fsum(amplitudes.theorem3_block_k_terms(n, _T3_PAIR, k_max=80, policy=pol))
        for n in (2, 4, 6, 8)
    ]


def chk_theorem3_blocks() -> tuple[bool, str]:
    got = _t3_blocks()
    ok = all(_close(g, w, 5e-5) for g, w in zip(got, _T3_BLOCKS))
    return ok, f"blocks {[f'{g:.6f}' for g in got]} vs {_T3_BLOCKS} (atol 5e-5)"


def chk_theorem3_total() -> tuple[bool, str]:
    block0 = math.fsum(amplitudes.theorem3_block_k_terms(0, _T3_PAIR, k_max=9))
    total = block0 + math.fsum(_t3_blocks())
    return _close(total, 51.1861, 1e-3), f"five-block total {total:.4f} vs 51.1861 (atol 1e-3)"


# -- criterion 6: equal exponents --------------------------------------------

_T4_BLOCKS = (46.3079, 0.623416, 0.136682, 0.0591038)


def chk_theorem4() -> tuple[bool, str]:
    closed = amplitudes.s1_equal_eta_closed(0.13, 0.17)
    got = [amplitudes.theorem4_block(n, 0.13, 0.17) for n in (0, 2, 4, 6)]
    blocks_ok = all(_close(g, w, 5e-4) for g, w in zip(got, _T4_BLOCKS))
    total = math.fsum(got)
    ok = (
        _close(closed, 47.27577, 5e-5)
        and blocks_ok
        and _close(total, 47.1271, 1e-3)
    )
    return ok, (
        f"closed {closed:.5f} vs 47.27577; blocks {[f'{g:.6f}' for g in got]}; "
        f"total {total:.4f} vs 47.1271"
    )


# -- criterion 7: ellipsoidal case study -------------------------------------

_TABC_INCREMENTS = (0.356284, 0.003537, 0.00019, 0.000036, 0.000013, 0.000005)


def chk_tabc_exact() -> tuple[bool, str]:
    v = ellipsoidal.t_abc_exact(0.11)
    oracle = ellipsoidal.t_abc_oracle(0.11, tol=1e-9)
    ok = (
        _close(v, 0.360071, 1e-6)
        and oracle.converged
        and abs(v - oracle.value.real) <= max(oracle.error_estimate, 1e-7)
    )
    return ok, (
        f"exact {v:.7f} vs 0.360071 (atol 1e-6); oracle {oracle.value.real:.7f} "
        f"+/- {oracle.error_estimate:.1e}"
    )


def chk_tabc_series() -> tuple[bool, str]:
    ev = ellipsoidal.t_abc_series(0.11, n_max=6)
    got = [t.real for t in ev.terms[:6]]
    inc_ok = all(_close(g, w, 5e-6) for g, w in zip(got, _TABC_INCREMENTS))
    s6 = math.fsum(got)
    return inc_ok and _close(s6, 0.360061, 1e-5), (
        f"increments worst diff {max(abs(g - w) for g, w in zip(got, _TABC_INCREMENTS)):.1e}; "
        f"six-term sum {s6:.6f} vs 0.360061"
    )


def chk_tabc_plateaus() -> tuple[bool, str]:
    details = []
    ok = True
    for R, scale in ((0.11, 1e-7), (0.011, 1e-10), (1.1, 1e-6)):
        ev = ellipsoidal.t_abc_series(R, n_max=20)
        rep = ellipsoidal.stall_detector(ev, window=4)
        good = rep.stalled and scale / 10.0 <= rep.magnitude <= scale * 10.0
        ok = ok and good
        details.append(f"R={R}: plateau {rep.magnitude:.1e} (~{scale:.0e})")
    return ok, "; ".join(details)


# -- criterion 8: property suite ---------------------------------------------

def chk_one_vs_two_range_grid() -> tuple[bool, str]:
    eta = 0.8
    worst = 0.0
    for x1 in (0.5, 1.0, 1.8):
        for x2 in (0.6, 1.15, 2.2):
            for ct in (-0.6, 0.1, 0.7):
                cfg = theorems.CorollaryConfig(variant="C4", eta=eta, x1=x1, x2=x2, cos_theta=ct)
                one = theorems.theorem1_eval(theorems.corollary_to_params(cfg)).value.real
                two = theorems.two_range_mos_eval(eta, x1, x2, ct, n_terms=84)
                worst = max(worst, abs(one - two) / abs(two))
    return worst <= 1e-6, f"3x3x3 grid worst relative gap {worst:.2e} (tol 1e-6)"


def chk_corollary_mutual() -> tuple[bool, str]:
    x1, x2, ct, eta = 0.3, 0.17, 0.4, 0.13
    direct = theorems._slater_direct(theorems.CorollaryConfig("C4", eta, x1, x2, ct))
    results = {}
    for variant in ("C1", "C2", "C3", "C4"):
        cfg = theorems.CorollaryConfig(variant=variant, eta=eta, x1=x1, x2=x2, cos_theta=ct)
        ev = theorems.theorem1_eval(theorems.corollary_to_params(cfg))
        results[variant] = ev
    converged = {v: ev for v, ev in results.items() if ev.converged}
    ok = set(converged) == {"C2", "C4"} and all(
        abs(ev.value.real - direct) / direct <= 1e-6 for ev in converged.values()
    )
    return ok, (
        f"direct {direct:.7f}; converged {sorted(converged)} at "
        f"{[f'{ev.value.real:.7f}' for ev in converged.values()]}; C1/C3 flagged divergent"
    )


def chk_gamma_recurrence() -> tuple[bool, str]:
    worst = 0.0
    for a in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        for z in (0.0221, 0.5, 2.3, 5.0, 1.5 + 0.5j, 0.3 - 0.8j):
            lhs = upper_incomplete_gamma(a + 1.0, z)
            rhs = a * upper_incomplete_gamma(a, z) + z**a * cmath.exp(-z)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst <= 1e-10, f"worst relative recurrence defect {worst:.2e} (tol 1e-10)"


def chk_k_half_closed_form() -> tuple[bool, str]:
    worst = 0.0
    for z in (0.05638, 0.5, 2.0, 7.0, 1.0 + 1.0j):
        got = bessel_k_half(0, z)
        want = cmath.sqrt(math.pi / (2 * z)) * cmath.exp(-z)
        worst = max(worst, abs(got - want) / abs(want))
    return worst <= 1e-15, f"K_(1/2) worst relative defect {worst:.2e}"


def chk_theorem2_grid() -> tuple[bool, str]:
    worst = 0.0
    for eta2 in (0.5, 1.0, 2.0):
        for x1 in (0.5, 1.0, 2.0):
            for x2 in (0.5, 1.0, 2.0):
                closed = amplitudes.theorem2_angular(eta2, x1, x2)
                quad = amplitudes._theorem2_oracle(eta2, x1, x2)
                worst = max(worst, abs(closed - quad) / abs(closed))
    return worst <= 1e-8, f"worst relative gap vs oracle {worst:.2e} (tol 1e-8)"


def chk_theorem3_imag_residue() -> tuple[bool, str]:
    ev = amplitudes.theorem3_series(_T3_PAIR, amplitudes.SeriesIndexBounds(n_max=8, k_max=60))
    resid = abs(ev.value.imag)
    return resid < 1e-12, f"imaginary residue {resid:.1e} (bound 1e-12)"


def chk_cancellation_metric() -> tuple[bool, str]:
    eta, x2, ct = 0.13, 1.0, 0.4
    x1 = 0.9 * x2
    tr_terms = theorems.two_range_mos_terms(eta, x1, x2, ct, 60)
    tr_metric = max(abs(t) for t in tr_terms) / abs(math.fsum(tr_terms))
    cfg = theorems.CorollaryConfig(variant="C4", eta=eta, x1=x1, x2=x2, cos_theta=ct)
    ev = theorems.theorem1_eval(theorems.corollary_to_params(cfg))
    c4_metric = max(abs(t) for t in ev.terms) / abs(ev.value)
    return tr_metric > c4_metric, (
        f"two-range max|term|/|sum| = {tr_metric:.3f} > one-range {c4_metric:.3f}"
    )


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("theorem1-golden-terms", chk_theorem1_terms),
    ("theorem1-golden-sum", chk_theorem1_sum),
    ("theorem5-golden-terms", chk_theorem5_terms),
    ("theorem5-golden-sum", chk_theorem5_sum),
    ("theorem6-j0-j1-reduction", chk_theorem6_j0_j1),
    ("theorem6-j2-golden", chk_theorem6_j2),
    ("amplitude-tau-oracle", chk_s4_tau_oracle),
    ("amplitude-n0-erf-closed", chk_s4_n0_closed),
    ("amplitude-two-term-sum", chk_s4_first_two_terms),
    ("amplitude-tail-magnitudes", chk_s4_tail_magnitudes),
    ("theorem3-closed-form", chk_theorem3_closed),
    ("theorem3-n0-k-terms", chk_theorem3_n0_k_terms),
    ("theorem3-higher-blocks", chk_theorem3_blocks),
    ("theorem3-five-block-total", chk_theorem3_total),
    ("theorem4-blocks-and-total", chk_theorem4),
    ("ellipsoidal-exact-and-oracle", chk_tabc_exact),
    ("ellipsoidal-series-increments", chk_tabc_series),
    ("ellipsoidal-plateaus", chk_tabc_plateaus),
    ("property-one-vs-two-range", chk_one_vs_two_range_grid),
    ("property-corollary-mutual", chk_corollary_mutual),
    ("property-gamma-recurrence", chk_gamma_recurrence),
    ("property-k-half-closed-form", chk_k_half_closed_form),
    ("property-theorem2-oracle", chk_theorem2_grid),
    ("property-theorem3-imag-residue", chk_theorem3_imag_residue),
    ("property-cancellation-metric", chk_cancellation_metric),
)


def run_checks(name_filter: str | None = None) -> list[CheckResult]:
    """Run the golden suite, optionally restricted to names containing the filter."""
    out: list[CheckResult] = []
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        out.append(CheckResult(name=name, passed=passed, detail=detail))
    return out
