"""Command-line front end.

    slater-addition eval    <target> [--scenario FILE] [--param k=v ...]
    slater-addition compare <target> [--tol X] ...
    slater-addition table   <target> [--format csv|json] [--out FILE] ...
    slater-addition reproduce [--filter NAME]

Every public operation of the library is reachable as an eval target;
compare pairs a target with its registered oracle (an independent quadrature
or a closed form); table renders per-term report rows as CSV or JSON.

The TARGETS table is the single declaration of every target's parameters:
the signature of its ``run(ctx, **params)`` names them, and a default makes
one optional.  One name -> type map (``_TYPES``) coerces them for every
target: integer parameters must take integral values, every other number
must be finite and not a boolean, and an unknown key, on the command line or
in a scenario file, is an error.  The comparison tolerance (``--tol`` or
``tol =``) must be finite and > 0.

Scenario files are plain ``key = value`` lines with ``#`` comments and
complex values written ``re+imi``.  Exit codes: 0 success/converged,
1 usage or domain error, 2 truncation or tolerance failure, 3 failed
reproduction checks.  Every series runs under the default TruncationPolicy
(at most 60 terms).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import inspect
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable

from . import amplitudes, ellipsoidal, reproduce, specfun, theorems
from .errors import SlaterAdditionError
from .quadrature import QuadratureResult, integrate_2d, integrate_finite, integrate_semi_infinite
from .reproduce import _fmt
from .theorems import CorollaryConfig, SeriesEvaluation, YukawaFormParams

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2
EXIT_REPRODUCE_FAILED = 3

_RESERVED_KEYS = ("target", "format", "tol", "out")
_INT_RE = re.compile(r"^[+-]?\d+$")

# The type of every target parameter, by name.  ``a`` and ``C`` pass through
# as parsed: Gamma(a, z) takes half-integer a, kummer_1f1 checks its own
# integer a, and C may be negative or complex.
_TYPES = {
    **dict.fromkeys(("n", "j", "b", "n_max", "n_terms", "window"), int),
    **dict.fromkeys(("B", "k", "x2", "eta", "x1", "cos_theta", "y1", "z1", "z2", "eta1", "eta2",
                     "k_dot_x2", "quad_tol", "R", "x", "u", "mu", "arg"), float),
    "z": complex,
    "variant": str,
}


class UsageError(SlaterAdditionError):
    pass


def parse_value(text: str):
    """Parse a scenario value: int, float, ``re+imi`` complex, bool, or string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if _INT_RE.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        pass
    if low.endswith("i"):
        try:
            return complex(low.replace(" ", "").replace("i", "j"))
        except ValueError:
            pass
    return s


def _coerce(name: str, value):
    """``value`` as the ``_TYPES`` type of ``name``; int values are checked, not cast, and
    any other number (also an untyped one) must be finite and not a boolean."""
    kind = _TYPES.get(name)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind is int and type(value) is not int:
        raise UsageError(f"parameter {name} must be an integer, got {value!r}")
    if kind in (float, complex, None) and not isinstance(value, str):
        try:
            finite = not isinstance(value, bool) and cmath.isfinite(value)
        except OverflowError:  # an integer beyond double precision
            finite = False
        if not finite:
            raise UsageError(f"parameter {name} must be a finite number, got {value!r}")
    return kind(value) if kind in (float, complex, str) else value


def parse_scenario_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = parse_value(val)
    return out


@dataclass
class Outcome:
    """What one target evaluation produced."""

    value: complex | float | None
    series: SeriesEvaluation | None = None
    quad: QuadratureResult | None = None
    text: str | None = None


def _outcome(result) -> Outcome:
    """A target's or oracle's return: an Outcome, a series, a quadrature, or a bare value."""
    if isinstance(result, Outcome):
        return result
    if isinstance(result, SeriesEvaluation):
        return Outcome(value=result.value, series=result)
    if isinstance(result, QuadratureResult):
        return Outcome(value=result.value, quad=result)
    return Outcome(value=result)


@dataclass(frozen=True)
class Target:
    """``run(ctx, **params)``'s signature declares the parameters; ``oracle`` takes them too."""

    run: Callable[..., object]
    oracle: Callable[..., object] | None
    covers: tuple[str, ...]


@dataclass
class Context:
    tol: float


# ---------------------------------------------------------------------------
# target registry
# ---------------------------------------------------------------------------

def _oracle_tol(ctx: Context) -> float:
    # quadrature oracles run well below the comparison tolerance
    return max(min(ctx.tol / 50.0, 1e-7), 1e-10)


def _k_half_integral_oracle(ctx: Context, n: int, z: complex, **_) -> QuadratureResult:
    if z.imag != 0 or z.real <= 0:
        raise UsageError("bessel_k_half oracle needs real z > 0")
    nu = n + 0.5
    return integrate_semi_infinite(
        lambda t: math.exp(-z.real * math.cosh(t)) * math.cosh(nu * t), 0.0, 1e-12
    )


def _i_half_integral_oracle(ctx: Context, n: int, x: float) -> float:
    nu = n + 0.5
    part1 = integrate_finite(
        lambda th: math.exp(x * math.cos(th)) * math.cos(nu * th), 0.0, math.pi, 1e-12
    ).value / math.pi
    sin_pi_nu = -1.0 if n % 2 else 1.0
    part2 = integrate_semi_infinite(
        lambda t: math.exp(-x * math.cosh(t) - nu * t), 0.0, 1e-12
    ).value * sin_pi_nu / math.pi
    return part1 - part2


def _gamma_ray_oracle(ctx: Context, a: float, z: complex) -> QuadratureResult:
    return integrate_semi_infinite(
        lambda u: (z + u) ** (a - 1.0) * cmath.exp(-(z + u)), 0.0, 1e-12
    )


def _erf_ray_oracle(ctx: Context, z: complex) -> complex:
    res = integrate_finite(lambda u: cmath.exp(-(z * u) ** 2), 0.0, 1.0, 1e-13)
    return 2.0 * z / math.sqrt(math.pi) * res.value


def _kummer_oracle(ctx: Context, a: int, b: int, z: complex) -> complex:
    if b <= a:
        raise UsageError("kummer oracle needs b > a")
    beta = specfun.factorial(a - 1) * specfun.factorial(b - a - 1) / specfun.factorial(b - 1)
    res = integrate_finite(
        lambda t: cmath.exp(z * t) * t ** (a - 1.0) * (1.0 - t) ** (b - a - 1.0),
        0.0, 1.0, 1e-12,
    )
    return res.value / beta


def _legendre_explicit(ctx: Context, n: int, u: float) -> float:
    return 2.0 ** (-n) * math.fsum(
        math.comb(n, k) ** 2 * (u - 1.0) ** (n - k) * (u + 1.0) ** k for k in range(n + 1)
    )


def _hermite_explicit(ctx: Context, j: int, x: float) -> float:
    return specfun.factorial(j) * math.fsum(
        (-1.0) ** m * (2.0 * x) ** (j - 2 * m) / (specfun.factorial(m) * specfun.factorial(j - 2 * m))
        for m in range(j // 2 + 1)
    )


def _ei_oracle(ctx: Context, x: float) -> float:
    if x >= 0:
        raise UsageError("exp_integral_ei oracle needs x < 0")
    res = integrate_semi_infinite(lambda t: math.exp(-t) / t, -x, 1e-13)
    return -res.value


def _s1_n0_oracle(ctx: Context, n: int, quad_tol: float, **pair) -> complex:
    if n != 0:
        raise UsageError(f"compare s1_series_n_term has an oracle at n = 0 only (the erf closed "
                         f"form), got n = {n}")
    return amplitudes.s1_n0_erf_closed(amplitudes.SlaterPair(**pair))


def _s1_defining_2d(eta1: float, eta2: float | None, x2: float, tol: float) -> QuadratureResult:
    # int d^3x1 (e^{-eta1 x1}/x1) f(x12): reduced to (x1, u) with u = cos(theta).
    # The u-integral has a kink in x1 at x1 = x2, where x12 vanishes at u = 1,
    # so the outer range is split there and each side integrated on its own.
    def f(x1: float, u: float) -> float:
        x12 = math.sqrt(max(x1 * x1 - 2 * x1 * x2 * u + x2 * x2, 1e-300))
        tail = 1.0 / x12 if eta2 is None else math.exp(-eta2 * x12) / x12
        return 2.0 * math.pi * x1 * math.exp(-eta1 * x1) * tail

    inner = integrate_2d(f, (0.0, x2, -1.0, 1.0), tol)
    outer = integrate_2d(f, (x2, math.inf, -1.0, 1.0), tol)
    return QuadratureResult(
        value=inner.value + outer.value,
        error_estimate=inner.error_estimate + outer.error_estimate,
        evaluations=inner.evaluations + outer.evaluations,
        converged=inner.converged and outer.converged,
    )


def _corollary6_2d_oracle(ctx: Context, eta1: float, eta2: float) -> QuadratureResult:
    # sqrt(pi) II drho1 drho2 e^{-eta1^2/4rho1 - eta2^2/4rho2} / (rho1 sqrt(rho2)(rho1+rho2)),
    # reduced by three substitutions:
    #   tau = rho1/(rho1+rho2) = v^2 regularises the tau^{-1/2} edge;
    #   w = 1/rho2 restores exponential decay on the semi-infinite direction;
    #   w = s^2 turns dw/sqrt(w) into 2 ds, removing the 1/sqrt(w) edge at w = 0.
    # The inner v-integral still grows like ln(1/s) as s -> 0; that mild
    # endpoint behaviour is left to the adaptive rule.
    sqrt_pi = math.sqrt(math.pi)
    eta1_sq, eta2_sq = eta1 * eta1, eta2 * eta2

    def f(s: float, v: float) -> float:
        if v <= 0.0:
            return 0.0
        tau = v * v
        b = (eta1_sq * (1.0 - tau) / tau + eta2_sq) / 4.0
        return sqrt_pi * (4.0 / v) * math.exp(-b * s * s)

    return integrate_2d(f, (0.0, math.inf, 0.0, 1.0), _oracle_tol(ctx))


def _corollary(ctx: Context, variant: str, eta: float, x1: float = 0.0, x2: float = 0.0,
               cos_theta: float = 0.0, y1: float = 0.0, z1: float = 0.0, z2: float = 0.0,
               k: float = 1.0) -> SeriesEvaluation:
    cfg = CorollaryConfig(variant, eta, x1, x2, cos_theta, y1, z1, z2, k)
    return theorems.theorem1_eval(theorems.corollary_to_params(cfg))


def _tabc_stall(ctx: Context, R: float, n_max: int = 20, window: int = 4) -> Outcome:
    ev = ellipsoidal.t_abc_series(R, n_max)
    rep = ellipsoidal.stall_detector(ev, window)
    text = (
        f"stalled = {str(rep.stalled).lower()}"
        + (f", index = {rep.index}, magnitude = {rep.magnitude:.3e}" if rep.stalled else "")
    )
    return Outcome(value=ev.value, series=ev, text=text)


def _cos_power(ctx: Context, j: int) -> Outcome:
    coeffs = specfun.cos_power_to_legendre(j)
    pairs = ", ".join(f"P_{m}: {c:.12g}" for m, c in sorted(coeffs.items()))
    return Outcome(value=None, text=f"cos^{j} = {{{pairs}}}")


TARGETS: dict[str, Target] = {
    "yukawa_form": Target(
        lambda c, B, C, k, x2: theorems.yukawa_form(YukawaFormParams(B, C, k, x2)),
        lambda c, **p: theorems.theorem1_eval(YukawaFormParams(**p)),
        ("yukawa_form",),
    ),
    "theorem1_term": Target(
        lambda c, n, B, C, k, x2: theorems.theorem1_term(n, YukawaFormParams(B, C, k, x2)),
        None,
        ("theorem1_term",),
    ),
    "theorem1": Target(
        lambda c, B, C, k, x2: theorems.theorem1_eval(YukawaFormParams(B, C, k, x2)),
        lambda c, **p: theorems.yukawa_form(YukawaFormParams(**p)),
        ("theorem1_eval", "theorem1_term", "yukawa_form"),
    ),
    "theorem5": Target(
        lambda c, B, C, k, x2: theorems.theorem5_eval(YukawaFormParams(B, C, k, x2)),
        lambda c, **p: theorems._theorem6_closed(1, YukawaFormParams(**p)),
        ("theorem5_eval", "theorem5_term"),
    ),
    "theorem6": Target(
        lambda c, j, B, C, k, x2: theorems.theorem6_eval(j, YukawaFormParams(B, C, k, x2)),
        lambda c, j, **p: theorems._theorem6_closed(j, YukawaFormParams(**p)),
        ("theorem6_eval", "theorem6_term"),
    ),
    "corollary": Target(
        _corollary,
        lambda c, **p: theorems._slater_direct(CorollaryConfig(**p)),
        ("corollary_to_params",),
    ),
    "corollary1_legendre": Target(
        lambda c, eta, x1, x2, cos_theta, k=1.0: theorems.corollary1_legendre_eval(
            CorollaryConfig("C1", eta, x1, x2, cos_theta, k=k)),
        lambda c, **p: theorems._slater_direct(CorollaryConfig("C1", **p)),
        ("corollary1_legendre_eval", "cos_power_to_legendre"),
    ),
    "two_range_mos": Target(
        lambda c, eta, x1, x2, cos_theta, n_terms=60: theorems.two_range_mos_eval(
            eta, x1, x2, cos_theta, n_terms),
        lambda c, n_terms, **p: theorems._slater_direct(CorollaryConfig("C4", **p)),
        ("two_range_mos_eval", "two_range_mos_terms", "bessel_i_walk"),
    ),
    "s1_coulomb": Target(
        lambda c, eta1, x2: amplitudes.s1_coulomb_closed(eta1, x2),
        lambda c, eta1, x2: _s1_defining_2d(eta1, None, x2, _oracle_tol(c)),
        ("s1_coulomb_closed",),
    ),
    "s1_two_slater": Target(
        lambda c, eta1, eta2, x2: amplitudes.s1_two_slater_closed(
            amplitudes.SlaterPair(eta1, eta2, x2)),
        lambda c, eta1, eta2, x2: _s1_defining_2d(eta1, eta2, x2, _oracle_tol(c)),
        ("s1_two_slater_closed",),
    ),
    "s1_equal_eta": Target(
        lambda c, eta2, x2: amplitudes.s1_equal_eta_closed(eta2, x2),
        lambda c, eta2, x2: amplitudes.s1_tau_oracle(
            amplitudes.SlaterPair(eta2, eta2, x2, 0.0), _oracle_tol(c)),
        ("s1_equal_eta_closed",),
    ),
    "s1_tau_oracle": Target(
        lambda c, eta1, eta2, x2, k, k_dot_x2=None, quad_tol=None: amplitudes.s1_tau_oracle(
            amplitudes.SlaterPair(eta1, eta2, x2, k, k_dot_x2),
            c.tol if quad_tol is None else quad_tol),
        None,
        ("s1_tau_oracle", "integrate_finite"),
    ),
    "s1_series_n_term": Target(
        lambda c, n, eta1, eta2, x2, k, k_dot_x2=None, quad_tol=1e-11: amplitudes.s1_series_n_term(
            n, amplitudes.SlaterPair(eta1, eta2, x2, k, k_dot_x2), quad_tol),
        _s1_n0_oracle,
        ("s1_series_n_term",),
    ),
    "s1_n0_erf": Target(
        lambda c, eta1, eta2, x2, k, k_dot_x2=None: amplitudes.s1_n0_erf_closed(
            amplitudes.SlaterPair(eta1, eta2, x2, k, k_dot_x2)),
        lambda c, **pair: amplitudes.s1_series_n_term(0, amplitudes.SlaterPair(**pair)),
        ("s1_n0_erf_closed", "erf_complex"),
    ),
    "s1_general_term_gamma": Target(
        lambda c, n, eta1, eta2, x2, k, k_dot_x2=None: amplitudes.s1_general_term_gamma(
            n, amplitudes.SlaterPair(eta1, eta2, x2, k, k_dot_x2)),
        lambda c, n, **pair: amplitudes.s1_series_n_term(n, amplitudes.SlaterPair(**pair)),
        ("s1_general_term_gamma",),
    ),
    "cheshire": Target(
        lambda c, eta1, x2, k, k_dot_x2=None: amplitudes.cheshire_series(eta1, x2, k, k_dot_x2),
        lambda c, eta1, x2, k, k_dot_x2: amplitudes.s1_tau_oracle(
            amplitudes.SlaterPair(eta1, eta1, x2, k, k_dot_x2), _oracle_tol(c)),
        ("cheshire_series", "cosine_moment_walk"),
    ),
    "theorem2_angular": Target(
        lambda c, eta2, x1, x2: amplitudes.theorem2_angular(eta2, x1, x2),
        lambda c, eta2, x1, x2: amplitudes._theorem2_oracle(eta2, x1, x2),
        ("theorem2_angular",),
    ),
    "theorem3": Target(
        lambda c, eta1, eta2, x2, n_max=40: amplitudes.theorem3_series(
            amplitudes.SlaterPair(eta1, eta2, x2), n_max),
        lambda c, eta1, eta2, x2, **_: amplitudes.s1_two_slater_closed(
            amplitudes.SlaterPair(eta1, eta2, x2)),
        ("theorem3_series", "theorem3_block_k_terms"),
    ),
    "theorem4": Target(
        lambda c, eta2, x2, n_max=40: amplitudes.theorem4_series(eta2, x2, n_max),
        lambda c, eta2, x2, **_: amplitudes.s1_equal_eta_closed(eta2, x2),
        ("theorem4_series", "theorem4_block"),
    ),
    "corollary6_n0": Target(
        lambda c, eta1, eta2: amplitudes.corollary6_n0_closed(eta1, eta2),
        _corollary6_2d_oracle,
        ("corollary6_n0_closed", "integrate_2d"),
    ),
    "t_abc_exact": Target(
        lambda c, R: ellipsoidal.t_abc_exact(R),
        lambda c, R: ellipsoidal.t_abc_oracle(R, _oracle_tol(c)),
        ("t_abc_exact", "exp_integral_ei"),
    ),
    "t_abc_oracle": Target(
        lambda c, R, quad_tol=1e-9: ellipsoidal.t_abc_oracle(R, quad_tol),
        None,
        ("t_abc_oracle", "t_abc_integrand", "integrate_2d"),
    ),
    "t_abc_series": Target(
        lambda c, R, n_max=20: ellipsoidal.t_abc_series(R, n_max),
        lambda c, R, **_: ellipsoidal.t_abc_exact(R),
        ("t_abc_series", "t_abc_term"),
    ),
    "t_abc_stall": Target(
        _tabc_stall,
        None,
        ("stall_detector",),
    ),
    "bessel_k_half": Target(
        lambda c, n, z: specfun.bessel_k_half(n, z),
        _k_half_integral_oracle,
        ("bessel_k_half",),
    ),
    "bessel_i_half": Target(
        lambda c, n, x: specfun.bessel_i_half(n, x),
        _i_half_integral_oracle,
        ("bessel_i_half",),
    ),
    "legendre_p": Target(
        lambda c, n, u: specfun.legendre_p(n, u),
        _legendre_explicit,
        ("legendre_p", "legendre_walk"),
    ),
    "cos_power_to_legendre": Target(
        _cos_power,
        None,
        ("cos_power_to_legendre",),
    ),
    "upper_incomplete_gamma": Target(
        lambda c, a, z: specfun.upper_incomplete_gamma(a, z),
        _gamma_ray_oracle,
        ("upper_incomplete_gamma", "gamma_walk"),
    ),
    "erf_complex": Target(
        lambda c, z: specfun.erf_complex(z),
        _erf_ray_oracle,
        ("erf_complex",),
    ),
    "kummer_1f1": Target(
        lambda c, a, b, z: specfun.kummer_1f1(a, b, z),
        _kummer_oracle,
        ("kummer_1f1",),
    ),
    "hermite_h": Target(
        lambda c, j, x: specfun.hermite_h(j, x),
        _hermite_explicit,
        ("hermite_h",),
    ),
    "exp_integral_ei": Target(
        lambda c, x: specfun.exp_integral_ei(x),
        _ei_oracle,
        ("exp_integral_ei",),
    ),
    "meijer_g_0313": Target(
        lambda c, j, mu, arg: specfun.meijer_g_0313(j, mu, arg),
        None,
        ("meijer_g_0313",),
    ),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _build_scenario(args) -> dict:
    scenario: dict = {}
    if args.scenario:
        scenario.update(parse_scenario_file(args.scenario))
    for kv in args.param or ():
        if "=" not in kv:
            raise UsageError(f"--param expects key=value, got {kv!r}")
        key, _, val = kv.partition("=")
        scenario[key.strip()] = parse_value(val)
    if getattr(args, "target", None):
        scenario["target"] = args.target
    return scenario


@functools.cache
def _declared(run: Callable) -> tuple[inspect.Parameter, ...]:
    """The parameters a target's ``run(ctx, **params)`` declares after ``ctx``."""
    return tuple(inspect.signature(run).parameters.values())[1:]


def _lookup(scenario: dict) -> tuple[str, Target, dict]:
    """The target and its coerced parameters, defaults filled in from the run signature."""
    name = scenario.get("target")
    if not name:
        raise UsageError("no target given (positional argument or 'target =' in the scenario)")
    if name not in TARGETS:
        raise UsageError(f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}")
    target = TARGETS[name]
    params = {k: v for k, v in scenario.items() if k not in _RESERVED_KEYS}
    declared = _declared(target.run)
    unknown = sorted(set(params) - {d.name for d in declared})
    if unknown:
        raise UsageError(f"unknown parameter(s) for {name}: {', '.join(unknown)}")
    missing = sorted(d.name for d in declared if d.default is d.empty and d.name not in params)
    if missing:
        raise UsageError(f"missing parameter(s) for {name}: {', '.join(missing)}")
    return name, target, {
        d.name: _coerce(d.name, params[d.name]) if d.name in params else d.default for d in declared
    }


def _context(args, scenario: dict) -> Context:
    tol = args.tol if args.tol is not None else float(scenario.get("tol", 1e-6))
    if not 0.0 < tol < math.inf:
        raise UsageError(f"tol must be finite and > 0, got {tol!r}")
    return Context(tol=tol)


def cmd_eval(args) -> int:
    scenario = _build_scenario(args)
    name, target, params = _lookup(scenario)
    ctx = _context(args, scenario)
    out = _outcome(target.run(ctx, **params))
    d = args.digits
    print(f"target = {name}")
    if out.value is not None:
        print(f"value = {_fmt(out.value, d)}")
    if out.series is not None:
        print(f"terms_used = {out.series.terms_used}")
        print(f"converged = {str(out.series.converged).lower()}")
    if out.quad is not None:
        print(f"error_estimate = {_fmt(out.quad.error_estimate, d)}")
        print(f"evaluations = {out.quad.evaluations}")
        print(f"converged = {str(out.quad.converged).lower()}")
    if out.text is not None:
        print(out.text)
    flagged = (out.series is not None and not out.series.converged) or (
        out.quad is not None and not out.quad.converged
    )
    return EXIT_FLAGGED if flagged else EXIT_OK


def cmd_compare(args) -> int:
    scenario = _build_scenario(args)
    name, target, params = _lookup(scenario)
    if target.oracle is None:
        raise UsageError(f"target {name!r} has no registered oracle to compare against")
    ctx = _context(args, scenario)
    got = complex(_outcome(target.run(ctx, **params)).value)
    ref = complex(_outcome(target.oracle(ctx, **params)).value)
    abs_err = abs(got - ref)
    rel_err = abs_err / abs(ref) if ref != 0 else math.inf
    d = args.digits
    print(f"target = {name}")
    print(f"value  = {_fmt(got, d)}")
    print(f"oracle = {_fmt(ref, d)}")
    print(f"abs_error = {_fmt(abs_err, d)}")
    print(f"rel_error = {_fmt(rel_err, d)}")
    within = rel_err <= ctx.tol or abs_err <= ctx.tol
    print(f"within_tol = {str(within).lower()} (tol {ctx.tol:g})")
    return EXIT_OK if within else EXIT_FLAGGED


def _table_rows(out: Outcome, ref: complex | None, digits: int) -> list[dict]:
    def g(x: float) -> float:
        return float(f"{x:.{digits}g}")

    terms = out.series.terms if out.series is not None else [complex(out.value)]
    partials = out.series.partial_sums if out.series is not None else terms
    rows = []
    for i, (t, s) in enumerate(zip(terms, partials)):
        row = {"index": i, "term_re": g(t.real), "term_im": g(t.imag),
               "partial_re": g(s.real), "partial_im": g(s.imag)}
        if ref is not None:
            err = abs(s - ref)
            row.update(ref_re=g(ref.real), ref_im=g(ref.imag), abs_err=g(err),
                       rel_err=g(err / abs(ref)) if ref != 0 else None)
        rows.append(row)
    return rows


def cmd_table(args) -> int:
    scenario = _build_scenario(args)
    name, target, params = _lookup(scenario)
    fmt = args.format or scenario.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown table format {fmt!r}; known: csv, json")
    ctx = _context(args, scenario)
    out = _outcome(target.run(ctx, **params))
    if out.value is None:
        raise UsageError(f"target {name!r} does not produce tabular terms")
    ref = complex(_outcome(target.oracle(ctx, **params)).value) if target.oracle else None
    rows = _table_rows(out, ref, args.digits)
    dest = args.out or scenario.get("out")
    try:
        fh = open(dest, "w", encoding="utf-8", newline="") if dest else sys.stdout
        try:
            if fmt == "json":
                json.dump(rows, fh, indent=2)
                fh.write("\n")
            else:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        finally:
            if dest:
                fh.close()
    except OSError as exc:
        print(f"error: cannot write table: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_reproduce(args) -> int:
    results = reproduce.run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_ERROR
    failed = []
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        if not res.passed:
            failed.append(res.name)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return EXIT_REPRODUCE_FAILED
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slater-addition",
        description="Evaluate one-range Slater-orbital addition theorems, their "
                    "amplitude-integral series, and the quadrature oracles that check them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, fn in (("eval", cmd_eval), ("compare", cmd_compare), ("table", cmd_table)):
        sp = sub.add_parser(cmd)
        sp.add_argument("target", nargs="?", help="target operation name")
        sp.add_argument("--scenario", help="key = value scenario file")
        sp.add_argument("--param", action="append", metavar="K=V")
        sp.add_argument("--format", choices=("csv", "json"))
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--digits", type=int, default=9)
        sp.add_argument("--out", help="output file (table)")
        sp.set_defaults(func=fn)
    rp = sub.add_parser("reproduce")
    rp.add_argument("--filter", metavar="NAME", help="run only checks whose name contains NAME")
    rp.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SlaterAdditionError, FileNotFoundError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
