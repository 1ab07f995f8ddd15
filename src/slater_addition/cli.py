"""Command-line front end.

    slater-addition eval    <target> [--scenario FILE] [--param k=v ...]
    slater-addition compare <target> [--tol X] ...
    slater-addition table   <target> [--format csv|json] [--out FILE] ...
    slater-addition reproduce [--filter NAME]

Every public operation of the library is reachable as an eval target;
compare pairs a target with its registered oracle (an independent quadrature
or a closed form); table renders per-term report rows as CSV or JSON.
Scenario files are plain ``key = value`` lines with ``#`` comments and
complex values written ``re+imi``.  Exit codes: 0 success/converged,
1 usage or domain error, 2 truncation or tolerance failure, 3 failed
reproduction checks.  SLATER_ADDITION_MAX_TERMS overrides the default
series term budget.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable

from . import amplitudes, ellipsoidal, reproduce, specfun, theorems
from .errors import SlaterAdditionError
from .quadrature import QuadratureResult, integrate_2d, integrate_finite, integrate_semi_infinite
from .theorems import SeriesEvaluation, TruncationPolicy, YukawaFormParams, default_policy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FLAGGED = 2
EXIT_REPRODUCE_FAILED = 3

_RESERVED_KEYS = ("target", "format", "tol", "digits", "out")
_INT_RE = re.compile(r"^[+-]?\d+$")


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


@dataclass(frozen=True)
class Target:
    required: tuple[str, ...]
    optional: tuple[str, ...]
    run: Callable[[dict, "Context"], Outcome]
    oracle: Callable[[dict, "Context"], complex] | None
    covers: tuple[str, ...]


@dataclass
class Context:
    policy: TruncationPolicy
    tol: float
    allow_k_gt_1: bool


def _fmt(x, digits: int) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, complex):
        if x.imag == 0.0:
            return f"{x.real:.{digits}g}"
        return f"{x.real:.{digits}g}{x.imag:+.{digits}g}i"
    if isinstance(x, float):
        return f"{x:.{digits}g}"
    return str(x)


# ---------------------------------------------------------------------------
# target registry
# ---------------------------------------------------------------------------

def _yfp(p: dict) -> YukawaFormParams:
    return YukawaFormParams(B=float(p["B"]), C=p["C"], k=float(p["k"]), x2=float(p["x2"]))


def _pair(p: dict) -> amplitudes.SlaterPair:
    return amplitudes.SlaterPair(
        eta1=float(p["eta1"]),
        eta2=float(p["eta2"]),
        x2=float(p["x2"]),
        k=float(p.get("k", 0.0)),
        k_dot_x2=float(p["k_dot_x2"]) if "k_dot_x2" in p else None,
    )


def _cfg(p: dict) -> theorems.CorollaryConfig:
    return theorems.CorollaryConfig(
        variant=str(p["variant"]),
        eta=float(p["eta"]),
        x1=float(p.get("x1", 0.0)),
        x2=float(p.get("x2", 0.0)),
        cos_theta=float(p.get("cos_theta", 0.0)),
        y1=float(p.get("y1", 0.0)),
        z1=float(p.get("z1", 0.0)),
        z2=float(p.get("z2", 0.0)),
        k=float(p.get("k", 1.0)),
    )


def _oracle_tol(ctx: "Context") -> float:
    # quadrature oracles run well below the comparison tolerance
    return max(min(ctx.tol / 50.0, 1e-7), 1e-10)


def _slater_direct(p: dict) -> float:
    cfg = _cfg(p)
    if cfg.variant in ("C5", "C6"):
        r = math.sqrt(cfg.x1**2 + cfg.y1**2 + (cfg.z1 - cfg.z2) ** 2)
    else:
        r = math.sqrt(cfg.x1**2 - 2 * cfg.x1 * cfg.x2 * cfg.cos_theta + cfg.x2**2)
    return math.exp(-cfg.eta * r) / r


def _series_outcome(ev: SeriesEvaluation) -> Outcome:
    return Outcome(value=ev.value, series=ev)


def _quad_outcome(res: QuadratureResult) -> Outcome:
    return Outcome(value=res.value, quad=res)


def _yukawa_closed(p: dict, power_shift: float) -> float:
    yf = _yfp(p)
    l2 = yf.B * yf.k**2 + complex(yf.C)
    ell = cmath.sqrt(l2)
    return (ell**power_shift * cmath.exp(-yf.x2 * ell)).real


def _k_half_integral_oracle(p: dict, ctx: Context) -> complex:
    n, z = int(p["n"]), complex(p["z"])
    if z.imag != 0 or z.real <= 0:
        raise UsageError("bessel_k_half oracle needs real z > 0")
    nu = n + 0.5
    res = integrate_semi_infinite(
        lambda t: math.exp(-z.real * math.cosh(t)) * math.cosh(nu * t), 0.0, 1e-12
    )
    return res.value


def _i_half_integral_oracle(p: dict, ctx: Context) -> complex:
    n, x = int(p["n"]), float(p["x"])
    nu = n + 0.5
    part1 = integrate_finite(
        lambda th: math.exp(x * math.cos(th)) * math.cos(nu * th), 0.0, math.pi, 1e-12
    ).value / math.pi
    sin_pi_nu = -1.0 if n % 2 else 1.0
    part2 = integrate_semi_infinite(
        lambda t: math.exp(-x * math.cosh(t) - nu * t), 0.0, 1e-12
    ).value * sin_pi_nu / math.pi
    return part1 - part2


def _gamma_ray_oracle(p: dict, ctx: Context) -> complex:
    a, z = float(p["a"]), complex(p["z"])
    res = integrate_semi_infinite(
        lambda u: (z + u) ** (a - 1.0) * cmath.exp(-(z + u)), 0.0, 1e-12
    )
    return res.value


def _erf_ray_oracle(p: dict, ctx: Context) -> complex:
    z = complex(p["z"])
    res = integrate_finite(lambda u: cmath.exp(-(z * u) ** 2), 0.0, 1.0, 1e-13)
    return 2.0 * z / math.sqrt(math.pi) * res.value


def _kummer_oracle(p: dict, ctx: Context) -> complex:
    a, b, z = int(p["a"]), int(p["b"]), complex(p["z"])
    if b <= a:
        raise UsageError("kummer oracle needs b > a")
    beta = specfun.factorial(a - 1) * specfun.factorial(b - a - 1) / specfun.factorial(b - 1)
    res = integrate_finite(
        lambda t: cmath.exp(z * t) * t ** (a - 1.0) * (1.0 - t) ** (b - a - 1.0),
        0.0, 1.0, 1e-12,
    )
    return res.value / beta


def _legendre_explicit(p: dict, ctx: Context) -> complex:
    n, u = int(p["n"]), float(p["u"])
    return 2.0 ** (-n) * math.fsum(
        specfun.binomial(n, k) ** 2 * (u - 1.0) ** (n - k) * (u + 1.0) ** k for k in range(n + 1)
    )


def _hermite_explicit(p: dict, ctx: Context) -> complex:
    j, x = int(p["j"]), float(p["x"])
    return specfun.factorial(j) * math.fsum(
        (-1.0) ** m * (2.0 * x) ** (j - 2 * m) / (specfun.factorial(m) * specfun.factorial(j - 2 * m))
        for m in range(j // 2 + 1)
    )


def _ei_oracle(p: dict, ctx: Context) -> complex:
    x = float(p["x"])
    if x >= 0:
        raise UsageError("exp_integral_ei oracle needs x < 0")
    res = integrate_semi_infinite(lambda t: math.exp(-t) / t, -x, 1e-13)
    return -res.value


def _s1_defining_2d(eta1: float, eta2: float | None, x2: float, tol: float) -> complex:
    # int d^3x1 (e^{-eta1 x1}/x1) f(x12): reduced to (x1, u) with u = cos(theta)
    def f(x1: float, u: float) -> float:
        x12 = math.sqrt(max(x1 * x1 - 2 * x1 * x2 * u + x2 * x2, 1e-300))
        tail = 1.0 / x12 if eta2 is None else math.exp(-eta2 * x12) / x12
        return 2.0 * math.pi * x1 * math.exp(-eta1 * x1) * tail

    return integrate_2d(f, (0.0, math.inf, -1.0, 1.0), tol).value


def _corollary6_2d_oracle(p: dict, ctx: Context) -> complex:
    eta1, eta2 = float(p["eta1"]), float(p["eta2"])

    # sqrt(pi) II drho1 drho2 e^{-eta1^2/4rho1 - eta2^2/4rho2} / (rho1 sqrt(rho2)(rho1+rho2)),
    # reduced with tau = rho1/(rho1+rho2) = v^2 (regularises the tau^{-1/2} edge)
    # and w = 1/rho2 (restores exponential decay on the semi-infinite direction)
    def f(w: float, v: float) -> float:
        if v <= 0.0 or w <= 0.0:
            return 0.0
        tau = v * v
        b = (eta1 * eta1 * (1.0 - tau) / tau + eta2 * eta2) / 4.0
        return math.sqrt(math.pi) * (2.0 / v) * math.exp(-b * w) / math.sqrt(w)

    return integrate_2d(f, (0.0, math.inf, 0.0, 1.0), _oracle_tol(ctx)).value


def _tabc_stall(p: dict, ctx: Context) -> Outcome:
    ev = ellipsoidal.t_abc_series(float(p["R"]), n_max=int(p.get("n_max", 20)), policy=ctx.policy)
    rep = ellipsoidal.stall_detector(ev, window=int(p.get("window", 4)))
    text = (
        f"stalled = {str(rep.stalled).lower()}"
        + (f", index = {rep.index}, magnitude = {rep.magnitude:.3e}" if rep.stalled else "")
    )
    return Outcome(value=ev.value, series=ev, text=text)


def _cos_power(p: dict, ctx: Context) -> Outcome:
    cs = specfun.cos_power_to_legendre(int(p["j"]))
    pairs = ", ".join(f"P_{m}: {c:.12g}" for m, c in sorted(cs.coeffs.items()))
    return Outcome(value=None, text=f"cos^{cs.power} = {{{pairs}}}")


TARGETS: dict[str, Target] = {
    "yukawa_form": Target(
        ("B", "C", "k", "x2"), (),
        lambda p, c: Outcome(value=theorems.yukawa_form(_yfp(p))),
        lambda p, c: theorems.theorem1_eval(_yfp(p), c.policy, c.allow_k_gt_1).value,
        ("yukawa_form",),
    ),
    "theorem1_term": Target(
        ("n", "B", "C", "k", "x2"), (),
        lambda p, c: Outcome(value=theorems.theorem1_term(int(p["n"]), _yfp(p))),
        None,
        ("theorem1_term",),
    ),
    "theorem1": Target(
        ("B", "C", "k", "x2"), (),
        lambda p, c: _series_outcome(theorems.theorem1_eval(_yfp(p), c.policy, c.allow_k_gt_1)),
        lambda p, c: theorems.yukawa_form(_yfp(p)),
        ("theorem1_eval", "theorem1_term", "yukawa_form"),
    ),
    "theorem5": Target(
        ("B", "C", "k", "x2"), (),
        lambda p, c: _series_outcome(theorems.theorem5_eval(_yfp(p), c.policy, c.allow_k_gt_1)),
        lambda p, c: _yukawa_closed(p, 0.0),
        ("theorem5_eval", "theorem5_term"),
    ),
    "theorem6": Target(
        ("j", "B", "C", "k", "x2"), ("quad_tol",),
        lambda p, c: _series_outcome(
            theorems.theorem6_eval(int(p["j"]), _yfp(p), c.policy,
                                   float(p.get("quad_tol", 1e-11)), c.allow_k_gt_1)
        ),
        lambda p, c: _yukawa_closed(p, int(p["j"]) - 1.0),
        ("theorem6_eval", "theorem6_term", "meijer_g_0313"),
    ),
    "corollary": Target(
        ("variant", "eta"), ("x1", "x2", "cos_theta", "y1", "z1", "z2", "k"),
        lambda p, c: _series_outcome(
            theorems.theorem1_eval(theorems.corollary_to_params(_cfg(p)), c.policy, c.allow_k_gt_1)
        ),
        lambda p, c: _slater_direct(p),
        ("corollary_to_params",),
    ),
    "corollary1_legendre": Target(
        ("eta", "x1", "x2", "cos_theta"), ("k",),
        lambda p, c: _series_outcome(
            theorems.corollary1_legendre_eval(_cfg({**p, "variant": "C1"}), c.policy, c.allow_k_gt_1)
        ),
        lambda p, c: _slater_direct({**p, "variant": "C1"}),
        ("corollary1_legendre_eval", "cos_power_to_legendre"),
    ),
    "two_range_mos": Target(
        ("eta", "x1", "x2", "cos_theta"), ("n_terms",),
        lambda p, c: Outcome(value=theorems.two_range_mos_eval(
            float(p["eta"]), float(p["x1"]), float(p["x2"]), float(p["cos_theta"]),
            int(p.get("n_terms", 60)))),
        lambda p, c: _slater_direct({**p, "variant": "C4"}),
        ("two_range_mos_eval", "two_range_mos_terms", "bessel_i_half"),
    ),
    "s1_coulomb": Target(
        ("eta1", "x2"), (),
        lambda p, c: Outcome(value=amplitudes.s1_coulomb_closed(float(p["eta1"]), float(p["x2"]))),
        lambda p, c: _s1_defining_2d(float(p["eta1"]), None, float(p["x2"]), _oracle_tol(c)),
        ("s1_coulomb_closed",),
    ),
    "s1_two_slater": Target(
        ("eta1", "eta2", "x2"), (),
        lambda p, c: Outcome(value=amplitudes.s1_two_slater_closed(_pair(p))),
        lambda p, c: _s1_defining_2d(float(p["eta1"]), float(p["eta2"]), float(p["x2"]),
                                     _oracle_tol(c)),
        ("s1_two_slater_closed",),
    ),
    "s1_equal_eta": Target(
        ("eta2", "x2"), (),
        lambda p, c: Outcome(value=amplitudes.s1_equal_eta_closed(float(p["eta2"]), float(p["x2"]))),
        lambda p, c: amplitudes.s1_tau_oracle(
            amplitudes.SlaterPair(float(p["eta2"]), float(p["eta2"]), float(p["x2"]), 0.0),
            _oracle_tol(c),
        ).value,
        ("s1_equal_eta_closed",),
    ),
    "s1_tau_oracle": Target(
        ("eta1", "eta2", "x2", "k"), ("k_dot_x2", "quad_tol"),
        lambda p, c: _quad_outcome(
            amplitudes.s1_tau_oracle(_pair(p), float(p.get("quad_tol", c.tol)))
        ),
        None,
        ("s1_tau_oracle", "integrate_finite"),
    ),
    "s1_series_n_term": Target(
        ("n", "eta1", "eta2", "x2", "k"), ("k_dot_x2", "quad_tol"),
        lambda p, c: Outcome(value=amplitudes.s1_series_n_term(
            int(p["n"]), _pair(p), float(p.get("quad_tol", 1e-11)))),
        lambda p, c: amplitudes.s1_general_term_gamma(int(p["n"]), _pair(p)),
        ("s1_series_n_term",),
    ),
    "s1_n0_erf": Target(
        ("eta1", "eta2", "x2", "k"), ("k_dot_x2",),
        lambda p, c: Outcome(value=amplitudes.s1_n0_erf_closed(_pair(p))),
        lambda p, c: amplitudes.s1_series_n_term(0, _pair(p)),
        ("s1_n0_erf_closed", "erf_complex"),
    ),
    "s1_general_term_gamma": Target(
        ("n", "eta1", "eta2", "x2", "k"), ("k_dot_x2",),
        lambda p, c: Outcome(value=amplitudes.s1_general_term_gamma(int(p["n"]), _pair(p))),
        lambda p, c: amplitudes.s1_series_n_term(int(p["n"]), _pair(p)),
        ("s1_general_term_gamma", "upper_incomplete_gamma"),
    ),
    "cheshire": Target(
        ("eta1", "x2", "k"), ("k_dot_x2",),
        lambda p, c: _series_outcome(amplitudes.cheshire_series(
            float(p["eta1"]), float(p["x2"]), float(p["k"]),
            float(p["k_dot_x2"]) if "k_dot_x2" in p else None, c.policy, c.allow_k_gt_1)),
        lambda p, c: amplitudes.s1_tau_oracle(
            amplitudes.SlaterPair(
                float(p["eta1"]), float(p["eta1"]), float(p["x2"]), float(p["k"]),
                float(p["k_dot_x2"]) if "k_dot_x2" in p else None), _oracle_tol(c)).value,
        ("cheshire_series", "kummer_1f1"),
    ),
    "theorem2_angular": Target(
        ("eta2", "x1", "x2"), (),
        lambda p, c: Outcome(value=amplitudes.theorem2_angular(
            float(p["eta2"]), float(p["x1"]), float(p["x2"]))),
        lambda p, c: amplitudes._theorem2_oracle(float(p["eta2"]), float(p["x1"]), float(p["x2"])),
        ("theorem2_angular",),
    ),
    "theorem3": Target(
        ("eta1", "eta2", "x2"), ("n_max", "k_max"),
        lambda p, c: _series_outcome(amplitudes.theorem3_series(
            _pair(p),
            amplitudes.SeriesIndexBounds(n_max=int(p.get("n_max", 40)),
                                         k_max=int(p.get("k_max", 80))),
            c.policy)),
        lambda p, c: amplitudes.s1_two_slater_closed(_pair(p)),
        ("theorem3_series", "theorem3_block_k_terms"),
    ),
    "theorem4": Target(
        ("eta2", "x2"), ("n_max",),
        lambda p, c: _series_outcome(amplitudes.theorem4_series(
            float(p["eta2"]), float(p["x2"]),
            amplitudes.SeriesIndexBounds(n_max=int(p.get("n_max", 40))), c.policy)),
        lambda p, c: amplitudes.s1_equal_eta_closed(float(p["eta2"]), float(p["x2"])),
        ("theorem4_series", "theorem4_block"),
    ),
    "corollary6_n0": Target(
        ("eta1", "eta2"), (),
        lambda p, c: Outcome(value=amplitudes.corollary6_n0_closed(
            float(p["eta1"]), float(p["eta2"]))),
        _corollary6_2d_oracle,
        ("corollary6_n0_closed", "integrate_2d"),
    ),
    "t_abc_exact": Target(
        ("R",), (),
        lambda p, c: Outcome(value=ellipsoidal.t_abc_exact(float(p["R"]))),
        lambda p, c: ellipsoidal.t_abc_oracle(float(p["R"]), _oracle_tol(c)).value,
        ("t_abc_exact", "exp_integral_ei"),
    ),
    "t_abc_oracle": Target(
        ("R",), ("quad_tol",),
        lambda p, c: _quad_outcome(ellipsoidal.t_abc_oracle(
            float(p["R"]), float(p.get("quad_tol", 1e-9)))),
        None,
        ("t_abc_oracle", "t_abc_integrand", "integrate_2d"),
    ),
    "t_abc_series": Target(
        ("R",), ("n_max",),
        lambda p, c: _series_outcome(ellipsoidal.t_abc_series(
            float(p["R"]), n_max=int(p.get("n_max", 20)), policy=c.policy)),
        lambda p, c: ellipsoidal.t_abc_exact(float(p["R"])),
        ("t_abc_series", "t_abc_term"),
    ),
    "t_abc_stall": Target(
        ("R",), ("n_max", "window"),
        _tabc_stall,
        None,
        ("stall_detector",),
    ),
    "bessel_k_half": Target(
        ("n", "z"), ("scaled",),
        lambda p, c: Outcome(value=specfun.bessel_k_half(
            int(p["n"]), complex(p["z"]), bool(p.get("scaled", False)))),
        _k_half_integral_oracle,
        ("bessel_k_half",),
    ),
    "bessel_i_half": Target(
        ("n", "x"), (),
        lambda p, c: Outcome(value=specfun.bessel_i_half(int(p["n"]), float(p["x"]))),
        _i_half_integral_oracle,
        ("bessel_i_half",),
    ),
    "legendre_p": Target(
        ("n", "u"), (),
        lambda p, c: Outcome(value=specfun.legendre_p(int(p["n"]), float(p["u"]))),
        _legendre_explicit,
        ("legendre_p",),
    ),
    "cos_power_to_legendre": Target(
        ("j",), (),
        _cos_power,
        None,
        ("cos_power_to_legendre",),
    ),
    "upper_incomplete_gamma": Target(
        ("a", "z"), (),
        lambda p, c: Outcome(value=specfun.upper_incomplete_gamma(float(p["a"]), complex(p["z"]))),
        _gamma_ray_oracle,
        ("upper_incomplete_gamma",),
    ),
    "erf_complex": Target(
        ("z",), (),
        lambda p, c: Outcome(value=specfun.erf_complex(complex(p["z"]))),
        _erf_ray_oracle,
        ("erf_complex",),
    ),
    "kummer_1f1": Target(
        ("a", "b", "z"), (),
        lambda p, c: Outcome(value=specfun.kummer_1f1(int(p["a"]), int(p["b"]), complex(p["z"]))),
        _kummer_oracle,
        ("kummer_1f1",),
    ),
    "hermite_h": Target(
        ("j", "x"), (),
        lambda p, c: Outcome(value=specfun.hermite_h(int(p["j"]), float(p["x"]))),
        _hermite_explicit,
        ("hermite_h",),
    ),
    "exp_integral_ei": Target(
        ("x",), (),
        lambda p, c: Outcome(value=specfun.exp_integral_ei(float(p["x"]))),
        _ei_oracle,
        ("exp_integral_ei",),
    ),
    "meijer_g_0313": Target(
        ("j", "mu", "arg"), ("quad_tol",),
        lambda p, c: Outcome(value=specfun.meijer_g_0313(
            int(p["j"]), float(p["mu"]), float(p["arg"]),
            float(p.get("quad_tol", 1e-12)))),
        None,
        ("meijer_g_0313", "integrate_semi_infinite", "hermite_h"),
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


def _lookup(scenario: dict) -> tuple[str, Target, dict]:
    name = scenario.get("target")
    if not name:
        raise UsageError("no target given (positional argument or 'target =' in the scenario)")
    if name not in TARGETS:
        raise UsageError(f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}")
    target = TARGETS[name]
    params = {k: v for k, v in scenario.items() if k not in _RESERVED_KEYS}
    allowed = set(target.required) | set(target.optional)
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise UsageError(f"unknown parameter(s) for {name}: {', '.join(unknown)}")
    missing = sorted(set(target.required) - set(params))
    if missing:
        raise UsageError(f"missing parameter(s) for {name}: {', '.join(missing)}")
    return name, target, params


def _context(args, scenario: dict) -> Context:
    policy = default_policy()
    tol = args.tol if args.tol is not None else float(scenario.get("tol", 1e-6))
    return Context(policy=policy, tol=tol, allow_k_gt_1=args.allow_k_gt_1)


def cmd_eval(args) -> int:
    scenario = _build_scenario(args)
    name, target, params = _lookup(scenario)
    ctx = _context(args, scenario)
    out = target.run(params, ctx)
    d = args.digits
    print(f"target = {name}")
    if out.value is not None:
        print(f"value = {_fmt(out.value, d)}")
    if out.series is not None:
        print(f"terms_used = {out.series.terms_used}")
        print(f"converged = {_fmt(out.series.converged, d)}")
    if out.quad is not None:
        print(f"error_estimate = {_fmt(out.quad.error_estimate, d)}")
        print(f"evaluations = {out.quad.evaluations}")
        print(f"converged = {_fmt(out.quad.converged, d)}")
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
    out = target.run(params, ctx)
    ref = complex(target.oracle(params, ctx))
    got = complex(out.value)
    abs_err = abs(got - ref)
    rel_err = abs_err / abs(ref) if ref != 0 else math.inf
    d = args.digits
    print(f"target = {name}")
    print(f"value  = {_fmt(got, d)}")
    print(f"oracle = {_fmt(ref, d)}")
    print(f"abs_error = {_fmt(abs_err, d)}")
    print(f"rel_error = {_fmt(rel_err, d)}")
    within = rel_err <= ctx.tol or abs_err <= ctx.tol
    print(f"within_tol = {_fmt(within, d)} (tol {ctx.tol:g})")
    return EXIT_OK if within else EXIT_FLAGGED


def _table_rows(out: Outcome, ref: complex | None, digits: int) -> list[dict]:
    if out.series is not None:
        terms = list(out.series.terms)
        partials = list(out.series.partial_sums)
    else:
        terms = [complex(out.value)]
        partials = [complex(out.value)]
    rows = []
    for i, (t, s) in enumerate(zip(terms, partials)):
        row = {
            "index": i,
            "term_re": float(f"{t.real:.{digits}g}"),
            "term_im": float(f"{t.imag:.{digits}g}"),
            "partial_re": float(f"{s.real:.{digits}g}"),
            "partial_im": float(f"{s.imag:.{digits}g}"),
        }
        if ref is not None:
            err = abs(s - ref)
            row["ref_re"] = float(f"{ref.real:.{digits}g}")
            row["ref_im"] = float(f"{ref.imag:.{digits}g}")
            row["abs_err"] = float(f"{err:.{digits}g}")
            row["rel_err"] = float(f"{err / abs(ref):.{digits}g}") if ref != 0 else None
        rows.append(row)
    return rows


def cmd_table(args) -> int:
    scenario = _build_scenario(args)
    name, target, params = _lookup(scenario)
    ctx = _context(args, scenario)
    out = target.run(params, ctx)
    if out.value is None:
        raise UsageError(f"target {name!r} does not produce tabular terms")
    ref = complex(target.oracle(params, ctx)) if target.oracle is not None else None
    rows = _table_rows(out, ref, args.digits)
    fmt = args.format or str(scenario.get("format", "csv"))
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
        sp.add_argument("--allow-k-gt-1", action="store_true")
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
