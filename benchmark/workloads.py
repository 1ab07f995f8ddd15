"""Seeded workloads: op kinds, their inputs, tolerances and independent references.

Every op is generated from ``(workload, seed, round)``, so the same seed gives
the same ops in the same order.  An op stream never repeats an input, which
keeps a cache keyed on whole inputs from inflating the timed loop; inputs
shared inside one round (the Bessel argument of an angular sweep) are the
reuse a cross-call cache could legitimately exploit.

Each op kind states a fixed relative tolerance with its reason and is checked
against a reference that shares no code path with the op.  Every failure is
counted.  A failure the program signals (it raised, flagged a series as not
converged, or the CLI exited non-zero) is a failed op; a wrong or non-finite
number returned without a signal also makes the run incorrect.

The timed streams stay inside the domains where every op succeeds at the
commit that defined the benchmark, so a run's failure count does not depend
on how many ops it reached.  The known defects outside those domains are kept
as fixed probes (``Probe``): each run evaluates them after its timed loop and
reports whether each defect still reproduces.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from slater_addition import amplitudes, cli, ellipsoidal, theorems

DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Op:
    index: int
    group: int
    kind: str
    params: dict


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rel_err: float | None  # None when there is no error to measure
    error: str | None      # why the op failed, for the failure log
    # the program reported the failure itself: it raised, flagged its result
    # as not converged, or (through the CLI) exited non-zero
    signalled: bool = False

    @property
    def digits(self) -> float | None:
        """-log10(relative error), clipped to [0, DIGITS_CAP]; None when the op claimed no result."""
        if self.signalled or self.rel_err is None or not math.isfinite(self.rel_err):
            return None
        if self.rel_err == 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, max(0.0, -math.log10(self.rel_err)))


@dataclass(frozen=True)
class Kind:
    """One op kind: how to run it and how to check what it returned.

    ``run`` returns the op's result with everything the check needs already
    extracted, so the timed region includes consuming the result.
    """

    name: str
    run: Callable[[dict], object]
    check: Callable[[dict, object], Verdict]


@dataclass(frozen=True)
class Probe:
    """A fixed input at which the program is known to fail, run untimed after the loop."""

    kind: Kind
    params: dict
    defect: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kinds: dict[str, Kind]
    make_round: Callable[[random.Random, int], list[tuple[str, dict]]]
    # ops in the deterministic prefix that digits_p10 and each half of the
    # traced run use: whole cycles, well inside one timed run
    fixed_ops: int
    # rounds after which the op mix repeats; a timed loop stops only at a
    # cycle boundary, so every run has the workload's exact mix
    cycle: int = 1
    probes: tuple[Probe, ...] = ()

    def stream(self, seed: int, start_round: int = 0) -> Iterator[Op]:
        index = 0
        r = start_round
        while True:
            rng = random.Random(f"{self.name}:{seed}:{r}")
            for kind, params in self.make_round(rng, r):
                yield Op(index, r, kind, params)
                index += 1
            r += 1

    def warmup_ops(self) -> list[Op]:
        """The first op of every kind from a stream of its own, the same for every seed."""
        seen: dict[str, Op] = {}
        stream = self.stream(seed=0, start_round=-10_000)
        while len(seen) < len(self.kinds):
            op = next(stream)
            seen.setdefault(op.kind, op)
        return list(seen.values())


def relative_check(tol: float, reference: Callable[[dict], complex]):
    """Check an op's ``(value, converged)`` against ``reference(params)`` at relative tolerance ``tol``."""

    def check(params: dict, result: tuple[complex, bool]) -> Verdict:
        value, converged = complex(result[0]), result[1]
        if not converged:
            return Verdict(False, None, "series flagged as not converged", signalled=True)
        if not cmath.isfinite(value):
            return Verdict(False, None, f"non-finite result {value}")
        ref = complex(reference(params))
        rel = abs(value - ref) / abs(ref)
        if rel <= tol:
            return Verdict(True, rel, None)
        return Verdict(False, rel, f"relative error {rel:.3e} > tol {tol:g} (got {value}, ref {ref})")

    return check


def _series(ev) -> tuple[complex, bool]:
    return ev.value, ev.converged


def mixed_round(order: list[str], params: Callable[[str, random.Random, int], dict],
                rng: random.Random) -> list[tuple[str, dict]]:
    """One round: the kinds in ``order``, the i-th op of each kind drawn by ``params(kind, rng, i)``."""
    seen: dict[str, int] = {}
    ops = []
    for kind in order:
        i = seen[kind] = seen.get(kind, -1) + 1
        ops.append((kind, params(kind, rng, i)))
    return ops


def interleave(counts: list[tuple[str, int]]) -> list[str]:
    """Spread each kind evenly over a round, so any prefix of it has the round's mix."""
    slots = [((i + 0.5) / n, j, name) for j, (name, n) in enumerate(counts) for i in range(n)]
    return [name for _, _, name in sorted(slots)]


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _slater_distance(p: dict) -> float:
    x1, x2, u = p["x1"], p["x2"], p["cos_theta"]
    return math.sqrt(x1 * x1 + x2 * x2 - 2.0 * x1 * x2 * u)


def ref_yukawa(p: dict) -> float:
    r = _slater_distance(p)
    return math.exp(-p["eta"] * r) / r


def ref_slater(p: dict) -> float:
    return math.exp(-p["eta"] * _slater_distance(p))


def _e1(x: float) -> float:
    """E_1(x) for x > 0: ascending series below 1, continued fraction above."""
    if x <= 1.0:
        terms = [-0.5772156649015329, -math.log(x)]
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            terms.append(-term / k)
        return math.fsum(terms)
    b = x + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def ref_t_abc(p: dict) -> float:
    """The published Ei/exponential closed form of T(a,bc), with Ei(-x) = -E_1(x) computed here."""
    R = p["R"]
    ei8, ei2 = -_e1(8.0 * R), -_e1(2.0 * R)
    t1 = math.exp(3 * R) * (-16 * R**2 + 44 * R + 116 / (9 * R) - 116 / 3) * ei8
    t2 = -math.exp(-3 * R) * (16 * R**2 + 44 * R + 116 / (9 * R) + 116 / 3) * (ei2 + 2 * math.log(2))
    t3 = math.exp(-3 * R) * (624 * R**2 + 2256 * R + 131 / (3 * R) + 1670) / 16
    t4 = -math.exp(-5 * R) * (160 * R + 131 / (3 * R) + 34) / 16
    return (t1 + t2 + t3 + t4) / 81


def _pair(p: dict) -> amplitudes.SlaterPair:
    return amplitudes.SlaterPair(p["eta1"], p["eta2"], p["x2"], p.get("k", 0.0))


# ---------------------------------------------------------------------------
# series-sweep
# ---------------------------------------------------------------------------

def _corollary(variant: str, p: dict) -> theorems.CorollaryConfig:
    return theorems.CorollaryConfig(variant, p["eta"], x1=p["x1"], x2=p["x2"], cos_theta=p["cos_theta"])


# Policy-converged series: the default policy stops after two terms below
# 1e-10 |sum|, so the tail left is about one more term; 10x covers rounding
# in the ~30-term Kahan sum.  Measured worst at the seed: 3e-11.
POLICY_TOL = 1e-9

SERIES_SWEEP_KINDS = {
    k.name: k
    for k in (
        Kind(
            "theorem1_c4",
            lambda p: _series(theorems.theorem1_eval(theorems.corollary_to_params(_corollary("C4", p)))),
            relative_check(POLICY_TOL, ref_yukawa),
        ),
        Kind(
            "theorem5_c4",
            lambda p: _series(theorems.theorem5_eval(theorems.corollary_to_params(_corollary("C4", p)))),
            relative_check(POLICY_TOL, ref_slater),
        ),
        Kind(
            "corollary1_legendre",
            lambda p: _series(theorems.corollary1_legendre_eval(_corollary("C1", p))),
            relative_check(POLICY_TOL, ref_yukawa),
        ),
        Kind(
            "two_range_mos",
            lambda p: (theorems.two_range_mos_eval(p["eta"], p["x1"], p["x2"], p["cos_theta"], n_terms=84), True),
            # x_</x_> <= 0.3 leaves a truncation below 0.3^84 ~ 1e-44; only the
            # rounding of 84 terms remains (measured worst 1.5e-15)
            relative_check(1e-12, ref_yukawa),
        ),
    )
}

# Per sweep: two cheap one-range kinds twice, so the median op falls inside
# the theorem-1 band and the 90th percentile inside the two-range band.
_SWEEP_KINDS = ["theorem1_c4", "theorem5_c4", "corollary1_legendre",
                "theorem1_c4", "theorem5_c4", "two_range_mos"]


def _series_sweep_round(rng: random.Random, r: int) -> list[tuple[str, dict]]:
    # x1/x2 <= 0.3 and |cos| <= 0.9 keep every kind inside its convergence
    # domain within the default 60-term budget (C1 ratio x1^2/x2^2 + 2 x1/x2 |cos| <= 0.63)
    eta = rng.uniform(0.3, 1.5)
    x2 = rng.uniform(0.5, 2.5)
    x1 = x2 * rng.uniform(0.15, 0.3)
    kinds = list(_SWEEP_KINDS)
    rng.shuffle(kinds)
    n = len(kinds)
    return [
        (kind, {"eta": eta, "x1": x1, "x2": x2, "cos_theta": -0.9 + 1.8 * (i + rng.random()) / n})
        for i, kind in enumerate(kinds)
    ]


SERIES_SWEEP = Workload(
    "series-sweep",
    "one-range vs two-range angular sweeps: Bessel K ladders and Legendre sums, no quadrature",
    SERIES_SWEEP_KINDS,
    _series_sweep_round,
    fixed_ops=3000,
)


# ---------------------------------------------------------------------------
# block-series
# ---------------------------------------------------------------------------

# theorem3/theorem4 at their default 21 even blocks (n_max = 40): the blocks
# decay algebraically and the truncated tail measures 0.024 x2 eta2 relative;
# the workload keeps x2 eta2 <= 0.25, so the series' own accuracy is <= 6e-3.
BLOCK_TOL = 1e-2
# t_abc_series plateaus (the J = n-1 term dominates) and n_max = 20 leaves an
# algebraic tail measured at <= 1.1e-3 for R <= 1.2.
TABC_TOL = 3e-3

BLOCK_SERIES_KINDS = {
    k.name: k
    for k in (
        Kind(
            "theorem3_series",
            lambda p: _series(amplitudes.theorem3_series(_pair(p))),
            relative_check(BLOCK_TOL, lambda p: amplitudes.s1_two_slater_closed(_pair(p))),
        ),
        Kind(
            "theorem4_series",
            lambda p: _series(amplitudes.theorem4_series(p["eta2"], p["x2"])),
            relative_check(BLOCK_TOL, lambda p: amplitudes.s1_equal_eta_closed(p["eta2"], p["x2"])),
        ),
        Kind(
            "t_abc_series",
            lambda p: _series(ellipsoidal.t_abc_series(p["R"])),
            relative_check(TABC_TOL, ref_t_abc),
        ),
        Kind(
            "cheshire_series",
            lambda p: _series(amplitudes.cheshire_series(p["eta1"], p["x2"], p["k"])),
            # policy-converged (see POLICY_TOL) against a 1e-12 tau quadrature
            relative_check(POLICY_TOL, lambda p: amplitudes.s1_tau_oracle(
                amplitudes.SlaterPair(p["eta1"], p["eta1"], p["x2"], p["k"]), 1e-12).value),
        ),
        Kind(
            "s1_general_term_gamma",
            lambda p: (amplitudes.s1_general_term_gamma(p["n"], _pair(p)), True),
            # the 1e-12 n-term quadrature is good to ~1e-14 (checked against
            # mpmath); the Gamma channels carry their own 1e-15 cut-off
            relative_check(1e-9, lambda p: amplitudes.s1_series_n_term(p["n"], _pair(p), 1e-12)),
        ),
    )
}

# s1_general_term_gamma fails for n >= 1 over about half of eta1, eta2 in
# [0.3, 1.5], x2 in [0.1, 1], k in [0.05, 0.9] (n = 3: three quarters), with
# no parameter region free of it; n = 0 never failed in 10^4 draws.  The
# timed stream runs n = 0 and these probes keep the n >= 1 defect in view.
_GAMMA_PROBES = (
    ({"n": 1, "eta1": 0.968, "eta2": 0.5538, "x2": 0.5035, "k": 0.4027}, "returns NaN without an error"),
    ({"n": 2, "eta1": 0.968, "eta2": 0.5538, "x2": 0.5035, "k": 0.4027}, "returns NaN without an error"),
    ({"n": 3, "eta1": 0.968, "eta2": 0.5538, "x2": 0.5035, "k": 0.4027}, "returns NaN without an error"),
    ({"n": 1, "eta1": 0.65, "eta2": 1.0438, "x2": 0.6761, "k": 0.2833},
     "raises CapacityError: factorial(171) in the shift series"),
    ({"n": 3, "eta1": 0.7714, "eta2": 1.0435, "x2": 0.113, "k": 0.1117},
     "raises CapacityError: factorial(171) in the shift series"),
    ({"n": 3, "eta1": 1.1229, "eta2": 1.1869, "x2": 0.6722, "k": 0.3779},
     "returns a finite value 2e-5 off near eta1 = eta2, without an error"),
)
# cheshire_series stalls past its 60-term budget once k / eta1 > ~1.7 (its
# terms shrink like (k / 2 eta1)^{2n}); the timed stream keeps k <= 1.5 eta1
_CHESHIRE_PROBES = (
    ({"eta1": 0.3479, "x2": 0.7074, "k": 0.8142}, "flags non-convergence at k / eta1 = 2.3"),
    ({"eta1": 0.3332, "x2": 0.8282, "k": 0.6364}, "flags non-convergence at k / eta1 = 1.9"),
)

# The sub-millisecond cheshire and n = 0 gamma ops are 8 of the 20, so the
# median op falls inside the ~3 ms t_abc_series band and the 90th percentile
# inside the ~20 ms theorem4 band.
_BLOCK_ROUND = interleave([
    ("theorem3_series", 1), ("theorem4_series", 3), ("t_abc_series", 8),
    ("cheshire_series", 5), ("s1_general_term_gamma", 3),
])


def _block_params(kind: str, rng: random.Random, i: int) -> dict:
    """Inputs of the i-th op of ``kind`` in a round."""
    if kind in ("theorem3_series", "theorem4_series"):
        # x2 eta2 <= 0.25 (see BLOCK_TOL)
        eta2 = rng.uniform(0.1, 1.0)
        params = {"eta2": eta2, "x2": rng.uniform(0.05, 0.25 / eta2)}
        if kind == "theorem3_series":
            # (eta1^2 - eta2^2) / eta2^2 = +-[0.05, 0.2]: inside the theorem-3
            # validity heuristic (< 1 in magnitude), and narrow enough that the
            # op's cost (~75% of the workload's time) varies little between seeds
            ratio = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.2)
            params["eta1"] = eta2 * math.sqrt(1.0 + ratio)
        return params
    if kind == "t_abc_series":
        # alternate the two Gamma(a, 4R) anchor routes: series for 4R < 2, continued fraction above
        lo, hi = ((0.05, 0.49), (0.51, 1.2))[i % 2]
        return {"R": rng.uniform(lo, hi)}
    if kind == "cheshire_series":
        return _cheshire_params(rng)
    return {"n": 0, **_two_slater_params(rng)}


def _cheshire_params(rng: random.Random) -> dict:
    # k <= 1.5 eta1: inside the series' 60-term budget (see _CHESHIRE_PROBES)
    eta1 = rng.uniform(0.3, 1.5)
    return {"eta1": eta1, "x2": rng.uniform(0.1, 1.0), "k": rng.uniform(0.05, min(0.9, 1.5 * eta1))}


def _two_slater_params(rng: random.Random) -> dict:
    return {"eta1": rng.uniform(0.3, 1.5), "eta2": rng.uniform(0.3, 1.5),
            "x2": rng.uniform(0.1, 1.0), "k": rng.uniform(0.05, 0.9)}


BLOCK_SERIES = Workload(
    "block-series",
    "double-series blocks and Gamma(a,z) chains (theorem 3/4, T(a,bc), gamma terms), almost no Bessel K",
    BLOCK_SERIES_KINDS,
    lambda rng, r: mixed_round(_BLOCK_ROUND, _block_params, rng),
    # 60 rounds: a 400-op prefix left digits_p10 an IQR of 3.4% of its median over seeds
    fixed_ops=1200,
    probes=tuple(
        Probe(BLOCK_SERIES_KINDS[kind], params, f"{kind}: {defect}")
        for kind, probes in (("s1_general_term_gamma", _GAMMA_PROBES), ("cheshire_series", _CHESHIRE_PROBES))
        for params, defect in probes
    ),
)


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareResult:
    exit_code: int
    rel_err: float | None
    stderr: str


def run_compare(target: str, tol: float, params: dict) -> CompareResult:
    """``slater-addition compare`` in-process, with its output captured."""
    argv = ["compare", target, "--tol", repr(tol), "--digits", "17"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    rel = None
    for line in out.getvalue().splitlines():
        if line.startswith("rel_error = "):
            rel = float(line.split("=", 1)[1])
    return CompareResult(code, rel, err.getvalue().strip())


def check_compare(params: dict, res: CompareResult) -> Verdict:
    """Exit 0 means within --tol; 1 (error) and 2 (outside --tol) are failures the CLI reports."""
    if res.exit_code == cli.EXIT_OK:
        if res.rel_err is None:
            raise ValueError("compare exited 0 without printing rel_error")
        return Verdict(True, res.rel_err, None)
    detail = f"rel_error {res.rel_err}" if res.exit_code == cli.EXIT_FLAGGED else res.stderr
    return Verdict(False, None, f"compare exit {res.exit_code}: {detail}", signalled=True)


# (target, --tol, group, reason).  compare runs a quadrature oracle at
# tol/50 (capped to [1e-10, 1e-7]), so each --tol is the op's claim plus
# that oracle's own error.
_ORACLE_TARGETS = (
    ("t_abc_exact", 1e-7, "2-D", "closed form vs a 2e-9 nested quadrature; measured <= 3e-11"),
    ("corollary6_n0", 1e-6, "2-D", "closed form vs a 2e-8 nested quadrature; measured <= 1.2e-8"),
    ("cheshire", 1e-8, "1-D", "policy-converged series (1e-10) vs a 2e-10 tau quadrature"),
    ("theorem6", 1e-8, "1-D", "policy-converged series of 1e-11 Meijer-G quadratures vs its closed form"),
    ("s1_series_n_term", 1e-8, "1-D", "1e-11 n-term quadrature vs the Gamma-channel closed form (n = 0)"),
)
ORACLE_GROUP = {name: group for name, _, group, _ in _ORACLE_TARGETS}


def _oracle_kind(target: str, tol: float) -> Kind:
    return Kind(target, lambda p: run_compare(target, tol, p), check_compare)


ORACLE_CHECK_KINDS = {name: _oracle_kind(name, tol) for name, tol, _, _ in _ORACLE_TARGETS}

# The s1_two_slater compare (closed form vs a 2e-8 nested quadrature, --tol
# 1e-6) fails on about 1% of eta1, eta2 in [0.3, 1.5], x2 in [0.1, 1], with
# no region free of it: the 2-D oracle misses its own tolerance (up to 6e-6)
# near the x12 = 0 singularity.  The s1_series_n_term compare inherits the
# s1_general_term_gamma defects at n >= 1 through its oracle.  Neither is in
# the timed stream; these probes keep both in view.
_ORACLE_PROBES = (
    ("s1_two_slater", 1e-6, {"eta1": 1.2340591979700124, "eta2": 0.8132778399726039, "x2": 0.6180776076027422},
     "the 2-D oracle is 2.2e-6 off"),
    ("s1_two_slater", 1e-6, {"eta1": 1.0635752976061903, "eta2": 1.1687853792236353, "x2": 0.33460864566165105},
     "the 2-D oracle is 5.5e-6 off"),
    ("s1_series_n_term", 1e-8, {"n": 1, "eta1": 1.2696, "eta2": 0.695, "x2": 0.8859, "k": 0.3023},
     "the Gamma-channel oracle raises CapacityError: factorial(171)"),
    ("s1_series_n_term", 1e-8, {"n": 3, "eta1": 0.5192, "eta2": 0.9115, "x2": 0.9048, "k": 0.4802},
     "the Gamma-channel oracle returns NaN"),
    ("cheshire", 1e-8, {"eta1": 0.3521, "x2": 0.6133, "k": 0.7506},
     "the series stalls at k / eta1 = 2.1 and returns a wrong value"),
)

# Weighted so the 2-D and the 1-D groups each take about half the time
# (corollary6_n0 costs ~0.9 s, so it runs every other round; t_abc_exact
# ~0.12 s).  The cheap ~2 ms ops (cheshire, s1_series_n_term at n = 0) are
# ~76% of the ops, so the median op falls inside that tight band, and the
# 90th percentile inside the ~12 ms band of theorem6.
_ORACLE_ROUNDS = tuple(
    interleave([("t_abc_exact", 2), ("corollary6_n0", c6),
                ("cheshire", 80), ("theorem6", 32), ("s1_series_n_term", 32)])
    for c6 in (1, 0)
)


def _oracle_params(kind: str, rng: random.Random, i: int) -> dict:
    """Inputs of the i-th op of ``kind`` in a round."""
    if kind == "t_abc_exact":
        return {"R": rng.uniform(0.05, 1.2)}
    if kind == "corollary6_n0":
        eta1 = rng.uniform(0.3, 1.2)
        return {"eta1": eta1, "eta2": eta1 * rng.uniform(1.1, 2.0)}
    if kind == "cheshire":
        return _cheshire_params(rng)
    if kind == "theorem6":
        # B k^2 / C in [0.05, 0.5]: inside the series' convergence domain
        C, k = rng.uniform(0.05, 0.3), rng.uniform(0.1, 0.9)
        return {"j": i % 3, "B": rng.uniform(0.05, 0.5) * C / k**2, "C": C, "k": k,
                "x2": rng.uniform(0.1, 1.0)}
    return {"n": 0, **_two_slater_params(rng)}


ORACLE_CHECK = Workload(
    "oracle-check",
    "the CLI compare command against 1-D and 2-D quadrature oracles: Bessel K at one order, many arguments",
    ORACLE_CHECK_KINDS,
    lambda rng, r: mixed_round(_ORACLE_ROUNDS[r % 2], _oracle_params, rng),
    fixed_ops=586,
    cycle=2,
    probes=tuple(Probe(_oracle_kind(target, tol), params, f"{target} compare: {defect}")
                 for target, tol, params, defect in _ORACLE_PROBES),
)


WORKLOADS = {w.name: w for w in (SERIES_SWEEP, BLOCK_SERIES, ORACLE_CHECK)}
