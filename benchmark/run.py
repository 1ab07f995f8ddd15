"""Benchmark for the slater-addition library.

    python3 benchmark/run.py --workload series-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30
    python3 benchmark/run.py --workload block-series --seed 1 --trace 1
    python3 -m pytest benchmark/tests -q

Run from the repository root; the library is imported from ``src/``.  Each
workload is a closed loop with one caller, single-threaded: the next op
starts when the previous one returns, and every op's kind and inputs come
from ``--seed``.  Results are checked against independent references after
the timed loop.

``--trace 0`` gives the end-to-end metrics: it sets up (``setup_s`` is the
median of five fresh processes doing so), then runs ops for ``--seconds`` of
CPU time, finishing the current cycle of rounds.  ``--trace 1`` is a
separate run of a fixed number of ops, so its counts repeat exactly for a
seed: that many ops untraced, then as many again through the outside-in
tracer, giving the per-layer metrics and the tracing overhead.  Spans are
written to ``.bench_out/``.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failed ops are counted and
listed, not fatal: the exit code is non-zero only when the benchmark itself
cannot run, for instance without ``src/slater_addition``.  After the ops of
either mode, the workload's known-defect probes run untimed; each is printed
as reproduced or not, and ``--trace 1`` counts them in ``defects.reproduced``.
They are not ops of the workload and do not enter ``attempted`` or ``failed``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from meter import CAL_REF_S, CLOCK, Meter, calibrate
from tracer import OP_BUCKET, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Times are CPU times scaled to a reference machine speed (see meter.py).
# The loop is single-threaded, CPU-bound and does no I/O, so on an idle host
# at the reference speed they equal wall time; on a shared virtual machine
# they leave out the time and speed that other guests take from this one.

# set-up runs per measurement; setup_s is their median
SETUP_RUNS = 5
MIN_OPS_FOR_P90 = 100

E2E_METRICS = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("digits_p10", "digits"),
    ("peak_rss_mb", "MB"),
)

_PER_CALL_BUCKETS = (
    "specfun.bessel_k_half", "specfun.bessel_i_half", "specfun.legendre_p",
    "specfun.cos_power_to_legendre", "specfun.upper_incomplete_gamma", "specfun.erf_complex",
    "specfun.kummer_1f1", "specfun.meijer_g_0313", "specfun.hermite_h",
    "amplitudes.theorem3_block_k_terms", "amplitudes.theorem4_block",
    "amplitudes.s1_general_term_gamma", "ellipsoidal.t_abc_term", "ellipsoidal.t_abc_oracle",
)
LAYERS = ("specfun", "quadrature", "theorems", "amplitudes", "ellipsoidal", "cli")

LAYER_METRICS = (
    *((f"{k}.{what}", unit) for k in _PER_CALL_BUCKETS for what, unit in (("calls", "count"), ("self_ms", "ms"))),
    ("specfun.bessel_k_half.repeat_frac", "ratio"),
    *((f"{layer}.self_ms", "ms") for layer in LAYERS if layer != "quadrature"),
    ("quadrature.calls", "count"),
    ("quadrature.evaluations", "count"),
    ("quadrature.self_ms", "ms"),
    ("quadrature.us_per_eval", "us"),
    ("quadrature.unconverged", "count"),
    ("theorems.series", "count"),
    ("theorems.terms", "count"),
    ("theorems.converged_frac", "ratio"),
    ("theorems.accumulate_series.self_ms", "ms"),
    ("theorems.term.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("defects.reproduced", "count"),
)


def import_library():
    """Import slater_addition from this checkout's src/, or stop with an error."""
    sys.path.insert(0, str(SRC))
    # the benchmark measures the default truncation policy
    os.environ.pop("SLATER_ADDITION_MAX_TERMS", None)
    try:
        import slater_addition
    except ImportError as exc:
        raise SystemExit(f"error: cannot import slater_addition from {SRC}: {exc}")
    if not Path(slater_addition.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: slater_addition was imported from {slater_addition.__file__}, not {SRC}")


def run_op(kind, op):
    """Run one op; an exception is the op's failure, reported as text."""
    try:
        return kind.run(op.params), None
    except Exception as exc:  # the loop must go on; the failure is logged
        return None, f"{type(exc).__name__}: {exc}"


def verify(kind, op, result, error):
    from workloads import Verdict  # workloads imports the library: only after import_library()

    if error is not None:
        return Verdict(False, None, error, signalled=True)
    try:
        return kind.check(op.params, result)
    except Exception as exc:
        return Verdict(False, None, f"reference raised {type(exc).__name__}: {exc}")


def warm(wl) -> None:
    """Set-up: exact-integer caches filled, then one untimed op of every kind."""
    from slater_addition import specfun

    specfun.factorial(specfun.FACTORIAL_LIMIT)
    specfun.double_factorial(specfun.FACTORIAL_LIMIT)
    for op in wl.warmup_ops():
        run_op(wl.kinds[op.kind], op)


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time of fresh processes that import the library and warm up."""
    samples = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=170,
        ).stdout
        samples.append(json.loads(out.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def setup_only(wl) -> None:
    """Child side of measure_setup: warm up, then report this process's scaled CPU time.

    The CPU time counts from process start (interpreter, imports, warm-up),
    less the calibration runs taken before and after the warm-up.
    """
    t0 = CLOCK()
    before = calibrate(50)
    cal_cpu = CLOCK() - t0
    warm(wl)
    cpu = CLOCK() - cal_cpu
    after = calibrate(50)
    print(json.dumps({"setup_s": cpu * CAL_REF_S / ((before + after) / 2)}))


@dataclass(frozen=True)
class Outcome:
    """Verified ops of one run, with the correctness summary the JSON line needs."""

    wl: object
    ops: list
    verdicts: list

    @property
    def failed(self) -> list:
        return [(op, v) for op, v in zip(self.ops, self.verdicts) if not v.ok]

    @property
    def correct(self) -> bool:
        """False when an op returned a wrong or non-finite number without signalling a failure."""
        return all(v.signalled for _, v in self.failed)


def execute(wl, ops) -> list:
    return [run_op(wl.kinds[op.kind], op) for op in ops]


def check_all(wl, ops, results) -> list:
    return [verify(wl.kinds[op.kind], op, res, err) for op, (res, err) in zip(ops, results)]


def run_probes(wl) -> list:
    """Each known-defect probe with its verdict; a failing verdict means the defect reproduces."""
    return [(probe, verify(probe.kind, probe, *run_op(probe.kind, probe))) for probe in wl.probes]


def digits_p10(verdicts) -> float:
    digits = [d for d in (v.digits for v in verdicts) if d is not None]
    return statistics.quantiles(digits, n=10)[0]


def timed_run(wl, seed: int, seconds: float):
    setup_s = measure_setup(wl.name, seed)
    warm(wl)
    results = []
    meter = Meter()
    group = None
    wall_start = time.perf_counter()
    deadline = CLOCK() + seconds
    for op in wl.stream(seed):
        if op.group != group:
            group = op.group
            if group % wl.cycle == 0 and CLOCK() >= deadline:
                break
        results.append(meter.run(run_op, wl.kinds[op.kind], op))
    wall = time.perf_counter() - wall_start
    # peak memory of set-up and the timed loop, before verification allocates
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = meter.scaled()

    # the ops are regenerated from the seed rather than kept through the loop
    ops = list(itertools.islice(wl.stream(seed), len(results)))
    verdicts = check_all(wl, ops, results)
    # digits_p10 covers a fixed prefix of the stream, so it is the same for a
    # seed however far the timed loop got; ops it did not reach run here, untimed
    extra_ops = list(itertools.islice(wl.stream(seed), len(ops), wl.fixed_ops))
    extra_verdicts = check_all(wl, extra_ops, execute(wl, extra_ops))
    prefix = (verdicts + extra_verdicts)[: wl.fixed_ops]

    outcome = Outcome(wl, ops, verdicts)
    q = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": q[8] * 1e3,
        "ok_frac": 1.0 - len(outcome.failed) / len(ops),
        "digits_p10": digits_p10(prefix),
        "peak_rss_mb": peak_rss_mb,
    }
    report_timed(wl, outcome, latencies, meter, wall, metrics)
    untimed_failures = [(op, v) for op, v in zip(extra_ops, extra_verdicts) if not v.ok]
    report_failures(wl, outcome.failed, untimed_failures)
    report_probes(wl, run_probes(wl))
    return outcome, {name: (metrics[name], unit) for name, unit in E2E_METRICS}


def traced_run(wl, seed: int):
    warm(wl)
    stream = wl.stream(seed)
    untraced_ops = [next(stream) for _ in range(wl.fixed_ops)]
    traced_ops = [next(stream) for _ in range(wl.fixed_ops)]
    untraced = Meter()
    for op in untraced_ops:
        untraced.run(run_op, wl.kinds[op.kind], op)

    tracer = Tracer()

    def traced_op(op):
        with tracer.op(op.index, op.kind, op.group):
            return run_op(wl.kinds[op.kind], op)

    traced = Meter()
    with tracer.installed():
        results = [traced.run(traced_op, op) for op in traced_ops]

    outcome = Outcome(wl, traced_ops, check_all(wl, traced_ops, results))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer, sum(untraced.scaled()), sum(traced.scaled()))
    probes = run_probes(wl)
    metrics["defects.reproduced"] = sum(1 for _, v in probes if not v.ok)
    report_traced(wl, tracer, metrics, spans_path)
    report_failures(wl, outcome.failed, [])
    report_probes(wl, probes)
    return outcome, {name: (metrics[name], unit) for name, unit in LAYER_METRICS}


def layer_metrics(tracer, untraced_s: float, traced_s: float) -> dict:
    c = tracer.counters.get
    m = {}
    for k in _PER_CALL_BUCKETS:
        m[f"{k}.calls"] = tracer.calls(k)
        m[f"{k}.self_ms"] = tracer.self_ms(k)
    m["specfun.bessel_k_half.repeat_frac"] = c("bessel_repeats", 0) / max(1, tracer.calls("specfun.bessel_k_half"))
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(tracer.self_ms(b) for b in tracer.stats if b.split(".")[0] == layer)
    evals = c("quad_evaluations", 0)
    m["quadrature.calls"] = c("quad_calls", 0)
    m["quadrature.evaluations"] = evals
    m["quadrature.us_per_eval"] = m["quadrature.self_ms"] * 1e3 / evals if evals else 0.0
    m["quadrature.unconverged"] = c("quad_unconverged", 0)
    series = c("series", 0)
    m["theorems.series"] = series
    m["theorems.terms"] = c("series_terms", 0)
    m["theorems.converged_frac"] = c("series_converged", 0) / series if series else 0.0
    m["theorems.accumulate_series.self_ms"] = tracer.self_ms("theorems.accumulate_series")
    m["theorems.term.self_ms"] = tracer.self_ms("theorems.term")
    m["cli.main.self_ms"] = tracer.self_ms("cli.main")
    m["bench.self_ms"] = tracer.self_ms(OP_BUCKET)
    m["trace.ops"] = tracer.calls(OP_BUCKET)
    m["trace.op_ms"] = c("op_ns", 0) / 1e6
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt_params(params: dict) -> str:
    return ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in params.items())


def report_timed(wl, outcome, latencies, meter, wall, metrics) -> None:
    print(f"== {wl.name} (seed-generated closed loop, 1 caller): {len(outcome.ops)} ops in "
          f"{sum(meter.latencies):.2f} s CPU, {wall:.2f} s wall; machine speed x{meter.speed:.3f} "
          f"of the reference")
    if len(outcome.ops) < MIN_OPS_FOR_P90:
        print(f"   warning: fewer than {MIN_OPS_FOR_P90} ops, op_p90_ms has under 10 samples beyond it")
    for name, unit in E2E_METRICS:
        print(f"   {name:<12} {metrics[name]:14.6g} {unit}")
    print(f"   failed_frac  {1.0 - metrics['ok_frac']:14.6g} ratio  (= 1 - ok_frac)")
    per_kind: dict[str, list] = {}
    for op, lat, v in zip(outcome.ops, latencies, outcome.verdicts):
        per_kind.setdefault(op.kind, []).append((lat, v.ok))
    total = sum(latencies)
    print(f"   {'kind':<24}{'ops':>7}{'failed':>8}{'p50 ms':>10}{'time share':>12}")
    for kind, rows in per_kind.items():
        lats = [r[0] for r in rows]
        failed = sum(1 for r in rows if not r[1])
        print(f"   {kind:<24}{len(rows):>7}{failed:>8}{statistics.median(lats) * 1e3:>10.3f}"
              f"{sum(lats) / total:>12.1%}")
    if wl.name == "oracle-check":
        from workloads import ORACLE_GROUP as group

        shares: dict[str, float] = {}
        for op, lat in zip(outcome.ops, latencies):
            shares[group[op.kind]] = shares.get(group[op.kind], 0.0) + lat / total
        print("   time share by oracle group: " + ", ".join(f"{g} {s:.1%}" for g, s in sorted(shares.items())))


def report_traced(wl, tracer, metrics, spans_path) -> None:
    op_ms = metrics["trace.op_ms"]
    print(f"== {wl.name} traced: {metrics['trace.ops']} ops, {op_ms:.1f} ms in ops, "
          f"overhead {metrics['trace.overhead_frac']:.1%}; spans in {spans_path.relative_to(ROOT)}")
    print(f"   {'bucket':<38}{'calls':>10}{'self ms':>12}{'share':>8}")
    for bucket, (calls, ns) in sorted(tracer.stats.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"   {bucket:<38}{calls:>10}{ns / 1e6:>12.2f}{ns / 1e6 / op_ms:>8.1%}")
    for name, unit in LAYER_METRICS:
        print(f"   {name:<42} {metrics[name]:14.6g} {unit}")


def report_failures(wl, timed, untimed) -> None:
    for label, failures in (("FAILED", timed), ("FAILED (untimed prefix op)", untimed)):
        for op, v in failures:
            how = "signalled" if v.signalled else "UNSIGNALLED"
            print(f"{label} {wl.name} #{op.index} {op.kind}({_fmt_params(op.params)}): {v.error} [{how}]")


def report_probes(wl, probes) -> None:
    for probe, v in probes:
        call = f"{wl.name} {probe.kind.name}({_fmt_params(probe.params)})"
        if v.ok:
            print(f"KNOWN DEFECT GONE {call}: passes its check now; was: {probe.defect}")
        else:
            print(f"KNOWN DEFECT {call}: {v.error} ({probe.defect})")


def result_line(outcomes, metrics: dict) -> str:
    return json.dumps({
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(len(o.ops) for o in outcomes),
        "failed": sum(len(o.failed) for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="CPU seconds of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_only:
        setup_only(WORKLOADS[names[0]])
        return 0

    outcomes, metrics = [], {}
    for name in names:
        wl = WORKLOADS[name]
        outcome, wl_metrics = traced_run(wl, args.seed) if args.trace else timed_run(wl, args.seed, args.seconds)
        outcomes.append(outcome)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
