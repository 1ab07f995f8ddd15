"""Self-tests of the benchmark: seeded determinism, failure accounting and tracer hygiene.

    python3 -m pytest benchmark/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from slater_addition import ellipsoidal, specfun, theorems  # noqa: E402
from tracer import MODULES, PACKAGE, WRAPPED, Tracer  # noqa: E402

WORKLOADS = workloads.WORKLOADS


def _prefix(wl, seed, n):
    stream = wl.stream(seed)
    return [next(stream) for _ in range(n)]


def _bindings():
    mods = [importlib.import_module(PACKAGE)] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_ops(name):
    wl = WORKLOADS[name]
    assert _prefix(wl, 7, 60) == _prefix(wl, 7, 60)
    assert _prefix(wl, 7, 60) != _prefix(wl, 8, 60)
    assert {op.kind for op in wl.warmup_ops()} == set(wl.kinds)


@pytest.mark.parametrize("name", ["series-sweep", "block-series"])
def test_same_seed_gives_same_digits(name):
    wl = WORKLOADS[name]
    ops = _prefix(wl, 3, 40)
    digits = [run.digits_p10(run.check_all(wl, ops, run.execute(wl, ops))) for _ in range(2)]
    assert digits[0] == digits[1]


def test_wrong_result_counts_as_failed(monkeypatch):
    wl = WORKLOADS["series-sweep"]
    ops = [op for op in _prefix(wl, 1, 30) if op.kind == "two_range_mos"]
    good = run.Outcome(wl, ops, run.check_all(wl, ops, run.execute(wl, ops)))
    assert ops and not good.failed and good.correct

    original = theorems.two_range_mos_eval
    monkeypatch.setattr(theorems, "two_range_mos_eval", lambda *a, **kw: original(*a, **kw) * (1 + 1e-6))
    bad = run.Outcome(wl, ops, run.check_all(wl, ops, run.execute(wl, ops)))
    assert len(bad.failed) == len(ops)
    assert not bad.correct  # a wrong number returned without a signal


def test_signalled_failures_count_but_keep_the_run_correct():
    wl = WORKLOADS["oracle-check"]
    op = next(op for op in _prefix(wl, 1, 10) if op.kind == "cheshire")
    verdict = workloads.check_compare(op.params, workloads.run_compare("cheshire", 1e-30, op.params))
    assert not verdict.ok and verdict.signalled and verdict.digits is None
    raised = run.verify(wl.kinds[op.kind], op, None, "CapacityError: boom")
    assert not raised.ok and raised.signalled
    assert run.Outcome(wl, [op, op], [verdict, raised]).correct


def test_probes_run_outside_the_op_counts(capsys):
    wl = WORKLOADS["block-series"]
    probes = run.run_probes(wl)
    assert [probe for probe, _ in probes] == list(wl.probes)
    run.report_probes(wl, probes)
    assert capsys.readouterr().out.count("KNOWN DEFECT") == len(wl.probes)
    probe_inputs = [(p.kind.name, p.params) for p in wl.probes]
    assert not [op for op in _prefix(wl, 1, wl.fixed_ops) if (op.kind, op.params) in probe_inputs]


def test_tracer_restores_every_binding():
    before = _bindings()
    original = specfun.bessel_k_half
    wl = WORKLOADS["series-sweep"]
    tracer = Tracer()
    with tracer.installed():
        assert specfun.bessel_k_half is not original
        assert theorems.bessel_k_half is specfun.bessel_k_half  # the copied binding too
        for op in _prefix(wl, 1, 6):
            with tracer.op(op.index, op.kind, op.group):
                run.run_op(wl.kinds[op.kind], op)
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.calls("specfun.bessel_k_half") > 0
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("op blew up")
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_every_wrapped_name_exists():
    for mod, names in WRAPPED.items():
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        for name in names:
            assert callable(getattr(module, name)), f"{mod}.{name}"


def test_series_sweep_runs_no_quadrature():
    wl = WORKLOADS["series-sweep"]
    tracer = Tracer()
    with tracer.installed():
        for op in _prefix(wl, 2, 12):
            with tracer.op(op.index, op.kind, op.group):
                run.run_op(wl.kinds[op.kind], op)
    m = run.layer_metrics(tracer, 1.0, 1.0)
    assert m["quadrature.evaluations"] == 0 and m["quadrature.self_ms"] == 0
    assert m["specfun.bessel_k_half.calls"] > 0 and 0 < m["specfun.bessel_k_half.repeat_frac"] < 1


@pytest.mark.parametrize("R", [0.011, 0.11, 0.49, 0.51, 1.1, 1.2])
def test_independent_t_abc_reference(R):
    assert workloads.ref_t_abc({"R": R}) == pytest.approx(ellipsoidal.t_abc_exact(R), rel=1e-12)


def test_benchmark_json_matches_run_py():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
