"""contract.py's rows: values, outside points, docstring claims, README's table, a row per public callable."""

import contextlib
import inspect
import math
import random
import re

import pytest

import contract
from contract import NO_ROW, ROWS
from slater_addition import amplitudes, ellipsoidal, quadrature, specfun, theorems
from slater_addition.errors import DomainError

MODULES = (specfun, theorems, amplitudes, ellipsoidal)


@pytest.mark.parametrize("row, case", [
    pytest.param(row, case, id="-".join([row.id, *map(str, case)]),
                 marks=[pytest.mark.xfail(strict=True, reason=row.open)] * bool(row.open))
    for row in ROWS for case in row.cases or [()]
])
def test_row(row, case):
    if "mpmath" in row.reference:
        pytest.importorskip("mpmath")
    count = 0
    with contextlib.closing(row.checks(random.Random(row.id), *case)) as checks:
        for count, (err, where) in enumerate(checks, 1):
            assert err <= row.bound, (err, where)
    assert count >= row.points


@pytest.mark.parametrize("row, out", [
    pytest.param(row, out, id=f"{row.id}-{out.error.__name__}-{out.text}") for row in ROWS for out in row.outside
])
def test_outside_the_domain_raises(row, out):
    with pytest.raises(out.error, match=out.match):
        out.call()


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS if not row.open])
def test_claim_is_in_its_docstring(row):
    assert " ".join(row.claim.split()) in " ".join((row.func.__doc__ or "").split())  # whitespace-normalised


def test_readme_table_is_rendered_from_the_rows():
    text = contract.README.read_text()
    assert text == contract.with_table(text)  # `PYTHONPATH=src python tests/contract.py` rewrites it


@pytest.mark.parametrize("module", MODULES)
def test_every_public_callable_has_a_row(module):
    rows = {row.func for row in ROWS}
    functions = [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]
    assert [name for name in functions if getattr(module, name) not in rows and name not in NO_ROW] == []
    assert not [name for name in NO_ROW if name in functions and getattr(module, name) in rows]


# a valid call of each public function with an int parameter, whose int arguments the test below
# replaces one at a time
_GOLDEN, _PAIR = theorems.YukawaFormParams(0.13, 0.11, 0.23, 0.17), amplitudes.SlaterPair(0.82, 0.66, 0.36, 0.19)
VALID_CALLS = {
    specfun.bessel_k_half: dict(n=2, z=1.5),
    specfun.bessel_i_half: dict(n=2, x=1.5),
    specfun.legendre_p: dict(n=2, u=0.5),
    specfun.hermite_h: dict(j=3, x=0.5),
    specfun.cos_power_to_legendre: dict(j=3),
    specfun.kummer_1f1: dict(a=1, b=2, z=0.5),
    specfun.meijer_g_0313: dict(j=1, mu=0.0, arg=1.0),
    theorems.theorem1_term: dict(n=1, p=_GOLDEN),
    theorems.theorem5_term: dict(n=1, p=_GOLDEN),
    theorems.theorem6_term: dict(j=2, n=1, p=_GOLDEN),
    theorems.theorem6_eval: dict(j=2, p=_GOLDEN),
    theorems.two_range_mos_terms: dict(eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4, n_terms=3),
    theorems.two_range_mos_eval: dict(eta=0.13, x1=0.3, x2=0.17, cos_theta=0.4, n_terms=3),
    amplitudes.s1_series_n_term: dict(n=1, p=_PAIR),
    amplitudes.s1_general_term_gamma: dict(n=0, p=_PAIR),
    amplitudes.theorem3_block_k_terms: dict(n=2, p=amplitudes.SlaterPair(0.11, 0.13, 0.17)),
    amplitudes.theorem3_series: dict(p=amplitudes.SlaterPair(0.11, 0.13, 0.17), n_max=4),
    amplitudes.theorem4_block: dict(n=2, eta2=0.13, x2=0.17),
    amplitudes.theorem4_series: dict(eta2=0.13, x2=0.17, n_max=4),
    ellipsoidal.t_abc_term: dict(n=2, big_j=1, R=0.11),
    ellipsoidal.t_abc_series: dict(R=0.11, n_max=4),
    ellipsoidal.stall_detector: dict(evaluation=ellipsoidal.t_abc_series(0.5), window=2),
    quadrature.integrate_finite: dict(f=math.exp, a=0.0, b=1.0, max_evals=100),
    quadrature.integrate_semi_infinite: dict(f=lambda t: math.exp(-t), a=0.0, max_evals=100),
    quadrature.integrate_2d: dict(f=lambda x, y: x * y, domain=(0.0, 1.0, 0.0, 1.0), max_evals=100),
}
# public functions whose int parameters keep checks of their own, and why
EXEMPT = {
    "factorial": "runs inside bessel_k_half's J loop, ~1e4 times per two_range_mos_eval of 84 terms, where the "
                 "check (~120 ns a call) would add ~1.3 ms to a ~5.4 ms op; it raises DomainError below 0 itself",
    "double_factorial": "runs per coefficient inside cos_power_to_legendre's loop, beside factorial; it raises "
                        "DomainError below -1 itself",
}
UNBOUNDED = {("bessel_k_half", "n")}  # K_{-nu} = K_nu: every int order is valid
SPOKEN = {"big_j": "J"}  # a parameter the message names as its formula does


@pytest.mark.parametrize("func, param", [
    pytest.param(func, name, id=f"{func.__name__}-{name}")
    for module in (*MODULES, quadrature) for func in map(module.__dict__.get, module.__all__)
    if inspect.isfunction(func) and func.__name__ not in EXEMPT
    for name, parameter in inspect.signature(func).parameters.items() if parameter.annotation == "int"
])
def test_integer_argument_is_checked(func, param):
    """Every int parameter of a public function takes an int, not a bool, at least its bound: 2.5,
    True and the bound minus 1 raise DomainError naming the parameter, the bound read from the
    message."""
    valid = VALID_CALLS[func]
    func(**valid)
    named = rf": {SPOKEN.get(param, param)} must be an integer"
    for bad in (2.5, True):
        with pytest.raises(DomainError, match=rf"{named}.*, got {bad}$") as raised:
            func(**{**valid, param: bad})
    bound = re.search(r"must be an integer >= (-?\d+),", str(raised.value))
    assert (bound is None) == ((func.__name__, param) in UNBOUNDED)
    if bound:
        with pytest.raises(DomainError, match=named):
            func(**{**valid, param: int(bound[1]) - 1})
