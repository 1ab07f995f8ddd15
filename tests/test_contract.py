"""contract.py's rows: values, outside points, docstring claims, README's table, a row per public callable."""

import contextlib
import inspect
import random

import pytest

import contract
from contract import NO_ROW, ROWS
from slater_addition import amplitudes, ellipsoidal, specfun, theorems


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


@pytest.mark.parametrize("module", [specfun, theorems, amplitudes, ellipsoidal])
def test_every_public_callable_has_a_row(module):
    rows = {row.func for row in ROWS}
    functions = [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]
    assert [name for name in functions if getattr(module, name) not in rows and name not in NO_ROW] == []
    assert not [name for name in NO_ROW if name in functions and getattr(module, name) in rows]
