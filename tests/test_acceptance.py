"""Acceptance gate: every golden reproduction check at its pinned tolerance.

Runs the same registry as ``slater-addition reproduce`` and prints one
pass/fail line per check (visible with ``pytest -s`` or on failure).  The
command's stdout is pinned in reproduce_stdout.txt, which
``PYTHONPATH=src python tests/test_acceptance.py`` rewrites.
"""

import contextlib
import io
from pathlib import Path

import pytest

from slater_addition.cli import main
from slater_addition.reproduce import CHECKS

TRANSCRIPT = Path(__file__).resolve().parent / "reproduce_stdout.txt"
# checks whose detail is a defect of a few ulp, which another libm or CPython build may move: the
# transcript pins their verdict and name only, as "[PASS] <name>: *"
ROUNDOFF = ("theorem6-j0-j1-reduction", "property-gamma-recurrence", "property-k-half-closed-form",
            "property-theorem2-oracle")


def reproduce_stdout() -> str:
    """The stdout of ``slater-addition reproduce``, each ROUNDOFF line's detail written ``*``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reproduce"]) == 0
    lines = []
    for line in out.getvalue().splitlines():
        verdict = line.split(": ", 1)[0]  # "[PASS] <name>"
        lines.append(f"{verdict}: *" if verdict.split()[-1] in ROUNDOFF else line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_golden_check(name, fn):
    passed, detail = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_registry_is_complete():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))
    # one or more checks per acceptance criterion
    for prefix in ("theorem1", "theorem5", "theorem6", "amplitude", "theorem3",
                   "theorem4", "ellipsoidal", "property"):
        assert any(n.startswith(prefix) for n in names)


def test_reproduce_stdout_is_the_transcript():
    assert reproduce_stdout() == TRANSCRIPT.read_text()


if __name__ == "__main__":
    TRANSCRIPT.write_text(reproduce_stdout())
