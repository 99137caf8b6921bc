"""The names the bench tracer wraps still resolve.

``bench/tracing.py`` replaces functions and methods of nalg, looking each
one up as ``owner.__dict__[attr]``; a name that moved or was renamed
makes a traced bench run (``--trace 1``) fail with a KeyError.  Every
(owner, attribute) of its span points and of its counting pass must be
found there, and ``structure`` must still reach the closure under the
name it imported, so that the traced closure time covers the simplicity
test.
"""

import importlib.util
from pathlib import Path

import nalg
import nalg.cli
from nalg import linalg, structure

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    points = [(owner, attr) for _, owner, attr in tracing.span_points(nalg)]
    points += [(owner, attr) for owner, attr, _ in tracing.Counts().replacements(nalg)]
    assert len(points) > 20
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr in points
        if not callable(owner.__dict__.get(attr))
    ]
    assert missing == []


def test_structure_reaches_the_closure_by_its_imported_name():
    assert structure.matrix_algebra_closure is linalg.matrix_algebra_closure
