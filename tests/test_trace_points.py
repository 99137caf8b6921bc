"""The names the bench tracer wraps still resolve.

``bench/tracing.py`` replaces functions and methods of nalg, looking each
one up as ``owner.__dict__[attr]``; a name that moved or was renamed
makes a traced bench run (``--trace 1``) fail with a KeyError.  Every
(owner, attribute) of its span points and of its counting pass must be
found there, and ``structure`` must still reach the closure under the
name it imported, so that the traced closure time covers the simplicity
test.  The tracer counts ``NAryAlgebra.product_of_basis`` calls made
inside a check (``checks.basis_products``), and the bench's self-test
needs that count above zero on its probe jobs: the witness of a failing
triple-system check is the check path that still reads it.  It also
counts ``Matrix.__init__`` calls (``linalg.matrix_inits``) and needs that
count above zero too: ``der a1.Q --inner`` makes them, through the
derivation matrices that ``nalg der`` prints.
"""

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import nalg
import nalg.cli
from nalg import catalog, linalg, structure
from nalg import io as nalg_io
from nalg.algebra import NAryAlgebra
from nalg.checks import check_jts_identity
from nalg.fields import QQ

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


def test_failing_jts_witness_reads_basis_products(monkeypatch):
    calls = []
    original = NAryAlgebra.product_of_basis

    def counted(self, idx):
        calls.append(idx)
        return original(self, idx)

    monkeypatch.setattr(NAryAlgebra, "product_of_basis", counted)
    verdict = check_jts_identity(catalog.dot_triple(QQ, 3))
    assert verdict.witness.kind == "jts"
    assert calls


def test_der_inner_builds_a_matrix_through_init(monkeypatch, tmp_path):
    path = tmp_path / "a1.Q.json"
    nalg_io.dump_file(catalog.filippov_a1(QQ), str(path))
    calls = []
    original = linalg.Matrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(linalg.Matrix, "__init__", counted)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = nalg.cli.main(["der", str(path), "--inner"])
    assert code == 0
    assert calls
