import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import nalg
from nalg import catalog, io
from nalg.cli import main, parse_element, parse_field
from nalg.fields import GF, QQ


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_alg(tmp_path, alg, name="alg.json"):
    path = tmp_path / name
    io.dump_file(alg, path)
    return str(path)


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("F5") == GF(5)
    with pytest.raises(ValueError):
        parse_field("R")
    with pytest.raises(ValueError):
        parse_field("F6")


def test_parse_element_forms():
    a = catalog.dot_triple(QQ, 2)
    assert parse_element(a, "b2").coords == a.by_label("b2").coords
    assert parse_element(a, "1/2,-3").coords == (QQ.of(1) / QQ.of(2), QQ.of(-3))
    with pytest.raises(ValueError):
        parse_element(a, "1,2,3")


def test_catalog_emits_json(capsys):
    code, out, err = run(capsys, "catalog", "A", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["field"] == "Q"
    assert "time:" in err


def test_catalog_finite_field(capsys):
    code, out, _ = run(capsys, "catalog", "tca1", "--field", "F7")
    assert code == 0
    assert json.loads(out)["field"] == {"prime": 7}


def test_check_pass_and_fail(tmp_path, capsys):
    good = write_alg(tmp_path, catalog.dot_triple(QQ, 2), "good.json")
    code, out, _ = run(capsys, "check", "dxy", good)
    assert code == 0
    assert "status: pass" in out

    bad = write_alg(
        tmp_path, catalog.form_extension(QQ, 1, f=True, g=True, h=True), "bad.json"
    )
    code, out, _ = run(capsys, "check", "dxy", bad)
    assert code == 1
    assert "status: fail" in out
    assert "LHS = " in out and "RHS = " in out


def test_check_jts_witness_text(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 2))
    code, out, _ = run(capsys, "check", "jts", path)
    assert code == 1
    assert "args = (b1, b1, b1, b2, b1)" in out
    assert "LHS = 6*b2" in out
    assert "RHS = 2*b2" in out


def test_check_parallel_flag(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 2))
    code, out, _ = run(capsys, "--par", "2", "check", "dxy", path)
    assert code == 0
    assert "status: pass" in out


def test_simple_exit_codes(tmp_path, capsys):
    simple = write_alg(tmp_path, catalog.dot_triple(QQ, 3), "s.json")
    code, out, _ = run(capsys, "simple", simple)
    assert code == 0
    assert "simple" in out

    not_simple = write_alg(tmp_path, catalog.form_extension(QQ, 1), "n.json")
    code, out, _ = run(capsys, "simple", not_simple)
    assert code == 1
    assert "not_simple" in out
    assert "ideal" in out


def test_der_output(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 3))
    code, out, _ = run(capsys, "der", path, "--inner")
    assert code == 0
    assert "derivations: dim 3" in out
    assert "inner derivations: dim 3" in out
    assert "compare: equal" in out


def test_identities_degree1(tmp_path, capsys):
    q = catalog.conj_triple(catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1)))
    path = write_alg(tmp_path, q)
    code, out, _ = run(capsys, "identities", path, "--degree", "1")
    assert code == 0
    assert "dim = 2" in out
    assert "[z,x,y]" in out or "[x,y,z]" in out


def test_reduce_roundtrip(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 2))
    code, out, _ = run(capsys, "reduce", path, "--slot", "1", "--element", "b1")
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 2
    back = io.loads(out)
    assert back.dim == 2


def test_validate(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.tca1(GF(5)))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "arity 3" in out
    assert "dim 2" in out


def test_validate_total_symmetry_fills_orbits_without_factorial_work(tmp_path, capsys):
    """One arity-12 entry with six 0s and six 1s has an orbit of
    C(12, 6) = 924 index tuples; filling it from 12! = 479 M
    rearrangements would take minutes."""
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {
                "field": "Q",
                "arity": 12,
                "dimension": 2,
                "basis": ["a", "b"],
                "symmetry": "total",
                "products": [{"args": [0] * 6 + [1] * 6, "value": {"0": "1"}}],
            }
        )
    )
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out == "ok: arity 12, dim 2, field Q, symmetry total, products 924\n"


def test_check_commutative_walks_the_orbits_of_the_entries(tmp_path, capsys):
    """One arity-9 entry over dimension 6: the lexicographic scan of all
    6^9 index tuples, with 9! - 1 permutations each, ran past a 20 s
    timeout; the orbit of the entry has 9!/(2! 2! 2!) = 45360 tuples."""
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {
                "field": "Q",
                "arity": 9,
                "dimension": 6,
                "basis": ["b%d" % i for i in range(1, 7)],
                "symmetry": "none",
                "products": [{"args": [0, 1, 2, 3, 4, 5, 0, 1, 2], "value": {"0": "1"}}],
            }
        )
    )
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "commutative", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert "args = (b1, b1, b2, b2, b3, b3, b4, b5, b6)" in out
    assert "permuted = (b1, b2, b3, b4, b5, b6, b1, b2, b3)" in out


def test_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "validate", missing)
    assert code == 3
    assert err.startswith("error:") or "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "not valid JSON" in err


def test_validate_rejects_a_coordinate_named_twice(tmp_path, capsys):
    doc = io.algebra_to_json(catalog.dot_triple(QQ, 2))
    doc["products"][0]["value"] = {"1": "2", "01": "3"}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (3, "")
    assert "coordinate 1 given twice for (0, 0, 0)" in err


def test_validate_rejects_prime_above_the_bound(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text(
        '{"field": {"prime": %d}, "arity": 2, "dimension": 1, "basis": ["e"], '
        '"symmetry": "none", "products": []}' % (2**89 - 1)
    )
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (3, "")
    assert "too large" in err


def test_validate_rejects_booleans_for_integers(tmp_path, capsys):
    """JSON true and false load as Python bools, which are ints: a
    document with dimension true and args [false, false, false] once
    validated as dim 1 with the index (0, 0, 0)."""
    good = {
        "field": "Q",
        "arity": 3,
        "dimension": 1,
        "basis": ["e"],
        "symmetry": "none",
        "products": [{"args": [0, 0, 0], "value": {"0": "1"}}],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(good))
    assert run(capsys, "validate", str(path))[0] == 0
    bools = [
        {"dimension": True, "products": [{"args": [False] * 3, "value": {"0": "1"}}]},
        {"dimension": True},
        {"arity": True},
        {"products": [{"args": [False] * 3, "value": {"0": "1"}}]},
        {"field": {"prime": True}},
        {"field": {"prime": 2, "i": True}},
    ]
    for change in bools:
        path.write_text(json.dumps(dict(good, **change)))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (3, ""), change
        assert "must be" in err and "integer" in err, change


def test_binary_jordan_check_needs_binary(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 2))
    code, _, err = run(capsys, "check", "binary-jordan", path)
    assert code == 3
    assert "binary" in err


def test_identities_modulo_needs_degree_two(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 2))
    code, out, err = run(
        capsys, "identities", path, "--degree", "1", "--modulo", "degree1"
    )
    assert code == 3
    assert out == ""
    assert "--modulo" in err


MODULO_STDOUT = [
    # (algebra, sha256 of the whole stdout, its last three lines)
    (
        lambda: catalog.conj_triple(catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))),
        "0af1191371c5deeacc9bf9a5b59bdb0c4d664624c58102aee4e6cf1bf512a137",
        "lifting dim = 200\nlifting contained: yes\nlifting equal: no\n",
    ),
    (
        lambda: catalog.dot_triple(QQ, 2),
        "7627b5d3798b23001dc4dbfcbf50b2b599c96022f966aa514c81a09af35e5fd5",
        "lifting dim = 350\nlifting contained: yes\nlifting equal: yes\n",
    ),
    (
        lambda: catalog.tca1(GF(2)),
        "2838bb3d2d791dbda0adbf12d019ffa090cd3209712fd091332e43288eb2e3e2",
        "lifting dim = 360\nlifting contained: yes\nlifting equal: yes\n",
    ),
]


@pytest.mark.parametrize(
    "make, digest, tail", MODULO_STDOUT, ids=["d2_triple", "dot_triple2", "tca1-F2"]
)
def test_identities_modulo_stdout_is_pinned(tmp_path, capsys, make, digest, tail):
    """The whole degree-2 report against the lifted degree-1 identities:
    every generator of the space, then the lifting verdicts."""
    path = write_alg(tmp_path, make())
    code, out, _ = run(
        capsys, "identities", path, "--degree", "2", "--modulo", "degree1"
    )
    assert code == 0
    assert out.endswith(tail)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_identities_prints_without_boxing_the_wide_spaces(tmp_path, capsys, monkeypatch):
    """The report prints each generator from its nonzero terms and tests
    containment on the kernels, so no 360-column row is ever boxed."""
    from nalg.linalg import RowSpace

    rows = RowSpace.rows
    boxed = []

    def counting_rows(self):
        boxed.append(self.ncols)
        return rows(self)

    monkeypatch.setattr(RowSpace, "rows", counting_rows)
    path = write_alg(tmp_path, catalog.dot_triple(QQ, 3))
    code, out, _ = run(capsys, "identities", path, "--degree", "2", "--modulo", "degree1")
    assert code == 0 and "dim = 350\n" in out and "lifting equal: yes\n" in out
    assert 360 not in boxed


def test_identities_modulo_commutative_stdout(tmp_path, capsys):
    path = write_alg(tmp_path, catalog.tca1(GF(2)))
    code, out, _ = run(
        capsys, "identities", path, "--degree", "2",
        "--mode", "commutative", "--modulo", "degree1",
    )
    assert code == 0
    gens = [
        "[[x,y,z],u,v]", "[[x,y,u],z,v]", "[[x,y,v],z,u]", "[[x,z,u],y,v]",
        "[[x,z,v],y,u]", "[[x,u,v],y,z]", "[[y,z,u],x,v]", "[[y,z,v],x,u]",
        "[[y,u,v],x,z]", "[[z,u,v],x,y]",
    ]
    assert out == (
        "identities: degree 2, mode commutative\nmonomials: 10\ndim = 10\n"
        + "".join("gen %d: %s\n" % (k + 1, g) for k, g in enumerate(gens))
        + "lifting dim = 10\nlifting contained: yes\nlifting equal: yes\n"
    )


def test_par_environment_variable_is_not_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NALG_PAR", "two")
    path = write_alg(tmp_path, catalog.tca1(GF(5)))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "arity 3" in out


def fresh_stdout(argv):
    """(exit code, stdout) of one call in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(nalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "nalg.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return done.returncode, done.stdout


def test_once_built_parser_keeps_no_state(tmp_path, capsys):
    """main builds its parser once per process.  A call must not see the
    options of the call before it: each stdout equals that of the same
    call made first in a fresh interpreter, also after a bad argv."""
    quat = write_alg(
        tmp_path,
        catalog.conj_triple(catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))),
        "quat.json",
    )
    dot = write_alg(tmp_path, catalog.dot_triple(QQ, 2), "dot.json")
    calls = [
        ["der", quat, "--inner"],
        ["der", quat],
        ["identities", dot, "--degree", "2", "--modulo", "degree1"],
        ["identities", dot, "--degree", "2"],
        ["identities", dot, "--degree", "3"],
        ["der", quat],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, out) == fresh_stdout(argv), argv
    assert code == 0 and "inner" not in out
