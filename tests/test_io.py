import json

import pytest

from nalg import catalog, io
from nalg.algebra import algebras_equal
from nalg.fields import GF, QQ


def sample_algebras():
    yield catalog.form_extension(QQ, 2, f=True, h=True)
    yield catalog.form_extension(GF(2), 1, g=True)
    yield catalog.dot_triple(GF(5), 3)
    yield catalog.sym_matrix(QQ, 2)
    yield catalog.s2(QQ, 2, 1, 2)
    yield catalog.quaternions(QQ, QQ.of(2), QQ.of(3)).algebra
    yield catalog.filippov_a1(GF(7))
    yield catalog.tca1(QQ)
    yield catalog.tkk_grading_a1(GF(13)).algebra


def test_roundtrip_all_samples():
    for alg in sample_algebras():
        back = io.loads(io.dumps(alg))
        assert algebras_equal(alg, back)
        assert back.labels == alg.labels
        assert back.symmetry == alg.symmetry


def test_dumps_deterministic():
    a = catalog.dot_triple(QQ, 3)
    b = catalog.dot_triple(QQ, 3)
    assert io.dumps(a) == io.dumps(b)
    assert io.dumps(io.loads(io.dumps(a))) == io.dumps(a)


def test_scalars_travel_as_strings():
    doc = io.algebra_to_json(catalog.filippov_brace(QQ))
    for item in doc["products"]:
        for s in item["value"].values():
            assert isinstance(s, str)
    text = io.dumps(catalog.filippov_brace(QQ))
    assert "-1/6" in text


def test_total_symmetry_stores_one_representative():
    doc = io.algebra_to_json(catalog.dot_triple(QQ, 2))
    for item in doc["products"]:
        assert item["args"] == sorted(item["args"])


def test_field_json_forms():
    assert io.field_to_json(QQ) == "Q"
    f5 = GF(5)
    f5.sqrt_minus_one  # force the cached root into the document
    assert io.field_to_json(f5) == {"prime": 5, "i": 2}
    assert io.field_from_json("Q") == QQ
    assert io.field_from_json({"prime": 7}) == GF(7)
    with pytest.raises(ValueError):
        io.field_from_json({"prime": 7, "extra": 1})
    with pytest.raises(ValueError):
        io.field_from_json({"prime": "7"})
    with pytest.raises(ValueError):
        io.field_from_json(5)


def test_loads_rejects_bad_documents():
    with pytest.raises(ValueError, match="not valid JSON"):
        io.loads("{nope")
    with pytest.raises(ValueError, match="must be an object"):
        io.loads("[1, 2]")
    with pytest.raises(ValueError, match="missing keys"):
        io.loads('{"field": "Q"}')


def test_from_json_rejects_bad_products():
    base = io.algebra_to_json(catalog.dot_triple(QQ, 2))

    doc = json.loads(json.dumps(base))
    doc["products"][0]["value"]["0"] = 3
    with pytest.raises(ValueError, match="strings"):
        io.algebra_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["products"][0].pop("value")
    with pytest.raises(ValueError, match="args and value"):
        io.algebra_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["products"].append(doc["products"][0])
    with pytest.raises(ValueError, match="duplicate"):
        io.algebra_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["arity"] = "3"
    with pytest.raises(ValueError, match="integers"):
        io.algebra_from_json(doc)


def test_file_roundtrip(tmp_path):
    alg = catalog.tca1(GF(5))
    path = tmp_path / "alg.json"
    io.dump_file(alg, path)
    assert algebras_equal(io.load_file(path), alg)
    # emitted file ends with a newline and is stable on disk
    text = path.read_text()
    assert text.endswith("\n")
    io.dump_file(alg, path)
    assert path.read_text() == text


def test_finite_field_scalars_roundtrip():
    a = catalog.dot_triple(GF(3), 2)
    text = io.dumps(a)
    doc = json.loads(text)
    assert doc["field"] == {"prime": 3}
    back = io.loads(text)
    assert back.field == GF(3)


def test_from_json_rejects_booleans_for_integers():
    """JSON true and false load as Python bools, which are ints: each
    integer field must refuse them, or true would read as 1."""
    base = io.algebra_to_json(catalog.dot_triple(QQ, 2))
    for key, value in (("arity", True), ("dimension", True)):
        doc = json.loads(json.dumps(base))
        doc[key] = value
        with pytest.raises(ValueError, match="integers"):
            io.algebra_from_json(doc)
    doc = json.loads(json.dumps(base))
    doc["products"][0]["args"] = [False, False, False]
    with pytest.raises(ValueError, match="integers"):
        io.algebra_from_json(doc)
    with pytest.raises(ValueError, match="prime"):
        io.field_from_json({"prime": True})
    with pytest.raises(ValueError, match="field i"):
        io.field_from_json({"prime": 2, "i": True})
    assert io.field_from_json({"prime": 5, "i": 2}) == GF(5)
