import contextlib
import json
import os
import tempfile
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog, io
from nalg.algebra import NAryAlgebra, algebras_equal
from nalg.cli import main
from nalg.fields import GF, QQ, Mod

import reference_loader
from test_leibniz import catalog_cases


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


# -- the loader reads straight into the int view -------------------------------

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(13))
CATALOG = [
    pytest.param(alg, id="%s-%r" % (name, field))
    for field in FIELDS
    for name, alg in catalog_cases(field)
]


def as_pairs(view):
    """A (den, table) of dense int vectors, as the reference loader makes
    it, in the form an algebra holds its table: each vector as its
    nonzero (coordinate, int) pairs."""
    den, table = view
    return den, {
        idx: tuple([(j, v) for j, v in enumerate(vec) if v])
        for idx, vec in table.items()
    }


@pytest.mark.parametrize("alg", CATALOG)
def test_catalog_round_trip_is_byte_identical(alg):
    text = io.dumps(alg)
    back = io.loads(text)
    assert io.dumps(back) == text
    assert back == alg
    scalar = Fraction if alg.field == QQ else Mod
    for a in (alg, back):
        assert a.int_table() == as_pairs(reference_loader.int_table(a.field, a.tensor))
        assert all(type(c) is scalar for vec in a.tensor.values() for c in vec)
    assert back.tensor == reference_loader.algebra_from_json(json.loads(text)).tensor


def indented_dumps(alg):
    """``io.dumps`` as it ran on the indenting JSON encoder."""
    return json.dumps(io.algebra_to_json(alg), indent=2) + "\n"


@pytest.mark.parametrize("alg", CATALOG)
def test_dumps_matches_the_indenting_encoder(alg):
    assert io.dumps(alg) == indented_dumps(alg)


def test_dumps_matches_the_indenting_encoder_on_edge_documents():
    """A field document with its root of -1, and tables with no entry."""
    with_root = catalog.dot_triple(GF(13, i=5), 2)
    assert io.algebra_to_json(with_root)["field"] == {"prime": 13, "i": 5}
    empty = NAryAlgebra.build(QQ, 3, 1, {})
    assert io.algebra_to_json(empty)["products"] == []
    for alg in (with_root, empty, NAryAlgebra.build(GF(2), 2, 3, {}, symmetry="total")):
        assert io.dumps(alg) == indented_dumps(alg)


# quotes, backslashes, control characters and characters beyond ASCII,
# which the encoder escapes
LABEL_CHARS = st.one_of(
    st.sampled_from(
        ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∂", "😀"]
    ),
    st.characters(),
)


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(
        st.text(LABEL_CHARS, max_size=6), min_size=3, max_size=3, unique=True
    ),
    symmetry=st.sampled_from(["none", "total"]),
)
def test_dumps_escapes_labels_as_the_indenting_encoder(labels, symmetry):
    alg = NAryAlgebra.build(
        QQ, 2, 3, {(0, 1): [1, 0, Fraction(-2, 3)]}, labels=labels, symmetry=symmetry
    )
    text = io.dumps(alg)
    assert text == indented_dumps(alg)
    assert text.isascii()
    assert list(io.loads(text).labels) == labels


def refused(load, text):
    try:
        load(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


def reference_loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(str(exc)) from exc
    return reference_loader.algebra_from_json(doc)


# literals outside the plain -?[0-9]+ form: Q and GF(p) take some of
# them, refuse others, and disagree on a few
AWKWARD = [" 3", "+3", "1_0", "0.5", "1e2", "-0", "3/0", "1/-2", "٣", "", "x"]

scalars = st.one_of(
    st.integers(-40, 40).map(str),
    st.integers(-40, 40).map(str),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map("%d/%d".__mod__),
    st.sampled_from(AWKWARD),
)

DOC_FIELDS = ["Q", {"prime": 2}, {"prime": 3}, {"prime": 13}]
FLAWS = (None, None, None, "index", "coordinate", "duplicate", "number", "symmetry")


@st.composite
def documents(draw):
    """Algebra documents with scalars from AWKWARD now and then, and at
    most one other flaw: an index or a coordinate out of range, a
    repeated entry, a number where a scalar string belongs, or an unknown
    symmetry hint.  Totally symmetric ones may disagree on an orbit."""
    arity = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    products = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "args": st.lists(index, min_size=arity, max_size=arity),
                    "value": st.dictionaries(index.map(str), scalars, max_size=dim),
                }
            ),
            max_size=5,
            unique_by=lambda item: tuple(item["args"]),
        )
    )
    doc = {
        "field": draw(st.sampled_from(DOC_FIELDS)),
        "arity": arity,
        "dimension": dim,
        "basis": ["e%d" % k for k in range(dim)],
        "symmetry": draw(st.sampled_from(["none", "total"])),
        "products": products,
    }
    flaw = draw(st.sampled_from(FLAWS))
    if flaw == "symmetry":
        doc["symmetry"] = "odd"
    elif products and flaw is not None:
        item = draw(st.sampled_from(products))
        if flaw == "index":
            item["args"][0] = draw(st.sampled_from([-1, dim]))
        elif flaw == "coordinate":
            item["value"][str(draw(st.sampled_from([-1, dim])))] = "1"
        elif flaw == "duplicate":
            products.append(item)
        else:
            item["value"]["0"] = 1
    return doc


@settings(max_examples=400, deadline=None)
@given(documents())
def test_loads_matches_the_reference_loader(doc):
    """Both loaders take the same documents, to equal algebras, and refuse
    the same documents; every refused one exits 3 through validate."""
    text = json.dumps(doc)
    if refused(reference_loads, text):
        assert refused(io.loads, text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "alg.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(
                StringIO()
            ):
                assert main(["validate", path]) == 3
        return
    ref, got = reference_loads(text), io.loads(text)
    assert got.tensor == ref.tensor
    want = reference_loader.int_table(ref.field, ref.tensor)
    assert got.int_table() == as_pairs(want)
    assert (got.field, got.arity, got.dim) == (ref.field, ref.arity, ref.dim)
    assert (got.labels, got.symmetry) == (ref.labels, ref.symmetry)
    assert io.dumps(got) == io.dumps(ref)


@pytest.mark.parametrize("scalar", AWKWARD)
@pytest.mark.parametrize("field", ["Q", {"prime": 13}])
def test_awkward_scalars_load_as_the_reference_loads_them(field, scalar):
    doc = io.algebra_to_json(catalog.dot_triple(QQ, 2))
    doc["field"] = field
    doc["products"][0]["value"]["0"] = scalar
    text = json.dumps(doc)
    if refused(reference_loads, text):
        assert refused(io.loads, text)
    else:
        assert io.loads(text).tensor == reference_loads(text).tensor
