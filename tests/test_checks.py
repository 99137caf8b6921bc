from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg.algebra import Element, NAryAlgebra, distinct_permutations
from nalg.catalog import dot_triple, form_extension
from nalg.checks import (
    Verdict,
    Witness,
    check_binary_jordan,
    check_dxy_identity,
    check_jts_identity,
    check_total_commutativity,
    dxy_sides,
    reevaluate_witness,
)
from nalg.fields import GF, QQ

from test_int_view import as_data


def naive_dxy_sides(alg, xs, ys, zs):
    """Independent recomputation straight from the definitions."""
    rx = alg.right_operator(xs)
    ry = alg.right_operator(ys)
    d = rx @ ry - ry @ rx
    from nalg.algebra import Element

    lhs = Element(d.apply(alg.multiply(*zs).coords))
    rhs = alg.zero_element()
    for s in range(alg.arity):
        moved = list(zs)
        moved[s] = Element(d.apply(zs[s].coords))
        rhs = rhs + alg.multiply(*moved)
    return lhs, rhs


def test_commutativity_pass():
    assert check_total_commutativity(dot_triple(QQ, 2))


def test_commutativity_witness():
    a = NAryAlgebra.build(QQ, 2, 2, {(0, 1): {0: 1}})
    v = check_total_commutativity(a)
    assert not v
    w = v.witness
    assert w.kind == "commutativity"
    assert a.multiply(*w.data["args"]).coords == w.lhs.coords
    assert a.multiply(*w.data["permuted"]).coords == w.rhs.coords
    assert w.lhs.coords != w.rhs.coords
    lhs, rhs = reevaluate_witness(a, w)
    assert (lhs.coords, rhs.coords) == (w.lhs.coords, w.rhs.coords)


def lex_scan_commutativity(alg):
    """The scan that ``check_total_commutativity`` replaced: every index
    tuple in lexicographic order against every permutation in
    lexicographic order, n! - 1 of them per tuple.  On the catalog,
    ``tests/test_int_view.py`` compares the check with the same scan on
    field scalars; this one reads the int table, so a stored zero vector
    differs from a missing entry, as it does for the check."""
    n = alg.arity
    perms = sorted(permutations(range(n)))[1:]  # identity dropped
    _, table = alg.int_table()
    for idx in product(range(alg.dim), repeat=n):
        base = table.get(idx)
        for p in perms:
            permuted = tuple(idx[k] for k in p)
            if table.get(permuted) != base:
                data = {
                    "args": tuple(alg.basis_element(i) for i in idx),
                    "permuted": tuple(alg.basis_element(i) for i in permuted),
                    "permutation": p,
                }
                lhs = Element(alg.product_of_basis(idx))
                rhs = Element(alg.product_of_basis(permuted))
                return Verdict(False, Witness("commutativity", data, lhs, rhs))
    return Verdict(True)


@st.composite
def nearly_commutative_tables(draw, field):
    """Tables made commutative on the orbits of a few drawn tuples, then
    given a few flaws: single tuples with a value of their own, a zero
    vector among them.  Made from field scalars, so that a stored zero
    vector stays in the int table as it does for such an algebra."""
    arity = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(0, d - 1)] * arity)
    value = st.tuples(*[st.sampled_from([0, 0, 1, -1, 2])] * d)
    tensor = {}
    for idx in draw(st.lists(index, max_size=4)):
        vec = draw(value)
        for t in distinct_permutations(idx):
            tensor[t] = vec
    for idx in draw(st.lists(index, max_size=2)):
        tensor[idx] = draw(value)
    tensor = {t: tuple(map(field.of, v)) for t, v in tensor.items()}
    labels = ["b%d" % (i + 1) for i in range(d)]
    return NAryAlgebra(field, arity, d, labels, tensor, "none")


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_commutativity_of_drawn_tables_matches_lexicographic_scan(field, data):
    alg = data.draw(nearly_commutative_tables(field))
    assert as_data(check_total_commutativity(alg)) == as_data(
        lex_scan_commutativity(alg)
    )


def test_dxy_pass_small():
    assert check_dxy_identity(dot_triple(QQ, 2))
    assert check_dxy_identity(dot_triple(GF(5), 3))


def test_dxy_sides_agree_with_naive():
    a = dot_triple(QQ, 3)
    xs = (a.by_label("b1"), a.by_label("b2"))
    ys = (a.by_label("b2"), a.by_label("b3"))
    zs = (a.by_label("b1"), a.by_label("b3"), a.by_label("b3"))
    got = dxy_sides(a, xs, ys, zs)
    want = naive_dxy_sides(a, xs, ys, zs)
    assert got[0].coords == want[0].coords
    assert got[1].coords == want[1].coords


def test_dxy_sides_accepts_coords():
    a = dot_triple(QQ, 2)
    by_el = dxy_sides(
        a,
        (a.element([1, 0]), a.element([0, 1])),
        (a.element([0, 1]), a.element([1, 1])),
        (a.element([1, 0]), a.element([1, 0]), a.element([0, 1])),
    )
    by_vec = dxy_sides(
        a, ([1, 0], [0, 1]), ([0, 1], [1, 1]), ([1, 0], [1, 0], [0, 1])
    )
    assert by_el[0].coords == by_vec[0].coords
    assert by_el[1].coords == by_vec[1].coords


def test_dxy_failure_witness_reevaluates():
    a = form_extension(QQ, 1, f=True, g=True, h=True)
    v = check_dxy_identity(a)
    assert not v
    w = v.witness
    assert w.kind == "dxy"
    lhs, rhs = naive_dxy_sides(a, w.data["x"], w.data["y"], w.data["z"])
    assert lhs.coords == w.lhs.coords
    assert rhs.coords == w.rhs.coords
    assert lhs.coords != rhs.coords
    relhs, rerhs = reevaluate_witness(a, w)
    assert relhs.coords == w.lhs.coords
    assert rerhs.coords == w.rhs.coords


def test_jts_dim1_pass():
    # single generator cubing to itself: both sides evaluate to twice it
    a = NAryAlgebra.build(QQ, 3, 1, {(0, 0, 0): {0: 1}}, symmetry="total")
    assert check_jts_identity(a)


def test_jts_failure_witness():
    a = dot_triple(QQ, 2)
    v = check_jts_identity(a)
    assert not v
    w = v.witness
    assert w.kind == "jts"
    labels = tuple(a.format_element(e) for e in w.data["args"])
    assert labels == ("b1", "b1", "b1", "b2", "b1")
    assert w.lhs.coords == (Fraction(0), Fraction(6))
    assert w.rhs.coords == (Fraction(0), Fraction(2))
    lhs, rhs = reevaluate_witness(a, w)
    assert lhs.coords == w.lhs.coords
    assert rhs.coords == w.rhs.coords


def test_jts_needs_ternary():
    with pytest.raises(ValueError):
        check_jts_identity(NAryAlgebra.build(QQ, 2, 1, {(0, 0): {0: 1}}))


def test_jts_flags_outer_noncommutativity():
    a = NAryAlgebra.build(QQ, 3, 2, {(0, 0, 1): {1: 1}})
    v = check_jts_identity(a)
    assert not v
    assert v.witness.kind == "commutativity"
    assert v.witness.data["permutation"] == (2, 1, 0)


def test_binary_jordan_pass():
    # idempotent line: associative and commutative, so the cube identity holds
    a = NAryAlgebra.build(QQ, 2, 1, {(0, 0): {0: 1}})
    assert check_binary_jordan(a)
    b = NAryAlgebra.build(
        GF(2), 2, 2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, symmetry="total"
    )
    assert check_binary_jordan(b)


def test_binary_jordan_failure_witness():
    red = dot_triple(QQ, 4).reduce(1, dot_triple(QQ, 4).by_label("b1"))
    v = check_binary_jordan(red)
    assert not v
    w = v.witness
    assert w.kind == "jordan_raw"
    assert red.format_element(w.data["x"]) == "b2"
    assert red.format_element(w.data["y"]) == "b1"
    assert red.format_element(w.lhs) == "b2"
    assert red.format_element(w.rhs) == "3*b2"
    lhs, rhs = reevaluate_witness(red, w)
    assert lhs.coords == w.lhs.coords
    assert rhs.coords == w.rhs.coords


# b1*b1 = 0, b1*b2 = b2, b2*b2 = b2 over GF(2): the identity holds at
# x = b1 and at x = b2, but not at x = b1 + b2, y = b1
GF2_NON_JORDAN = {(0, 1): {1: 1}, (1, 1): {1: 1}}


def test_binary_jordan_linearized_witness_kind():
    a = NAryAlgebra.build(GF(2), 2, 2, GF2_NON_JORDAN, symmetry="total")
    v = check_binary_jordan(a)
    assert not v
    assert v.witness.kind == "jordan_linearized"
    lhs, rhs = reevaluate_witness(a, v.witness)
    assert lhs.coords == v.witness.lhs.coords
    assert rhs.coords == v.witness.rhs.coords
    assert lhs.coords != rhs.coords


def test_binary_jordan_fails_in_characteristic_2():
    a = NAryAlgebra.build(GF(2), 2, 2, GF2_NON_JORDAN, symmetry="total")
    b1, b2 = a.basis()
    x = b1 + b2
    sq = a.multiply(x, x)
    assert a.multiply(a.multiply(x, b1), sq) != a.multiply(x, a.multiply(b1, sq))
    w = check_binary_jordan(a).witness
    assert (w.data["x"], w.data["y"]) == ((b1, b2, b2), b1)
    assert (a.format_element(w.lhs), a.format_element(w.rhs)) == ("0", "b2")


def test_binary_jordan_fails_in_characteristic_3():
    # b1*b1 = b2, b1*b2 = 0, b2*b2 = b1 over GF(3): at x = y = b1 the two
    # sides are b1 and 0; a sum over all six orderings of (b1, b1, b1)
    # sees 6 times that, which is 0 in F_3
    a = NAryAlgebra.build(
        GF(3), 2, 2, {(0, 0): {1: 1}, (1, 1): {0: 1}}, symmetry="total"
    )
    w = check_binary_jordan(a).witness
    b1 = a.by_label("b1")
    assert w.kind == "jordan_raw"
    assert (w.data["x"], w.data["y"]) == (b1, b1)
    assert (a.format_element(w.lhs), a.format_element(w.rhs)) == ("b1", "0")
    assert reevaluate_witness(a, w) == (w.lhs, w.rhs)


NOT_BASIS = [
    lambda b1, b2: b1 + b2,
    lambda b1, b2: b2 + b2,
    lambda b1, b2: b1 - b1,
]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("make", NOT_BASIS, ids=["sum", "twice", "zero"])
def test_jts_and_jordan_replays_refuse_a_non_basis_argument(field, make):
    """The jts and Jordan witnesses hold basis elements, and a replay
    reads their indices: any other element is refused, in any slot."""
    from nalg.checks import Witness

    a = dot_triple(field, 2)
    w = check_jts_identity(a).witness
    assert w.kind == "jts"
    b1, b2 = a.basis()
    for slot in range(5):
        args = list(w.data["args"])
        args[slot] = make(b1, b2)
        bad = Witness("jts", {"args": tuple(args)}, w.lhs, w.rhs)
        with pytest.raises(ValueError, match="not a basis element"):
            reevaluate_witness(a, bad)
    red = a.reduce(1, b1)
    x, y = make(*red.basis()), red.basis()[0]
    for kind, data in [
        ("jordan_raw", {"x": x, "y": y}),
        ("jordan_raw", {"x": y, "y": x}),
        ("jordan_linearized", {"x": (y, y, x), "y": y}),
        ("jordan_linearized", {"x": (y, y, y), "y": x}),
    ]:
        bad = Witness(kind, data, red.zero_element(), red.zero_element())
        with pytest.raises(ValueError, match="not a basis element"):
            reevaluate_witness(red, bad)
    # the replays read basis products of their own arity
    with pytest.raises(ValueError, match="ternary"):
        reevaluate_witness(red, w)
    bad = Witness("jordan_raw", {"x": b1, "y": b1}, b1, b1)
    with pytest.raises(ValueError, match="binary"):
        reevaluate_witness(a, bad)


def test_binary_jordan_input_validation():
    with pytest.raises(ValueError):
        check_binary_jordan(dot_triple(QQ, 2))
    with pytest.raises(ValueError):
        check_binary_jordan(NAryAlgebra.build(QQ, 2, 2, {(0, 1): {0: 1}}))


def test_verdict_truthiness():
    v = check_total_commutativity(dot_triple(QQ, 1))
    assert bool(v) is True
    assert v.witness is None


def test_reevaluate_unknown_kind():
    from nalg.checks import Witness

    a = dot_triple(QQ, 1)
    w = Witness("nonsense", {}, a.zero_element(), a.zero_element())
    with pytest.raises(ValueError):
        reevaluate_witness(a, w)
