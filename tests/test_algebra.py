import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import io
from nalg.algebra import NAryAlgebra, algebras_equal, format_terms
from nalg.catalog import matrix_triple_raw
from nalg.fields import GF, QQ

import reference_loader
from reference_loader import coerce_vector


def tiny_binary():
    # b1*b1 = b1, b1*b2 = b2 (and the symmetric entries), b2*b2 = 0
    return NAryAlgebra.build(
        QQ,
        2,
        2,
        {(0, 0): {0: 1}, (0, 1): {1: 1}},
        symmetry="total",
    )


def test_build_validation():
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 1, 2, {})
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 0, {})
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 2, {}, symmetry="weird")
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 2, {}, labels=["a"])
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 2, {}, labels=["a", "a"])
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 2, {(0, 5): {0: 1}})
    with pytest.raises(ValueError):
        NAryAlgebra.build(QQ, 2, 2, {(0,): {0: 1}})


def test_build_rejects_conflicting_entries():
    with pytest.raises(ValueError):
        NAryAlgebra.build(
            QQ, 2, 2, {(0, 1): {0: 1}, (1, 0): {0: 2}}, symmetry="total"
        )


def test_orbit_fill():
    a = tiny_binary()
    assert a.product_of_basis((1, 0)) == a.product_of_basis((0, 1))
    t = NAryAlgebra.build(QQ, 3, 2, {(0, 0, 1): {1: 1}}, symmetry="total")
    for idx in [(0, 1, 0), (1, 0, 0), (0, 0, 1)]:
        assert t.product_of_basis(idx) == (Fraction(0), Fraction(1))
    assert t.product_of_basis((1, 1, 0)) == (Fraction(0), Fraction(0))


def all_permutations_fill(field, dim, entries):
    """Orbit filling as it was first written: every entry is written at
    all n! rearrangements of its index tuple."""
    filled = {}
    for idx, vec in sorted(entries.items()):
        vec = coerce_vector(field, dim, vec)
        for p in permutations(idx):
            if p in filled and filled[p] != vec:
                raise ValueError("entries for the orbit of %r disagree" % (idx,))
            filled[p] = vec
    return {idx: vec for idx, vec in filled.items() if any(vec)}


def test_total_orbit_fill_matches_all_permutations():
    entries = {
        (0, 0, 0, 0, 0): {0: 1},
        (0, 0, 1, 1, 2): {1: 2, 2: -1},
        (0, 1, 1, 1, 1): {2: "1/2"},
        (0, 1, 2, 2, 2): {0: 0},
        (1, 2, 2, 1, 0): {0: 5},
        (2, 2, 2, 2, 1): {1: 1},
    }
    for field in (QQ, GF(3)):
        t = NAryAlgebra.build(field, 5, 3, entries, symmetry="total")
        assert t.tensor == all_permutations_fill(field, 3, entries)
        assert len(t.tensor) == 1 + 30 + 5 + 30 + 5
    # the same orbit twice, consistently and not
    agree = dict(entries)
    agree[(2, 0, 1, 0, 1)] = {1: 2, 2: -1}
    t = NAryAlgebra.build(QQ, 5, 3, agree, symmetry="total")
    assert t.tensor == all_permutations_fill(QQ, 3, agree)
    clash = dict(entries)
    clash[(2, 1, 0, 1, 0)] = {1: 2}
    with pytest.raises(ValueError, match=r"orbit of \(2, 1, 0, 1, 0\) disagree"):
        all_permutations_fill(QQ, 3, clash)
    with pytest.raises(ValueError, match=r"orbit of \(2, 1, 0, 1, 0\) disagree"):
        NAryAlgebra.build(QQ, 5, 3, clash, symmetry="total")


@st.composite
def symmetric_entries(draw):
    """(field, arity, dim, entries) of a totally symmetric table in which
    an orbit is often entered at several of its members, with the same
    vector up to the field or, now and then, another one."""
    field = draw(st.sampled_from([QQ, GF(3)]))
    arity = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    scalar = st.sampled_from([0, 1, -1, 2, 4, "1/2", Fraction(-2, 5)])
    vector = st.lists(scalar, min_size=dim, max_size=dim)
    entries = {}
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.lists(index, min_size=arity, max_size=arity))
        vec = draw(vector)
        for _ in range(draw(st.integers(1, 3))):
            member = tuple(draw(st.permutations(key)))
            entries[member] = draw(vector) if draw(st.integers(0, 5)) == 0 else vec
    return field, arity, dim, entries


def build_outcome(build, field, arity, dim, entries):
    """The int table of ``build``'s algebra, items in order, or the
    message it refused the entries with."""
    try:
        alg = build(field, arity, dim, entries, symmetry="total")
    except ValueError as exc:
        return str(exc)
    return list(alg.int_table()[1].items()), alg.int_table()[0]


@settings(max_examples=300, deadline=None)
@given(symmetric_entries())
def test_orbit_walk_matches_the_reference_builds(drawn):
    """``build`` walks each orbit once and compares its entered members.
    It keeps the tables, in the same order, and the messages, with the
    first conflicting entry in sorted order, of the reference loader's
    build, which walks the orbit of every entered member, and of the
    all-permutation fill."""
    field, arity, dim, entries = drawn
    got = build_outcome(NAryAlgebra.build, field, arity, dim, entries)
    assert got == build_outcome(reference_loader.build, field, arity, dim, entries)
    try:
        want = all_permutations_fill(field, dim, entries)
    except ValueError as exc:
        assert got == str(exc)
        return
    alg = NAryAlgebra(field, arity, dim, ["b%d" % k for k in range(dim)], want, "total")
    assert sorted(got[0]) == sorted(alg.int_table()[1].items())


def test_zero_products_dropped():
    a = NAryAlgebra.build(QQ, 2, 2, {(0, 0): {0: 0}, (0, 1): {1: 1}})
    assert (0, 0) not in a.tensor
    assert (0, 1) in a.tensor


def test_default_labels():
    a = NAryAlgebra.build(QQ, 2, 3, {})
    assert a.labels == ("b1", "b2", "b3")


def test_element_arithmetic():
    a = tiny_binary()
    x = a.element([1, 2])
    y = a.by_label("b1")
    assert (x + y).coords == (Fraction(2), Fraction(2))
    assert (x - x).is_zero()
    assert (-y).coords == (Fraction(-1), Fraction(0))
    assert x.scale(3).coords == (Fraction(3), Fraction(6))


def test_by_label_unknown():
    a = tiny_binary()
    with pytest.raises(ValueError):
        a.by_label("zz")


def test_multiply_is_multilinear():
    """Spot check bilinearity against expansion over the tensor."""
    a = tiny_binary()
    x = a.element([2, 3])
    y = a.element([5, -1])
    direct = a.multiply(x, y)
    expanded = a.zero_element()
    for i in range(2):
        for j in range(2):
            c = x.coords[i] * y.coords[j]
            expanded = expanded + a.element(a.product_of_basis((i, j))).scale(c)
    assert direct.coords == expanded.coords


def test_multiply_arity_check():
    a = tiny_binary()
    with pytest.raises(ValueError):
        a.multiply(a.by_label("b1"))


def test_format_element():
    a = tiny_binary()
    assert a.format_element(a.zero_element()) == "0"
    assert a.format_element(a.by_label("b2")) == "b2"
    assert a.format_element(a.element([-2, 1])) == "-2*b1 + b2"
    assert a.format_element(a.element([0, -1])) == "-b2"


def test_right_operator_rows():
    a = tiny_binary()
    r = a.right_operator((a.by_label("b1"),))
    for j in range(2):
        assert r.rows[j] == a.multiply(a.basis_element(j), a.by_label("b1")).coords


def test_d_operator_antisymmetry():
    from nalg.catalog import dot_triple

    a = dot_triple(QQ, 3)
    xs = (a.by_label("b1"), a.by_label("b2"))
    ys = (a.by_label("b2"), a.by_label("b3"))
    d1 = a.d_operator(xs, ys)
    d2 = a.d_operator(ys, xs)
    assert (d1 + d2).is_zero()
    assert a.d_operator(xs, xs).is_zero()


def test_symmetrize():
    # one asymmetric entry spreads over all argument orders
    raw = NAryAlgebra.build(QQ, 2, 2, {(0, 1): {0: 1}})
    sym = raw.symmetrize()
    assert sym.symmetry == "total"
    assert sym.product_of_basis((0, 1)) == (Fraction(1), Fraction(0))
    assert sym.product_of_basis((1, 0)) == (Fraction(1), Fraction(0))
    assert sym.product_of_basis((0, 0)) == (Fraction(0), Fraction(0))


def test_symmetrize_counts_multiplicity():
    raw = NAryAlgebra.build(QQ, 2, 2, {(0, 0): {1: 1}})
    sym = raw.symmetrize()
    # both orders of (0, 0) contribute: coefficient 2
    assert sym.product_of_basis((0, 0)) == (Fraction(0), Fraction(2))


def reference_symmetrize(alg):
    """The n!-walk: every ordering of every sorted index tuple."""
    tensor = alg.tensor
    entries = {
        idx: [sum(c) for c in zip(*vecs)]
        for idx in combinations_with_replacement(range(alg.dim), alg.arity)
        if (vecs := [tensor[q] for q in permutations(idx) if q in tensor])
    }
    return NAryAlgebra.build(
        alg.field, alg.arity, alg.dim, entries, alg.labels, "total"
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_symmetrize_matches_the_permutation_walk(field, n):
    # over GF(2) and GF(3) the weights 2 and 6 of repeated indices vanish
    raw = matrix_triple_raw(field, n)
    sym, ref = raw.symmetrize(), reference_symmetrize(raw)
    assert sym == ref
    assert io.dumps(sym) == io.dumps(ref)


def test_symmetrize_of_arity_ten_skips_the_orderings():
    # one entry at arity 10: the n!-walk visits 10! orderings per tuple
    raw = NAryAlgebra.build(QQ, 10, 2, {(0,) * 5 + (1,) * 5: {0: 1}})
    start = time.perf_counter()
    sym = raw.symmetrize()
    assert time.perf_counter() - start < 2.0
    # 5! * 5! orderings of the sorted tuple give its one rearrangement
    assert sym.product_of_basis((1, 0) * 5) == (Fraction(14400), Fraction(0))
    assert len(sym.int_table()[1]) == 252


def test_format_terms():
    f5 = GF(5)
    assert format_terms(QQ, []) == "0"
    assert format_terms(QQ, [("x", QQ.of(0))]) == "0"
    terms = [("x", QQ.of(-1)), ("y", QQ.of(1)), ("z", QQ.of(Fraction(-1, 2)))]
    assert format_terms(QQ, terms) == "-x + y - 1/2*z"
    assert format_terms(f5, [("x", f5.of(2)), ("y", f5.of(-1))]) == "2*x - y"


def test_scale():
    a = tiny_binary()
    b = a.scale(QQ.of(3))
    assert b.product_of_basis((0, 0)) == (Fraction(3), Fraction(0))
    assert b.symmetry == a.symmetry


def test_reduce_basic():
    from nalg.catalog import dot_triple

    a = dot_triple(QQ, 2)
    red = a.reduce(1, a.by_label("b1"))
    assert red.arity == 2
    assert red.dim == 2
    # b2 * b2 = [b1, b2, b2] = b1
    assert red.product_of_basis((1, 1)) == (Fraction(1), Fraction(0))


def test_reduce_slot_positions():
    # slot index is 1-based; freezing different slots of an asymmetric
    # product gives different binary algebras
    t = NAryAlgebra.build(QQ, 3, 2, {(0, 0, 1): {1: 1}})
    a = t.element([1, 0])
    r1 = t.reduce(1, a)
    r3 = t.reduce(3, a)
    assert r1.product_of_basis((0, 1)) == (Fraction(0), Fraction(1))
    assert r3.product_of_basis((0, 1)) == (Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        t.reduce(0, a)
    with pytest.raises(ValueError):
        t.reduce(4, a)


def test_reduce_needs_arity_three():
    a = tiny_binary()
    with pytest.raises(ValueError):
        a.reduce(1, a.by_label("b1"))


def test_equality_ignores_presentation():
    a = NAryAlgebra.build(QQ, 2, 2, {(0, 1): {0: 1}, (1, 0): {0: 1}})
    b = NAryAlgebra.build(
        QQ, 2, 2, {(0, 1): {0: 1}}, labels=["x", "y"], symmetry="total"
    )
    assert a == b
    assert algebras_equal(a, b)
    c = NAryAlgebra.build(QQ, 2, 2, {(0, 1): {0: 2}}, symmetry="total")
    assert a != c
    assert a != NAryAlgebra.build(GF(5), 2, 2, {(0, 1): {0: 1}}, symmetry="total")


def test_is_zero_algebra():
    z = NAryAlgebra.build(QQ, 3, 2, {})
    assert z.is_zero_algebra()
    assert not tiny_binary().is_zero_algebra()


def test_slot_multiplication_operators():
    from nalg.catalog import dot_triple

    a = dot_triple(QQ, 2)
    ops = a.slot_multiplication_operators()
    # ternary, dim 2: three slots, four index pairs each
    assert len(ops) == 3 * 4
    # slot 0 operator at (b1, b1) is z -> [z, b1, b1]; its row 0 holds
    # the (coordinate, int) pairs of den times [b1, b1, b1]
    first = ops[0]
    b1 = a.by_label("b1")
    den = a.int_table()[0]
    want = a.multiply(b1, b1, b1).coords
    assert len(first) == 2
    assert list(first[0]) == [(j, c * den) for j, c in enumerate(want) if c != 0]
