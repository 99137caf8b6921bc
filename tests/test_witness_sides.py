"""Leibniz witness sides and slot reduction on the int view, against the
boxed code they replaced.

``checks.dxy_sides`` builds R_x and R_y as int rows, their commutator on
ints, and both sides of the Leibniz rule on ints, and boxes each side
once; ``checks.leibniz_sides`` does the same for a given operator, read
once into ints.  The references are the boxed versions: two
``right_operator`` matrices, their boxed commutator and the sides through
``multiply``.  Sides must agree entry for entry and type for type, at the
witnesses of the scans over ``tests/test_int_view.py``'s cases and at
drawn element arguments with denominators.

``NAryAlgebra.reduce`` reads the reduced algebra's int view off its
contraction; the reference boxes each sum into field scalars and builds
the algebra from them.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from nalg import io
from nalg.algebra import Element, NAryAlgebra
from nalg.checks import check_dxy_identity, dxy_sides, leibniz_sides
from nalg.derivations import is_derivation
from nalg.fields import QQ
from nalg.linalg import Matrix

from test_int_view import CASES, drawn_operators, ref_leibniz_sides, typed


def ref_dxy_sides(alg, xs, ys, zs):
    """The sides of a dxy witness as they were computed in field scalars."""
    xs = tuple(x if isinstance(x, Element) else alg.element(x) for x in xs)
    ys = tuple(y if isinstance(y, Element) else alg.element(y) for y in ys)
    zs = tuple(z if isinstance(z, Element) else alg.element(z) for z in zs)
    return ref_leibniz_sides(alg, alg.d_operator(xs, ys), zs)


def ref_reduce(alg, position, a):
    """``reduce`` as it boxed each contracted sum and built from them."""
    s, (pairs,) = alg._supports([a])
    coords = dict(pairs)
    slot = position - 1
    den, table = alg.int_table()
    acc = {}
    for idx, terms in table.items():
        c = coords.get(idx[slot])
        if c:
            vec = acc.setdefault(idx[:slot] + idx[slot + 1 :], [0] * alg.dim)
            for j, v in terms:
                vec[j] += c * v
    entries = {idx: alg._box(enumerate(vec), s * den) for idx, vec in acc.items()}
    symmetry = "total" if alg.symmetry == "total" else "none"
    return NAryAlgebra.build(
        alg.field, alg.arity - 1, alg.dim, entries, alg.labels, symmetry
    )


def drawn_element(alg, rng):
    """A mostly nonzero element; over Q with denominators to clear."""
    values = [0, 1, -1, 2, 3]
    if alg.field == QQ:
        values += [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    return alg.element([rng.choice(values) for _ in range(alg.dim)])


@pytest.mark.parametrize("alg", CASES)
def test_witness_sides_match_boxed_sides(alg):
    """Every failing dxy witness, and the derivation witnesses of drawn
    operators, hold the sides the boxed code gives at their arguments."""
    verdict = check_dxy_identity(alg)
    if not verdict.passed:
        w = verdict.witness
        want = ref_dxy_sides(alg, w.data["x"], w.data["y"], w.data["z"])
        assert typed((w.lhs, w.rhs)) == typed(want)
    for op in drawn_operators(alg, random.Random(alg.dim), 6):
        verdict = is_derivation(alg, op)
        if not verdict.passed:
            w = verdict.witness
            want = ref_leibniz_sides(alg, op, w.data["args"])
            assert typed((w.lhs, w.rhs)) == typed(want)


@pytest.mark.parametrize("alg", CASES)
def test_sides_at_drawn_elements_match_boxed_sides(alg):
    rng = random.Random(7 * alg.dim + alg.arity)
    n = alg.arity
    ops = list(drawn_operators(alg, rng, 3))
    for op in ops:
        xs = [drawn_element(alg, rng) for _ in range(n - 1)]
        ys = [drawn_element(alg, rng) for _ in range(n - 1)]
        zs = [drawn_element(alg, rng) for _ in range(n)]
        got = dxy_sides(alg, xs, ys, zs)
        assert typed(got) == typed(ref_dxy_sides(alg, xs, ys, zs))
        # coordinate sequences are taken as elements
        coords = [z.coords for z in zs]
        assert typed(dxy_sides(alg, xs, ys, coords)) == typed(got)
        got = leibniz_sides(alg, op, zs)
        assert typed(got) == typed(ref_leibniz_sides(alg, op, zs))


def test_failing_dxy_check_makes_no_boxed_operator(monkeypatch):
    def refused(*args):
        raise AssertionError("boxed operator arithmetic in a dxy check")

    monkeypatch.setattr(Matrix, "__matmul__", refused)
    monkeypatch.setattr(NAryAlgebra, "right_operator", refused)
    failed = set()
    for param in CASES:
        alg = param.values[0]
        if not check_dxy_identity(alg).passed:
            failed.add((alg.field, "~/" in param.id))
    # failures over Q with and without denominators, and over GF(p)
    assert (QQ, True) in failed and (QQ, False) in failed
    assert any(field.char for field, _ in failed)


def reduction_arguments(alg):
    """Every basis element, the zero element, and two mixed elements."""
    rng = random.Random(alg.dim)
    yield from alg.basis()
    yield alg.zero_element()
    yield drawn_element(alg, rng)
    yield drawn_element(alg, rng)


@pytest.mark.parametrize("alg", [p for p in CASES if p.values[0].arity >= 3])
def test_reduce_matches_boxed_build(alg):
    for position, a in product(range(1, alg.arity + 1), reduction_arguments(alg)):
        got, want = alg.reduce(position, a), ref_reduce(alg, position, a)
        assert io.dumps(got) == io.dumps(want)
        assert got.int_table() == want.int_table()
        assert got.symmetry == want.symmetry
