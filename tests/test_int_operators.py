"""The conversions of an operator between its three forms, each with one
owner in :mod:`nalg.linalg`, the one pair walk over commutators, and the
commutator scan's skip of zero operators.

``linalg.int_operator`` reads a ``Matrix`` into (scale, one sparse int
row over its d^2 entries, row-major); it must agree with ``int_row`` and
the lcm of the denominators on drawn matrices over Q (mixed
denominators, the zero matrix), GF(2) and GF(13).  Every caller that
takes a ``Matrix`` through it (``checks.leibniz_sides``,
``derivations.is_derivation`` and ``linalg.matrix_algebra_closure``)
must still refuse a matrix of the wrong shape.  ``linalg.split_rows``
turns the flat form into d sparse rows; on every commutator of the
``tests/test_int_view.py`` cases its rows must hold exactly the flat
form's entries.

The commutator check never pairs a basis tuple whose R_x is zero, as a
zero operator commutes with everything: on a dimension-40 table with one
or two products, the scan of ``check_dxy_identity`` makes as many
``int_commutator`` calls as there are pairs of nonzero R_x, not one for
each of the 1,279,200 pairs.  Once the walk of the Leibniz forms has
ended, it forms no commutator at all: a passing check on
``dot_triple(Q, 8)`` or ``dot_triple(GF(13), 6)``, whose first
commutator ends the walk, makes one call.

``linalg.int_commutators`` must yield what a plain loop over all pairs
yields, zero operators included, on the R_x and slot operators of every
case, and read the operators lazily.  ``inner_derivation_space`` must
read each row of each basis R_x off the table exactly once: it takes the
R_x from ``NAryAlgebra.slot_operators`` and pairs the ones it has made.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nalg.checks
import nalg.linalg
from nalg import catalog
from nalg.algebra import NAryAlgebra
from nalg.checks import (
    _basis_tuples,
    check_dxy_identity,
    leibniz_sides,
    reevaluate_witness,
)
from nalg.derivations import inner_derivation_space, is_derivation
from nalg.fields import GF, QQ
from nalg.linalg import (
    Matrix,
    int_commutator,
    int_commutators,
    int_operator,
    int_row,
    matrix_algebra_closure,
    split_rows,
)

from test_int_view import CASES, nonzero_commutators

ENTRIES = {
    QQ: [0, 0, 0, 1, -1, 7]
    + [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(9, 4)],
    GF(2): [0, 0, 1, 3],
    GF(13): [0, 0, 1, -1, 12, 40, Fraction(1, 2)],
}


@st.composite
def matrices(draw, field):
    """Square matrices of dimension 1 to 4, mostly zero; over Q one in
    eight is the zero matrix."""
    d = draw(st.integers(1, 4))
    if field == QQ and draw(st.integers(0, 7)) == 0:
        return Matrix.zeros(field, d, d)
    entry = st.sampled_from(ENTRIES[field])
    return Matrix(field, [[draw(entry) for _ in range(d)] for _ in range(d)])


@pytest.mark.parametrize("field", list(ENTRIES), ids=repr)
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_int_operator_matches_int_row(field, data):
    m = data.draw(matrices(field))
    flat = m.flatten()
    scale, op = int_operator(field, m.nrows, m)
    ints = int_row(field, flat)
    assert op == {q: v for q, v in enumerate(ints) if v}
    assert list(op) == sorted(op)
    assert all(type(q) is int and type(v) is int for q, v in op.items())
    assert scale == (lcm(*[c.denominator for c in flat]) if field == QQ else 1)
    if field == QQ:
        assert all(v == c * scale for v, c in zip(ints, flat))


def test_int_operator_of_the_zero_matrix():
    for field in ENTRIES:
        assert int_operator(field, 3, Matrix.zeros(field, 3, 3)) == (1, {})


@pytest.mark.parametrize("field", list(ENTRIES), ids=repr)
def test_wrong_shape_operators_are_refused(field):
    alg = NAryAlgebra.build(field, 2, 2, {(0, 1): {1: 1}})
    zs = tuple(alg.basis())
    for m in (Matrix.identity(field, 3), Matrix.zeros(field, 2, 3)):
        with pytest.raises(ValueError):
            leibniz_sides(alg, m, zs)
        with pytest.raises(ValueError):
            is_derivation(alg, m)
        with pytest.raises(ValueError):
            matrix_algebra_closure(field, 2, [Matrix.identity(field, 2), m])


@pytest.mark.parametrize("alg", CASES)
def test_split_rows_match_the_flat_commutators(alg):
    d = alg.dim
    for _, _, op in nonzero_commutators(alg):
        rows = split_rows(op, d)
        assert len(rows) == d
        for i, row in enumerate(rows):
            assert list(row.items()) == [
                (q - i * d, c) for q, c in op.items() if q // d == i
            ]
        flat = {i * d + j: c for i, row in enumerate(rows) for j, c in row.items()}
        assert flat == op


@pytest.fixture
def commutator_calls(monkeypatch):
    """The number of ``int_commutator`` calls the checks make: in the pair
    walk ``linalg.int_commutators`` and in the witness's ``dxy_sides``."""
    calls = [0]
    original = nalg.linalg.int_commutator

    def counted(a, b, p):
        calls[0] += 1
        return original(a, b, p)

    monkeypatch.setattr(nalg.linalg, "int_commutator", counted)
    monkeypatch.setattr(nalg.checks, "int_commutator", counted)
    return calls


def test_a_lone_product_pairs_no_operator(commutator_calls):
    """Only R_(b2, b3) is nonzero among the 1600 R_x: no pair is formed,
    and every commutator is zero, so the check passes."""
    alg = NAryAlgebra.build(QQ, 3, 40, {(0, 1, 2): {3: 1}})
    assert check_dxy_identity(alg).passed
    assert commutator_calls[0] == 0


def test_two_products_pair_their_operators_once(commutator_calls):
    """R_(b2, b3) sends b1 to b4 and R_(b3, b2) fixes b1: one pair, whose
    commutator sends b1 to -b4 and breaks the rule at (b1, b3, b2).  The
    scan forms that commutator once, and the witness's sides once more."""
    alg = NAryAlgebra.build(QQ, 3, 40, {(0, 1, 2): {3: 1}, (0, 2, 1): {0: 1}})
    verdict = check_dxy_identity(alg)
    assert commutator_calls[0] == 2
    assert not verdict.passed
    b = alg.basis()
    data = {"x": (b[1], b[2]), "y": (b[2], b[1]), "z": (b[0], b[2], b[1])}
    assert verdict.witness.data == data
    lhs, rhs = reevaluate_witness(alg, verdict.witness)
    assert (lhs, rhs) == (verdict.witness.lhs, verdict.witness.rhs)
    assert lhs == alg.element([0, 0, 0, -1] + [0] * 36) and rhs.is_zero()


@pytest.mark.parametrize(
    "alg",
    [catalog.dot_triple(QQ, 8), catalog.dot_triple(GF(13), 6)],
    ids=["dot8-Q", "dot6-F_13"],
)
def test_a_passing_check_forms_one_commutator(alg, commutator_calls):
    """The first pair's commutator passes and ends the walk of the forms;
    every later pair is tested on the packed form values, and no
    commutator is formed for it."""
    assert check_dxy_identity(alg).passed
    assert commutator_calls[0] == 1


# -- one owner of the slot operators, one pair walk -----------------------------


def all_pairs(ops, p):
    """(a, b, commutator) for every pair a < b whose commutator is nonzero,
    zero operators included: the plain loop the pair walk replaces."""
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if op := int_commutator(ops[a], ops[b], p):
                yield a, b, op


@pytest.mark.parametrize("alg", CASES)
def test_pair_walk_matches_all_pairs(alg):
    """``int_commutators`` yields the nonzero commutators of the plain
    all-pairs loop, in its order, on the R_x and on the slot operators
    (the first 48 of them), with zero operators put first, between and
    last.  Stopped at its first commutator, it has read the operators up
    to that pair's second one when the pair holds the first nonzero
    operator, and all of them otherwise."""
    d, p = alg.dim, alg.field.char
    zero = [()] * d
    rights = list(alg.slot_operators(0, _basis_tuples(alg, alg.arity - 1)))
    slots = alg.slot_multiplication_operators()[:48]
    for ops in (rights, slots, [zero, *rights[:20], zero, *slots[:20], zero]):
        want = list(all_pairs(ops, p))
        assert list(int_commutators(iter(ops), p)) == want
        read = []
        first = next(int_commutators((read.append(op) or op for op in ops), p), None)
        assert first == (want[0] if want else None)
        # the first nonzero operator is paired as the others are read
        lead = next((a for a, op in enumerate(ops) if any(op)), None)
        if first is not None and first[0] == lead:
            assert len(read) == first[1] + 1
        else:
            assert len(read) == len(ops)


class CountedTable(dict):
    """An int table that counts the lookups made through ``get``."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = Counter()

    def get(self, key, default=None):
        self.lookups[key] += 1
        return super().get(key, default)


@pytest.mark.parametrize("alg", CASES)
def test_inner_derivations_read_each_right_operator_once(alg):
    """``inner_derivation_space`` reads every row of every basis R_x off
    the table once: it pairs the R_x it has made, and makes none again."""
    den, table = alg.int_table()
    counted = CountedTable(table)
    twin = NAryAlgebra(
        alg.field, alg.arity, alg.dim, alg.labels, None, alg.symmetry, (den, counted)
    )
    assert inner_derivation_space(twin) == inner_derivation_space(alg)
    rows = {
        (j,) + x for x in _basis_tuples(alg, alg.arity - 1) for j in range(alg.dim)
    }
    assert counted.lookups == Counter(rows)
