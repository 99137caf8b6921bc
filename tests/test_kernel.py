"""Differential tests of the integer elimination kernel against a boxed one.

``ReferenceRowSpace`` below eliminates directly on field scalars
(``Fraction`` over Q, ``Mod`` over GF(p)), one entry at a time.  Swapping
it in for ``nalg.linalg.RowSpace`` everywhere nalg looks the kernel up must
change nothing: drawn matrices give the same reduced rows, pivots, rank,
membership, nullspace, sum and intersection, and over the catalog at
small sizes the derivation algebra, the inner derivations and the
degree-1 identity space come out the same, entry for entry and type for
type.  Plain-int rows, as the scans hand them over, go in as ``field.of``
takes them.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import gcd
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog
from nalg.checks import check_total_commutativity
from nalg.derivations import derivation_algebra, inner_derivation_space
from nalg.fields import GF, QQ
from nalg.identities import identity_space
from nalg.linalg import Matrix, RowSpace, SubspaceBasis

from test_leibniz import CASES


def _reduce_row_against(row, pivot_rows):
    # pivot_rows: list of (pivot_col, row) sorted by pivot_col
    row = list(row)
    for pc, prow in pivot_rows:
        c = row[pc]
        if c != 0:
            for k in range(pc, len(row)):
                row[k] = row[k] - c * prow[k]
    return row


class ReferenceRowSpace:
    """A growing row space kept in reduced row echelon form, eliminated on
    field scalars."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._rows = []  # list of (pivot_col, row list), sorted by pivot_col

    @classmethod
    def from_rref(cls, field, ncols, rows):
        space = cls(field, ncols)
        for row in rows:
            space.insert(list(row))
        return space

    @property
    def rank(self):
        return len(self._rows)

    def insert(self, row):
        if len(row) != self.ncols:
            raise ValueError("expected %d entries, got %d" % (self.ncols, len(row)))
        row = _reduce_row_against(row, self._rows)
        pc = next((k for k, c in enumerate(row) if c != 0), None)
        if pc is None:
            return False
        inv = self.field.one / row[pc]
        row = [c * inv for c in row]
        for _, prow in self._rows:
            c = prow[pc]
            if c != 0:
                for k in range(pc, self.ncols):
                    prow[k] = prow[k] - c * row[k]
        self._rows.append((pc, row))
        self._rows.sort(key=lambda item: item[0])
        return True

    def contains(self, row):
        return all(c == 0 for c in _reduce_row_against(row, self._rows))

    def rows(self):
        return [list(r) for _, r in self._rows]

    def pivots(self):
        return [pc for pc, _ in self._rows]


@contextmanager
def reference_kernel():
    """Replace RowSpace in every nalg module that holds it by name."""
    places = [
        m for name, m in list(sys.modules.items())
        if name.split(".")[0] == "nalg" and getattr(m, "RowSpace", None) is RowSpace
    ]
    for m in places:
        m.RowSpace = ReferenceRowSpace
    try:
        yield
    finally:
        for m in places:
            m.RowSpace = RowSpace


def as_data(vectors):
    """Vectors as (type, printed form) per entry, so that equal values of
    different scalar types do not compare equal."""
    return [[(type(c).__name__, str(c)) for c in v] for v in vectors]


def kernel_results(field, a, b):
    """Everything the kernel decides about two lists of rows."""
    n = len(a[0])
    space = RowSpace(field, n)
    grew = [space.insert(list(r)) for r in a]
    u = SubspaceBasis.from_vectors(field, n, a)
    w = SubspaceBasis.from_vectors(field, n, b)
    return {
        "grew": grew,
        "rank": space.rank,
        "rows": as_data(space.rows()),
        "pivots": space.pivots(),
        "contains": [space.contains(list(r)) for r in b],
        "contains_vector": [u.contains_vector(r) for r in b],
        "nullspace": as_data(Matrix(field, a).nullspace().vectors),
        "matrix_rank": Matrix(field, a).rank(),
        "sum": as_data(u.sum(w).vectors),
        "intersect": as_data(u.intersect(w).vectors),
        "u_in_w": w.contains(u),
        "w_in_u": u.contains(w),
    }


Q_ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.fractions(min_value=-40, max_value=40, max_denominator=15),
)


@st.composite
def row_lists(draw, field, n):
    """Rows that are small combinations of a few drawn generators, so that
    dependent rows and proper subspaces are common."""
    if field.char:
        entry = st.one_of(st.sampled_from([0, 0, 1]), st.integers(-2 * field.char, 2 * field.char))
    else:
        entry = Q_ENTRIES
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    coeff = st.sampled_from([0, 0, 1, -1, 2, 3, Fraction(1, 2)] if not field.char else [0, 0, 1, -1, 2, 3])
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        cs = [draw(coeff) for _ in gens]
        rows.append([sum(c * g[k] for c, g in zip(cs, gens)) for k in range(n)])
    return [[field.of(c) for c in r] for r in rows]


def assert_integer_form(space):
    """Stored rows are ints: over GF(p) residues with pivot 1, over Q
    primitive rows with a positive pivot entry."""
    p = space.field.char
    for pc, row in zip(space.pivots(), space._rows):
        assert all(type(c) is int for c in row)
        assert not any(row[:pc])
        if p:
            assert row[pc] == 1 and all(0 <= c < p for c in row)
        else:
            assert row[pc] > 0 and gcd(*row) == 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)], ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_drawn_matrices_match_reference_kernel(field, data):
    n = data.draw(st.integers(1, 8))
    a = data.draw(row_lists(field, n))
    b = data.draw(row_lists(field, n))
    got = kernel_results(field, a, b)
    with reference_kernel():
        want = kernel_results(field, a, b)
    assert got == want
    space = RowSpace(field, n)
    for r in a + b:
        space.insert(r)
        assert_integer_form(space)
    assert_integer_form(SubspaceBasis.from_vectors(field, n, a)._space())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)], ids=repr)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_int_rows_match_field_rows(field, data):
    """Plain ints, negative or not reduced, are taken as field.of takes them."""
    n = data.draw(st.integers(1, 6))
    entry = st.integers(-3 * (field.char or 5), 3 * (field.char or 5))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    ints, boxed = RowSpace(field, n), RowSpace(field, n)
    for r in rows:
        assert ints.insert(list(r)) == boxed.insert([field.of(c) for c in r])
        assert ints.contains(list(r)) and boxed.contains(list(r))
    assert as_data(ints.rows()) == as_data(boxed.rows())
    assert ints.pivots() == boxed.pivots()


def test_reference_kernel_is_swapped_in():
    from nalg import derivations, identities, linalg, structure

    with reference_kernel():
        for m in (linalg, derivations, identities, structure):
            assert m.RowSpace is ReferenceRowSpace
    assert linalg.RowSpace is RowSpace


def catalog_results(alg):
    der = derivation_algebra(alg)
    out = {"der": as_data(der.basis.vectors)}
    out["inner"] = as_data(inner_derivation_space(alg).basis.vectors)
    modes = ["general"]
    if check_total_commutativity(alg).passed:
        modes.append("commutative")
    for mode in modes:
        out[mode] = as_data(identity_space(alg, 1, mode).solutions.vectors)
    return out


@pytest.mark.parametrize("alg", CASES)
def test_catalog_spaces_match_reference_kernel(alg):
    got = catalog_results(alg)
    with reference_kernel():
        want = catalog_results(alg)
    assert got == want
