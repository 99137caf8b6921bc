"""Differential tests of the integer elimination kernel against a boxed one.

``ReferenceRowSpace`` below eliminates directly on field scalars
(``Fraction`` over Q, ``Mod`` over GF(p)), one entry at a time.  Swapping
it in for ``nalg.linalg.RowSpace`` everywhere nalg looks the kernel up must
change nothing: drawn matrices, narrow and dense or wide and sparse,
give the same reduced rows, nonzero terms, pivots, rank, membership,
containment, nullspace, sum and intersection, and over the catalog at
small sizes the derivation algebra, the inner derivations and the
degree-1 identity space come out the same, entry for entry and type for
type.  Plain-int rows, as the scans hand them over, go in as ``field.of``
takes them, and so do rows given as dicts from column to entry.  The
reference computes every kernel method nalg calls from its field-scalar
rows.
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
from nalg.linalg import Matrix, RowSpace, SubspaceBasis, operator_map

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


def cleared(field, row):
    """A field-scalar row as a sparse int row on the same line: residues
    over GF(p), over Q times the lcm of its denominators."""
    if field.char:
        return {k: c.r for k, c in enumerate(row) if c != 0}
    den = 1
    for c in row:
        den = den * c.denominator // gcd(den, c.denominator)
    return {k: int(c * den) for k, c in enumerate(row) if c != 0}


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

    def _dense(self, row):
        """A row given as a dict from column to entry, spelled out."""
        if not isinstance(row, dict):
            return row
        dense = [self.field.zero] * self.ncols
        for k, c in row.items():
            dense[k] = self.field.of(c)
        return dense

    def insert(self, row):
        row = self._dense(row)
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

    def insert_ints(self, row):
        """A row on the int view, a dict from column to nonzero int, goes
        in as field scalars."""
        return self.insert(row)

    def contains(self, row):
        return all(c == 0 for c in _reduce_row_against(self._dense(row), self._rows))

    def includes(self, other):
        return all(self.contains(r) for r in other.rows())

    def spin(self, rows, maps=()):
        """Insert the rows, then map every row of the space by every map
        until no image enlarges it.  A map takes a sparse int row, so each
        field-scalar row goes in with its denominators cleared (a nonzero
        scale changes no span) and its image is inserted as field scalars."""
        for row in rows:
            self.insert(row)
        grown = bool(maps)
        while grown:
            grown = False
            for row in self.rows():
                ints = cleared(self.field, row)
                for apply in maps:
                    grown |= self.insert(apply(ints))

    def rows(self):
        return [list(r) for _, r in self._rows]

    def terms(self):
        return [[(k, c) for k, c in enumerate(r) if c != 0] for r in self.rows()]

    def pivots(self):
        return [pc for pc, _ in self._rows]

    def reversed_annihilator(self):
        """The null vector e_f - sum_i A[i][f] e_{p_i} of each free column
        f, by decreasing f, with its columns reversed."""
        n, zero, one = self.ncols, self.field.zero, self.field.one
        pivots = self.pivots()
        vecs = []
        for f in reversed(range(n)):
            if f not in pivots:
                v = [zero] * n
                v[f] = one
                for pc, row in self._rows:
                    if pc < f and row[f] != 0:
                        v[pc] = -row[f]
                vecs.append(v[::-1])
        return ReferenceRowSpace.from_rref(self.field, n, vecs)


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
        "terms": [[(k, type(c).__name__, str(c)) for k, c in r] for r in u.terms()],
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
    """Stored rows are sparse maps from column to int, with no stored
    zero entry: over GF(p) residues with pivot 1, over Q primitive rows
    with a positive pivot entry."""
    p = space.field.char
    assert sorted(space._at) == space.pivots()
    for pc in space.pivots():
        row = space._at[pc]
        assert all(type(k) is int and 0 <= k < space.ncols for k in row)
        assert all(type(c) is int for c in row.values())
        assert all(c != 0 for c in row.values())
        assert min(row) == pc
        if p:
            assert row[pc] == 1 and all(0 <= c < p for c in row.values())
        else:
            assert row[pc] > 0 and gcd(*row.values()) == 1


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


@st.composite
def wide_sparse_rows(draw, field, n):
    """Rows of n columns with at most 6 nonzero entries each, taken from a
    pool of at most a dozen columns so that rows meet; zero rows and
    repeated rows are mixed in."""
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12, unique=True))
    if field.char:
        value = st.integers(1, field.char - 1)
    else:
        value = st.one_of(
            st.sampled_from([1, -1, 2]),
            st.fractions(min_value=-40, max_value=40, max_denominator=15).filter(bool),
        )
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = [field.zero] * n
        for k in draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)):
            row[k] = field.of(draw(value))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [field.zero] * n)
    return rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(13)], ids=repr)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_wide_sparse_rows_match_reference_kernel(field, data):
    """Wide sparse rows, as the identity and Leibniz systems make them,
    also handed over as dicts from column to entry."""
    n = data.draw(st.integers(100, 140))
    a = data.draw(wide_sparse_rows(field, n))
    b = data.draw(wide_sparse_rows(field, n))
    got = kernel_results(field, a, b)
    with reference_kernel():
        want = kernel_results(field, a, b)
    assert got == want
    space, from_dicts = RowSpace(field, n), RowSpace(field, n)
    from_ints = RowSpace(field, n)
    for r in a + b:
        sparse = {k: c for k, c in enumerate(r) if c}
        grew = space.insert(r)
        assert from_dicts.insert(sparse) == grew
        # the same row already on the int view, as insert_ints takes it
        assert from_ints.insert_ints(cleared(field, r)) == grew
        assert space.contains(sparse)
        assert_integer_form(space)
        assert_integer_form(from_ints)
    assert as_data(from_dicts.rows()) == as_data(space.rows())
    assert as_data(from_ints.rows()) == as_data(space.rows())


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


@st.composite
def sparse_operators(draw, n):
    """n x n operators as sparse int rows, as ``operator_map`` takes them:
    drawn ones, a nilpotent one (strictly upper triangular) and a scaling
    one, in a drawn order."""
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 3, -3])

    def operator(upper=False):
        rows = []
        for i in range(n):
            vals = [draw(entry) if j > i or not upper else 0 for j in range(n)]
            rows.append([(j, c) for j, c in enumerate(vals) if c])
        return rows

    ops = [operator() for _ in range(draw(st.integers(1, 2)))]
    ops.append(operator(upper=True))
    c = draw(st.sampled_from([2, -3, 6]))
    ops.append([[(i, c)] for i in range(n)])
    return draw(st.permutations(ops))


def plain_map(op):
    """``v |-> v @ op`` on sparse int rows, with no reduction."""

    def apply(row):
        out = {}
        for i, c in row.items():
            for j, v in op[i]:
                out[j] = out.get(j, 0) + c * v
        return out

    return apply


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_spin_under_drawn_operators_matches_reference_kernel(field, data):
    """The span of the rows closed under operators that are not
    permutations: the kernel's spin under ``operator_map`` against the
    reference's, under the same maps and under the maps with no
    reduction, which the reference applies to its field-scalar rows."""
    n = data.draw(st.integers(1, 6))
    rows = data.draw(row_lists(field, n))
    ops = data.draw(sparse_operators(n))
    maps = [operator_map(op, field.char) for op in ops]
    space = RowSpace(field, n)
    space.spin(rows, maps)
    assert_integer_form(space)
    for reference_maps in (maps, [plain_map(op) for op in ops]):
        reference = ReferenceRowSpace(field, n)
        reference.spin(rows, reference_maps)
        assert as_data(space.rows()) == as_data(reference.rows())
    for row in space.rows():
        ints = cleared(field, row)
        for op, apply in zip(ops, maps):
            assert space.contains(plain_map(op)(ints))
            # images are residues over GF(p), primitive over Q
            image = apply(ints)
            assert all(type(c) is int and c for c in image.values())
            if field.char:
                assert all(0 < c < field.char for c in image.values())
            elif image:
                assert gcd(*image.values()) == 1


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
