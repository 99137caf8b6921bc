from fractions import Fraction
from itertools import permutations

import pytest

from nalg.fields import GF, QQ, Mod
from nalg.linalg import (
    Matrix,
    RowSpace,
    SubspaceBasis,
    column_map,
    int_row,
    matrix_algebra_closure,
    nullspace_of,
    operator_map,
)


def mat(rows, field=QQ):
    return Matrix(field, rows)


def det_by_permutations(m):
    """Independent oracle: Leibniz expansion over all permutations."""
    n = m.nrows
    total = m.field.zero
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = m.field.one
        for i in range(n):
            term = term * m.rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def test_matrix_shape_checks():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    a = mat([[1, 2], [3, 4]])
    b = mat([[1, 2, 3]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b.transpose()  # 2x2 against 3x1
    assert (b.transpose() @ b).nrows == 3


def test_matrix_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert (a + b).rows == ((Fraction(1), Fraction(3)), (Fraction(4), Fraction(4)))
    assert (a - a).is_zero()
    assert (-a + a).is_zero()
    assert a.scale(2).rows[1][1] == 8
    assert (a @ b).rows == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_arithmetic_results_hold_field_scalars(field):
    a = Matrix(field, [[1, "2/3", 0], [-4, 0, 7]])
    b = Matrix(field, [["1/2", 3, -1], [0, 0, 2]])
    results = [a + b, a - b, -a, a.scale("3/4"), a @ b.transpose(), a.transpose()]
    kind = Fraction if field == QQ else Mod
    for m in results:
        assert all(type(c) is kind for r in m.rows for c in r)
        assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
        again = Matrix(field, m.rows)
        assert again == m
        assert repr(again) == repr(m)
    assert (a + b).rows[0][1] == field.of("2/3") + field.of(3)
    assert (a @ b.transpose()).rows == Matrix(field, [["5/2", 0], [-9, 14]]).rows


def test_matmul_against_by_hand():
    a = mat([[1, 2, 0], [0, 1, 1]])
    b = mat([[1, 0], [2, 1], [3, 3]])
    c = a @ b
    for i in range(2):
        for j in range(2):
            s = sum(a.rows[i][k] * b.rows[k][j] for k in range(3))
            assert c[i, j] == s


def test_apply_is_row_vector_action():
    m = mat([[0, 1], [2, 0]])
    assert m.apply((1, 0)) == (Fraction(0), Fraction(1))
    assert m.apply((0, 1)) == (Fraction(2), Fraction(0))
    # (v M) N == v (M @ N): "M then N" composition order
    n = mat([[1, 1], [0, 1]])
    v = (3, 5)
    assert n.apply(m.apply(v)) == (m @ n).apply(v)


def test_transpose_and_commutator():
    m = mat([[1, 2], [3, 4]])
    assert m.transpose().rows == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    n = mat([[0, 1], [0, 0]])
    c = m.commutator(n)
    assert c == m @ n - n @ m


def test_matrix_equality_and_flatten():
    m = mat([[1, 2], [3, 4]])
    assert m == mat([[1, 2], [3, 4]])
    assert m != mat([[1, 2], [3, 5]])
    assert m.flatten() == (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert Matrix.from_flat(QQ, 2, 2, m.flatten()) == m


def test_rref_known_case():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = m.rref()
    # zero rows are dropped from the reduced form
    assert list(pivots) == [0, 1]
    assert r.nrows == 2
    assert r.rows[0] == (Fraction(1), Fraction(0), Fraction(-1))
    assert r.rows[1] == (Fraction(0), Fraction(1), Fraction(2))


def test_rank_nullity():
    # nullspace holds column vectors: rank + nullity = number of columns
    cases = [
        mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]]),
        mat([[0, 0], [0, 0]]),
        Matrix.identity(QQ, 4),
        mat([[1, 2], [3, 4], [5, 6]]),
    ]
    for m in cases:
        assert m.rank() + m.nullspace().dim == m.ncols


def test_nullspace_vectors_annihilate():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    ns = m.nullspace()
    assert ns.dim == 1
    for v in ns.vectors:
        out = [sum(m.rows[i][j] * v[j] for j in range(3)) for i in range(3)]
        assert all(c == 0 for c in out)


def test_det_matches_permutation_expansion():
    cases = [
        mat([[2]]),
        mat([[1, 2], [3, 4]]),
        mat([[1, 2, 3], [0, 1, 4], [5, 6, 0]]),
        mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        Matrix(GF(7), [[1, 2, 3], [4, 5, 6], [1, 1, 2]]),
    ]
    for m in cases:
        assert m.det() == det_by_permutations(m)


def test_det_singular():
    assert mat([[1, 2], [2, 4]]).det() == 0


def test_inverse():
    m = mat([[1, 2], [3, 4]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(QQ, 2)
    assert inv @ m == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        mat([[1, 2], [2, 4]]).inverse()
    f = GF(5)
    m5 = Matrix(f, [[1, 2], [3, 4]])
    assert m5 @ m5.inverse() == Matrix.identity(f, 2)


def test_row_space_incremental():
    rs = RowSpace(QQ, 3)
    assert rs.insert([1, 2, 3])
    assert not rs.insert([2, 4, 6])
    assert rs.insert([0, 1, 1])
    assert rs.rank == 2
    assert rs.contains([1, 3, 4])
    assert not rs.contains([0, 0, 1])
    assert rs.pivots() == [0, 1]


def test_row_space_takes_dict_rows():
    """A dict from column to entry is the same row as the list it spells;
    zero entries are dropped and columns outside the row are refused."""
    for field in (QQ, GF(5)):
        dense, sparse = RowSpace(field, 4), RowSpace(field, 4)
        for row in ([0, 2, 0, "1/2"], [1, 0, 0, 3], [1, 2, 0, 7], [0, 0, 0, 0]):
            given = {k: c for k, c in enumerate(row) if k % 2 or c}
            assert sparse.insert(given) == dense.insert(row)
            assert sparse.contains(given)
        assert sparse.rows() == dense.rows()
        assert not sparse.contains({2: 1})
        for bad in ({4: 1}, {-1: 1}):
            with pytest.raises(ValueError):
                sparse.insert(bad)
            with pytest.raises(ValueError):
                sparse.contains(bad)
        with pytest.raises(TypeError):
            sparse.insert({0: 0.5})


def orbit_span(field, n, rows):
    """The span of every permutation of the columns of every row."""
    space = RowSpace(field, n)
    for row in rows:
        for perm in permutations(range(n)):
            image = [0] * n
            for k, c in row.items():
                image[perm[k]] = c
            space.insert(image)
    return space


SPIN_ROWS = [
    [{0: 1, 1: -1}],
    [{0: 1, 2: 1, 3: "1/5"}, {1: 2, 4: -1}],
    [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}],
    [{2: 3}],
]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
def test_spin_under_two_generators_spans_every_permutation(field):
    """(0 1) and (0 1 2 3 4) generate S5: the spun span is the span of
    all 120 permuted copies of the rows; (0 1 2 3) alone generates a
    smaller group, whose span misses the vector that mixes column 4."""
    maps = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
    for rows in SPIN_ROWS:
        space = RowSpace(field, 5)
        space.spin(rows, [column_map(m) for m in maps])
        assert space.rows() == orbit_span(field, 5, rows).rows()
        # the nullspace of the closed span, with the maps conjugated by
        # the column reversal inside nullspace_of
        want = nullspace_of(field, 5, orbit_span(field, 5, rows).rows())
        assert nullspace_of(field, 5, rows, maps) == want
    space = RowSpace(field, 5)
    space.spin([{0: 1, 1: -1}], [column_map([1, 2, 3, 0, 4])])
    assert space.rank == 3 and not space.contains([1, 0, 0, 0, -1])


def test_spin_stops_reading_rows_at_full_rank():
    read = []

    def rows():
        for row in ({0: 1}, {1: 1}, {2: 1}):
            read.append(row)
            yield row

    space = RowSpace(QQ, 3)
    space.spin(rows(), [column_map([1, 2, 0])])
    assert space.rank == 3 and read == [{0: 1}]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=repr)
def test_spin_coerces_each_given_row_once_and_no_image(field, monkeypatch):
    """Images of ``operator_map`` are already sparse int rows in the
    kernel's form: ``spin`` coerces each row it is given once, and hands
    the images to the elimination as they are."""
    coerced = []
    sparse = RowSpace._sparse

    def counted(self, row):
        coerced.append(row)
        return sparse(self, row)

    monkeypatch.setattr(RowSpace, "_sparse", counted)
    # e0 -> 2 e1 and e2 -> e3; the second row lies in the span of the first
    op = [[(1, 2)], [], [(3, 1)], []]
    rows = [["1/2", 0, 0, 0], {0: 2, 1: 5}, {2: 1, 3: -1}]
    space = RowSpace(field, 4)
    space.spin(rows, [operator_map(op, field.char)])
    assert len(coerced) == len(rows)
    assert all(a is b for a, b in zip(coerced, rows))
    assert space.rank == 4


def test_basis_read_off_a_kernel_boxes_its_vectors_on_first_use():
    for field in (QQ, GF(5)):
        space = RowSpace(field, 4)
        for row in ([1, 2, 0, "1/2"], [0, 0, 3, 1]):
            space.insert(row)
        want = space.rows()
        calls = []
        space.rows = lambda: calls.append(1) or want
        basis = SubspaceBasis.of_kernel(space)
        assert basis.dim == 2 and not basis.is_zero() and not basis.is_full()
        assert basis.terms() == space.terms()
        assert basis.contains_vector([1, 2, 3, "3/2"])
        assert calls == []
        assert basis.vectors == tuple(tuple(v) for v in want)
        assert basis.vectors is basis.vectors and calls == [1]
        same = SubspaceBasis.from_vectors(field, 4, want)
        assert basis == same and hash(basis) == hash(same)
        assert not hasattr(basis, "__dict__")


def test_row_space_rejects_float():
    # exactness: 0.5 must be neither stored as a float nor truncated to 0
    for field in (QQ, GF(5)):
        rs = RowSpace(field, 2)
        with pytest.raises(TypeError):
            rs.insert([0.5, 1])
        with pytest.raises(TypeError):
            rs.contains([0.5, 1])
        assert rs.rank == 0


def test_row_space_rejects_residue_of_another_prime():
    rs = RowSpace(GF(5), 2)
    rs.insert([1, 0])
    with pytest.raises(ValueError):
        rs.insert([Mod(1, 7), 1])
    with pytest.raises(ValueError):
        rs.contains([Mod(1, 7), 0])
    assert rs.rank == 1


def test_int_row_takes_the_plain_path_only_for_plain_ints():
    """A bool, Fraction or Mod after leading ints sends the row through
    field.of: bools come back as ints, denominators are cleared."""
    out = int_row(QQ, [1, 2, True])
    assert out == [1, 2, 1] and all(type(c) is int for c in out)
    assert int_row(QQ, [1, 2, Fraction(1, 2)]) == [2, 4, 1]
    assert int_row(GF(5), [1, 7, Mod(3, 5)]) == [1, 2, 3]
    assert int_row(GF(5), [6, -1, False]) == [1, 4, 0]
    assert int_row(QQ, [4, -6]) == [4, -6]
    assert int_row(GF(5), [4, -6]) == [4, 4]


def test_int_row_rejects_late_float_and_foreign_residue():
    for field in (QQ, GF(5)):
        with pytest.raises(TypeError):
            int_row(field, [1, 0, 0.5])
        rs = RowSpace(field, 3)
        with pytest.raises(TypeError):
            rs.insert([1, 0, 0.5])
        with pytest.raises(TypeError):
            rs.contains([1, 0, 0.5])
    for row in ([1, 0, Mod(1, 7)], [Mod(1, 5), 0, Mod(1, 7)]):
        with pytest.raises(ValueError):
            int_row(GF(5), row)
        with pytest.raises(ValueError):
            RowSpace(GF(5), 3).insert(row)


def test_int_row_on_rows_made_only_of_field_scalars():
    """An all-Fraction row with mixed denominators is cleared to the lcm;
    an all-Mod row of another prime is refused, also through RowSpace."""
    out = int_row(GF(5), [Mod(3, 5), Mod(0, 5), Mod(4, 5)])
    assert out == [3, 0, 4] and all(type(c) is int for c in out)
    out = int_row(QQ, [Fraction(1, 2), Fraction(-2, 3), Fraction(0), Fraction(5, 6)])
    assert out == [3, -4, 0, 5] and all(type(c) is int for c in out)
    assert int_row(QQ, [Fraction(4), Fraction(-6)]) == [4, -6]
    for row in ([Mod(1, 7), Mod(2, 7)], [Mod(1, 5), Mod(2, 7)]):
        with pytest.raises(ValueError):
            int_row(GF(5), row)
        with pytest.raises(ValueError):
            RowSpace(GF(5), 2).insert(row)
    with pytest.raises(TypeError):
        int_row(QQ, [Mod(1, 5), Mod(2, 5)])
    assert int_row(GF(5), [Fraction(1, 2), Fraction(3)]) == [3, 3]


def test_subspace_basis_rejects_float_and_foreign_residue():
    """SubspaceBasis leaves coercion to the kernel, which still refuses."""
    for field in (QQ, GF(5)):
        s = SubspaceBasis.from_vectors(field, 2, [(1, 0)])
        for v in ((0.5, 1), (1, 0.5)):
            with pytest.raises(TypeError):
                SubspaceBasis.from_vectors(field, 2, [v])
            with pytest.raises(TypeError):
                s.contains_vector(v)
    s = SubspaceBasis.from_vectors(GF(5), 2, [(1, 0)])
    for v in ((Mod(1, 7), 1), (1, Mod(1, 7))):
        with pytest.raises(ValueError):
            SubspaceBasis.from_vectors(GF(5), 2, [v])
        with pytest.raises(ValueError):
            s.contains_vector(v)
    with pytest.raises(ValueError):
        s.contains_vector((1, 0, 0))
    assert SubspaceBasis.from_vectors(GF(5), 2, [(6, "1/2")]).vectors == (
        (GF(5).one, GF(5).of(3)),
    )


def test_subspace_membership_refuses_non_echelon_rows():
    # membership reduces against the stored rows as they are
    for field in (QQ, GF(5)):
        s = SubspaceBasis(field, 2, [(1, 1), (1, 0)])
        with pytest.raises(ValueError):
            s.contains_vector((0, 1))
    with pytest.raises(ValueError):
        SubspaceBasis(GF(5), 2, [(2, 0)]).contains_vector((1, 0))


def test_subspace_canonical_form():
    # different generating sets for the same plane give identical bases
    a = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    b = SubspaceBasis.from_vectors(QQ, 3, [(1, 1, 2), (2, 1, 3), (3, 2, 5)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_subspace_membership():
    s = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 1), (0, 1, 1)])
    assert s.contains_vector((2, 3, 5))
    assert not s.contains_vector((1, 0, 0))
    t = SubspaceBasis.from_vectors(QQ, 3, [(1, 1, 2)])
    assert s.contains(t)
    assert not t.contains(s)


def test_subspace_zero_and_full():
    z = SubspaceBasis.zero(QQ, 3)
    f = SubspaceBasis.full(QQ, 3)
    assert z.is_zero() and z.dim == 0
    assert f.is_full() and f.dim == 3
    s = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 0)])
    assert z.sum(s) == s
    assert f.intersect(s) == s


def test_sum_intersect_dimension_formula():
    """dim(U + W) + dim(U n W) = dim U + dim W on assorted pairs."""
    pairs = [
        ([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]),
        ([(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 1, 0, 0), (0, 0, 1, 0)]),
        ([(1, 1, 0, 0)], [(1, 1, 0, 0), (0, 0, 1, 1)]),
        ([(1, 2, 3, 4), (0, 1, 0, 1)], [(1, 3, 3, 5), (1, 0, 0, 0)]),
    ]
    for gu, gw in pairs:
        u = SubspaceBasis.from_vectors(QQ, 4, gu)
        w = SubspaceBasis.from_vectors(QQ, 4, gw)
        s = u.sum(w)
        i = u.intersect(w)
        assert s.dim + i.dim == u.dim + w.dim
        assert s.contains(u) and s.contains(w)
        assert u.contains(i) and w.contains(i)


def test_intersection_members_in_both():
    u = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 1)])
    w = SubspaceBasis.from_vectors(QQ, 3, [(1, 1, 1), (1, 0, 1)])
    for v in u.intersect(w).vectors:
        assert u.contains_vector(v)
        assert w.contains_vector(v)


def test_closure_reaches_full_matrix_algebra():
    # e12 and e21 generate all of M2: Burnside certificate applies
    f = QQ
    gens = [Matrix.unit(f, 2, 2, 0, 1), Matrix.unit(f, 2, 2, 1, 0)]
    span, mats = matrix_algebra_closure(f, 2, gens)
    assert span.dim == 4
    assert len(mats) == 4


def test_closure_of_commuting_diagonals_stays_small():
    f = QQ
    gens = [Matrix(f, [[1, 0], [0, 2]])]
    span, _ = matrix_algebra_closure(f, 2, gens)
    assert span.dim == 2  # diag(1,2) and diag(1,4) span the diagonals
    assert span.contains_vector((1, 0, 0, 4))
    assert not span.contains_vector((0, 1, 0, 0))


def test_closure_over_prime_field():
    f = GF(3)
    gens = [Matrix(f, [[0, 1], [1, 0]])]
    span, _ = matrix_algebra_closure(f, 2, gens)
    assert span.dim == 2
