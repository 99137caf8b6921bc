"""Differential tests of the identity spaces on the integer view against
boxed ones, and of the one-elimination nullspace.

``identity_space`` evaluates only the sorted substitutions and closes
their rows under renaming the variables; it is compared with itself as
it evaluated every substitution (``identity_system_rows`` below, on the
int view).

The references below are ``identity_system_rows``, ``identity_space``,
``lifting_span`` and ``verify_identity`` as they ran on field scalars
(``Fraction`` over Q, ``Mod`` over GF(p)) before they moved onto
:meth:`nalg.algebra.NAryAlgebra.int_table`, and the nullspace as it was
read before: the RREF of the rows, its null vectors, and a second
elimination of those in ``SubspaceBasis.from_vectors``.  Over the catalog
at small sizes over Q, F_2, F_3, F_5 and F_13, and over its dense twins
(over Q also with rows rescaled so that denominators differ), the view
must give the same spaces and witnesses, entry for entry and type for
type.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg.algebra import Element, NAryAlgebra
from nalg.checks import Verdict, Witness, check_total_commutativity, reevaluate_witness
from nalg.fields import GF, QQ
from nalg import identities
from nalg.identities import (
    IdentitySpace,
    Monomial,
    canonical_monomial,
    evaluate_monomial_on_basis,
    identity_space,
    lifting_span,
    monomial_basis,
    num_variables,
    rename_monomial,
    verify_identity,
)
from nalg.linalg import RowSpace, SubspaceBasis, nullspace_of

from test_int_view import CASES, as_data

TERNARY = [p for p in CASES if p.values[0].arity == 3]


def kinds(vectors):
    return [list(map(type, v)) for v in vectors]


def same(got, want):
    """Equal vectors with entries of equal types, as ``typed`` of
    test_int_view compares them, at C speed for 360 columns."""
    return [tuple(v) for v in got] == [tuple(v) for v in want] and kinds(got) == kinds(want)


def modes(alg):
    if check_total_commutativity(alg).passed:
        return ("general", "commutative")
    return ("general",)


# -- the boxed references ------------------------------------------------------


def identity_system_rows(alg, degree, mode):
    """Every evaluation row on the int view, substitution-major and
    coordinate-minor, at all d^nv substitutions: over Q a row is
    den^degree times its value, over GF(p) it holds residues.
    ``identity_space`` evaluates only the sorted substitutions."""
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    values = identities._int_values(alg, monomials)
    for subst in product(range(alg.dim), repeat=nv):
        dense = [[0] * alg.dim for _ in monomials]
        for vec, terms in zip(dense, values(subst)):
            for j, v in terms:
                vec[j] = v
        yield from zip(*dense)


def ref_nullspace(field, ncols, rows):
    """Null vectors read off the RREF of the rows, then eliminated again."""
    space = RowSpace(field, ncols)
    for row in rows:
        space.insert(list(row))
    red, pivots = space.rows(), space.pivots()
    vecs = []
    for f in range(ncols):
        if f not in pivots:
            v = [field.zero] * ncols
            v[f] = field.one
            for row, pc in zip(red, pivots):
                v[pc] = -row[f]
            vecs.append(v)
    return SubspaceBasis.from_vectors(field, ncols, vecs)


def ref_identity_system_rows(alg, degree, mode):
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    for subst in product(range(alg.dim), repeat=nv):
        values = [evaluate_monomial_on_basis(alg, m, subst) for m in monomials]
        for k in range(alg.dim):
            yield tuple(v[k] for v in values)


def ref_space_of_rows(field, ncols, rows):
    space = RowSpace(field, ncols)
    seen = set()
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        if any(c != 0 for c in row):
            space.insert(list(row))
        if space.rank == ncols:
            break
    return ref_nullspace(field, ncols, space.rows())


def ref_identity_space(alg, degree, mode):
    ncols = len(monomial_basis(alg.arity, degree, mode))
    return ref_space_of_rows(alg.field, ncols, ref_identity_system_rows(alg, degree, mode))


def ref_verify_identity(alg, coefficients, monomials):
    coefficients = tuple(alg.field.of(c) for c in coefficients)
    active = [(m, c) for m, c in zip(monomials, coefficients) if c != 0]
    nv = max((num_variables(alg.arity, m.degree) for m, _ in active), default=0)
    for subst in product(range(alg.dim), repeat=nv):
        acc = [alg.field.zero] * alg.dim
        for m, c in active:
            for j, x in enumerate(evaluate_monomial_on_basis(alg, m, subst)):
                if x != 0:
                    acc[j] = acc[j] + c * x
        if any(c != 0 for c in acc):
            data = {
                "monomials": tuple(monomials),
                "coefficients": coefficients,
                "substitution": tuple(alg.basis_element(i) for i in subst),
            }
            return Verdict(
                False,
                Witness("identity", data, Element(tuple(acc)), alg.zero_element()),
            )
    return Verdict(True)


def ref_lifting_span(base, mode):
    target = monomial_basis(3, 2, mode)
    index = {m: pos for pos, m in enumerate(target)}
    field = base.solutions.field

    def project(terms):
        row = [field.zero] * len(target)
        for m, c in terms:
            if mode == "commutative":
                m = canonical_monomial(m)
            row[index[m]] = row[index[m]] + c
        return row

    lifted = []
    for vec in base.solutions.vectors:
        terms = [(m, c) for m, c in zip(base.monomials, vec) if c != 0]
        for shape in range(3):
            lifted.append([(Monomial(2, shape, m.vars + (3, 4)), c) for m, c in terms])
        for t in range(3):
            keep = sorted(v for v in range(3) if v != t)
            relabel = {keep[0]: 0, keep[1]: 1, t: None}
            out = []
            for m, c in terms:
                slot = m.vars.index(t)
                rest = tuple(relabel[v] for v in m.vars if v != t)
                out.append((Monomial(2, slot, (2, 3, 4) + rest), c))
            lifted.append(out)
    space = RowSpace(field, len(target))
    seen = set()
    for terms in lifted:
        for p in permutations(range(5)):
            row = project([(rename_monomial(m, p), c) for m, c in terms])
            if tuple(row) not in seen:
                seen.add(tuple(row))
                space.insert(row)
    return SubspaceBasis(field, len(target), space.rows()), len(seen)


class CountingRowSpace(RowSpace):
    inserted = 0

    def insert(self, row):
        CountingRowSpace.inserted += 1
        return super().insert(row)


# -- rows and spaces -------------------------------------------------------------


# families whose degree-2 general-mode spaces (360 columns, d^6 rows) are
# compared, over every field and on every twin
WIDE = ("dot2", "tca1")


def degree_modes(alg, wide):
    out = [(1, mode) for mode in modes(alg)]
    if alg.arity == 3:
        out += [(2, mode) for mode in modes(alg) if mode == "commutative" or wide]
    return out


SPACE_CASES = [
    pytest.param(p.values[0], p.id.split("~")[0].split("-")[0] in WIDE, id=p.id)
    for p in CASES
]


@pytest.mark.parametrize("alg, wide", SPACE_CASES)
def test_rows_and_spaces_match_boxed(alg, wide):
    """Over Q a degree-k row is den^k times the boxed row; over GF(p) it
    holds the residues of the boxed row.  The space is compared with the
    whole boxed one where its second elimination is cheap.  In degree 2
    and general mode, where that takes seconds, the distinct boxed rows
    go through the one-elimination nullspace, which is itself compared
    with the second elimination below."""
    den = alg.int_table()[0]
    p = alg.field.char
    for degree, mode in degree_modes(alg, wide):
        rows = list(identity_system_rows(alg, degree, mode))
        boxed = list(ref_identity_system_rows(alg, degree, mode))
        assert len(rows) == len(boxed)
        for row, ref in zip(rows, boxed):
            assert all(type(c) is int for c in row)
            if p:
                assert list(row) == [c.r for c in ref]
            else:
                assert list(row) == [c * den**degree for c in ref]
        got = identity_space(alg, degree, mode).solutions
        ncols = len(boxed[0])
        if (degree, mode) == (2, "general"):
            distinct = [r for r in dict.fromkeys(boxed) if any(r)]
            want = nullspace_of(alg.field, ncols, distinct)
        else:
            want = ref_space_of_rows(alg.field, ncols, boxed)
        assert same(got.vectors, want.vectors), (degree, mode)


def all_substitution_identity_space(alg, degree, mode):
    """``identity_space`` as it eliminated the distinct nonzero rows of
    every substitution, before it evaluated only the sorted ones and
    closed their rows under renaming the variables; the rows of
    ``identity_system_rows``, made sparse."""
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    values = identities._int_values(alg, monomials)
    rows = {}
    for subst in product(range(alg.dim), repeat=nv):
        by_coord = {}
        for k, terms in enumerate(values(subst)):
            for j, v in terms:
                by_coord.setdefault(j, {})[k] = v
        for row in by_coord.values():
            rows.setdefault(tuple(row.items()), row)
    return nullspace_of(alg.field, len(monomials), list(rows.values()))


# degree 2 in general mode on every case but the dense twins of dimension
# 4: the all-substitution path takes 0.6 to 4 s on each of those over
# GF(p), 1 to 30 s over Q
SPIN_CASES = [
    pytest.param(p.values[0], "~" not in p.id or p.values[0].dim < 4, id=p.id)
    for p in CASES
]


@pytest.mark.parametrize("alg, wide", SPIN_CASES)
def test_sorted_substitutions_give_the_all_substitution_space(alg, wide):
    for degree, mode in degree_modes(alg, wide):
        got = identity_space(alg, degree, mode).solutions
        want = all_substitution_identity_space(alg, degree, mode)
        assert same(got.vectors, want.vectors), (degree, mode)


@pytest.mark.parametrize(
    "alg", [p for p in CASES if p.id in ("dot2~/-Q", "vfgh111~-F_3")]
)
def test_degree2_general_space_matches_boxed_space(alg):
    got = identity_space(alg, 2, "general").solutions
    want = ref_identity_space(alg, 2, "general")
    assert same(got.vectors, want.vectors)


def test_wide_cases_cover_every_field_and_twin():
    ids = [p.id for p in SPACE_CASES if p.values[1]]
    for suffix in ("-Q", "-F_2", "-F_3", "-F_5", "-F_13", "~-Q", "~/-Q", "~-F_3", "~-F_13"):
        assert any(i.endswith(suffix) for i in ids), suffix


# -- lifting ---------------------------------------------------------------------


LIFT_FIELDS = (QQ, GF(2), GF(3), GF(13))


def drawn_bases(field, rng):
    """Degree-1 general-mode bases: a seeded line and plane, over Q with
    entries whose denominators differ."""
    entries = [0, 0, 1, -1, 2]
    if field == QQ:
        entries += [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]
    monomials = monomial_basis(3, 1, "general")
    for dim in (1, 2):
        vecs = [[field.of(rng.choice(entries)) for _ in range(6)] for _ in range(dim)]
        vecs[0][rng.randrange(6)] = field.of(3)
        sub = SubspaceBasis.from_vectors(field, 6, vecs)
        yield IdentitySpace(1, "general", monomials, sub)


@pytest.mark.parametrize("field", LIFT_FIELDS, ids=repr)
def test_lifting_matches_boxed_lifting(field, monkeypatch):
    """Same space as every renaming of every boxed lifted row, from the
    closure under two generators of S5: the 6 lifted rows per base
    vector are inserted once each, then the two images of each row that
    enlarged the space, so at most 6 dim(base) + 2 dim(result) inserts."""
    monkeypatch.setattr(identities, "RowSpace", CountingRowSpace)
    rng = random.Random(field.char)
    for base in drawn_bases(field, rng):
        # general mode, 360 columns, on the line only
        for mode in ("general", "commutative")[base.solutions.dim - 1 :]:
            CountingRowSpace.inserted = 0
            got = lifting_span(3, base, mode).solutions
            want, _ = ref_lifting_span(base, mode)
            assert same(got.vectors, want.vectors)
            bound = 6 * base.solutions.dim + 2 * got.dim
            assert CountingRowSpace.inserted <= bound


@pytest.mark.parametrize(
    "alg", [p for p in TERNARY if p.values[0].dim == 3 and p.values[0].field in (QQ, GF(3))]
)
def test_lifting_of_catalog_spaces_matches_boxed_lifting(alg):
    base = identity_space(alg, 1, "general")
    got = lifting_span(3, base, "commutative").solutions
    assert same(got.vectors, ref_lifting_span(base, "commutative")[0].vectors)


def renamings(mode):
    """For each of the 120 renamings of the five variables, the column
    each degree-2 monomial goes to."""
    target = monomial_basis(3, 2, mode)
    index = {m: k for k, m in enumerate(target)}
    canon = canonical_monomial if mode == "commutative" else (lambda m: m)
    return [
        [index[canon(rename_monomial(m, perm))] for m in target]
        for perm in permutations(range(5))
    ]


RENAMINGS = {mode: renamings(mode) for mode in ("general", "commutative")}


@pytest.mark.parametrize("mode", ["general", "commutative"])
def test_renaming_maps_are_made_once_as_tuples(mode):
    """The spin's two column maps, of sigma = (0 1) and tau = (0 1 2 3 4),
    are computed once per (arity, degree, mode) and cannot be mutated."""
    maps = identities._renamings(3, 2, mode)
    assert maps is identities._renamings(3, 2, mode)
    assert all(type(m) is tuple for m in maps)
    perms = list(permutations(range(5)))
    want = [RENAMINGS[mode][perms.index(g)] for g in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))]
    assert [list(m) for m in maps] == want


def assert_closed_under_renaming(space, mode):
    """Every renaming of every basis vector lies in the space.  A renaming
    permutes coordinates, so it keeps the dot product and maps the
    annihilator of a space onto the annihilator of its image: a space is
    closed exactly when its annihilator is.  The smaller of the two is
    renamed, so 350 vectors in 360 columns become 10."""
    field, n = space.field, space.ambient
    if 2 * space.dim > n:
        space = nullspace_of(field, n, space.vectors)
    kernel = RowSpace.from_rref(field, n, space.vectors)
    for cols in RENAMINGS[mode]:
        for v in space.vectors:
            w = [field.zero] * n
            for k, c in zip(cols, v):
                w[k] = c
            assert kernel.contains(w)


LIFT_CATALOG = [
    p for p in TERNARY if p.values[0].dim == 3 and p.values[0].field in LIFT_FIELDS
]


@pytest.mark.parametrize("field", LIFT_FIELDS, ids=repr)
def test_drawn_liftings_are_closed_under_every_renaming(field):
    """Closing under two generators of S5 reaches all 120 renamings."""
    for base in drawn_bases(field, random.Random(field.char)):
        for mode in ("general", "commutative"):
            assert_closed_under_renaming(lifting_span(3, base, mode).solutions, mode)


@pytest.mark.parametrize("alg", LIFT_CATALOG)
@pytest.mark.parametrize("mode", ["general", "commutative"])
def test_catalog_liftings_are_closed_under_every_renaming(alg, mode):
    base = identity_space(alg, 1, "general")
    lifted = lifting_span(3, base, mode).solutions
    if mode == "general":
        assert 0 < lifted.dim < lifted.ambient
    assert_closed_under_renaming(lifted, mode)


def test_renaming_check_sees_a_space_not_closed():
    """The span of the first monomial is not closed: renaming the
    variables of its inner product moves it to another column."""
    for mode in ("general", "commutative"):
        n = len(RENAMINGS[mode][0])
        e0 = SubspaceBasis.from_vectors(QQ, n, [[1] + [0] * (n - 1)])
        with pytest.raises(AssertionError):
            assert_closed_under_renaming(e0, mode)


# -- verify_identity -------------------------------------------------------------


def combinations_to_verify(alg, rng):
    """(coefficients, monomials): identities of the algebra, perturbed
    ones, and over ternary algebras mixed-degree combinations."""
    field = alg.field
    deg1 = monomial_basis(alg.arity, 1, "general")
    space = identity_space(alg, 1, "general").solutions.vectors
    out = [(v, deg1) for v in space]
    for v in space[:2]:
        w = list(v)
        w[rng.randrange(len(w))] += field.of(Fraction(1, 2) if field == QQ else 1)
        out.append((w, deg1))
    out.append(([rng.choice((0, 1, -1, 2)) for _ in deg1], deg1))
    if alg.arity == 3:
        deg2 = monomial_basis(3, 2, "commutative")
        mixed = list(deg1[:2]) + list(deg2[:2])
        out.append(([1, -1, 0, 0], mixed))
        out.append(([0, 0, field.of(Fraction(1, 3) if field == QQ else 2), 1], mixed))
        out.append(([rng.choice((0, 1, -2)) for _ in mixed], mixed))
    return out


@pytest.mark.parametrize("alg", CASES)
def test_verify_identity_matches_boxed_scan(alg):
    rng = random.Random(alg.dim)
    for coefficients, monomials in combinations_to_verify(alg, rng):
        got = verify_identity(alg, coefficients, monomials)
        assert as_data(got) == as_data(ref_verify_identity(alg, coefficients, monomials))
        if not got.passed:
            assert reevaluate_witness(alg, got.witness) == (got.witness.lhs, got.witness.rhs)


@pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(-2, 3), Fraction(3)])
def test_mixed_degrees_carry_one_power_of_den(c):
    """On the line b^3 = c*b a degree-1 monomial is c*b and a degree-2 one
    c^2*b, so c*[x,y,z] - [[x,y,z],u,v] holds and [x,y,z] - [[x,y,z],u,v]
    fails unless c = 1.  The view stores c*den, den the denominator of
    c, so the degree-1 term needs one more factor den to compare with
    the degree-2 term."""
    alg = NAryAlgebra.build(QQ, 3, 1, {(0, 0, 0): [c]})
    assert alg.int_table()[0] == c.denominator
    for shape in range(3):
        mixed = [Monomial(1, None, (0, 1, 2)), Monomial(2, shape, (0, 1, 2, 3, 4))]
        assert verify_identity(alg, [c, -1], mixed).passed
        got = verify_identity(alg, [1, -1], mixed)
        assert as_data(got) == as_data(ref_verify_identity(alg, [1, -1], mixed))
        assert not got.passed


# -- the one-elimination nullspace -----------------------------------------------


NULL_FIELDS = [QQ, GF(2), GF(3), GF(10007)]


@st.composite
def matrices(draw, field):
    """Row lists with zero rows, repeated rows, zero columns, full-rank
    squares and wide shapes all likely."""
    ncols = draw(st.integers(0, 9))
    if field.char:
        entry = st.one_of(st.sampled_from([0, 0, 1]), st.integers(-field.char, 2 * field.char))
    else:
        entry = st.one_of(
            st.sampled_from([0, 0, 1, -1]),
            st.fractions(min_value=-20, max_value=20, max_denominator=9),
        )
    shape = draw(st.sampled_from(["any", "zero", "square", "wide"]))
    if shape == "zero":
        return ncols, [[0] * ncols for _ in range(draw(st.integers(0, 3)))]
    if shape == "square":
        # unit upper triangular: full rank over every field
        rows = [
            [1 if j == i else (draw(entry) if j > i else 0) for j in range(ncols)]
            for i in range(ncols)
        ]
        return ncols, draw(st.permutations(rows))
    nrows = draw(st.integers(0, max(1, ncols // 2) if shape == "wide" else 8))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    rows = [
        [0 if j in zero_cols else draw(entry) for j in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    return ncols, [[field.of(c) for c in r] for r in rows]


@pytest.mark.parametrize("field", NULL_FIELDS, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_nullspace_is_rref_then_reeliminated(field, data):
    ncols, rows = data.draw(matrices(field))
    got = nullspace_of(field, ncols, rows)
    want = ref_nullspace(field, ncols, rows)
    assert same(got.vectors, want.vectors)
    assert got == SubspaceBasis.from_vectors(field, ncols, got.vectors)
    for v in got.vectors:
        for r in rows:
            assert sum((field.of(a) * b for a, b in zip(r, v)), field.zero) == 0


def test_nullspace_edges():
    for field in NULL_FIELDS:
        assert nullspace_of(field, 3, []).vectors == SubspaceBasis.full(field, 3).vectors
        assert nullspace_of(field, 3, [[0, 0, 0]]).dim == 3
        assert nullspace_of(field, 0, []).dim == 0
        square = [[1, 2, 0], [0, 1, 5], [0, 0, 1]]
        assert nullspace_of(field, 3, square).dim == 0
        # zero columns are free: e_j is null
        got = nullspace_of(field, 4, [[0, 1, 1, 0], [0, 1, 2, 0]])
        one, zero = field.one, field.zero
        assert got.vectors == ((one, zero, zero, zero), (zero, zero, zero, one))


def test_nullspace_stops_at_full_rank():
    seen = []

    def rows():
        for r in ([1, 0], [0, 1], [1, 1]):
            seen.append(r)
            yield r

    assert nullspace_of(QQ, 2, rows()).dim == 0
    assert seen == [[1, 0], [0, 1]]
