"""Differential tests of the scans on the integer view against boxed ones.

The references below are the scans as they ran on field scalars
(``Fraction`` over Q, ``Mod`` over GF(p)) before they moved onto
:meth:`nalg.algebra.NAryAlgebra.int_table`: total commutativity, the
triple-system law, the commutators of right-multiplication operators,
the Leibniz system and the two sides of a Leibniz witness.  Over the
catalog at small sizes over Q, F_2, F_3, F_5 and F_13, and over dense
twins of it made by a change of basis (unimodular, or over Q also with
entries rescaled so that denominators differ from entry to entry), the
scans on the view must give the same
verdicts and the same witnesses, entry for entry and type for type, and
``derivation_algebra`` and ``inner_derivation_space`` the same bases.
``derivation_algebra`` is also compared with itself as it eliminated
every Leibniz form, before it kept only the forms distinct up to a unit
scale, and the one-pass ``LeibnizSystem.distinct_rows`` with the
two-pass one it replaced, row for row.  A twin is isomorphic to its
original, so it also keeps the original's verdicts and the dimensions of
its derivation spaces.

The commutator check hands a commutator to the Leibniz system only when
it enlarges the span of those scanned before it.  Counting those calls,
the tests below check that a passing input tests exactly a basis of the
inner derivation space, and that a failing one gives the witness of the
ungated boxed scan, also on drawn tables and on a table where a
dependent commutator is skipped before the failure.

The binary Jordan check changed on purpose: it now scans the
coefficients of the cubic form of the identity, which is decisive in
every characteristic.  Over GF(2) and GF(3) it is compared with an
independent expansion of the cubic form on every dimension-2 commutative
table, and over Q with the boxed check it replaced.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog
from nalg.algebra import Element, NAryAlgebra
from nalg.checks import (
    LeibnizSystem,
    Verdict,
    Witness,
    _commutators,
    check_binary_jordan,
    check_dxy_identity,
    check_jts_identity,
    check_total_commutativity,
    reevaluate_witness,
)
from nalg.derivations import derivation_algebra, inner_derivation_space, is_derivation
from nalg.fields import GF, QQ
from nalg.linalg import Matrix, RowSpace, SubspaceBasis, _unit_normal, nullspace_of

from test_leibniz import catalog_cases

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(13))


# -- dense twins -------------------------------------------------------------


def twin(alg, seed, scales=(1,)):
    """The algebra in the basis f_i = sum_j P[i][j] e_j, where P is a
    seeded row permutation of a unit lower-triangular integer matrix:
    determinant +-1, so invertible over every field.  With ``scales``,
    each entry of P is then multiplied by one of them, drawn, which keeps
    its zero pattern and so its invertibility.  A vector with coordinates
    v in the e basis has coordinates v P^-1 in the f basis, so the twin
    is isomorphic to the original."""
    rng = random.Random(seed)
    d, field = alg.dim, alg.field
    rows = [
        [rng.choice((-2, -1, 1, 2)) if j < i else int(i == j) for j in range(d)]
        for i in range(d)
    ]
    rng.shuffle(rows)
    rows = [[rng.choice(scales) * c for c in r] for r in rows]
    p = Matrix(field, rows)
    inverse = p.inverse()
    fs = [Element(r) for r in p.rows]
    entries = {}
    for idx in product(range(d), repeat=alg.arity):
        vec = inverse.apply(alg.multiply(*(fs[i] for i in idx)).coords)
        if any(c != 0 for c in vec):
            entries[idx] = vec
    return NAryAlgebra.build(
        field, alg.arity, d, entries, labels=alg.labels, symmetry=alg.symmetry
    )


def cases():
    for field in FIELDS:
        for name, alg in catalog_cases(field):
            yield "%s-%r" % (name, field), alg
            if 2 <= alg.dim <= 4 and field in (QQ, GF(3), GF(13)):
                yield "%s~-%r" % (name, field), twin(alg, alg.dim)
            if 2 <= alg.dim <= 4 and field == QQ:
                # denominators that differ from entry to entry
                scales = (1, Fraction(1, 2), Fraction(1, 3), Fraction(-3, 2))
                scaled = twin(alg, alg.dim, scales)
                yield "%s~/-%r" % (name, field), scaled


CASES = [pytest.param(alg, id=name) for name, alg in cases()]
TERNARY = [p for p in CASES if p.values[0].arity == 3]


def test_twins_are_dense_with_mixed_denominators():
    twins = [p.values[0] for p in CASES if "~" in p.id]
    assert len(twins) > 60
    dense = [t for t in twins if len(t.tensor) == t.dim**t.arity]
    assert len(dense) > len(twins) // 2
    mixed = [
        t
        for t in twins
        if t.field == QQ
        and len({c.denominator for v in t.tensor.values() for c in v}) > 2
    ]
    assert len(mixed) > 10


@pytest.mark.parametrize("alg", [p for p in CASES if p.values[0].field.char])
def test_view_values_are_residues(alg):
    """Over GF(p) the forms and commutators hold residues, as the kernel
    and every zero test take them."""
    p = alg.field.char
    system = LeibnizSystem(alg)
    for pos in range(len(system.ztuples)):
        for form in system.forms_at(pos):
            assert all(0 < c < p for _, c in form)
    for _, _, flat in _commutators(alg):
        assert all(0 <= c < p for c in flat) and any(flat)


# -- the boxed references ------------------------------------------------------


def basis_tuples(alg, length):
    if alg.symmetry == "total":
        return list(combinations_with_replacement(range(alg.dim), length))
    return list(product(range(alg.dim), repeat=length))


def ref_check_total_commutativity(alg):
    n = alg.arity
    perms = sorted(permutations(range(n)))[1:]
    for idx in product(range(alg.dim), repeat=n):
        base = alg.product_of_basis(idx)
        for p in perms:
            permuted = tuple(idx[k] for k in p)
            other = alg.product_of_basis(permuted)
            if base != other:
                data = {
                    "args": tuple(alg.basis_element(i) for i in idx),
                    "permuted": tuple(alg.basis_element(i) for i in permuted),
                    "permutation": p,
                }
                return Verdict(
                    False,
                    Witness("commutativity", data, Element(base), Element(other)),
                )
    return Verdict(True)


def ref_jts_sides(alg, i1, i2, i3, i4, i5):
    t1 = alg.slot_product((0, i4, i5), 0, alg.product_of_basis((i1, i2, i3)))
    t2 = alg.slot_product((i3, i4, 0), 2, alg.product_of_basis((i1, i2, i5)))
    t3 = alg.slot_product((i1, i2, 0), 2, alg.product_of_basis((i3, i4, i5)))
    t4 = alg.slot_product((i3, 0, i5), 1, alg.product_of_basis((i2, i1, i4)))
    lhs = tuple(a + b for a, b in zip(t1, t2))
    rhs = tuple(a + b for a, b in zip(t3, t4))
    return lhs, rhs


def ref_check_jts_identity(alg):
    d = alg.dim
    for idx in product(range(d), repeat=3):
        flipped = (idx[2], idx[1], idx[0])
        a = alg.product_of_basis(idx)
        b = alg.product_of_basis(flipped)
        if a != b:
            data = {
                "args": tuple(alg.basis_element(i) for i in idx),
                "permuted": tuple(alg.basis_element(i) for i in flipped),
                "permutation": (2, 1, 0),
            }
            return Verdict(
                False, Witness("commutativity", data, Element(a), Element(b))
            )
    for idx in product(range(d), repeat=5):
        lhs, rhs = ref_jts_sides(alg, *idx)
        if lhs != rhs:
            data = {"args": tuple(alg.basis_element(i) for i in idx)}
            return Verdict(False, Witness("jts", data, Element(lhs), Element(rhs)))
    return Verdict(True)


class RefLeibnizSystem:
    """The Leibniz forms with field-scalar coefficients."""

    def __init__(self, alg):
        self.alg = alg
        self.ztuples = basis_tuples(alg, alg.arity)
        self.forms = [self._build(z) for z in self.ztuples]

    def _build(self, z):
        alg = self.alg
        d, zero = alg.dim, alg.field.zero
        forms = [{} for _ in range(d)]
        for i, c in enumerate(alg.product_of_basis(z)):
            if c != 0:
                for k in range(d):
                    forms[k][i * d + k] = c
        for s in range(alg.arity):
            base = z[s] * d
            for j in range(d):
                part = alg.product_of_basis(z[:s] + (j,) + z[s + 1 :])
                for k, v in enumerate(part):
                    if v != 0:
                        form = forms[k]
                        form[base + j] = form.get(base + j, zero) - v
        forms = [tuple((p, c) for p, c in f.items() if c != 0) for f in forms]
        return [f for f in forms if f]

    def first_failure(self, op):
        flat = op.flatten()
        zero = self.alg.field.zero
        for pos, forms in enumerate(self.forms):
            for form in forms:
                acc = zero
                for p, c in form:
                    if flat[p] != 0:
                        acc = acc + c * flat[p]
                if acc != 0:
                    return pos
        return None

    def rows(self):
        zero = self.alg.field.zero
        size = self.alg.dim * self.alg.dim
        out = []
        for forms in self.forms:
            for form in forms:
                row = [zero] * size
                for p, c in form:
                    row[p] = c
                out.append(row)
        return out


def ref_leibniz_sides(alg, op, zs):
    """Both sides of the Leibniz rule for the ``Matrix`` ``op`` at the
    elements ``zs``, in field scalars: ``checks.leibniz_sides`` as it
    ran before it moved onto the int view."""
    lhs = Element(op.apply(alg.multiply(*zs).coords))
    rhs = alg.zero_element()
    for s in range(alg.arity):
        moved = list(zs)
        moved[s] = Element(op.apply(zs[s].coords))
        rhs = rhs + alg.multiply(*moved)
    return lhs, rhs


def ref_basis_right_operator(alg, rest):
    rows = [alg.product_of_basis((j,) + tuple(rest)) for j in range(alg.dim)]
    return Matrix(alg.field, rows)


def ref_commutators(alg):
    tuples = basis_tuples(alg, alg.arity - 1)
    ops = [ref_basis_right_operator(alg, t) for t in tuples]
    for a in range(len(tuples)):
        for b in range(a + 1, len(tuples)):
            ab, ba = ops[a] @ ops[b], ops[b] @ ops[a]
            if ab != ba:
                yield tuples[a], tuples[b], ab - ba


def ref_check_dxy_identity(alg):
    system = RefLeibnizSystem(alg)
    for xt, yt, dmat in ref_commutators(alg):
        pos = system.first_failure(dmat)
        if pos is not None:
            zs = tuple(alg.basis_element(i) for i in system.ztuples[pos])
            lhs, rhs = ref_leibniz_sides(alg, dmat, zs)
            data = {
                "x": tuple(alg.basis_element(i) for i in xt),
                "y": tuple(alg.basis_element(i) for i in yt),
                "z": zs,
            }
            return Verdict(False, Witness("dxy", data, lhs, rhs))
    return Verdict(True)


def ref_is_derivation(alg, op):
    system = RefLeibnizSystem(alg)
    pos = system.first_failure(op)
    if pos is None:
        return Verdict(True)
    args = tuple(alg.basis_element(i) for i in system.ztuples[pos])
    lhs, rhs = ref_leibniz_sides(alg, op, args)
    data = {"operator": op, "args": args}
    return Verdict(False, Witness("derivation", data, lhs, rhs))


def ref_derivation_vectors(alg):
    d = alg.dim
    rows = RefLeibnizSystem(alg).rows()
    system = Matrix(alg.field, rows) if rows else Matrix.zeros(alg.field, 1, d * d)
    return system.nullspace().vectors


def ref_inner_vectors(alg):
    space = RowSpace(alg.field, alg.dim * alg.dim)
    for _, _, dmat in ref_commutators(alg):
        space.insert(list(dmat.flatten()))
    return SubspaceBasis(alg.field, alg.dim * alg.dim, space.rows()).vectors


# -- comparison ----------------------------------------------------------------


def typed(value):
    """A value with every scalar as (type, printed form), so that equal
    scalars of different types do not compare equal."""
    if isinstance(value, Element):
        return ("Element", typed(value.coords))
    if isinstance(value, Matrix):
        return ("Matrix", typed(value.rows))
    if isinstance(value, (tuple, list)):
        return tuple(typed(v) for v in value)
    return (type(value).__name__, str(value))


def as_data(verdict):
    w = verdict.witness
    if w is None:
        return verdict.passed, None
    data = {k: typed(v) for k, v in w.data.items()}
    return verdict.passed, (w.kind, data, typed(w.lhs), typed(w.rhs))


@pytest.mark.parametrize("alg", CASES)
def test_commutativity_matches_boxed_scan(alg):
    assert as_data(check_total_commutativity(alg)) == as_data(
        ref_check_total_commutativity(alg)
    )


@pytest.mark.parametrize("alg", TERNARY)
def test_jts_matches_boxed_scan(alg):
    assert as_data(check_jts_identity(alg)) == as_data(ref_check_jts_identity(alg))


@pytest.mark.parametrize("alg", CASES)
def test_dxy_matches_boxed_scan(alg):
    assert as_data(check_dxy_identity(alg)) == as_data(ref_check_dxy_identity(alg))


# -- the span gate of the commutator check ---------------------------------------
#
# check_dxy_identity hands a commutator to LeibnizSystem.first_failure only
# when it enlarges the span of the commutators scanned before it.


@pytest.fixture
def leibniz_tested(monkeypatch):
    """The operators handed to ``LeibnizSystem.first_failure``, in order."""
    tested = []
    original = LeibnizSystem.first_failure

    def counted(self, flat):
        tested.append(list(flat))
        return original(self, flat)

    monkeypatch.setattr(LeibnizSystem, "first_failure", counted)
    return tested


@pytest.mark.parametrize("alg", CASES)
def test_dxy_tests_a_basis_of_the_commutator_span(alg, leibniz_tested):
    """The tested commutators are independent; on a passing input they
    are a basis of the inner derivation space."""
    verdict = check_dxy_identity(alg)
    span = RowSpace(alg.field, alg.dim * alg.dim)
    assert all(span.insert(flat) for flat in leibniz_tested)
    rank = inner_derivation_space(alg).rank
    if verdict.passed:
        assert len(leibniz_tested) == rank
    else:
        assert len(leibniz_tested) <= rank


@pytest.mark.parametrize(
    "alg, scanned, rank",
    [(catalog.dot_triple(QQ, 8), 224, 28), (catalog.dot_triple(GF(13), 6), 90, 15)],
    ids=["dot8-Q", "dot6-F_13"],
)
def test_dxy_tests_rank_many_of_the_commutators(alg, scanned, rank, leibniz_tested):
    assert len(list(_commutators(alg))) == scanned
    assert check_dxy_identity(alg).passed
    assert len(leibniz_tested) == rank == inner_derivation_space(alg).rank


def test_dxy_skips_a_dependent_commutator_before_the_failure(leibniz_tested):
    """[R_b1, R_b3] = [R_b1, R_b2] is skipped; [R_b2, R_b3], the next one,
    enlarges the span and fails."""
    entries = {
        (0, 0): (0, 0, -1, 0),
        (0, 1): (0, 0, 0, 1),
        (1, 1): (0, 1, -1, 0),
        (2, 1): (0, 0, 0, 1),
        (2, 2): (0, 0, 0, 1),
    }
    alg = NAryAlgebra.build(QQ, 2, 4, entries)
    scanned = [flat for _, _, flat in _commutators(alg)]
    assert len(scanned) == 3 and scanned[0] == scanned[1]
    verdict = check_dxy_identity(alg)
    assert leibniz_tested == [scanned[0], scanned[2]]
    assert as_data(verdict) == as_data(ref_check_dxy_identity(alg))
    assert verdict.witness.data["x"] == (alg.basis_element(1),)
    assert verdict.witness.data["y"] == (alg.basis_element(2),)


@st.composite
def sparse_tables(draw, field):
    """Binary or ternary tables of dimension 2 or 3 with few nonzero
    entries, so that some commutators pass before one fails."""
    arity = draw(st.integers(2, 3))
    d = draw(st.integers(2, 3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    tuples = draw(
        st.lists(st.tuples(*[st.integers(0, d - 1)] * arity), max_size=8, unique=True)
    )
    entries = {idx: [draw(entry) for _ in range(d)] for idx in tuples}
    return NAryAlgebra.build(field, arity, d, entries)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=repr)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_dxy_on_drawn_tables_matches_boxed_scan(field, data):
    alg = data.draw(sparse_tables(field))
    assert as_data(check_dxy_identity(alg)) == as_data(ref_check_dxy_identity(alg))


def twin_pairs():
    """(twin, original) for every twin in CASES: "dot2~-Q" and "dot2~/-Q"
    are twins of "dot2-Q"."""
    originals = {p.id: p.values[0] for p in CASES if "~" not in p.id}
    for p in CASES:
        if "~" in p.id:
            name = p.id.replace("~/", "~").replace("~", "")
            yield pytest.param(p.values[0], originals[name], id=p.id)


@pytest.mark.parametrize("alg, original", list(twin_pairs()))
def test_twins_keep_the_invariants_of_their_originals(alg, original):
    """A twin is the original in another basis: it passes and fails the
    same checks and has derivation spaces of the same dimension."""

    def invariants(a):
        checks = [check_total_commutativity, check_dxy_identity]
        if a.arity == 3:
            checks.append(check_jts_identity)
        return (
            [check(a).passed for check in checks],
            derivation_algebra(a).rank,
            inner_derivation_space(a).rank,
        )

    assert invariants(alg) == invariants(original)


def all_forms_derivation_vectors(alg):
    """``derivation_algebra`` as it eliminated every form of the Leibniz
    system, before it kept only the forms distinct up to a unit scale."""
    system = LeibnizSystem(alg)
    rows = [
        dict(form) for pos in range(len(system.ztuples)) for form in system.forms_at(pos)
    ]
    return nullspace_of(alg.field, alg.dim * alg.dim, rows).vectors


@pytest.mark.parametrize("alg", CASES)
def test_distinct_forms_give_the_all_forms_space(alg):
    got = derivation_algebra(alg).basis.vectors
    assert typed(got) == typed(all_forms_derivation_vectors(alg))


def two_pass_distinct_rows(alg):
    """``LeibnizSystem.distinct_rows`` as it ran in two passes: build the
    forms at every tuple through ``forms_at``, then sort each, bring it to
    the kernel's normal form up to a unit and keep the first of each."""
    p = alg.field.char
    system = LeibnizSystem(alg)
    seen = {}
    for pos in range(len(system.ztuples)):
        for form in system.forms_at(pos):
            form = sorted(form)
            row = _unit_normal(dict(form), form[0][1], p)
            seen[tuple(row.items())] = None
    return [dict(form) for form in seen]


@pytest.mark.parametrize("alg", CASES)
def test_one_pass_distinct_rows_match_two_pass(alg):
    """The same rows in the same order, each with its positions in the
    same order and every position and coefficient a plain int."""
    got = LeibnizSystem(alg).distinct_rows()
    want = two_pass_distinct_rows(alg)
    assert [list(row.items()) for row in got] == [list(row.items()) for row in want]
    assert all(
        type(q) is int and type(c) is int for row in got for q, c in row.items()
    )


@pytest.mark.parametrize("alg", CASES)
def test_operator_spaces_match_boxed_system(alg):
    der = derivation_algebra(alg)
    assert typed(der.basis.vectors) == typed(ref_derivation_vectors(alg))
    inner = inner_derivation_space(alg)
    assert typed(inner.basis.vectors) == typed(ref_inner_vectors(alg))


def drawn_operators(alg, rng, count):
    """Mostly-zero operators; over Q with denominators to clear."""
    entries = [0, 0, 0, 0, 1, -1, 2]
    if alg.field == QQ:
        entries += [Fraction(1, 2), Fraction(-2, 3)]
    d = alg.dim
    for _ in range(count):
        rows = [[rng.choice(entries) for _ in range(d)] for _ in range(d)]
        yield Matrix(alg.field, rows)


@pytest.mark.parametrize("alg", CASES)
def test_is_derivation_matches_boxed_system(alg):
    rng = random.Random(alg.dim)
    ops = list(derivation_algebra(alg).matrices())
    ops += [a + b.scale(alg.field.of(3)) for a, b in zip(ops, ops[1:])]
    ops += list(drawn_operators(alg, rng, 6))
    for op in ops:
        assert as_data(is_derivation(alg, op)) == as_data(ref_is_derivation(alg, op))


# -- the binary Jordan check ---------------------------------------------------


def poly_mul(f, g, p):
    """Product of polynomials in (t1, t2) as {(e1, e2): coefficient mod p}."""
    out = {}
    for (a1, a2), c in f.items():
        for (b1, b2), e in g.items():
            key = (a1 + b1, a2 + b2)
            out[key] = (out.get(key, 0) + c * e) % p
    return {k: c for k, c in out.items() if c}


def cubic_form_is_nonzero(table, p):
    """Is x |-> (x y) x^2 - x (y x^2) a nonzero polynomial map for some
    basis y?  ``table[(i, j)]`` is the pair of coordinates of e_i e_j of a
    commutative dimension-2 product mod p; x = t1 e1 + t2 e2 has
    polynomial coordinates, and the product is expanded with plain ints."""

    def mul(u, v):
        out = [{}, {}]
        for i in range(2):
            for j in range(2):
                uv = poly_mul(u[i], v[j], p)
                for k in range(2):
                    c = table[tuple(sorted((i, j)))][k]
                    for mono, e in uv.items():
                        out[k][mono] = (out[k].get(mono, 0) + c * e) % p
        return [{m: c for m, c in f.items() if c} for f in out]

    x = [{(1, 0): 1}, {(0, 1): 1}]
    sq = mul(x, x)
    for y in ([{(0, 0): 1}, {}], [{}, {(0, 0): 1}]):
        lhs, rhs = mul(mul(x, y), sq), mul(x, mul(y, sq))
        if lhs != rhs:
            return True
    return False


def fails_at_a_point(alg):
    p = alg.field.char
    for x in product(range(p), repeat=2):
        x = alg.element(x)
        sq = alg.multiply(x, x)
        for y in alg.basis():
            lhs = alg.multiply(alg.multiply(x, y), sq)
            if lhs != alg.multiply(x, alg.multiply(y, sq)):
                return True
    return False


def dim2_tables(p):
    for vals in product(range(p), repeat=6):
        yield {(0, 0): vals[0:2], (0, 1): vals[2:4], (1, 1): vals[4:6]}


@pytest.mark.parametrize("p", [2, 3])
def test_jordan_fails_exactly_the_nonzero_cubic_forms(p):
    field = GF(p)
    counts = {"tables": 0, "nonzero": 0, "point": 0}
    for table in dim2_tables(p):
        alg = NAryAlgebra.build(field, 2, 2, table, symmetry="total")
        verdict = check_binary_jordan(alg)
        nonzero = cubic_form_is_nonzero(table, p)
        assert verdict.passed != nonzero, table
        if fails_at_a_point(alg):
            assert not verdict.passed, table
            counts["point"] += 1
        if not verdict.passed:
            assert reevaluate_witness(alg, verdict.witness) == (
                verdict.witness.lhs,
                verdict.witness.rhs,
            )
        counts["tables"] += 1
        counts["nonzero"] += nonzero
    # the F_2 points miss one failure, which shows only over F_4
    want = {2: (64, 39, 38), 3: (729, 616, 616)}[p]
    assert (counts["tables"], counts["nonzero"], counts["point"]) == want


def ref_linearized_jordan_sides(alg, x1, x2, x3, y):
    lhs = alg.zero_element()
    rhs = alg.zero_element()
    xs = (x1, x2, x3)
    for p in permutations(range(3)):
        a, b, c = xs[p[0]], xs[p[1]], xs[p[2]]
        sq = alg.multiply(b, c)
        lhs = lhs + alg.multiply(alg.multiply(a, y), sq)
        rhs = rhs + alg.multiply(a, alg.multiply(y, sq))
    return lhs, rhs


def ref_check_binary_jordan(alg):
    """The boxed check as it ran over Q: the raw identity on basis
    elements and two-term sums, then the six-permutation linearization."""
    d = alg.dim
    xs = [alg.basis_element(i) for i in range(d)]
    xs += [xs[i] + xs[j] for i in range(d) for j in range(i + 1, d)]
    for x in xs:
        sq = alg.multiply(x, x)
        for y in alg.basis():
            lhs = alg.multiply(alg.multiply(x, y), sq)
            rhs = alg.multiply(x, alg.multiply(y, sq))
            if lhs != rhs:
                return Verdict(False, Witness("jordan_raw", {"x": x, "y": y}, lhs, rhs))
    for trip in combinations_with_replacement(range(d), 3):
        for y in alg.basis():
            args = tuple(alg.basis_element(i) for i in trip)
            lhs, rhs = ref_linearized_jordan_sides(alg, *args, y)
            if lhs != rhs:
                data = {"x": args, "y": y}
                return Verdict(False, Witness("jordan_linearized", data, lhs, rhs))
    return Verdict(True)


def jordan_q_cases():
    for vals in product(range(-1, 2), repeat=6):
        if sum(map(abs, vals)) <= 3:
            table = {(0, 0): vals[0:2], (0, 1): vals[2:4], (1, 1): vals[4:6]}
            yield NAryAlgebra.build(QQ, 2, 2, table, symmetry="total")
    for n in (2, 3, 4):
        yield catalog.spin_factor(QQ, n)
        yield twin(catalog.spin_factor(QQ, n), n)
    dot = catalog.dot_triple(QQ, 4)
    red = dot.reduce(1, dot.by_label("b1"))
    yield red
    yield twin(red, 4)
    yield catalog.form_extension(QQ, 2, f=True).reduce(2, [1, 1, 0])


def test_jordan_matches_boxed_check_over_q():
    seen = {"jordan_raw": 0, "jordan_linearized": 0, None: 0}
    for alg in jordan_q_cases():
        got, want = check_binary_jordan(alg), ref_check_binary_jordan(alg)
        assert got.passed == want.passed
        if got.passed:
            seen[None] += 1
            continue
        w, v = got.witness, want.witness
        assert reevaluate_witness(alg, w) == (w.lhs, w.rhs)
        seen[w.kind] += 1
        if v.kind == "jordan_raw" and v.data["x"] in alg.basis():
            # the basis-element raw scan is the first pass of both
            assert as_data(got) == as_data(want)
        elif v.kind == "jordan_linearized":
            # same coefficient; the six orderings count each distinct
            # one 6 / (number of distinct orderings) times
            assert (w.kind, w.data["y"]) == ("jordan_linearized", v.data["y"])
            assert w.data["x"] == v.data["x"]
            m = alg.field.of(6 // len(set(permutations(v.data["x"]))))
            assert (w.lhs.scale(m), w.rhs.scale(m)) == (v.lhs, v.rhs)
    assert all(seen.values()), seen
