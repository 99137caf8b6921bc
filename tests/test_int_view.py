"""Differential tests of the scans on the integer view against boxed ones.

The references below are the scans as they ran on field scalars
(``Fraction`` over Q, ``Mod`` over GF(p)) before they moved onto
:meth:`nalg.algebra.NAryAlgebra.int_table`: total commutativity, the
triple-system law, the commutators of right-multiplication operators,
the Leibniz system and the two sides of a Leibniz witness.  Over the
catalog at small sizes over Q, F_2, F_3, F_5 and F_13, and over dense
twins of it made by a change of basis (unimodular, or over Q also with
entries rescaled so that denominators differ from entry to entry), and
for the triple-system law also on seeded tables with few entries, the
scans on the view must give the same
verdicts and the same witnesses, entry for entry and type for type, and
``derivation_algebra`` and ``inner_derivation_space`` the same bases.
``derivation_algebra`` is also compared with itself as it eliminated
every Leibniz form, before it kept only the forms distinct up to a unit
scale, and the one-pass ``LeibnizSystem.distinct_rows`` with the
two-pass one it replaced, row for row, both against ``all_forms_at``,
which builds every form at a tuple.  ``LeibnizSystem.first_failure``,
which reads one form per class up to a unit as a lazy walk finds them,
must report the first tuple at which some form of the whole system does
not vanish, both while the walk runs and through its packed columns once
the walk has ended, and a failing check must leave the walk at its
witness.  Once the walk has ended, ``check_dxy_identity`` forms no
commutator; the packed form values it reads instead must be the values
of the forms at each commutator, within their stated bound.  The sparse commutators of ``linalg.int_commutator`` are
compared with the boxed ``Matrix.commutator`` of right-multiplication
and slot operators.  A twin is isomorphic to its original, so it also
keeps the original's verdicts and the dimensions of its derivation
spaces.

The walk packs the forms at a tuple into one int, with slots sized by a
bound on their sums.  Both comparisons with the full forms (the two-pass
rows and the first failures) also run on tables that fill a slot to that
bound at each byte boundary of the slot width, over Q and over GF(p), on
a dense GF(10007) twin, at arity 5, on the zero algebra, at dimension 1,
and once each on dot_triple(Q, 24) and spin_factor(GF(13), 40).

The commutator check tests the pairs of the pair walk in scan order, up
to its witness.  Recording the pairs it takes, the tests below check
that a passing input tests every nonzero commutator, which span the
inner derivation space, and that a failing one stops at the witness of
the boxed scan, also on drawn tables, on a table where a dependent
commutator comes before the failure, and on the flag-grid inputs that
fail only once the walk has ended.  The packed pair test runs on the
packing edges, on binary tables of the same kinds and on dense twins
with large coefficients that pass.

The binary Jordan check changed on purpose: it now scans the
coefficients of the cubic form of the identity, which is decisive in
every characteristic.  Over GF(2) and GF(3) it is compared with an
independent expansion of the cubic form on every dimension-2 commutative
table, and over Q with the boxed check it replaced.  The sides of its
witnesses, now boxed from the ints of the scan, are compared with the
boxed sums through ``multiply`` that they replaced.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nalg.checks
from nalg import catalog
from nalg.algebra import Element, NAryAlgebra
from nalg.checks import (
    LeibnizSystem,
    Verdict,
    Witness,
    _basis_tuples,
    check_binary_jordan,
    check_dxy_identity,
    check_jts_identity,
    check_total_commutativity,
    reevaluate_witness,
)
from nalg.derivations import derivation_algebra, inner_derivation_space, is_derivation
from nalg.fields import GF, QQ
from nalg.linalg import (
    Matrix,
    RowSpace,
    SubspaceBasis,
    _unit_normal,
    int_commutator,
    int_commutators,
    int_row,
    nullspace_of,
)

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
    and every zero test take them; a sparse commutator holds no zero."""
    p = alg.field.char
    for z in LeibnizSystem(alg).ztuples:
        for form in all_forms_at(alg, z):
            assert all(0 < c < p for _, c in form)
    for row in LeibnizSystem(alg).distinct_rows():
        assert all(0 < c < p for c in row.values())
    for _, _, op in nonzero_commutators(alg):
        assert op and all(0 < c < p for c in op.values())


# -- the boxed references ------------------------------------------------------


def all_forms_at(alg, z):
    """Every nonzero Leibniz form at the basis tuple ``z``, built on its
    own from the int view, as ``LeibnizSystem`` built them before it kept
    one form per class up to a unit: the nonzero ones of the d forms, one
    per output coordinate k, each a tuple of (entry position, int
    coefficient) pairs, residues over GF(p)."""
    d, p = alg.dim, alg.field.char
    get = alg.int_table()[1].get
    forms = [{} for _ in range(d)]
    for i, c in get(z, ()):
        for k in range(d):
            forms[k][i * d + k] = c
    for s in range(alg.arity):
        base = z[s] * d
        for j in range(d):
            for k, v in get(z[:s] + (j,) + z[s + 1 :], ()):
                form = forms[k]
                form[base + j] = form.get(base + j, 0) - v
    if p:
        forms = [[(q, r) for q, c in f.items() if (r := c % p)] for f in forms]
    else:
        forms = [[(q, c) for q, c in f.items() if c] for f in forms]
    return [tuple(f) for f in forms if f]


def nonzero_commutators(alg):
    """(x, y, op) for the nonzero [R_x, R_y] over pairs x < y of basis
    tuples, in scan order: the pair walk ``int_commutators`` over the
    R_x."""
    tuples = _basis_tuples(alg, alg.arity - 1)
    for a, b, op in int_commutators(alg.slot_operators(0, tuples), alg.field.char):
        yield tuples[a], tuples[b], op


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


def small_jts_tables():
    """Seeded ternary tables of dimension 2 and 3 with one to four entries,
    over GF(2), GF(3) and Q, with outer symmetry (<x,y,z> = <z,y,x>, so
    the five-argument scan runs) and without it; then the GF(2) table
    whose only entry is <b1,b2,b1> = b2."""
    rng = random.Random(34)
    for field in (GF(2), GF(3), QQ):
        values = [1, -1, 2, Fraction(1, 2)] if field == QQ else range(1, field.char)
        for outer in (True, False):
            for k in range(8):
                d = 2 + k % 2
                entries = {}
                for _ in range(rng.randint(1, 4)):
                    idx = tuple(rng.randrange(d) for _ in range(3))
                    vec = {rng.randrange(d): rng.choice(values)}
                    entries[idx] = vec
                    if outer:
                        entries[idx[::-1]] = vec
                kind = "outer" if outer else "any"
                yield "small-%s-%d-%r" % (kind, k, field), NAryAlgebra.build(
                    field, 3, d, entries
                )
    yield "b1b2b1-F_2", NAryAlgebra.build(GF(2), 3, 2, {(0, 1, 0): {1: 1}})


JTS_CASES = TERNARY + [pytest.param(alg, id=name) for name, alg in small_jts_tables()]


@pytest.mark.parametrize("alg", JTS_CASES)
def test_jts_matches_boxed_scan(alg):
    assert as_data(check_jts_identity(alg)) == as_data(ref_check_jts_identity(alg))


def test_jts_fails_through_the_flipped_inner_product():
    """<b1,b2,b1> = b2 over GF(2) is outer symmetric.  At (b2, b1, b1, b1,
    b1) only the inner product <y,x,u> = <b1,b2,b1> is nonzero, so the
    first failure has LHS 0 and RHS <z,<y,x,u>,v> = <b1,b2,b1> = b2."""
    alg = NAryAlgebra.build(GF(2), 3, 2, {(0, 1, 0): {1: 1}})
    b1, b2 = alg.basis()
    w = check_jts_identity(alg).witness
    assert (w.kind, w.data) == ("jts", {"args": (b2, b1, b1, b1, b1)})
    assert w.lhs.is_zero() and w.rhs == b2


@pytest.mark.parametrize("alg", CASES)
def test_dxy_matches_boxed_scan(alg):
    assert as_data(check_dxy_identity(alg)) == as_data(ref_check_dxy_identity(alg))


def boxed_slot_operator(alg, slot, rest):
    """The slot operator with ``rest`` in the other slots, boxed."""
    d = alg.dim
    rows = [alg.product_of_basis(rest[:slot] + (j,) + rest[slot:]) for j in range(d)]
    return Matrix(alg.field, rows)


@pytest.mark.parametrize("alg", CASES)
def test_sparse_commutators_match_boxed_commutators(alg):
    """``int_commutator`` of the int right-multiplication and slot
    operators is the boxed ``Matrix.commutator`` of the same operators:
    its nonzero entries at their row-major positions, as residues in
    [1, p) over GF(p) and over Q times den^2, and an empty dict where the
    operators commute.  Every pair of right-multiplication operators is
    compared, and 60 drawn pairs of slot operators besides each one with
    itself."""
    d, p = alg.dim, alg.field.char
    den, table = alg.int_table()
    rng = random.Random(alg.dim)
    tuples = basis_tuples(alg, alg.arity - 1)
    rights = [[table.get((j,) + x, ()) for j in range(d)] for x in tuples]
    boxed_rights = [ref_basis_right_operator(alg, x) for x in tuples]
    rests = list(product(range(d), repeat=alg.arity - 1))
    slots = alg.slot_multiplication_operators()
    boxed_slots = [
        boxed_slot_operator(alg, s, r) for s in range(alg.arity) for r in rests
    ]
    slot_pairs = [(a, a) for a in range(len(slots))]
    slot_pairs += [tuple(rng.sample(range(len(slots)), 2)) for _ in range(60)]
    families = [
        (rights, boxed_rights, list(product(range(len(rights)), repeat=2))),
        (slots, boxed_slots, slot_pairs),
    ]
    commuting = 0
    for ints, boxed, pairs in families:
        for a, b in pairs:
            got = int_commutator(ints[a], ints[b], p)
            want = {}
            for q, c in enumerate(boxed[a].commutator(boxed[b]).flatten()):
                if c != 0:
                    # over Q a Fraction, equal to an int only if integral
                    want[q] = c.r if p else c * den * den
            assert got == want
            assert all(type(q) is int and type(c) is int for q, c in got.items())
            if p:
                assert all(0 < c < p for c in got.values())
            commuting += not got
    assert commuting


# -- every commutator, in scan order ------------------------------------------
#
# check_dxy_identity tests the pairs of the pair walk in scan order, until
# one fails: each nonzero commutator against LeibnizSystem.first_failure
# while the walk of the forms runs, and every pair through the packed
# form values of LeibnizSystem.bracket_values once it has ended.


@pytest.fixture
def dxy_tested(monkeypatch):
    """The operator pairs that ``check_dxy_identity`` takes from the pair
    walk, in order, in both phases: it stops taking them at its witness's
    pair."""
    taken = []
    original = nalg.checks.operator_pairs

    def recorded(ops):
        for a, x, b, y in original(ops):
            taken.append((x, y))
            yield a, x, b, y

    monkeypatch.setattr(nalg.checks, "operator_pairs", recorded)
    return taken


def commutators_of(alg, pairs):
    """The nonzero commutators of the recorded ``pairs``, in order."""
    p = alg.field.char
    return [op for x, y in pairs if (op := int_commutator(x, y, p))]


@pytest.mark.parametrize("alg", CASES)
def test_dxy_tests_a_basis_of_the_commutator_span(alg, dxy_tested):
    """The tested commutators are the nonzero ones in scan order: on a
    passing input all of them, which span the inner derivation space;
    on a failing one all of them up to the witness's pair."""
    verdict = check_dxy_identity(alg)
    tested = commutators_of(alg, dxy_tested)
    scanned = list(nonzero_commutators(alg))
    if verdict.passed:
        assert tested == [op for _, _, op in scanned]
        span = RowSpace(alg.field, alg.dim * alg.dim)
        for op in tested:
            span.insert_ints(dict(op))
        assert span.rank == inner_derivation_space(alg).rank
        return
    data = verdict.witness.data
    pair = tuple(
        tuple(next(i for i, c in enumerate(e.coords) if c) for e in data[k])
        for k in ("x", "y")
    )
    stop = next(n for n, (x, y, _) in enumerate(scanned) if (x, y) == pair)
    assert tested == [op for _, _, op in scanned[: stop + 1]]


@pytest.mark.parametrize(
    "alg, scanned, rank",
    [(catalog.dot_triple(QQ, 8), 224, 28), (catalog.dot_triple(GF(13), 6), 90, 15)],
    ids=["dot8-Q", "dot6-F_13"],
)
def test_dxy_tests_every_nonzero_commutator(alg, scanned, rank, dxy_tested):
    """A passing input tests all its nonzero commutators, far more than
    the dimension of the inner derivation space they span."""
    assert check_dxy_identity(alg).passed
    tested = commutators_of(alg, dxy_tested)
    assert tested == [op for _, _, op in nonzero_commutators(alg)]
    assert len(tested) == scanned
    assert inner_derivation_space(alg).rank == rank


def test_dxy_tests_a_dependent_commutator_before_the_failure(dxy_tested):
    """[R_b1, R_b3] = [R_b1, R_b2] passes as [R_b1, R_b2] did and is
    tested all the same; [R_b2, R_b3], the next one, fails."""
    entries = {
        (0, 0): (0, 0, -1, 0),
        (0, 1): (0, 0, 0, 1),
        (1, 1): (0, 1, -1, 0),
        (2, 1): (0, 0, 0, 1),
        (2, 2): (0, 0, 0, 1),
    }
    alg = NAryAlgebra.build(QQ, 2, 4, entries)
    scanned = [op for _, _, op in nonzero_commutators(alg)]
    assert len(scanned) == 3 and scanned[0] == scanned[1]
    verdict = check_dxy_identity(alg)
    assert commutators_of(alg, dxy_tested) == scanned
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
    ztuples = LeibnizSystem(alg).ztuples
    rows = [dict(form) for z in ztuples for form in all_forms_at(alg, z)]
    return nullspace_of(alg.field, alg.dim * alg.dim, rows).vectors


@pytest.mark.parametrize("alg", CASES)
def test_distinct_forms_give_the_all_forms_space(alg):
    got = derivation_algebra(alg).basis.vectors
    assert typed(got) == typed(all_forms_derivation_vectors(alg))


def two_pass_distinct_rows(alg):
    """``LeibnizSystem.distinct_rows`` as it ran in two passes: build the
    forms at every tuple (``all_forms_at``), then sort each, bring it to
    the kernel's normal form up to a unit and keep the first of each."""
    p = alg.field.char
    seen = {}
    for z in LeibnizSystem(alg).ztuples:
        for form in all_forms_at(alg, z):
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


# -- the lazy walk of the Leibniz system -------------------------------------
#
# LeibnizSystem keeps each Leibniz form once up to a unit scale, with the
# position of its first appearance, found by one lazy walk of the basis
# tuples; first_failure reads them in that order.


def perturbed_derivations(alg, rng):
    """Each basis derivation, flattened, with one drawn entry moved by a
    drawn nonzero amount: most break the rule, some only at a late
    tuple."""
    steps = [1, -1]
    if alg.field == QQ:
        steps += [Fraction(1, 3), Fraction(-5, 2)]
    for vec in derivation_algebra(alg).basis.vectors:
        flat = list(vec)
        q = rng.randrange(len(flat))
        flat[q] = flat[q] + alg.field.of(rng.choice(steps))
        yield flat


def sparse_ints(field, flat):
    """An operator flattened in field scalars as ints (``int_row``) and
    as the sparse int row that ``first_failure`` takes."""
    ints = int_row(field, flat)
    return ints, {q: v for q, v in enumerate(ints) if v}


def all_forms_first_failure(forms, flat, p):
    """Position of the first tuple at which one of ``forms`` (all the
    forms at each tuple, in scan order) does not vanish on ``flat``."""
    for pos, at in enumerate(forms):
        for form in at:
            acc = sum(c * flat[q] for q, c in form)
            if acc % p if p else acc:
                return pos
    return None


@pytest.mark.parametrize("alg", CASES)
def test_first_failure_matches_all_forms(alg):
    """On drawn operators, perturbed derivations and derivations, in a
    drawn order, ``first_failure`` gives the first failure of the whole
    system: on one system that each operator extends as far as it needs,
    and on a fresh system per operator.  The forms found stay a prefix of
    the full walk."""
    field, p = alg.field, alg.field.char
    rng = random.Random(alg.dim)
    shared = LeibnizSystem(alg)
    forms = [all_forms_at(alg, z) for z in shared.ztuples]
    flats = list(perturbed_derivations(alg, rng))
    flats += [op.flatten() for op in drawn_operators(alg, rng, 6)]
    flats += list(derivation_algebra(alg).basis.vectors)
    rng.shuffle(flats)
    for flat in flats:
        ints, op = sparse_ints(field, flat)
        want = all_forms_first_failure(forms, ints, p)
        assert shared.first_failure(op) == want
        assert LeibnizSystem(alg).first_failure(op) == want
    full = LeibnizSystem(alg)
    full.distinct_rows()
    assert shared._found == full._found[: len(shared._found)]


def late_failure_cases():
    m1 = QQ.of(-1)
    yield catalog.conj_triple(catalog.octonions(QQ, m1, m1, m1)), 10
    yield twin(catalog.dot_triple(QQ, 3), 3, (1, Fraction(1, 2), Fraction(2, 3))), 2
    yield catalog.dot_triple(GF(13), 6), 15


@pytest.mark.parametrize("alg, late", list(late_failure_cases()), ids=repr)
def test_perturbed_derivations_fail_late(alg, late):
    """A derivation moved by one at a single entry breaks the rule at a
    tuple that depends on the entry, some of them past the first rows of
    the scan; ``first_failure`` finds each there, over Q with
    denominators and over GF(p)."""
    p = alg.field.char
    system = LeibnizSystem(alg)
    forms = [all_forms_at(alg, z) for z in system.ztuples]
    positions = []
    vec = derivation_algebra(alg).basis.vectors[0]
    for q in range(len(vec)):
        flat = list(vec)
        flat[q] = flat[q] + alg.field.one
        ints, op = sparse_ints(alg.field, flat)
        pos = system.first_failure(op)
        assert pos == all_forms_first_failure(forms, ints, p)
        positions.append(pos)
    assert None not in positions and max(positions) >= late


@pytest.mark.parametrize("alg", CASES)
def test_column_index_matches_all_forms(alg):
    """Once a passing operator has ended the walk, ``first_failure``
    reads the column index of the forms.  On derivations, which pass, on
    drawn operators, which mostly fail early, and on perturbed
    derivations, some of which fail late, it gives the first failure of
    the whole system."""
    field, p = alg.field, alg.field.char
    rng = random.Random(alg.dim)
    shared = LeibnizSystem(alg)
    forms = [all_forms_at(alg, z) for z in shared.ztuples]
    derivations = list(derivation_algebra(alg).basis.vectors)
    passing = sparse_ints(field, derivations[0])[1] if derivations else {}
    assert shared.first_failure(passing) is None
    assert shared._walk is None and shared._packed is None
    flats = list(derivations)
    flats += [op.flatten() for op in drawn_operators(alg, rng, 6)]
    flats += list(perturbed_derivations(alg, rng))
    rng.shuffle(flats)
    for flat in flats:
        ints, op = sparse_ints(field, flat)
        assert shared.first_failure(op) == all_forms_first_failure(forms, ints, p)
    assert shared._packed is not None
    full = LeibnizSystem(alg)
    full.distinct_rows()
    assert shared._found == full._found


def witness_position(system, args):
    """Position in ``system.ztuples`` of the basis elements ``args``."""
    z = tuple(next(i for i, c in enumerate(e.coords) if c) for e in args)
    return system.ztuples.index(z)


@pytest.fixture
def systems(monkeypatch):
    """Every ``LeibnizSystem`` made, in order."""
    made = []
    original = LeibnizSystem.__init__

    def recorded(self, alg):
        original(self, alg)
        made.append(self)

    monkeypatch.setattr(LeibnizSystem, "__init__", recorded)
    return made


@pytest.mark.parametrize("alg", CASES)
def test_a_failing_check_finds_no_form_past_its_witness(alg, systems):
    """A failing ``check_dxy_identity`` or ``is_derivation`` extends the
    walk to the tuple of its witness and no further: the last form found
    first appears there."""
    verdicts = [check_dxy_identity(alg)]
    for op in drawn_operators(alg, random.Random(alg.dim), 3):
        verdicts.append(is_derivation(alg, op))
    assert len(systems) == len(verdicts)
    for verdict, system in zip(verdicts, systems):
        found = [pos for pos, _ in system._found]
        if verdict.passed:
            # check_dxy_identity tests no commutator on an input with none
            assert not found or len(found) == len(system.distinct_rows())
            continue
        data = verdict.witness.data
        pos = witness_position(system, data["z"] if "z" in data else data["args"])
        assert found and max(found) == found[-1] == pos


# -- the packed walk at the edges of its slot width and layout -----------------
#
# The walk packs the d forms at a tuple into one int, in slots sized for
# (n + 1) times the largest coefficient, over the rows the tuple touches.
# The tables below put n + 1 terms of that size, all of one sign, into one
# slot, at and just past the byte boundaries of the slot width, over Q
# with large den-scaled coefficients and over GF(p) with residues on both
# sides of p/2; the others are a dense GF(10007) twin, arity 5, the zero
# algebra and dimension 1.  On each, the walk must give the rows of the
# two-pass reference and the first failures of all the forms.


def full_slot_table(field, arity, dim, top, extra=()):
    """A table whose forms at (0, ..., 0) put arity + 1 terms of absolute
    value ``top`` into one slot, all of one sign: the product at (0, ..., 0)
    is top * e0, and with e1 in any one slot it is -top * e1, so form 1
    collects top from the lhs and top from each slot at entry (0, 1).
    ``extra`` adds more entries."""
    entries = {(0,) * arity: {0: top}}
    for s in range(arity):
        entries[(0,) * s + (1,) + (0,) * (arity - s - 1)] = {1: -top}
    entries.update(extra)
    return NAryAlgebra.build(field, arity, dim, entries)


def packing_edge_cases():
    big = Fraction(2**40, 3)  # den 3: den-scaled coefficients reach 2^40
    mixed = {
        (1, 2, 0): {0: Fraction(-5, 3), 2: 7},
        (2, 1, 2): {0: -big, 1: Fraction(2**39, 3), 2: 1},
        (2, 2, 1): {1: big},
    }
    yield "full-2^40-Q", full_slot_table(QQ, 3, 3, big, mixed)
    yield "full-2^70-Q", full_slot_table(QQ, 3, 3, 2**70, {(1, 1, 2): {2: -3}})
    # 4 * 31 = 124 fits one byte, 4 * 32 = 128 needs two
    yield "full-31-Q", full_slot_table(QQ, 3, 3, 31, {(2, 0, 1): {2: -31}})
    yield "full-32-Q", full_slot_table(QQ, 3, 3, 32, {(2, 0, 1): {2: -32}})
    # residues p//2 and p - p//2, packed as p//2 and -(p//2): 4 * 30 = 120
    # fits one byte over GF(61), 4 * 33 = 132 needs two over GF(67)
    for p in (61, 67, 10007):
        h = p // 2
        yield "full-F%d" % p, full_slot_table(GF(p), 3, 3, h, {(2, 1, 0): {0: h + 1}})
    # residues p - 1, which only their symmetric representative -1 keeps
    # inside one byte: 3 * 60 = 180 would not fit
    yield "full-1-F61", full_slot_table(GF(61), 3, 3, 1)
    m1 = GF(10007).of(-1)
    quat = catalog.conj_triple(catalog.quaternions(GF(10007), m1, m1))
    yield "quat~-F10007", twin(quat, 4)
    # six terms in one slot: 6 * 21 = 126 fits one byte
    arity5 = {(1, 1, 0, 1, 1): {0: 3, 1: -2}, (0, 1, 0, 1, 0): {1: 5}}
    yield "arity5-Q", full_slot_table(QQ, 5, 2, 21, arity5)
    yield "arity5-F13", full_slot_table(GF(13), 5, 2, 6, arity5)
    for field in (QQ, GF(5)):
        yield "zero-%r" % field, NAryAlgebra.build(field, 3, 3, {})
        yield "dim1-%r" % field, NAryAlgebra.build(field, 3, 1, {(0, 0, 0): {0: 2}})
    yield "dim1-binary-Q", NAryAlgebra.build(QQ, 2, 1, {(0, 0): {0: -1}})


PACKING_EDGES = [pytest.param(alg, id=name) for name, alg in packing_edge_cases()]


@pytest.mark.parametrize("alg", PACKING_EDGES)
def test_packed_walk_matches_two_pass_at_the_edges(alg):
    test_one_pass_distinct_rows_match_two_pass(alg)
    if alg.field == QQ and alg.dim > 1 and alg.int_table()[1]:
        # over Q the sums are the forms' coefficients before any unit
        # scale: the full slot holds (n + 1) * top, the most a slot can
        top = max(abs(c) for terms in alg.int_table()[1].values() for _, c in terms)
        forms = all_forms_at(alg, (0,) * alg.arity)
        assert max(abs(c) for form in forms for _, c in form) == (alg.arity + 1) * top


@pytest.mark.parametrize("alg", PACKING_EDGES)
def test_packed_walk_first_failure_at_the_edges(alg):
    test_first_failure_matches_all_forms(alg)


def large_cases():
    yield "dot24-Q", catalog.dot_triple(QQ, 24)
    yield "spin40-F13", catalog.spin_factor(GF(13), 40)


LARGE = [pytest.param(alg, id=name) for name, alg in large_cases()]


@pytest.mark.parametrize("alg", LARGE)
def test_packed_walk_matches_two_pass_on_large_inputs(alg):
    test_one_pass_distinct_rows_match_two_pass(alg)


@pytest.mark.parametrize("alg", LARGE)
def test_packed_walk_first_failure_on_large_inputs(alg):
    """The operator with one nonzero entry, at the last position, fails
    where the first form that reads that entry appears."""
    system = LeibnizSystem(alg)
    forms = [all_forms_at(alg, z) for z in system.ztuples]
    d = alg.dim
    flat = [0] * (d * d)
    flat[-1] = 1
    want = all_forms_first_failure(forms, flat, alg.field.char)
    assert want is not None
    assert system.first_failure({d * d - 1: 1}) == want


# -- the packed pair test once the walk has ended ------------------------------
#
# Once the walk has ended, check_dxy_identity forms no commutator: the
# values of the forms at [R_x, R_y] are the sum of v * T[q] over the
# entries v of R_y at q, T from LeibnizSystem.bracket_values(R_x), in
# slots sized for 2 d^3 top^2 max|c|.  The tables below are the packing
# edges above, whose coefficients reach 2^40 and 2^70 over Q, sit on both
# sides of the one-byte boundary, or are the residues p//2 and p - p//2
# over GF(61), GF(67) and GF(10007), with the dense GF(10007) quaternion
# twin and arity 5; binary tables of the same kinds; and dense twins of
# passing ternary and binary tables with such coefficients.  On each, every
# slot read back must be the value of its form, within that bound, and the
# check must give the boxed verdict and witness.


def binary_edge_cases():
    big = Fraction(2**40, 3)
    mixed = {(1, 2): {0: -big, 2: Fraction(2**39, 3)}, (2, 1): {1: big}}
    yield "binary-2^40-Q", full_slot_table(QQ, 2, 3, big, mixed)
    yield "binary-2^70-Q", full_slot_table(QQ, 2, 3, 2**70, {(2, 2): {2: -3}})
    yield "binary-31-Q", full_slot_table(QQ, 2, 3, 31, {(2, 0): {2: -31}})
    for p in (61, 67, 10007):
        h = p // 2
        yield "binary-F%d" % p, full_slot_table(GF(p), 2, 3, h, {(2, 1): {0: h + 1}})


def passing_edge_cases():
    """Dense twins of tables whose check passes, so that every pair after
    the first goes through the packed test: over Q with den-scaled
    coefficients past 2^40, and over GF(61) and GF(67) with residues all
    over [0, p)."""
    scales = (1, Fraction(2**40, 3), Fraction(-(2**21), 7))
    yield "dot3~2^40-Q", twin(catalog.dot_triple(QQ, 3), 3, scales)
    yield "spin3~2^40-Q", twin(catalog.spin_factor(QQ, 3), 4, scales)
    for p in (61, 67):
        yield "dot3~-F%d" % p, twin(catalog.dot_triple(GF(p), 3), 3)
        yield "spin3~-F%d" % p, twin(catalog.spin_factor(GF(p), 3), 4)


PACKED_EDGES = PACKING_EDGES + [
    pytest.param(alg, id=name)
    for cases in (binary_edge_cases, passing_edge_cases)
    for name, alg in cases()
]


def slot_capacity(b):
    """The largest |sum| that a slot of b bytes, offset by 0x80 in every
    byte, holds."""
    return 127 * (256**b - 1) // 255


def read_slots(acc, packing, count):
    """Every slot of the packed sum ``acc`` read back as a signed int."""
    b, _, offset = packing
    buf = (acc + offset).to_bytes(count * b, "little")
    zero = int.from_bytes(b"\x80" * b, "little")
    return [int.from_bytes(buf[a : a + b], "little") - zero for a in range(0, len(buf), b)]


@pytest.mark.parametrize("alg", PACKED_EDGES)
def test_packed_pair_values_are_the_form_values(alg):
    """For every pair of nonzero R_x, the slots of the packed sum hold the
    value of each form at the commutator: exactly over Q and mod p over
    GF(p).  Every value is within 2 d^3 top^2 max|c|, and the slot is the
    least width of the walk's rule that holds that bound."""
    system = LeibnizSystem(alg)
    system.distinct_rows()
    d, p = alg.dim, alg.field.char
    half = p // 2
    table = alg.int_table()[1]
    if p:
        top = most = half
    else:
        top = max((abs(c) for terms in table.values() for _, c in terms), default=0)
        most = max((abs(c) for _, form in system._found for _, c in form), default=0)
    bound = 2 * d**3 * top**2 * most
    ops = [op for op in alg.slot_operators(0, _basis_tuples(alg, alg.arity - 1)) if any(op)]
    for x in ops:
        values, packing = system.bracket_values(x)
        b = packing[0]
        assert slot_capacity(b) >= bound
        assert b == 1 or slot_capacity(b // 2 if b <= 16 else b - 8) < bound
        for y in ops:
            # symmetric residues over GF(p), as the check reads them
            entries = [(i * d + j, c - p if p and c > half else c)
                       for i, row in enumerate(y) for j, c in row]
            got = read_slots(sum(v * values[q] for q, v in entries), packing, len(system._found))
            op = int_commutator(x, y, p)
            want = [sum(c * op.get(q, 0) for q, c in form) for _, form in system._found]
            assert all(abs(v) <= bound for v in got)
            if p:
                assert [v % p for v in got] == [v % p for v in want]
            else:
                assert got == want


@pytest.mark.parametrize("alg", PACKED_EDGES)
def test_packed_dxy_matches_boxed_scan_at_the_edges(alg):
    test_dxy_matches_boxed_scan(alg)


@pytest.mark.parametrize(
    "alg", [p for p in PACKED_EDGES if p.values[0].dim > 1 and p.values[0].int_table()[1]]
)
def test_first_failure_at_the_slot_capacity(alg):
    """Once the walk has ended, an operator with the one nonzero entry v,
    at an entry where a form has its largest |c|, has form values up to
    max|c| * v, the bound its slots are sized for.  With v at the capacity
    of each slot width, one past it, and at 256^k, where a slot one width
    too narrow reads a zero, ``first_failure`` gives the first failure of
    all the forms."""
    system = LeibnizSystem(alg)
    system.distinct_rows()
    forms = [all_forms_at(alg, z) for z in system.ztuples]
    d, p = alg.dim, alg.field.char
    sym = {c: c - p if p and c > p // 2 else c for _, f in system._found for _, c in f}
    most = max(abs(c) for c in sym.values())
    q = next(q for _, f in system._found for q, c in f if abs(sym[c]) == most)
    values = {256**k for k in (1, 2, 4, 8, 16, 24)}
    for b in (1, 2, 4, 8, 16, 24, 32):
        values |= {slot_capacity(b) // most, slot_capacity(b) // most + 1}
    if p:
        values = {v % p for v in values} | {p // 2, p - p // 2, p - 1}
    for v in sorted(values - {0}):
        flat = [0] * (d * d)
        flat[q] = v
        assert system.first_failure({q: v}) == all_forms_first_failure(forms, flat, p)


def late_grid_cases():
    """The flag-grid inputs whose ``check dxy`` fails only after the walk
    of the forms has ended: flags f and fh with dim_v 2 or 3, but for
    GF(2) only f, as fh passes there."""
    for field in (QQ, GF(2), GF(3), GF(5)):
        for dimv in (2, 3):
            for h in (False, True):
                if not (field == GF(2) and h):
                    name = "fx.%r.%d.%s" % (field, dimv, "fh" if h else "f")
                    yield name, catalog.form_extension(field, dimv, f=True, h=h)


@pytest.mark.parametrize(
    "alg", [pytest.param(alg, id=name) for name, alg in late_grid_cases()]
)
def test_grid_failures_after_the_walk_match_boxed_scan(alg, systems):
    verdict = check_dxy_identity(alg)
    assert not verdict.passed and systems[0]._walk is None
    assert as_data(verdict) == as_data(ref_check_dxy_identity(alg))


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
            assert_boxed_jordan_sides(alg, verdict.witness)
        counts["tables"] += 1
        counts["nonzero"] += nonzero
    # the F_2 points miss one failure, which shows only over F_4
    want = {2: (64, 39, 38), 3: (729, 616, 616)}[p]
    assert (counts["tables"], counts["nonzero"], counts["point"]) == want


def ref_jordan_sides(alg, xs, y):
    """The two sides of a Jordan witness on field scalars, through
    ``multiply``: sums of (a y)(b c) and of a (y (b c)) over the distinct
    orderings (a, b, c) of the three elements ``xs``, as the witness was
    boxed before it moved onto the int view."""
    lhs = alg.zero_element()
    rhs = alg.zero_element()
    for a, b, c in dict.fromkeys(permutations(xs)):
        bc = alg.multiply(b, c)
        lhs = lhs + alg.multiply(alg.multiply(a, y), bc)
        rhs = rhs + alg.multiply(a, alg.multiply(y, bc))
    return lhs, rhs


def assert_boxed_jordan_sides(alg, w):
    """The sides of the Jordan witness ``w``, and of its replay, are the
    boxed ones, entry for entry and type for type."""
    xs = (w.data["x"],) * 3 if w.kind == "jordan_raw" else w.data["x"]
    want = typed(ref_jordan_sides(alg, xs, w.data["y"]))
    assert typed((w.lhs, w.rhs)) == want
    assert typed(reevaluate_witness(alg, w)) == want


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
    # denominators that differ from entry to entry: den > 1
    scales = (1, Fraction(1, 2), Fraction(-3, 2))
    yield twin(red, 4, scales)
    yield twin(catalog.spin_factor(QQ, 3), 3, scales)
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
        assert_boxed_jordan_sides(alg, w)
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
