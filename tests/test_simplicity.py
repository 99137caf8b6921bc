"""Differential tests of the simplicity test against the order it replaced.

The reference ``reference_simplicity`` builds every candidate vector up
front (basis vectors, two-term sums and differences, kernels of the slot
operators and of their pairwise commutators), spins them in order, and
only then closes the slot operators under two-sided products
(``reference_closure``).  It works on boxed ``Matrix`` operators made
from ``product_of_basis``, and spins ideals by the stack loop on field
scalars that ``ideal_closure`` ran before (``reference_ideal_closure``).
``structure.simplicity`` runs the closure first, spins candidates
lazily, and holds the operators as sparse int rows;
``linalg.matrix_algebra_closure`` grows the span by one-sided generator
products in one ``RowSpace.spin``.  Both must give the same report and
the same closure, bit for bit, over Q, F_2, F_3 and F_5, and over the Q
twins of ``tests/test_int_view.py`` whose denominators differ from
entry to entry and on scaled catalog algebras, where den > 1.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog, io, linalg, structure
from nalg.algebra import NAryAlgebra
from nalg.cli import main
from nalg.fields import GF, QQ
from nalg.linalg import (
    Matrix,
    RowSpace,
    SubspaceBasis,
    matrix_algebra_closure,
    nullspace_of,
)
from nalg.structure import SimplicityReport, ideal_closure, simplicity

import test_int_view

FIELDS = (QQ, GF(2), GF(3), GF(5))


def boxed_slot_operators(alg):
    """The slot operators as ``Matrix``es of field scalars, in the order
    of ``slot_multiplication_operators``."""
    d = alg.dim
    return [
        Matrix(
            alg.field,
            [alg.product_of_basis(rest[:slot] + (j,) + rest[slot:]) for j in range(d)],
        )
        for slot in range(alg.arity)
        for rest in product(range(d), repeat=alg.arity - 1)
    ]


def reference_ideal_closure(alg, generators, ops):
    """The span of the generators saturated under the boxed operators by a
    stack of field-scalar vectors."""
    space = RowSpace(alg.field, alg.dim)
    stack = []
    for g in generators:
        if space.insert(list(g)):
            stack.append(g)
    while stack:
        v = stack.pop()
        for op in ops:
            w = op.apply(v)
            if space.insert(list(w)):
                stack.append(w)
    return SubspaceBasis(alg.field, alg.dim, space.rows())


def reference_closure(field, dim, generators):
    """Closure under products, every new element multiplied on both sides
    by every basis element found so far."""
    gens = [g for g in generators]
    for g in gens:
        if g.nrows != dim or g.ncols != dim:
            raise ValueError("generator shape mismatch")
    space = RowSpace(field, dim * dim)
    basis = []
    fresh = []
    for g in gens:
        if space.insert(list(g.flatten())):
            basis.append(g)
            fresh.append(g)
    while fresh:
        new = []
        for a in basis:
            for b in fresh:
                for prod in (a @ b, b @ a):
                    if space.insert(list(prod.flatten())):
                        new.append(prod)
        basis.extend(new)
        fresh = new
        if space.rank == dim * dim:
            break
    sub = SubspaceBasis(field, dim * dim, space.rows())
    mats = [Matrix.from_flat(field, dim, dim, v) for v in sub.vectors]
    return sub, mats


def reference_candidates(alg, ops):
    field = alg.field
    d = alg.dim
    cands = []
    for i in range(d):
        cands.append(alg.basis_element(i).coords)
    for i in range(d):
        for j in range(i + 1, d):
            bi, bj = alg.basis_element(i), alg.basis_element(j)
            cands.append((bi + bj).coords)
            if field.char != 2:
                cands.append((bi - bj).coords)
    for op in ops:
        for v in op.nullspace():
            cands.append(v)
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            for v in ops[a].commutator(ops[b]).nullspace():
                cands.append(v)
    seen = set()
    out = []
    for v in cands:
        lead = next((c for c in v if c != 0), None)
        if lead is None:
            continue
        key = tuple(c / lead for c in v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def reference_simplicity(alg):
    d = alg.dim
    if alg.is_zero_algebra():
        ideal = None
        if d >= 2:
            ideal = SubspaceBasis.from_vectors(
                alg.field, d, [alg.basis_element(0).coords]
            )
        return SimplicityReport("not_simple", "abelian", ideal)
    ops = boxed_slot_operators(alg)
    for v in reference_candidates(alg, ops):
        closure = reference_ideal_closure(alg, [v], ops)
        if 0 < closure.dim < d:
            return SimplicityReport("not_simple", "witness_spin", closure)
    closure, _ = reference_closure(alg.field, d, ops)
    if closure.dim == d * d:
        return SimplicityReport(
            "simple", "burnside(%d)" % closure.dim, None, closure.dim
        )
    return SimplicityReport("undetermined", "none", None, closure.dim)


def gaussian_rationals(field):
    """Q(i) as a binary algebra: b1 is 1 and b2 is i."""
    return NAryAlgebra.build(
        field,
        2,
        2,
        {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [-1, 0]},
        labels=["1", "i"],
    )


def catalog_cases(field):
    """(name, algebra) for the catalog at sizes where the reference stays
    cheap; the octonions only over Q."""
    m1 = field.of(-1)
    for f, g, h in product((False, True), repeat=3):
        yield "vfgh%d%d%d" % (f, g, h), catalog.form_extension(field, 1, f, g, h)
    yield "vfgh2", catalog.form_extension(field, 2, f=True, g=True, h=True)
    yield "dot2", catalog.dot_triple(field, 2)
    yield "dot3", catalog.dot_triple(field, 3)
    yield "spin1", catalog.spin_factor(field, 1)
    yield "spin2", catalog.spin_factor(field, 2)
    yield "sym2", catalog.sym_matrix(field, 2)
    yield "s1", catalog.s1(field, 2, 1, 2)
    yield "s2", catalog.s2(field, 2, 1, 2)
    yield "a1", catalog.filippov_a1(field)
    yield "tca1", catalog.tca1(field)
    yield "qi", gaussian_rationals(field)
    if field.char != 2:
        quat = catalog.quaternions(field, m1, m1)
        yield "quat", quat.algebra
        yield "quat3", catalog.conj_triple(quat)
    if field.char == 0:
        yield "oct", catalog.octonions(field, m1, m1, m1).algebra
    if field.char not in (2, 3):
        yield "brace", catalog.filippov_brace(field)
    if field.char != 2 and (field.char - 1) % 4 == 0:
        yield "tkk-J", catalog.tkk_ternary(catalog.tkk_grading_a1(field))


CASES = [
    pytest.param(alg, id="%s-%r" % (name, field))
    for field in FIELDS
    for name, alg in catalog_cases(field)
]
# over Q with den > 1: the twins whose basis change has entries rescaled
# by 1/2, 1/3 and -3/2, and the dimension-2 catalog scaled by -3/7, which
# reaches the ideal spins of every verdict
SCALED = [p for p in test_int_view.CASES if "~/" in p.id] + [
    pytest.param(alg.scale(Fraction(-3, 7)), id="%s*-3/7-Q" % name)
    for name, alg in catalog_cases(QQ)
    if alg.dim == 2
]


def forbid_boxed_operators(monkeypatch):
    """Make the Matrix arithmetic that the simplicity test must not reach
    raise."""

    def boxed(self, *args):
        raise AssertionError("boxed Matrix arithmetic")

    for name in ("__matmul__", "apply", "commutator", "nullspace"):
        monkeypatch.setattr(Matrix, name, boxed)


def test_scaled_cases_have_denominators_and_every_verdict():
    assert all(p.values[0].int_table()[0] > 1 for p in SCALED)
    assert {simplicity(p.values[0]).status for p in SCALED} == {
        "simple",
        "not_simple",
        "undetermined",
    }


@pytest.mark.parametrize("alg", CASES + SCALED)
def test_simplicity_matches_reference(alg, monkeypatch):
    want = reference_simplicity(alg)
    forbid_boxed_operators(monkeypatch)
    got = simplicity(alg)
    assert got == want
    if got.ideal is not None:
        assert [[type(c) for c in v] for v in got.ideal] == [
            [type(c) for c in v] for v in want.ideal
        ]


def test_cases_reach_every_verdict():
    kinds = {
        (rep.status, rep.certificate.split("(")[0])
        for rep in (simplicity(p.values[0]) for p in CASES)
    }
    assert kinds == {
        ("simple", "burnside"),
        ("not_simple", "witness_spin"),
        ("not_simple", "abelian"),
        ("undetermined", "none"),
    }


@pytest.mark.parametrize("alg", CASES + SCALED)
def test_closure_of_slot_operators_matches_reference(alg):
    boxed = boxed_slot_operators(alg)
    want = reference_closure(alg.field, alg.dim, boxed)
    ops = alg.slot_multiplication_operators()
    assert matrix_algebra_closure(alg.field, alg.dim, ops) == want
    assert matrix_algebra_closure(alg.field, alg.dim, boxed) == want


def test_slot_operators_are_the_boxed_operators_on_the_int_view():
    """Row j of each operator holds the nonzero (coordinate, int) pairs of
    den times the boxed row, in coordinate order; residues over GF(p)."""
    for p in CASES + SCALED:
        alg = p.values[0]
        den = alg.int_table()[0]
        ops = alg.slot_multiplication_operators()
        boxed = boxed_slot_operators(alg)
        assert len(ops) == len(boxed)
        for op, m in zip(ops, boxed):
            assert len(op) == alg.dim
            for row, want in zip(op, m.rows):
                assert list(row) == [
                    (j, alg.field.read(c * den)) for j, c in enumerate(want) if c != 0
                ]


@st.composite
def generator_sets(draw, field):
    """Small matrices with drawn entries, plus a linear combination of
    them and a strictly upper triangular (nilpotent) one."""
    n = draw(st.integers(1, 4))
    values = [0, 0, 0, 1, -1, 2] + ([] if field.char else ["1/2", "-3/4"])
    entry = st.sampled_from(values)
    row = st.lists(entry, min_size=n, max_size=n)
    square = st.lists(row, min_size=n, max_size=n)
    squares = draw(st.lists(square, min_size=1, max_size=3))
    gens = [Matrix(field, rows) for rows in squares]
    combo = Matrix.zeros(field, n, n)
    for g in gens:
        combo = combo + g.scale(draw(st.sampled_from([0, 1, -1, 2])))
    upper = [[draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    gens += [combo, Matrix(field, upper)]
    return n, draw(st.permutations(gens))


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_generators_match_reference_closure(field, data):
    n, gens = data.draw(generator_sets(field))
    sub, mats = matrix_algebra_closure(field, n, gens)
    assert (sub, mats) == reference_closure(field, n, gens)
    # closed under products and containing every generator
    for m in mats + gens:
        assert sub.contains_vector(m.flatten())
    for a in mats:
        for b in mats:
            assert sub.contains_vector((a @ b).flatten())


def test_closure_rejects_wrong_shape():
    with pytest.raises(ValueError):
        matrix_algebra_closure(QQ, 2, [Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)])
    for op in ([[(0, 1)], [(1, 1)], []], [[(0, 1)], [(2, 1)]]):
        with pytest.raises(ValueError):
            matrix_algebra_closure(QQ, 2, [[[(1, 1)], []], op])


@st.composite
def drawn_algebras(draw, field):
    """Small tables with no symmetry, binary or ternary, with a drawn
    generator vector."""
    arity = draw(st.integers(2, 3))
    d = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    tuples = draw(
        st.lists(st.tuples(*[st.integers(0, d - 1)] * arity), max_size=5, unique=True)
    )
    entries = {idx: [draw(entry) for _ in range(d)] for idx in tuples}
    alg = NAryAlgebra.build(field, arity, d, entries)
    return alg, [draw(entry) for _ in range(d)]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ideal_closure_of_drawn_tables_matches_reference(field, data):
    alg, v = data.draw(drawn_algebras(field))
    want = reference_ideal_closure(
        alg, [alg.element(v).coords], boxed_slot_operators(alg)
    )
    assert ideal_closure(alg, [v]) == want
    assert ideal_closure(alg, [v], alg.slot_multiplication_operators()) == want


@pytest.mark.parametrize(
    "alg", CASES + [p for p in SCALED if p.values[0].dim == 2]
)
def test_candidates_match_reference(alg, monkeypatch):
    """The whole candidate sequence, every family in order, though most
    verdicts stop at its first vectors."""
    want = reference_candidates(alg, boxed_slot_operators(alg))
    forbid_boxed_operators(monkeypatch)
    got = list(structure._candidate_vectors(alg, alg.slot_multiplication_operators()))
    assert got == want
    assert [[type(c) for c in v] for v in got] == [[type(c) for c in v] for v in want]


def dense_int_commutator(a, b, p):
    """AB - BA of two operators as sparse int rows, flattened row-major to
    d * d ints and reduced mod p: ``linalg.int_commutator`` as it was
    before it returned only the nonzero entries."""
    d = len(a)
    flat = []
    for ra, rb in zip(a, b):
        row = [0] * d
        for k, c in ra:
            for j, v in b[k]:
                row[j] += c * v
        for k, c in rb:
            for j, v in a[k]:
                row[j] -= c * v
        flat += row
    return [c % p for c in flat] if p else flat


def dense_split_candidates(alg, ops):
    """``structure._candidate_vectors`` as it ran on dense commutators,
    split into d dense rows for ``nullspace_of``."""
    field = alg.field
    d, p = alg.dim, field.char
    basis = alg.basis()

    def raw():
        for b in basis:
            yield b.coords
        for i, bi in enumerate(basis):
            for bj in basis[i + 1 :]:
                yield (bi + bj).coords
                if p != 2:
                    yield (bi - bj).coords
        for op in ops:
            yield from nullspace_of(field, d, [dict(row) for row in op])
        for a, op in enumerate(ops):
            for other in ops[a + 1 :]:
                flat = dense_int_commutator(op, other, p)
                rows = [flat[i : i + d] for i in range(0, d * d, d)]
                yield from nullspace_of(field, d, rows)

    seen = set()
    for v in raw():
        lead = next((c for c in v if c != 0), None)
        if lead is None:
            continue
        key = tuple(c / lead for c in v)
        if key not in seen:
            seen.add(key)
            yield v


@pytest.mark.parametrize("alg", test_int_view.CASES)
def test_candidates_match_dense_split_commutators(alg):
    """The commutator kernels read off sparse commutators give the same
    vectors, in the same order and of the same types, as the dense
    commutators split into rows."""
    ops = alg.slot_multiplication_operators()
    got = list(structure._candidate_vectors(alg, ops))
    want = list(dense_split_candidates(alg, ops))
    assert got == want
    assert [[type(c) for c in v] for v in got] == [[type(c) for c in v] for v in want]


def test_gaussian_rationals_are_undetermined(tmp_path, capsys):
    alg = gaussian_rationals(QQ)
    rep = simplicity(alg)
    assert rep.status == "undetermined"
    assert rep.certificate == "none"
    assert rep.ideal is None
    assert rep.operator_dim == 2
    path = tmp_path / "qi.json"
    io.dump_file(alg, path)
    assert main(["simple", str(path)]) == 2
    assert capsys.readouterr().out == "simple: undetermined\ncertificate: none\n"


@pytest.fixture
def call_counts(monkeypatch):
    """Calls the simplicity test makes to form commutators and nullspaces
    of its int operators."""
    counts = {"int_commutator": 0, "nullspace_of": 0}
    # the pair walk of linalg forms the commutators
    for owner, name in ((linalg, "int_commutator"), (structure, "nullspace_of")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_not_simple_spins_before_commutators(call_counts):
    rep = simplicity(catalog.form_extension(GF(2), 3))
    assert rep.status == "not_simple" and rep.certificate == "witness_spin"
    assert call_counts["int_commutator"] == 0


def test_simple_builds_no_candidates(call_counts):
    rep = simplicity(catalog.dot_triple(QQ, 5))
    assert rep.status == "simple" and rep.certificate == "burnside(25)"
    assert call_counts == {"int_commutator": 0, "nullspace_of": 0}


def test_call_counter_sees_candidate_kernels(call_counts):
    # Q(i) is undetermined, so every candidate family is generated
    simplicity(gaussian_rationals(QQ))
    assert call_counts["int_commutator"] > 0 and call_counts["nullspace_of"] > 0
