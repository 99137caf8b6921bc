import pytest

from nalg.algebra import NAryAlgebra
from nalg.catalog import dot_triple, form_extension, octonions, quaternions
from nalg.derivations import (
    OperatorSpace,
    compare,
    d2_decompose,
    derivation_algebra,
    inner_derivation_space,
    is_derivation,
    skew_space,
)
from nalg.fields import GF, QQ
from nalg.linalg import Matrix, SubspaceBasis


def leibniz_holds(alg, op):
    """Independent Leibniz check directly through multiply."""
    from itertools import product as iproduct

    from nalg.algebra import Element

    for idx in iproduct(range(alg.dim), repeat=alg.arity):
        args = [alg.basis_element(i) for i in idx]
        lhs = Element(op.apply(alg.multiply(*args).coords))
        rhs = alg.zero_element()
        for s in range(alg.arity):
            moved = list(args)
            moved[s] = Element(op.apply(args[s].coords))
            rhs = rhs + alg.multiply(*moved)
        if lhs.coords != rhs.coords:
            return False
    return True


def test_derivation_algebra_members_satisfy_leibniz():
    a = dot_triple(QQ, 3)
    der = derivation_algebra(a)
    for m in der.matrices():
        assert leibniz_holds(a, m)
        assert is_derivation(a, m)


def test_derivation_algebra_of_dot_triple_is_skew():
    for n in (2, 3, 4):
        a = dot_triple(QQ, n)
        der = derivation_algebra(a)
        assert der.rank == n * (n - 1) // 2
        assert compare(der, skew_space(QQ, n)) == "equal"


def test_derivation_algebra_zero_product():
    z = NAryAlgebra.build(QQ, 3, 2, {})
    der = derivation_algebra(z)
    assert der.rank == 4  # every operator is a derivation of zero


def test_is_derivation_witness():
    a = dot_triple(QQ, 2)
    bad = Matrix.unit(QQ, 2, 2, 0, 0)  # projection is not a derivation
    v = is_derivation(a, bad)
    assert not v
    w = v.witness
    assert w.kind == "derivation"
    assert w.lhs.coords != w.rhs.coords
    from nalg.checks import reevaluate_witness

    lhs, rhs = reevaluate_witness(a, w)
    assert lhs.coords == w.lhs.coords
    assert rhs.coords == w.rhs.coords


def test_is_derivation_shape_check():
    a = dot_triple(QQ, 2)
    with pytest.raises(ValueError):
        is_derivation(a, Matrix.identity(QQ, 3))


def test_inner_derivations_inside_derivations():
    for alg in (dot_triple(QQ, 3), form_extension(QQ, 2)):
        inner = inner_derivation_space(alg)
        der = derivation_algebra(alg)
        assert compare(inner, der) in ("equal", "left_in_right")
        for m in inner.matrices():
            assert is_derivation(alg, m)


def test_inner_derivations_of_dot_triple_fill_der():
    a = dot_triple(QQ, 3)
    assert compare(inner_derivation_space(a), derivation_algebra(a)) == "equal"


def test_compare_outcomes():
    full = OperatorSpace.from_matrices(
        QQ, 2, [Matrix.unit(QQ, 2, 2, i, j) for i in range(2) for j in range(2)]
    )
    diag = OperatorSpace.from_matrices(
        QQ, 2, [Matrix.unit(QQ, 2, 2, 0, 0), Matrix.unit(QQ, 2, 2, 1, 1)]
    )
    upper = OperatorSpace.from_matrices(QQ, 2, [Matrix.unit(QQ, 2, 2, 0, 1)])
    lower = OperatorSpace.from_matrices(QQ, 2, [Matrix.unit(QQ, 2, 2, 1, 0)])
    assert compare(diag, diag) == "equal"
    assert compare(diag, full) == "left_in_right"
    assert compare(full, diag) == "right_in_left"
    assert compare(upper, lower) == "incomparable"


def test_compare_makes_one_containment_test(monkeypatch):
    """The dimensions pick the one direction worth testing; the verdict
    is the one both directions give."""
    mats = {
        "full": [Matrix.unit(QQ, 2, 2, i, j) for i in range(2) for j in range(2)],
        "diag": [Matrix.unit(QQ, 2, 2, 0, 0), Matrix.unit(QQ, 2, 2, 1, 1)],
        "upper": [Matrix.unit(QQ, 2, 2, 0, 1)],
        "lower": [Matrix.unit(QQ, 2, 2, 1, 0)],
        "zero": [],
    }
    spaces = [OperatorSpace.from_matrices(QQ, 2, m) for m in mats.values()]
    calls = []
    contains = SubspaceBasis.contains

    def counting(self, other):
        calls.append((self, other))
        return contains(self, other)

    monkeypatch.setattr(SubspaceBasis, "contains", counting)
    seen = set()
    for a in spaces:
        for b in spaces:
            left, right = contains(b.basis, a.basis), contains(a.basis, b.basis)
            want = {
                (True, True): "equal",
                (True, False): "left_in_right",
                (False, True): "right_in_left",
                (False, False): "incomparable",
            }[left, right]
            calls.clear()
            assert compare(a, b) == want
            assert len(calls) == 1
            seen.add((want, a.rank == b.rank))
    assert len(seen) == 5  # incomparable both with equal and unequal dims


def test_skew_space_contents():
    s = skew_space(QQ, 3)
    assert s.rank == 3
    for m in s.matrices():
        assert m == -m.transpose()
        assert all(m.rows[i][i] == 0 for i in range(3))
    assert s.contains_matrix(
        Matrix.unit(QQ, 3, 3, 0, 2) - Matrix.unit(QQ, 3, 3, 2, 0)
    )
    assert not s.contains_matrix(Matrix.identity(QQ, 3))


def test_operator_space_roundtrip():
    mats = [Matrix.unit(QQ, 2, 2, 0, 1), Matrix.unit(QQ, 2, 2, 1, 0)]
    sp = OperatorSpace.from_matrices(QQ, 2, mats)
    assert sp.rank == 2
    back = sp.matrices()
    assert all(sp.contains_matrix(m) for m in back)


def test_d2_decompose_properties():
    from nalg.catalog import conj_triple

    q = quaternions(QQ, QQ.of(-1), QQ.of(-1))
    der = derivation_algebra(conj_triple(q))
    assert der.rank == 6
    for op in der.matrices():
        phi, psi = d2_decompose(q, op)
        assert phi + psi == op
        assert is_derivation(q.algebra, phi)
        assert all(c == 0 for c in phi.apply(q.unit.coords))
        # Psi is right multiplication by D(1)
        d1 = op.apply(q.unit.coords)
        for j in range(4):
            got = psi.rows[j]
            want = q.algebra.multiply(
                q.algebra.basis_element(j), q.algebra.element(d1)
            ).coords
            assert tuple(got) == tuple(want)


def test_d2_decompose_rejects_non_derivation():
    q = quaternions(QQ, QQ.of(-1), QQ.of(-1))
    with pytest.raises(ValueError):
        d2_decompose(q, Matrix.unit(QQ, 4, 4, 0, 0))


def test_octonion_triple_commutators_leave_der():
    # the doubled-quaternion triple product fails the commutator Leibniz
    # law, so the commutator span properly contains the derivation space
    o = octonions(GF(5), GF(5).of(-1), GF(5).of(-1), GF(5).of(-1))
    from nalg.catalog import conj_triple
    from nalg.checks import check_dxy_identity

    t = conj_triple(o)
    assert not check_dxy_identity(t)
    der = derivation_algebra(t)
    inner = inner_derivation_space(t)
    assert der.rank == 21
    assert inner.rank == 28
    assert compare(inner, der) == "right_in_left"
    assert any(not is_derivation(t, m) for m in inner.matrices())



@pytest.mark.parametrize("field", [QQ, GF(13)], ids=repr)
def test_octonion_triple_eliminates_its_distinct_forms_once(field, monkeypatch):
    """The Leibniz system of the octonion conjugation triple has 2920
    nonzero forms; 232 of them are distinct up to a unit scale, and only
    those reach the kernel."""
    from nalg import derivations
    from nalg.catalog import conj_triple
    from nalg.checks import LeibnizSystem

    m1 = field.of(-1)
    alg = conj_triple(octonions(field, m1, m1, m1))
    system = LeibnizSystem(alg)
    assert sum(len(system.forms_at(pos)) for pos in range(len(system.ztuples))) == 2920
    nullspace_of = derivations.nullspace_of
    handed = []

    def counting_nullspace_of(field, ncols, rows):
        rows = list(rows)
        handed.append(len(rows))
        return nullspace_of(field, ncols, rows)

    monkeypatch.setattr(derivations, "nullspace_of", counting_nullspace_of)
    assert derivation_algebra(alg).rank == 21
    assert handed == [232]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_commutators_reach_the_kernel_without_int_row(field, monkeypatch):
    """The commutators of the span gate and of the inner derivations are
    already on the int view: they go to the kernel with no pass through
    ``linalg.int_row``, on a passing and on a failing commutator check."""
    from nalg import linalg
    from nalg.catalog import conj_triple
    from nalg.checks import check_dxy_identity

    def refuse(field, row):
        raise AssertionError("a row went through int_row")

    m1 = field.of(-1)
    passing = dot_triple(field, 4)
    failing = conj_triple(octonions(field, m1, m1, m1))
    for alg in (passing, failing):
        alg.int_table()
    monkeypatch.setattr(linalg, "int_row", refuse)
    assert check_dxy_identity(passing).passed
    assert not check_dxy_identity(failing).passed
    assert inner_derivation_space(passing).rank == 6
    assert inner_derivation_space(failing).rank == 28
