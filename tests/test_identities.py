from itertools import product as iproduct

import pytest

from nalg.catalog import conj_triple, dot_triple, quaternions
from nalg.fields import GF, QQ
from nalg.identities import (
    IdentitySpace,
    Monomial,
    canonical_monomial,
    evaluate_combination,
    evaluate_monomial,
    evaluate_monomial_on_basis,
    identity_space,
    lifting_span,
    monomial_basis,
    num_variables,
    rename_monomial,
    verify_identity,
)


def d2_triple(field=QQ):
    return conj_triple(quaternions(field, field.of(-1), field.of(-1)))


def test_num_variables():
    assert num_variables(3, 1) == 3
    assert num_variables(3, 2) == 5
    assert num_variables(2, 2) == 3


def test_degree1_general_basis_order():
    ms = monomial_basis(3, 1, "general")
    assert [m.render() for m in ms] == [
        "[x,y,z]",
        "[x,z,y]",
        "[y,x,z]",
        "[y,z,x]",
        "[z,x,y]",
        "[z,y,x]",
    ]


def test_degree1_commutative_basis():
    ms = monomial_basis(3, 1, "commutative")
    assert len(ms) == 1
    assert ms[0].render() == "[x,y,z]"


def test_degree2_general_basis():
    ms = monomial_basis(3, 2, "general")
    assert len(ms) == 360
    assert ms[0].render() == "[[x,y,z],u,v]"
    assert ms[1].render() == "[[x,y,z],v,u]"
    assert ms[2].render() == "[[x,y,u],z,v]"
    # shapes move the inner product across the outer slots
    assert ms[120].render() == "[u,[x,y,z],v]"
    assert ms[240].render() == "[u,v,[x,y,z]]"


def test_degree2_commutative_basis():
    ms = monomial_basis(3, 2, "commutative")
    assert len(ms) == 10
    assert ms[0].render() == "[[x,y,z],u,v]"
    assert ms[1].render() == "[[x,y,u],z,v]"
    assert ms[-1].render() == "[[z,u,v],x,y]"
    trips = [m.vars[:3] for m in ms]
    assert trips == sorted(trips)


def test_monomial_basis_validation():
    with pytest.raises(ValueError):
        monomial_basis(3, 1, "odd")
    with pytest.raises(ValueError):
        monomial_basis(3, 3, "general")
    with pytest.raises(ValueError):
        monomial_basis(4, 2, "general")


def test_canonical_monomial():
    m = Monomial(2, 2, (2, 1, 0, 4, 3))
    assert canonical_monomial(m) == Monomial(2, 0, (0, 1, 2, 3, 4))
    d1 = Monomial(1, None, (2, 0, 1))
    assert canonical_monomial(d1) == Monomial(1, None, (0, 1, 2))


def test_rename_monomial():
    m = Monomial(2, 1, (0, 1, 2, 3, 4))
    p = (4, 3, 2, 1, 0)
    assert rename_monomial(m, p) == Monomial(2, 1, (4, 3, 2, 1, 0))


def test_basis_evaluation_matches_element_evaluation():
    alg = dot_triple(QQ, 2)
    ms = monomial_basis(3, 2, "commutative")
    for subst in [(0, 0, 0, 0, 1), (0, 1, 0, 1, 1), (1, 1, 0, 0, 1)]:
        elements = [alg.basis_element(i) for i in subst]
        for m in ms:
            fast = evaluate_monomial_on_basis(alg, m, subst)
            slow = evaluate_monomial(alg, m, elements)
            assert fast == slow.coords


def test_evaluate_combination_linearity():
    alg = dot_triple(QQ, 2)
    ms = monomial_basis(3, 1, "general")
    elements = [alg.element([1, 2]), alg.element([0, 1]), alg.element([3, -1])]
    coeffs = [QQ.of(c) for c in (1, -1, 2, 0, 0, 5)]
    acc = alg.zero_element()
    for m, c in zip(ms, coeffs):
        acc = acc + evaluate_monomial(alg, m, elements).scale(c)
    got = evaluate_combination(alg, ms, coeffs, elements)
    assert got.coords == acc.coords


def test_dot_triple_degree1_spaces():
    a = dot_triple(QQ, 2)
    # all six argument orders agree, nothing else: a five-dimensional
    # space of ordering differences in general mode, nothing in
    # commutative mode
    assert identity_space(a, 1, "general").solutions.dim == 5
    assert identity_space(a, 1, "commutative").solutions.dim == 0
    assert identity_space(a, 2, "commutative").solutions.dim == 0


def test_degree1_identities_vanish():
    a = dot_triple(QQ, 3)
    sp = identity_space(a, 1, "general")
    for vec in sp.solutions.vectors:
        assert verify_identity(a, vec, sp.monomials)


def test_commutative_mode_requires_commutativity():
    from nalg.catalog import matrix_triple_raw

    with pytest.raises(ValueError):
        identity_space(matrix_triple_raw(QQ, 2), 1, "commutative")


def test_d2_degree1_space():
    sp = identity_space(d2_triple(), 1, "general")
    assert sp.solutions.dim == 2
    gens = [tuple(int(c) for c in v) for v in sp.solutions.vectors]
    assert gens == [(1, 0, 1, 0, -1, -1), (0, 1, -1, -1, 1, 0)]
    alg = d2_triple()
    for vec in sp.solutions.vectors:
        assert verify_identity(alg, vec, sp.monomials)


def test_verify_identity_witness():
    a = dot_triple(QQ, 2)
    ms = monomial_basis(3, 1, "general")
    # the product itself is not an identity
    coeffs = [1] + [0] * 5
    v = verify_identity(a, coeffs, ms)
    assert not v
    w = v.witness
    assert w.kind == "identity"
    assert w.rhs.is_zero()
    assert not w.lhs.is_zero()
    from nalg.checks import reevaluate_witness

    lhs, rhs = reevaluate_witness(a, w)
    assert lhs.coords == w.lhs.coords
    assert rhs.is_zero()


def test_verify_identity_validation():
    a = dot_triple(QQ, 2)
    with pytest.raises(ValueError):
        verify_identity(a, [1], monomial_basis(3, 1, "general"))


def test_lifting_span_validation():
    base = identity_space(dot_triple(QQ, 2), 1, "general")
    with pytest.raises(ValueError):
        lifting_span(2, base, "general")
    deg2 = IdentitySpace(2, "general", base.monomials, base.solutions)
    with pytest.raises(ValueError):
        lifting_span(3, deg2, "general")


def test_lifted_identities_still_vanish():
    alg = d2_triple()
    base = identity_space(alg, 1, "general")
    lifted = lifting_span(3, base, "general")
    # spot check a handful of lifted vectors by brute evaluation
    for vec in lifted.solutions.vectors[:5]:
        assert verify_identity(alg, vec, lifted.monomials)


def test_d2_degree2_space_exceeds_liftings():
    """The degree-2 identities of the doubled-quaternion triple are not
    all consequences of its degree-1 identities; adding the renaming
    closure of the two five-variable shifting identities fills the gap.
    """
    alg = d2_triple()
    base = identity_space(alg, 1, "general")
    lifted = lifting_span(3, base, "general")
    full = identity_space(alg, 2, "general")
    assert full.solutions.dim == 335
    assert lifted.solutions.dim == 200
    assert full.solutions.contains(lifted.solutions)
    assert not lifted.solutions.contains(full.solutions)

    from itertools import permutations

    from nalg.linalg import RowSpace

    target = full.monomials
    index = {m: pos for pos, m in enumerate(target)}
    space = RowSpace(QQ, len(target))
    for v in lifted.solutions.vectors:
        space.insert(list(v))
    extras = [
        # [[x,y,z],u,v] = [x,y,[z,u,v]]
        [(Monomial(2, 0, (0, 1, 2, 3, 4)), QQ.one),
         (Monomial(2, 2, (2, 3, 4, 0, 1)), -QQ.one)],
        # [[x,y,z],u,v] = [x,[u,z,y],v]
        [(Monomial(2, 0, (0, 1, 2, 3, 4)), QQ.one),
         (Monomial(2, 1, (3, 2, 1, 0, 4)), -QQ.one)],
    ]
    for terms in extras:
        for p in permutations(range(5)):
            row = [QQ.zero] * len(target)
            for m, c in terms:
                pos = index[rename_monomial(m, p)]
                row[pos] = row[pos] + c
            space.insert(row)
    assert space.rank == 335


def test_degree2_space_evaluates_only_sorted_substitutions(monkeypatch):
    """dot_triple(3) has 3^5 = 243 substitutions of five variables and
    C(7, 5) = 21 sorted ones; the space is read off the sorted ones."""
    from nalg import identities

    int_values = identities._int_values
    seen = []

    def counting_int_values(alg, monomials):
        values = int_values(alg, monomials)

        def counted(subst):
            seen.append(subst)
            return values(subst)

        return counted

    monkeypatch.setattr(identities, "_int_values", counting_int_values)
    space = identity_space(dot_triple(QQ, 3), 2, "general")
    assert space.solutions.dim == 350
    assert len(seen) == len(set(seen)) == 21
    assert all(list(s) == sorted(s) for s in seen)
