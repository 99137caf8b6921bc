"""Differential tests of the Leibniz system against a reference scan.

The reference is the pair-by-pair, z-by-z loop that recomputes every
side from the definitions.  Over the whole catalog at small sizes and
over Q, F_2, F_3 and F_5, ``check_dxy_identity`` and ``is_derivation``
must agree with it on the verdict and on every part of the witness.
"""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalg import catalog
from nalg.algebra import Element
from nalg.checks import check_dxy_identity, dxy_sides
from nalg.derivations import derivation_algebra, is_derivation
from nalg.fields import GF, QQ
from nalg.linalg import Matrix

FIELDS = (QQ, GF(2), GF(3), GF(5))


def catalog_cases(field):
    """(name, algebra) for every catalog family the field supports."""
    m1 = field.of(-1)
    for f, g, h in product((False, True), repeat=3):
        yield "vfgh%d%d%d" % (f, g, h), catalog.form_extension(field, 1, f, g, h)
    yield "vfgh2", catalog.form_extension(field, 2, f=True, g=True, h=True)
    yield "dot2", catalog.dot_triple(field, 2)
    yield "dot3", catalog.dot_triple(field, 3)
    yield "spin2", catalog.spin_factor(field, 2)
    yield "raw2", catalog.matrix_triple_raw(field, 2)
    yield "sym2", catalog.sym_matrix(field, 2)
    yield "s1", catalog.s1(field, 2, 1, 2)
    yield "s2", catalog.s2(field, 2, 1, 2)
    yield "cd1", catalog.cd_base(field).algebra
    yield "a1", catalog.filippov_a1(field)
    yield "tca1", catalog.tca1(field)
    if field.char != 2:
        quat = catalog.quaternions(field, m1, m1)
        yield "quat", quat.algebra
        yield "quat3", catalog.conj_triple(quat)
    if field.char == 0:
        # the largest table: over Q only, to keep the module fast
        yield "oct", catalog.octonions(field, m1, m1, m1).algebra
    if field.char not in (2, 3):
        yield "brace", catalog.filippov_brace(field)
    if field.char != 2 and (field.char - 1) % 4 == 0:
        graded = catalog.tkk_grading_a1(field)
        u0, v0 = (Element(v) for v in graded.components[0].vectors)
        yield "graded", graded.algebra
        yield "tkk-J", catalog.tkk_ternary(graded)
        yield "tkk-L-1", catalog.tkk_lminus1(graded, u0, v0)


CASES = [
    pytest.param(alg, id="%s-%r" % (name, field))
    for field in FIELDS
    for name, alg in catalog_cases(field)
]


def reference_sides(alg, op, zt):
    """Both sides of the Leibniz rule for op at the basis tuple zt, by
    contracting basis products with the rows of op."""
    lhs = op.apply(alg.product_of_basis(zt))
    rhs = list(alg.zero_element().coords)
    for s, i in enumerate(zt):
        for k, c in enumerate(op.rows[i]):
            if c != 0:
                part = alg.product_of_basis(zt[:s] + (k,) + zt[s + 1 :])
                for j, v in enumerate(part):
                    rhs[j] = rhs[j] + c * v
    return Element(lhs), Element(tuple(rhs))


def basis_tuples(alg, n):
    if alg.symmetry == "total":
        return list(combinations_with_replacement(range(alg.dim), n))
    return list(product(range(alg.dim), repeat=n))


def reference_derivation_failure(alg, op):
    """First basis tuple where op breaks the Leibniz rule: (z, lhs, rhs)."""
    for zt in basis_tuples(alg, alg.arity):
        lhs, rhs = reference_sides(alg, op, zt)
        if lhs != rhs:
            return tuple(alg.basis_element(i) for i in zt), lhs, rhs
    return None


def reference_dxy(alg):
    """First failing (x, y, z, lhs, rhs) over pairs x < y, or None."""
    tuples = basis_tuples(alg, alg.arity - 1)
    for a in range(len(tuples)):
        for b in range(a + 1, len(tuples)):
            xs = tuple(alg.basis_element(i) for i in tuples[a])
            ys = tuple(alg.basis_element(i) for i in tuples[b])
            d = alg.d_operator(xs, ys)
            if d.is_zero():
                continue
            hit = reference_derivation_failure(alg, d)
            if hit is not None:
                zs, lhs, rhs = hit
                assert dxy_sides(alg, xs, ys, zs) == (lhs, rhs)
                return xs, ys, zs, lhs, rhs
    return None


def assert_derivation_matches(alg, op):
    verdict = is_derivation(alg, op)
    want = reference_derivation_failure(alg, op)
    assert verdict.passed == (want is None)
    if want is not None:
        w = verdict.witness
        assert w.kind == "derivation"
        assert w.data["operator"] == op
        assert (w.data["args"], w.lhs, w.rhs) == want


@pytest.mark.parametrize("alg", CASES)
def test_dxy_matches_reference_scan(alg):
    verdict = check_dxy_identity(alg)
    want = reference_dxy(alg)
    assert verdict.passed == (want is None)
    if want is not None:
        w = verdict.witness
        assert w.kind == "dxy"
        got = (w.data["x"], w.data["y"], w.data["z"], w.lhs, w.rhs)
        assert got == want


@pytest.mark.parametrize("alg", CASES)
def test_derivation_basis_matches_reference_scan(alg):
    der = derivation_algebra(alg)
    for op in der.matrices():
        assert is_derivation(alg, op)
        assert reference_derivation_failure(alg, op) is None


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_drawn_operators_match_reference_scan(data):
    alg = data.draw(st.sampled_from([p.values[0] for p in CASES]))
    d = alg.dim
    # mostly-zero entries, so that some operators pass some tuples
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    rows = [[data.draw(entry) for _ in range(d)] for _ in range(d)]
    assert_derivation_matches(alg, Matrix(alg.field, rows))
