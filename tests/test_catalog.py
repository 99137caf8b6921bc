from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from nalg import catalog, io
from nalg.algebra import NAryAlgebra, algebras_equal
from nalg.checks import (
    check_binary_jordan,
    check_dxy_identity,
    check_total_commutativity,
)
from nalg.fields import GF, QQ, Mod


def product_str(alg, *labels):
    args = [alg.by_label(l) for l in labels]
    return alg.format_element(alg.multiply(*args))


# -- the unit-line extension ----------------------------------------------


def test_form_extension_flagless_table():
    a = catalog.form_extension(QQ, 1)
    assert product_str(a, "1", "1", "1") == "1"
    assert product_str(a, "1", "1", "b1") == "b1"
    assert product_str(a, "1", "b1", "b1") == "0"
    assert product_str(a, "b1", "b1", "b1") == "0"


def test_form_extension_flags_add_their_terms():
    af = catalog.form_extension(QQ, 1, f=True)
    assert product_str(af, "1", "b1", "b1") == "1"
    ag = catalog.form_extension(QQ, 1, g=True)
    assert product_str(ag, "b1", "b1", "b1") == "1"
    ah = catalog.form_extension(QQ, 1, h=True)
    assert product_str(ah, "b1", "b1", "b1") == "3*b1"
    assert product_str(ah, "1", "b1", "b1") == "0"


def test_form_extension_orthogonality():
    a = catalog.form_extension(QQ, 2, f=True, g=True, h=True)
    # distinct vector directions pair to zero under every flag
    assert product_str(a, "1", "b1", "b2") == "0"
    assert product_str(a, "b1", "b1", "b2") == "b2"


def test_form_extension_is_commutative():
    for flags in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        a = catalog.form_extension(GF(3), 2, *map(bool, flags))
        assert check_total_commutativity(a)


def test_form_extension_validation():
    with pytest.raises(ValueError):
        catalog.form_extension(QQ, 0)


# -- dot-product triple ----------------------------------------------------


def test_dot_triple_table():
    a = catalog.dot_triple(QQ, 3)
    assert product_str(a, "b1", "b1", "b1") == "3*b1"
    assert product_str(a, "b1", "b1", "b2") == "b2"
    assert product_str(a, "b1", "b2", "b2") == "b1"
    assert product_str(a, "b1", "b2", "b3") == "0"
    assert check_total_commutativity(a)


def test_dot_triple_validation():
    with pytest.raises(ValueError):
        catalog.dot_triple(QQ, 0)


# -- spin factor -----------------------------------------------------------


def test_spin_factor_table_and_jordan():
    a = catalog.spin_factor(QQ, 2)
    assert product_str(a, "1", "1") == "1"
    assert product_str(a, "1", "b2") == "b2"
    assert product_str(a, "b1", "b1") == "1"
    assert product_str(a, "b1", "b2") == "0"
    assert check_binary_jordan(a)


# -- matrix triples --------------------------------------------------------


def test_matrix_triple_raw_follows_matrix_product():
    a = catalog.matrix_triple_raw(QQ, 2)
    assert product_str(a, "e11", "e12", "e22") == "e12"
    assert product_str(a, "e12", "e21", "e11") == "e11"
    assert product_str(a, "e12", "e11", "e21") == "0"
    assert not check_total_commutativity(a)


def test_sym_matrix_symmetrizes():
    a = catalog.sym_matrix(QQ, 2)
    assert check_total_commutativity(a)
    assert product_str(a, "e11", "e11", "e11") == "6*e11"
    assert product_str(a, "e11", "e11", "e12") == "2*e12"


def test_sym_matrix_2x2_fails_operator_leibniz():
    assert not check_dxy_identity(catalog.sym_matrix(QQ, 2))


def test_s1_table():
    a = catalog.s1(QQ, 2, 1, 2)
    assert a.labels == ("e11", "e12")
    assert product_str(a, "e11", "e11", "e11") == "6*e11"
    assert product_str(a, "e11", "e11", "e12") == "2*e12"
    assert product_str(a, "e11", "e12", "e12") == "0"
    assert product_str(a, "e12", "e12", "e12") == "0"
    assert check_dxy_identity(a)


def test_s2_table():
    a = catalog.s2(QQ, 2, 1, 2)
    assert a.labels == ("e12", "e21")
    assert product_str(a, "e12", "e12", "e12") == "0"
    assert product_str(a, "e12", "e12", "e21") == "2*e12"
    assert product_str(a, "e12", "e21", "e21") == "2*e21"
    assert product_str(a, "e21", "e21", "e21") == "0"
    assert check_dxy_identity(a)


def test_sym_matrix_sub_validation():
    with pytest.raises(ValueError):
        catalog.s1(QQ, 2, 1, 1)
    with pytest.raises(ValueError):
        catalog.s2(QQ, 2, 0, 2)


# -- doubling tower --------------------------------------------------------


def test_cd_base():
    base = catalog.cd_base(QQ)
    assert base.algebra.dim == 1
    assert base.conj(base.unit) == base.unit
    assert catalog.norm(base, base.unit) == 1


def test_quaternion_multiplication_table():
    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    alg = q.algebra
    assert alg.labels == ("1", "a", "b", "ab")

    def mul(x, y):
        return alg.format_element(alg.multiply(alg.by_label(x), alg.by_label(y)))

    assert mul("a", "a") == "-1"
    assert mul("b", "b") == "-1"
    assert mul("ab", "ab") == "-1"
    assert mul("a", "b") == "ab"
    assert mul("b", "a") == "-ab"
    assert mul("a", "ab") == "-b"
    assert mul("ab", "a") == "b"
    assert mul("b", "ab") == "a"
    assert mul("ab", "b") == "-a"


def test_doubling_verifies_itself():
    for params in ((QQ.of(-1), QQ.of(-1)), (QQ.of(2), QQ.of(3))):
        catalog.quaternions(QQ, *params).verify()
    catalog.octonions(GF(5), GF(5).of(-1), GF(5).of(-1), GF(5).of(-1)).verify()


def test_doubling_char2_guard():
    with pytest.raises(ValueError):
        catalog.quaternions(GF(2), GF(2).one, GF(2).one)


def test_involution_verify_catches_breakage():
    from nalg.catalog import InvolutiveAlgebra
    from nalg.linalg import Matrix

    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    broken = InvolutiveAlgebra(
        q.algebra, q.unit, Matrix.identity(QQ, 4), q.level
    )
    with pytest.raises(ValueError):
        broken.verify()


def test_norm_trace_form():
    q = catalog.quaternions(QQ, QQ.of(2), QQ.of(3))
    alg = q.algebra
    vals = {"1": 1, "a": -2, "b": -3, "ab": 6}
    for lbl, n in vals.items():
        assert catalog.norm(q, alg.by_label(lbl)) == n
    assert catalog.trace(q, alg.by_label("1")) == 2
    assert catalog.trace(q, alg.by_label("a")) == 0
    a, b = alg.by_label("a"), alg.by_label("b")
    assert catalog.form(q, a, b) == 0
    assert catalog.form(q, a, a) == catalog.norm(q, a)
    assert catalog.doubled_norm(q, a, b) == 0
    assert catalog.doubled_norm(q, a, a) == 2 * catalog.norm(q, a)


def test_norm_off_unit_line_rejected():
    # a norm query only makes sense when x conj(x) lands on the unit line,
    # which the doubling guarantees; a fake involution breaks it
    from nalg.catalog import InvolutiveAlgebra
    from nalg.linalg import Matrix

    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    fake = InvolutiveAlgebra(q.algebra, q.unit, Matrix.identity(QQ, 4), q.level)
    with pytest.raises(ValueError):
        catalog.trace(fake, q.algebra.by_label("a") + q.unit)


def test_skew_part():
    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    sk = catalog.skew_part(q)
    assert sk.dim == 3
    for lbl in ("a", "b", "ab"):
        assert sk.contains_vector(q.algebra.by_label(lbl).coords)
    assert not sk.contains_vector(q.unit.coords)


def test_composition_check_passes_quaternions_and_octonions():
    for params in ((-1, -1), (1, -1), (2, 3)):
        q = catalog.quaternions(QQ, *(QQ.of(c) for c in params))
        assert catalog.composition_check(q)
    o = catalog.octonions(QQ, QQ.of(-1), QQ.of(-1), QQ.of(-1))
    assert catalog.composition_check(o)


def test_composition_check_fails_after_four_doublings():
    o = catalog.octonions(QQ, QQ.of(-1), QQ.of(-1), QQ.of(-1))
    sed = catalog.cd_double(o, QQ.of(-1))
    v = catalog.composition_check(sed)
    assert not v
    assert v.witness.kind == "composition"
    assert v.witness.data["property"] == 2


def test_conj_triple_matches_definition():
    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    t = catalog.conj_triple(q)
    alg = q.algebra
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want = alg.multiply(
                    alg.multiply(
                        alg.basis_element(i), q.conj(alg.basis_element(j))
                    ),
                    alg.basis_element(k),
                )
                assert t.product_of_basis((i, j, k)) == want.coords


def test_conj_triple_quaternions_satisfies_leibniz():
    q = catalog.quaternions(QQ, QQ.of(-1), QQ.of(-1))
    assert check_dxy_identity(catalog.conj_triple(q))


# -- alternating four-dimensional algebra ----------------------------------


def test_filippov_a1_table():
    a = catalog.filippov_a1(QQ)
    assert product_str(a, "e2", "e3", "e4") == "-e1"
    assert product_str(a, "e1", "e3", "e4") == "e2"
    assert product_str(a, "e1", "e2", "e4") == "-e3"
    assert product_str(a, "e1", "e2", "e3") == "e4"


def test_filippov_a1_alternating():
    a = catalog.filippov_a1(GF(7))
    from itertools import product as iproduct

    for i, j, k in iproduct(range(4), repeat=3):
        v = a.product_of_basis((i, j, k))
        w = a.product_of_basis((j, i, k))
        assert tuple(x + y for x, y in zip(v, w)) == a._zero_vec
        if len({i, j, k}) < 3:
            assert v == a._zero_vec


def test_filippov_brace_table():
    b = catalog.filippov_brace(QQ)
    assert b.product_of_basis((0, 1, 1)) == (
        Fraction(-1, 6),
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


def test_filippov_brace_char_guard():
    for p in (2, 3):
        with pytest.raises(ValueError):
            catalog.filippov_brace(GF(p))


# -- graded basis and the reconstructed products ---------------------------


def test_tkk_grading_components():
    g = catalog.tkk_grading_a1(GF(5))
    assert g.algebra.labels == ("a-1", "a", "b", "a1")
    assert [g.component(k).dim for k in (-1, 0, 1)] == [1, 2, 1]
    alg = g.algebra
    am1, a, b, a1 = (alg.basis_element(k) for k in range(4))
    assert alg.multiply(a, am1, a1) == b.scale(GF(5).of(-2))
    assert alg.multiply(b, am1, a1) == a.scale(GF(5).of(-2))


def test_tkk_grading_field_guards():
    with pytest.raises(ValueError):
        catalog.tkk_grading_a1(QQ)  # no square root of -1
    with pytest.raises(ValueError):
        catalog.tkk_grading_a1(GF(7))  # p = 3 mod 4
    with pytest.raises(ValueError):
        catalog.tkk_grading_a1(GF(2))


def test_tkk_ternary_reproduces_two_dim_table():
    for p in (5, 13):
        g = catalog.tkk_grading_a1(GF(p))
        assert algebras_equal(catalog.tkk_ternary(g), catalog.tca1(GF(p)))


def test_tkk_ternary_component_guard():
    g = catalog.tkk_grading_a1(GF(5))
    with pytest.raises(ValueError):
        catalog.tkk_ternary(g, um1=g.algebra.basis_element(1))


def test_tkk_lminus1_shape():
    g = catalog.tkk_grading_a1(GF(5))
    alg = g.algebra
    half = GF(5).one / GF(5).of(2)
    u0 = alg.basis_element(1).scale(half)
    v0 = alg.basis_element(2).scale(GF(5).of(2))
    low = catalog.tkk_lminus1(g, u0, v0)
    assert low.dim == 1
    assert low.labels == ("a-1",)


def test_tca1_table():
    t = catalog.tca1(QQ)
    assert product_str(t, "a", "a", "a") == "6*b"
    assert product_str(t, "a", "a", "b") == "2*a"
    assert product_str(t, "a", "b", "b") == "-2*b"
    assert product_str(t, "b", "b", "b") == "-6*a"
    assert check_total_commutativity(t)


# -- the integer formulas against their boxed references -------------------
#
# The constructors write their tables as plain ints (sixths in the brace),
# and the field enters in ``NAryAlgebra.build``.  The ``ref_*`` functions
# below evaluate the same formulas on field scalars, as the catalog did
# before, and must give the same algebras to the byte.


def ref_form_extension(field, dim_v, f=False, g=False, h=False):
    d = dim_v + 1
    labels = ["1"] + ["b%d" % (i + 1) for i in range(dim_v)]

    def delta2(u, v):
        acc = field.zero
        for x, y in zip(u, v):
            acc = acc + x * y
        return acc

    def delta3(u, v, w):
        acc = field.zero
        for x, y, z in zip(u, v, w):
            acc = acc + x * y * z
        return acc

    def split(i):
        if i == 0:
            return field.one, tuple([field.zero] * dim_v)
        vec = [field.zero] * dim_v
        vec[i - 1] = field.one
        return field.zero, tuple(vec)

    entries = {}
    for idx in product(range(d), repeat=3):
        (a1, v1), (a2, v2), (a3, v3) = (split(i) for i in idx)
        scalar = a1 * a2 * a3
        if f:
            scalar = scalar + a1 * delta2(v2, v3) + a2 * delta2(v1, v3)
            scalar = scalar + a3 * delta2(v1, v2)
        if g:
            scalar = scalar + delta3(v1, v2, v3)
        coeffs = [
            a2 * a3 + (delta2(v2, v3) if h else field.zero),
            a1 * a3 + (delta2(v1, v3) if h else field.zero),
            a1 * a2 + (delta2(v1, v2) if h else field.zero),
        ]
        vec = [scalar] + [field.zero] * dim_v
        for c, v in zip(coeffs, (v1, v2, v3)):
            if c != 0:
                for k in range(dim_v):
                    vec[1 + k] = vec[1 + k] + c * v[k]
        if any(c != 0 for c in vec):
            entries[idx] = tuple(vec)
    return NAryAlgebra.build(field, 3, d, entries, labels=labels, symmetry="total")


def ref_dot_triple(field, dim):
    entries = {}
    for i, j, k in product(range(dim), repeat=3):
        vec = [field.zero] * dim
        if j == k:
            vec[i] = vec[i] + field.one
        if i == k:
            vec[j] = vec[j] + field.one
        if i == j:
            vec[k] = vec[k] + field.one
        if any(c != 0 for c in vec):
            entries[(i, j, k)] = tuple(vec)
    return NAryAlgebra.build(field, 3, dim, entries, symmetry="total")


def ref_spin_factor(field, dim_v):
    d = dim_v + 1
    labels = ["1"] + ["b%d" % (i + 1) for i in range(dim_v)]
    entries = {}
    for i, j in product(range(d), repeat=2):
        vec = [field.zero] * d
        if i == 0 and j == 0:
            vec[0] = field.one
        elif i == 0:
            vec[j] = field.one
        elif j == 0:
            vec[i] = field.one
        elif i == j:
            vec[0] = field.one
        entries[(i, j)] = tuple(vec)
    return NAryAlgebra.build(field, 2, d, entries, labels=labels, symmetry="total")


def ref_matrix_triple_raw(field, n):
    labels = ["e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    entries = {}
    for (a, b), (c, e), (f, g) in product(product(range(n), repeat=2), repeat=3):
        if b == c and e == f:
            entries[(a * n + b, c * n + e, f * n + g)] = {a * n + g: field.one}
    return NAryAlgebra.build(field, 3, n * n, entries, labels=labels)


def ref_sym_matrix(field, n):
    return ref_matrix_triple_raw(field, n).symmetrize()


def ref_filippov_a1(field):
    entries = {}
    for rest in combinations(range(4), 3):
        missing = next(i for i in range(4) if i not in rest)
        sign = field.of((-1) ** (missing + 1))
        for p in permutations(rest):
            entries[p] = {missing: sign * catalog._parity(p, rest)}
    return NAryAlgebra.build(field, 3, 4, entries, labels=["e1", "e2", "e3", "e4"])


def ref_filippov_brace(field):
    a1 = ref_filippov_a1(field)
    sixth = field.one / field.of(6)
    entries = {}
    for i, j, k in product(range(4), repeat=3):
        vec = list(a1.product_of_basis((i, j, k)))
        if j == k:
            vec[i] = vec[i] - field.one
        if i == k:
            vec[j] = vec[j] + field.one
        if i == j:
            vec[k] = vec[k] - field.one
        vec = [sixth * c for c in vec]
        if any(c != 0 for c in vec):
            entries[(i, j, k)] = tuple(vec)
    return NAryAlgebra.build(field, 3, 4, entries, labels=a1.labels)


DIFF_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7), GF(13)]


def _integer_cases():
    """(id, name, args) of every integer constructor call of the grid."""
    for field in DIFF_FIELDS:
        for dim_v in range(1, 5):
            for flags in product((False, True), repeat=3):
                tag = "".join(c for c, on in zip("fgh", flags) if on) or "-"
                yield "%r-fx-%d-%s" % (field, dim_v, tag), "form_extension", (
                    field, dim_v, *flags)
        for dim in range(1, 9):
            yield "%r-dot-%d" % (field, dim), "dot_triple", (field, dim)
        for dim_v in range(1, 5):
            yield "%r-spin-%d" % (field, dim_v), "spin_factor", (field, dim_v)
        for n in (2, 3):
            yield "%r-raw-%d" % (field, n), "matrix_triple_raw", (field, n)
            yield "%r-sym-%d" % (field, n), "sym_matrix", (field, n)
        yield "%r-a1" % field, "filippov_a1", (field,)
        if field.char not in (2, 3):
            yield "%r-brace" % field, "filippov_brace", (field,)


INTEGER_CASES = list(_integer_cases())


@pytest.mark.parametrize(
    "name,args", [c[1:] for c in INTEGER_CASES], ids=[c[0] for c in INTEGER_CASES]
)
def test_integer_constructors_match_boxed_references(name, args):
    got = getattr(catalog, name)(*args)
    ref = globals()["ref_" + name](*args)
    assert got.int_table() == ref.int_table()
    assert got.labels == ref.labels
    assert got.symmetry == ref.symmetry
    assert io.dumps(got) == io.dumps(ref)


def _no_boxing_cases():
    for field in (QQ, GF(2), GF(3), GF(13)):
        yield field, "form_extension", (2, True, True, True)
        yield field, "form_extension", (3, False, True, False)
        yield field, "dot_triple", (4,)
        yield field, "spin_factor", (3,)
        yield field, "matrix_triple_raw", (2,)
        yield field, "filippov_a1", ()
        if field.char not in (2, 3):
            yield field, "filippov_brace", ()


NO_BOXING_CASES = list(_no_boxing_cases())


@pytest.mark.parametrize(
    "field,name,params",
    NO_BOXING_CASES,
    ids=["%r-%s-%s" % (f, n, "-".join(map(str, ps))) for f, n, ps in NO_BOXING_CASES],
)
def test_integer_constructors_box_nothing_before_build(monkeypatch, field, name, params):
    """The tables reach ``build`` as plain ints, the brace's sixths as
    Fractions: no ``Mod`` and no ``Fraction`` is made outside ``build``,
    and no table entry is a bool."""
    inside = [0]
    made = {"Mod": 0, "Fraction": 0}
    tables = []
    build = NAryAlgebra.__dict__["build"].__func__
    mod_init = Mod.__init__
    fraction_new = Fraction.__new__

    def counted_build(cls, *args, **kwargs):
        tables.append(args[3])
        inside[0] += 1
        try:
            return build(cls, *args, **kwargs)
        finally:
            inside[0] -= 1

    def counted_mod_init(self, r, p):
        if not inside[0]:
            made["Mod"] += 1
        mod_init(self, r, p)

    def counted_fraction_new(cls, *args, **kwargs):
        if not inside[0]:
            made["Fraction"] += 1
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(NAryAlgebra, "build", classmethod(counted_build))
    monkeypatch.setattr(Mod, "__init__", counted_mod_init)
    monkeypatch.setattr(Fraction, "__new__", counted_fraction_new)
    getattr(catalog, name)(field, *params)
    monkeypatch.undo()

    sixths = name == "filippov_brace"
    assert made["Mod"] == 0
    assert (made["Fraction"] > 0) if sixths else (made["Fraction"] == 0)
    scalar = Fraction if sixths else int
    assert tables
    for entries in tables:
        for value in entries.values():
            coeffs = value.values() if isinstance(value, dict) else value
            assert all(type(c) in (int, scalar) for c in coeffs)
