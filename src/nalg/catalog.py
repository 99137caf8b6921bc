"""Constructors for the reference algebras exercised by the test suite.

All products are entered through explicit multilinear formulas evaluated
on basis elements, never as hand-copied tables, so a typo in a formula
shows up as a failed invariant instead of a silently wrong constant.
Bilinear and trilinear forms are the Kronecker-delta ones throughout.

The formula constructors write their tables as plain ints, and the one
denominator, the 1/6 of the brace, as exact Fractions: the field enters
once, in :meth:`nalg.algebra.NAryAlgebra.build`, which reads each entry
straight into the algebra's int view.  The derived constructions (the
doubling tower, its conjugation triples, the graded reconstructions and
the subalgebras of the symmetrized matrix triple) compute with the
products of the algebras they start from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .algebra import Element, NAryAlgebra
from .checks import Verdict, Witness
from .linalg import Matrix, SubspaceBasis
from .structure import induced_algebra, subalgebra_closure

_GENERATOR_LETTERS = "abcdefgh"


# -- the unit-line plus form algebras --------------------------------------


def form_extension(field, dim_v, f=False, g=False, h=False):
    """Ternary algebra on a unit line plus a dim_v-dimensional space.

    An element is a pair (alpha, v).  The product of three of them has
    scalar part  a1*a2*a3  [+ f-terms a_i * <v_j, v_k>]  [+ g-term
    <v1, v2, v3>], and vector part  (a2*a3 [+ <v2,v3>]) v1 + cyclic,
    with Kronecker-delta forms and each bracketed block switched by the
    corresponding flag.
    """
    if dim_v < 1:
        raise ValueError("the vector part must be at least one-dimensional")
    d = dim_v + 1
    labels = ["1"] + ["b%d" % (i + 1) for i in range(dim_v)]
    entries = {}
    for idx in product(range(d), repeat=3):
        # basis element 0 is (1, 0), basis element i > 0 is (0, b_i)
        vec = [int(idx == (0, 0, 0))] + [0] * dim_v
        if g and idx[0] == idx[1] == idx[2] != 0:
            vec[0] += 1
        for t in range(3):
            i, j, k = idx[t], idx[t - 1], idx[t - 2]
            pair = int(j == k != 0)  # <v_j, v_k>
            if i == 0:
                if f:
                    vec[0] += pair
            else:
                vec[i] += int(j == k == 0) + (pair if h else 0)
        if any(vec):
            entries[idx] = vec
    return NAryAlgebra.build(
        field, 3, d, entries, labels=labels, symmetry="total"
    )


def dot_triple(field, dim):
    """Ternary product <y,z> x + <x,z> y + <x,y> z on F^dim."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    entries = {}
    for idx in product(range(dim), repeat=3):
        vec = [0] * dim
        for t in range(3):
            # <x_j, x_k> x_i for each slot i and the other two j, k
            vec[idx[t]] += int(idx[t - 1] == idx[t - 2])
        if any(vec):
            entries[idx] = vec
    return NAryAlgebra.build(field, 3, dim, entries, symmetry="total")


def spin_factor(field, dim_v):
    """Binary Jordan algebra of a symmetric form: unit line plus a
    space where  b_i b_j = delta_ij * 1."""
    if dim_v < 1:
        raise ValueError("the vector part must be at least one-dimensional")
    d = dim_v + 1
    labels = ["1"] + ["b%d" % (i + 1) for i in range(dim_v)]
    entries = {
        (i, j): {i + j: 1} if i == 0 or j == 0 else {0: int(i == j)}
        for i, j in product(range(d), repeat=2)
    }
    return NAryAlgebra.build(
        field, 2, d, entries, labels=labels, symmetry="total"
    )


# -- matrix triple products ------------------------------------------------


def matrix_triple_raw(field, n):
    """The associative triple product (A, B, C) |-> ABC on n x n matrix
    units; the symmetrized version is built from this one."""
    if n < 2:
        raise ValueError("matrix size must be at least 2")
    labels = ["e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    entries = {
        (a * n + b, b * n + c, c * n + e): {a * n + e: 1}
        for a, b, c, e in product(range(n), repeat=4)
    }
    return NAryAlgebra.build(field, 3, n * n, entries, labels=labels)


def sym_matrix(field, n):
    """Sum of ABC over all six argument orders, on n x n matrices."""
    return matrix_triple_raw(field, n).symmetrize()


def _sym_matrix_sub(field, n, i, j, seeds):
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError("need two distinct indices in 1..%d" % n)
    big = sym_matrix(field, n)
    gens = [big.by_label(lbl) for lbl in seeds]
    _, induced = subalgebra_closure(big, gens)
    return induced


def s1(field, n, i, j):
    """Two-dimensional subalgebra of sym_matrix spanned by e_ii, e_ij."""
    return _sym_matrix_sub(
        field, n, i, j, ["e%d%d" % (i, i), "e%d%d" % (i, j)]
    )


def s2(field, n, i, j):
    """Two-dimensional subalgebra of sym_matrix spanned by e_ij, e_ji."""
    return _sym_matrix_sub(
        field, n, i, j, ["e%d%d" % (i, j), "e%d%d" % (j, i)]
    )


# -- doubling tower --------------------------------------------------------


@dataclass(frozen=True)
class InvolutiveAlgebra:
    """A binary algebra with a unit and an involution, produced by the
    doubling construction."""

    algebra: NAryAlgebra
    unit: Element
    involution: Matrix
    level: int

    def multiply(self, x, y):
        return self.algebra.multiply(x, y)

    def conj(self, x):
        return Element(self.involution.apply(x.coords))

    def verify(self):
        alg = self.algebra
        d = alg.dim
        ident = Matrix.identity(alg.field, d)
        if self.involution @ self.involution != ident:
            raise ValueError("involution does not square to the identity")
        if self.conj(self.unit) != self.unit:
            raise ValueError("involution moves the unit")
        unit_line = SubspaceBasis.from_vectors(alg.field, d, [self.unit.coords])
        for i in range(d):
            x = alg.basis_element(i)
            if alg.multiply(self.unit, x) != x or alg.multiply(x, self.unit) != x:
                raise ValueError("unit is not a two-sided identity")
            if not unit_line.contains_vector((x + self.conj(x)).coords):
                raise ValueError("trace left the unit line")
            if not unit_line.contains_vector(
                alg.multiply(x, self.conj(x)).coords
            ):
                raise ValueError("norm left the unit line")
            for j in range(d):
                y = alg.basis_element(j)
                lhs = self.conj(alg.multiply(x, y))
                rhs = alg.multiply(self.conj(y), self.conj(x))
                if lhs != rhs:
                    raise ValueError("involution is not an anti-automorphism")


def cd_base(field):
    """The ground field as a one-dimensional involutive algebra."""
    alg = NAryAlgebra.build(
        field, 2, 1, {(0, 0): {0: 1}}, labels=["1"], symmetry="total"
    )
    out = InvolutiveAlgebra(
        alg, alg.basis_element(0), Matrix.identity(field, 1), 0
    )
    out.verify()
    return out


def _doubled_label(old, letter):
    if old == "1":
        return letter
    if len(old) == 1:
        return old + letter
    return "(%s)%s" % (old, letter)


def cd_double(invol, a):
    """One doubling step: pairs (x1, x2) with product
    (x1, x2)(y1, y2) = (x1 y1 + a y2 conj(x2), conj(x1) y2 + y1 x2)
    and involution (x1, x2) |-> (conj(x1), -x2).

    The second copy is spanned by (0, conj(g)) for g in the old basis,
    which is the product g u of g with the adjoined unit u = (0, 1), so
    a label like ab really names the product of the generators."""
    old = invol.algebra
    field = old.field
    a = field.of(a)
    if a == 0:
        raise ValueError("the doubling parameter must be nonzero")
    if invol.level >= len(_GENERATOR_LETTERS):
        raise ValueError("doubling tower too tall")
    letter = _GENERATOR_LETTERS[invol.level]
    d = old.dim
    labels = list(old.labels) + [
        _doubled_label(lbl, letter) for lbl in old.labels
    ]

    def embed(vec, half):
        out = [field.zero] * (2 * d)
        for k, c in enumerate(vec):
            out[half * d + k] = c
        return out

    entries = {}
    for p, q in product(range(2 * d), repeat=2):
        hp, ip = divmod(p, d)
        hq, iq = divmod(q, d)
        x = old.basis_element(ip)
        y = old.basis_element(iq)
        if hp == 0 and hq == 0:
            vec = embed(old.multiply(x, y).coords, 0)
        elif hp == 0 and hq == 1:
            vec = embed(old.multiply(y, x).coords, 1)
        elif hp == 1 and hq == 0:
            vec = embed(old.multiply(x, invol.conj(y)).coords, 1)
        else:
            vec = embed(old.multiply(invol.conj(y), x).scale(a).coords, 0)
        if any(c != 0 for c in vec):
            entries[(p, q)] = tuple(vec)
    alg = NAryAlgebra.build(field, 2, 2 * d, entries, labels=labels)

    inv_rows = []
    for p in range(2 * d):
        hp, ip = divmod(p, d)
        if hp == 0:
            inv_rows.append(
                embed(invol.conj(old.basis_element(ip)).coords, 0)
            )
        else:
            inv_rows.append(
                embed((-old.basis_element(ip)).coords, 1)
            )
    out = InvolutiveAlgebra(
        alg,
        alg.element(embed(invol.unit.coords, 0)),
        Matrix(field, inv_rows),
        invol.level + 1,
    )
    out.verify()
    return out


def quaternions(field, a, b):
    """Two doubling steps over the ground field."""
    if field.char == 2:
        raise ValueError("doubling needs characteristic different from 2")
    return cd_double(cd_double(cd_base(field), a), b)


def octonions(field, a, b, c):
    """Three doubling steps over the ground field."""
    if field.char == 2:
        raise ValueError("doubling needs characteristic different from 2")
    return cd_double(quaternions(field, a, b), c)


def norm(invol, x):
    """Coefficient of x * conj(x) on the unit; errors if the product
    leaves the unit line."""
    p = invol.multiply(x, invol.conj(x))
    return _unit_coefficient(invol, p, "norm")


def trace(invol, x):
    """Coefficient of x + conj(x) on the unit."""
    return _unit_coefficient(invol, x + invol.conj(x), "trace")


def _unit_coefficient(invol, el, what):
    u = invol.unit.coords
    k0 = next(k for k, c in enumerate(u) if c != 0)
    lam = el.coords[k0] / u[k0]
    if invol.unit.scale(lam) != el:
        raise ValueError("%s value left the unit line" % what)
    return lam


def form(invol, x, y):
    """Polarization (n(x+y) - n(x) - n(y)) / 2 of the norm."""
    if invol.algebra.field.char == 2:
        raise ValueError("polarized form needs characteristic != 2")
    two = invol.algebra.field.of(2)
    return (norm(invol, x + y) - norm(invol, x) - norm(invol, y)) / two


def doubled_norm(invol, x, y):
    """n(x+y) - n(x) - n(y), defined over every field."""
    return norm(invol, x + y) - norm(invol, x) - norm(invol, y)


def skew_part(invol):
    """Elements with conj(x) = -x, the kernel of x |-> x + conj(x)."""
    alg = invol.algebra
    m = Matrix.identity(alg.field, alg.dim) + invol.involution
    return m.transpose().nullspace()


def composition_check(invol):
    """The six composition-algebra laws used by the conjugation triple
    product.  (1)-(3) are scanned on all basis pairs and triples; the
    anticommutation laws (4)-(6) only hold on pairwise-distinct basis
    elements of norm one, so the scan restricts to those.  Products are
    associated left-to-right where the law leaves a choice.
    """
    alg = invol.algebra
    m = invol.multiply
    c = invol.conj
    basis = alg.basis()

    def fail(prop, args, lhs, rhs):
        data = {"property": prop, "args": tuple(args)}
        return Verdict(False, Witness("composition", data, lhs, rhs))

    for x in basis:
        nx = norm(invol, x)
        for y in basis:
            exprs = [
                m(m(x, c(x)), y),
                m(x, m(c(x), y)),
                y.scale(nx),
                m(m(y, c(x)), x),
                m(y, m(c(x), x)),
            ]
            for e in exprs[1:]:
                if e != exprs[0]:
                    return fail(1, (x, y), exprs[0], e)

    for x in basis:
        for y in basis:
            for z in basis:
                t = doubled_norm(invol, y, z)
                lhs = m(m(x, c(y)), z) + m(m(x, c(z)), y)
                if lhs != x.scale(t):
                    return fail(2, (x, y, z), lhs, x.scale(t))
                t = doubled_norm(invol, x, y)
                lhs = m(x, m(c(y), z)) + m(y, m(c(x), z))
                if lhs != z.scale(t):
                    return fail(3, (x, y, z), lhs, z.scale(t))

    unital = [x for x in basis if norm(invol, x) == alg.field.one]
    for x in unital:
        for y in unital:
            if x == y:
                continue
            lhs = m(m(c(x), y), c(x))
            rhs = -c(y)
            if lhs != rhs:
                return fail(4, (x, y), lhs, rhs)
    for x in unital:
        for y in unital:
            for z in unital:
                if x == y or x == z or y == z:
                    continue
                lhs = m(m(x, c(y)), z)
                rhs = -m(m(x, c(z)), y)
                if lhs != rhs:
                    return fail(5, (x, y, z), lhs, rhs)
                lhs = m(x, m(c(y), z))
                rhs = -m(y, m(c(x), z))
                if lhs != rhs:
                    return fail(6, (x, y, z), lhs, rhs)
    return Verdict(True)


def conj_triple(invol):
    """Ternary product (x conj(y)) z on an involutive algebra."""
    alg = invol.algebra
    d = alg.dim
    entries = {}
    for i, j, k in product(range(d), repeat=3):
        w = alg.multiply(
            alg.multiply(
                alg.basis_element(i), invol.conj(alg.basis_element(j))
            ),
            alg.basis_element(k),
        )
        if not w.is_zero():
            entries[(i, j, k)] = w.coords
    return NAryAlgebra.build(
        alg.field, 3, d, entries, labels=alg.labels
    )


# -- the four-dimensional alternating algebra and its gradings -------------


def filippov_a1(field):
    """Alternating ternary product on F^4: dropping the i-th basis vector
    from (e1, e2, e3, e4) multiplies to (-1)^i e_i (1-based sign)."""
    entries = {}
    for rest in combinations(range(4), 3):
        missing = next(i for i in range(4) if i not in rest)
        sign = (-1) ** (missing + 1)
        for p in permutations(rest):
            entries[p] = {missing: sign * _parity(p, rest)}
    return NAryAlgebra.build(
        field, 3, 4, entries, labels=["e1", "e2", "e3", "e4"]
    )


def _parity(p, sorted_ref):
    perm = [sorted_ref.index(x) for x in p]
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def filippov_brace(field):
    """Ternary brace (1/6)(-<y,z>x + <x,z>y - <x,y>z + [x,y,z]) built
    from the alternating product; needs characteristic not 2 or 3."""
    if field.char in (2, 3):
        raise ValueError("the brace needs characteristic not in {2, 3}")
    a1 = filippov_a1(field)
    bracket = a1.int_table()[1]  # den 1: the bracket's entries are +-1
    entries = {}
    for idx in product(range(4), repeat=3):
        i, j, k = idx
        vec = [0] * 4
        for m, c in bracket.get(idx, ()):
            vec[m] = c
        vec[i] -= int(j == k)
        vec[j] += int(i == k)
        vec[k] -= int(i == j)
        if any(vec):
            entries[idx] = [Fraction(c, 6) for c in vec]
    return NAryAlgebra.build(field, 3, 4, entries, labels=a1.labels)


@dataclass(frozen=True)
class GradedTernary:
    """A ternary algebra with a three-part grading; component indices
    -1, 0, 1 add modulo 3 back into {-1, 0, 1}."""

    algebra: NAryAlgebra
    components: dict
    grades: tuple

    def component(self, g):
        return self.components[g]


def _mod3_grade(s):
    return ((s + 1) % 3) - 1


def tkk_grading_a1(field):
    """The alternating algebra in the graded basis
    (a_-1, a, b, a_1) = (e3 - i e4, (i/2) e1, (1/2) e2, e3 + i e4),
    with components L_-1 = <a_-1>, L_0 = <a, b>, L_1 = <a_1>.

    Needs a square root of -1 and characteristic != 2; the grading and
    the products [a, a_-1, a_1] = -2b, [b, a_-1, a_1] = -2a are verified
    before returning.
    """
    if field.char == 2:
        raise ValueError("the graded basis needs characteristic != 2")
    i = field.sqrt_minus_one
    if i is None:
        raise ValueError("the graded basis needs a square root of -1")
    a1 = filippov_a1(field)
    half = field.one / field.of(2)
    z = field.zero
    rows = [
        (z, z, field.one, -i),
        (i * half, z, z, z),
        (z, half, z, z),
        (z, z, field.one, i),
    ]
    basis_change = Matrix(field, rows)
    inv = basis_change.inverse()
    labels = ("a-1", "a", "b", "a1")
    grades = (-1, 0, 0, 1)
    entries = {}
    for idx in product(range(4), repeat=3):
        args = [Element(basis_change.rows[t]) for t in idx]
        w = a1.multiply(*args)
        vec = inv.apply(w.coords)
        if any(c != 0 for c in vec):
            entries[idx] = vec
    alg = NAryAlgebra.build(field, 3, 4, entries, labels=labels)
    components = {
        -1: SubspaceBasis.from_vectors(field, 4, [alg.basis_element(0).coords]),
        0: SubspaceBasis.from_vectors(
            field, 4, [alg.basis_element(1).coords, alg.basis_element(2).coords]
        ),
        1: SubspaceBasis.from_vectors(field, 4, [alg.basis_element(3).coords]),
    }
    graded = GradedTernary(alg, components, grades)
    _verify_grading(graded)
    am1, a, b, ap1 = (alg.basis_element(k) for k in range(4))
    minus_two = field.of(-2)
    if alg.multiply(a, am1, ap1) != b.scale(minus_two):
        raise ValueError("graded product [a, a_-1, a_1] is off")
    if alg.multiply(b, am1, ap1) != a.scale(minus_two):
        raise ValueError("graded product [b, a_-1, a_1] is off")
    return graded


def _verify_grading(graded):
    alg = graded.algebra
    for idx in product(range(alg.dim), repeat=3):
        target = _mod3_grade(sum(graded.grades[t] for t in idx))
        vec = alg.product_of_basis(idx)
        if not graded.components[target].contains_vector(vec):
            raise ValueError("product left its graded component at %r" % (idx,))


def _check_component(graded, el, g, who):
    if not graded.components[g].contains_vector(el.coords):
        raise ValueError("%s must lie in the %d component" % (who, g))


def tkk_ternary(graded, um1=None, vm1=None, u1=None, v1=None):
    """Symmetrized triple product on the middle component:
    sum over permutations of (x, y, z) of
    [[[u_-1, x, u_1], y, v_-1], z, v_1]."""
    bm1 = _component_basis_elements(graded, -1)
    b1 = _component_basis_elements(graded, 1)
    um1 = bm1[0] if um1 is None else um1
    vm1 = bm1[0] if vm1 is None else vm1
    u1 = b1[0] if u1 is None else u1
    v1 = b1[0] if v1 is None else v1
    _check_component(graded, um1, -1, "u_-1")
    _check_component(graded, vm1, -1, "v_-1")
    _check_component(graded, u1, 1, "u_1")
    _check_component(graded, v1, 1, "v_1")
    return _tkk_symmetrized(graded, 0, (um1, u1, vm1, v1))


def tkk_lminus1(graded, u0, v0, u1=None, v1=None):
    """Symmetrized triple product on the lowest component:
    sum over permutations of (x, y, z) of
    [[[u_0, x, u_1], y, v_1], z, v_0]."""
    b1 = _component_basis_elements(graded, 1)
    u1 = b1[0] if u1 is None else u1
    v1 = b1[0] if v1 is None else v1
    _check_component(graded, u0, 0, "u_0")
    _check_component(graded, v0, 0, "v_0")
    _check_component(graded, u1, 1, "u_1")
    _check_component(graded, v1, 1, "v_1")
    return _tkk_symmetrized(graded, -1, (u0, u1, v1, v0))


def _tkk_symmetrized(graded, g, fixed):
    """Totally commutative ternary algebra on component ``g``: sum over
    permutations of (x, y, z) of [[[a, x, b], y, c], z, e], where
    ``fixed`` = (a, b, c, e)."""
    alg = graded.algebra
    a, b, c, e = fixed
    comp = _component_basis_elements(graded, g)

    def value(idx):
        acc = alg.zero_element()
        for x, y, z in permutations([comp[t] for t in idx]):
            step = alg.multiply(a, x, b)
            step = alg.multiply(step, y, c)
            step = alg.multiply(step, z, e)
            acc = acc + step
        return acc.coords

    return induced_algebra(
        alg, graded.components[g], value, "total", lambda k: "g%d" % k
    )


def _component_basis_elements(graded, g):
    return [Element(v) for v in graded.components[g].vectors]


def tca1(field):
    """Two-dimensional totally commutative ternary table
    (a,a,a) = 6b, (a,a,b) = 2a, (a,b,b) = -2b, (b,b,b) = -6a."""
    entries = {
        (0, 0, 0): {1: 6},
        (0, 0, 1): {0: 2},
        (0, 1, 1): {1: -2},
        (1, 1, 1): {0: -6},
    }
    return NAryAlgebra.build(
        field, 3, 2, entries, labels=["a", "b"], symmetry="total"
    )
