"""Multilinear polynomial identities of low degree.

A degree-1 monomial is the product of n distinct variables in some
order.  A degree-2 monomial (ternary only) nests one product inside
another: ``shape`` says which outer slot holds the inner product, and
``vars`` lists the three inner variables followed by the remaining two
outer variables in slot order, five variables in total.

In ``general`` mode all orderings are distinct monomials (n! in degree
1, 3 * 5! = 360 in degree 2).  In ``commutative`` mode, which requires
a totally commutative algebra, each monomial is identified with its
canonical representative (sorted inner triple, sorted outer pair, inner
product first), leaving C(5,3) = 10 degree-2 monomials, enumerated by
inner triple in lexicographic order.

An identity is a coefficient vector whose combination vanishes under
every substitution of basis elements; by multilinearity that decides
vanishing on the whole algebra.  The solution space is the exact
nullspace of the substitution-by-monomial evaluation matrix.

The rows of that matrix are evaluated on the integer view of the
structure constants, :meth:`nalg.algebra.NAryAlgebra.int_table`.  Every
monomial of one degree k nests k products, so over Q each row is den^k
times its true value and the nullspace is the same; over GF(p) rows are
residues, reduced before duplicates are dropped.  ``verify_identity``
and ``lifting_span`` run on ints too.  Field scalars are made only for
witnesses and returned bases; ``evaluate_monomial_on_basis`` keeps the
evaluation on field scalars.

``lifting_span`` spans every renaming of the lifted degree-1 identities.
It does not insert all 120 renamings of each lifted row: it closes the
lifted rows under the two renamings (0 1) and (0 1 2 3 4), which
generate S5, as the spinning step of the MeatAxe does (Parker, *The
computer calculation of modular characters*, 1984).  A subspace closed
under a set of generators of a finite group is closed under every
element of it, so the two renamings suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import itemgetter

from .checks import check_total_commutativity
from .linalg import RowSpace, SubspaceBasis, int_row, nullspace_of

_VAR_NAMES = "xyzuv"


@dataclass(frozen=True)
class Monomial:
    degree: int
    shape: int | None
    vars: tuple

    def render(self):
        names = [_VAR_NAMES[v] if v < len(_VAR_NAMES) else "x%d" % v for v in self.vars]
        if self.degree == 1:
            return "[%s]" % ",".join(names)
        inner = "[%s]" % ",".join(names[:3])
        outer = names[3:]
        slots = outer[: self.shape] + [inner] + outer[self.shape :]
        return "[%s]" % ",".join(slots)


def num_variables(arity, degree):
    return arity if degree == 1 else 2 * arity - 1


def monomial_basis(arity, degree, mode):
    if mode not in ("general", "commutative"):
        raise ValueError("mode must be 'general' or 'commutative'")
    if degree == 1:
        if mode == "general":
            return tuple(
                Monomial(1, None, p) for p in permutations(range(arity))
            )
        return (Monomial(1, None, tuple(range(arity))),)
    if degree == 2:
        if arity != 3:
            raise ValueError("degree-2 monomials are only built for arity 3")
        if mode == "general":
            return tuple(
                Monomial(2, shape, p)
                for shape in range(3)
                for p in permutations(range(5))
            )
        out = []
        for trip in combinations(range(5), 3):
            rest = tuple(k for k in range(5) if k not in trip)
            out.append(Monomial(2, 0, trip + rest))
        return tuple(out)
    raise ValueError("degree must be 1 or 2")


def canonical_monomial(m):
    """Representative of a degree-2 monomial modulo total commutativity."""
    if m.degree == 1:
        return Monomial(1, None, tuple(sorted(m.vars)))
    return Monomial(
        2, 0, tuple(sorted(m.vars[:3])) + tuple(sorted(m.vars[3:]))
    )


def rename_monomial(m, perm):
    return Monomial(m.degree, m.shape, tuple(perm[v] for v in m.vars))


def evaluate_monomial_on_basis(alg, m, subst):
    """Coordinate vector of the monomial at a basis-index substitution."""
    if m.degree == 1:
        return alg.product_of_basis(tuple(subst[v] for v in m.vars))
    inner = alg.product_of_basis(
        (subst[m.vars[0]], subst[m.vars[1]], subst[m.vars[2]])
    )
    outer = (subst[m.vars[3]], subst[m.vars[4]])
    idx = outer[: m.shape] + (0,) + outer[m.shape :]
    return alg.slot_product(idx, m.shape, inner)


def evaluate_monomial(alg, m, elements):
    """Element value of the monomial at arbitrary element arguments."""
    if m.degree == 1:
        return alg.multiply(*(elements[v] for v in m.vars))
    inner = alg.multiply(*(elements[v] for v in m.vars[:3]))
    o1, o2 = elements[m.vars[3]], elements[m.vars[4]]
    outer = (o1, o2)
    args = list(outer[: m.shape]) + [inner] + list(outer[m.shape :])
    return alg.multiply(*args)


def evaluate_combination(alg, monomials, coefficients, elements):
    acc = alg.zero_element()
    for m, c in zip(monomials, coefficients):
        if c != 0:
            acc = acc + evaluate_monomial(alg, m, elements).scale(c)
    return acc


@dataclass(frozen=True)
class IdentitySpace:
    degree: int
    mode: str
    monomials: tuple
    solutions: SubspaceBasis


def _require_mode(alg, mode):
    if mode == "commutative" and not check_total_commutativity(alg).passed:
        raise ValueError("commutative mode needs a totally commutative algebra")


class _Kept(dict):
    """A dict that makes a missing value with ``make`` and keeps it."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _int_values(alg, monomials):
    """The monomials' values at a basis-index substitution, on the int
    view of the structure constants: a function of the substitution
    giving one int coordinate tuple per monomial, in order.

    A degree-k monomial nests k products, so over Q its value comes out
    den^k times the true one; over GF(p) values are residues.  Values are
    kept per (degree, shape) and index tuple: the monomials of one space
    revisit the same index tuples in other orders.
    """
    _, table = alg.int_table()
    p, d = alg.field.char, alg.dim
    zero = (0,) * d
    sparse = {
        idx: [(j, v) for j, v in enumerate(vec) if v] for idx, vec in table.items()
    }

    def nested(shape):
        def make(idx):
            acc = [0] * d
            outer = idx[3:]
            for k, x in enumerate(table.get(idx[:3], zero)):
                if x:
                    for j, v in sparse.get(outer[:shape] + (k,) + outer[shape:], ()):
                        acc[j] += x * v
            return tuple([c % p for c in acc] if p else acc)

        return make

    kept = {}
    plans = []
    for m in monomials:
        key = (m.degree, m.shape)
        if key not in kept:
            make = nested(m.shape) if m.degree == 2 else lambda idx: table.get(idx, zero)
            kept[key] = _Kept(make)
        plans.append((itemgetter(*m.vars), kept[key].__getitem__))

    def values(subst):
        return [value(at(subst)) for at, value in plans]

    return values


def identity_system_rows(alg, degree, mode):
    """All evaluation rows (substitution-major, coordinate-minor) on the
    int view: over Q a row is den^degree times its value, over GF(p) it
    holds residues.  The identity space is their common kernel."""
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    values = _int_values(alg, monomials)
    for subst in product(range(alg.dim), repeat=nv):
        yield from zip(*values(subst))


def identity_space(alg, degree, mode):
    """Every monomial of one degree nests the same number of products, so
    the rows on the int view have the nullspace of the true rows; it is
    read off one elimination of the distinct nonzero rows."""
    _require_mode(alg, mode)
    monomials = monomial_basis(alg.arity, degree, mode)
    seen = set()

    def rows():
        for row in identity_system_rows(alg, degree, mode):
            if row not in seen:
                seen.add(row)
                if any(row):
                    yield row

    solutions = nullspace_of(alg.field, len(monomials), rows())
    return IdentitySpace(degree, mode, monomials, solutions)


def verify_identity(alg, coefficients, monomials):
    """Scan all basis substitutions; fail on the first nonzero value.

    The scan runs on the int view with the coefficients' denominators
    cleared once.  Degrees may be mixed, so a degree-1 term, den times
    its value over Q, is scaled by den to carry den^2 as a degree-2 term
    does.  The witness is made in field scalars.
    """
    from .algebra import Element
    from .checks import Verdict, Witness, _is_zero

    if len(coefficients) != len(monomials):
        raise ValueError("one coefficient per monomial required")
    field = alg.field
    coefficients = tuple(field.of(c) for c in coefficients)
    den = alg.int_table()[0]
    active = [
        (m, c * den if m.degree == 1 else c)
        for m, c in zip(monomials, int_row(field, coefficients))
        if c
    ]
    nv = max(
        (num_variables(alg.arity, m.degree) for m, _ in active), default=0
    )
    values = _int_values(alg, [m for m, _ in active])
    scale = [c for _, c in active]
    for subst in product(range(alg.dim), repeat=nv):
        acc = [0] * alg.dim
        for c, v in zip(scale, values(subst)):
            for j, x in enumerate(v):
                if x:
                    acc[j] += c * x
        if not _is_zero(acc, field.char):
            acc = [field.zero] * alg.dim
            for m, c in zip(monomials, coefficients):
                if c != 0:
                    v = evaluate_monomial_on_basis(alg, m, subst)
                    for j, x in enumerate(v):
                        if x != 0:
                            acc[j] = acc[j] + c * x
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


def lifting_span(arity, base, mode):
    """Degree-2 consequences of a degree-1 identity space: every way of
    substituting the whole identity into one slot of an outer product,
    every way of replacing one variable by a product of fresh variables,
    closed under renaming the five abstract variables.

    The closure under renaming is spun from two generators of S5,
    sigma = (0 1) and tau = (0 1 2 3 4), as the MeatAxe spins a
    submodule: the lifted rows go in first, and every row that enlarges
    the space is pushed, popped and mapped by both generators in turn.
    The span W of the rows that enlarged the space holds the lifted rows
    and the images of its own spanning rows, so it is closed under sigma
    and tau; as S5 is finite every renaming is a word in them, and W is
    the span of all renamings of the lifted rows.  A renaming permutes
    the target monomials, in commutative mode too, where the canonical
    monomial depends only on the inner and outer variable sets, so each
    generator is a column map computed once.

    The base must be a degree-1 space over general-mode monomials.
    """
    if arity != 3:
        raise ValueError("lifting is only built for arity 3")
    if base.degree != 1 or base.mode != "general":
        raise ValueError("base must be a degree-1 general-mode space")
    base_monomials = base.monomials
    target = monomial_basis(3, 2, mode)
    ncols = len(target)
    index = {m: pos for pos, m in enumerate(target)}
    field = base.solutions.field
    p = field.char
    canonical = canonical_monomial if mode == "commutative" else (lambda m: m)

    def project(terms):
        row = {}
        for m, c in terms:
            k = index[canonical(m)]
            row[k] = (row.get(k, 0) + c) % p if p else row.get(k, 0) + c
        return row

    lifted = []
    for vec in base.solutions.vectors:
        terms = [
            (m, c) for m, c in zip(base_monomials, int_row(field, vec)) if c
        ]
        for shape in range(3):
            lifted.append(
                [
                    (Monomial(2, shape, m.vars + (3, 4)), c)
                    for m, c in terms
                ]
            )
        for t in range(3):
            keep = sorted(v for v in range(3) if v != t)
            relabel = {keep[0]: 0, keep[1]: 1, t: None}
            out = []
            for m, c in terms:
                slot = m.vars.index(t)
                rest = tuple(relabel[v] for v in m.vars if v != t)
                out.append((Monomial(2, slot, (2, 3, 4) + rest), c))
            lifted.append(out)

    # a renaming sends target[k] to target[moves[k]]; rows are sparse
    # dicts from column to coefficient, so only their entries move
    renamings = [
        [index[canonical(rename_monomial(m, perm))] for m in target]
        for perm in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    ]

    space = RowSpace(field, ncols)
    fresh = [row for row in map(project, lifted) if space.insert(row)]
    while fresh and space.rank < ncols:
        row = fresh.pop()
        for moves in renamings:
            image = {moves[k]: c for k, c in row.items()}
            if space.insert(image):
                fresh.append(image)
    return IdentitySpace(2, mode, target, SubspaceBasis.of_kernel(space))
