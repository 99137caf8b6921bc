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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .checks import check_total_commutativity
from .linalg import Matrix, RowSpace, SubspaceBasis

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


def identity_system_rows(alg, degree, mode):
    """All raw evaluation rows (substitution-major, coordinate-minor);
    the identity space is their common kernel."""
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    for subst in product(range(alg.dim), repeat=nv):
        values = [evaluate_monomial_on_basis(alg, m, subst) for m in monomials]
        for k in range(alg.dim):
            yield tuple(v[k] for v in values)


def identity_space(alg, degree, mode):
    _require_mode(alg, mode)
    monomials = monomial_basis(alg.arity, degree, mode)
    ncols = len(monomials)
    space = RowSpace(alg.field, ncols)
    seen = set()
    for row in identity_system_rows(alg, degree, mode):
        if row in seen:
            continue
        seen.add(row)
        if any(c != 0 for c in row):
            space.insert(list(row))
        if space.rank == ncols:
            break
    system = Matrix(alg.field, space.rows() or [[alg.field.zero] * ncols])
    return IdentitySpace(degree, mode, monomials, system.nullspace())


def verify_identity(alg, coefficients, monomials):
    """Scan all basis substitutions; fail on the first nonzero value."""
    from .algebra import Element
    from .checks import Verdict, Witness

    if len(coefficients) != len(monomials):
        raise ValueError("one coefficient per monomial required")
    coefficients = tuple(alg.field.of(c) for c in coefficients)
    active = [
        (m, c) for m, c in zip(monomials, coefficients) if c != 0
    ]
    nv = max(
        (num_variables(alg.arity, m.degree) for m, _ in active), default=0
    )
    for subst in product(range(alg.dim), repeat=nv):
        acc = [alg.field.zero] * alg.dim
        for m, c in active:
            v = evaluate_monomial_on_basis(alg, m, subst)
            for j, x in enumerate(v):
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


def lifting_span(arity, base, mode):
    """Degree-2 consequences of a degree-1 identity space: every way of
    substituting the whole identity into one slot of an outer product,
    every way of replacing one variable by a product of fresh variables,
    closed under renaming the five abstract variables.

    The base must be a degree-1 space over general-mode monomials.
    """
    if arity != 3:
        raise ValueError("lifting is only built for arity 3")
    if base.degree != 1 or base.mode != "general":
        raise ValueError("base must be a degree-1 general-mode space")
    base_monomials = base.monomials
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
        terms = [
            (m, c) for m, c in zip(base_monomials, vec) if c != 0
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

    space = RowSpace(field, len(target))
    perms = list(permutations(range(5)))
    seen = set()
    for terms in lifted:
        for p in perms:
            renamed = [(rename_monomial(m, p), c) for m, c in terms]
            row = project(renamed)
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                space.insert(list(row))
    return IdentitySpace(
        2, mode, target, SubspaceBasis(field, len(target), space.rows())
    )
