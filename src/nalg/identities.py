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
nullspace of the substitution-by-monomial evaluation matrix, and
``identity_space`` evaluates only the rows of the sorted substitutions
(multisets of basis indices): C(d + nv - 1, nv) of the d^nv, for nv
variables.  Renaming the variables of a substitution only permutes the
monomial columns: the value of a monomial m at the substitution s o pi
is the value of the renamed monomial pi(m) at s, and in commutative mode
that of its canonical form, which the totally commutative product gives
the same value.  Every substitution is s o pi for a sorted s, so the row
space of the whole matrix is the span of the sorted rows closed under
the renamings.  S_nv is generated by (0 1) and (0 1 ... nv-1), so the
closure under those two column maps, spun as the MeatAxe spins a
submodule (Parker, *The computer calculation of modular characters*,
1984; ``RowSpace.spin``), is that whole row space.  The nullspace is
read off one elimination (``nullspace_of``) in which the rows enter
with their columns reversed, the two maps conjugated by the reversal.

The rows are evaluated on the integer view of the structure constants,
the nonzero (coordinate, int) pairs of
:meth:`nalg.algebra.NAryAlgebra.int_table`.
Every monomial of one degree k nests k products, so over Q each row is
den^k times its true value and the nullspace is the same; over GF(p)
rows are residues, reduced before duplicates are dropped.
``verify_identity`` and ``lifting_span`` run on ints too.  Field scalars
are made only for witnesses and returned bases.  The witness of
``verify_identity`` is the replay of its substitution through
``evaluate_combination``; ``evaluate_monomial_on_basis``, the evaluation
at basis indices on field scalars, no longer serves it and is kept for
the tests that compare against it.

``lifting_span`` spans every renaming of the lifted degree-1 identities
the same way: it closes the lifted rows under the two renamings (0 1)
and (0 1 2 3 4) of S5 instead of inserting all 120 renamings of each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import (
    combinations,
    combinations_with_replacement,
    permutations,
    product,
)
from operator import itemgetter

from .checks import check_total_commutativity
from .linalg import RowSpace, SubspaceBasis, column_map, int_row, nullspace_of

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
    giving, per monomial in order, the value's nonzero (coordinate, int)
    pairs.

    A degree-k monomial nests k products, so over Q its value comes out
    den^k times the true one; over GF(p) values are residues.  Values are
    kept per (degree, shape) and index tuple: the monomials of one space
    revisit the same index tuples in other orders.
    """
    get = alg.int_table()[1].get
    p = alg.field.char

    def nested(shape):
        def make(idx):
            acc = {}
            outer = idx[3:]
            for k, x in get(idx[:3], ()):
                for j, v in get(outer[:shape] + (k,) + outer[shape:], ()):
                    acc[j] = acc.get(j, 0) + x * v
            if p:
                return tuple([(j, c % p) for j, c in acc.items() if c % p])
            return tuple([(j, c) for j, c in acc.items() if c])

        return make

    kept = {}
    plans = []
    for m in monomials:
        key = (m.degree, m.shape)
        if key not in kept:
            make = nested(m.shape) if m.degree == 2 else lambda idx: get(idx, ())
            kept[key] = _Kept(make)
        plans.append((itemgetter(*m.vars), kept[key].__getitem__))

    def values(subst):
        return [value(at(subst)) for at, value in plans]

    return values


def _canonical(mode):
    return canonical_monomial if mode == "commutative" else (lambda m: m)


@functools.cache
def _renamings(arity, degree, mode):
    """Column maps, over :func:`monomial_basis`, of the renamings
    sigma = (0 1) and tau = (0 1 ... nv-1) of the nv variables, which
    generate S_nv: each sends the column of a monomial to the column of
    its renamed canonical form.  The map of a renaming is a permutation
    of the columns, in commutative mode too, where the canonical monomial
    depends only on the sets of inner and outer variables.  Computed once
    per (arity, degree, mode), as tuples."""
    monomials = monomial_basis(arity, degree, mode)
    nv = num_variables(arity, degree)
    canonical = _canonical(mode)
    index = {m: k for k, m in enumerate(monomials)}
    sigma = (1, 0) + tuple(range(2, nv))
    tau = tuple(range(1, nv)) + (0,)
    return tuple(
        tuple([index[canonical(rename_monomial(m, perm))] for m in monomials])
        for perm in dict.fromkeys((sigma, tau))
    )


def identity_space(alg, degree, mode):
    """The monomials' common kernel of every substitution, read off one
    elimination of the rows of the sorted substitutions closed under
    renaming the variables (see the module docstring).  Every monomial of
    one degree nests the same number of products, so the rows on the int
    view have the nullspace of the true rows."""
    _require_mode(alg, mode)
    monomials = monomial_basis(alg.arity, degree, mode)
    nv = num_variables(alg.arity, degree)
    values = _int_values(alg, monomials)

    def rows():
        seen = set()
        for subst in combinations_with_replacement(range(alg.dim), nv):
            # one sparse row per coordinate, from column to nonzero value
            by_coord = {}
            for k, terms in enumerate(values(subst)):
                for j, v in terms:
                    if j in by_coord:
                        by_coord[j][k] = v
                    else:
                        by_coord[j] = {k: v}
            for row in by_coord.values():
                key = tuple(row.items())
                if key not in seen:
                    seen.add(key)
                    yield row

    solutions = nullspace_of(
        alg.field, len(monomials), rows(), _renamings(alg.arity, degree, mode)
    )
    return IdentitySpace(degree, mode, monomials, solutions)


def verify_identity(alg, coefficients, monomials):
    """Scan all basis substitutions; fail on the first nonzero value.

    The scan runs on the int view with the coefficients' denominators
    cleared once.  Degrees may be mixed, so a degree-1 term, den times
    its value over Q, is scaled by den to carry den^2 as a degree-2 term
    does.  The witness is the replay of its substitution.
    """
    from .checks import Verdict, _failure, _is_zero

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
            for j, x in v:
                acc[j] += c * x
        if not _is_zero(acc, field.char):
            data = {
                "monomials": tuple(monomials),
                "coefficients": coefficients,
                "substitution": tuple(alg.basis_element(i) for i in subst),
            }
            return _failure(alg, "identity", data)
    return Verdict(True)


def lifting_span(arity, base, mode):
    """Degree-2 consequences of a degree-1 identity space: every way of
    substituting the whole identity into one slot of an outer product,
    every way of replacing one variable by a product of fresh variables,
    closed under renaming the five abstract variables.

    The closure under renaming is spun from the lifted rows under the
    two generators (0 1) and (0 1 2 3 4) of S5 by ``RowSpace.spin``, each
    a permutation of the columns computed once.

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
    canonical = _canonical(mode)

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

    space = RowSpace(field, ncols)
    space.spin(map(project, lifted), [column_map(m) for m in _renamings(3, 2, mode)])
    return IdentitySpace(2, mode, target, SubspaceBasis.of_kernel(space))
