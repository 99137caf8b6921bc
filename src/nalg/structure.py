"""Ideals, simplicity and subalgebras of an n-ary algebra.

The simplicity test has three outcomes.  A zero product means abelian,
hence not simple.  Otherwise the one-slot multiplication operators are
built once, as sparse int rows off the int view
(:meth:`nalg.algebra.NAryAlgebra.slot_multiplication_operators`), and
first closed under products.  If the closure is the full operator
algebra, the algebra is simple (Burnside: M_d(F) has no proper nonzero
invariant subspace, over any field, and a proper nonzero ideal would be
one).  If not, deterministic candidate vectors, the last of them kernel
vectors of the commutators that :func:`nalg.linalg.int_commutators`
pairs, are generated lazily and each is spun up to an ideal; the first
proper nonzero closure is a checkable non-simplicity certificate.  When
neither side lands, the report says undetermined rather than guessing.

Both closures are one ``RowSpace.spin``: the Burnside closure spins the
flattened operators under left multiplication by themselves
(:func:`nalg.linalg.matrix_algebra_closure`), and an ideal is the span
of its generators spun under the slot operators.  Over Q the operators
are den times the true ones, which changes no span.  Field scalars are
made only for the returned bases and the candidate vectors.

A product restricted to a subspace that it maps into itself is read in
the subspace's canonical basis by one function, :func:`induced_algebra`:
the subalgebra closure and the graded reconstructions of
:mod:`nalg.catalog` both build their algebras through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import NAryAlgebra
from .linalg import (
    RowSpace,
    SubspaceBasis,
    int_commutators,
    matrix_algebra_closure,
    nullspace_of,
    operator_map,
    split_rows,
)


def ideal_closure(alg, generators, ops=None):
    """Smallest ideal containing the generators: the span is saturated
    under every one-slot multiplication operator (multilinearity reduces
    arbitrary other arguments to basis elements).  ``ops`` are those
    operators, as :meth:`slot_multiplication_operators` returns them,
    when the caller has already built them."""
    field = alg.field
    if ops is None:
        ops = alg.slot_multiplication_operators()
    rows = (g.coords if hasattr(g, "coords") else list(g) for g in generators)
    space = RowSpace(field, alg.dim)
    space.spin(rows, [operator_map(op, field.char) for op in ops if any(op)])
    return SubspaceBasis.of_kernel(space)


@dataclass(frozen=True)
class SimplicityReport:
    status: str  # "simple" | "not_simple" | "undetermined"
    certificate: str  # "abelian" | "witness_spin" | "burnside(k)" | "none"
    ideal: SubspaceBasis | None = None
    operator_dim: int | None = None


def _candidate_vectors(alg, ops):
    """Deterministic ideal seeds, generated lazily, one per direction:
    basis vectors, two-term sums and differences, then kernel vectors of
    the slot operators ``ops`` and of their pairwise commutators."""
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
        # a zero commutator's kernel is the unit vectors, already seen
        for _, _, op in int_commutators(ops, p):
            yield from nullspace_of(field, d, split_rows(op, d))

    seen = set()
    for v in raw():
        lead = next((c for c in v if c != 0), None)
        if lead is None:
            continue
        key = tuple(c / lead for c in v)
        if key not in seen:
            seen.add(key)
            yield v


def simplicity(alg):
    d = alg.dim
    if alg.is_zero_algebra():
        ideal = None
        if d >= 2:
            ideal = SubspaceBasis.from_vectors(
                alg.field, d, [alg.basis_element(0).coords]
            )
        return SimplicityReport("not_simple", "abelian", ideal)

    ops = alg.slot_multiplication_operators()
    closure, _ = matrix_algebra_closure(alg.field, d, ops)
    if closure.dim == d * d:
        return SimplicityReport(
            "simple", "burnside(%d)" % closure.dim, None, closure.dim
        )
    for v in _candidate_vectors(alg, ops):
        ideal = ideal_closure(alg, [v], ops)
        if 0 < ideal.dim < d:
            return SimplicityReport("not_simple", "witness_spin", ideal)
    return SimplicityReport("undetermined", "none", None, closure.dim)


def subalgebra_closure(alg, generators):
    """Smallest subalgebra containing the generators, plus the induced
    algebra in the canonical basis of that subspace."""
    field = alg.field
    space = RowSpace(field, alg.dim)
    for g in generators:
        coords = g.coords if hasattr(g, "coords") else tuple(field.of(c) for c in g)
        space.insert(list(coords))
    while True:
        vecs = [alg.element(v) for v in space.rows()]
        products = [
            alg.multiply(*args).coords for args in product(vecs, repeat=alg.arity)
        ]
        if not any([space.insert(list(w)) for w in products]):
            break
    sub = SubspaceBasis.of_kernel(space)
    if sub.dim == 0:
        raise ValueError("subalgebra closure needs a nonzero generator")
    # the last round multiplied the final basis, in product order
    value = dict(zip(product(range(sub.dim), repeat=alg.arity), products))
    symmetry = "total" if alg.symmetry == "total" else "none"
    return sub, induced_algebra(
        alg, sub, value.__getitem__, symmetry, lambda k: "s%d" % (k + 1)
    )


def induced_algebra(alg, sub, value, symmetry, name):
    """The algebra on the subspace ``sub`` whose product of basis vectors
    ``idx`` (a tuple of positions in ``sub``'s basis) is ``value(idx)``,
    a vector of ``alg``'s space that must lie in ``sub``.  Its
    coordinates are read at the pivot columns, which are unit columns of
    the canonical basis.  A basis vector that is a basis element of
    ``alg`` keeps that element's label; the k-th of any other is named
    ``name(k)``."""
    field = alg.field
    terms = sub.terms()
    pivots = [t[0][0] for t in terms]
    labels = [
        alg.labels[t[0][0]] if len(t) == 1 and t[0][1] == field.one else name(k)
        for k, t in enumerate(terms)
    ]
    entries = {}
    for idx in product(range(sub.dim), repeat=alg.arity):
        vec = value(idx)
        if not sub.contains_vector(vec):
            raise ValueError("the product at %r leaves the subspace" % (idx,))
        coords = [vec[p] for p in pivots]
        if any(coords):
            entries[idx] = coords
    return NAryAlgebra.build(field, alg.arity, sub.dim, entries, labels, symmetry)
