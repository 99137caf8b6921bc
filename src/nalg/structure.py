"""Ideals, simplicity and subalgebras of an n-ary algebra.

The simplicity test has three outcomes.  A zero product means abelian,
hence not simple.  Otherwise the one-slot multiplication operators are
built once, as sparse int rows off the int view
(:meth:`nalg.algebra.NAryAlgebra.slot_multiplication_operators`), and
first closed under products.  If the closure is the full operator
algebra, the algebra is simple (Burnside: M_d(F) has no proper nonzero
invariant subspace, over any field, and a proper nonzero ideal would be
one).  If not, a deterministic sequence of candidate vectors is
generated lazily and each is spun up to an ideal; the first proper
nonzero closure is a checkable non-simplicity certificate.  When neither
side lands, the report says undetermined rather than guessing.

Both closures are one ``RowSpace.spin``: the Burnside closure spins the
flattened operators under left multiplication by themselves
(:func:`nalg.linalg.matrix_algebra_closure`), and an ideal is the span
of its generators spun under the slot operators.  Over Q the operators
are den times the true ones, which changes no span.  Field scalars are
made only for the returned bases and the candidate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .linalg import (
    RowSpace,
    SubspaceBasis,
    int_commutator,
    matrix_algebra_closure,
    nullspace_of,
    operator_map,
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
        for a, op in enumerate(ops):
            for other in ops[a + 1 :]:
                flat = int_commutator(op, other, p)
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
    from .algebra import NAryAlgebra

    field = alg.field
    d = alg.dim
    space = RowSpace(field, d)
    for g in generators:
        coords = g.coords if hasattr(g, "coords") else tuple(field.of(c) for c in g)
        space.insert(list(coords))
    while True:
        vecs = [alg.element(v) for v in space.rows()]
        products = [alg.multiply(*args) for args in product(vecs, repeat=alg.arity)]
        if not any([space.insert(list(w.coords)) for w in products]):
            break
    sub = SubspaceBasis.of_kernel(space)
    if sub.dim == 0:
        raise ValueError("subalgebra closure needs a nonzero generator")
    pivots = space.pivots()

    def sub_coords(vec):
        # pivot columns of a reduced echelon basis are unit columns, so
        # membership coordinates can be read off directly
        coords = tuple(vec[p] for p in pivots)
        recon = [field.zero] * d
        for c, bv in zip(coords, sub.vectors):
            for k in range(d):
                recon[k] = recon[k] + c * bv[k]
        if tuple(recon) != tuple(vec):
            raise ValueError("product left the subspace; closure is broken")
        return coords

    labels = []
    for k, v in enumerate(sub.vectors):
        hot = [j for j, c in enumerate(v) if c != 0]
        if len(hot) == 1 and v[hot[0]] == field.one:
            labels.append(alg.labels[hot[0]])
        else:
            labels.append("s%d" % (k + 1))

    # the last round multiplied the final basis, in this order
    entries = {}
    k = sub.dim
    for idx, w in zip(product(range(k), repeat=alg.arity), products):
        vec = sub_coords(w.coords)
        if any(c != 0 for c in vec):
            entries[idx] = vec
    induced = NAryAlgebra(
        field,
        alg.arity,
        k,
        labels,
        entries,
        "total" if alg.symmetry == "total" else "none",
    )
    return sub, induced
