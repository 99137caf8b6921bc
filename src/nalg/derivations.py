"""Derivations of an n-ary algebra as exact operator spaces.

An operator D is a derivation when the Leibniz rule
``D(product(z1..zn)) = sum_s product(z1, ..., D(z_s), ..., zn)`` holds;
by multilinearity it is enough to impose it on basis tuples, and for a
totally commutative product one tuple per orbit already generates all
the equations.  That linear system in the d^2 operator entries,
flattened row-major (entry (i, j) at position i*d + j, row convention as
everywhere else), is :class:`nalg.checks.LeibnizSystem`, shared with the
commutator check: the full derivation space is its nullspace, and
:func:`is_derivation` asks it for the first tuple an operator breaks.
Many forms repeat up to a unit scale (the octonion conjugation triple
has 2920 forms and 232 distinct ones); forms equal up to a unit vanish
on the same operators, so :func:`derivation_algebra` eliminates each
distinct form once, keyed in one walk of the basis tuples
(:meth:`nalg.checks.LeibnizSystem.distinct_rows`).
:func:`inner_derivation_space` forms the right-multiplication operators
and their commutators on the int view and hands them to the kernel as
they are, through ``RowSpace.insert_ints``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element
from .checks import LeibnizSystem, Verdict, _basis_tuples, _commutators, _failure
from .linalg import Matrix, RowSpace, SubspaceBasis, int_row, nullspace_of


@dataclass(frozen=True)
class OperatorSpace:
    """Subspace of d x d operators, canonical basis of flattened matrices."""

    field: object
    dim: int
    basis: SubspaceBasis

    @property
    def rank(self):
        return self.basis.dim

    def matrices(self):
        return [
            Matrix.from_flat(self.field, self.dim, self.dim, v)
            for v in self.basis.vectors
        ]

    def contains_matrix(self, m):
        return self.basis.contains_vector(m.flatten())

    @classmethod
    def from_matrices(cls, field, dim, mats):
        sub = SubspaceBasis.from_vectors(
            field, dim * dim, [m.flatten() for m in mats]
        )
        return cls(field, dim, sub)


def derivation_algebra(alg):
    """All derivations, as the nullspace of the Leibniz forms that are
    distinct up to a unit scale."""
    d = alg.dim
    rows = LeibnizSystem(alg).distinct_rows()
    return OperatorSpace(alg.field, d, nullspace_of(alg.field, d * d, rows))


def inner_derivation_space(alg):
    """Span of the commutators [R_x, R_y] over basis argument tuples.

    The commutator is bilinear, so the commutators of pairs from a basis
    of span{R_x} span the same space; D_{y,x} = -D_{x,y}, so unordered
    pairs suffice.  The basis is the R_x that enlarge the span, in scan
    order.
    """
    d = alg.dim
    get = alg.int_table()[1].get
    span = RowSpace(alg.field, d * d)
    # R_x and the commutators as sparse rows over the d^2 entries,
    # row-major, on the int view as the kernel stores them
    basis = [
        x
        for x in _basis_tuples(alg, alg.arity - 1)
        if span.insert_ints(
            {j * d + k: c for j in range(d) for k, c in get((j,) + x, ())}
        )
    ]
    space = RowSpace(alg.field, d * d)
    for _, _, flat in _commutators(alg, basis):
        space.insert_ints({q: c for q, c in enumerate(flat) if c})
    return OperatorSpace(alg.field, d, SubspaceBasis.of_kernel(space))


def is_derivation(alg, op):
    """Leibniz rule for one operator, tested against the Leibniz system;
    the operator's denominators are cleared once."""
    if op.nrows != alg.dim or op.ncols != alg.dim:
        raise ValueError("operator shape does not match the algebra")
    system = LeibnizSystem(alg)
    pos = system.first_failure(int_row(alg.field, op.flatten()))
    if pos is None:
        return Verdict(True)
    args = tuple(alg.basis_element(i) for i in system.ztuples[pos])
    return _failure(alg, "derivation", {"operator": op, "args": args})


def skew_space(field, dim):
    """Operators with M[i][j] = -M[j][i] and zero diagonal: the span of
    the elementary differences e_ij - e_ji, i < j."""
    mats = [
        Matrix.unit(field, dim, dim, i, j) - Matrix.unit(field, dim, dim, j, i)
        for i in range(dim)
        for j in range(i + 1, dim)
    ]
    return OperatorSpace.from_matrices(field, dim, mats)


def compare(a, b):
    """Four-way comparison of two operator spaces, from one containment
    test: the smaller space in the larger, and a subspace of equal
    dimension is the whole space."""
    if a.rank <= b.rank:
        if not b.basis.contains(a.basis):
            return "incomparable"
        return "equal" if a.rank == b.rank else "left_in_right"
    return "right_in_left" if a.basis.contains(b.basis) else "incomparable"


def d2_decompose(invol, op):
    """Split a derivation D of the conjugation triple product of a
    4-dimensional involutive algebra into D = Phi + Psi where
    Psi(x) = x * D(1) with D(1) in the skew part, and Phi is a
    derivation of the binary product.

    Raises ValueError naming the verification that broke; returns the
    pair (Phi, Psi) of operator matrices.
    """
    from .catalog import conj_triple, skew_part

    alg = invol.algebra
    ternary = conj_triple(invol)
    check = is_derivation(ternary, op)
    if not check.passed:
        raise ValueError("operator is not a derivation of the triple product")

    d_of_unit = Element(op.apply(invol.unit.coords))
    if not skew_part(invol).contains_vector(d_of_unit.coords):
        raise ValueError("D(1) is not in the skew part")

    psi = Matrix(
        alg.field,
        [
            alg.multiply(alg.basis_element(j), d_of_unit).coords
            for j in range(alg.dim)
        ],
    )
    phi = op - psi
    if any(c != 0 for c in phi.apply(invol.unit.coords)):
        raise ValueError("Phi does not kill the unit")
    check = is_derivation(alg, phi)
    if not check.passed:
        raise ValueError("Phi is not a derivation of the binary product")
    return phi, psi
