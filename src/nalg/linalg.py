"""Exact linear algebra over the scalar types of :mod:`nalg.fields`.

Everything here is deterministic: row reduction always picks the first
nonzero entry in column order as pivot, and every subspace is stored in
reduced row echelon form (pivots 1, pivot columns increasing, zero rows
dropped), so two equal subspaces produce bit-identical bases.

The elimination kernel, ``RowSpace``, holds its rows as plain ints:
residues mod p over GF(p), primitive integer rows eliminated fraction-free
over Q.  Fractions and Mods are made only when rows are handed back.
``insert`` and ``contains`` coerce what they are given, so callers hand
rows over as they are.

A nullspace, :func:`nullspace_of`, takes one elimination: the rows go in
with their columns reversed, and the null vectors read off that RREF are,
reversed back, already the canonical RREF basis of the nullspace.

Operators act on row vectors from the right, ``v |-> v @ M``; row ``i`` of
an operator matrix is the image of the ``i``-th basis vector.  Composition
"first M then N" is therefore the plain matrix product ``M @ N``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .fields import Mod


def int_row(field, row):
    """One row as plain ints spanning the same line: residues over GF(p),
    over Q the row times the lcm of its denominators.  Plain ints pass
    through (reduced mod p), so a row already on an int view is not
    boxed; clearing the denominators of an RREF row over Q gives its
    primitive form."""
    p = field.char
    # the first entry rules out field-scalar rows before a full pass;
    # bool, Fraction or Mod anywhere later leaves {int} for the set
    if row and type(row[0]) is int and set(map(type, row)) == {int}:
        return [c % p for c in row] if p else list(row)
    of = field.of
    if p:
        return [of(c).r for c in row]
    row = [of(c) for c in row]
    den = lcm(*[c.denominator for c in row])
    return [c.numerator * (den // c.denominator) for c in row]


class RowSpace:
    """A growing row space kept in reduced row echelon form.

    Rows are lists of plain ints inside.  Over GF(p) a row holds residues
    in [0, p) and its pivot entry is 1.  Over Q a row is the RREF row
    times the lcm of its denominators: a primitive integer row with a
    positive pivot entry, eliminated fraction-free.  Field scalars appear
    only at the edges: ``insert`` and ``contains`` take whatever
    ``field.of`` takes, plain-int rows without boxing them, and ``rows``
    hands back Fractions or Mods.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._p = field.char  # 0 over Q
        self._pivots = []  # pivot columns, increasing
        self._rows = []  # integer rows, in the order of _pivots

    @classmethod
    def from_rref(cls, field, ncols, rows):
        """The span of rows that already are a canonical RREF basis."""
        space = cls(field, ncols)
        for row in rows:
            row = space._ints(row)
            space._pivots.append(next(k for k, c in enumerate(row) if c))
            space._rows.append(row)
        # elimination against the rows is right when they are echelon
        # with distinct pivots, and with pivot 1 over GF(p)
        pivots = space._pivots
        if any(a >= b for a, b in zip(pivots, pivots[1:])) or (
            space._p and any(row[pc] != 1 for pc, row in zip(pivots, space._rows))
        ):
            raise ValueError("rows are not in row echelon form")
        return space

    @property
    def rank(self):
        return len(self._rows)

    def _ints(self, row):
        if len(row) != self.ncols:
            raise ValueError("expected %d entries, got %d" % (self.ncols, len(row)))
        return int_row(self.field, row)

    def _eliminate(self, row, prow, pc):
        """row with its entry in column pc cleared by prow, whose pivot
        column is pc."""
        c = row[pc]
        if self._p:
            p = self._p
            return [(x - c * y) % p for x, y in zip(row, prow)]
        a = prow[pc]
        g = gcd(a, c)
        a, c = a // g, c // g
        row = [a * x - c * y for x, y in zip(row, prow)]
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    def _reduce(self, row):
        for pc, prow in zip(self._pivots, self._rows):
            if row[pc]:
                row = self._eliminate(row, prow, pc)
        return row

    def insert(self, row):
        """Add one vector; returns True when it enlarged the space."""
        row = self._reduce(self._ints(row))
        pc = next((k for k, c in enumerate(row) if c), None)
        if pc is None:
            return False
        lead = row[pc]
        if self._p:
            scale = pow(lead, -1, self._p)
            if scale != 1:
                row = [c * scale % self._p for c in row]
        else:
            scale = gcd(*row) if lead > 0 else -gcd(*row)
            if scale != 1:
                row = [c // scale for c in row]
        rows = self._rows
        for k, prow in enumerate(rows):
            if prow[pc]:
                rows[k] = self._eliminate(prow, row, pc)
        k = bisect_left(self._pivots, pc)
        self._pivots.insert(k, pc)
        rows.insert(k, row)
        return True

    def contains(self, row):
        return not any(self._reduce(self._ints(row)))

    def rows(self):
        zero, p = self.field.zero, self._p
        if p:
            return [[Mod(c, p) if c else zero for c in row] for row in self._rows]
        return [
            [Fraction(c, row[pc]) if c else zero for c in row]
            for pc, row in zip(self._pivots, self._rows)
        ]

    def pivots(self):
        return list(self._pivots)


class Matrix:
    """Dense exact matrix; rows is a tuple of tuples of scalars."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(field.of(c) for c in r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows

    @classmethod
    def _from_scalars(cls, field, rows):
        """A matrix on rows that already are tuples of field scalars."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        return m

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, field, nrows, ncols, i, j):
        z = field.zero
        rows = [[z] * ncols for _ in range(nrows)]
        rows[i][j] = field.one
        return cls(field, rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.nrows, self.ncols, other.nrows, other.ncols)
            )

    def __add__(self, other):
        self._check_shape(other)
        return Matrix._from_scalars(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        self._check_shape(other)
        return Matrix._from_scalars(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self):
        return Matrix._from_scalars(
            self.field, tuple(tuple(-a for a in r) for r in self.rows)
        )

    def scale(self, c):
        c = self.field.of(c)
        return Matrix._from_scalars(
            self.field, tuple(tuple(c * a for a in r) for r in self.rows)
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        cols = other.ncols
        zero = self.field.zero
        out = []
        for ra in self.rows:
            row = [zero] * cols
            for k, a in enumerate(ra):
                if a != 0:
                    rb = other.rows[k]
                    for j in range(cols):
                        b = rb[j]
                        if b != 0:
                            row[j] = row[j] + a * b
            out.append(tuple(row))
        return Matrix._from_scalars(self.field, tuple(out))

    def apply(self, v):
        """Row vector times matrix: the action of the operator on coords."""
        if len(v) != self.nrows:
            raise ValueError("vector length %d, expected %d" % (len(v), self.nrows))
        zero = self.field.zero
        out = [zero] * self.ncols
        for i, c in enumerate(v):
            if c != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    a = row[j]
                    if a != 0:
                        out[j] = out[j] + c * a
        return tuple(out)

    def transpose(self):
        return Matrix._from_scalars(self.field, tuple(zip(*self.rows)))

    def commutator(self, other):
        return self @ other - other @ self

    def is_zero(self):
        return all(c == 0 for r in self.rows for c in r)

    def flatten(self):
        """Row-major flattening, entry (i, j) at position i*ncols + j."""
        return tuple(c for r in self.rows for c in r)

    @classmethod
    def from_flat(cls, field, nrows, ncols, flat):
        if len(flat) != nrows * ncols:
            raise ValueError("flat length mismatch")
        return cls(
            field,
            [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)],
        )

    def rref(self):
        space = RowSpace(self.field, self.ncols)
        for r in self.rows:
            space.insert(list(r))
        rows = tuple(tuple(r) for r in space.rows())
        return Matrix._from_scalars(self.field, rows), space.pivots()

    def rank(self):
        space = RowSpace(self.field, self.ncols)
        for r in self.rows:
            space.insert(list(r))
        return space.rank

    def nullspace(self):
        """Canonical basis of {v : v satisfies M v^T = 0}, as a SubspaceBasis."""
        return nullspace_of(self.field, self.ncols, self.rows)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        rows = [list(r) for r in self.rows]
        sign = 1
        det = self.field.one
        for col in range(n):
            piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
            if piv is None:
                return self.field.zero
            if piv != col:
                rows[col], rows[piv] = rows[piv], rows[col]
                sign = -sign
            p = rows[col][col]
            det = det * p
            for i in range(col + 1, n):
                c = rows[i][col]
                if c != 0:
                    f = c / p
                    for k in range(col, n):
                        rows[i][k] = rows[i][k] - f * rows[col][k]
        return det if sign == 1 else -det

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n).rows
        aug = Matrix(self.field, [self.rows[i] + ident[i] for i in range(n)])
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return Matrix._from_scalars(self.field, tuple(r[n:] for r in red.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return "Matrix(%r)" % (
            [[str(c) for c in r] for r in self.rows],
        )


class SubspaceBasis:
    """A subspace of F^n held by its canonical reduced row echelon basis."""

    __slots__ = ("field", "ambient", "vectors")

    def __init__(self, field, ambient, vectors):
        self.field = field
        self.ambient = ambient
        self.vectors = tuple(tuple(v) for v in vectors)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        space = RowSpace(field, ambient)
        for v in vectors:
            space.insert(list(v))
        return cls(field, ambient, space.rows())

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field, ambient):
        return cls.from_vectors(
            field, ambient, Matrix.identity(field, ambient).rows
        )

    @property
    def dim(self):
        return len(self.vectors)

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ambient

    def _space(self):
        return RowSpace.from_rref(self.field, self.ambient, self.vectors)

    def contains_vector(self, v):
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        return self._space().contains(list(v))

    def contains(self, other):
        self._check_ambient(other)
        space = self._space()
        return all(space.contains(list(v)) for v in other.vectors)

    def sum(self, other):
        self._check_ambient(other)
        return SubspaceBasis.from_vectors(
            self.field, self.ambient, list(self.vectors) + list(other.vectors)
        )

    def intersect(self, other):
        """Zassenhaus: reduce [A|A] stacked on [B|0]; rows with zero left
        half carry an intersection basis in their right half."""
        self._check_ambient(other)
        n = self.ambient
        zero = self.field.zero
        stacked = [list(v) + list(v) for v in self.vectors]
        stacked += [list(v) + [zero] * n for v in other.vectors]
        space = RowSpace(self.field, 2 * n)
        for row in stacked:
            space.insert(row)
        out = [
            row[n:]
            for row in space.rows()
            if all(c == 0 for c in row[:n])
        ]
        return SubspaceBasis.from_vectors(self.field, n, out)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.vectors))

    def __iter__(self):
        return iter(self.vectors)

    def _check_ambient(self, other):
        if self.ambient != other.ambient or self.field != other.field:
            raise ValueError("subspaces live in different ambient spaces")

    def __repr__(self):
        return "SubspaceBasis(dim=%d, ambient=%d)" % (self.dim, self.ambient)


def nullspace_of(field, ncols, rows):
    """Canonical RREF basis of {v : r . v = 0 for every row r}, from one
    elimination of the rows with their columns reversed.

    Read off the RREF of the rows as they are, the null vector of a free
    column f can lead at a pivot column left of f, so those vectors need
    a second elimination to be canonical.  Reversed columns avoid it.
    Let A' be the RREF of the reversed rows, P' its pivot columns and F'
    its free columns.  For each f in F' the vector
    u_f = e_f - sum_i A'[i][f] e_{p'_i} is null, and as A'[i][f] is zero
    unless p'_i < f, its last nonzero entry is the 1 at f; on F' it is
    e_f.  Reversed back, u_f has its first nonzero entry, 1, at column
    ncols - 1 - f, and every other reversed u vanishes there: the
    reversed u_f, taken by decreasing f, already are the canonical RREF
    basis, so no second elimination is needed.  The space is read only
    through ``rank``, ``rows()`` and ``pivots()``; insertion stops once
    the rank reaches ncols."""
    space = RowSpace(field, ncols)
    for row in rows:
        if space.insert(row[::-1]) and space.rank == ncols:
            break
    red, pivots = space.rows(), space.pivots()
    pivot_set = set(pivots)
    zero, one = field.zero, field.one
    vecs = []
    for f in reversed(range(ncols)):
        if f not in pivot_set:
            v = [zero] * ncols
            v[f] = one
            for row, pc in zip(red, pivots):
                if pc > f:
                    break
                c = row[f]
                if c:
                    v[pc] = -c
            vecs.append(v[::-1])
    return SubspaceBasis(field, ncols, vecs)


def matrix_algebra_closure(field, dim, generators):
    """Smallest subspace of d x d matrices containing the generators and
    closed under matrix product.  Returns (SubspaceBasis of flattened
    matrices, list of Matrix spanning it).

    The span is grown by one-sided generator products only: each new
    element is multiplied on the left by the linearly independent
    generators.  A span that contains the generators and is closed under
    left multiplication by them contains every word in them, so it is
    the whole closure.

    When the generators act irreducibly the closure reaches the full
    dim^2; that is the Burnside certificate used by the simplicity test.
    """
    full = dim * dim
    space = RowSpace(field, full)
    gens = []
    for g in generators:
        if g.nrows != dim or g.ncols != dim:
            raise ValueError("generator shape mismatch")
        if space.insert(list(g.flatten())):
            gens.append(g)
    fresh = list(gens)
    while fresh and space.rank < full:
        b = fresh.pop()
        for g in gens:
            prod = g @ b
            if space.insert(list(prod.flatten())):
                fresh.append(prod)
    sub = SubspaceBasis(field, full, space.rows())
    mats = [Matrix.from_flat(field, dim, dim, v) for v in sub.vectors]
    return sub, mats
