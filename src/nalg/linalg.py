"""Exact linear algebra over the scalar types of :mod:`nalg.fields`.

Everything here is deterministic: row reduction always picks the first
nonzero entry in column order as pivot, and every subspace is stored in
reduced row echelon form (pivots 1, pivot columns increasing, zero rows
dropped), so two equal subspaces produce bit-identical bases.

The elimination kernel, ``RowSpace``, holds each row as a sparse map
from column to nonzero plain int: residues mod p over GF(p), primitive
integer rows eliminated fraction-free over Q.  An incoming row is reduced
only at the pivot columns it holds, so the work follows the nonzeros, not
the width.  Fractions and Mods are made only when rows are handed back.
``insert``, ``contains`` and ``spin`` coerce each row they are given
once, so callers hand rows over as they are; ``spin`` eliminates the
images of its maps as they come, and ``insert_ints`` takes a row already
in the kernel's form uncoerced.  A ``SubspaceBasis`` read off a kernel
keeps its int rows for later membership and containment tests, and
makes its field-scalar vectors only when they are read.

A nullspace, :func:`nullspace_of`, takes one elimination: the rows go in
with their columns reversed, and the null vectors read off that RREF are,
reversed back, already the canonical RREF basis of the nullspace.

Operators act on row vectors from the right, ``v |-> v @ M``; row ``i`` of
an operator matrix is the image of the ``i``-th basis vector.  Composition
"first M then N" is therefore the plain matrix product ``M @ N``.  The
closures hold an operator as ints too: d sparse rows, row ``i`` the
(column, int) pairs of the image of the ``i``-th basis vector, residues
over GF(p) and over Q the operator times any one nonzero scale, which
changes no span.  ``RowSpace.spin`` closes a span under maps from a
sparse int row to its image: :func:`operator_map` makes one of such an
operator, :func:`column_map` of a permutation of the columns.
:func:`int_commutator` is the commutator of two such operators as one
sparse int row over the d^2 entries, row-major, built from their
supports alone.  Each job on an operator has one owner:
:func:`int_operator` reads a ``Matrix`` into (scale, that flat row),
:func:`split_rows` splits a flat row into d sparse rows, and
:func:`int_commutators` walks the pairs of a list of operators.
``matrix_algebra_closure`` takes ``Matrix`` generators or int operators
and returns its closure in field scalars.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
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


def _unit_normal(row, lead, p):
    """A sparse int row whose first entry is ``lead``, times the unit that
    makes its lead 1 over GF(p), and over Q divided by the gcd of its
    entries with the lead made positive."""
    if p:
        scale = pow(lead, -1, p)
        return row if scale == 1 else {k: c * scale % p for k, c in row.items()}
    g = gcd(*row.values()) if lead > 0 else -gcd(*row.values())
    return row if g == 1 else {k: c // g for k, c in row.items()}


class RowSpace:
    """A growing row space kept in reduced row echelon form.

    Each row is a sparse map from column to nonzero int.  Over GF(p) a
    row holds residues in [1, p) and its pivot entry is 1.  Over Q a row
    is the RREF row times the lcm of its denominators: a primitive
    integer row with a positive pivot entry, eliminated fraction-free.
    A row is reduced only at the pivot columns it holds on entry: a
    stored row is zero at every other pivot column, so eliminating with
    it leaves the entries there as they are.  Field scalars appear only
    at the edges: ``insert`` and ``contains`` take a row of whatever
    ``field.of`` takes, plain-int rows without boxing them, either as a
    list of ``ncols`` entries or as a dict from column to entry; ``rows``
    and ``terms`` hand back Fractions or Mods.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._p = field.char  # 0 over Q
        self._pivots = []  # pivot columns, increasing
        self._at = {}  # pivot column -> its row, {column: nonzero int}

    @classmethod
    def from_rref(cls, field, ncols, rows):
        """The span of rows that already are a canonical RREF basis."""
        space = cls(field, ncols)
        pivots, at = space._pivots, space._at
        for given in rows:
            row = space._sparse(given)
            pc = min(row, default=-1)
            if pc < 0 or (pivots and pc <= pivots[-1]):
                raise ValueError("rows are not in row echelon form")
            # over Q the int row has lost the row's scale: the pivot is
            # read off the row as given
            if field.of(given[pc]) != 1:
                raise ValueError("rows are not in reduced row echelon form")
            pivots.append(pc)
            at[pc] = row
        # reducing at the pivot columns a row holds is right when every
        # row is zero at the other pivots
        for row in at.values():
            if len(row.keys() & at.keys()) > 1:
                raise ValueError("rows are not in reduced row echelon form")
        return space

    @property
    def rank(self):
        return len(self._pivots)

    def _sparse(self, row):
        """A row given densely, or as a dict from column to entry, as a
        fresh sparse int row."""
        n = self.ncols
        if isinstance(row, dict):
            if row and not 0 <= min(row) <= max(row) < n:
                raise ValueError("columns must lie in range(%d)" % n)
            cols, row = list(row), list(row.values())
        elif len(row) != n:
            raise ValueError("expected %d entries, got %d" % (n, len(row)))
        else:
            cols = range(n)
        return {k: c for k, c in zip(cols, int_row(self.field, row)) if c}

    def _eliminate(self, row, prow, pc):
        """row with its entry in column pc cleared by prow, whose pivot
        column is pc; row may be changed in place."""
        c = row[pc]
        get = row.get
        if self._p:
            p = self._p
            for k, y in prow.items():
                x = (get(k, 0) - c * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
            return row
        a = prow[pc]
        g = gcd(a, c)
        a, c = a // g, c // g
        if a != 1:
            row = {k: a * x for k, x in row.items()}
            get = row.get
        for k, y in prow.items():
            x = get(k, 0) - c * y
            if x:
                row[k] = x
            else:
                del row[k]
        g = gcd(*row.values())
        return {k: x // g for k, x in row.items()} if g > 1 else row

    def _reduce(self, row):
        at = self._at
        for pc in row.keys() & at.keys():
            row = self._eliminate(row, at[pc], pc)
        return row

    def insert(self, row):
        """Add one vector; returns True when it enlarged the space."""
        return self.insert_ints(self._sparse(row))

    def insert_ints(self, row):
        """``insert`` for a row already on the int view, with no coercion:
        a dict from column in range(ncols) to nonzero int, residues in
        [1, p) over GF(p), over Q the row times any nonzero scale.  The
        row may be changed in place."""
        row = self._reduce(row)
        if not row:
            return False
        pc = min(row)
        row = _unit_normal(row, row[pc], self._p)
        pivots, at = self._pivots, self._at
        k = bisect_left(pivots, pc)
        # only rows with an earlier pivot can hold an entry at pc
        for q in pivots[:k]:
            prow = at[q]
            if pc in prow:
                at[q] = self._eliminate(prow, row, pc)
        pivots.insert(k, pc)
        at[pc] = row
        return True

    def contains(self, row):
        return not self._reduce(self._sparse(row))

    def spin(self, rows, maps=()):
        """Insert the rows and close their span under the maps, as the
        spinning step of the MeatAxe closes a submodule under generators
        (Parker, *The computer calculation of modular characters*, 1984).
        Rows are given as ``insert`` takes them, and each is coerced once.
        A map takes a sparse int row, a dict from column to nonzero int,
        to its image up to a nonzero scale in the kernel's own form, a
        fresh such dict with residues in [1, p) over GF(p), which goes to
        the elimination uncoerced: :func:`operator_map` and
        :func:`column_map` make them.

        A row that enlarges the space is pushed; until the stack is empty,
        a row is popped and mapped by each map in turn, and each image
        that enlarges the space is pushed.  The span W of the rows that
        enlarged the space then holds the rows and the images of its own
        spanning rows, so it is closed under the maps, and under every
        product of them: W is the span of every image of the rows under
        the algebra the maps generate.  Each row is closed before the
        next is read, so the rank reaches its final value as early as it
        can: insertion stops once it reaches ncols, and the rows left are
        never read.
        """
        n = self.ncols
        for row in rows:
            row = self._sparse(row)
            if not self.insert_ints(dict(row) if maps else row):
                continue
            fresh = [row] if maps else ()
            while fresh and self.rank < n:
                row = fresh.pop()
                for apply in maps:
                    image = apply(row)
                    if self.insert_ints(dict(image)):
                        fresh.append(image)
            if self.rank == n:
                return

    def includes(self, other):
        """Whether every row of the RowSpace ``other`` lies in this space."""
        return not any(self._reduce(dict(row)) for row in other._at.values())

    def terms(self):
        """The rows in pivot order, each as its nonzero (column, scalar)
        pairs in column order."""
        if self._p:
            p = self._p
            return [
                [(k, Mod(c, p)) for k, c in sorted(self._at[pc].items())]
                for pc in self._pivots
            ]
        out = []
        for pc in self._pivots:
            row = self._at[pc]
            a = row[pc]
            out.append([(k, Fraction(c, a)) for k, c in sorted(row.items())])
        return out

    def rows(self):
        zero, n = self.field.zero, self.ncols
        out = []
        for terms in self.terms():
            row = [zero] * n
            for k, c in terms:
                row[k] = c
            out.append(row)
        return out

    def pivots(self):
        return list(self._pivots)

    def reversed_annihilator(self):
        """A RowSpace spanning {v : r . v' = 0 for every row r}, where v'
        is v with its columns reversed, read off this RREF with no
        elimination (see :func:`nullspace_of`)."""
        n, p, at = self.ncols, self._p, self._at
        # each free column, with the (pivot, entry) pairs of the rows
        # that hold an entry there; a row holds no other pivot
        hits = {}
        for pc in self._pivots:
            for k, c in at[pc].items():
                if k != pc:
                    hits.setdefault(k, []).append((pc, c))
        out = RowSpace(self.field, n)
        last = n - 1
        for f in reversed(range(n)):
            if f in at:
                continue
            pairs = hits.get(f, ())
            if p:
                row = {last - f: 1}
                for pc, c in pairs:
                    row[last - pc] = p - c
            else:
                scale = lcm(*[at[pc][pc] for pc, _ in pairs])
                row = {last - f: scale}
                for pc, c in pairs:
                    row[last - pc] = -c * (scale // at[pc][pc])
                row = _unit_normal(row, scale, 0)
            out._pivots.append(last - f)
            out._at[last - f] = row
        return out


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
    """A subspace of F^n held by its canonical reduced row echelon basis.

    A basis read off a kernel keeps that kernel's int rows, so membership
    and containment reduce ints against ints, and its dimension is the
    kernel's rank; its vectors are boxed on first use.  Any other basis
    builds its kernel from its vectors on first use.
    """

    __slots__ = ("field", "ambient", "_vectors", "_kernel")

    def __init__(self, field, ambient, vectors):
        self.field = field
        self.ambient = ambient
        self._vectors = tuple(tuple(v) for v in vectors)
        self._kernel = None

    @classmethod
    def of_kernel(cls, space):
        """The span of a RowSpace, which must not grow afterwards.  Its
        vectors are read off the kernel on first use."""
        basis = object.__new__(cls)
        basis.field = space.field
        basis.ambient = space.ncols
        basis._vectors = None
        basis._kernel = space
        return basis

    @property
    def vectors(self):
        if self._vectors is None:
            self._vectors = tuple(tuple(v) for v in self._kernel.rows())
        return self._vectors

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        space = RowSpace(field, ambient)
        for v in vectors:
            space.insert(list(v))
        return cls.of_kernel(space)

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
        if self._vectors is None:
            return self._kernel.rank
        return len(self._vectors)

    def is_zero(self):
        return self.dim == 0

    def is_full(self):
        return self.dim == self.ambient

    def _space(self):
        if self._kernel is None:
            self._kernel = RowSpace.from_rref(self.field, self.ambient, self._vectors)
        return self._kernel

    def terms(self):
        """The basis vectors, each as its nonzero (position, scalar) pairs."""
        return self._space().terms()

    def contains_vector(self, v):
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        return self._space().contains(list(v))

    def contains(self, other):
        self._check_ambient(other)
        return self._space().includes(other._space())

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


def column_map(moves):
    """The map of sparse int rows that sends column k to ``moves[k]``,
    for ``RowSpace.spin``; ``moves`` is a permutation of the columns."""
    return lambda row: {moves[k]: c for k, c in row.items()}


def operator_map(op, p):
    """The map ``v |-> v @ op`` of sparse int rows, for ``RowSpace.spin``.
    ``op`` is an operator as sparse int rows (see the module docstring)
    and ``p`` the characteristic, 0 for Q.  Images are reduced mod p;
    over Q their content is divided out, so that rows spun under words
    in the operators keep the size of their primitive form instead of
    growing with the word length."""

    def apply(row):
        acc = {}
        get = acc.get
        for i, c in row.items():
            for j, v in op[i]:
                acc[j] = get(j, 0) + c * v
        if p:
            return {j: r for j, x in acc.items() if (r := x % p)}
        g = gcd(*acc.values())
        return {j: x // g for j, x in acc.items() if x}

    return apply


def int_commutator(a, b, p):
    """AB - BA of two d x d operators given as sparse int rows, as one
    sparse int row over the d * d entries: a dict from the row-major
    position i * d + j to the nonzero int there, residues in [1, p) over
    GF(p) (p = 0 for Q).  Only the supports of the two operators are
    walked, and a zero commutator is an empty dict."""
    d = len(a)
    acc = {}
    get = acc.get
    # compress picks out the nonempty rows without a loop over all d
    for i in compress(range(d), a):
        base = i * d
        for k, c in a[i]:
            for j, v in b[k]:
                q = base + j
                acc[q] = get(q, 0) + c * v
    for i in compress(range(d), b):
        base = i * d
        for k, c in b[i]:
            for j, v in a[k]:
                q = base + j
                acc[q] = get(q, 0) - c * v
    if p:
        return {q: r for q, x in acc.items() if (r := x % p)}
    return {q: x for q, x in acc.items() if x}


def int_commutators(ops, p):
    """Yield (a, b, [A_a, A_b]) for the pairs a < b of operators ``ops``,
    as sparse int rows, whose :func:`int_commutator` is nonzero, in
    lexicographic order; no zero operator is paired.  The first pairs are
    formed as ``ops`` is read, so a caller that stops early reads few."""
    held = []  # (index, operator) of the nonzero operators read so far
    for b, y in enumerate(ops):
        if any(y):
            if held and (op := int_commutator(held[0][1], y, p)):
                yield held[0][0], b, op
            held.append((b, y))
    for i, (a, x) in enumerate(held[1:], 2):
        for b, y in held[i:]:
            if op := int_commutator(x, y, p):
                yield a, b, op


def int_operator(field, dim, m):
    """(scale, op) of a d x d ``Matrix``: ``op`` its entries as one sparse
    int row over the d^2 entries, row-major, residues over GF(p) with
    scale 1, and over Q the entries times ``scale``, the lcm of their
    denominators.  ValueError when the matrix is not d x d."""
    if m.nrows != dim or m.ncols != dim:
        raise ValueError("expected a %dx%d operator" % (dim, dim))
    entries = [field.of(c) for c in m.flatten()]
    if field.char:
        return 1, {q: c.r for q, c in enumerate(entries) if c.r}
    scale = lcm(*[c.denominator for c in entries])
    return scale, {
        q: c.numerator * (scale // c.denominator) for q, c in enumerate(entries) if c
    }


def split_rows(op, dim):
    """The d sparse rows of an operator given as one sparse int row over
    its d^2 entries, row-major: row i a dict from column j to the entry
    at position i*d + j, in the order of ``op``."""
    rows = [{} for _ in range(dim)]
    for q, c in op.items():
        rows[q // dim][q % dim] = c
    return rows


def nullspace_of(field, ncols, rows, closed_under=()):
    """Canonical RREF basis of {v : r . v = 0 for every row r}, from one
    elimination of the rows with their columns reversed.  Rows are given
    as ``RowSpace.insert`` takes them.  With ``closed_under``, a list of
    column permutations as :func:`column_map` takes them, the rows are
    those of the span of the given ones closed under the permutations.

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
    basis, so no second elimination is needed.  The kernel reads the
    u_f off its int rows (``RowSpace.reversed_annihilator``), and the
    basis keeps them; insertion stops once the rank reaches ncols.  The
    permutations act on reversed rows conjugated by the reversal: one
    sending column k to moves[k] sends the reversed column last - k to
    last - moves[k]."""
    last = ncols - 1

    def reversed_rows():
        for row in rows:
            if isinstance(row, dict):
                yield {last - k: c for k, c in row.items()}
            else:
                yield row[::-1]

    maps = [column_map([last - k for k in reversed(moves)]) for moves in closed_under]
    space = RowSpace(field, ncols)
    space.spin(reversed_rows(), maps)
    return SubspaceBasis.of_kernel(space.reversed_annihilator())


def _flat_int_row(field, dim, g):
    """A generator of :func:`matrix_algebra_closure`, a ``Matrix`` or an
    operator as sparse int rows, flattened row-major to one sparse int
    row: a ``Matrix`` as :func:`int_operator` reads it."""
    if isinstance(g, Matrix):
        return int_operator(field, dim, g)[1]
    if len(g) != dim or any(not 0 <= j < dim for row in g for j, _ in row):
        raise ValueError("generator shape mismatch")
    return {i * dim + j: c for i, row in enumerate(g) for j, c in row}


def _left_multiplication(flat, dim):
    """The operator ``B |-> G @ B`` on flattened d x d matrices, as sparse
    int rows, from G flattened: row k*d + j, the image of the unit
    matrix E_kj, is column k of G placed in column j."""
    rows = [[] for _ in range(dim * dim)]
    for q, c in flat.items():
        i, k = divmod(q, dim)
        for j in range(dim):
            rows[k * dim + j].append((i * dim + j, c))
    return rows


def matrix_algebra_closure(field, dim, generators):
    """Smallest subspace of d x d matrices containing the generators and
    closed under matrix product.  Generators are ``Matrix``es or
    operators as sparse int rows (see the module docstring).  Returns
    (SubspaceBasis of flattened matrices, list of Matrix spanning it).

    Each generator is flattened once to a sparse int row, and the
    linearly independent ones are spun under left multiplication by
    themselves.  A span that contains the generators and is closed under
    left multiplication by them contains every word in them, so it is
    the whole closure.  A nonzero scale on a generator scales its words
    and changes no span.

    When the generators act irreducibly the closure reaches the full
    dim^2; that is the Burnside certificate used by the simplicity test.
    """
    full = dim * dim
    flats = [_flat_int_row(field, dim, g) for g in generators]
    independent = RowSpace(field, full)
    gens = [g for g in flats if independent.insert(g)]
    space = RowSpace(field, full)
    p = field.char
    space.spin(gens, [operator_map(_left_multiplication(g, dim), p) for g in gens])
    sub = SubspaceBasis.of_kernel(space)
    # the vectors already are tuples of field scalars: cut, not coerced
    cuts = range(0, full, dim)
    mats = [
        Matrix._from_scalars(field, tuple(v[i : i + dim] for i in cuts))
        for v in sub.vectors
    ]
    return sub, mats
