"""Finite-dimensional n-ary algebras given by exact structure constants.

An algebra is a field, an arity n >= 2, a dimension d >= 1, a basis label
per coordinate and a sparse tensor mapping index tuples (i1, ..., in) to
the coordinate vector of the product of the corresponding basis elements.
Missing tuples mean the product is zero.

With ``symmetry="total"`` the tensor is constant on S_n-orbits: each
entered representative populates its whole orbit and conflicting entries
are rejected at build time.  Checkers use the hint to prune scans.

The identity scans and the Leibniz system contract an integer view of
the same tensor, :meth:`NAryAlgebra.int_table`, built on first use and
cached: residues over GF(p), and over Q the tensor times one positive
common denominator.  Its nonzero entries, :meth:`NAryAlgebra.int_terms`,
are cached beside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import lcm


def distinct_permutations(items):
    """Every distinct rearrangement of a tuple, once each, in
    lexicographic order: next-permutation steps from the sorted tuple
    (Knuth, TAOCP 7.2.1.2, Algorithm L).  An index tuple with repeated
    entries costs the size of its orbit, not n!."""
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


@dataclass(frozen=True)
class Element:
    """Coordinate vector of an algebra element in the fixed basis."""

    coords: tuple

    def __add__(self, other):
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(tuple(-a for a in self.coords))

    def scale(self, c):
        return Element(tuple(c * a for a in self.coords))

    def is_zero(self):
        return all(a == 0 for a in self.coords)


class NAryAlgebra:
    def __init__(self, field, arity, dim, labels, tensor, symmetry):
        self.field = field
        self.arity = arity
        self.dim = dim
        self.labels = tuple(labels)
        self.tensor = tensor
        self.symmetry = symmetry
        self._zero_vec = tuple([field.zero] * dim)
        self._ints = None
        self._terms = None

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, field, arity, dim, entries, labels=None, symmetry="none"):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if symmetry not in ("none", "total"):
            raise ValueError("symmetry must be 'none' or 'total'")
        if labels is None:
            labels = ["b%d" % (i + 1) for i in range(dim)]
        labels = [str(l) for l in labels]
        if len(labels) != dim:
            raise ValueError("expected %d labels, got %d" % (dim, len(labels)))
        if len(set(labels)) != dim:
            raise ValueError("duplicate basis labels")

        normalized = {}
        for idx, value in sorted(entries.items()):
            idx = tuple(int(i) for i in idx)
            if len(idx) != arity:
                raise ValueError("index tuple %r has wrong length" % (idx,))
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError("index tuple %r out of range" % (idx,))
            vec = cls._coerce_vector(field, dim, value)
            if idx in normalized and normalized[idx] != vec:
                raise ValueError("conflicting entries for %r" % (idx,))
            normalized[idx] = vec

        if symmetry == "total":
            filled = {}
            for idx, vec in sorted(normalized.items()):
                for p in distinct_permutations(idx):
                    if p in filled and filled[p] != vec:
                        raise ValueError(
                            "entries for the orbit of %r disagree" % (idx,)
                        )
                    filled[p] = vec
            normalized = filled

        tensor = {
            idx: vec
            for idx, vec in normalized.items()
            if any(c != 0 for c in vec)
        }
        return cls(field, arity, dim, labels, tensor, symmetry)

    @staticmethod
    def _coerce_vector(field, dim, value):
        if isinstance(value, dict):
            vec = [field.zero] * dim
            for j, c in value.items():
                j = int(j)
                if j < 0 or j >= dim:
                    raise ValueError("coordinate index %d out of range" % j)
                vec[j] = field.of(c)
            return tuple(vec)
        vec = tuple(field.of(c) for c in value)
        if len(vec) != dim:
            raise ValueError("coordinate vector has wrong length")
        return vec

    # -- elements ---------------------------------------------------------

    def element(self, coords):
        vec = tuple(self.field.of(c) for c in coords)
        if len(vec) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        return Element(vec)

    def basis_element(self, i):
        if not 0 <= i < self.dim:
            raise ValueError("basis index out of range")
        vec = [self.field.zero] * self.dim
        vec[i] = self.field.one
        return Element(tuple(vec))

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def zero_element(self):
        return Element(self._zero_vec)

    def by_label(self, label):
        try:
            return self.basis_element(self.labels.index(label))
        except ValueError:
            raise ValueError("no basis element labelled %r" % label) from None

    def format_element(self, el):
        parts = []
        one = self.field.one
        for j, c in enumerate(el.coords):
            if c == 0:
                continue
            if c == one:
                parts.append(self.labels[j])
            elif c == -one:
                parts.append("-" + self.labels[j])
            else:
                parts.append("%s*%s" % (self.field.format(c), self.labels[j]))
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    # -- products ---------------------------------------------------------

    def int_table(self):
        """(den, table): the structure constants as plain ints.

        ``table`` maps each index tuple of :attr:`tensor` to its
        coordinates as ints: residues in [0, p) over GF(p), where den is
        1, and over Q the coordinates times den, the least positive
        common denominator of the whole tensor.  An expression of nesting
        depth k in the products then comes out den^k times its value, so
        zero tests and nullspaces read the same on the view.  Built on
        first use and cached.
        """
        if self._ints is None:
            if self.field.char:
                den = 1
                table = {
                    idx: tuple([c.r for c in vec]) for idx, vec in self.tensor.items()
                }
            else:
                den = lcm(
                    *{c.denominator for vec in self.tensor.values() for c in vec}
                )
                table = {
                    idx: tuple([c.numerator * (den // c.denominator) for c in vec])
                    for idx, vec in self.tensor.items()
                }
            self._ints = (den, table)
        return self._ints

    def int_terms(self):
        """The nonzero entries of :meth:`int_table`: each index tuple of the
        table to its (coordinate, int) pairs in coordinate order.  Scans
        and evaluations walk these instead of the d coordinates of each
        vector.  Built on first use and cached."""
        if self._terms is None:
            self._terms = {
                idx: tuple([(j, v) for j, v in enumerate(vec) if v])
                for idx, vec in self.int_table()[1].items()
            }
        return self._terms

    def product_of_basis(self, idx):
        """Coordinate vector of the product of basis elements, zero default."""
        return self.tensor.get(tuple(idx), self._zero_vec)

    def slot_product(self, idx, slot, vec):
        """Coordinate vector of the product of the basis elements indexed
        by ``idx`` with the vector ``vec`` in place of ``idx[slot]``."""
        acc = list(self._zero_vec)
        for k, c in enumerate(vec):
            if c != 0:
                w = self.product_of_basis(idx[:slot] + (k,) + idx[slot + 1 :])
                for j, v in enumerate(w):
                    if v != 0:
                        acc[j] = acc[j] + c * v
        return tuple(acc)

    def multiply(self, *args):
        if len(args) != self.arity:
            raise ValueError(
                "expected %d arguments, got %d" % (self.arity, len(args))
            )
        args = [a if isinstance(a, Element) else self.element(a) for a in args]
        acc = list(self._zero_vec)
        for idx, vec in self.tensor.items():
            c = self.field.one
            zero = False
            for s, i in enumerate(idx):
                a = args[s].coords[i]
                if a == 0:
                    zero = True
                    break
                c = c * a
            if zero:
                continue
            for j, v in enumerate(vec):
                if v != 0:
                    acc[j] = acc[j] + c * v
        return Element(tuple(acc))

    def right_operator(self, fixed):
        """Matrix of z |-> product(z, x2, ..., xn) acting on row vectors."""
        from .linalg import Matrix

        fixed = tuple(
            a if isinstance(a, Element) else self.element(a) for a in fixed
        )
        if len(fixed) != self.arity - 1:
            raise ValueError("expected %d fixed arguments" % (self.arity - 1))
        rows = [
            self.multiply(self.basis_element(j), *fixed).coords
            for j in range(self.dim)
        ]
        return Matrix(self.field, rows)

    def d_operator(self, xs, ys):
        """Commutator [R_xs, R_ys] of two right-multiplication operators."""
        rx = self.right_operator(xs)
        ry = self.right_operator(ys)
        return rx @ ry - ry @ rx

    # -- transforms -------------------------------------------------------

    def symmetrize(self):
        """Sum of the product over all argument orderings, a totally
        commutative algebra on the same space."""
        entries = {}
        for idx in product(range(self.dim), repeat=self.arity):
            acc = None
            for p in permutations(range(self.arity)):
                vec = self.tensor.get(tuple(idx[k] for k in p))
                if vec is not None:
                    if acc is None:
                        acc = list(self._zero_vec)
                    for j, c in enumerate(vec):
                        acc[j] = acc[j] + c
            if acc is not None and any(c != 0 for c in acc):
                entries[idx] = tuple(acc)
        return NAryAlgebra(
            self.field, self.arity, self.dim, self.labels, entries, "total"
        )

    def scale(self, c):
        c = self.field.of(c)
        entries = {
            idx: tuple(c * v for v in vec) for idx, vec in self.tensor.items()
        }
        entries = {
            idx: vec for idx, vec in entries.items() if any(v != 0 for v in vec)
        }
        return NAryAlgebra(
            self.field, self.arity, self.dim, self.labels, entries, self.symmetry
        )

    def reduce(self, position, a):
        """Freeze one argument slot (1-based) at the element ``a``; the
        result is an (n-1)-ary algebra on the same space."""
        if self.arity < 3:
            raise ValueError("reduction needs arity at least 3")
        if not 1 <= position <= self.arity:
            raise ValueError("slot must be in 1..%d" % self.arity)
        a = a if isinstance(a, Element) else self.element(a)
        entries = {}
        for idx in product(range(self.dim), repeat=self.arity - 1):
            args = [self.basis_element(i) for i in idx]
            args.insert(position - 1, a)
            vec = self.multiply(*args).coords
            if any(c != 0 for c in vec):
                entries[idx] = vec
        return NAryAlgebra(
            self.field,
            self.arity - 1,
            self.dim,
            self.labels,
            entries,
            "total" if self.symmetry == "total" else "none",
        )

    def slot_multiplication_operators(self):
        """All operators v |-> product(..., v, ...) with basis elements in
        the remaining slots; slot-major, then tuple-lexicographic order."""
        from .linalg import Matrix

        ops = []
        for slot in range(self.arity):
            for rest in product(range(self.dim), repeat=self.arity - 1):
                rows = []
                for j in range(self.dim):
                    idx = rest[:slot] + (j,) + rest[slot:]
                    rows.append(self.product_of_basis(idx))
                ops.append(Matrix(self.field, rows))
        return ops

    def is_zero_algebra(self):
        return not self.tensor

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        """Exact structural equality: same field, arity, dimension and
        tensor.  Labels and the symmetry hint are presentation only."""
        return (
            isinstance(other, NAryAlgebra)
            and self.field == other.field
            and self.arity == other.arity
            and self.dim == other.dim
            and self.tensor == other.tensor
        )

    def __hash__(self):
        return hash(
            (self.field, self.arity, self.dim, tuple(sorted(self.tensor)))
        )

    def __repr__(self):
        return "NAryAlgebra(arity=%d, dim=%d, field=%r)" % (
            self.arity,
            self.dim,
            self.field,
        )


def algebras_equal(a, b):
    return a == b
