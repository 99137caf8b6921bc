"""Finite-dimensional n-ary algebras given by exact structure constants.

An algebra is a field, an arity n >= 2, a dimension d >= 1, a basis label
per coordinate and a sparse tensor mapping index tuples (i1, ..., in) to
the coordinate vector of the product of the corresponding basis elements.
Missing tuples mean the product is zero.

With ``symmetry="total"`` the tensor is constant on S_n-orbits: the
entered members of an orbit are compared, conflicting ones are rejected
at build time, and the orbit is filled once.  Checkers use the hint to
prune scans.

Ints are the storage of record, and the only int form of the tensor:
:meth:`NAryAlgebra.int_table` maps each index tuple to the nonzero
(coordinate, int) pairs of its product, coordinates increasing, residues
over GF(p) and over Q the tensor times one positive common denominator.
``build`` reads each scalar once, straight into those pairs, and the
scans and evaluations walk them.  The products of elements
(``multiply``, ``slot_product`` and the rows of ``right_operator``)
share one contraction that walks the product of their arguments'
supports with one lookup in the table per tuple, so a product of basis
elements costs one lookup and none walks the table; the Leibniz
witnesses of :mod:`nalg.checks` take it as ints, before it is boxed,
and R_x one row at a time.  The tensor in
field scalars, :attr:`NAryAlgebra.tensor`, is boxed from it on first
use.  The basis slot operators, R_x among them, are read off the same
pairs, as sparse int rows, by one owner (:meth:`NAryAlgebra.slot_operators`),
for the closures and commutators of the other modules.  ``reduce``
contracts the frozen slot in one pass, reading the reduced algebra's
pairs off the sums with no boxing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, prod

from .fields import Mod
from .linalg import Matrix


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


def _over_common_den(table):
    """(den, table times den) of a table of (coordinate, scalar) pairs,
    den the lcm of the table's denominators."""
    den = lcm(*{c.denominator for terms in table.values() for _, c in terms})
    if den > 1:
        table = {
            idx: tuple([(j, c.numerator * (den // c.denominator)) for j, c in terms])
            for idx, terms in table.items()
        }
    return den, table


def nonzero_terms(vec, p):
    """The nonzero (coordinate, int) pairs of a vector of ints, reduced
    mod p over GF(p) (p = 0 for Q)."""
    if p:
        return [(j, r) for j, v in enumerate(vec) if (r := v % p)]
    return [(j, v) for j, v in enumerate(vec) if v]


def format_terms(field, terms):
    """The linear combination of (name, scalar) pairs as text, zero
    scalars left out: ``name`` for one, ``-name`` for minus one, else
    ``scalar*name``, joined by " + ", or by " - " before a term that
    prints with a leading minus; "0" when no term is left."""
    one = field.one
    out = ""
    for name, c in terms:
        if c == 0:
            continue
        if c == one:
            part = name
        elif c == -one:
            part = "-" + name
        else:
            part = "%s*%s" % (field.format(c), name)
        if out:
            part = (" - " + part[1:]) if part.startswith("-") else (" + " + part)
        out += part
    return out or "0"


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
    def __init__(self, field, arity, dim, labels, tensor, symmetry, ints=None):
        """Either ``tensor`` in field scalars, or ``ints`` with ``tensor``
        None, the (den, table) of :meth:`int_table`."""
        self.field = field
        self.arity = arity
        self.dim = dim
        self.labels = tuple(labels)
        self.symmetry = symmetry
        self._zero_vec = tuple([field.zero] * dim)
        self._tensor = tensor
        self._ints = ints

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, field, arity, dim, entries, labels=None, symmetry="none"):
        """The algebra of ``entries``: index tuples to coordinate vectors,
        sequences or dicts from coordinate to whatever ``field.read`` takes."""
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

        read = field.read
        normalized = {}
        for idx, value in sorted(entries.items()):
            idx = tuple(map(int, idx))
            if len(idx) != arity:
                raise ValueError("index tuple %r has wrong length" % (idx,))
            if min(idx) < 0 or max(idx) >= dim:
                raise ValueError("index tuple %r out of range" % (idx,))
            if not isinstance(value, dict):
                value = list(value)
                if len(value) != dim:
                    raise ValueError("coordinate vector has wrong length")
                value = dict(enumerate(value))
            vec = {}
            for j, c in value.items():
                j = int(j)
                if j < 0 or j >= dim:
                    raise ValueError("coordinate index %d out of range" % j)
                vec[j] = read(c)
            if len(vec) != len(value):
                # keys such as "1" and "01" name the same coordinate
                seen = set()
                j = next(j for j in map(int, value) if j in seen or seen.add(j))
                raise ValueError("coordinate %d given twice for %r" % (j, idx))
            # the nonzero (coordinate, scalar) pairs, coordinates increasing
            vec = tuple(sorted([(j, c) for j, c in vec.items() if c]))
            if idx in normalized and normalized[idx] != vec:
                raise ValueError("conflicting entries for %r" % (idx,))
            normalized[idx] = vec

        if symmetry == "total":
            # the entered members of each orbit, in sorted order; the
            # orbit is walked once, with its first member's vector
            orbits = {}
            for idx, vec in sorted(normalized.items()):
                orbits.setdefault(tuple(sorted(idx)), []).append((idx, vec))
            clashes = [
                idx
                for members in orbits.values()
                for idx, vec in members
                if vec != members[0][1]
            ]
            if clashes:
                first = min(clashes)
                raise ValueError("entries for the orbit of %r disagree" % (first,))
            normalized = {
                p: members[0][1]
                for key, members in orbits.items()
                for p in distinct_permutations(key)
            }

        table = {idx: vec for idx, vec in normalized.items() if vec}
        ints = (1, table) if field.char else _over_common_den(table)
        return cls(field, arity, dim, labels, None, symmetry, ints=ints)

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
        return format_terms(self.field, zip(self.labels, el.coords))

    # -- products ---------------------------------------------------------

    @property
    def tensor(self):
        """The structure constants as field scalars, index tuple to
        coordinate vector: boxed from the int view on first use."""
        if self._tensor is None:
            den, table = self._ints
            self._tensor = {idx: self._box(terms, den) for idx, terms in table.items()}
        return self._tensor

    def int_table(self):
        """(den, table): the structure constants as plain ints.

        ``table`` maps each index tuple of a product to the nonzero
        (coordinate, int) pairs of its coordinates, coordinates
        increasing: residues in [1, p) over GF(p), where den is 1, and
        over Q the coordinates times den, the least positive common
        denominator of the whole table.  Equal pairs mean equal vectors.
        An expression of nesting depth k in the products then comes out
        den^k times its value, so zero tests and nullspaces read the same
        on the view.  An algebra made from field scalars reads them in on
        first use.
        """
        if self._ints is None:
            read = self.field.read
            table = {
                idx: tuple([(j, v) for j, c in enumerate(vec) if (v := read(c))])
                for idx, vec in self._tensor.items()
            }
            self._ints = (1, table) if self.field.char else _over_common_den(table)
        return self._ints

    def _box(self, terms, scale):
        """Field scalars of the vector whose (coordinate, int) pairs are
        ``terms``, zero ints allowed: over Q the ints divided by
        ``scale``, over GF(p) their residues."""
        p = self.field.char
        vec = list(self._zero_vec)
        for j, v in terms:
            if v % p if p else v:
                vec[j] = Mod(v, p) if p else Fraction(v, scale)
        return tuple(vec)

    def _supports(self, args):
        """(scale, supports) of elements or coordinate sequences: each
        argument's nonzero coordinates as (index, int) pairs, residues
        over GF(p), over Q times the lcm of their denominators, and the
        product of those lcms."""
        p, of = self.field.char, self.field.of
        scale, supports = 1, []
        for a in args:
            coords = a.coords if isinstance(a, Element) else self.element(a).coords
            if p:
                supports.append([(i, of(c).r) for i, c in enumerate(coords) if c])
                continue
            terms = [(i, c.numerator, c.denominator) for i, c in enumerate(coords) if c]
            s = lcm(*[q for _, _, q in terms])
            scale *= s
            supports.append([(i, n * (s // q)) for i, n, q in terms])
        return scale, supports

    def _int_contract(self, supports):
        """The product of the arguments whose nonzero (index, int) pairs
        are ``supports``, as d ints: over Q den times the arguments'
        scales times its coordinates, over GF(p) unreduced residues.
        Walks the product of the supports, one :meth:`int_table` lookup
        per tuple, so a product of basis elements costs one lookup."""
        get = self.int_table()[1].get
        acc = [0] * self.dim
        for combo in product(*supports):
            idx, cs = zip(*combo)
            terms = get(idx)
            if terms:
                c = prod(cs)
                for j, v in terms:
                    acc[j] += c * v
        return acc

    def _contract(self, scale, supports):
        """:meth:`_int_contract` boxed at ``scale`` times den."""
        acc = self._int_contract(supports)
        return self._box(enumerate(acc), scale * self.int_table()[0])

    def product_of_basis(self, idx):
        """Coordinate vector of the product of basis elements, zero default."""
        den, table = self.int_table()
        return self._box(table.get(tuple(idx), ()), den)

    def slot_product(self, idx, slot, vec):
        """Coordinate vector of the product of the basis elements indexed
        by ``idx`` with the vector ``vec`` in place of ``idx[slot]``."""
        scale, (pairs,) = self._supports([vec])
        supports = [((i, 1),) for i in idx]
        supports[slot] = pairs
        return self._contract(scale, supports)

    def multiply(self, *args):
        if len(args) != self.arity:
            raise ValueError(
                "expected %d arguments, got %d" % (self.arity, len(args))
            )
        return Element(self._contract(*self._supports(args)))

    def _int_right_operator(self, fixed):
        """(scale, rows): the operator of :meth:`right_operator` as d
        sparse int rows of nonzero (coordinate, int) pairs, residues over
        GF(p), over Q the operator times ``scale``: row j is
        :meth:`_int_contract` of e_j with the fixed arguments."""
        if len(fixed) != self.arity - 1:
            raise ValueError("expected %d fixed arguments" % (self.arity - 1))
        scale, supports = self._supports(fixed)
        p = self.field.char
        rows = [
            nonzero_terms(self._int_contract([((j, 1),), *supports]), p)
            for j in range(self.dim)
        ]
        return scale * self.int_table()[0], rows

    def right_operator(self, fixed):
        """Matrix of z |-> product(z, x2, ..., xn) acting on row vectors."""
        scale, rows = self._int_right_operator(fixed)
        rows = tuple(self._box(row, scale) for row in rows)
        return Matrix._from_scalars(self.field, rows)

    def d_operator(self, xs, ys):
        """Commutator [R_xs, R_ys] of two right-multiplication operators."""
        rx = self.right_operator(xs)
        ry = self.right_operator(ys)
        return rx @ ry - ry @ rx

    # -- transforms -------------------------------------------------------

    def symmetrize(self):
        """Sum of the product over all argument orderings, a totally
        commutative algebra on the same space.  Each entry of the table is
        walked once: the orderings of a sorted tuple hit each distinct
        rearrangement once per permutation of its repeated indices, so an
        entry counts at its sorted tuple times the product of the
        factorials of its multiplicities, and ``build`` fills the orbits."""
        den, table = self.int_table()
        acc = {}
        for idx, terms in table.items():
            w = prod(factorial(m) for m in Counter(idx).values())
            vec = acc.setdefault(tuple(sorted(idx)), [0] * self.dim)
            for j, v in terms:
                vec[j] += w * v
        entries = {idx: self._box(enumerate(vec), den) for idx, vec in acc.items()}
        return self.build(
            self.field, self.arity, self.dim, entries, self.labels, "total"
        )

    def scale(self, c):
        c = self.field.of(c)
        entries = {idx: [c * v for v in vec] for idx, vec in self.tensor.items()}
        return self.build(
            self.field, self.arity, self.dim, entries, self.labels, self.symmetry
        )

    def reduce(self, position, a):
        """Freeze one argument slot (1-based) at the element ``a``; the
        result is an (n-1)-ary algebra on the same space.  The frozen slot
        is contracted with ``a`` in one pass over :meth:`int_table`, and
        the result's int view is read off the sums as they are."""
        if self.arity < 3:
            raise ValueError("reduction needs arity at least 3")
        if not 1 <= position <= self.arity:
            raise ValueError("slot must be in 1..%d" % self.arity)
        s, (pairs,) = self._supports([a])
        coords = dict(pairs)
        slot = position - 1
        den, table = self.int_table()
        acc = {}
        for idx, terms in table.items():
            c = coords.get(idx[slot])
            if c:
                vec = acc.setdefault(idx[:slot] + idx[slot + 1 :], [0] * self.dim)
                for j, v in terms:
                    vec[j] += c * v
        # the sums are s * den times the products, whose least common
        # denominator over Q is s * den over g; over GF(p) s * den = g = 1
        g = gcd(s * den, *[v for vec in acc.values() for v in vec])
        p = self.field.char
        table = {}
        for idx, vec in sorted(acc.items()):
            terms = nonzero_terms([v // g for v in vec], p)
            if terms:
                table[idx] = tuple(terms)
        symmetry = "total" if self.symmetry == "total" else "none"
        ints = (s * den // g, table)
        return NAryAlgebra(
            self.field, self.arity - 1, self.dim, self.labels, None, symmetry, ints
        )

    def slot_operators(self, slot, rests):
        """Yield v |-> product(..., v, ...), v in ``slot``, for the basis
        elements of each tuple of ``rests`` in the other slots (slot 0
        gives the R_x), as d sparse int rows: row j the (coordinate, int)
        pairs of the product with e_j in the slot, off :meth:`int_table`."""
        get = self.int_table()[1].get
        for rest in rests:
            head, tail = rest[:slot], rest[slot:]
            yield [get(head + (j,) + tail, ()) for j in range(self.dim)]

    def slot_multiplication_operators(self):
        """Every :meth:`slot_operators`, slot-major, then lexicographic."""
        rests = list(product(range(self.dim), repeat=self.arity - 1))
        return [op for s in range(self.arity) for op in self.slot_operators(s, rests)]

    def is_zero_algebra(self):
        return not self.int_table()[1]

    # -- equality ---------------------------------------------------------

    def __eq__(self, other):
        """Exact structural equality: same field, arity, dimension and
        tensor.  Labels and the symmetry hint are presentation only."""
        return (
            isinstance(other, NAryAlgebra)
            and self.field == other.field
            and self.arity == other.arity
            and self.dim == other.dim
            and self.int_table() == other.int_table()
        )

    def __hash__(self):
        return hash(
            (self.field, self.arity, self.dim, tuple(sorted(self.int_table()[1])))
        )

    def __repr__(self):
        return "NAryAlgebra(arity=%d, dim=%d, field=%r)" % (
            self.arity,
            self.dim,
            self.field,
        )


def algebras_equal(a, b):
    return a == b
