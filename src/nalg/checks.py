"""Decision procedures for identities of an n-ary algebra.

Basis-substitution lemma
------------------------
Every expression tested here (a commutativity defect, the Leibniz defect
of an operator commutator, the five-argument triple-system combination,
a coefficient of the cubic form of the Jordan identity) is multilinear
in each of its arguments: products are multilinear, operator application
is linear, and a right-multiplication operator depends linearly on each
entry of its defining tuple.  A multilinear map that vanishes on all
tuples of basis vectors vanishes on the whole algebra, so scanning basis
tuples decides each identity outright.  Scans run in lexicographic order
of the index tuples and report the first (hence smallest) failing
substitution.

Scans evaluate on the integer view of the structure constants,
:meth:`nalg.algebra.NAryAlgebra.int_table`: each product as its nonzero
(coordinate, int) pairs, residues over GF(p), and over Q the constants
times one common denominator den.  Equal pairs mean equal products, so
the symmetry scans compare them as they are.  Within one check every
term has the same nesting depth k in the products, so over Q each defect
is den^k times its true value and the zero tests read the same; over
GF(p) a value is reduced only where it is tested.

The Leibniz rule ``D(z1..zn) = sum_s (z1, ..., D z_s, ..., zn)`` is
evaluated in one place, :class:`LeibnizSystem`: the rule at each basis
tuple as integer linear forms in the entries of D, each kept once up to
a unit scale by one lazy walk of the tuples.  The walk packs the d forms
at a tuple into one int, a fixed-width slot per coefficient over the
rows of D that the tuple touches, from a few big-int adds; the slots are
sized by a bound on their sums, with residues over GF(p) packed as
symmetric representatives, and only a form whose raw bytes are new is
decoded and brought to its normal form.  The commutator check here,
and :func:`nalg.derivations.is_derivation` and
:func:`nalg.derivations.derivation_algebra`, all ask that system;
:func:`leibniz_sides` gives both sides at element arguments for
witnesses.  An operator is asked about as a sparse int row over its d^2
entries, row-major: a dict from position i*d + j to a nonzero int, as
:func:`nalg.linalg.int_operator` reads a ``Matrix`` or the pair walk
:func:`nalg.linalg.int_commutators` forms each nonzero commutator of the
R_x.  While the walk is running, an operator is tested against the forms
as they are found, so an early failure builds few; once the walk has
ended, the system indexes its forms by column, and an operator costs one
sparse product over its nonzero entries.  The commutator check tests
every nonzero commutator in scan order, and its first failure is the
witness.  Every scan runs serially.

Verdicts carry a witness that stores its kind and raw arguments.  Both
sides, as field scalars, come from one function of the kind and the
arguments, which every failing check here and in
:mod:`nalg.derivations` and :mod:`nalg.identities` calls at its first
failure and :func:`reevaluate_witness` calls to replay it: a witness
equals its replay by construction.  The sides of a Leibniz witness
(:func:`dxy_sides`, :func:`leibniz_sides`) are computed on the int view
too: R_x, R_y and their commutator as int rows, both sides contracted on
ints, and each side boxed once.  Over Q, with s_x, s_y and s_z the
products of the lcms of the denominators of the arguments x, y and z,
the sides for D = [R_x, R_y] come out s_x s_y s_z den^3 times their
values, and for a given operator, whose denominators have lcm L,
L s_z den times.  The sides of a Jordan witness are the int sums of the
scan, boxed once at den^3.  No check here makes a boxed ``Matrix``
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import (
    combinations_with_replacement,
    compress,
    islice,
    permutations,
    product,
)
from sys import byteorder

from .algebra import Element, distinct_permutations, nonzero_terms
from .linalg import _unit_normal, int_commutator, int_commutators, int_operator, split_rows


@dataclass(frozen=True)
class Witness:
    kind: str
    data: dict
    lhs: Element
    rhs: Element


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witness: Witness | None = None

    def __bool__(self):
        return self.passed


def _is_zero(vals, p):
    """Do the ints vanish in the field of characteristic p (0 for Q)?"""
    if p:
        return not any(c % p for c in vals)
    return not any(vals)


# -- total commutativity ---------------------------------------------------


def check_total_commutativity(alg):
    """Is the product invariant under every permutation of its arguments?

    An index tuple fails exactly when the product is not constant on its
    orbit under permutations, and an orbit that holds no entry of the
    table is constant.  So only the orbits of the table's entries are
    walked, each once by its distinct rearrangements, in lexicographic
    order of their sorted tuples.  A sorted tuple is the first of its
    orbit, so the first orbit that is not constant gives the first
    failing tuple of the lexicographic scan of all d^n tuples; it is
    reported with the first permutation, in lexicographic order, that
    changes its product.  The cost is the size of the orbits of the
    entries, not n! per tuple.
    """
    _, table = alg.int_table()
    get = table.get
    for idx in sorted({tuple(sorted(key)) for key in table}):
        base = get(idx)
        if all(get(t) == base for t in distinct_permutations(idx)):
            continue
        for p in islice(permutations(range(alg.arity)), 1, None):
            permuted = tuple(idx[k] for k in p)
            if get(permuted) != base:
                data = {
                    "args": tuple(alg.basis_element(i) for i in idx),
                    "permuted": tuple(alg.basis_element(i) for i in permuted),
                    "permutation": p,
                }
                return _failure(alg, "commutativity", data)
    return Verdict(True)


# -- the Leibniz rule ------------------------------------------------------


def _int_leibniz_sides(alg, op, scale, zs):
    """Both sides of the Leibniz rule at the elements ``zs`` for the
    operator ``op``, a dict from row-major position to nonzero int:
    residues over GF(p), over Q the operator times ``scale``.  Each side
    is contracted on the int view and boxed once."""
    if len(zs) != alg.arity:
        raise ValueError("expected %d arguments, got %d" % (alg.arity, len(zs)))
    d, p = alg.dim, alg.field.char
    s, supports = alg._supports(zs)
    rows = split_rows(op, d)

    def image(pairs):
        """The sparse int row ``pairs`` times the operator."""
        out = [0] * d
        for i, c in pairs:
            for j, v in rows[i].items():
                out[j] += c * v
        return nonzero_terms(out, p)

    lhs = image(nonzero_terms(alg._int_contract(supports), p))
    rhs = [0] * d
    for k in range(alg.arity):
        moved = list(supports)
        moved[k] = image(supports[k])
        for j, v in enumerate(alg._int_contract(moved)):
            rhs[j] += v
    # both sides are scale * s * den times their values over Q
    scale *= s * alg.int_table()[0]
    return Element(alg._box(lhs, scale)), Element(alg._box(enumerate(rhs), scale))


def leibniz_sides(alg, op, zs):
    """Both sides of the Leibniz rule for the operator ``op`` at the
    elements ``zs``: (op applied to the product, sum of products with op
    applied to one argument at a time).  The operator is read once into
    ints (:func:`nalg.linalg.int_operator`)."""
    scale, op = int_operator(alg.field, alg.dim, op)
    return _int_leibniz_sides(alg, op, scale, zs)


# marks each byte of a packed Leibniz buffer that is not 0x80, the byte of
# a zero slot
_NONZERO_BYTE = bytes(int(c != 0x80) for c in range(256))


def _basis_tuples(alg, length):
    """Basis index tuples in lexicographic order.  For a totally
    commutative product only sorted tuples: both sides of the Leibniz
    rule at z, and the operator R_x, are unchanged by reordering z or x."""
    if alg.symmetry == "total":
        return list(combinations_with_replacement(range(alg.dim), length))
    return list(product(range(alg.dim), repeat=length))


class LeibnizSystem:
    """The Leibniz rule ``D(z1..zn) = sum_s (z1, ..., D z_s, ..., zn)`` as
    linear forms in the d^2 entries of an operator D, flattened row-major.

    At each basis tuple z of ``ztuples``, in scan order, the forms are
    the coordinates of lhs - rhs, so all of them vanish exactly when D
    satisfies the rule at z.  Coefficients are ints from the algebra's int
    view: residues over GF(p), den times the true value over Q.  Forms
    equal up to a unit vanish on the same operators, so each is kept
    once, in the kernel's normal form up to a unit
    (``nalg.linalg._unit_normal``), with the position of its first
    appearance.  One lazy walk of ``ztuples`` finds them and keeps what it
    found: a scan that fails early builds few forms, and later scans of
    the same system reuse them.  Once the walk has ended, the forms are
    indexed by column for :meth:`first_failure`.

    The walk packs the d forms at a tuple into one int, a fixed-width
    slot per coefficient, laid out over only the rows of D that the tuple
    touches; the slot width comes from a bound on the slot sums, (n + 1)
    times the largest |c| over Q and times floor(p/2) over GF(p), whose
    residues are packed as symmetric representatives.  Raw bytes are
    compared before anything is decoded (:meth:`_walk_forms`).
    """

    def __init__(self, alg):
        self.alg = alg
        self.ztuples = _basis_tuples(alg, alg.arity)
        self._found = []  # (position, form), in order of first appearance
        self._walk = self._walk_forms()  # None once it has ended
        self._columns = None  # position -> [(form number, coefficient)]

    def _walk_forms(self):
        """Yield each form that is new up to a unit scale, as its sorted
        (entry position, int coefficient) pairs, with its position.

        The d forms at a tuple z are built as one packed int, with no
        per-entry dict work: SIMD within a register (Fisher & Dietz, LCPC
        1998), a slot of b bytes per coefficient.  They are zero outside
        the rows of D that z touches, R: the z_s and the coordinates of
        the product at z, at most r = min(d, n + width) of them, width the
        most terms of one product
        (read off the table as the walk starts).  So form k takes r*d
        slots from slot k*r*d, and its entry (R[m], j) is the slot
        k*r*d + m*d + j, R increasing; when r = d, R is all d rows, and
        no tuple works out its own.  The int is filled by adding each
        coordinate c_i of the product at z times a diagonal pattern (a one
        in each form k at entry (i, k)) shifted to the row block of i, then
        subtracting, for each slot s, the packed transposed slot operator
        (in form k at column j, coordinate k of the product at z with j at
        s) shifted to the row block of z_s.  That operator depends only on
        s and the other indices of z; it is built on first use and kept,
        one for all slots when the product is totally symmetric.  It is
        read off the table here, not through ``slot_operators``: a call
        per operator made failing ``check dxy`` runs 7.5% slower.

        No sum wraps.  A slot collects at most n + 1 terms, each of
        absolute value at most top: the largest |c| over Q, and floor(p/2)
        over GF(p), with no walk of the coefficients, whose residues are
        packed as symmetric representatives
        in (-p/2, p/2].  b is the least of 1, 2, 4, 8, 16, 24, ... whose
        slot, offset by 0x80 in every byte, holds every sum from
        -(n + 1) * top to (n + 1) * top, so ``to_bytes`` reads the sums
        back exactly and a zero slot is all 0x80 bytes.

        The nonzero forms are found with ``find`` on the buffer translated
        to a mark per byte.  Each is keyed by its raw bytes from its first
        to its last nonzero row block, with the rows of those blocks, and
        only a raw form not met before is decoded: its nonzero slots read,
        reduced mod p, brought to the kernel's normal form up to a unit
        and keyed again.  Slots run in increasing entry position, so the
        pairs come out sorted.
        """
        alg = self.alg
        d, n, p = alg.dim, alg.arity, alg.field.char
        table = alg.int_table()[1]
        get = table.get
        half = p // 2
        width = max(map(len, table.values()), default=0)
        if p:
            top = half
        else:
            top = max((abs(c) for terms in table.values() for _, c in terms), default=0)
        b = 1
        while 127 * (256**b - 1) // 255 < (n + 1) * top:
            b += b if b < 8 else 8
        w = 8 * b
        span = min(d, n + width) * d  # slots per form
        # when every row has a block anyway, R is every row
        every_row = tuple(range(d)) if span == d * d else None
        row_len = d * b  # bytes per row block
        form_len = span * b
        size = d * form_len
        offset = int.from_bytes(b"\x80" * size, "little")
        slot_offset = int.from_bytes(b"\x80" * b, "little")
        diag = int.from_bytes((b"\x01" + bytes(form_len + b - 1)) * d, "little")
        diags = [diag << w * d * m for m in range(span // d)]
        ops = [{}] * n if alg.symmetry == "total" else [{} for _ in range(n)]
        raws = {}
        zero_row = b"\x80" * row_len
        seen = set()
        kept = 0
        for pos, z in enumerate(self.ztuples):
            lhs = get(z, ())
            rows = every_row or tuple(sorted({*z, *[i for i, _ in lhs]}))
            acc = offset
            for i, c in lhs:
                if p and c > half:
                    c -= p
                acc += c * diags[rows.index(i)]
            for s in range(n):
                rest = z[:s] + z[s + 1 :]
                op = ops[s].get(rest)
                if op is None:
                    op = 0
                    head, tail = z[:s], z[s + 1 :]
                    for j in range(d):
                        for k, v in get(head + (j,) + tail, ()):
                            if p and v > half:
                                v -= p
                            op += v << w * (k * span + j)
                    ops[s][rest] = op
                acc -= op << w * d * rows.index(z[s])
            if acc == offset:
                continue
            buf = acc.to_bytes(size, "little")
            marks = buf.translate(_NONZERO_BYTE)
            if b <= 8 and byteorder == "little":
                # the unsigned formats of 1, 2, 4 and 8 bytes
                slots = memoryview(buf).cast(" BH I   Q"[b])
            else:
                slots = [int.from_bytes(buf[a : a + b], "little") for a in range(0, size, b)]
            # raw bytes met, by the rows of their first to last nonzero
            # row block; a form that spans all of R is keyed by R itself
            whole = raws.get(rows)
            if whole is None:
                whole = raws[rows] = set()
            full = len(rows) * row_len
            at = marks.find(1)
            while at >= 0:
                start = at - at % form_len
                end = start + form_len
                if at - start < row_len and buf[start + full - row_len : start + full] != zero_row:
                    met = whole
                    data = buf[start : start + full]
                else:
                    first = (at - start) // row_len
                    last = (marks.rfind(1, at, end) - start) // row_len + 1
                    met = raws.get(rows[first:last])
                    if met is None:
                        met = raws[rows[first:last]] = set()
                    data = buf[start + first * row_len : start + last * row_len]
                known = len(met)
                met.add(data)
                if len(met) > known:
                    row = {}
                    while at >= 0:
                        u = at // b
                        c = slots[u] - slot_offset
                        if p:
                            c %= p
                        if c:
                            m, j = divmod(u - start // b, d)
                            row[rows[m] * d + j] = c
                        at = marks.find(1, (u + 1) * b, end)
                    if row:
                        key = tuple(_unit_normal(row, next(iter(row.values())), p).items())
                        seen.add(key)
                        if len(seen) > kept:  # one hash of the key
                            kept += 1
                            yield pos, key
                at = marks.find(1, end)

    def _each_form(self):
        """The distinct forms with their positions: those found so far,
        then as many more as the caller takes, found by the walk."""
        found = self._found
        i = 0
        while True:
            if i == len(found):
                entry = next(self._walk, None) if self._walk else None
                if entry is None:
                    self._walk = None
                    return
                found.append(entry)
            yield found[i]
            i += 1

    def first_failure(self, op):
        """Position in ``ztuples`` of the first tuple where the operator
        ``op`` breaks the rule, or None when it is a derivation.  ``op``
        is a sparse int row over the d^2 entries, row-major: a dict from
        position i*d + j to a nonzero int, residues over GF(p), over Q
        the entries times any one nonzero common factor.

        The first form that does not vanish is at that tuple: a form that
        fails at the first failing tuple first appears at or before it,
        and fails there too.  While the walk is running, the forms are
        tested in order as they are found.  Once it has ended, the column
        index, built once, gives every form's value in one sparse product
        over the nonzero entries of ``op``, and the least failing form
        number gives the least position."""
        p = self.alg.field.char
        if self._walk is not None:
            get = op.get
            for pos, form in self._each_form():
                acc = 0
                for q, c in form:
                    v = get(q)
                    if v:
                        acc += c * v
                if acc % p if p else acc:
                    return pos
            return None
        found, columns = self._found, self._columns
        if columns is None:
            columns = self._columns = {}
            for n, (_, form) in enumerate(found):
                for q, c in form:
                    columns.setdefault(q, []).append((n, c))
        acc = [0] * len(found)
        for q, v in op.items():
            for n, c in columns.get(q, ()):
                acc[n] += c * v
        # a zero sum vanishes in every field: only the nonzero ones,
        # which compress picks out, need a test mod p
        nonzero = compress(range(len(acc)), acc)
        if p:
            n = next((n for n in nonzero if acc[n] % p), None)
        else:
            n = next(nonzero, None)
        return None if n is None else found[n][0]

    def distinct_rows(self):
        """The distinct forms as sparse int rows, in order of first
        appearance: dicts from entry position to coefficient, positions
        increasing.  They have the nullspace of all the forms."""
        return [dict(form) for _, form in self._each_form()]


# -- the operator-commutator Leibniz identity ------------------------------


def dxy_sides(alg, xs, ys, zs):
    """Both sides of the Leibniz identity for D = [R_xs, R_ys] at zs.

    Returns (D applied to the product, sum of products with D applied to
    one argument at a time); the identity holds at these arguments iff
    the two elements agree.  Arguments are elements or coordinate
    sequences.  D is formed on int rows, and each side is boxed once.
    """
    sx, rx = alg._int_right_operator(xs)
    sy, ry = alg._int_right_operator(ys)
    op = int_commutator(rx, ry, alg.field.char)
    return _int_leibniz_sides(alg, op, sx * sy, zs)


def _commutators(alg):
    """(x, y, op) for the nonzero [R_x, R_y] over pairs x < y of basis
    tuples, as the scans take them, in scan order: the pair walk
    :func:`nalg.linalg.int_commutators` over the R_x.  D_{x,x} = 0 and
    D_{y,x} = -D_{x,y}, so these pairs cover every commutator up to sign.
    """
    tuples = _basis_tuples(alg, alg.arity - 1)
    for a, b, op in int_commutators(alg.slot_operators(0, tuples), alg.field.char):
        yield tuples[a], tuples[b], op


def check_dxy_identity(alg):
    """Do all commutators of right-multiplication operators act as
    derivations of the product?

    Negating an operator leaves the Leibniz identity unchanged, so only
    the commutators of pairs x < y are scanned.  Every nonzero one is
    tested in scan order against the shared :class:`LeibnizSystem`, and
    the first that fails gives the witness.
    """
    system = LeibnizSystem(alg)
    for xt, yt, op in _commutators(alg):
        pos = system.first_failure(op)
        if pos is not None:
            data = {
                "x": tuple(alg.basis_element(i) for i in xt),
                "y": tuple(alg.basis_element(i) for i in yt),
                "z": tuple(alg.basis_element(i) for i in system.ztuples[pos]),
            }
            return _failure(alg, "dxy", data)
    return Verdict(True)


# -- ternary triple-system identity ---------------------------------------


def _jts_sides(alg, i1, i2, i3, i4, i5):
    # lhs: <<x,y,z>,u,v> + <z,u,<x,y,v>>; rhs: <x,y,<z,u,v>> + <z,<y,x,u>,v>
    t1 = alg.slot_product((0, i4, i5), 0, alg.product_of_basis((i1, i2, i3)))
    t2 = alg.slot_product((i3, i4, 0), 2, alg.product_of_basis((i1, i2, i5)))
    t3 = alg.slot_product((i1, i2, 0), 2, alg.product_of_basis((i3, i4, i5)))
    t4 = alg.slot_product((i3, 0, i5), 1, alg.product_of_basis((i2, i1, i4)))
    lhs = tuple(a + b for a, b in zip(t1, t2))
    rhs = tuple(a + b for a, b in zip(t3, t4))
    return lhs, rhs


def check_jts_identity(alg):
    """Ternary triple-system law: outer-left commutativity of the product
    plus the five-argument shifting identity."""
    if alg.arity != 3:
        raise ValueError("triple-system check needs a ternary algebra")
    d, p = alg.dim, alg.field.char
    _, table = alg.int_table()
    get = table.get
    # a tuple and its flip fail together, and one of them is an entry
    flips = [min(t, f) for t, terms in table.items() if get(f := t[::-1]) != terms]
    if flips:
        idx = min(flips)
        flipped = idx[::-1]
        data = {
            "args": tuple(alg.basis_element(i) for i in idx),
            "permuted": tuple(alg.basis_element(i) for i in flipped),
            "permutation": (2, 1, 0),
        }
        return _failure(alg, "commutativity", data)
    r = range(d)
    # every term has depth 2: lhs - rhs is den^2 times the defect over Q
    for i1, i2, i3 in product(r, repeat=3):
        xyz = get((i1, i2, i3), ())
        for i4 in r:
            yxu = get((i2, i1, i4), ())
            for i5 in r:
                xyv = get((i1, i2, i5), ())
                zuv = get((i3, i4, i5), ())
                if not (xyz or xyv or zuv or yxu):
                    continue
                acc = [0] * d
                for k, c in xyz:  # <<x,y,z>,u,v>
                    for j, v in get((k, i4, i5), ()):
                        acc[j] += c * v
                for k, c in xyv:  # <z,u,<x,y,v>>
                    for j, v in get((i3, i4, k), ()):
                        acc[j] += c * v
                for k, c in zuv:  # <x,y,<z,u,v>>
                    for j, v in get((i1, i2, k), ()):
                        acc[j] -= c * v
                for k, c in yxu:  # <z,<y,x,u>,v>
                    for j, v in get((i3, k, i5), ()):
                        acc[j] -= c * v
                if not _is_zero(acc, p):
                    idx = (i1, i2, i3, i4, i5)
                    data = {"args": tuple(alg.basis_element(i) for i in idx)}
                    return _failure(alg, "jts", data)
    return Verdict(True)


# -- binary Jordan identity ------------------------------------------------


def _jordan_coefficient(get, d, trip, y):
    """Both sides of the coefficient of t_i t_j t_k, (i, j, k) = ``trip``,
    in (x y) x^2 = x (y x^2) for x = sum t_i e_i: the sums of (a y)(b c)
    and of a (y (b c)) over the distinct orderings (a, b, c) of the basis
    elements of ``trip``, on the int view, den^3 times their values over
    Q."""
    lhs = [0] * d
    rhs = [0] * d
    for a, b, c in dict.fromkeys(permutations(trip)):
        bc = get((b, c), ())
        for m, u in get((a, y), ()):  # (a y)(b c)
            for n, v in bc:
                for j, w in get((m, n), ()):
                    lhs[j] += u * v * w
        ybc = [0] * d  # y (b c)
        for n, v in bc:
            for m, u in get((y, n), ()):
                ybc[m] += v * u
        for m, u in enumerate(ybc):  # a (y (b c))
            if u:
                for j, w in get((a, m), ()):
                    rhs[j] += u * w
    return lhs, rhs


def check_binary_jordan(alg):
    """The Jordan identity (x y) x^2 = x (y x^2) of a commutative product,
    on the coefficients of its cubic form.

    For a basis element y, x |-> (x y) x^2 - x (y x^2) is a cubic form in
    the coordinates t of x.  Its coefficient at t_i t_j t_k, i <= j <= k,
    is the sum of T(a, b, c) = (a y)(b c) - a (y (b c)) over the distinct
    orderings (a, b, c) of (e_i, e_j, e_k).  The identity holds over
    every extension field exactly when all these coefficients vanish, in
    every characteristic, so the scan decides it.  Over a small finite
    field the identity can hold at every point of the algebra itself and
    still fail over an extension; the check then fails.

    The triples (i, i, i) are scanned first, x major and y minor: their
    coefficient is the identity at x = e_i, reported as ``jordan_raw``.
    Mixed triples follow and report ``jordan_linearized``.
    """
    if alg.arity != 2:
        raise ValueError("Jordan check needs a binary algebra")
    d, p = alg.dim, alg.field.char
    _, table = alg.int_table()
    for i in range(d):
        for j in range(i + 1, d):
            if table.get((i, j)) != table.get((j, i)):
                raise ValueError("Jordan check needs a commutative product")

    get = table.get
    triples = [(i, i, i) for i in range(d)]
    triples += [
        t for t in combinations_with_replacement(range(d), 3) if t[0] != t[2]
    ]
    for trip in triples:
        for y in range(d):
            lhs, rhs = _jordan_coefficient(get, d, trip, y)
            if p:
                lhs, rhs = [c % p for c in lhs], [c % p for c in rhs]
            if lhs != rhs:
                xs = tuple(alg.basis_element(i) for i in trip)
                yb = alg.basis_element(y)
                if trip[0] == trip[2]:
                    return _failure(alg, "jordan_raw", {"x": xs[0], "y": yb})
                return _failure(alg, "jordan_linearized", {"x": xs, "y": yb})
    return Verdict(True)


# -- witness re-evaluation -------------------------------------------------


def _basis_index(e):
    """The index i of the basis element e_i, which the jts and Jordan
    witnesses hold; ValueError for any other element."""
    support = [i for i, c in enumerate(e.coords) if c]
    if len(support) != 1 or e.coords[support[0]] != 1:
        raise ValueError("witness argument is not a basis element")
    return support[0]


def _witness_sides(alg, kind, data):
    """Both sides of a witness of ``kind`` from its raw arguments
    ``data``: the one evaluation that makes every witness and replays it."""
    if kind == "commutativity":
        return alg.multiply(*data["args"]), alg.multiply(*data["permuted"])
    if kind == "dxy":
        return dxy_sides(alg, data["x"], data["y"], data["z"])
    if kind == "jts":
        if alg.arity != 3:
            raise ValueError("triple-system witness needs a ternary algebra")
        lhs, rhs = _jts_sides(alg, *map(_basis_index, data["args"]))
        return Element(lhs), Element(rhs)
    if kind in ("jordan_raw", "jordan_linearized"):
        if alg.arity != 2:
            raise ValueError("Jordan witness needs a binary algebra")
        xs = (data["x"],) * 3 if kind == "jordan_raw" else data["x"]
        trip = tuple(map(_basis_index, xs))
        den, table = alg.int_table()
        sides = _jordan_coefficient(table.get, alg.dim, trip, _basis_index(data["y"]))
        return tuple(Element(alg._box(enumerate(s), den**3)) for s in sides)
    if kind == "derivation":
        return leibniz_sides(alg, data["operator"], data["args"])
    if kind == "identity":
        from .identities import evaluate_combination

        lhs = evaluate_combination(
            alg, data["monomials"], data["coefficients"], data["substitution"]
        )
        return lhs, alg.zero_element()
    raise ValueError("unknown witness kind %r" % kind)


def _failure(alg, kind, data):
    """The failed verdict whose witness holds ``data`` and the sides that
    :func:`_witness_sides` computes from it."""
    lhs, rhs = _witness_sides(alg, kind, data)
    return Verdict(False, Witness(kind, data, lhs, rhs))


def reevaluate_witness(alg, witness):
    """Recompute both sides stored in a witness from its raw arguments."""
    return _witness_sides(alg, witness.kind, witness.data)
