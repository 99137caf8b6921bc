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
tuple as integer linear forms in the entries of D.  The commutator check
here, and :func:`nalg.derivations.is_derivation` and
:func:`nalg.derivations.derivation_algebra`, all ask that system;
:func:`leibniz_sides` gives both sides at element arguments for
witnesses.  The Leibniz defect is linear in D, so the commutator check
tests a commutator only when it enlarges the span (a
:class:`nalg.linalg.RowSpace` over the d^2 entries, which takes each
commutator as it is formed on the int view) of the commutators scanned
before it: one in that span is a combination of commutators that all
passed, and passes too.  The first failing commutator is
therefore among those tested, at the same z, and the witness is that of
the full scan.  Every scan runs serially.

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
L s_z den times.  No check here makes a boxed ``Matrix`` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, permutations, product

from .algebra import Element, distinct_permutations, nonzero_terms
from .linalg import RowSpace, _unit_normal, int_commutator, int_row


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


def _int_leibniz_sides(alg, flat, scale, zs):
    """Both sides of the Leibniz rule at the elements ``zs`` for the
    operator whose entries, row-major, are the ints ``flat``: residues
    over GF(p), over Q the operator times ``scale``.  Each side is
    contracted on the int view and boxed once."""
    if len(zs) != alg.arity:
        raise ValueError("expected %d arguments, got %d" % (alg.arity, len(zs)))
    d, p = alg.dim, alg.field.char
    s, supports = alg._supports(zs)

    def image(pairs):
        """The sparse int row ``pairs`` times the operator."""
        out = [0] * d
        for i, c in pairs:
            for j, v in enumerate(flat[i * d : i * d + d]):
                if v:
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
    ints."""
    if op.nrows != alg.dim or op.ncols != alg.dim:
        raise ValueError("operator shape does not match the algebra")
    entries = op.flatten()
    flat = int_row(alg.field, entries)
    scale = 1
    if not alg.field.char:
        # int_row scales by the lcm of the denominators: read it off the
        # first nonzero entry
        scale = next((v // c for v, c in zip(flat, entries) if v), 1)
    return _int_leibniz_sides(alg, flat, scale, zs)


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

    For each basis tuple z of ``ztuples``, in scan order, the system holds
    the forms whose values are the coordinates of lhs - rhs, so all of
    them vanish exactly when D satisfies the rule at z.  Coefficients are
    ints from the algebra's int view: residues over GF(p), den times the
    true value over Q.  Forms are built on first use and kept: a scan
    that fails early builds few of them, and every later scan over the
    same system reuses them.
    """

    def __init__(self, alg):
        self.alg = alg
        self.ztuples = _basis_tuples(alg, alg.arity)
        self._forms = []

    def forms_at(self, pos):
        """Nonzero forms at ``ztuples[pos]``, each a tuple of
        (entry position, int coefficient) pairs."""
        while len(self._forms) <= pos:
            self._forms.append(self._build(self.ztuples[len(self._forms)]))
        return self._forms[pos]

    def _build(self, z):
        alg = self.alg
        d, p = alg.dim, alg.field.char
        get = alg.int_table()[1].get
        forms = [{} for _ in range(d)]
        for i, c in get(z, ()):
            for k in range(d):
                forms[k][i * d + k] = c
        for s in range(alg.arity):
            base = z[s] * d
            for j in range(d):
                for k, v in get(z[:s] + (j,) + z[s + 1 :], ()):
                    form = forms[k]
                    form[base + j] = form.get(base + j, 0) - v
        # one pass per form: reduce mod p and drop the zero coefficients
        if p:
            forms = [[(q, r) for q, c in f.items() if (r := c % p)] for f in forms]
        else:
            forms = [[(q, c) for q, c in f.items() if c] for f in forms]
        return [tuple(f) for f in forms if f]

    def first_failure(self, flat):
        """Position in ``ztuples`` of the first tuple where the operator
        breaks the rule, or None when it is a derivation.  ``flat`` holds
        its entries row-major as ints: residues over GF(p), over Q the
        entries times any one nonzero common factor."""
        p = self.alg.field.char
        built = self._forms
        for pos, z in enumerate(self.ztuples):
            if pos == len(built):  # forms_at, inlined on this hot path
                built.append(self._build(z))
            for form in built[pos]:
                acc = 0
                for q, c in form:
                    v = flat[q]
                    if v:
                        acc += c * v
                if acc % p if p else acc:
                    return pos
        return None

    def distinct_rows(self):
        """The forms of the system that are distinct up to a unit scale,
        each once, as sparse int rows: dicts from entry position to
        coefficient, positions increasing, in scan order of first
        appearance.  Forms equal up to a unit vanish on the same
        operators, so these rows have the nullspace of all the forms.

        One walk over ``ztuples``, apart from the lazy forms of
        :meth:`forms_at`.  The rhs terms of slot s at z read the slot
        operator at the other indices of z, transposed: for each output
        coordinate k, the (j, v) pairs with (z with j at s)_k = v.  It is
        the same for the d tuples that differ only at s, so it is read
        once for them all.  Each form is keyed, as it is built, in the
        normal form of a sparse int row up to a unit that the kernel
        stores (``nalg.linalg._unit_normal``): lead 1 over GF(p), over Q
        primitive with a positive lead."""
        alg = self.alg
        d, p = alg.dim, alg.field.char
        get = alg.int_table()[1].get
        slots = range(alg.arity)
        columns = {}
        seen = {}
        for z in self.ztuples:
            rhs = []
            for s in slots:
                free = z[:s] + (-1,) + z[s + 1 :]
                cols = columns.get(free)
                if cols is None:
                    cols = [[] for _ in range(d)]
                    for j in range(d):
                        for k, v in get(z[:s] + (j,) + z[s + 1 :], ()):
                            cols[k].append((j, v))
                    columns[free] = cols
                rhs.append((z[s] * d, cols))
            lhs = get(z, ())
            for k in range(d):
                form = {i * d + k: c for i, c in lhs}
                for base, cols in rhs:
                    for j, v in cols[k]:
                        q = base + j
                        form[q] = form.get(q, 0) - v
                items = sorted(form.items())
                if p:
                    row = {q: r for q, c in items if (r := c % p)}
                else:
                    row = {q: c for q, c in items if c}
                if row:
                    row = _unit_normal(row, next(iter(row.values())), p)
                    seen[tuple(row.items())] = None
        return [dict(row) for row in seen]


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
    flat = int_commutator(rx, ry, alg.field.char)
    return _int_leibniz_sides(alg, flat, sx * sy, zs)


def _commutators(alg, tuples=None):
    """Nonzero commutators [R_x, R_y] of right-multiplication operators
    over pairs x < y of basis tuples (by default every basis tuple, as
    the scans take them), as (x, y, flat) in scan order.  ``flat`` is the
    commutator row-major on the int view: residues over GF(p), den^2
    times its entries over Q.

    D_{x,x} = 0 and D_{y,x} = -D_{x,y}, so the pairs x < y cover every
    commutator up to sign.  Each commutator is formed over Z, and only
    one that is not zero there is reduced mod p: most pairs commute.
    """
    if tuples is None:
        tuples = _basis_tuples(alg, alg.arity - 1)
    d, p = alg.dim, alg.field.char
    sparse = alg.int_table()[1]
    ops = []
    for a in range(len(tuples)):
        for b in range(a + 1, len(tuples)):
            # R_x as sparse int rows, built on first use, so that an
            # early failure builds few
            while len(ops) <= b:
                x = tuples[len(ops)]
                ops.append([sparse.get((j,) + x, ()) for j in range(d)])
            flat = int_commutator(ops[a], ops[b], 0)
            if not any(flat):
                continue
            if p:
                flat = [c % p for c in flat]
                if not any(flat):
                    continue
            yield tuples[a], tuples[b], flat


def check_dxy_identity(alg):
    """Do all commutators of right-multiplication operators act as
    derivations of the product?

    Negating an operator leaves the Leibniz identity unchanged, so only
    the commutators of pairs x < y are scanned.  The Leibniz defect is
    linear in the operator, so a commutator in the span of those before
    it, all of which passed, passes too: only the commutators that
    enlarge that span are tested against the shared
    :class:`LeibnizSystem`, as many as the dimension of the inner
    derivation space on a passing input.  The first failing commutator
    in scan order always enlarges the span, so the verdict and witness
    are those of testing every commutator.
    """
    system = LeibnizSystem(alg)
    span = RowSpace(alg.field, alg.dim * alg.dim)
    for xt, yt, flat in _commutators(alg):
        if not span.insert_ints({q: c for q, c in enumerate(flat) if c}):
            continue
        pos = system.first_failure(flat)
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
    for idx in product(range(d), repeat=3):
        flipped = (idx[2], idx[1], idx[0])
        if table.get(idx) != table.get(flipped):
            data = {
                "args": tuple(alg.basis_element(i) for i in idx),
                "permuted": tuple(alg.basis_element(i) for i in flipped),
                "permutation": (2, 1, 0),
            }
            return _failure(alg, "commutativity", data)
    get = table.get
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


def _jordan_sides(alg, xs, y):
    """Sums of (a y)(b c) and of a (y (b c)) over the distinct orderings
    (a, b, c) of the three elements ``xs``."""
    lhs = alg.zero_element()
    rhs = alg.zero_element()
    for a, b, c in dict.fromkeys(permutations(xs)):
        bc = alg.multiply(b, c)
        lhs = lhs + alg.multiply(alg.multiply(a, y), bc)
        rhs = rhs + alg.multiply(a, alg.multiply(y, bc))
    return lhs, rhs


def _jordan_coefficient(get, d, trip, y):
    """The coefficient of t_i t_j t_k, (i, j, k) = ``trip``, in
    (x y) x^2 - x (y x^2) for x = sum t_i e_i, on the int view: den^3
    times its value over Q."""
    acc = [0] * d
    for a, b, c in dict.fromkeys(permutations(trip)):
        bc = get((b, c), ())
        for m, u in get((a, y), ()):  # (a y)(b c)
            for n, v in bc:
                for j, w in get((m, n), ()):
                    acc[j] += u * v * w
        ybc = [0] * d  # y (b c)
        for n, v in bc:
            for m, u in get((y, n), ()):
                ybc[m] += v * u
        for m, u in enumerate(ybc):  # a (y (b c))
            if u:
                for j, w in get((a, m), ()):
                    acc[j] -= u * w
    return acc


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
            if not _is_zero(_jordan_coefficient(get, d, trip, y), p):
                xs = tuple(alg.basis_element(i) for i in trip)
                yb = alg.basis_element(y)
                if trip[0] == trip[2]:
                    return _failure(alg, "jordan_raw", {"x": xs[0], "y": yb})
                return _failure(alg, "jordan_linearized", {"x": xs, "y": yb})
    return Verdict(True)


# -- witness re-evaluation -------------------------------------------------


def _witness_sides(alg, kind, data):
    """Both sides of a witness of ``kind`` from its raw arguments
    ``data``: the one evaluation that makes every witness and replays it."""
    if kind == "commutativity":
        return alg.multiply(*data["args"]), alg.multiply(*data["permuted"])
    if kind == "dxy":
        return dxy_sides(alg, data["x"], data["y"], data["z"])
    if kind == "jts":
        idx = tuple(
            next(k for k, c in enumerate(e.coords) if c != 0)
            for e in data["args"]
        )
        lhs, rhs = _jts_sides(alg, *idx)
        return Element(lhs), Element(rhs)
    if kind == "jordan_raw":
        x = data["x"]
        return _jordan_sides(alg, (x, x, x), data["y"])
    if kind == "jordan_linearized":
        return _jordan_sides(alg, data["x"], data["y"])
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
