"""Decision procedures for identities of an n-ary algebra.

Basis-substitution lemma
------------------------
Every expression tested here (a commutativity defect, the Leibniz defect
of an operator commutator, the five-argument triple-system combination,
the fully linearized cube identity) is multilinear in each of its
arguments: products are multilinear, operator application is linear, and
a right-multiplication operator depends linearly on each entry of its
defining tuple.  A multilinear map that vanishes on all tuples of basis
vectors vanishes on the whole algebra, so scanning basis tuples decides
each identity outright.  Scans run in lexicographic order of the index
tuples and report the first (hence smallest) failing substitution.

The Leibniz rule ``D(z1..zn) = sum_s (z1, ..., D z_s, ..., zn)`` is
evaluated in one place, :class:`LeibnizSystem`: the rule at each basis
tuple as linear forms in the entries of D.  The commutator check here,
and :func:`nalg.derivations.is_derivation` and
:func:`nalg.derivations.derivation_algebra`, all ask that system;
:func:`leibniz_sides` gives both sides at element arguments for
witnesses.  Every scan runs serially.

Verdicts carry a witness that stores enough data to re-evaluate both
sides; :func:`reevaluate_witness` does exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .algebra import Element


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


def _basis_right_operator(alg, rest):
    """Right-multiplication operator for a tuple of basis *indices*."""
    from .linalg import Matrix

    rows = [alg.product_of_basis((j,) + tuple(rest)) for j in range(alg.dim)]
    return Matrix(alg.field, rows)


# -- total commutativity ---------------------------------------------------


def check_total_commutativity(alg):
    """Is the product invariant under every permutation of its arguments?"""
    n = alg.arity
    perms = sorted(permutations(range(n)))[1:]  # identity dropped
    for idx in product(range(alg.dim), repeat=n):
        base = alg.product_of_basis(idx)
        for p in perms:
            permuted = tuple(idx[k] for k in p)
            other = alg.product_of_basis(permuted)
            if base != other:
                data = {
                    "args": tuple(alg.basis_element(i) for i in idx),
                    "permuted": tuple(alg.basis_element(i) for i in permuted),
                    "permutation": p,
                }
                return Verdict(
                    False,
                    Witness("commutativity", data, Element(base), Element(other)),
                )
    return Verdict(True)


# -- the Leibniz rule ------------------------------------------------------


def leibniz_sides(alg, op, zs):
    """Both sides of the Leibniz rule for the operator ``op`` at the
    elements ``zs``: (op applied to the product, sum of products with op
    applied to one argument at a time)."""
    lhs = Element(op.apply(alg.multiply(*zs).coords))
    rhs = alg.zero_element()
    for s in range(alg.arity):
        moved = list(zs)
        moved[s] = Element(op.apply(zs[s].coords))
        rhs = rhs + alg.multiply(*moved)
    return lhs, rhs


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
    them vanish exactly when D satisfies the rule at z.  Forms are built
    on first use and kept: a scan that fails early builds few of them,
    and every later scan over the same system reuses them.
    """

    def __init__(self, alg):
        self.alg = alg
        self.ztuples = _basis_tuples(alg, alg.arity)
        self._forms = []

    def forms_at(self, pos):
        """Nonzero forms at ``ztuples[pos]``, each a tuple of
        (entry position, coefficient) pairs."""
        while len(self._forms) <= pos:
            self._forms.append(self._build(self.ztuples[len(self._forms)]))
        return self._forms[pos]

    def _build(self, z):
        alg = self.alg
        d, zero = alg.dim, alg.field.zero
        forms = [{} for _ in range(d)]
        for i, c in enumerate(alg.product_of_basis(z)):
            if c != 0:
                for k in range(d):
                    forms[k][i * d + k] = c
        for s in range(alg.arity):
            base = z[s] * d
            for j in range(d):
                part = alg.product_of_basis(z[:s] + (j,) + z[s + 1 :])
                for k, v in enumerate(part):
                    if v != 0:
                        form = forms[k]
                        form[base + j] = form.get(base + j, zero) - v
        forms = [tuple((p, c) for p, c in f.items() if c != 0) for f in forms]
        return [f for f in forms if f]

    def first_failure(self, op):
        """Position in ``ztuples`` of the first tuple where ``op`` breaks
        the rule, or None when ``op`` is a derivation."""
        flat = op.flatten()
        zero = self.alg.field.zero
        for pos in range(len(self.ztuples)):
            for form in self.forms_at(pos):
                acc = zero
                for p, c in form:
                    v = flat[p]
                    if v != 0:
                        acc = acc + c * v
                if acc != 0:
                    return pos
        return None

    def rows(self):
        """Every form of the system as a dense row, in scan order."""
        zero = self.alg.field.zero
        size = self.alg.dim * self.alg.dim
        out = []
        for pos in range(len(self.ztuples)):
            for form in self.forms_at(pos):
                row = [zero] * size
                for p, c in form:
                    row[p] = c
                out.append(row)
        return out


# -- the operator-commutator Leibniz identity ------------------------------


def dxy_sides(alg, xs, ys, zs):
    """Both sides of the Leibniz identity for D = [R_xs, R_ys] at zs.

    Returns (D applied to the product, sum of products with D applied to
    one argument at a time); the identity holds at these arguments iff
    the two elements agree.
    """
    xs = tuple(x if isinstance(x, Element) else alg.element(x) for x in xs)
    ys = tuple(y if isinstance(y, Element) else alg.element(y) for y in ys)
    zs = tuple(z if isinstance(z, Element) else alg.element(z) for z in zs)
    return leibniz_sides(alg, alg.d_operator(xs, ys), zs)


def _commutators(alg):
    """Nonzero commutators [R_x, R_y] of right-multiplication operators
    over basis tuples x < y, as (x, y, matrix) in scan order.

    D_{x,x} = 0 and D_{y,x} = -D_{x,y}, so the pairs x < y cover every
    commutator up to sign.
    """
    tuples = _basis_tuples(alg, alg.arity - 1)
    ops = []
    for a in range(len(tuples)):
        for b in range(a + 1, len(tuples)):
            # built on first use, so that an early failure builds few
            while len(ops) <= b:
                ops.append(_basis_right_operator(alg, tuples[len(ops)]))
            ab, ba = ops[a] @ ops[b], ops[b] @ ops[a]
            if ab != ba:
                yield tuples[a], tuples[b], ab - ba


def check_dxy_identity(alg, par=1):
    """Do all commutators of right-multiplication operators act as
    derivations of the product?

    Negating an operator leaves the Leibniz identity unchanged, so only
    the commutators of pairs x < y are tested, each against the shared
    :class:`LeibnizSystem`.  ``par`` is accepted and ignored: the scan
    runs serially.
    """
    system = LeibnizSystem(alg)
    for xt, yt, dmat in _commutators(alg):
        pos = system.first_failure(dmat)
        if pos is not None:
            zs = tuple(alg.basis_element(i) for i in system.ztuples[pos])
            lhs, rhs = leibniz_sides(alg, dmat, zs)
            data = {
                "x": tuple(alg.basis_element(i) for i in xt),
                "y": tuple(alg.basis_element(i) for i in yt),
                "z": zs,
            }
            return Verdict(False, Witness("dxy", data, lhs, rhs))
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
    d = alg.dim
    for idx in product(range(d), repeat=3):
        flipped = (idx[2], idx[1], idx[0])
        a = alg.product_of_basis(idx)
        b = alg.product_of_basis(flipped)
        if a != b:
            data = {
                "args": tuple(alg.basis_element(i) for i in idx),
                "permuted": tuple(alg.basis_element(i) for i in flipped),
                "permutation": (2, 1, 0),
            }
            return Verdict(
                False, Witness("commutativity", data, Element(a), Element(b))
            )
    for idx in product(range(d), repeat=5):
        lhs, rhs = _jts_sides(alg, *idx)
        if lhs != rhs:
            data = {"args": tuple(alg.basis_element(i) for i in idx)}
            return Verdict(
                False, Witness("jts", data, Element(lhs), Element(rhs))
            )
    return Verdict(True)


# -- binary Jordan identity ------------------------------------------------


def _linearized_jordan_sides(alg, x1, x2, x3, y):
    lhs = alg.zero_element()
    rhs = alg.zero_element()
    xs = (x1, x2, x3)
    for p in permutations(range(3)):
        a, b, c = xs[p[0]], xs[p[1]], xs[p[2]]
        sq = alg.multiply(b, c)
        lhs = lhs + alg.multiply(alg.multiply(a, y), sq)
        rhs = rhs + alg.multiply(a, alg.multiply(y, sq))
    return lhs, rhs


def check_binary_jordan(alg):
    """Full linearization of the cube identity (x y) x^2 = x (y x^2).

    The linearized form carries no repeated arguments, so basis scanning
    remains decisive over every field, including characteristic 2 and 3
    where plugging equal arguments into the raw identity loses
    information.  Over characteristic 0 the raw identity is additionally
    scanned on basis elements and on two-term sums, which yields the more
    readable witnesses.
    """
    if alg.arity != 2:
        raise ValueError("Jordan check needs a binary algebra")
    d = alg.dim
    for i in range(d):
        for j in range(i + 1, d):
            if alg.product_of_basis((i, j)) != alg.product_of_basis((j, i)):
                raise ValueError("Jordan check needs a commutative product")

    if alg.field.char == 0:
        xs = [alg.basis_element(i) for i in range(d)]
        xs += [
            alg.basis_element(i) + alg.basis_element(j)
            for i in range(d)
            for j in range(i + 1, d)
        ]
        for x in xs:
            sq = alg.multiply(x, x)
            for j in range(d):
                y = alg.basis_element(j)
                lhs = alg.multiply(alg.multiply(x, y), sq)
                rhs = alg.multiply(x, alg.multiply(y, sq))
                if lhs != rhs:
                    return Verdict(
                        False,
                        Witness("jordan_raw", {"x": x, "y": y}, lhs, rhs),
                    )

    for trip in combinations_with_replacement(range(d), 3):
        for j in range(d):
            args = tuple(alg.basis_element(i) for i in trip) + (
                alg.basis_element(j),
            )
            lhs, rhs = _linearized_jordan_sides(alg, *args)
            if lhs != rhs:
                data = {"x": args[:3], "y": args[3]}
                return Verdict(
                    False, Witness("jordan_linearized", data, lhs, rhs)
                )
    return Verdict(True)


# -- witness re-evaluation -------------------------------------------------


def reevaluate_witness(alg, witness):
    """Recompute both sides stored in a witness from its raw arguments."""
    kind = witness.kind
    data = witness.data
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
        x, y = data["x"], data["y"]
        sq = alg.multiply(x, x)
        return (
            alg.multiply(alg.multiply(x, y), sq),
            alg.multiply(x, alg.multiply(y, sq)),
        )
    if kind == "jordan_linearized":
        x1, x2, x3 = data["x"]
        return _linearized_jordan_sides(alg, x1, x2, x3, data["y"])
    if kind == "derivation":
        return leibniz_sides(alg, data["operator"], data["args"])
    if kind == "identity":
        from .identities import evaluate_combination

        lhs = evaluate_combination(
            alg, data["monomials"], data["coefficients"], data["substitution"]
        )
        return lhs, alg.zero_element()
    raise ValueError("unknown witness kind %r" % kind)
