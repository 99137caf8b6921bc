"""Products read from the int view against products on field scalars.

An algebra stores its structure constants as the int view
(:meth:`nalg.algebra.NAryAlgebra.int_table`) and boxes field scalars
only for what it returns.  The references below are ``product_of_basis``,
``slot_product`` and ``multiply`` as they ran on the boxed tensor, fed a
tensor that the reference loader parsed from the algebra's file, and
``reduce`` as it ran before it contracted the frozen slot in one pass:
one ``multiply`` per basis tuple of the remaining slots.  Over
the catalog cases of ``tests/test_int_view.py`` (Q, F_2, F_3, F_5, F_13
and dense twins, some with mixed denominators) they must agree entry
for entry and type for type.

The int table holds each product as its nonzero (coordinate, int)
pairs, coordinates increasing, and is the only int form an algebra
keeps; a pin below holds its form.  The products share one contraction
that walks the product of its arguments' supports with one lookup in
the int table per tuple.  The counting tests below hold it to that: a
product of basis elements is one lookup and never a walk of the table,
and the replay of the witness of a failing commutativity check, through
``multiply``, only looks entries up.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest

from nalg import io
from nalg.algebra import Element, NAryAlgebra
from nalg.checks import check_total_commutativity, reevaluate_witness
from nalg.cli import main

import reference_loader
from test_int_view import CASES, typed


def boxed_tensor(alg):
    return reference_loader.algebra_from_json(json.loads(io.dumps(alg))).tensor


def ref_product_of_basis(alg, tensor, idx):
    return tensor.get(tuple(idx), alg.zero_element().coords)


def ref_slot_product(alg, tensor, idx, slot, vec):
    acc = list(alg.zero_element().coords)
    for k, c in enumerate(vec):
        if c != 0:
            w = ref_product_of_basis(alg, tensor, idx[:slot] + (k,) + idx[slot + 1 :])
            for j, v in enumerate(w):
                if v != 0:
                    acc[j] = acc[j] + c * v
    return tuple(acc)


def ref_multiply(alg, tensor, args):
    acc = list(alg.zero_element().coords)
    for idx, vec in tensor.items():
        c = alg.field.one
        for s, i in enumerate(idx):
            c = c * args[s].coords[i]
        if c != 0:
            for j, v in enumerate(vec):
                if v != 0:
                    acc[j] = acc[j] + c * v
    return Element(tuple(acc))


def drawn_elements(alg, rng, count):
    """Basis elements, then elements with drawn coordinates; over Q some
    coordinates are fractions."""
    scalars = [0, 0, 1, -1, 2, 3]
    if alg.field.char == 0:
        scalars += [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    out = alg.basis()
    for _ in range(count):
        out.append(alg.element([rng.choice(scalars) for _ in range(alg.dim)]))
    return out


@pytest.mark.parametrize("alg", CASES)
def test_products_on_the_view_match_boxed_products(alg):
    tensor = boxed_tensor(alg)
    assert alg.tensor == tensor
    assert all(typed(alg.tensor[idx]) == typed(vec) for idx, vec in tensor.items())
    for idx in product(range(alg.dim), repeat=alg.arity):
        assert typed(alg.product_of_basis(idx)) == typed(
            ref_product_of_basis(alg, tensor, idx)
        )
    rng = random.Random(alg.dim * 31 + alg.arity)
    elements = drawn_elements(alg, rng, 6)
    for _ in range(12):
        args = [rng.choice(elements) for _ in range(alg.arity)]
        assert typed(alg.multiply(*args)) == typed(ref_multiply(alg, tensor, args))
        idx = tuple(rng.randrange(alg.dim) for _ in range(alg.arity))
        slot = rng.randrange(alg.arity)
        vec = args[0].coords
        assert typed(alg.slot_product(idx, slot, vec)) == typed(
            ref_slot_product(alg, tensor, idx, slot, vec)
        )


@pytest.mark.parametrize("alg", CASES[::7])
def test_algebras_made_from_field_scalars_read_the_same_view(alg):
    """An algebra made from a boxed tensor, as a basis change makes one,
    reads it into the same view, equality and hash as the loaded one."""
    made = NAryAlgebra(
        alg.field, alg.arity, alg.dim, alg.labels, boxed_tensor(alg), alg.symmetry
    )
    assert made.int_table() == alg.int_table()
    assert made == alg and hash(made) == hash(alg)
    assert made.is_zero_algebra() == alg.is_zero_algebra() == (not alg.tensor)
    assert io.dumps(made) == io.dumps(alg)


def ref_reduce(alg, position, a):
    entries = {}
    for idx in product(range(alg.dim), repeat=alg.arity - 1):
        args = [alg.basis_element(i) for i in idx]
        args.insert(position - 1, a)
        entries[idx] = alg.multiply(*args).coords
    symmetry = "total" if alg.symmetry == "total" else "none"
    return NAryAlgebra.build(
        alg.field, alg.arity - 1, alg.dim, entries, alg.labels, symmetry
    )


@pytest.mark.parametrize("alg", [p for p in CASES if p.values[0].arity >= 3])
def test_reduce_matches_a_multiply_per_tuple(alg):
    """Every slot frozen at basis elements and drawn elements, over Q
    with denominators: the same table, symmetry hint and file."""
    rng = random.Random(alg.dim * 17 + alg.arity)
    elements = drawn_elements(alg, rng, 3)
    for position in range(1, alg.arity + 1):
        for a in elements:
            got, want = alg.reduce(position, a), ref_reduce(alg, position, a)
            assert got == want and got.symmetry == want.symmetry
            assert io.dumps(got) == io.dumps(want)


class CountingTable(dict):
    """An int table that counts its lookups and refuses to be walked."""

    def __init__(self, table):
        super().__init__(table)
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def _walked(self, *args):
        raise AssertionError("the int table was walked")

    __iter__ = items = keys = values = _walked


def counted(alg, monkeypatch):
    """A freshly loaded copy of ``alg`` whose int table counts lookups."""
    fresh = io.loads(io.dumps(alg))
    den, table = fresh.int_table()
    counting = CountingTable(table)
    monkeypatch.setattr(fresh, "int_table", lambda: (den, counting))
    return fresh, counting


@pytest.mark.parametrize("alg", CASES[::5])
def test_products_of_basis_elements_make_one_lookup(alg, monkeypatch):
    fresh, table = counted(alg, monkeypatch)
    basis = fresh.basis()
    for idx in product(range(fresh.dim), repeat=fresh.arity):
        before = table.lookups
        got = fresh.multiply(*[basis[i] for i in idx])
        assert table.lookups == before + 1
        assert got.coords == fresh.product_of_basis(idx)
        before = table.lookups
        slot = idx[0] % fresh.arity
        fresh.slot_product(idx, slot, basis[idx[slot]].coords)
        assert table.lookups == before + 1
    before = table.lookups
    fresh.right_operator(basis[: fresh.arity - 1])
    assert table.lookups == before + fresh.dim


NOT_COMMUTATIVE = [p for p in CASES if not check_total_commutativity(p.values[0])]


@pytest.mark.parametrize("alg", NOT_COMMUTATIVE)
def test_commutativity_witness_leaves_int_terms_unbuilt(alg, monkeypatch):
    """The replay of the witness only looks entries of the int table up:
    with the table swapped for one that raises if walked, it gives the
    sides the check stored.  (The name predates the single table, when
    the walk it guards against built a second copy of the nonzero
    terms.)"""
    fresh = io.loads(io.dumps(alg))
    w = check_total_commutativity(fresh).witness
    den, table = fresh.int_table()
    counting = CountingTable(table)
    monkeypatch.setattr(fresh, "int_table", lambda: (den, counting))
    assert (w.lhs, w.rhs) == reevaluate_witness(fresh, w)
    assert counting.lookups > 0


@pytest.mark.parametrize("alg", CASES)
def test_the_int_table_holds_the_nonzero_terms(alg, tmp_path, capsys):
    """Each product as its nonzero (coordinate, int) pairs, coordinates
    increasing: residues in [1, p) over GF(p), den times the product over
    Q.  A loaded algebra and one made from field scalars hold the same
    table, and ``nalg validate`` counts its products as before: the index
    tuples with a nonzero product."""
    den, table = alg.int_table()
    p = alg.field.char
    for terms in table.values():
        cols = [j for j, _ in terms]
        assert cols == sorted(set(cols)) and all(0 <= j < alg.dim for j in cols)
        assert all(type(v) is int and v != 0 for _, v in terms)
        assert not p or all(0 < v < p for _, v in terms)
    boxed = boxed_tensor(alg)
    for idx, vec in boxed.items():
        assert table[idx] == tuple(
            [(j, c.r if p else c * den) for j, c in enumerate(vec) if c]
        )
    made = NAryAlgebra(
        alg.field, alg.arity, alg.dim, alg.labels, boxed, alg.symmetry
    )
    assert made.int_table() == (den, table)
    nonzero = sum(1 for vec in boxed.values() if any(vec))
    assert len(table) == nonzero
    path = tmp_path / "alg.json"
    io.dump_file(alg, path)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.endswith(", products %d\n" % nonzero)
