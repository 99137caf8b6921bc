"""The induced algebra on a subspace, against the two builders it replaced.

``structure.induced_algebra`` reads a product on a subspace in the
subspace's canonical basis.  The subalgebras ``s1``/``s2`` of the
symmetrized matrix triple and the graded reconstructions ``tkk_ternary``
and ``tkk_lminus1`` both go through it.  Each used to carry its own
coordinate reader, label rule and constructor; those are kept below as
references, and the files they produce must stay byte-identical.
"""

from functools import cache
from itertools import permutations, product

import pytest

from nalg import catalog, io
from nalg.algebra import Element, NAryAlgebra
from nalg.fields import GF, QQ
from nalg.linalg import RowSpace, SubspaceBasis
from nalg.structure import induced_algebra, subalgebra_closure

F5, F13, F17 = GF(5), GF(13), GF(17)


# -- references: the builders before induced_algebra ----------------------


def reference_subalgebra_closure(alg, generators):
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


def reference_component_coords(graded, g, vec):
    comp = graded.components[g]
    if not comp.contains_vector(vec):
        raise ValueError("value left the expected graded component")
    pivots = [next(k for k, c in enumerate(v) if c != 0) for v in comp.vectors]
    return tuple(vec[p] for p in pivots)


def reference_component_labels(graded, g):
    alg = graded.algebra
    labels = []
    for v in graded.components[g].vectors:
        hot = [k for k, c in enumerate(v) if c != 0]
        if len(hot) == 1 and v[hot[0]] == alg.field.one:
            labels.append(alg.labels[hot[0]])
        else:
            labels.append("g%d" % len(labels))
    return labels


def reference_tkk_symmetrized(graded, g, fixed):
    alg = graded.algebra
    a, b, c, e = fixed
    comp = [Element(v) for v in graded.components[g].vectors]
    k = len(comp)
    labels = reference_component_labels(graded, g)
    entries = {}
    for idx in product(range(k), repeat=3):
        acc = alg.zero_element()
        trip = [comp[t] for t in idx]
        for p in permutations(range(3)):
            x, y, z = trip[p[0]], trip[p[1]], trip[p[2]]
            step = alg.multiply(a, x, b)
            step = alg.multiply(step, y, c)
            step = alg.multiply(step, z, e)
            acc = acc + step
        vec = reference_component_coords(graded, g, acc.coords)
        if any(v != 0 for v in vec):
            entries[idx] = vec
    return NAryAlgebra.build(alg.field, 3, k, entries, labels=labels, symmetry="total")


# -- the subalgebras s1 and s2 --------------------------------------------


@cache
def sym_matrix(field, n):
    return catalog.sym_matrix(field, n)


SEEDS = {
    "s1": lambda i, j: ["e%d%d" % (i, i), "e%d%d" % (i, j)],
    "s2": lambda i, j: ["e%d%d" % (i, j), "e%d%d" % (j, i)],
}

SWEEP = [
    (family, field, n, i, j)
    for family in ("s1", "s2")
    for field in (QQ, F5)
    for n in (2, 3, 4)
    for i in range(1, n + 1)
    for j in range(1, n + 1)
    if i != j
]


@pytest.mark.parametrize(
    "family,field,n,i,j",
    SWEEP,
    ids=["%s-%r-%d-%d%d" % case for case in SWEEP],
)
def test_matrix_subalgebras_match_reference(family, field, n, i, j):
    big = sym_matrix(field, n)
    gens = [big.by_label(lbl) for lbl in SEEDS[family](i, j)]
    ref_sub, ref = reference_subalgebra_closure(big, gens)
    sub, induced = subalgebra_closure(big, gens)
    assert sub == ref_sub
    assert induced.labels == ref.labels
    assert io.dumps(induced) == io.dumps(ref)
    assert io.dumps(getattr(catalog, family)(field, n, i, j)) == io.dumps(ref)


# -- the graded reconstructions -------------------------------------------


def lminus1_middles(field, alg):
    """Two choices of (u_0, v_0) in the middle component."""
    a, b = alg.basis_element(1), alg.basis_element(2)
    half = field.one / field.of(2)
    return [(a.scale(half), b.scale(field.of(2))), (a, a + b)]


@pytest.mark.parametrize("field", [F5, F13, F17], ids=repr)
def test_tkk_ternary_matches_reference(field):
    graded = catalog.tkk_grading_a1(field)
    bm1 = [Element(v) for v in graded.components[-1].vectors]
    b1 = [Element(v) for v in graded.components[1].vectors]
    ref = reference_tkk_symmetrized(graded, 0, (bm1[0], b1[0], bm1[0], b1[0]))
    new = catalog.tkk_ternary(graded)
    assert new.labels == ref.labels
    assert io.dumps(new) == io.dumps(ref)


@pytest.mark.parametrize("field", [F5, F13, F17], ids=repr)
def test_tkk_lminus1_matches_reference(field):
    graded = catalog.tkk_grading_a1(field)
    b1 = [Element(v) for v in graded.components[1].vectors]
    for u0, v0 in lminus1_middles(field, graded.algebra):
        ref = reference_tkk_symmetrized(graded, -1, (u0, b1[0], b1[0], v0))
        new = catalog.tkk_lminus1(graded, u0, v0)
        assert new.labels == ref.labels
        assert io.dumps(new) == io.dumps(ref)


# -- the subspace check ----------------------------------------------------


def test_value_leaving_the_subspace_is_refused():
    alg = catalog.dot_triple(QQ, 3)
    line = SubspaceBasis.from_vectors(QQ, 3, [alg.basis_element(0).coords])
    outside = alg.basis_element(1).coords
    with pytest.raises(ValueError, match=r"\(0, 0, 0\)"):
        induced_algebra(alg, line, lambda idx: outside, "none", str)


def test_graded_value_leaving_its_component_is_refused():
    # a fixed argument from the wrong component sends the middle products
    # out of the component they are read in
    graded = catalog.tkk_grading_a1(F5)
    alg = graded.algebra
    am1, a, b, a1 = (alg.basis_element(k) for k in range(4))
    with pytest.raises(ValueError, match="leaves the subspace"):
        catalog._tkk_symmetrized(graded, 0, (a, a1, am1, a1))


def test_labels_keep_basis_elements_and_name_the_rest():
    alg = catalog.dot_triple(QQ, 3)
    sub = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 1)])
    induced = induced_algebra(
        alg, sub, lambda idx: (0, 0, 0), "none", lambda k: "v%d" % k
    )
    assert induced.labels == ("b1", "v1")
    assert induced.is_zero_algebra()


def test_a_name_that_repeats_a_kept_label_is_refused():
    # the old constructor took duplicate labels and wrote a file that
    # could not be loaded back; build refuses them
    alg = catalog.dot_triple(QQ, 3)
    sub = SubspaceBasis.from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        induced_algebra(alg, sub, lambda idx: (0, 0, 0), "none", lambda k: "b1")


@pytest.mark.parametrize("field", [QQ, F5], ids=repr)
def test_a_basis_whose_pivot_is_not_one_is_refused(field):
    # v^3 = 24 b1 = 12 v; over Q the kernel read (2, 0, 0) as its
    # primitive row (1, 0, 0), so the coordinate read at the pivot was 24
    alg = catalog.dot_triple(field, 3)
    v = alg.element((2, 0, 0))
    cube = alg.multiply(v, v, v).coords
    sub = SubspaceBasis(field, 3, [v.coords])
    with pytest.raises(ValueError, match="reduced row echelon form"):
        induced_algebra(alg, sub, lambda idx: cube, "none", str)
    with pytest.raises(ValueError, match="reduced row echelon form"):
        RowSpace.from_rref(field, 3, [{0: 2}])
