"""The file loader as it was before algebras stored the int view.

``algebra_from_json`` made a ``Fraction`` or ``Mod`` of every scalar,
``build`` coerced each again into a tuple of field scalars, filled the
orbits of a totally symmetric table and dropped the zero products, and
``int_table`` turned the boxed tensor back into ints on first use.  The
tests keep these three steps as references for ``nalg.io.loads``,
``NAryAlgebra.build`` and ``NAryAlgebra.int_table``.
"""

from math import lcm

from nalg.algebra import NAryAlgebra, distinct_permutations
from nalg.io import _is_int, field_from_json


def coerce_vector(field, dim, value):
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


def build(field, arity, dim, entries, labels=None, symmetry="none"):
    """The algebra of ``entries``, made from its tensor in field scalars."""
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
        vec = coerce_vector(field, dim, value)
        if idx in normalized and normalized[idx] != vec:
            raise ValueError("conflicting entries for %r" % (idx,))
        normalized[idx] = vec

    if symmetry == "total":
        filled = {}
        for idx, vec in sorted(normalized.items()):
            for p in distinct_permutations(idx):
                if p in filled and filled[p] != vec:
                    raise ValueError("entries for the orbit of %r disagree" % (idx,))
                filled[p] = vec
        normalized = filled

    tensor = {
        idx: vec for idx, vec in normalized.items() if any(c != 0 for c in vec)
    }
    return NAryAlgebra(field, arity, dim, labels, tensor, symmetry)


def algebra_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("algebra document must be an object")
    required = {"field", "arity", "dimension", "basis", "symmetry", "products"}
    missing = required - set(doc)
    if missing:
        raise ValueError("missing keys %s" % sorted(missing))
    field = field_from_json(doc["field"])
    arity = doc["arity"]
    dim = doc["dimension"]
    if not _is_int(arity) or not _is_int(dim):
        raise ValueError("arity and dimension must be integers")
    labels = doc["basis"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise ValueError("basis must be a list of labels")
    symmetry = doc["symmetry"]
    if not isinstance(doc["products"], list):
        raise ValueError("products must be a list")
    entries = {}
    for item in doc["products"]:
        if not isinstance(item, dict) or set(item) != {"args", "value"}:
            raise ValueError("each product needs exactly args and value")
        args = item["args"]
        if not isinstance(args, list) or not all(_is_int(a) for a in args):
            raise ValueError("product args must be a list of integers")
        value = item["value"]
        if not isinstance(value, dict):
            raise ValueError("product value must be an object")
        vec = {}
        for j, s in value.items():
            if not isinstance(s, str):
                raise ValueError("scalars must be strings, got %r" % (s,))
            vec[int(j)] = field.parse(s)
        key = tuple(args)
        if key in entries:
            raise ValueError("duplicate product entry for %r" % (key,))
        entries[key] = vec
    return build(field, arity, dim, entries, labels=labels, symmetry=symmetry)


def int_table(field, tensor):
    """(den, table) of a tensor in field scalars: residues over GF(p),
    over Q the tensor times the lcm of its denominators."""
    if field.char:
        return 1, {idx: tuple([c.r for c in vec]) for idx, vec in tensor.items()}
    den = lcm(*{c.denominator for vec in tensor.values() for c in vec})
    return den, {
        idx: tuple([c.numerator * (den // c.denominator) for c in vec])
        for idx, vec in tensor.items()
    }
