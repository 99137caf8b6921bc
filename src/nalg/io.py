"""JSON exchange format for algebras.

The document holds the field, arity, dimension, basis labels, symmetry
hint and the nonzero structure constants.  Scalars travel as canonical
strings ("-3", "5/6", "4"), never as floats, so a parse/emit round trip
is exact and emitted documents are byte-for-byte deterministic.  For a
totally commutative algebra only one representative per orbit (the
sorted index tuple) is written.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import NAryAlgebra
from .fields import GF, QQ, PrimeField, Rationals


def field_to_json(field):
    if isinstance(field, Rationals):
        return "Q"
    if isinstance(field, PrimeField):
        doc = {"prime": field.p}
        if field._i is not None:
            doc["i"] = field._i.r
        return doc
    raise TypeError("unknown field %r" % (field,))


def _is_int(x):
    """A JSON integer: ``true`` and ``false`` load as bools, which Python
    counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def field_from_json(doc):
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and "prime" in doc:
        extra = set(doc) - {"prime", "i"}
        if extra:
            raise ValueError("unknown field keys %s" % sorted(extra))
        if not _is_int(doc["prime"]):
            raise ValueError("field prime must be an integer")
        if "i" in doc and not _is_int(doc["i"]):
            raise ValueError("field i must be an integer")
        return GF(doc["prime"], i=doc.get("i"))
    raise ValueError("field must be \"Q\" or {\"prime\": p[, \"i\": k]}")


def algebra_to_json(alg):
    # scalars are formatted from the int view: over Q den times each one
    den, table = alg.int_table()
    fmt = str if den == 1 else (lambda v: str(Fraction(v, den)))
    products = []
    for idx in sorted(table):
        if alg.symmetry == "total" and tuple(sorted(idx)) != idx:
            continue
        value = {str(j): fmt(v) for j, v in table[idx]}
        products.append({"args": list(idx), "value": value})
    return {
        "field": field_to_json(alg.field),
        "arity": alg.arity,
        "dimension": alg.dim,
        "basis": list(alg.labels),
        "symmetry": alg.symmetry,
        "products": products,
    }


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
    if not isinstance(labels, list) or not all(
        isinstance(l, str) for l in labels
    ):
        raise ValueError("basis must be a list of labels")
    symmetry = doc["symmetry"]
    if not isinstance(doc["products"], list):
        raise ValueError("products must be a list")
    entries = {}
    for item in doc["products"]:
        if not isinstance(item, dict) or set(item) != {"args", "value"}:
            raise ValueError("each product needs exactly args and value")
        args = item["args"]
        if not isinstance(args, list) or not all(map(_is_int, args)):
            raise ValueError("product args must be a list of integers")
        value = item["value"]
        if not isinstance(value, dict):
            raise ValueError("product value must be an object")
        for s in value.values():
            if not isinstance(s, str):
                raise ValueError("scalars must be strings, got %r" % (s,))
        key = tuple(args)
        if key in entries:
            raise ValueError("duplicate product entry for %r" % (key,))
        entries[key] = value
    # build reads each scalar once, straight into the int view
    return NAryAlgebra.build(
        field, arity, dim, entries, labels=labels, symmetry=symmetry
    )


def dumps(alg):
    return json.dumps(algebra_to_json(alg), indent=2) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("not valid JSON: %s" % exc) from exc
    return algebra_from_json(doc)


def dump_file(alg, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(alg))


def load_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
