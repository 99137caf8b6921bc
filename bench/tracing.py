"""Spans and counters recorded from outside nalg, around calls into its layers.

The traced pass replaces public functions and methods of nalg with
wrappers that record one span per call: name, start, end, parent span
and job.  A function is replaced wherever callers look it up: on its
class, in its defining module and in every nalg module that imported it
by name (``cli`` and ``structure`` do).  Wrappers return what the wrapped
call returned, so every job prints the same bytes under tracing.

The hottest calls (basis products, scalar arithmetic, matrix
construction) are only counted, in a separate counting pass, so that
their counters do not inflate the span times.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction


def _nalg_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "nalg" and m]


def _targets(owner, attr):
    """Every (namespace, attribute) through which callers reach owner.attr."""
    original = owner.__dict__[attr]
    found = [(owner, attr)]
    if not isinstance(owner, type):
        for module in _nalg_modules():
            for name, value in vars(module).items():
                if value is original and (module, name) != (owner, attr):
                    found.append((module, name))
    return original, found


@contextmanager
def patched(replacements):
    """Install wrappers for the duration of the block.

    ``replacements`` is a list of (owner, attribute, make_wrapper) where
    make_wrapper maps the original callable to its replacement."""
    undo = []
    try:
        for owner, attr, make in replacements:
            original, places = _targets(owner, attr)
            wrapper = make(original)
            for place, name in places:
                undo.append((place, name, getattr(place, name)))
                setattr(place, name, wrapper)
        yield
    finally:
        for place, name, value in reversed(undo):
            setattr(place, name, value)


# -- spans ------------------------------------------------------------------

# span record fields
NAME, START, END, PARENT, JOB, RESULT = range(6)


def span_points(nalg):
    """(span name, owner, attribute) for every layer boundary traced."""
    alg, linalg = nalg.algebra.NAryAlgebra, nalg.linalg
    checks, structure = nalg.checks, nalg.structure
    derivations, identities = nalg.derivations, nalg.identities
    return [
        ("cli.main", nalg.cli, "main"),
        ("io.load_file", nalg.io, "load_file"),
        ("io.dumps", nalg.io, "dumps"),
        ("linalg.insert", linalg.RowSpace, "insert"),
        ("linalg.contains", linalg.RowSpace, "contains"),
        ("linalg.nullspace", linalg.Matrix, "nullspace"),
        ("linalg.matmul", linalg.Matrix, "__matmul__"),
        ("linalg.closure", linalg, "matrix_algebra_closure"),
        ("algebra.multiply", alg, "multiply"),
        ("algebra.slot_ops", alg, "slot_multiplication_operators"),
        ("checks.dxy", checks, "check_dxy_identity"),
        ("checks.jts", checks, "check_jts_identity"),
        ("checks.jordan", checks, "check_binary_jordan"),
        ("checks.commutative", checks, "check_total_commutativity"),
        ("structure.simplicity", structure, "simplicity"),
        ("structure.ideal_closure", structure, "ideal_closure"),
        ("derivations.der", derivations, "derivation_algebra"),
        ("derivations.inner", derivations, "inner_derivation_space"),
        ("derivations.compare", derivations, "compare"),
        ("identities.space", identities, "identity_space"),
        ("identities.lifting", identities, "lifting_span"),
    ]


class Tracer:
    """In-memory span recorder; ``job`` is set by the caller per job."""

    def __init__(self):
        self.spans = []
        self.job = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if result is True or result is False:
                span[RESULT] = result
            return result

        return traced

    def replacements(self, nalg):
        return [
            (owner, attr, functools.partial(self.wrap, name))
            for name, owner, attr in span_points(nalg)
        ]

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:RESULT]) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    children = [[] for _ in spans]
    for k, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(k)
    out = []
    for k, span in enumerate(spans):
        kids = [(spans[c][START], spans[c][END]) for c in children[k]]
        out.append(span[END] - span[START] - _covered(kids))
    return out


def _ancestors(spans, k):
    parent = spans[k][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def span_metrics(spans):
    """Per-layer metrics derived from a traced pass."""
    calls, seconds = {}, {}
    for k, span in enumerate(spans):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        # a span inside one of its own name is already counted in the outer
        if name not in _ancestors(spans, k):
            seconds[name] = seconds.get(name, 0.0) + span[END] - span[START]
    selfs = self_times(spans)

    def self_of(name):
        return sum(s for span, s in zip(spans, selfs) if span[NAME] == name)

    inserts = [k for k, span in enumerate(spans) if span[NAME] == "linalg.insert"]
    useful = [k for k in inserts if spans[k][RESULT]]
    in_closure = [
        k for k in inserts
        if spans[k][PARENT] >= 0 and spans[spans[k][PARENT]][NAME] == "linalg.closure"
    ]
    identity_rows = [
        k for k in inserts
        if any(a.startswith("identities.") for a in _ancestors(spans, k))
    ]

    def ratio(part, whole):
        return len(part) / len(whole) if whole else 0.0

    return {
        "linalg.insert_calls": calls.get("linalg.insert", 0),
        "linalg.insert_s": seconds.get("linalg.insert", 0.0),
        "linalg.insert_useful_ratio": ratio(useful, inserts),
        "linalg.nullspace_calls": calls.get("linalg.nullspace", 0),
        "linalg.nullspace_s": seconds.get("linalg.nullspace", 0.0),
        "linalg.matmul_calls": calls.get("linalg.matmul", 0),
        "linalg.matmul_s": seconds.get("linalg.matmul", 0.0),
        "linalg.closure_s": seconds.get("linalg.closure", 0.0),
        "linalg.closure_useful_ratio": ratio(
            [k for k in in_closure if spans[k][RESULT]], in_closure
        ),
        "linalg.contains_calls": calls.get("linalg.contains", 0),
        "algebra.multiply_calls": calls.get("algebra.multiply", 0),
        "algebra.multiply_s": seconds.get("algebra.multiply", 0.0),
        "algebra.slot_ops_calls": calls.get("algebra.slot_ops", 0),
        "algebra.slot_ops_s": seconds.get("algebra.slot_ops", 0.0),
        "checks.dxy_s": seconds.get("checks.dxy", 0.0),
        "checks.jts_s": seconds.get("checks.jts", 0.0),
        "checks.jordan_s": seconds.get("checks.jordan", 0.0),
        "checks.commutative_s": seconds.get("checks.commutative", 0.0),
        "structure.simplicity_s": seconds.get("structure.simplicity", 0.0),
        "structure.simplicity_self_s": self_of("structure.simplicity"),
        "structure.ideal_closure_calls": calls.get("structure.ideal_closure", 0),
        "structure.ideal_closure_s": seconds.get("structure.ideal_closure", 0.0),
        "derivations.der_s": seconds.get("derivations.der", 0.0),
        "derivations.inner_s": seconds.get("derivations.inner", 0.0),
        "derivations.compare_s": seconds.get("derivations.compare", 0.0),
        "identities.space_s": seconds.get("identities.space", 0.0),
        "identities.lifting_s": seconds.get("identities.lifting", 0.0),
        "identities.rows_inserted": len(identity_rows),
        "io.load_s": seconds.get("io.load_file", 0.0),
        "cli.self_s": self_of("cli.main"),
        "cli.jobs": calls.get("cli.main", 0),
    }


# -- counters ---------------------------------------------------------------

_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


class Counts:
    """Exact call counts at the hottest boundaries, and the largest
    rational entry (in bits) of any vector linalg hands back."""

    def __init__(self):
        self.n = dict.fromkeys(
            ("q_ops", "fp_ops", "basis_products", "check_basis_products", "matrix_inits"), 0
        )
        self.max_bits = 0
        self._in_check = 0

    def _count(self, name):
        n = self.n

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                n[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _basis_product(self, fn):
        n = self.n

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            n["basis_products"] += 1
            if self._in_check:
                n["check_basis_products"] += 1
            return fn(*args, **kwargs)
        return counted

    def _check(self, fn):
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            self._in_check += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_check -= 1
        return scoped

    def _note(self, vectors):
        best = self.max_bits
        for vec in vectors:
            for c in vec:
                if type(c) is Fraction:
                    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                    if bits > best:
                        best = bits
        self.max_bits = best

    def _returns(self, pick):
        def make(fn):
            @functools.wraps(fn)
            def noted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._note(pick(result))
                return result
            return noted
        return make

    def replacements(self, nalg):
        linalg, checks = nalg.linalg, nalg.checks
        out = [(Fraction, attr, self._count("q_ops")) for attr in _ARITHMETIC]
        out += [(nalg.fields.Mod, attr, self._count("fp_ops")) for attr in _ARITHMETIC]
        out += [
            (nalg.algebra.NAryAlgebra, "product_of_basis", self._basis_product),
            (linalg.Matrix, "__init__", self._count("matrix_inits")),
            (linalg.RowSpace, "rows", self._returns(lambda rows: rows)),
            (linalg.Matrix, "nullspace", self._returns(lambda sub: sub.vectors)),
            (linalg.Matrix, "apply", self._returns(lambda vec: (vec,))),
            (linalg, "matrix_algebra_closure", self._returns(lambda res: res[0].vectors)),
        ]
        out += [
            (checks, name, self._check)
            for name in (
                "check_total_commutativity",
                "check_dxy_identity",
                "check_jts_identity",
                "check_binary_jordan",
            )
        ]
        return out

    def metrics(self):
        return {
            "fields.q_ops": self.n["q_ops"],
            "fields.fp_ops": self.n["fp_ops"],
            "fields.max_bits": self.max_bits,
            "algebra.basis_product_calls": self.n["basis_products"],
            "checks.basis_products": self.n["check_basis_products"],
            "linalg.matrix_inits": self.n["matrix_inits"],
        }
