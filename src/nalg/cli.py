"""Command line front end.

Verdict text goes to stdout and is byte-for-byte deterministic for a
given input; wall-clock timing goes to stderr.  Exit codes: 0 for
pass/simple/success, 1 for fail/not-simple, 2 for undetermined, 3 for
bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import catalog, io
from .algebra import format_terms
from .checks import (
    check_binary_jordan,
    check_dxy_identity,
    check_jts_identity,
    check_total_commutativity,
)
from .derivations import compare, derivation_algebra, inner_derivation_space
from .fields import GF, QQ
from .identities import identity_space, lifting_span
from .structure import simplicity


def parse_field(text):
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("F"):
        try:
            return GF(int(text[1:]))
        except ValueError as exc:
            raise ValueError("bad field %r: %s" % (text, exc)) from exc
    raise ValueError("field must be Q or F<p>, got %r" % text)


def parse_element(alg, text):
    text = text.strip()
    if text in alg.labels:
        return alg.by_label(text)
    parts = text.split(",")
    if len(parts) != alg.dim:
        raise ValueError(
            "element must be a basis label or %d comma-separated scalars"
            % alg.dim
        )
    return alg.element([alg.field.parse(p) for p in parts])


def _format_args(alg, els):
    return "(%s)" % ", ".join(alg.format_element(e) for e in els)


_WITNESS_KEYS = {
    "commutativity": ("args", "permuted"),
    "dxy": ("x", "y", "z"),
    "jts": ("args",),
    "jordan_raw": ("x", "y"),
    "jordan_linearized": ("x", "y"),
}


def print_witness(alg, witness, out):
    for key in _WITNESS_KEYS.get(witness.kind, ()):
        value = witness.data[key]
        if isinstance(value, tuple):
            out.write("%s = %s\n" % (key, _format_args(alg, value)))
        else:
            out.write("%s = %s\n" % (key, alg.format_element(value)))
    out.write("LHS = %s\n" % alg.format_element(witness.lhs))
    out.write("RHS = %s\n" % alg.format_element(witness.rhs))


# catalog name to the algebra it builds from the field and the options
_CATALOG = {
    "vfgh": lambda f, a: catalog.form_extension(f, a.dimv, f=a.f, g=a.g, h=a.h),
    "A": lambda f, a: catalog.dot_triple(f, a.dim),
    "J-form": lambda f, a: catalog.spin_factor(f, a.dimv),
    "sym-matrix": lambda f, a: catalog.sym_matrix(f, a.n),
    "s1": lambda f, a: catalog.s1(f, a.n, a.i, a.j),
    "s2": lambda f, a: catalog.s2(f, a.n, a.i, a.j),
    "quaternion-ternary": lambda f, a: catalog.conj_triple(
        catalog.quaternions(f, f.parse(a.a), f.parse(a.b))
    ),
    "octonion-ternary": lambda f, a: catalog.conj_triple(
        catalog.octonions(f, f.parse(a.a), f.parse(a.b), f.parse(a.c))
    ),
    "a1": lambda f, a: catalog.filippov_a1(f),
    "tca1": lambda f, a: catalog.tca1(f),
    "tkk-J": lambda f, a: catalog.tkk_ternary(catalog.tkk_grading_a1(f)),
}


def _build_catalog(args):
    return _CATALOG[args.name](parse_field(args.field), args)


def cmd_catalog(args, out):
    alg = _build_catalog(args)
    out.write(io.dumps(alg))
    return 0


def cmd_check(args, out):
    alg = io.load_file(args.file)
    kind = args.kind
    if kind == "commutative":
        verdict = check_total_commutativity(alg)
    elif kind == "dxy":
        verdict = check_dxy_identity(alg)
    elif kind == "jts":
        verdict = check_jts_identity(alg)
    elif kind == "binary-jordan":
        verdict = check_binary_jordan(alg)
    else:
        raise ValueError("unknown check %r" % kind)
    out.write("check: %s\n" % kind)
    out.write(
        "algebra: arity %d, dim %d, field %r\n" % (alg.arity, alg.dim, alg.field)
    )
    out.write("status: %s\n" % ("pass" if verdict.passed else "fail"))
    if verdict.witness is not None:
        print_witness(alg, verdict.witness, out)
    return 0 if verdict.passed else 1


def cmd_simple(args, out):
    alg = io.load_file(args.file)
    report = simplicity(alg)
    out.write("simple: %s\n" % report.status)
    out.write("certificate: %s\n" % report.certificate)
    if report.ideal is not None:
        out.write("ideal dim = %d\n" % report.ideal.dim)
        for v in report.ideal.vectors:
            out.write("ideal basis: %s\n" % alg.format_element(alg.element(v)))
    return {"simple": 0, "not_simple": 1, "undetermined": 2}[report.status]


def cmd_der(args, out):
    alg = io.load_file(args.file)
    der = derivation_algebra(alg)
    out.write("derivations: dim %d\n" % der.rank)
    for k, mat in enumerate(der.matrices()):
        out.write("D%d:\n" % (k + 1))
        for i in range(alg.dim):
            img = alg.element(mat.rows[i])
            out.write(
                "  %s -> %s\n" % (alg.labels[i], alg.format_element(img))
            )
    if args.inner:
        inner = inner_derivation_space(alg)
        out.write("inner derivations: dim %d\n" % inner.rank)
        out.write("compare: %s\n" % compare(inner, der))
    return 0


def cmd_identities(args, out):
    if args.modulo is not None and args.degree != 2:
        raise ValueError("--modulo only supports degree1 against degree 2")
    alg = io.load_file(args.file)
    space = identity_space(alg, args.degree, args.mode)
    out.write("identities: degree %d, mode %s\n" % (args.degree, args.mode))
    out.write("monomials: %d\n" % len(space.monomials))
    out.write("dim = %d\n" % space.solutions.dim)
    gens = space.solutions.terms()
    names = [m.render() for m in space.monomials] if gens else []
    for k, terms in enumerate(gens):
        named = [(names[m], c) for m, c in terms]
        out.write("gen %d: %s\n" % (k + 1, format_terms(alg.field, named)))
    if args.modulo is not None:
        base = identity_space(alg, 1, "general")
        lifted = lifting_span(alg.arity, base, args.mode)
        out.write("lifting dim = %d\n" % lifted.solutions.dim)
        contained = space.solutions.contains(lifted.solutions)
        # a subspace of equal dimension is the whole space
        equal = contained and lifted.solutions.dim == space.solutions.dim
        out.write("lifting contained: %s\n" % ("yes" if contained else "no"))
        out.write("lifting equal: %s\n" % ("yes" if equal else "no"))
    return 0


def cmd_reduce(args, out):
    alg = io.load_file(args.file)
    el = parse_element(alg, args.element)
    out.write(io.dumps(alg.reduce(args.slot, el)))
    return 0


def cmd_validate(args, out):
    alg = io.load_file(args.file)
    out.write(
        "ok: arity %d, dim %d, field %r, symmetry %s, products %d\n"
        % (alg.arity, alg.dim, alg.field, alg.symmetry, len(alg.int_table()[1]))
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nalg",
        description="exact computations with n-ary algebras given by "
        "structure constants",
    )
    parser.add_argument(
        "--par",
        type=int,
        default=1,
        help="accepted and ignored: every scan runs serially",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a built-in algebra as JSON")
    p.add_argument("name", choices=list(_CATALOG))
    p.add_argument("--field", default="Q")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--dimv", type=int, default=1)
    p.add_argument("--f", action="store_true")
    p.add_argument("--g", action="store_true")
    p.add_argument("--h", action="store_true")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--a", default="-1")
    p.add_argument("--b", default="-1")
    p.add_argument("--c", default="-1")
    p.set_defaults(run=cmd_catalog)

    p = sub.add_parser("check", help="run one identity check on a file")
    p.add_argument("kind", choices=["commutative", "dxy", "jts", "binary-jordan"])
    p.add_argument("file")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("simple", help="three-outcome simplicity test")
    p.add_argument("file")
    p.set_defaults(run=cmd_simple)

    p = sub.add_parser("der", help="derivation space of a file")
    p.add_argument("file")
    p.add_argument("--inner", action="store_true")
    p.set_defaults(run=cmd_der)

    p = sub.add_parser("identities", help="multilinear identity spaces")
    p.add_argument("file")
    p.add_argument("--degree", type=int, choices=[1, 2], required=True)
    p.add_argument("--mode", choices=["general", "commutative"], default="general")
    p.add_argument("--modulo", choices=["degree1"], default=None)
    p.set_defaults(run=cmd_identities)

    p = sub.add_parser("reduce", help="freeze one slot at an element")
    p.add_argument("file")
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--element", required=True)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("validate", help="parse a file and report its shape")
    p.add_argument("file")
    p.set_defaults(run=cmd_validate)

    return parser


@functools.cache
def _parser():
    """The parser of :func:`main`, built once per process: parsing leaves
    no state in it, so every call reads its argv alone."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.run(args, sys.stdout)
    except (ValueError, TypeError, OSError, ZeroDivisionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    finally:
        sys.stderr.write("time: %.3fs\n" % (time.perf_counter() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
