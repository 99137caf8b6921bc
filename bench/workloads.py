"""Inputs and job lists of the three benchmark workloads.

A job is one CLI call, written as a tuple of argv tokens in which input
files appear by name.  An input name is ``family.field[.param...]``, for
example ``dot.Q.8`` (dot_triple over Q in dimension 8) or ``fx.F3.2.fh``
(form_extension over F_3 with dim_v = 2 and the f and h flags).  A name
ending in ``~`` is the dense twin of the input without the ``~``.

The job id is the argv joined by spaces; it names the answer-key entry.
A twin job's answers are compared with the key entry of the same job on
the original input (the id without ``~``).
"""

from __future__ import annotations

from itertools import product

from nalg import catalog
from nalg.algebra import NAryAlgebra
from nalg.fields import GF, QQ

TWIN = "~"
FLAG_FIELDS = ("Q", "F2", "F3", "F5")


def field_of(tag):
    return QQ if tag == "Q" else GF(int(tag[1:]))


def _flags(text):
    return {k: k in text for k in "fgh"}


def _minus_one(field):
    return field.of(-1)


def _diagonal_triple(field, dim):
    """Ternary product with e_i e_i e_i = e_i and every other basis
    product zero; a triple system, so the jts scan runs to the end."""
    entries = {(i, i, i): {i: 1} for i in range(dim)}
    return NAryAlgebra.build(field, 3, dim, entries, symmetry="total")


def _zero_algebra(field, dim):
    return NAryAlgebra.build(field, 3, dim, {})


def _reduced_dot(field, dim):
    alg = catalog.dot_triple(field, dim)
    return alg.reduce(1, alg.by_label("b1"))


_FAMILIES = {
    "dot": lambda f, d: catalog.dot_triple(f, int(d)),
    "spin": lambda f, v: catalog.spin_factor(f, int(v)),
    "sym": lambda f, n: catalog.sym_matrix(f, int(n)),
    "quat": lambda f: catalog.conj_triple(
        catalog.quaternions(f, _minus_one(f), _minus_one(f))
    ),
    "oct": lambda f: catalog.conj_triple(
        catalog.octonions(f, _minus_one(f), _minus_one(f), _minus_one(f))
    ),
    "a1": catalog.filippov_a1,
    "tkk": lambda f: catalog.tkk_ternary(catalog.tkk_grading_a1(f)),
    "fx": lambda f, v, flags: catalog.form_extension(f, int(v), **_flags(flags)),
    "diag": lambda f, d: _diagonal_triple(f, int(d)),
    "zero": lambda f, d: _zero_algebra(f, int(d)),
    "red": lambda f, d: _reduced_dot(f, int(d)),
}


def build_input(name):
    """The algebra an input name stands for (twins are built elsewhere)."""
    family, tag, *params = name.split(".")
    return _FAMILIES[family](field_of(tag), *params)


def is_input(token):
    return token.split(".")[0] in _FAMILIES and "." in token


def input_of(job):
    return next(t for t in job if is_input(t))


def job_id(job):
    return " ".join(job)


def original_id(job):
    return job_id(job).replace(TWIN, "")


def is_twin(job):
    return input_of(job).endswith(TWIN)


def field_kind(job):
    return "Q" if input_of(job).split(".")[1].rstrip(TWIN) == "Q" else "Fp"


def _grid():
    """The flag grid: four fields, dim_v 1..3, all eight flag sets."""
    return [
        "fx.%s.%d.%s" % (tag, dimv, "f" * f + "g" * g + "h" * h or "-")
        for tag in FLAG_FIELDS
        for dimv in (1, 2, 3)
        for f, g, h in product((False, True), repeat=3)
    ]


# Every workload also asks each question once on a small input, so
# every layer appears in every trace.  These add milliseconds.
PROBES = [
    ("check", "commutative", "dot.Q.3"),
    ("check", "dxy", "dot.Q.3"),
    ("check", "jts", "dot.Q.3"),
    ("check", "binary-jordan", "spin.Q.2"),
    ("simple", "fx.Q.1.g"),
    ("der", "a1.Q", "--inner"),
    (
        "identities", "dot.Q.2", "--degree", "2",
        "--mode", "commutative", "--modulo", "degree1",
    ),
]


def _scan():
    jobs = [
        ("check", "dxy", "dot.Q.8"),
        ("check", "dxy", "dot.F13.8"),
        ("check", "dxy", "quat.Q"),
        ("check", "dxy", "a1.Q"),
        ("check", "jts", "diag.Q.7"),
        ("check", "binary-jordan", "spin.Q.6"),
        ("check", "binary-jordan", "spin.Q.7"),
        ("check", "dxy", "dot.Q.6" + TWIN),
        ("check", "dxy", "dot.F13.6" + TWIN),
        ("check", "dxy", "quat.Q" + TWIN),
    ]
    jobs += [("check", "dxy", name) for name in _grid()]
    for name in ("oct.Q", "sym.Q.3", "dot.Q.6"):
        for kind in ("dxy", "jts", "commutative"):
            jobs.append(("check", kind, name))
    jobs.append(("reduce", "dot.Q.4", "--slot", "1", "--element", "b1"))
    jobs.append(("check", "binary-jordan", "red.Q.4"))
    return jobs


def _space():
    jobs = [
        ("identities", "dot.Q.3", "--degree", "2"),
        ("identities", "tkk.F13", "--degree", "2", "--modulo", "degree1"),
        ("identities", "tkk.F13" + TWIN, "--degree", "2"),
        ("identities", "tkk.F13", "--degree", "1"),
        ("identities", "tkk.F13", "--degree", "2", "--mode", "commutative"),
        ("der", "oct.Q", "--inner"),
        ("der", "oct.F13", "--inner"),
        ("der", "sym.Q.3", "--inner"),
        ("der", "dot.Q.8", "--inner"),
        ("der", "dot.Q.6" + TWIN, "--inner"),
    ]
    jobs += [("identities", name, "--degree", "1") for name in _grid()]
    return jobs


def _simple():
    jobs = [
        ("simple", "dot.Q.5"),
        ("simple", "dot.F13.5"),
        ("simple", "quat.Q"),
        ("simple", "sym.Q.2"),
        ("simple", "a1.Q"),
        ("simple", "spin.Q.6"),
        ("simple", "quat.Q" + TWIN),
        ("simple", "dot.Q.4" + TWIN),
        ("simple", "sym.Q.2" + TWIN),
        ("simple", "zero.Q.3"),
    ]
    # every flag case with dim_v 1 or 2, and the not-simple ones with
    # dim_v 3 (no flags, or h alone); the simple dim_v 3 cases cost
    # about 0.3 s each and exercise nothing the others do not
    for name in _grid():
        dimv, flags = name.split(".")[2:]
        if dimv != "3" or flags in ("-", "h"):
            jobs.append(("simple", name))
    return jobs


def _with_probes(jobs):
    return jobs + [p for p in PROBES if p not in jobs]


WORKLOADS = {
    "scan": _with_probes(_scan()),
    "space": _with_probes(_space()),
    "simple": _with_probes(_simple()),
}


def is_early(job, exit_code):
    """Does the keyed answer end the job early?  A counterexample (exit 1)
    does; so do the degree-1 and commutative-mode identity spaces, the
    cheap sweep of the space workload, where every answer is a space."""
    if job[0] == "identities":
        return job[job.index("--degree") + 1] == "1" or "commutative" in job
    return exit_code == 1
