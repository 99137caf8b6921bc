"""Dense twins: catalog tables rewritten in a seeded integer basis.

A twin is the same algebra seen through the basis change f_i = sum_j
P[i][j] e_j, where P is a row permutation of a unit lower-triangular
integer matrix with off-diagonal entries in {-2, -1, 1, 2}.  P has
determinant +-1, so it is invertible over Q and over every prime field,
and every basis-free answer (a verdict, a certificate, a dimension) of
the twin equals that of the original.  Far more of the twin's structure
constants are nonzero, which is what makes it expensive.
"""

from __future__ import annotations

import random

from nalg.algebra import NAryAlgebra

CANDIDATES = 8


def unimodular_pair(dim, rng):
    """A seeded integer matrix P with |det P| = 1 and its integer inverse."""
    lower = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        lower[i][i] = 1
        for j in range(i):
            lower[i][j] = rng.choice((-2, -1, 1, 2))
    perm = list(range(dim))
    rng.shuffle(perm)
    p = [list(lower[perm[i]]) for i in range(dim)]
    # forward substitution: L^{-1} is again unit lower triangular
    lower_inv = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        lower_inv[i][i] = 1
        for j in range(i):
            lower_inv[i][j] = -sum(
                lower[i][k] * lower_inv[k][j] for k in range(j, i)
            )
    # P = Pi L with (Pi)_{i, perm[i]} = 1, so P^{-1} = L^{-1} Pi^T
    p_inv = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            p_inv[i][j] = lower_inv[i][perm[j]]
    return p, p_inv


def change_basis(alg, p, p_inv):
    """The algebra in the basis whose i-th vector has e-coordinates p[i];
    p_inv must be the inverse of p."""
    field, d, n = alg.field, alg.dim, alg.arity
    pf = [[field.of(c) for c in row] for row in p]
    table = dict(alg.tensor)
    for slot in range(n):
        out = {}
        for idx, vec in table.items():
            j = idx[slot]
            for i in range(d):
                c = pf[i][j]
                if c == 0:
                    continue
                key = idx[:slot] + (i,) + idx[slot + 1 :]
                acc = out.get(key)
                if acc is None:
                    out[key] = [c * v for v in vec]
                else:
                    for k, v in enumerate(vec):
                        acc[k] = acc[k] + c * v
        table = out
    qf = [[field.of(c) for c in row] for row in p_inv]
    tensor = {}
    for idx, vec in table.items():
        coords = [field.zero] * d
        for k, v in enumerate(vec):
            if v != 0:
                row = qf[k]
                for m in range(d):
                    if row[m] != 0:
                        coords[m] = coords[m] + v * row[m]
        if any(c != 0 for c in coords):
            tensor[idx] = tuple(coords)
    return NAryAlgebra(field, n, d, alg.labels, tensor, alg.symmetry)


def dense_twin(alg, seed, name):
    """The densest of CANDIDATES seeded twins of ``alg`` (the first on a
    tie); ``name`` keeps the twins of one seed independent.

    How much work a twin costs follows how many of its structure
    constants are nonzero, and that varies from one basis to the next.
    Taking the densest candidate makes twins from different seeds cost
    nearly the same.  Returns (twin, p, p_inv) so the caller can verify
    the round trip."""
    best = None
    for k in range(CANDIDATES):
        rng = random.Random("%s:%s:%d" % (seed, name, k))
        p, p_inv = unimodular_pair(alg.dim, rng)
        twin = change_basis(alg, p, p_inv)
        nonzero = _nonzero(twin)
        if best is None or nonzero > best[0]:
            best = (nonzero, twin, p, p_inv)
    return best[1:]


def _nonzero(alg):
    return sum(1 for vec in alg.tensor.values() for c in vec if c != 0)


def density(alg):
    """Share of the d^n * d structure constants that are nonzero."""
    return _nonzero(alg) / float(alg.dim ** (alg.arity + 1))
