"""Benchmark inputs, built with plain Python integers.

Nothing here imports h1loc: the inputs and the reference closures the
checkers use are computed apart from the program under test.
"""

from __future__ import annotations

import random

# Known fault kept in the twist-criteria workload: <-I> over Z/p with
# p = 3037000507.  (p - 1)^2 exceeds 2^63 - 1, so int64 closure wraps.
BIG_P = 3037000507


def mat_mul(a, b, q):
    n = len(b)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def mat_pow(a, e, q):
    out = identity(len(a))
    for _ in range(e):
        out = mat_mul(out, a, q)
    return out


def identity(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def reduce(rows, q):
    return tuple(tuple(x % q for x in row) for row in rows)


def closure(gens, q):
    """Every product of the generators, as a set of tuple matrices."""
    r = len(gens[0]) if gens else 1
    seen = {identity(r)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, q)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def inverse2(a, q):
    """Inverse of an invertible 2x2 matrix mod q."""
    (w, x), (y, z) = a
    d = pow((w * z - x * y) % q, -1, q)
    return reduce(((d * z, -d * x), (-d * y, d * w)), q)


def family(p, a, b):
    """h(a, b) = Id + p [[a-2b, 3(b-a)], [-b, 2b-a]] over Z/p^2."""
    return reduce(((1 + p * (a - 2 * b), 3 * p * (b - a)),
                   (-p * b, 1 - p * (a - 2 * b))), p * p)


def twist_corpus():
    """The 112 groups <g, H> mod p^2, p in {5, 7}: twists of assorted
    orders against p-subgroups of the reduction kernel.  Same recipe as the
    test suite's twist corpus.  Yields (label, p, generator list)."""
    for p in (5, 7):
        q = p * p
        twists = [
            ("id", identity(2)),
            ("order3", reduce(((1, -3), (1, -2)), q)),
            ("neg", reduce(((-1, 0), (0, -1)), q)),
            ("diag23^p", mat_pow(((2, 0), (0, 3)), p, q)),
            ("diag21^p", mat_pow(((2, 0), (0, 1)), p, q)),
            ("scalar2^p", mat_pow(((2, 0), (0, 2)), p, q)),
            ("unipotent", ((1, 1), (0, 1))),
            ("diag23", ((2, 0), (0, 3))),
        ]
        e12 = ((1, p), (0, 1))
        e21 = ((1, 0), (p, 1))
        subgroups = [
            ("trivial", []),
            ("h(1,0)", [family(p, 1, 0)]),
            ("H2", [family(p, 1, 0), family(p, 0, 1)]),
            ("pE12", [e12]),
            ("pE12+pE21", [e12, e21]),
            ("p-scalar", [((1 + p, 0), (0, 1 + p))]),
            ("p-sl2", [e12, e21, reduce(((1 + p, 0), (0, 1 - p)), q)]),
        ]
        for tl, g in twists:
            for hl, hg in subgroups:
                yield f"p{p} g={tl} H={hl}", p, [g] + hg


def random_conjugator(rng: random.Random, p):
    """A uniformly drawn invertible 2x2 matrix mod p^2."""
    q = p * p
    while True:
        a = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
        if (a[0][0] * a[1][1] - a[0][1] * a[1][0]) % p:
            return a


def conjugate(gens, t, q):
    ti = inverse2(t, q)
    return [mat_mul(mat_mul(t, g, q), ti, q) for g in gens]


def group_file(p, n, gens):
    out = [f"p={p} n={n} rank={len(gens[0]) if gens else 2}"]
    for g in gens:
        out.append("gen:")
        out.extend(" ".join(str(x) for x in row) for row in g)
    return "\n".join(out) + "\n"


def gsp4_order(p):
    return p ** 4 * (p - 1) ** 3 * (p + 1) ** 2 * (p * p + 1)
