"""Shared test corpora: families of groups used across the suite."""

from functools import lru_cache

import numpy as np

from h1loc.counterexample import family_matrix, twist_matrix
from h1loc.errors import CapExceededError
from h1loc.groups import MatGroup
from h1loc.ringmat import Mat, ModuleSpec


def M(rows, q):
    return Mat.from_rows(rows, q)


def representatives_stop(G):
    """(reps, stop): G's cyclic class representatives and the end of the
    BFS layer holding the last of them, 1 when there are none."""
    reps = G.cyclic_class_representatives()
    last = max(reps, default=0)
    return reps, next((end for start, end in G.tree_layers()
                       if start <= last < end), 1)


@lru_cache(maxsize=None)
def small_oracle_groups():
    """Groups of order <= 30 on modules of size <= 625, spanning
    p in {2, 3, 5} and n in {1, 2}: the brute-force comparison corpus."""
    out = []

    def add(label, p, n, gens):
        spec = ModuleSpec(p, n, 2)
        out.append((label, MatGroup.close(
            [M(g, spec.modulus) for g in gens], spec)))

    # p = 2, n = 1
    add("p2n1 unipotent", 2, 1, [[[1, 1], [0, 1]]])
    add("p2n1 swap", 2, 1, [[[0, 1], [1, 0]]])
    add("p2n1 GL2(F2)", 2, 1, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    add("p2n1 order3", 2, 1, [[[1, 1], [1, 0]]])
    # p = 2, n = 2
    add("p2n2 unipotent", 2, 2, [[[1, 1], [0, 1]]])
    add("p2n2 -Id", 2, 2, [[[3, 0], [0, 3]]])
    add("p2n2 swap+shift", 2, 2, [[[0, 1], [1, 0]], [[1, 2], [0, 1]]])
    add("p2n2 order3", 2, 2, [[[1, 1], [1, 0]]])
    add("p2n2 mixed", 2, 2, [[[3, 0], [0, 3]], [[1, 2], [0, 1]]])
    # p = 3, n = 1
    add("p3n1 -Id", 3, 1, [[[2, 0], [0, 2]]])
    add("p3n1 unipotent", 3, 1, [[[1, 1], [0, 1]]])
    add("p3n1 SL2(F3)", 3, 1, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    add("p3n1 order4", 3, 1, [[[0, 1], [2, 0]]])
    add("p3n1 dihedral", 3, 1, [[[2, 0], [0, 2]], [[0, 1], [1, 0]]])
    add("p3n1 diag", 3, 1, [[[2, 0], [0, 1]]])
    # p = 3, n = 2
    add("p3n2 unipotent", 3, 2, [[[1, 1], [0, 1]]])
    add("p3n2 scalar4", 3, 2, [[[4, 0], [0, 4]]])
    add("p3n2 scalar2", 3, 2, [[[2, 0], [0, 2]]])
    add("p3n2 two-step", 3, 2, [[[1, 3], [0, 1]], [[4, 0], [0, 4]]])
    add("p3n2 order6+shift", 3, 2, [[[2, 0], [0, 2]], [[1, 3], [0, 1]]])
    # p = 5, n = 1
    add("p5n1 unipotent", 5, 1, [[[1, 1], [0, 1]]])
    add("p5n1 diag23", 5, 1, [[[2, 0], [0, 3]]])
    add("p5n1 scalar2", 5, 1, [[[2, 0], [0, 2]]])
    add("p5n1 antidiag", 5, 1, [[[0, 1], [4, 0]]])
    # p = 5, n = 2 (cyclic ones keep the enumeration cheap)
    add("p5n2 family-h", 5, 2, [[[1 + 5, 15], [0, 1 - 5]]])
    add("p5n2 order3", 5, 2, [[[1, -3], [1, -2]]])
    add("p5n2 diag23^5", 5, 2, [[[7, 0], [0, 18]]])
    add("p5n2 unipotent", 5, 2, [[[1, 1], [0, 1]]])
    add("p5n2 H-pair", 5, 2,
        [family_matrix(5, 1, 0).entries, family_matrix(5, 0, 1).entries])
    return out


@lru_cache(maxsize=None)
def twist_corpus():
    """<g, H> mod p^2 for p in {5, 7}: twists of assorted orders against
    p-subgroups of the reduction kernel.  The criterion soundness sweep and
    several invariant sweeps run over this corpus."""
    out = []
    for p in (5, 7):
        q = p * p
        spec = ModuleSpec(p, 2, 2)
        twists = [
            ("id", Mat.identity(2, q)),
            ("order3", twist_matrix(p)),
            ("neg", M([[-1, 0], [0, -1]], q)),
            ("diag23^p", M([[2, 0], [0, 3]], q).pow(p)),
            ("diag21^p", M([[2, 0], [0, 1]], q).pow(p)),
            ("scalar2^p", M([[2, 0], [0, 2]], q).pow(p)),
            ("unipotent", M([[1, 1], [0, 1]], q)),
            ("diag23", M([[2, 0], [0, 3]], q)),
        ]
        subgroups = [
            ("trivial", []),
            ("h(1,0)", [family_matrix(p, 1, 0)]),
            ("H2", [family_matrix(p, 1, 0), family_matrix(p, 0, 1)]),
            ("pE12", [M([[1, p], [0, 1]], q)]),
            ("pE12+pE21", [M([[1, p], [0, 1]], q), M([[1, 0], [p, 1]], q)]),
            ("p-scalar", [M([[1 + p, 0], [0, 1 + p]], q)]),
            ("p-sl2", [M([[1, p], [0, 1]], q), M([[1, 0], [p, 1]], q),
                       M([[1 + p, 0], [0, 1 - p]], q)]),
        ]
        for tl, g in twists:
            for hl, hg in subgroups:
                try:
                    G = MatGroup.close([g] + hg, spec, cap=20000)
                except CapExceededError:
                    continue
                out.append((f"p{p} g={tl} H={hl}", p, g, G))
    return out


@lru_cache(maxsize=None)
def semisimple_groups():
    """(label, group): the Borel <diag(u, 1), diag(1, u), [[1, 1], [0, 1]]>
    of GL_2(Z/p^n), u a primitive root mod p^n, and <[[2, 1], [0, 2]],
    [[1, p], [0, 1]]>, each mod 9, 27, 25 and 49.  Many of their elements
    have a p-part, and the reduction of [[2, 1], [0, 2]] has order 6, 20
    or 21, divisible by p."""
    out = []
    for p, n, u in ((3, 2, 2), (3, 3, 2), (5, 2, 2), (7, 2, 3)):
        q = p ** n
        spec = ModuleSpec(p, n, 2)
        out.append((f"borel mod {q}", MatGroup.close(
            [M([[u, 0], [0, 1]], q), M([[1, 0], [0, u]], q),
             M([[1, 1], [0, 1]], q)], spec)))
        out.append((f"jordan mod {q}", MatGroup.close(
            [M([[2, 1], [0, 2]], q), M([[1, p], [0, 1]], q)], spec)))
    return out


def byte_key_group():
    """A rank-4 group mod 25: q^16 >= 2^63, so its element keys are byte
    strings."""
    spec = ModuleSpec(5, 2, 4)
    e12 = np.eye(4, dtype=np.int64)
    e12[0, 1] = 1
    e34 = np.eye(4, dtype=np.int64)
    e34[2, 3] = 5
    swap = np.eye(4, dtype=np.int64)[[0, 1, 3, 2]]
    return MatGroup.close([Mat.from_array(a, spec.modulus)
                           for a in (e12, e34, swap)], spec)


@lru_cache(maxsize=None)
def cohomology_cases():
    """(label, group, module exponent): every twist-corpus group at j = 2
    and 1, and every small oracle group at each j <= n; 268 cases."""
    out = [(f"{label} j={j}", G, j)
           for label, _p, _g, G in twist_corpus() for j in (2, 1)]
    out += [(f"{label} j={j}", G, j) for label, G in small_oracle_groups()
            for j in range(1, G.spec.n + 1)]
    return out
