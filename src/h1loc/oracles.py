"""Brute-force oracles.

Everything here recomputes results of the main modules by direct enumeration
over small instances, deliberately avoiding the Howell/kernel machinery so
the two paths stay independent.  The test suite freezes values produced by
these oracles and cross-checks the linear-algebra path against them.

The reference_* functions are the slow paths that batched code replaced,
kept one element at a time so the fast paths can be tested against them.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CapExceededError, certify
from .ringmat import Mat, RowSystem, _valuation


def reference_closure(generators, spec, cap=None):
    """MatGroup.close one product at a time, as a reference for its
    vectorized BFS: (element keys, tree_parent, tree_gen).

    Elements come in BFS layer order, lexicographic within a layer; an
    element's tree edge (parent, generator) is its first product in
    layer-position-major, generator-minor order."""
    q = spec.modulus
    gens = [Mat.from_rows(g.entries, q) for g in generators]
    ident = Mat.identity(spec.rank, q)
    elements, parent, label = [ident], [-1], [-1]
    index = {ident.key(): 0}
    layer = [0]
    while layer:
        found = {}
        for i in layer:
            for gi, g in enumerate(gens):
                key = elements[i].mul(g).key()
                if key not in index and key not in found:
                    found[key] = (i, gi)
        if cap is not None and len(elements) + len(found) > cap:
            raise CapExceededError("group closure", cap)
        layer = []
        for key in sorted(found):
            index[key] = len(elements)
            layer.append(len(elements))
            elements.append(Mat(key, q))
            parent.append(found[key][0])
            label.append(found[key][1])
    return [m.key() for m in elements], parent, label


def reference_coefficients(G, module_exponent) -> np.ndarray:
    """The coefficient array C of the cocycle system of G mod p^j, one
    element at a time along the closure tree, as a reference for its
    layer-by-layer construction: C[x g] = C[x] + x E_g."""
    q = G.spec.p ** module_exponent
    m, k = G.spec.rank, len(G.generators)
    acts = G.element_array() % q
    C = np.zeros((G.order, m, k * m), dtype=np.int64)
    for idx in range(G.order):
        par = G.tree_parent[idx]
        if par < 0:
            continue
        g = G.tree_gen[idx]
        C[idx] = C[par].copy()
        C[idx][:, g * m:(g + 1) * m] += acts[par]
        C[idx] %= q
    return C


def reference_howell_rows(M, p: int, n: int) -> np.ndarray:
    """ringmat._howell_rows one row at a time, as a reference for its
    column steps vectorized across rows: the same canonical Howell form.
    It computes with Python integers, so it is exact at any modulus."""
    q = p ** n
    M = np.asarray(M, dtype=np.int64).astype(object) % q
    ncols = M.shape[1]
    work = [row.copy() for row in M]
    placed = []  # (pivot_col, pivot_val, row)
    active = np.flatnonzero((M != 0).any(axis=0)) if M.size else []
    for col in active:
        col = int(col)
        best, bestv = None, n
        for i, r in enumerate(work):
            e = int(r[col])
            if e:
                v = _valuation(e, p, n)
                if v < bestv:
                    best, bestv = i, v
        if best is None:
            continue
        piv = work.pop(best)
        v = bestv
        u = int(piv[col]) // p ** v
        piv = (piv * pow(u, -1, q)) % q
        for i in range(len(work)):
            e = int(work[i][col])
            if e:
                f = e // p ** v
                work[i] = (work[i] - f * piv) % q
        if v:
            ann = (piv * p ** (n - v)) % q
            if ann.any():
                work.append(ann)
        placed.append((col, v, piv))
    for i, (ci, vi, ri) in enumerate(placed):
        mod = p ** vi
        for j in range(i):
            cj, vj, rj = placed[j]
            f = int(rj[ci]) // mod
            if f:
                placed[j] = (cj, vj, (rj - f * ri) % q)
    return np.array([r for (_, _, r) in placed],
                    dtype=np.int64).reshape(len(placed), ncols)


def reference_cocycle_rows(G, module_exponent=None) -> np.ndarray:
    """The whole stack of cocycle constraint rows C[g x] - E_g - g C[x],
    one generator g at a time over all elements x, as a reference for
    folding them into a Howell basis block by block."""
    from .cohomology import _system
    sys = _system(G, module_exponent)
    m, blocks = sys.m, [np.zeros((0, sys.dim), dtype=np.int64)]
    for gidx, gmat in enumerate(G.generators):
        E = np.zeros((m, sys.dim), dtype=np.int64)
        E[:, gidx * m:(gidx + 1) * m] = np.eye(m, dtype=np.int64)
        prod_idx = G.lookup((gmat.to_array() @ G.element_array())
                            % G.spec.modulus)
        gact = sys.acts[G.index_of(gmat)]
        rows = (sys.C[prod_idx] - E - gact @ sys.C) % sys.q
        blocks.append(rows.reshape(-1, sys.dim))
    return np.concatenate(blocks)


def _unique_kernel(rows, p: int, j: int) -> np.ndarray:
    """Kernel of the stacked rows, sorted and deduplicated, through the
    transposed RowSystem."""
    return RowSystem(np.unique(rows, axis=0).T, p, j).kernel()


def reference_z1(G, module_exponent=None) -> np.ndarray:
    """Generators of Z^1 from the whole constraint stack, as a reference for
    the kernel of its folded Howell basis."""
    from .cohomology import _system
    sys = _system(G, module_exponent)
    return _unique_kernel(reference_cocycle_rows(G, module_exponent),
                          sys.p, sys.j)


def reference_z1loc(G, module_exponent=None, elements=None) -> np.ndarray:
    """Generators of Z^1_loc from the whole constraint stack, with the local
    condition w . Z_s = 0 imposed at each given element s (every element by
    default), as a reference for imposing it only at the cyclic class
    representatives and for folding the stack into a Howell basis."""
    from .cohomology import _system
    sys = _system(G, module_exponent)
    blocks = [reference_cocycle_rows(G, module_exponent)]
    ident = np.eye(sys.m, dtype=np.int64)
    for idx in (range(sys.size) if elements is None else elements):
        W = RowSystem((sys.acts[idx] - ident) % sys.q, sys.p, sys.j).kernel()
        if W.shape[0]:
            blocks.append((W @ sys.C[idx]) % sys.q)
    return _unique_kernel(np.concatenate(blocks, axis=0), sys.p, sys.j)


def cocycle_identity_holds(Z) -> bool:
    """Cocycle.is_valid one pair at a time, as a reference for its blocked
    check: Z_ab = Z_a + a Z_b for every pair, with Mat products and Python
    integers."""
    G, q = Z.group, Z.q
    vals = {x.key(): tuple(int(v) for v in row)
            for x, row in zip(G.elements, Z.values)}
    for a in G.elements:
        amat = a.reduce_mod(q)
        za = vals[a.key()]
        for b in G.elements:
            zb = vals[b.key()]
            rhs = tuple((za[i] + sum(amat.entries[i][k] * zb[k]
                                     for k in range(len(zb)))) % q
                        for i in range(len(za)))
            if vals[a.mul(b).key()] != rhs:
                return False
    return True


def span_enumerate(rows, q: int) -> set:
    """The full additive span of the given row vectors in (Z/q)^c."""
    rows = [tuple(int(x) % q for x in r) for r in rows]
    if not rows:
        return {()}
    c = len(rows[0])
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * c
        for a, row in zip(coeffs, rows):
            if a:
                for i in range(c):
                    v[i] += a * row[i]
        span.add(tuple(x % q for x in v))
    return span


def all_solutions(A_rows, b, q: int) -> set:
    """Every x with A x = b mod q, by scanning the whole module."""
    rows = [tuple(int(x) % q for x in r) for r in A_rows]
    cols = len(rows[0]) if rows else 0
    b = tuple(int(x) % q for x in b)
    out = set()
    for x in itertools.product(range(q), repeat=cols):
        if all(sum(r[i] * x[i] for i in range(cols)) % q == bj
               for r, bj in zip(rows, b)):
            out.add(x)
    return out


def _closure_set(gens, identity):
    got = {identity.key(): identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                z = x.mul(g)
                if z.key() not in got:
                    got[z.key()] = z
                    new.append(z)
        frontier = new
    return got


def maximal_subgroup_intersection(group) -> set:
    """Frattini subgroup of a small group straight from its definition: the
    intersection of all maximal subgroups (whole group when none exist)."""
    elems = list(group.elements)
    order = len(elems)
    ident = group.identity

    def closure_keys(gen_list):
        return frozenset(_closure_set(gen_list, ident).keys())

    subgroups = {closure_keys([e]) for e in elems}
    changed = True
    while changed:
        changed = False
        for sg in list(subgroups):
            members = [x for x in elems if x.key() in sg]
            for e in elems:
                if e.key() in sg:
                    continue
                bigger = closure_keys(members + [e])
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    changed = True
    proper = [sg for sg in subgroups if len(sg) < order]
    maximal = [sg for sg in proper if not any(sg < other for other in proper)]
    if not maximal:
        return {e.key() for e in elems}
    inter = set(maximal[0])
    for sg in maximal[1:]:
        inter &= sg
    return inter


def cocycle_counts(group, module_exponent=None):
    """(|Z1|, |B1|, |H1|, |H1_loc|) by enumerating all value assignments on
    the generators, extending along the multiplication tree, and keeping the
    assignments that satisfy the cocycle identity on every pair.

    A 1-cocycle is determined by its generator values, so this enumeration
    covers every map G -> M satisfying the identity.  Quadratic in |G| per
    candidate; only meant for small groups and small modules.
    """
    spec = group.spec
    p = spec.p
    n_mod = module_exponent if module_exponent is not None else spec.n
    q = p ** n_mod
    m = spec.rank
    k = len(group.generators)
    size = len(group.elements)
    mats = np.stack([g.to_array() for g in group.elements]) % q

    if k == 0:
        return 1, 1, 1, 1

    total = (q ** m) ** k
    assign = np.indices([q] * (k * m)).reshape(k * m, -1).T.astype(np.int64)
    assign = assign.reshape(total, k, m)
    vals = np.zeros((total, size, m), dtype=np.int16)
    for idx in range(size):
        par = group.tree_parent[idx]
        if par < 0:
            continue
        g = group.tree_gen[idx]
        v = (vals[:, par, :].astype(np.int64) +
             assign[:, g, :] @ mats[par].T) % q
        vals[:, idx, :] = v

    index_of = {mat.key(): i for i, mat in enumerate(group.elements)}
    # the values along the tree must agree with the assigned generator
    # values, also for generators that label no tree edge
    ok = np.ones(total, dtype=bool)
    for g, gmat in enumerate(group.generators):
        ok &= (vals[:, index_of[gmat.key()], :] == assign[:, g, :]).all(axis=1)
    # cheap filter next: identity against (generator, element) pairs only
    for gmat in group.generators:
        i = index_of[gmat.key()]
        for j in range(size):
            ij = index_of[gmat.mul(group.elements[j]).key()]
            rhs = (vals[:, i, :].astype(np.int64) +
                   vals[:, j, :].astype(np.int64) @ mats[i].T) % q
            ok &= (vals[:, ij, :] == rhs).all(axis=1)
    # the real check: every pair
    survivors = np.nonzero(ok)[0]
    sv = vals[survivors].astype(np.int64)
    good = np.ones(len(survivors), dtype=bool)
    for i in range(size):
        for j in range(size):
            ij = index_of[group.elements[i].mul(group.elements[j]).key()]
            rhs = (sv[:, i, :] + sv[:, j, :] @ mats[i].T) % q
            good &= (sv[:, ij, :] == rhs).all(axis=1)
    z1 = int(good.sum())

    cob = set()
    for mv in itertools.product(range(q), repeat=m):
        v = np.array(mv, dtype=np.int64)
        cob.add(tuple(tuple((mats[i] @ v - v) % q) for i in range(size)))
    b1 = len(cob)

    images = []
    for i in range(size):
        B = (mats[i] - np.eye(m, dtype=np.int64)) % q
        img = {tuple((B @ np.array(x, dtype=np.int64)) % q)
               for x in itertools.product(range(q), repeat=m)}
        images.append(img)
    loc = 0
    for t in np.nonzero(good)[0]:
        row = sv[t]
        if all(tuple(row[i]) in images[i] for i in range(size)):
            loc += 1

    certify(z1 % b1 == 0 and loc % b1 == 0,
            "B^1 order does not divide |Z^1| and |Z^1_loc| (internal)")
    return z1, b1, z1 // b1, loc // b1
