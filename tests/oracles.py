"""Brute-force oracles and the references the fast paths replaced.

Everything here recomputes results of the h1loc modules by direct
enumeration over small instances, deliberately avoiding the Howell/kernel
machinery so the two paths stay independent.  The test suite freezes
values produced by these oracles and cross-checks the linear-algebra path
against them.  Tests import this module as they import corpus; it is not
part of the installed package, whose one brute-force counter is
h1loc.oracles.cocycle_counts.

The reference_* functions are the slow paths that batched code replaced,
kept one element at a time so the fast paths can be tested against them.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from h1loc.errors import CapExceededError
from h1loc.groups import DEFAULT_CAP, MatGroup, _factor, _keys, _stack
from h1loc.ringmat import (Mat, RowSystem, _check_int64, _howell_rows,
                           _valuation)


def reference_closure(generators, spec, cap=DEFAULT_CAP):
    """MatGroup.close with every layer's products one batched matmul and
    their first occurrences, membership and key order found with a Python
    dict on each product's big-endian entry bytes, which sort as the
    entries do: the same group, element array, tree, BFS layers and sorted
    keys, and CapExceededError at the same layer.

    Elements come in BFS layer order, lexicographic within a layer; an
    element's tree edge (parent, generator) is its first product in
    layer-position-major, generator-minor order."""
    q, r = spec.modulus, spec.rank
    gens = [Mat.from_rows(g.entries, q) for g in generators]
    garr = np.array([g.entries for g in gens],
                    dtype=np.int64).reshape(-1, r, r)
    k, entry_bytes = len(gens), np.dtype((np.void, 8 * r * r))
    layer = np.eye(r, dtype=np.int64)[None]
    index = {layer.astype(">i8").tobytes(): 0}
    chunks, parent, label, layers = [layer], [-1], [-1], []
    start = 0
    while k:
        prods = (layer[:, None] @ garr[None]).reshape(-1, r, r) % q
        keys = prods.reshape(-1, r * r).astype(">i8").view(entry_bytes)
        found = {}
        for t, key in enumerate(keys.ravel().tolist()):
            found.setdefault(key, t)
        fresh = sorted(key for key in found if key not in index)
        if not fresh:
            break
        if len(index) + len(fresh) > cap:
            raise CapExceededError("group closure", cap)
        t = np.array([found[key] for key in fresh], dtype=np.int64)
        parent += (start + t // k).tolist()
        label += (t % k).tolist()
        start = len(index)
        layers.append((start, start + len(fresh)))
        index.update((key, start + i) for i, key in enumerate(fresh))
        layer = prods[t]
        chunks.append(layer)
    array = np.concatenate(chunks)
    sorted_pos = np.array([index[key] for key in sorted(index)],
                          dtype=np.int64)
    return MatGroup(spec, gens, array, _keys(array, q)[sorted_pos],
                    sorted_pos, np.array(parent, dtype=np.int64),
                    np.array(label, dtype=np.int64), layers)


def assert_same_closure(G, label=""):
    """G equals reference_closure of its generators, array for array,
    dtype for dtype and layer for layer."""
    R = reference_closure(G.generators, G.spec, cap=G.order)
    for got, want in ((G.element_array(), R.element_array()),
                      (G.tree_parent, R.tree_parent),
                      (G.tree_gen, R.tree_gen),
                      (G._sorted_keys, R._sorted_keys),
                      (G._sorted_pos, R._sorted_pos)):
        assert got.dtype == want.dtype, label
        assert np.array_equal(got, want), label
    assert G.tree_layers() == R.tree_layers(), label


def reference_power(arr: np.ndarray, k, q: int) -> np.ndarray:
    """arr[i]^k[i] mod q by binary powering, k one exponent or one per
    matrix, all >= 0: a matrix leaves the squaring once its exponent is
    used up.  The reference for groups._scalar_power and for the gathers
    through the power maps."""
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), arr.shape[:1]).copy()
    result = np.broadcast_to(np.eye(arr.shape[1], dtype=np.int64),
                             arr.shape).copy()
    base = arr % q
    live = np.flatnonzero(k)
    while len(live):
        odd = live[(k[live] & 1).astype(bool)]
        result[odd] = (result[odd] @ base[odd]) % q
        k[live] >>= 1
        live = live[k[live] > 0]
        base[live] = (base[live] @ base[live]) % q
    return result


def reference_batch_det(arr: np.ndarray, q: int) -> np.ndarray:
    """batch_det by the Leibniz expansion, r! signed products per matrix,
    each reduced after every factor: the reference for the Laplace
    expansion."""
    _check_int64(q)
    arr = np.asarray(arr, dtype=np.int64)
    r = arr.shape[1]
    out = np.zeros(len(arr), dtype=np.int64)
    for perm in itertools.permutations(range(r)):
        term = np.ones(len(arr), dtype=np.int64)
        for i, j in enumerate(perm):
            term = (term * arr[:, i, j]) % q
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out = (out - term if inversions % 2 else out + term) % q
    return out


def _reference_strip_exponents(G, t, member) -> np.ndarray:
    """The least s dividing t with member(x^s) for every element x of G,
    member a test on a batch of matrices: each power x^(t/l) by binary
    matrix powering, as a reference for the gathers through the power
    maps."""
    t = np.array(t, dtype=np.int64)
    for ell in _factor(G.order):
        idx = np.flatnonzero(t % ell == 0)
        while len(idx):
            y = reference_power(G.element_array()[idx], t[idx] // ell,
                             G.spec.modulus)
            idx = idx[member(y)]
            t[idx] //= ell
            idx = idx[t[idx] % ell == 0]
    return t


def reference_orders(G) -> np.ndarray:
    """MatGroup.orders by matrix powering and comparison with the identity
    matrix, as a reference for the power-map gathers."""
    ident = np.eye(G.spec.rank, dtype=np.int64)
    return _reference_strip_exponents(G, np.full(G.order, G.order),
                                      lambda y: (y == ident).all(axis=(1, 2)))


def reference_coset_orders(G, N) -> np.ndarray:
    """groups.coset_orders with one lookup in N per powering step, as a
    reference for one membership mask and the power-map gathers."""
    return _reference_strip_exponents(G, reference_orders(G),
                                      lambda y: N.lookup(y) >= 0)


def reference_inverse_indices(G) -> np.ndarray:
    """MatGroup.inverse_indices as x^(|G|-1) for every element x."""
    return G.lookup(reference_power(G.element_array(), G.order - 1,
                                 G.spec.modulus))


def reference_p_element_mask(G) -> np.ndarray:
    """Mask of the elements of G whose order, by matrix powering, divides
    the p-part of |G|."""
    return (G.spec.p ** _factor(G.order).get(G.spec.p, 0)
            % reference_orders(G)) == 0


def reference_cyclic_class_representatives(G, p_elements=False) -> np.ndarray:
    """One generator per conjugacy class of maximal cyclic subgroups,
    walking all elements by descending order; with p_elements, one per
    class of maximal cyclic p-subgroups, walking only the p-elements as
    MatGroup.cyclic_class_representatives does.  Every BFS layer is
    conjugated by matrix products and looked up, and the powers of each
    representative come by binary powering, as a reference for the gathers
    from the conjugation table."""
    q, r = G.spec.modulus, G.spec.rank
    X, orders = G.element_array(), reference_orders(G)
    gens = _stack(G.generators, r)
    gens_inv = reference_power(gens, orders[G.lookup(gens)] - 1, q)
    covered = np.zeros(G.order, dtype=bool)
    walk = (reference_p_element_mask(G) if p_elements
            else np.ones(G.order, dtype=bool))
    reps = []
    for s in np.argsort(-orders, kind="stable"):
        if covered[s] or not walk[s]:
            continue
        reps.append(s)
        o = int(orders[s])
        layer = G.lookup(reference_power(
            np.broadcast_to(X[s], (o, r, r)), np.arange(o), q))
        layer = layer[~covered[layer]]
        while len(layer):
            covered[layer] = True
            conj = (((gens[:, None] @ X[layer][None]) % q)
                    @ gens_inv[:, None]) % q
            nxt = G.lookup(conj.reshape(-1, r, r))
            layer = np.unique(nxt[~covered[nxt]])
    return np.array(reps, dtype=np.int64)


def reference_coefficients(G, module_exponent) -> np.ndarray:
    """The coefficient array C of the cocycle system of G mod p^j, with
    C[s] @ z the value at s of the cocycle with generator values z, one
    element at a time along the closure tree: C[x g] = C[x] + x E_g.  A
    reference for the walk down the tree layers that expands the identity
    to it and for the walk up the tree from given positions."""
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


def reference_cocycle_basis(G, module_exponent=None) -> np.ndarray:
    """_CocycleSystem.cocycle_basis as the Howell form of the whole stack
    reference_cocycle_rows, in one elimination: a reference for the
    candidate Z^1, its cut and the fold a block at a time."""
    j = module_exponent if module_exponent is not None else G.spec.n
    return _howell_rows(reference_cocycle_rows(G, j), G.spec.p, j)


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
    with C from reference_coefficients, one generator g at a time over all
    elements x, as a reference for folding the residuals into a Howell
    basis block by block.  The rows are kept in the left orientation
    Z_{gx} = Z_g + g Z_x, apart from the right-hand residuals
    C[x] + x E_g - C[x g] of cohomology._residuals: both have Z^1 as their
    kernel, so their Howell forms agree."""
    j = module_exponent if module_exponent is not None else G.spec.n
    q, m = G.spec.p ** j, G.spec.rank
    dim = len(G.generators) * m
    C = reference_coefficients(G, j)
    blocks = [np.zeros((0, dim), dtype=np.int64)]
    for gidx, gmat in enumerate(G.generators):
        E = np.zeros((m, dim), dtype=np.int64)
        E[:, gidx * m:(gidx + 1) * m] = np.eye(m, dtype=np.int64)
        prod_idx = G.lookup((gmat.to_array() @ G.element_array())
                            % G.spec.modulus)
        gact = gmat.to_array() % q
        rows = (C[prod_idx] - E - gact @ C) % q
        blocks.append(rows.reshape(-1, dim))
    return np.concatenate(blocks)


def _unique_kernel(rows, p: int, j: int) -> np.ndarray:
    """Kernel of the stacked rows, sorted and deduplicated, through the
    transposed RowSystem."""
    return RowSystem(np.unique(rows, axis=0).T, p, j).kernel()


def reference_z1(G, module_exponent=None) -> np.ndarray:
    """Generators of Z^1 from the whole constraint stack, as a reference for
    the kernel of its folded Howell basis."""
    j = module_exponent if module_exponent is not None else G.spec.n
    return _unique_kernel(reference_cocycle_rows(G, j), G.spec.p, j)


def reference_z1loc(G, module_exponent=None, elements=None) -> np.ndarray:
    """Generators of Z^1_loc from the whole constraint stack, with the local
    condition w . Z_s = 0 imposed at each given element s (every element by
    default), as a reference for imposing it only at the cyclic class
    representatives and for folding the stack into a Howell basis."""
    j = module_exponent if module_exponent is not None else G.spec.n
    p, m = G.spec.p, G.spec.rank
    q = p ** j
    C = reference_coefficients(G, j)
    blocks = [reference_cocycle_rows(G, j)]
    ident = np.eye(m, dtype=np.int64)
    for idx in (range(G.order) if elements is None else elements):
        B = (G.element_array()[idx] - ident) % q
        W = RowSystem(B, p, j).kernel()
        if W.shape[0]:
            blocks.append((W @ C[idx]) % q)
    return _unique_kernel(np.concatenate(blocks, axis=0), p, j)


def reference_qualifying_search(keys, G, p: int):
    """The element search of the vanishing criteria over Mat elements and a
    set of element keys, as a reference for its run on position masks: the
    first element of G, by increasing order and then position, whose key is
    in keys, whose order divides p-1 and with det(x - 1) a unit; None if
    there is none."""
    orders = G.orders()
    for i in np.argsort(orders, kind="stable"):
        x = G.elements[i]
        if (x.key() in keys and (p - 1) % orders[i] == 0
                and gcd(x.minus_identity().det(), G.spec.modulus) == 1):
            return x
    return None


def reference_is_valid(Z) -> bool:
    """Z_ab = Z_a + a Z_b on all |G|^2 pairs, every product ab a batched
    matmul and its position one lookup, about 4096 pairs at a time: the
    exhaustive reference for Cocycle.is_valid, which checks only the
    k * N pairs (element, generator)."""
    G, q, V = Z.group, Z.q, Z.values
    X, r = G.element_array(), G.spec.rank
    step = max(1, 4096 // G.order)
    for s in range(0, G.order, step):
        a = slice(s, s + step)
        ab = G.lookup((X[a, None] @ X[None]).reshape(-1, r, r)
                      % G.spec.modulus).reshape(-1, G.order)
        rhs = (V[a, None] + ((X[a] % q) @ V.T).transpose(0, 2, 1) % q) % q
        if not (V[ab] == rhs).all():
            return False
    return True


def reference_local_constraints(G, module_exponent=None,
                                reps=None) -> np.ndarray:
    """_CocycleSystem.local_constraints with one RowSystem kernel per cyclic
    class representative (or per element position in reps), as a
    reference for the stacked kernels."""
    j = module_exponent if module_exponent is not None else G.spec.n
    p, m = G.spec.p, G.spec.rank
    q = p ** j
    C = reference_coefficients(G, j)
    blocks = [np.zeros((0, C.shape[2]), dtype=np.int64)]
    for idx in (G.cyclic_class_representatives() if reps is None else reps):
        B = (G.element_array()[idx] - np.eye(m, dtype=np.int64)) % q
        W = RowSystem(B, p, j).kernel()
        if W.shape[0]:
            blocks.append((W @ C[idx]) % q)
    return np.concatenate(blocks, axis=0)


def reference_fixed_point_spectrum(G):
    """criteria.fixed_point_spectrum with one RowSystem kernel per element,
    as a reference for the stacked kernels."""
    p, m = G.spec.p, G.spec.rank
    out = {}
    for x in G.elements:
        B = (x.to_array() - np.eye(m, dtype=np.int64)) % p
        out[x.key()] = RowSystem(B.T, p, 1).kernel().shape[0]
    return out, all(out.values())


def cocycle_identity_holds(Z) -> bool:
    """Z_ab = Z_a + a Z_b for every pair, one pair at a time with Mat
    products and Python integers: an exhaustive reference for
    Cocycle.is_valid, independent of the group's tables."""
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


def maximal_subgroup_intersection(group) -> set:
    """Frattini subgroup of a small group straight from its definition: the
    intersection of all maximal subgroups (whole group when none exist)."""
    elems = list(group.elements)
    order = len(elems)

    def closure_keys(gen_list):
        return frozenset(x.key() for x in
                         reference_closure(gen_list, group.spec).elements)

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
