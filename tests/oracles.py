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
find_normalized_sylow, fixed_point_spectrum and projective_order are
tested here but called by no command, criterion or script, so they live
here and not in the package.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from h1loc.errors import (CapExceededError, InputError, InternalError,
                          PreconditionError)
from h1loc.groups import (DEFAULT_CAP, MatGroup, _element_arrays, _factor,
                          _keys, _normalizing, _power_positions, _stack,
                          lift_normalizer, p_sylow)
from h1loc.ringmat import (Mat, ModuleSpec, RowSystem, _entry_dtype,
                           _howell_rows, _howell_stack, _valuation,
                           char_poly, is_prime)


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
    return MatGroup(spec, garr, array, _keys(array, q)[sorted_pos],
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
    _entry_dtype(q)
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


def reference_lift_qualifying_element(G, g1):
    """(lift, stripped): criteria.lift_qualifying_element on a g1 that meets
    its preconditions, by the coset correction it replaced.  The first h0
    in G reducing to g1 goes through lift_normalizer with the reduction
    kernel N and the preimage H of the mod-p Sylow; the p-part of the
    order of the result is then killed by x -> x^(p^k), with p^k = 1
    modulo the order t of g1 and p^k at least that p-part.  stripped says
    whether there was a p-part to kill."""
    p = G.spec.p
    Q = G.reduce_mod(1)
    red = Q.lookup(G.element_array() % p)
    N = G.subgroup(red == 0)
    H = G.subgroup((p_sylow(Q).lookup(Q.element_array()) >= 0)[red])
    qpos = Q.index_of(g1)
    t = int(Q.orders()[qpos])
    h = lift_normalizer(G, N, H, G.element(int(np.argmax(red == qpos))))
    pos = np.array([G.index_of(h)])
    o, a = int(G.orders()[pos[0]]), 0
    while o % p == 0:
        o //= p
        a += 1
    if a:
        e0 = 1
        while pow(p, e0, t) != 1 % t:
            e0 += 1
        k = e0
        while k < a:
            k += e0
        pos = _power_positions(G.power_maps(), pos, np.array([p ** k]))
    return G.element(pos[0]), a > 0


def reference_p_prime_power(Q, x):
    """x^(p^k) for the least k giving an order prime to p, x an element of
    the group Q mod p: Mat.pow by p while Q's element order of the power
    is divisible by p, as cohomology.eigenvalue_ratio_vanishing took it
    before the semisimple part."""
    while Q.element_order(x) % Q.spec.p == 0:
        x = x.pow(Q.spec.p)
    return x


class ExtensionField:
    """F_{p^degree} realized as F_p[x] modulo a fixed irreducible polynomial,
    the field the eigenvalue-ratio test enumerated before the Sylvester
    kernel replaced it.

    The modulus is deterministic: the first irreducible monic polynomial
    x^e + c_{e-1} x^{e-1} + ... + c_0 in lexicographic order of
    (c_{e-1}, ..., c_0).  Elements are coefficient tuples (a_0, ..., a_{e-1}).
    """

    def __init__(self, p: int, degree: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if not 1 <= degree <= 5:
            # trial division by roots and quadratics certifies
            # irreducibility only up to degree 5
            raise InputError("extension degree must be between 1 and 5")
        self.p = p
        self.degree = degree
        self.modulus_poly = self._find_irreducible(p, degree)
        self.zero = (0,) * degree
        self.one = (1,) + (0,) * (degree - 1)

    @staticmethod
    def _find_irreducible(p: int, e: int) -> tuple:
        if e == 1:
            return (0, 1)  # x itself; arithmetic is plain mod p
        for tail in itertools.product(range(p), repeat=e):
            # tail = (c_{e-1}, ..., c_0)
            coeffs = tuple(reversed(tail)) + (1,)  # ascending, monic
            if _poly_is_irreducible(coeffs, p):
                return coeffs
        raise InternalError("no irreducible polynomial found (internal)")

    def embed(self, c: int) -> tuple:
        return tuple([c % self.p] + [0] * (self.degree - 1))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.degree)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, e = self.p, self.degree
        if e == 1:
            return ((a[0] * b[0]) % p,)
        raw = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        # reduce modulo the modulus polynomial
        mod = self.modulus_poly
        for d in range(2 * e - 2, e - 1, -1):
            c = raw[d] % p
            if c:
                for i in range(e):
                    raw[d - e + i] -= c * mod[i]
            raw[d] = 0
        return tuple(x % p for x in raw[:e])

    def pow(self, a, k: int):
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise InputError("division by zero in extension field")
        return self.pow(a, self.p ** self.degree - 2)

    def poly_eval(self, coeffs_desc, x) -> tuple:
        """Evaluate a polynomial with F_p coefficients (leading first) at x."""
        acc = self.zero
        for c in coeffs_desc:
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc


def _poly_is_irreducible(coeffs_asc: tuple, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p by trial division."""
    e = len(coeffs_asc) - 1
    # no roots
    for r in range(p):
        acc = 0
        for c in reversed(coeffs_asc):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    # degree 4+: divide by all monic irreducible quadratics (enough for e <= 5)
    for b in range(p):
        for c in range(p):
            quad = (c, b, 1)
            if any((r * r + b * r + c) % p == 0 for r in range(p)):
                continue
            if _poly_divides(quad, coeffs_asc, p):
                return False
    return True


def _poly_divides(d_asc, f_asc, p) -> bool:
    rem = list(f_asc)
    dd = len(d_asc) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1] % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(d_asc):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(x % p for x in rem)


def eigenvalues_in_ext(A, spec, ext_degree: int):
    """All eigenvalues of A (mod p) lying in F_{p^ext_degree}, with
    multiplicities, by enumerating the field.  Returns
    (field, [(element, multiplicity), ...])."""
    if ext_degree not in (1, 2, 3, 4):
        raise InputError("ext_degree must be 1, 2, 3 or 4")
    field = ExtensionField(spec.p, ext_degree)
    cp = char_poly(A, spec)
    roots = [x for x in field.elements()
             if field.poly_eval(cp, x) == field.zero]
    out = []
    for root in sorted(roots):
        # multiplicity via synthetic division by (t - root)
        mult = 0
        coeffs = [field.embed(c) for c in cp]
        while True:
            quot, rem = _synthetic_div(coeffs, root, field)
            if rem != field.zero:
                break
            mult += 1
            coeffs = quot
            if len(coeffs) == 1:
                break
        out.append((root, mult))
    return field, out


def _synthetic_div(coeffs_desc, root, field: ExtensionField):
    acc = field.zero
    quot = []
    for c in coeffs_desc:
        acc = field.add(field.mul(acc, root), c)
        quot.append(acc)
    return quot[:-1], quot[-1]


def reference_eigenvalue_ratio_condition(delta_bar, p: int):
    """cohomology.eigenvalue_ratio_condition by enumeration, as it was
    decided before the Sylvester kernel: the eigenvalues of delta_bar mod p
    in the first F_{p^d}, d = 1, 2, 3, 4, that holds all of them, and some
    ratio of two of them that is one of them.  Degree 3 was not tried
    then, so a cubic factor left the answer open; with it every matrix of
    rank at most 4 is decided.  Returns (holds, (a, b, a/b) or None), with
    holds None past rank 4 when no such field holds every eigenvalue."""
    spec = ModuleSpec(p, 1, delta_bar.rows)
    for deg in (1, 2, 3, 4):
        field, eig = eigenvalues_in_ext(delta_bar, spec, deg)
        if sum(mult for _, mult in eig) == delta_bar.rows:
            values = [root for root, _ in eig]
            for a in values:
                for b in values:
                    ratio = field.mul(a, field.inv(b))
                    if ratio in values:
                        return False, (a, b, ratio)
            return True, None
    return None, None


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


def reference_smith_with_inverse(M: np.ndarray, p: int, n: int):
    """ringmat._smith_with_inverse with a per-entry pivot search and
    per-row and per-column clearing, as a reference for its array steps:
    the same pivots, valuations and Rinv."""
    q = p ** n
    M = np.asarray(M, dtype=np.int64).copy() % q
    r, k = M.shape
    Rinv = np.eye(k, dtype=np.int64)
    vals = [n] * k
    t = 0
    while t < min(r, k):
        best, bestv = None, n
        for i in range(t, r):
            for j in range(t, k):
                e = int(M[i, j])
                if e:
                    v = _valuation(e, p, n)
                    if v < bestv:
                        best, bestv = (i, j), v
        if best is None:
            break
        bi, bj = best
        M[[t, bi]] = M[[bi, t]]
        if bj != t:
            M[:, [t, bj]] = M[:, [bj, t]]
            Rinv[[t, bj]] = Rinv[[bj, t]]
        v = bestv
        u_inv = pow(int(M[t, t]) // p ** v, -1, q)
        M[t] = (M[t] * u_inv) % q
        for i in range(t + 1, r):
            e = int(M[i, t])
            if e:
                M[i] = (M[i] - (e // p ** v) * M[t]) % q
        for j in range(t + 1, k):
            e = int(M[t, j])
            if e:
                f = e // p ** v
                M[:, j] = (M[:, j] - f * M[:, t]) % q
                Rinv[t] = (Rinv[t] + f * Rinv[j]) % q
        vals[t] = v
        t += 1
    return vals, Rinv


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
    """The local rows of _CocycleSystem._z1 in the stacked generator
    values, with one RowSystem kernel per cyclic class representative (or
    per element position in reps), as a reference for the stacked
    kernels."""
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


def find_normalized_sylow(G: MatGroup, g: Mat):
    """Search harness: look for a p-Sylow subgroup of G normalized by g.

    Whether such a Sylow always exists for g of order dividing p-1 is an open
    question; this only reports what the search finds on one input."""
    spec = G.spec
    q = spec.modulus
    ga, gia = _element_arrays(g, spec)
    H = p_sylow(G)
    target = spec.p ** _factor(G.order).get(spec.p, 0)
    # all Sylows are conjugate: take x H x^-1 for the first x in G's order
    # with g normalizing it, that is with x^-1 g x normalizing H
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    hits = np.flatnonzero(_normalizing((((Xi @ ga) % q) @ X) % q,
                                       (((Xi @ gia) % q) @ X) % q, H))
    if not len(hits):
        return None
    x, xi = X[hits[0]], Xi[hits[0]]
    conj = (((x @ H.generator_array()) % q) @ xi) % q
    return MatGroup.close(conj, spec, cap=target + 1)


def fixed_point_spectrum(G: MatGroup):
    """Per-element dimension of the fixed space ker(sigma - 1) over F_p,
    plus a flag: every element has eigenvalue 1.  Over F_p the dimension
    is rank minus the pivot count of sigma - 1, and the pivots of all the
    sigma - 1 come from one stacked Howell call."""
    spec = G.spec
    if spec.n != 1:
        raise PreconditionError("fixed-point spectrum works mod p")
    B = (G.element_array() - np.eye(spec.rank, dtype=np.int64)) % spec.p
    _, divs = _howell_stack(B, spec.p, 1)
    dims = (spec.rank - (divs < spec.p).sum(axis=1)).tolist()
    return ({x.key(): dim for x, dim in zip(G.elements, dims)},
            all(dims))


def projective_order(G: MatGroup) -> int:
    """|G / (G intersect scalars)|, the scalar elements c * Id found with
    one mask over the element array."""
    X = G.element_array()
    ident = np.eye(G.spec.rank, dtype=np.int64)
    return G.order // int((X == X[:, :1, :1] * ident).all(axis=(1, 2)).sum())


def reference_fixed_point_spectrum(G):
    """fixed_point_spectrum with one RowSystem kernel per element, as a
    reference for the stacked kernels."""
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
