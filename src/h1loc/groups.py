"""Finite matrix groups over Z/p^n.

Groups are closures of generator lists under multiplication, enumerated
breadth first with a deterministic order (BFS layer, then lexicographic on
entries).  The closure keeps, for every element, one factorization
element = parent * generator; the cohomology module rides on that tree.
Elements are found by their sort keys, and each layer joins the closure
through keys._absorb, the step the stabilizer chain runs too.

Also here: element orders from prime power maps (one cached map per
prime), inverses by adjugate (ringmat.batch_inv), the p-elements from the
p-power map alone, and one generator per conjugacy class of maximal
cyclic p-subgroups, where cohomology.h1_loc imposes its local
conditions.  A p-element x != 1 generates a maximal
cyclic p-subgroup exactly when it is not the p-th power of a p-element;
conjugation by the generators and x -> x^u, for u among the generators
of (Z/p^E)^*, permute those maximal generators; so the classes are the
orbits of these permutations, found by min-label propagation, each
represented by its first element in (descending order, position).  Then
p-Sylow subgroups by normalizer ascent over the p-elements (skipped for a
normal p-Sylow, which the p-element count reveals), Frattini subgroups of
p-groups, the constructive conjugation-eigenbasis decomposition of a
normalized p-group, and coset-representative corrections into Sylow
normalizers.
These run on element arrays too: generating sets are the greedy
positions of _greedy_generators, grown from a group already closed (the
trivial group, the commutator closure so far, or a Frattini subgroup),
and _normalizing is the one test that elements normalize a group.  A
decomposition closes one trivial group, and each subgroup it splits off
once: such a subgroup's generators are a greedy-kept Frattini generating
set and representatives independent modulo it, so its Frattini subgroup
(_frattini) starts from them with no greedy reduction, and no greedy
runs over the representatives.  A group holds its generators as one
(k, r, r) array, and close takes such an array as well as Mat values or
row lists (_generator_array), so every internal closure concatenates
generator arrays; Mat values appear only in arguments and results.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .errors import (CapExceededError, InputError, PreconditionError,
                     certify)
from .keys import (_absorb, _code_space, _digit_weights, _distinct, _find,
                   _first_occurrences, _keys, _product_keys, _row_table)
from .ringmat import (Mat, ModuleSpec, RowSystem, _factor, _howell_rows,
                      batch_det, batch_inv)

DEFAULT_CAP = 200_000


def _stack(mats, r: int) -> np.ndarray:
    """The entries of the r x r matrices mats as a (len(mats), r, r) array."""
    if any(m.rows != r or m.cols != r for m in mats):
        raise InputError(f"matrices must be {r}x{r}")
    return np.array([m.entries for m in mats],
                    dtype=np.int64).reshape(len(mats), r, r)


def _generator_array(generators, spec: ModuleSpec) -> np.ndarray:
    """The generators, Mat values, row lists or one (k, r, r) integer array,
    as a (k, r, r) int64 array of entries reduced mod q.  InputError when
    q is too large for int64 products, a generator is not r x r, or one is
    not invertible."""
    q, r = spec.modulus, spec.rank
    if r * (q - 1) ** 2 >= 2 ** 63:
        raise InputError(f"modulus {q} too large for int64 group "
                         f"arithmetic (rank*(q-1)^2 >= 2^63)")
    gens = []
    for i, g in enumerate(generators):
        g = Mat.from_rows(g.entries if isinstance(g, Mat) else g, q)
        if g.rows != r or g.cols != r:
            raise InputError(f"generator {i + 1} is not {r}x{r}")
        gens.append(g.entries)
    garr = np.array(gens, dtype=np.int64).reshape(len(gens), r, r)
    _refuse_singular(garr, q)
    return garr


def _refuse_singular(gens, q: int) -> None:
    """InputError naming the first of the (k, r, r) generators gens whose
    determinant is not a unit mod q: one batch_det for all of them."""
    unit = np.gcd(batch_det(gens, q), q) == 1
    if not unit.all():
        raise InputError(f"generator {unit.argmin() + 1} not invertible")


def _cached(fill):
    """Decorator for a lazy cache on a group, of a method or of a function
    whose first argument is the group, keyed by the arguments after it
    (keyword arguments by name): the first call with those arguments runs
    fill under the owner's lock (self._lock, reentrant) and later calls
    reuse its value, so threads sharing the owner fill each entry exactly
    once, and no cache outlives its group."""
    slot = f"_{fill.__name__}_cache"

    @functools.wraps(fill)
    def get(self, *args, **kwargs):
        key = (*args, *sorted(kwargs.items()))
        cache = self.__dict__.get(slot, {})
        if key not in cache:
            with self._lock:
                cache = self.__dict__.setdefault(slot, {})
                if key not in cache:
                    cache[key] = fill(self, *args, **kwargs)
        return cache[key]
    return get


class MatGroup:
    """A closed finite matrix group; construct through MatGroup.close().

    The generators are one read-only (k, r, r) int64 array and the
    elements another, (N, r, r) in BFS-lex order, identity first, searched
    through their sorted keys; the Mat tuples, prime power maps, element
    orders and inverses are computed on first use, under the group's
    lock."""

    def __init__(self, spec, gens, array, sorted_keys, sorted_pos,
                 tree_parent, tree_gen, layers):
        self.spec = spec
        self._gens = gens                   # (k, r, r) generator array
        self._array = array
        self._sorted_keys = sorted_keys     # keys of the elements, sorted
        self._sorted_pos = sorted_pos       # element position of each key
        self.tree_parent = tree_parent      # element i == elements[parent] * gen
        self.tree_gen = tree_gen
        self._layers = tuple(layers)        # (start, stop) of each BFS layer
        self.order = len(array)
        self._lock = threading.RLock()      # guards the lazy caches

    # -- construction ------------------------------------------------------

    @classmethod
    def close(cls, generators, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """Breadth-first closure of the generators under multiplication.

        A layer is the new products (previous layer) x (generators) in key
        order, taken by one _absorb; an element's tree edge is its first
        such product.  Products
        are batched matmuls until the closure holds q^rank elements; from
        then on a layer is kept as row codes, the keys of its products are
        gathers from the generators' row tables (_row_table, read
        code-major by _product_keys), and only the fresh products are
        gathered as codes, so the table never costs more than the products
        already formed and no (k * L, r) product array exists.  The code
        space is decoded once, for the table and for the element array.
        The generators are Mat values, row lists or one (k, r, r) integer
        array (_generator_array)."""
        q, r = spec.modulus, spec.rank
        garr = _generator_array(generators, spec)
        k = len(garr)
        layer = np.eye(r, dtype=np.int64)[None]
        layer_idx = np.zeros(1, dtype=np.int64)
        seen = _keys(layer, q)
        # layers as (L, r, r) matrices, then as (L, r) row codes
        chunks, code_chunks, key_chunks = [layer], [], [seen]
        parents, labels = [np.array([-1])], [np.array([-1])]
        layers = []
        space = table = None
        while k:
            if table is None and len(seen) >= q ** r:
                space = _code_space(q, r)
                table = np.ascontiguousarray(_row_table(garr, space).T)
                layer = layer @ _digit_weights(q, r)
            if table is None:
                prods = (layer[:, None] @ garr[None]).reshape(-1, r, r) % q
                prod_keys = _keys(prods, q)
            else:
                prod_keys = _product_keys(table, layer, q)
            merged, t = _absorb(seen, prod_keys)
            if not len(t):
                break
            if len(merged) > cap:
                raise CapExceededError("group closure", cap)
            e, g = np.divmod(t, k)
            parents.append(layer_idx[e])
            labels.append(g)
            layers.append((len(seen), len(merged)))
            # from the table on, only the fresh products are formed, as codes
            layer = prods[t] if table is None else table[layer[e], g[:, None]]
            layer_idx = np.arange(*layers[-1])
            (chunks if table is None else code_chunks).append(layer)
            key_chunks.append(prod_keys[t])
            seen = merged
        # the element array is filled in place, the coded layers by one
        # gather; every code lies in [0, q^r), so mode="clip" clips
        # nothing and spares the copy np.take buffers out= in by default
        array = np.empty((len(seen), r, r), dtype=np.int64)
        n_mat = sum(map(len, chunks))
        np.concatenate(chunks, out=array[:n_mat])
        if code_chunks:
            np.take(space, np.concatenate(code_chunks), axis=0,
                    out=array[n_mat:], mode="clip")
        all_keys, tree_parent, tree_gen = map(
            np.concatenate, (key_chunks, parents, labels))
        sorted_pos = np.argsort(all_keys, kind="stable")
        for a in (garr, array, sorted_pos, tree_parent, tree_gen):
            a.flags.writeable = False
        return cls(spec, garr, array, all_keys[sorted_pos], sorted_pos,
                   tree_parent, tree_gen, layers)

    @classmethod
    def from_elements(cls, elements, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """Group from a set already closed under the operations: picks a small
        generating set greedily (lexicographic element order) and re-closes.
        The elements are normalized as close normalizes generators."""
        arr = _generator_array(elements, spec)
        # distinct elements in lexicographic order
        first = _first_occurrences(_keys(arr, spec.modulus))[1]
        return cls._from_lex_sorted(arr[first], spec, cap)

    @classmethod
    def _from_lex_sorted(cls, arr, spec: ModuleSpec, cap: int):
        """Group on the distinct, lexicographically sorted (N, r, r) matrices
        arr, closed from the greedy generators _greedy_generators picks."""
        grp = _greedy_generators(arr, MatGroup.close([], spec), cap)[1]
        if grp.order != len(arr):
            raise InputError("element set is not closed under multiplication")
        return grp

    def subgroup(self, mask) -> "MatGroup":
        """The subgroup on the elements where the boolean mask over the
        element positions is set, closed from the same generators
        from_elements would pick from them, so the two give equal groups."""
        lex = self._sorted_pos[np.asarray(mask, dtype=bool)[self._sorted_pos]]
        return MatGroup._from_lex_sorted(self._array[lex], self.spec,
                                         self.order)

    # -- basic structure ---------------------------------------------------

    @property
    def identity(self) -> Mat:
        return Mat.identity(self.spec.rank, self.spec.modulus)

    @property
    @_cached
    def generators(self) -> tuple:
        """The generators as Mat values, in order: for callers at the API
        edge; the library itself reads generator_array()."""
        return tuple(Mat(tuple(map(tuple, g)), self.spec.modulus)
                     for g in self._gens.tolist())

    def generator_array(self) -> np.ndarray:
        """The read-only (k, r, r) generator array."""
        return self._gens

    @property
    @_cached
    def elements(self) -> list:
        """The elements as Mat values, in BFS-lex order: for callers at the
        API edge; the library itself works on element positions."""
        q = self.spec.modulus
        return [Mat(tuple(map(tuple, m)), q) for m in self._array.tolist()]

    def element(self, i) -> Mat:
        """The element at position i as a Mat."""
        return Mat.from_array(self._array[i], self.spec.modulus)

    def element_array(self) -> np.ndarray:
        """The read-only (N, r, r) element array."""
        return self._array

    def lookup(self, arr) -> np.ndarray:
        """Positions of the (M, r, r) int64 matrices in arr, entries in
        [0, q), among the elements, -1 for those not in the group.  An
        entry outside [0, q) would alias the key of another matrix, so
        callers reduce their products mod q; a Mat from outside goes
        through _position, which checks the range."""
        pos, hit = _find(self._sorted_keys, _keys(arr, self.spec.modulus))
        out = self._sorted_pos[np.minimum(pos, self.order - 1)]
        out[~hit] = -1
        return out

    def _position(self, mat: Mat) -> int:
        """The position of mat, or -1 when it is not r x r with entries in
        [0, q) or not in the group."""
        arr = mat.to_array()
        r, q = self.spec.rank, self.spec.modulus
        if arr.shape != (r, r) or arr.min() < 0 or arr.max() >= q:
            return -1
        return int(self.lookup(arr[None])[0])

    def __contains__(self, mat: Mat) -> bool:
        return self._position(mat) >= 0

    def index_of(self, mat: Mat) -> int:
        if (i := self._position(mat)) < 0:
            raise InputError("matrix is not an element of the group")
        return i

    def tree_layers(self) -> tuple:
        """(start, stop) of every BFS layer after the identity's, as close
        formed them.  A layer's parents all lie in the layer before it, so
        a walk down the closure tree can fill one whole layer per step."""
        return self._layers

    @_cached
    def right_multiplication(self) -> np.ndarray:
        """right[g, i]: the position of x_i g for the generator g and the
        element x_i, one lookup per generator; read-only."""
        q = self.spec.modulus
        right = np.empty((len(self._gens), self.order), dtype=np.int64)
        for g, row in zip(self._gens, right):
            row[:] = self.lookup((self._array @ g) % q)
        right.flags.writeable = False
        return right

    @_cached
    def _power_map(self, ell: int) -> np.ndarray:
        """The position of x^ell for every element x, for a prime ell: one
        batched power and one lookup, cached per prime (_cached), so a
        caller that needs one prime (the p-elements) computes no other.
        power_maps reads it for the primes dividing |G|; the qualifying
        search of the criteria reads it at ell = p whether or not p
        divides |G|, its fixed points being the x with x^(p-1) = 1."""
        pm = self.lookup(_scalar_power(self._array, ell, self.spec.modulus))
        pm.flags.writeable = False
        return pm

    @_cached
    def power_maps(self) -> dict:
        """For every prime l dividing |G|, the position of x^l for every
        element x (_power_map).  Any power x^t with t dividing |G| is then
        a chain of integer gathers."""
        return {ell: self._power_map(ell) for ell in _factor(self.order)}

    @_cached
    def orders(self) -> np.ndarray:
        """Order of every element, from the power maps (the identity comes
        first, so x^s = 1 exactly when its position is 0)."""
        o = _strip_exponents(self, np.full(self.order, self.order),
                             np.arange(self.order) == 0)
        o.flags.writeable = False
        return o

    @_cached
    def inverse_indices(self) -> np.ndarray:
        """Position of the inverse of every element: one lookup of the
        adjugates batch_inv forms, with no element order."""
        inv = self.lookup(batch_inv(self._array, self.spec.modulus))
        inv.flags.writeable = False
        return inv

    def inverse(self, mat: Mat) -> Mat:
        return self.element(self.inverse_indices()[self.index_of(mat)])

    @_cached
    def _p_elements(self) -> tuple:
        """(positions, e): the positions of the p-elements of G, ascending,
        and e with ord(x) = p^e for each, from the p-power map alone.  With
        p^a the p-part of |G|, x is a p-element when x^(p^a) = 1, and e
        counts the steps x, x^p, x^(p^2), ... before the identity."""
        p = self.spec.p
        pos = np.arange(self.order)
        e = np.zeros(self.order, dtype=np.int64)
        a = _factor(self.order).get(p, 0)
        pm = self._power_map(p) if a else None
        for _ in range(a):
            e += pos != 0
            pos = pm[pos]
        P = np.flatnonzero(pos == 0)
        e = e[P]
        for a in (P, e):
            a.flags.writeable = False
        return P, e

    def _conjugation_table(self, pos: np.ndarray) -> np.ndarray:
        """conj[g, t]: the position of g x g^-1 for the generator g and the
        element x at pos[t], built one generator at a time to keep the peak
        memory at one (len(pos), r, r) product."""
        q, gens = self.spec.modulus, self._gens
        X = self._array[pos]
        conj = np.empty((len(gens), len(pos)), dtype=np.int64)
        for g, gi, row in zip(gens, batch_inv(gens, q), conj):
            y = g @ X
            y %= q
            y = y @ gi
            y %= q
            row[:] = self.lookup(y)
        return conj

    def _cyclic_positions(self, s: int) -> np.ndarray:
        """Positions of s^0, ..., s^(o-1) for the order o of s, read from
        orders(): the powers by doubling, then one lookup."""
        q, r = self.spec.modulus, self.spec.rank
        o = int(self.orders()[s])
        powers = np.eye(r, dtype=np.int64)[None]
        step = self._array[s]        # s^len(powers)
        while len(powers) < o:
            powers = np.concatenate([powers, (powers @ step) % q])[:o]
            step = (step @ step) % q
        return self.lookup(powers)

    @_cached
    def cyclic_class_representatives(self) -> np.ndarray:
        """Positions s_1, s_2, ... of one generator per conjugacy class of
        maximal cyclic p-subgroups, so the conjugates of the <s_i> cover
        the p-elements of the group.

        Three facts give them with a few array passes:
        - a p-element x != 1 generates a maximal cyclic p-subgroup exactly
          when it is not the p-th power of a p-element, which the p-power
          map reads off (the identity is 1^p);
        - conjugation by the generators and x -> x^u, for u among the
          generators of (Z/p^E)^* (_unit_generators, p^E the largest
          p-element order), permute those maximal generators;
        - so the generators of the conjugates of one maximal <s> form one
          orbit of these permutations.
        The orbits come from min-label propagation: each maximal generator
        starts with its rank in the order (descending order, then
        position), takes the least label along every permutation in both
        directions, and jumps to its label's label, until nothing
        changes.  An orbit's least rank is the element the walk over the
        p-elements in that order picks for its class (skipping those in a
        conjugate of an earlier pick), so the result equals that walk's,
        the test suite's reference_cyclic_class_representatives(G,
        p_elements=True), in the same order.  With no p-element but the
        identity it is [0]."""
        P, e = self._p_elements()
        if len(P) == 1:
            reps = np.zeros(1, dtype=np.int64)
            reps.flags.writeable = False
            return reps
        p, q = self.spec.p, self.spec.modulus
        powered = np.zeros(len(P), dtype=bool)
        powered[np.searchsorted(P, self._power_map(p)[P])] = True
        maximal = np.flatnonzero(~powered)
        pos = P[maximal]                    # ascending positions
        walk = np.argsort(-e[maximal], kind="stable")
        rank = np.empty(len(pos), dtype=np.int64)
        rank[walk] = np.arange(len(pos))    # rank[i]: walk rank of pos[i]
        images = list(self._conjugation_table(pos))
        images += [self.lookup(_scalar_power(self._array[pos], u, q))
                   for u in _unit_generators(p, int(e.max()))]
        perms = []
        for img in images:
            perm = np.empty(len(pos), dtype=np.int64)
            perm[rank] = rank[np.searchsorted(pos, img)]
            perms.append(perm)
        label = np.arange(len(pos))
        while True:
            new = label.copy()
            for perm in perms:
                np.minimum(new, label[perm], out=new)
                new[perm] = np.minimum(new[perm], label)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        reps = pos[walk[np.flatnonzero(label == np.arange(len(pos)))]]
        reps.flags.writeable = False
        return reps

    def element_order(self, mat: Mat) -> int:
        return int(self.orders()[self.index_of(mat)])

    def is_subgroup_of(self, other: "MatGroup") -> bool:
        """Whether the elements lie in other, over the same Z/p^n and in
        the same rank."""
        return (self.spec == other.spec
                and bool((other.lookup(self._array) >= 0).all()))

    @_cached
    def reduce_mod(self, j: int, cap: int = DEFAULT_CAP) -> "MatGroup":
        """Image of the group under entrywise reduction mod p^j, closed from
        the distinct reduced generators other than the identity, in their
        first order.  A product with the identity or a repeated generator
        is never fresh, so the elements, tree_parent and layers are those
        of closing every reduced generator; tree_gen indexes the kept ones.
        Closed once per group and arguments (_cached), so every caller
        shares the image and its own caches: power maps, Sylow, cohomology
        systems."""
        sub = self.spec.with_exponent(j)
        # the identity first, so a generator reduced to it is a repeat
        gens = np.concatenate([np.eye(sub.rank, dtype=np.int64)[None],
                               self._gens]) % sub.modulus
        first = np.sort(_first_occurrences(_keys(gens, sub.modulus))[1])
        return MatGroup.close(gens[first[1:]], sub, cap=cap)

    def scalar_elements(self):
        """The scalar elements c * Id, found with one mask over the element
        array."""
        X = self._array
        ident = np.eye(self.spec.rank, dtype=np.int64)
        scalar = (X == X[:, :1, :1] * ident).all(axis=(1, 2))
        return [self.element(i) for i in np.flatnonzero(scalar)]


def element_order(A: Mat, cap: int = 10 ** 6) -> int:
    """Least k >= 1 with A^k = Id (direct iteration, capped)."""
    if not A.is_invertible():
        raise InputError("element order of a non-invertible matrix")
    ident = Mat.identity(A.rows, A.modulus)
    x = A
    k = 1
    while x.key() != ident.key():
        x = x.mul(A)
        k += 1
        if k > cap:
            raise CapExceededError("element order iteration", cap)
    return k


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p: the least g with
    g^((p-1)/l) != 1 mod p for every prime l dividing p - 1."""
    primes = list(_factor(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in primes):
            return g
    raise InputError("no primitive root (p not prime?)")


def _unit_generators(p: int, E: int) -> list:
    """Generators of the unit group (Z/p^E)^*, as residues other than 1 in
    [1, p^E): -1 and 5 for p = 2, whose units are the +-5^i, and for odd p
    a primitive root mod p^2, which is a primitive root mod every p^E: the
    least primitive root g mod p, or g + p when g^(p-1) = 1 mod p^2."""
    q = p ** E
    if p == 2:
        gens = [q - 1, 5 % q]
    else:
        root = _primitive_root(p)
        if pow(root, p - 1, p * p) == 1:
            root += p
        gens = [root % q]
    return [u for u in dict.fromkeys(gens) if u != 1]


def _strip_exponents(G: MatGroup, t: np.ndarray, member) -> np.ndarray:
    """For every element x of G the least s dividing t with x^s in member,
    a boolean mask over G's positions, where every t divides |G| and
    {s : x^s in member} is an ideal containing t: strip each prime of |G|
    while x^(t/l) stays in member.  The powers are gathers through
    G.power_maps(), never matrix products."""
    t = np.array(t, dtype=np.int64)
    maps = G.power_maps()
    for ell in maps:
        idx = np.flatnonzero(t % ell == 0)
        while len(idx):
            idx = idx[member[_power_positions(maps, idx, t[idx] // ell)]]
            t[idx] //= ell
            idx = idx[t[idx] % ell == 0]
    return t


def _power_positions(maps: dict, pos: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Positions of x^e[i] for the elements x at pos, every e[i] a product
    of primes of |G|: one gather per prime factor, through the power maps."""
    pos, e = pos.copy(), e.copy()
    for ell, pm in maps.items():
        live = np.flatnonzero(e % ell == 0)
        while len(live):
            pos[live] = pm[pos[live]]
            e[live] //= ell
            live = live[e[live] % ell == 0]
    return pos


def coset_orders(G: MatGroup, N: MatGroup) -> np.ndarray:
    """For every element x of G the least t >= 1 with x^t in N, the order of
    xN when N is normal; {t : x^t in N} is an ideal containing ord(x).  The
    membership of G's elements in N is one lookup, the powers are gathers
    through G's power maps.  N must be over the same Z/p^n in the same
    rank."""
    if N.spec != G.spec:
        raise InputError("N is not over the same Z/p^n and rank as G")
    return _strip_exponents(G, G.orders(), N.lookup(G.element_array()) >= 0)


def _scalar_power(arr: np.ndarray, k: int, q: int) -> np.ndarray:
    """arr[i]^k mod q for every matrix by binary powering, k >= 0: the
    peak memory is the result, the squares and one product buffer."""
    result = np.broadcast_to(np.eye(arr.shape[1], dtype=np.int64),
                             arr.shape).copy()
    base = arr % q
    prod = np.empty_like(base)
    while k:
        if k & 1:
            np.matmul(result, base, out=prod)
            np.remainder(prod, q, out=result)
        k >>= 1
        if k:
            np.matmul(base, base, out=prod)
            np.remainder(prod, q, out=base)
    return result


def _semisimple_parts(G: MatGroup, arr: np.ndarray) -> np.ndarray:
    """The semisimple part x_s of every element x of G in the (M, r, r)
    array arr: x = x_s x_u with x_s of order prime to p, x_u of p-power
    order and the two commuting.  With |G| = p^a m and m prime to p,
    x_s = x^e for e = 0 mod p^a and e = 1 mod m, since x^|G| = 1: one
    _scalar_power, with no element order."""
    pa = G.spec.p ** _factor(G.order).get(G.spec.p, 0)
    return _scalar_power(arr, pa * pow(pa, -1, G.order // pa),
                         G.spec.modulus)


@_cached
def p_sylow(G: MatGroup) -> MatGroup:
    """A p-Sylow subgroup of G by normalizer ascent, computed once per
    group (_cached).

    Starts from a p-element of maximal order and repeatedly extends by
    p-elements of the normalizer of the current p-subgroup until the exact
    p-part of |G| is reached.  Ties are broken by the deterministic element
    order, so the result is reproducible.  Only p-elements can extend a
    p-subgroup, so the normalizer and membership tests run on the
    p-element positions alone."""
    spec, p = G.spec, G.spec.p
    target = p ** _factor(G.order).get(p, 0)
    if target == 1:
        return MatGroup.close([], spec)
    P, e = G._p_elements()
    X = G.element_array()
    # argmax takes the first position among the largest p-element orders
    current = MatGroup.close(X[P[np.argmax(e)], None], spec)
    while current.order < target:
        XP = X[P]
        ext = P[_normalizing(XP, X[G.inverse_indices()[P]], current)
                & (current.lookup(XP) < 0)]
        certify(len(ext), "Sylow ascent stalled (internal)")
        current = MatGroup.close(
            np.concatenate([current.generator_array(), X[ext[:1]]]), spec)
    return current


def _element_arrays(g: Mat, spec: ModuleSpec):
    """(g, g^-1) as (r, r) arrays; InputError unless g is r x r over the
    group's Z/p^n."""
    if g.modulus != spec.modulus or (g.rows, g.cols) != (spec.rank,) * 2:
        raise InputError("g is not over the same Z/p^n and rank as the group")
    return g.to_array(), g.inv().to_array()


def _normalizing(X: np.ndarray, Xi: np.ndarray, H: MatGroup) -> np.ndarray:
    """Mask over the matrices x in X (inverses in Xi) with x h x^-1 in H for
    every generator h of H, which for finite H means x H x^-1 = H."""
    q = H.spec.modulus
    mask = np.ones(len(X), dtype=bool)
    for h in H.generator_array():
        mask &= H.lookup((((X @ h) % q) @ Xi) % q) >= 0
    return mask


def _normalizer_mask(G: MatGroup, H: MatGroup) -> np.ndarray:
    """Mask over the element positions of G of the normalizer of H."""
    X = G.element_array()
    return _normalizing(X, X[G.inverse_indices()], H)


@_cached
def sylow_normalizer_mask(G: MatGroup):
    """(|S|, mask): the order of a p-Sylow S of G and the read-only mask
    over G's element positions of its normalizer, computed once per group
    (_cached).

    By Sylow's theorem every p-element lies in a p-Sylow, and each p-Sylow
    holds exactly p^a = |G|_p of them.  So G has exactly p^a p-elements
    when they form one p-Sylow, which is then normal: its normalizer is
    all of G, read off the count of G._p_elements() with no p_sylow, no
    closure and no conjugation test.  Otherwise S is p_sylow(G) and the
    mask is _normalizer_mask(G, S)."""
    p = G.spec.p
    target = p ** _factor(G.order).get(p, 0)
    if len(G._p_elements()[0]) == target:
        mask, order = np.ones(G.order, dtype=bool), target
    else:
        H = p_sylow(G)
        mask, order = _normalizer_mask(G, H), H.order
    mask.flags.writeable = False
    return order, mask


def normalizer(G: MatGroup, H: MatGroup) -> MatGroup:
    """{x in G : x H x^-1 = H} as a closed subgroup."""
    if not H.is_subgroup_of(G):
        raise InputError("H is not contained in G")
    return G.subgroup(_normalizer_mask(G, H))


def is_p_group(H: MatGroup) -> bool:
    f = _factor(H.order)
    return len(f) <= 1 and (not f or H.spec.p in f)


def _greedy_generators(arr, base: MatGroup, cap: int = DEFAULT_CAP,
                       most=None):
    """(positions, group): the greedy sublist of the (N, r, r) matrices arr
    that with the closed group base generates the same group as base and
    arr, keeping a matrix only when it enlarges the closure so far, and
    that group, closed from base's generators and the kept matrices in
    order (base itself when nothing is kept).  A caller that reads only
    the positions and knows that at most `most` matrices are kept passes
    that bound: the greedy returns at the most-th kept matrix, with None
    for the group, and never closes it."""
    kept, grp, start = [], base, 0
    while True:
        # the closure only grows, so matrices skipped so far stay inside it
        outside = np.flatnonzero(grp.lookup(arr[start:]) < 0)
        if not len(outside):
            return kept, grp
        start += int(outside[0])
        kept.append(start)
        if len(kept) == most:
            return kept, None
        grp = MatGroup.close(
            np.concatenate([base.generator_array(), arr[kept]]), base.spec,
            cap=cap)
        start += 1


def frattini(H: MatGroup) -> MatGroup:
    """Frattini subgroup of a p-group: generated by generator p-th powers and
    the commutator subgroup (equivalent to the maximal-subgroup intersection
    for p-groups, which the test suite's maximal_subgroup_intersection
    computes from that definition).  H's generators are first reduced by
    _greedy_generators from the trivial group, closed once per call, and
    _frattini runs on the kept ones; keeping all len(A) of them closes
    nothing more."""
    if not is_p_group(H):
        raise PreconditionError("H is a p-group", f"|H| = {H.order}")
    if H.order == 1:
        return H
    A, trivial = H.generator_array(), MatGroup.close([], H.spec)
    return _frattini(H, A[_greedy_generators(A, trivial, H.order + 1,
                                             len(A))[0]], trivial)


def _frattini(H: MatGroup, A: np.ndarray, trivial: MatGroup) -> MatGroup:
    """The Frattini subgroup of the p-group H from the (k, r, r) generators A
    of H, each outside the closure of those before it, so no greedy would
    drop one.  The commutators' greedy starts from the closed trivial
    group and every later greedy from the group before it, whose
    generators come first in the one it returns."""
    p, q, r = H.spec.p, H.spec.modulus, H.spec.rank
    cap = H.order + 1
    Ai = batch_inv(A, q)
    # a b a^-1 b^-1 for a, b in gens, a-major
    ab = (A[:, None] @ A[None]) % q
    comm_arr = ((((ab @ Ai[:, None]) % q) @ Ai[None]) % q).reshape(-1, r, r)
    # normal closure of the commutators inside H
    K = _greedy_generators(comm_arr, trivial, cap)[1]
    while True:
        # x k x^-1 for x in gens and k among K's generators, x-major
        conj = ((((A[:, None] @ K.generator_array()[None]) % q)
                 @ Ai[:, None]) % q).reshape(-1, r, r)
        extra = conj[K.lookup(conj) < 0]
        if not len(extra):
            break
        K = _greedy_generators(extra, K, cap)[1]
    pth = _scalar_power(A, p, q)
    phi = _greedy_generators(pth, K, cap)[1]
    # H/phi must be elementary abelian: generator images commute and have
    # exponent p; generators of H suffice for both checks
    certify((phi.lookup(pth) >= 0).all(), "H/phi not exponent p (internal)")
    certify((phi.lookup(comm_arr) >= 0).all(),
            "H/phi not abelian (internal)")
    return phi


@dataclass(frozen=True)
class Decomposition:
    """Generators h_i of a p-group with g h_i g^-1 = h_i^lambda_i."""

    pairs: tuple  # ((h_i, lambda_i), ...)


def decompose_generators(g: Mat, H: MatGroup) -> Decomposition:
    """Generators h_1..h_r of the p-group H with g h_i g^-1 = h_i^lambda_i.

    Hypotheses (each failure raises PreconditionError naming it): H is a
    p-group, g normalizes H, and the order of g divides p-1.  The recursion
    mirrors the existence proof: diagonalize the conjugation action on
    H/phi(H) over F_p and split off one eigenvector at a time.  It runs on
    element arrays; the h_i become Mat values only in the result, and one
    trivial group is closed for all its Frattini subgroups.
    """
    spec = H.spec
    p, q, r = spec.p, spec.modulus, spec.rank
    if not is_p_group(H):
        raise PreconditionError("H is a p-group", f"|H| = {H.order}")
    ga, gia = _element_arrays(g, spec)
    if not _normalizing(ga[None], gia[None], H)[0]:
        raise PreconditionError("H is normal in <g, H>",
                                "g does not normalize H")
    og = element_order(g)
    if (p - 1) % og != 0:
        raise PreconditionError("order of g divides p-1",
                                f"order(g) = {og}, p-1 = {p - 1}")

    trivial = MatGroup.close([], spec)

    def recurse(sub: MatGroup, A: np.ndarray):
        """(h, lambda) pairs for the g-stable p-group sub, h as arrays, from
        generators A of sub each outside the closure of those before it."""
        if sub.order == 1:
            return []
        phi = _frattini(sub, A, trivial)
        X = sub.element_array()
        # greedy basis of sub/phi in the deterministic element order: sub/phi
        # is elementary abelian of order p^d, so each kept element
        # multiplies the closure by p and the d-th needs no close
        d = _factor(sub.order // phi.order)[p]
        basis = _greedy_generators(X, phi, sub.order + 1, d)[0]
        conj = (((ga @ X[basis]) % q) @ gia) % q    # g b g^-1 for each b
        k = len(basis)
        if k == 1:
            powers = sub._cyclic_positions(basis[0])
            lam = np.flatnonzero(powers == sub.lookup(conj)[0])
            certify(len(lam), "conjugate is not a power of the generator "
                    "(internal)")
            return [(X[basis[0]], int(lam[0]))]
        # reps[c]: b_1^c_1 ... b_k^c_k for c in F_p^k, c_1 most significant;
        # the first p powers of each b are distinct, as b is outside phi
        reps = np.eye(r, dtype=np.int64)[None]
        for b in basis:
            powers = X[sub._cyclic_positions(b)[:p]]
            reps = ((reps[:, None] @ powers[None]) % q).reshape(-1, r, r)
        # g b_j g^-1 lies in the coset reps[c] phi with c its coordinates:
        # exactly one (g b_j g^-1)^-1 reps[c] is in phi
        conj_inv = batch_inv(conj, q)
        hits = phi.lookup(((conj_inv[:, None] @ reps[None]) % q)
                          .reshape(-1, r, r)).reshape(k, -1) >= 0
        certify((hits.sum(axis=1) == 1).all(),
                "conjugate outside one coset of phi (internal)")
        digits = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        # row j: the coordinates of g b_j g^-1, column j of the action F
        coords = (hits.argmax(axis=1)[:, None] // digits) % p
        eigenvecs = []
        for lam in range(p):
            # F - lam has no kernel unless lam is an eigenvalue
            ker = RowSystem((coords - lam * np.eye(k, dtype=np.int64)) % p,
                            p, 1).kernel()
            eigenvecs.extend(vec for vec in ker if vec.any())
        eigenvecs = np.array(eigenvecs, dtype=np.int64).reshape(-1, k)
        # semisimplicity (order of the action divides p-1) guarantees a basis
        certify(_howell_rows(eigenvecs, p, 1).shape[0] == k == len(eigenvecs),
                "conjugation action not diagonalizable "
                "(internal; hypotheses violated?)")
        # the k representatives are independent mod phi, so after phi's
        # generators each lies outside the closure of those before it
        cands = reps[eigenvecs @ digits]
        parts = [np.concatenate([phi.generator_array(), part])
                 for part in (cands[:1], cands[1:])]
        return [pair for A in parts for pair in
                recurse(MatGroup.close(A, spec, cap=sub.order + 1), A)]

    A = H.generator_array()
    unique = {}
    for h, lam in recurse(H, A[_greedy_generators(A, trivial, H.order + 1,
                                                  len(A))[0]]):
        unique.setdefault(h.tobytes(), (h, lam))
    hs = np.array([h for h, _ in unique.values()],
                  dtype=np.int64).reshape(-1, r, r)
    lams = np.array([lam for _, lam in unique.values()], dtype=np.int64)
    regen = MatGroup.close(hs, spec, cap=H.order + 1)
    certify(regen.order == H.order and regen.is_subgroup_of(H),
            "decomposition does not regenerate H (internal)")
    powers = np.empty_like(hs)
    for lam in _distinct(lams).tolist():
        at = lams == lam
        powers[at] = _scalar_power(hs[at], lam, q)
    certify(np.array_equal((((ga @ hs) % q) @ gia) % q, powers),
            "conjugation identity failed (internal)")
    return Decomposition(tuple((Mat.from_array(h, q), lam)
                               for h, lam in unique.values()))


def lift_normalizer(G: MatGroup, N: MatGroup, H: MatGroup, g: Mat) -> Mat:
    """An element of the coset gN that normalizes the p-Sylow H.

    Requires N normal in G and the class of g normalizing HN/N; finds
    x = n h in HN with x H x^-1 = g H g^-1 and returns n^-1 g."""
    if not N.is_subgroup_of(G) or not H.is_subgroup_of(G):
        raise PreconditionError("N and H are subgroups of G")
    q = G.spec.modulus
    X, inv = G.element_array(), G.inverse_indices()
    gen_pos = G.lookup(G.generator_array())
    if not _normalizing(X[gen_pos], X[inv[gen_pos]], N).all():
        raise PreconditionError("N is normal in G")
    if g not in G:
        raise PreconditionError("g is an element of G")
    ga, gia = _element_arrays(g, G.spec)
    if _normalizing(ga[None], gia[None], H)[0]:
        return g  # already a normalizer element
    # N is normal, so HN = <N, H>: one closure, as a mask over G's positions
    pos = G.lookup(MatGroup.close(
        np.concatenate([N.generator_array(), H.generator_array()]), G.spec,
        cap=G.order).element_array())
    certify((pos >= 0).all(), "product n h outside G (internal)")
    in_HN = np.zeros(G.order, dtype=bool)
    in_HN[pos] = True
    pos = G.lookup((((ga @ H.generator_array()) % q) @ gia) % q)
    if not ((pos >= 0) & in_HN[pos]).all():
        raise PreconditionError("class of g normalizes HN/N")
    # x H x^-1 = g H g^-1 exactly when g^-1 x normalizes H; HN in key order
    hn = G._sorted_pos[in_HN[G._sorted_pos]]
    HN = X[hn]
    hits = np.flatnonzero(_normalizing((gia @ HN) % q, (X[inv[hn]] @ ga) % q,
                                       H))
    certify(len(hits), "Sylow conjugator not found in HN (internal)")
    # x = n h: the first h in H's element order with x h^-1 in N
    cands = (HN[hits[0]] @ H.element_array()[H.inverse_indices()]) % q
    in_N = np.flatnonzero(N.lookup(cands) >= 0)
    certify(len(in_N), "x does not factor as n h (internal)")
    out = (X[inv[G.lookup(cands[in_N[:1]])]] @ ga) % q    # n^-1 g
    certify(N.lookup((gia @ out) % q)[0] >= 0,
            "result left the coset gN (internal)")
    certify(_normalizing(out, X[inv[G.lookup(out)]], H)[0],
            "result does not normalize H (internal)")
    return Mat.from_array(out[0], q)


def sylow_normalizer_element(G: MatGroup, N: MatGroup):
    """An element of order p-1 normalizing a p-Sylow subgroup of G, given a
    normal N with G/N cyclic of order p-1.

    Returns (element, report); the report certifies the order of the class
    modulo N, which is always a multiple of (p-1)/i for i = gcd((2d)!, p-1)
    coming from the block structure of semisimple matrices."""
    p = G.spec.p
    if G.order % N.order != 0 or G.order // N.order != p - 1:
        raise PreconditionError("G/N has order p-1",
                                f"|G|/|N| = {G.order / N.order}")

    class_orders = coset_orders(G, N)
    full = np.flatnonzero(class_orders == p - 1)
    if not len(full):
        raise PreconditionError("G/N is cyclic of order p-1",
                                "no class of full order")
    H = p_sylow(G)
    g1 = lift_normalizer(G, N, H, G.element(full[0]))
    pos = np.array([G.index_of(g1)])
    o = int(G.orders()[pos[0]])
    certify(o % (p - 1) == 0, "lift order not a multiple of p-1 (internal)")
    pos = _power_positions(G.power_maps(), pos, np.array([o // (p - 1)]))
    certify(G.orders()[pos[0]] == p - 1, "element order not p-1 (internal)")
    X = G.element_array()
    certify(_normalizing(X[pos], X[G.inverse_indices()[pos]], H)[0],
            "element does not normalize the Sylow (internal)")
    g = G.element(pos[0])
    t = int(class_orders[pos[0]])
    i = gcd(factorial(G.spec.rank), p - 1)
    lower = (p - 1) // i
    certify(t % lower == 0, "class order certificate failed (internal)")
    report = {"i": i, "class_order": t, "order": p - 1,
              "class_order_multiple_of": lower}
    return g, report


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
