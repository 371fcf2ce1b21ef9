"""Finite matrix groups over Z/p^n.

Groups are closures of generator lists under multiplication, enumerated
breadth first with a deterministic order (BFS layer, then lexicographic on
entries).  The closure keeps, for every element, one factorization
element = parent * generator; the cohomology module rides on that tree.
Once a closure holds q^rank elements it works on row codes: each row of a
matrix as one base-q integer, and a product with a generator as one
lookup per row in that generator's table of row images, built at that
point so it never costs more than the products already formed.  The
keys of a layer's products are those lookups combined by Horner, with no
array of the products; only the fresh ones, the next layer, are formed.

Also here: element orders from prime power maps (one cached map per
prime), the p-elements from the p-power map alone, and one generator per
conjugacy class of maximal cyclic p-subgroups, where cohomology.h1_loc
imposes its local conditions.  A p-element x != 1 generates a maximal
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
trivial group, or a Frattini subgroup), and _normalizing is the one test
that elements normalize a group; Mat values appear only in arguments and
results.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .errors import (CapExceededError, InputError, PreconditionError,
                     certify)
from .ringmat import Mat, ModuleSpec, RowSystem, _howell_rows

DEFAULT_CAP = 200_000


def _keys(arr: np.ndarray, q: int) -> np.ndarray:
    """Sort keys of the (N, r, r) matrices in arr, entries in [0, q), in the
    lexicographic order of the flattened entries: base-q packed int64 codes
    while q^(r*r) < 2^63, big-endian byte strings past that."""
    r = arr.shape[1]
    flat = arr.reshape(len(arr), r * r)
    if q ** (r * r) < 2 ** 63:
        return flat @ _digit_weights(q, r * r)
    return np.ascontiguousarray(flat.astype(">i8")).view(
        np.dtype((np.void, 8 * r * r))).ravel()


def _digit_weights(q: int, r: int) -> np.ndarray:
    """q^(r-1), ..., q, 1: the weights of a big-endian base-q row code, so
    row x_i of a matrix with entries in [0, q) has code x_i @ weights."""
    return q ** np.arange(r - 1, -1, -1, dtype=np.int64)


def _code_space(q: int, r: int) -> np.ndarray:
    """The (q^r, r) rows of every code in [0, q^r), so the rows of any codes
    are one gather from it."""
    return np.arange(q ** r)[:, None] // _digit_weights(q, r) % q


def _row_table(garr: np.ndarray, space: np.ndarray) -> np.ndarray:
    """table[g, c]: the code of (row with code c) @ generator g mod q, for
    every code c in [0, q^r) and each of the (k, r, r) generators garr.
    space is _code_space(q, r); its last row, the code q^r - 1, has every
    entry q - 1."""
    q, r = int(space[-1, 0]) + 1, garr.shape[1]
    return ((space @ garr) % q) @ _digit_weights(q, r)


def _product_keys(table: np.ndarray, layer: np.ndarray,
                  q: int) -> np.ndarray:
    """_keys of the products x g, element-major (t = e * k + g), for the
    (L, r) row-coded matrices x of layer and the k generators of the
    code-major row table (the transpose of _row_table's).  Row i of x g
    has code table[row i of x, g], and packing the row codes in base q^r
    gives the base-q packing of the entries, so the int64 keys are r
    gathers of (L, k) codes combined by Horner, with no (k * L, r) array
    of the products.  Byte keys decode the gathered codes first."""
    r = layer.shape[1]
    if q ** (r * r) >= 2 ** 63:
        codes = table[layer].transpose(0, 2, 1)[..., None]
        return _keys((codes // _digit_weights(q, r) % q).reshape(-1, r, r), q)
    keys = table[layer[:, 0]]
    for i in range(1, r):
        keys *= q ** r
        keys += table[layer[:, i]]
    return keys.ravel()


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the 1-d array a, as np.unique(a) gives
    them, without the import of numpy.ma that the plain np.unique call
    makes (about 14 ms of every process that reaches it)."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _first_occurrences(keys: np.ndarray):
    """(distinct keys sorted, index of the first occurrence of each), as
    np.unique(keys, return_index=True) gives them.  From 256 keys on, where
    (max key + 1) * n fits in int64 for the n keys, the packed values
    key * n + index are distinct, so the default sort orders them with no
    stable argsort and each key's run starts at its first index: one
    floor division gives the keys (packed codes, so never negative), a run
    starts where they change, and its first packed value less key * n is
    that index.  Fewer keys, where np.unique's fixed cost is the smaller,
    and byte keys go through np.unique."""
    n = len(keys)
    if n < 256 or keys.dtype != np.int64 or \
            (int(keys.max()) + 1) * n > 2 ** 63:
        return np.unique(keys, return_index=True)
    packed = keys * n
    packed += np.arange(n)
    packed.sort()
    keys = packed // n
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    keys = keys[start]
    return keys, packed[start] - keys * n


def _stack(mats, r: int) -> np.ndarray:
    """The entries of the r x r matrices mats as a (len(mats), r, r) array."""
    if any(m.rows != r or m.cols != r for m in mats):
        raise InputError(f"matrices must be {r}x{r}")
    return np.array([m.entries for m in mats],
                    dtype=np.int64).reshape(len(mats), r, r)


def _cached(fill):
    """Method decorator for a lazy cache: the first call runs fill under the
    owner's lock (self._lock, reentrant) and later calls reuse its value, so
    threads sharing the owner fill each cache exactly once."""
    slot = f"_{fill.__name__}_cache"

    @functools.wraps(fill)
    def get(self):
        value = self.__dict__.get(slot)
        if value is None:
            with self._lock:
                value = self.__dict__.get(slot)
                if value is None:
                    value = fill(self)
                    setattr(self, slot, value)
        return value
    return get


def _find(sorted_keys: np.ndarray, keys: np.ndarray):
    """(pos, hit): searchsorted positions of keys in the non-empty
    sorted_keys, and which keys are present."""
    pos = np.searchsorted(sorted_keys, keys)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


class MatGroup:
    """A closed finite matrix group; construct through MatGroup.close().

    The elements are one read-only (N, r, r) int64 array in BFS-lex order,
    identity first, searched through their sorted keys; the Mat list,
    prime power maps, element orders and inverses are computed on first
    use, under the group's lock."""

    def __init__(self, spec, generators, array, sorted_keys, sorted_pos,
                 tree_parent, tree_gen, layers):
        self.spec = spec
        self.generators = tuple(generators)
        self._array = array
        self._sorted_keys = sorted_keys     # keys of the elements, sorted
        self._sorted_pos = sorted_pos       # element position of each key
        self.tree_parent = tree_parent      # element i == elements[parent] * gen
        self.tree_gen = tree_gen
        self._layers = tuple(layers)        # (start, stop) of each BFS layer
        self.order = len(array)
        self._lock = threading.RLock()      # guards the lazy caches
        self._cohom_cache = {}              # module exponent -> system
        self._power_map_cache = {}          # prime -> power map

    # -- construction ------------------------------------------------------

    @classmethod
    def close(cls, generators, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """Breadth-first closure of the generators under multiplication.

        A layer is the new products (previous layer) x (generators) in key
        order; an element's tree edge is its first such product.  Products
        are batched matmuls until the closure holds q^rank elements; from
        then on a layer is kept as row codes, the keys of its products are
        gathers from the generators' row tables (_row_table, read
        code-major by _product_keys), and only the fresh products are
        gathered as codes, so the table never costs more than the products
        already formed and no (k * L, r) product array exists.  The code
        space is decoded once, for the table and for the element array."""
        q, r = spec.modulus, spec.rank
        if r * (q - 1) ** 2 >= 2 ** 63:
            raise InputError(f"modulus {q} too large for int64 group "
                             f"arithmetic (rank*(q-1)^2 >= 2^63)")
        gens = []
        for i, g in enumerate(generators):
            g = Mat.from_rows(g.entries if isinstance(g, Mat) else g, q)
            if g.rows != r or g.cols != r:
                raise InputError(f"generator {i + 1} is not {r}x{r}")
            if not g.is_invertible():
                raise InputError(f"generator {i + 1} not invertible")
            gens.append(g)
        k = len(gens)
        layer = np.eye(r, dtype=np.int64)[None]
        layer_idx = np.zeros(1, dtype=np.int64)
        seen = _keys(layer, q)
        # layers as (L, r, r) matrices, then as (L, r) row codes
        chunks, code_chunks, key_chunks = [layer], [], [seen]
        parents, labels = [np.array([-1])], [np.array([-1])]
        layers = []
        garr = _stack(gens, r)
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
            keys, first = _first_occurrences(prod_keys)
            fresh = ~_find(seen, keys)[1]
            count = int(fresh.sum())
            if not count:
                break
            if len(seen) + count > cap:
                raise CapExceededError("group closure", cap)
            t = first[fresh]
            e, g = np.divmod(t, k)
            parents.append(layer_idx[e])
            labels.append(g)
            layers.append((len(seen), len(seen) + count))
            # from the table on, only the fresh products are formed, as codes
            layer = prods[t] if table is None else table[layer[e], g[:, None]]
            layer_idx = np.arange(*layers[-1])
            (chunks if table is None else code_chunks).append(layer)
            key_chunks.append(keys[fresh])
            # both runs are sorted, so the stable sort is one merge
            seen = np.sort(np.concatenate([seen, keys[fresh]]), kind="stable")
        if code_chunks:
            chunks.append(np.take(space, np.concatenate(code_chunks), axis=0))
        array, all_keys, tree_parent, tree_gen = map(
            np.concatenate, (chunks, key_chunks, parents, labels))
        sorted_pos = np.argsort(all_keys, kind="stable")
        for a in (array, sorted_pos, tree_parent, tree_gen):
            a.flags.writeable = False
        return cls(spec, gens, array, all_keys[sorted_pos], sorted_pos,
                   tree_parent, tree_gen, layers)

    @classmethod
    def from_elements(cls, elements, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """Group from a set already closed under the operations: picks a small
        generating set greedily (lexicographic element order) and re-closes."""
        q = spec.modulus
        mats = [e if isinstance(e, Mat) and e.modulus == q
                else Mat.from_rows(e.entries if isinstance(e, Mat) else e, q)
                for e in elements]
        arr = _stack(mats, spec.rank)
        # distinct elements in lexicographic order
        _, first = np.unique(_keys(arr, q), return_index=True)
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
        right = np.empty((len(self.generators), self.order), dtype=np.int64)
        for g, row in zip(self.generators, right):
            row[:] = self.lookup((self._array @ g.to_array()) % q)
        right.flags.writeable = False
        return right

    def _power_map(self, ell: int) -> np.ndarray:
        """The position of x^ell for every element x, for a prime ell
        dividing |G|: one batched power and one lookup, cached per prime
        under the group's lock, so a caller that needs one prime (the
        p-elements) computes no other."""
        pm = self._power_map_cache.get(ell)
        if pm is None:
            with self._lock:
                pm = self._power_map_cache.get(ell)
                if pm is None:
                    pm = self.lookup(_scalar_power(self._array, ell,
                                                   self.spec.modulus))
                    pm.flags.writeable = False
                    self._power_map_cache[ell] = pm
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
        """Position of the inverse of every element: x^-1 = x^(t-1) for its
        order t, one scalar power over the elements of each distinct
        order."""
        o = self.orders()
        inv = np.empty(self.order, dtype=np.int64)
        for t in _distinct(o).tolist():
            at = np.flatnonzero(o == t)
            inv[at] = self.lookup(_scalar_power(self._array[at], t - 1,
                                                self.spec.modulus))
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
        q, r = self.spec.modulus, self.spec.rank
        gens = _stack(self.generators, r)
        gens_inv = _scalar_power(gens, self.order - 1, q)
        X = self._array[pos]
        conj = np.empty((len(gens), len(pos)), dtype=np.int64)
        for g, gi, row in zip(gens, gens_inv, conj):
            y = g @ X
            y %= q
            y = y @ gi
            y %= q
            row[:] = self.lookup(y)
        return conj

    def _cyclic_positions(self, s: int, o=None) -> np.ndarray:
        """Positions of s^0, ..., s^(o-1) for the order o of s (read from
        orders() when not given): the powers by doubling, then one
        lookup."""
        q, r = self.spec.modulus, self.spec.rank
        o = int(self.orders()[s]) if o is None else int(o)
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

    def reduce_mod(self, j: int, cap: int = DEFAULT_CAP) -> "MatGroup":
        """Image of the group under entrywise reduction mod p^j."""
        sub = self.spec.with_exponent(j)
        return MatGroup.close([g.reduce_mod(sub.modulus) for g in self.generators],
                              sub, cap=cap)

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


def _factor(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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


def p_sylow(G: MatGroup) -> MatGroup:
    """A p-Sylow subgroup of G by normalizer ascent.

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
    # argmax takes the first position among the largest p-element orders
    current = MatGroup.close([G.element(int(P[np.argmax(e)]))], spec)
    X = G.element_array()
    while current.order < target:
        XP = X[P]
        ext = P[_normalizing(XP, X[G.inverse_indices()[P]], current)
                & (current.lookup(XP) < 0)]
        certify(len(ext), "Sylow ascent stalled (internal)")
        current = MatGroup.close(list(current.generators)
                                 + [G.element(ext[0])], spec)
    return current


def _normalizing(X: np.ndarray, Xi: np.ndarray, H: MatGroup) -> np.ndarray:
    """Mask over the matrices x in X (inverses in Xi) with x h x^-1 in H for
    every generator h of H, which for finite H means x H x^-1 = H."""
    q = H.spec.modulus
    mask = np.ones(len(X), dtype=bool)
    for h in H.generators:
        mask &= H.lookup((((X @ h.to_array()) % q) @ Xi) % q) >= 0
    return mask


def _normalizer_mask(G: MatGroup, H: MatGroup) -> np.ndarray:
    """Mask over the element positions of G of the normalizer of H."""
    X = G.element_array()
    return _normalizing(X, X[G.inverse_indices()], H)


def sylow_normalizer_mask(G: MatGroup):
    """(|S|, mask): the order of a p-Sylow S of G and the mask over G's
    element positions of its normalizer.

    By Sylow's theorem every p-element lies in a p-Sylow, and each p-Sylow
    holds exactly p^a = |G|_p of them.  So G has exactly p^a p-elements
    when they form one p-Sylow, which is then normal: its normalizer is
    all of G, read off the count of G._p_elements() with no p_sylow, no
    closure and no conjugation test.  Otherwise S is p_sylow(G) and the
    mask is _normalizer_mask(G, S)."""
    p = G.spec.p
    target = p ** _factor(G.order).get(p, 0)
    if len(G._p_elements()[0]) == target:
        return target, np.ones(G.order, dtype=bool)
    H = p_sylow(G)
    return H.order, _normalizer_mask(G, H)


def normalizer(G: MatGroup, H: MatGroup) -> MatGroup:
    """{x in G : x H x^-1 = H} as a closed subgroup."""
    if not H.is_subgroup_of(G):
        raise InputError("H is not contained in G")
    return G.subgroup(_normalizer_mask(G, H))


def is_p_group(H: MatGroup) -> bool:
    f = _factor(H.order)
    return len(f) <= 1 and (not f or H.spec.p in f)


def _greedy_generators(arr, base: MatGroup, cap: int = DEFAULT_CAP):
    """(positions, group): the greedy sublist of the (N, r, r) matrices arr
    that with the closed group base generates the same group as base and
    arr, keeping a matrix only when it enlarges the closure so far, and
    that group, closed from base's generators and the kept matrices in
    order (base itself when nothing is kept)."""
    spec, kept, grp, start = base.spec, [], base, 0
    while True:
        # the closure only grows, so matrices skipped so far stay inside it
        outside = np.flatnonzero(grp.lookup(arr[start:]) < 0)
        if not len(outside):
            return kept, grp
        start += int(outside[0])
        kept.append(start)
        grp = MatGroup.close(list(base.generators)
                             + [Mat.from_array(arr[i], spec.modulus)
                                for i in kept], spec, cap=cap)
        start += 1


def frattini(H: MatGroup) -> MatGroup:
    """Frattini subgroup of a p-group: generated by generator p-th powers and
    the commutator subgroup (equivalent to the maximal-subgroup intersection
    for p-groups, which the test suite's maximal_subgroup_intersection
    computes from that definition).  Every generating set is grown from
    one trivial group, closed once per call."""
    if not is_p_group(H):
        raise PreconditionError("H is a p-group", f"|H| = {H.order}")
    p = H.spec.p
    if H.order == 1:
        return H
    q, r = H.spec.modulus, H.spec.rank
    cap, trivial = H.order + 1, MatGroup.close([], H.spec)

    def generated(arr):
        return _greedy_generators(arr, trivial, cap)[1]

    A = _stack(H.generators, r)
    A = A[_greedy_generators(A, trivial, cap)[0]]
    Ai = H.element_array()[H.inverse_indices()[H.lookup(A)]]
    # a b a^-1 b^-1 for a, b in gens, a-major
    ab = (A[:, None] @ A[None]) % q
    comm_arr = ((((ab @ Ai[:, None]) % q) @ Ai[None]) % q).reshape(-1, r, r)
    # normal closure of the commutators inside H
    K = generated(comm_arr)
    while True:
        # x k x^-1 for x in gens and k in K.generators, x-major
        conj = ((((A[:, None] @ _stack(K.generators, r)[None]) % q)
                 @ Ai[:, None]) % q).reshape(-1, r, r)
        extra = conj[K.lookup(conj) < 0]
        if not len(extra):
            break
        K = generated(np.concatenate([_stack(K.generators, r), extra]))
    pth = _scalar_power(A, p, q)
    phi = generated(np.concatenate([_stack(K.generators, r), pth]))
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
    element arrays; the h_i become Mat values only in the result.
    """
    spec = H.spec
    p, q, r = spec.p, spec.modulus, spec.rank
    if not is_p_group(H):
        raise PreconditionError("H is a p-group", f"|H| = {H.order}")
    ga, gia = g.to_array(), g.inv().to_array()
    if not _normalizing(ga[None], gia[None], H)[0]:
        raise PreconditionError("H is normal in <g, H>",
                                "g does not normalize H")
    og = element_order(g)
    if (p - 1) % og != 0:
        raise PreconditionError("order of g divides p-1",
                                f"order(g) = {og}, p-1 = {p - 1}")

    def recurse(sub: MatGroup):
        """(h, lambda) pairs for the g-stable p-group sub, h as arrays."""
        if sub.order == 1:
            return []
        phi = frattini(sub)
        X = sub.element_array()
        # greedy basis of sub/phi in the deterministic element order
        basis = _greedy_generators(X, phi, sub.order + 1)[0]
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
        conj_inv = X[sub.inverse_indices()[sub.lookup(conj)]]
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
        certify(_howell_rows(eigenvecs, p, 1).shape[0] == k,
                "conjugation action not diagonalizable "
                "(internal; hypotheses violated?)")
        cands = reps[eigenvecs @ digits]
        chosen = [Mat.from_array(cands[i], q) for i in
                  _greedy_generators(cands, phi, sub.order + 1)[0]]
        H1 = MatGroup.close(list(phi.generators) + chosen[:1], spec,
                            cap=sub.order + 1)
        H2 = MatGroup.close(list(phi.generators) + chosen[1:], spec,
                            cap=sub.order + 1)
        return recurse(H1) + recurse(H2)

    unique = {}
    for h, lam in recurse(H):
        unique.setdefault(h.tobytes(), (h, lam))
    hs = np.array([h for h, _ in unique.values()],
                  dtype=np.int64).reshape(-1, r, r)
    lams = np.array([lam for _, lam in unique.values()], dtype=np.int64)
    pairs = tuple((Mat.from_array(h, q), lam) for h, lam in unique.values())
    regen = MatGroup.close([h for h, _ in pairs], spec, cap=H.order + 1)
    certify(regen.order == H.order and regen.is_subgroup_of(H),
            "decomposition does not regenerate H (internal)")
    powers = np.empty_like(hs)
    for lam in _distinct(lams).tolist():
        at = lams == lam
        powers[at] = _scalar_power(hs[at], lam, q)
    certify(np.array_equal((((ga @ hs) % q) @ gia) % q, powers),
            "conjugation identity failed (internal)")
    return Decomposition(pairs)


def lift_normalizer(G: MatGroup, N: MatGroup, H: MatGroup, g: Mat) -> Mat:
    """An element of the coset gN that normalizes the p-Sylow H.

    Requires N normal in G and the class of g normalizing HN/N; finds
    x = n h in HN with x H x^-1 = g H g^-1 and returns n^-1 g."""
    if not N.is_subgroup_of(G) or not H.is_subgroup_of(G):
        raise PreconditionError("N and H are subgroups of G")
    q = G.spec.modulus
    X, inv = G.element_array(), G.inverse_indices()
    gen_pos = [G.index_of(x) for x in G.generators]
    if not _normalizing(X[gen_pos], X[inv[gen_pos]], N).all():
        raise PreconditionError("N is normal in G")
    if g not in G:
        raise PreconditionError("g is an element of G")
    gi = G.inverse(g)
    ga, gia = g.to_array(), gi.to_array()
    if _normalizing(ga[None], gia[None], H)[0]:
        return g  # already a normalizer element
    # N is normal, so HN = <N, H>: one closure, as a mask over G's positions
    pos = G.lookup(MatGroup.close(N.generators + H.generators, G.spec,
                                  cap=G.order).element_array())
    certify((pos >= 0).all(), "product n h outside G (internal)")
    in_HN = np.zeros(G.order, dtype=bool)
    in_HN[pos] = True
    conj = np.stack([h.to_array() for h in H.generators])
    pos = G.lookup((((ga @ conj) % q) @ gia) % q)
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
    H = p_sylow(G)
    target = spec.p ** _factor(G.order).get(spec.p, 0)
    # all Sylows are conjugate: take x H x^-1 for the first x in G's order
    # with g normalizing it, that is with x^-1 g x normalizing H
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    ga, gia = g.to_array(), g.inv().to_array()
    hits = np.flatnonzero(_normalizing((((Xi @ ga) % q) @ X) % q,
                                       (((Xi @ gia) % q) @ X) % q, H))
    if not len(hits):
        return None
    x, xi = X[hits[0]], Xi[hits[0]]
    conj = (((x @ _stack(H.generators, spec.rank)) % q) @ xi) % q
    return MatGroup.close([Mat.from_array(h, q) for h in conj], spec,
                          cap=target + 1)
