"""Deterministic stabilizer chains of finite matrix groups over Z/p^n, by
Schreier-Sims.

The base is e_1, ..., e_r under the row action v -> v g, so the image of
e_i under g is row i of g, and a point is a row vector keyed by its base-q
code (keys._keys).  The build keeps one strong generating set S, each
member with its inverse: the given generators less the identity, whose
inverses come from one batch_inv, and the residues added below.  S^(i) is
the members of S that fix e_1, ..., e_{i-1}, and H^(i) = <S^(i)>, so
G = H^(1).  Level i holds the orbit D_i of e_i under S^(i), found breadth
first over point codes with keys._absorb, the step each layer of
MatGroup.close takes, and the transversal: for each orbit point b an
element U_b with e_i U_b = b, formed along the orbit tree (U_{bs} = U_b s
on the tree edge b -> bs, U_{e_i} = 1).  The inverses are carried along
the same tree, U_{bs}^-1 = s^-1 U_b^-1, so none is computed.

The sift of x from level i: b = e_i x; if b lies in D_i, x U_b^-1 fixes
e_i (and every earlier e_l that x fixed) and goes on to level i + 1;
otherwise x stops at level i, and what it has become is its residue.  A
matrix that passes every level has row i equal to e_i for every i, so it
is the identity, and x is the product of the U_b it met: it lies in G.
That is StabChain.contains.  A residue's inverse is carried along its sift
as the transversal inverses are: (x U_b^-1)^-1 = U_b x^-1.

Schreier's lemma: for x in H^(i) fixing e_i, write x as a word s_1 ... s_m
in S^(i) and let b_j = e_i s_1 ... s_j; then x is the product of the
Schreier generators U_{b_{j-1}} s_j U_{b_j}^-1, since U_{b_0} = U_{b_m} = 1
and the inner factors cancel.  So those generators (b in D_i, s in S^(i);
tree edges give 1 and are skipped) generate the stabilizer of e_i in
H^(i).  Sims' criterion (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 4.4; Sims 1970): when at every level the Schreier generators
all sift to 1 through the levels below it, H^(i+1) is that stabilizer at
every i, and by orbit-stabilizer |G| = |D_1| ... |D_r|.

The build forms every orbit, then takes the levels from the deepest up,
in blocks of Schreier pairs in pair order, and sifts each block through
the levels below in one vectorized pass.  A level's first block is
_FIRST_BLOCK pairs and each later one twice the last, up to _BLOCK, so a
residue found early does not make most of a large block be formed again.
The first generator that does not sift leaves a residue h that fixes
e_1, ..., e_{j-1} and moves e_j for some j > i; h joins S, the orbits
i+1..j are formed again, and the build goes back to level j.  Levels
below the current one are always complete, so a Schreier generator that
sifted once sifts again and is not formed again; the rest of the block
that did not sift is formed again once the build is back at level i.  A
level is done when all of its Schreier generators sift; they then sift to
1, the certificate.  h already lies in H^(l) for l <= i, so the orbits
there stand.

The cap: H^(i+1) lies in the stabilizer of e_i in H^(i), so
|H^(i)| >= |D_i| |H^(i+1)|, and at every stage the product of the current
orbit lengths is a lower bound on |G|.  The build refuses with close's
CapExceededError as soon as that product passes the cap, inside the orbit
search, before any Schreier generator of a larger orbit is formed.

For the elements, x in H^(i) lies in exactly one coset H^(i+1) U_b, the
one of b = e_i x, and then x U_b^-1 lies in H^(i+1).  By induction every
element of G is a product U_r ... U_1 with U_i in T_i in exactly one way,
so the products list each element once, with nothing to deduplicate.
StabChain.planes lists them as entry planes, ringmat's layout: row i of
x U_1 is (row i of x) U_1 for a prefix x = U_r ... U_2, and the prefixes'
rows repeat, so the distinct ones are multiplied by every U_1 once and
each plane is one gather from those images, in ringmat._entry_dtype (16
int16 planes, 32 bytes per element of GSp_4(F_3), against 128 for an
int64 4x4 matrix).  An element's key packs the codes of its image rows
by Horner, as keys._product_keys packs a product's, and one sort of the
keys certifies that no element appears twice.

This module is not imported by the package's __init__, so processes that
never build a chain do not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapExceededError, InputError, certify
from .groups import DEFAULT_CAP, _generator_array
from .keys import (_absorb, _digit_weights, _distinct, _find,
                   _first_occurrences, _keys, _product_keys)
from .ringmat import ModuleSpec, _entry_dtype, batch_inv

# orbit images and Schreier products are formed at most this many at a time
_BLOCK = 1 << 15
# each level's first block of Schreier pairs; each later block of the
# level doubles, up to _BLOCK
_FIRST_BLOCK = 1 << 8


def _orbit(gens: np.ndarray, invs: np.ndarray, i: int, index: int,
           cap: int, q: int):
    """(level, edges) for the orbit of e_i under the (k, r, r) generators
    gens, whose inverses are invs.

    level is (U, V, sorted point keys, transversal position of each): U the
    (n, r, r) transversal, U[0] = 1 and row i of U[b] the b-th orbit point,
    in breadth-first order (a layer's points in the order of their first
    (point, generator) pair, point-major), and V[b] = U[b]^-1.  edges holds
    the pair t = b * k + s of each tree edge, ascending.  index is the
    product of the other levels' orbit lengths, so index times the points
    found is a lower bound on |G|; CapExceededError once it passes cap."""
    k, r = gens.shape[:2]
    frontier = inverse = np.eye(r, dtype=np.int64)[None]
    seen = _keys(frontier[:, i], q)
    pieces, inverses, edges = [frontier], [inverse], [np.zeros(0, np.int64)]
    start, count = 0, 1
    while k and len(frontier):
        layer, layer_inv, step = [], [], max(1, _BLOCK // k)
        for a in range(0, len(frontier), step):
            block = frontier[a:a + step]
            images = (block[:, None, i:i + 1] @ gens).reshape(-1, r) % q
            seen, t = _absorb(seen, _keys(images, q))
            t.sort()
            b, s = np.divmod(t, k)
            layer.append(block[b] @ gens[s] % q)
            layer_inv.append(invs[s] @ inverse[a + b] % q)
            edges.append((start + a) * k + t)
            count += len(t)
            if index * count > cap:
                raise CapExceededError("group closure", cap)
        start += len(frontier)
        frontier, inverse = np.concatenate(layer), np.concatenate(layer_inv)
        pieces.append(frontier)
        inverses.append(inverse)
    U = np.concatenate(pieces)
    point_keys = _keys(U[:, i], q)
    by_key = np.argsort(point_keys, kind="stable")
    level = (U, np.concatenate(inverses), point_keys[by_key], by_key)
    return level, np.concatenate(edges)


def _schreier(level: tuple, gens: np.ndarray, pairs: np.ndarray, i: int,
              q: int, invs=None):
    """The Schreier generators U_b s U_{bs}^-1 of the pairs t = b * k + s
    of _orbit's level i and its k generators gens; with invs, the
    generators' inverses, also their inverses U_{bs} s^-1 U_b^-1.  Row i
    of U_b s is the point bs, and its key finds U_{bs} and U_{bs}^-1."""
    U, V, point_keys, by_key = level
    b, s = np.divmod(pairs, len(gens))
    us = U[b] @ gens[s] % q
    pos, hit = _find(point_keys, _keys(us[:, i], q))
    certify(hit.all(), "orbit not closed under the generators")
    at = by_key[pos]
    if invs is None:
        return us @ V[at] % q
    return us @ V[at] % q, U[at] @ invs[s] % q @ V[b] % q


def _sift(h: np.ndarray, levels, start: int, q: int, inv=None):
    """Sift the (m, r, r) matrices h in place through levels[start:], each
    an _orbit level: at level l, b = e_l h must be an orbit point, and h
    becomes h U_b^-1.  Returns the level at which each one stopped, with
    len(levels) for those that passed every level.  inv, the inverses of
    h when given, is carried along in place as U_b h^-1."""
    stop = np.full(len(h), len(levels))
    live, x = np.arange(len(h)), h
    for l in range(start, len(levels)):
        U, V, point_keys, by_key = levels[l]
        pos, hit = _find(point_keys, _keys(x[:, l], q))
        if not hit.all():
            stop[live[~hit]] = l
            h[live[~hit]] = x[~hit]
            live, x, pos = live[hit], x[hit], pos[hit]
        at = by_key[pos]
        x = x @ V[at] % q
        if inv is not None:
            inv[live] = U[at] @ inv[live] % q
    h[live] = x
    return stop


@dataclass(frozen=True)
class StabChain:
    """A stabilizer chain with base e_1, ..., e_r.  levels[i] is level i's
    (U, U^-1, sorted point keys, transversal position of each), U the
    read-only (|D_i|, r, r) transversal of _orbit, U[0] = 1.  Build it with
    StabChain.build."""

    spec: ModuleSpec
    levels: tuple

    @classmethod
    def build(cls, generators, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """The chain of the group the generators generate: Mat values, row
        lists or one (k, r, r) integer array, refused as close refuses them
        (_generator_array).  CapExceededError("group closure", cap) once
        the product of the orbit lengths passes cap; InternalError unless
        every Schreier generator sifts to 1."""
        q, r = spec.modulus, spec.rank
        ident = np.eye(r, dtype=np.int64)
        S = _generator_array(generators, spec)
        moved = (S != ident).any(axis=2)
        keep = moved.any(axis=1)
        # depth: the first base point each member of S moves
        S, depth = S[keep], moved[keep].argmax(axis=1)
        S_inv = batch_inv(S, q)
        # per level: its orbit's members of S (positions in S), its pairs
        # that are no tree edge and have not sifted yet, and its next block
        # size
        levels, under, todo, block = ([None] * r for _ in range(4))

        def form(l):
            under[l] = np.flatnonzero(depth >= l)
            index = prod(len(levels[m][0]) for m in range(r)
                         if m != l and levels[m] is not None)
            levels[l], edges = _orbit(S[under[l]], S_inv[under[l]], l, index,
                                      cap, q)
            tree = np.zeros(len(levels[l][0]) * len(under[l]), dtype=bool)
            tree[edges] = True
            todo[l] = np.flatnonzero(~tree)
            block[l] = _FIRST_BLOCK

        for l in range(r):
            form(l)
        i = r - 1
        while i >= 0:
            if not len(todo[i]):
                i -= 1
                continue
            pairs, todo[i] = todo[i][:block[i]], todo[i][block[i]:]
            block[i] = min(2 * block[i], _BLOCK)
            h = _schreier(levels[i], S[under[i]], pairs, i, q)
            stop = _sift(h, levels, i + 1, q)
            certify((h[stop == r] == ident).all(),
                    "a Schreier generator sifts to a matrix other than 1")
            out = np.flatnonzero(stop < r)
            if not len(out):
                continue
            # the first generator that does not sift, again with its inverse
            h, h_inv = _schreier(levels[i], S[under[i]], pairs[out[:1]], i,
                                 q, S_inv[under[i]])
            j = int(_sift(h, levels, i + 1, q, h_inv)[0])
            S, S_inv = np.concatenate([S, h]), np.concatenate([S_inv, h_inv])
            depth = np.append(depth, j)
            # that generator sifts once the levels below are complete again;
            # the others that did not sift are checked again then
            todo[i] = np.concatenate([pairs[out[1:]], todo[i]])
            for l in range(i + 1, j + 1):
                form(l)
            i = j
        for level in levels:
            for a in level:
                a.flags.writeable = False
        return cls(spec, tuple(levels))

    @property
    def transversals(self) -> tuple:
        """The read-only transversal U of each level."""
        return tuple(level[0] for level in self.levels)

    @property
    def orbit_lengths(self) -> tuple:
        return tuple(len(U) for U in self.transversals)

    @property
    def order(self) -> int:
        """|G|, the product of the orbit lengths."""
        return prod(self.orbit_lengths)

    def contains(self, arr) -> np.ndarray:
        """Boolean mask over the (N, r, r) matrices arr, entries reduced
        mod q first, of those in the group: the ones that sift through
        every level, since a matrix that does ends at 1 and is then a
        product of the U_b.  InputError unless arr's trailing shape is
        (r, r)."""
        q, r = self.spec.modulus, self.spec.rank
        h = np.array(arr, dtype=np.int64)
        if h.shape[-2:] != (r, r):
            raise InputError(f"contains takes {r}x{r} matrices, "
                             f"not an array of shape {h.shape}")
        h = h.reshape(-1, r, r) % q
        inside = _sift(h, self.levels, 0, q) == r
        certify((h[inside] == np.eye(r, dtype=np.int64)).all(),
                "a sift through every level ends at a matrix other than 1")
        return inside

    def planes(self) -> np.ndarray:
        """The products U_r ... U_1, U_i in transversals[i - 1], each
        element of the group once, as read-only entry-major (r, r, order)
        planes in ringmat._entry_dtype(q): planes[i, j] holds entry (i, j)
        of every element, as ringmat._planes lays them out.  Element
        u * M + m is x_m U_1[u], x_m the m-th of the M prefixes.

        The prefixes U_r ... U_2 are batched products.  The last level is
        the widest, one product per element, and row i of x U_1 is (row i
        of x) U_1: the prefixes' rows repeat (5,184 rows, 79 distinct, at
        GSp_4(F_3)), so each distinct row is multiplied by every U_1 once,
        and each plane is one gather from those images' entries, with no
        product, reduction or int64 matrix per element.  An element's key
        is its rows' codes packed by Horner (keys._product_keys, bytes once
        q^(r^2) >= 2^63), from the images' codes and the rows' positions
        among the distinct ones; where a row's code itself passes int64
        (q^r >= 2^63), the keys are the planes'.  One _distinct of the keys
        certifies that no element appears twice."""
        q, r = self.spec.modulus, self.spec.rank
        first, *rest = self.transversals
        prefixes = np.eye(r, dtype=np.int64)[None]
        for T in reversed(rest):
            prefixes = (prefixes[:, None] @ T).reshape(-1, r, r) % q
        rows = prefixes.reshape(-1, r)
        codes = _keys(rows, q)
        distinct, at = _first_occurrences(codes)
        # where[m, i]: the position of row i of prefix m among the distinct
        # rows; images[u, d]: distinct row d times U_1[u]
        where = _find(distinct, codes)[0].reshape(-1, r)
        images = rows[at] @ first % q
        entries = np.ascontiguousarray(images.transpose(2, 0, 1),
                                       dtype=_entry_dtype(q))
        planes = np.empty((r, r, len(first) * len(where)), entries.dtype)
        for i, j in np.ndindex(r, r):
            np.take(entries[j], where[:, i], axis=1,
                    out=planes[i, j].reshape(len(first), -1))
        if q ** r < 2 ** 63:
            keys = _product_keys(np.ascontiguousarray(
                (images @ _digit_weights(q, r)).T), where, q)
        else:
            keys = _keys(planes.transpose(2, 0, 1), q)
        certify(len(_distinct(keys)) == len(keys),
                "stabilizer chain lists an element twice")
        planes.flags.writeable = False
        return planes

    def elements(self) -> np.ndarray:
        """The (order, r, r) int64 array of the group's elements, in the
        order of planes(): planes().transpose(2, 0, 1) as int64."""
        return np.ascontiguousarray(self.planes().transpose(2, 0, 1),
                                    dtype=np.int64)
