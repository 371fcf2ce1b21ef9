"""Deterministic stabilizer chains of finite matrix groups over Z/p^n.

The base is e_1, ..., e_r under the row action v -> v g, so the image of
e_i under g is row i of g, and a point is a row vector keyed by its base-q
code (keys._keys).  Level i holds generators S_i of G_i, the stabilizer
in G of e_1, ..., e_{i-1} (S_1 the given generators), the orbit O_i of e_i
under G_i, found breadth first over point codes with keys._absorb, the
step each layer of MatGroup.close takes, and the transversal T_i:
for each orbit point b an element U_b with e_i U_b = b, formed along the
orbit tree (U_{bs} = U_b s on the tree edge b -> bs, U_{e_i} = 1).

Schreier's lemma gives S_{i+1}.  For x in G_i fixing e_i, write x as a
word s_1 ... s_m in S_i and let b_j = e_i s_1 ... s_j; then x is the
product of the U_{b_{j-1}} s_j U_{b_j}^-1, since U_{b_0} = U_{b_m} = 1
and the inner factors cancel, and each such factor fixes e_i.  So the
Schreier generators U_b s U_{bs}^-1 (b in O_i, s in S_i) generate the
stabilizer G_{i+1}.  Tree edges give 1 and are skipped, duplicates are
dropped by key, and so is the identity; the products are formed in blocks
of at most _BLOCK pairs.  A matrix that fixes every e_i is the identity, so
the chain certifies that the last level's Schreier generators are all 1.

Orbit-stabilizer gives |G_i| = |O_i| |G_{i+1}|, so |G| is the product of
the orbit lengths, read with no element formed, and the chain refuses
with close's CapExceededError as soon as that product passes the cap,
before it forms any further Schreier generator; where a level's Schreier
pairs take more than one block, the next orbit under the first block's
generators already bounds |G| from below and is checked first.

For the elements, x in G_i lies in exactly one coset G_{i+1} U_b, the one
of b = e_i x, and then x U_b^-1 lies in G_{i+1}.  By induction every
element of G is a product U_r ... U_1 with U_i in T_i in exactly one way,
so the products list each element once, with nothing to deduplicate; one
sort of their keys certifies it.

This module is not imported by the package's __init__, so processes that
never build a chain do not compile it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import CapExceededError, certify
from .groups import DEFAULT_CAP, _generator_array
from .keys import _absorb, _distinct, _find, _first_occurrences, _keys
from .ringmat import ModuleSpec, batch_inv

# orbit images and Schreier products are formed at most this many at a time
_BLOCK = 1 << 15


def _orbit(gens: np.ndarray, i: int, index: int, cap: int, q: int):
    """(U, edges) for the orbit of e_i under the (k, r, r) generators gens.

    U is the (n, r, r) transversal, U[0] = 1 and row i of U[b] the b-th
    orbit point, in breadth-first order: a layer's points in the order of
    their first (point, generator) pair, point-major.  edges holds the pair
    t = b * k + s of each tree edge, ascending.  index is the product of
    the orbit lengths of the levels before; CapExceededError once index
    times the points found passes cap."""
    k, r = gens.shape[:2]
    frontier = np.eye(r, dtype=np.int64)[None]
    seen = _keys(frontier[:, i], q)
    pieces, edges = [frontier], [np.zeros(0, dtype=np.int64)]
    start, count = 0, 1
    while k and len(frontier):
        layer, step = [], max(1, _BLOCK // k)
        for a in range(0, len(frontier), step):
            block = frontier[a:a + step]
            images = (block[:, None, i:i + 1] @ gens).reshape(-1, r) % q
            seen, t = _absorb(seen, _keys(images, q))
            t.sort()
            layer.append(block[t // k] @ gens[t % k] % q)
            edges.append((start + a) * k + t)
            count += len(t)
            if index * count > cap:
                raise CapExceededError("group closure", cap)
        start += len(frontier)
        frontier = np.concatenate(layer)
        pieces.append(frontier)
    return np.concatenate(pieces), np.concatenate(edges)


def _schreier(gens: np.ndarray, U: np.ndarray, edges: np.ndarray, i: int,
              q: int, bound=None) -> np.ndarray:
    """The distinct Schreier generators U_b s U_{bs}^-1 other than 1, for
    the transversal U and tree edges of _orbit(gens, i, ...), in the order
    of their first pair t = b * k + s.  The pairs are taken _BLOCK at a
    time, tree edges left out; row i of U_b s is the point bs, and its key
    finds U_{bs}^-1 among the inverses of U.

    bound = (index, cap), index the product of the orbit lengths through
    level i: when more blocks follow the first, the orbit of e_{i+1} under
    the first block's generators, part of the next basic orbit, is found
    first, so _orbit refuses as soon as index times its length passes cap
    instead of after every block is formed."""
    k, r = gens.shape[:2]
    point_keys = _keys(U[:, i], q)
    by_key = np.argsort(point_keys, kind="stable")
    sorted_points = point_keys[by_key]
    inverses = batch_inv(U, q)
    seen = _keys(np.eye(r, dtype=np.int64)[None], q)
    out = [gens[:0]]
    for t0 in range(0, len(U) * k, _BLOCK):
        pairs = np.arange(t0, min(t0 + _BLOCK, len(U) * k))
        tree = edges[(edges >= t0) & (edges < t0 + _BLOCK)]
        keep = np.ones(len(pairs), dtype=bool)
        keep[tree - t0] = False
        pairs = pairs[keep]
        us = U[pairs // k] @ gens[pairs % k] % q
        pos, hit = _find(sorted_points, _keys(us[:, i], q))
        certify(hit.all(), "orbit not closed under the generators")
        schreier = us @ inverses[by_key[pos]] % q
        seen, fresh = _absorb(seen, _keys(schreier, q))
        out.append(schreier[np.sort(fresh)])
        if bound and t0 == 0 and len(U) * k > _BLOCK:
            _orbit(out[1], i + 1, *bound, q)
    return np.concatenate(out)


@dataclass(frozen=True)
class StabChain:
    """A stabilizer chain with base e_1, ..., e_r: transversals[i] is the
    read-only (|O_i|, r, r) transversal of level i, U[0] = 1.  Build it
    with StabChain.build."""

    spec: ModuleSpec
    transversals: tuple

    @classmethod
    def build(cls, generators, spec: ModuleSpec, cap: int = DEFAULT_CAP):
        """The chain of the group the generators generate: Mat values, row
        lists or one (k, r, r) integer array, refused as close refuses them
        (_generator_array).  CapExceededError("group closure", cap) once
        the product of the orbit lengths passes cap; InternalError unless
        the stabilizer of the whole base is trivial."""
        q = spec.modulus
        gens = _generator_array(generators, spec)
        transversals, order = [], 1
        for i in range(spec.rank):
            U, edges = _orbit(gens, i, order, cap, q)
            order *= len(U)
            gens = _schreier(gens, U, edges, i, q,
                             (order, cap) if i + 1 < spec.rank else None)
            U.flags.writeable = False
            transversals.append(U)
        certify(not len(gens), "stabilizer of the base is not trivial")
        return cls(spec, tuple(transversals))

    @property
    def orbit_lengths(self) -> tuple:
        return tuple(len(U) for U in self.transversals)

    @property
    def order(self) -> int:
        """|G|, the product of the orbit lengths."""
        return prod(self.orbit_lengths)

    def elements(self) -> np.ndarray:
        """The (order, r, r) array of the products U_r ... U_1, U_i in
        transversals[i - 1], each element of the group once.

        The prefixes U_r ... U_2 are batched products.  The last level is
        the widest, one product per element, and row j of x U_1 is (row j
        of x) U_1: the prefixes' rows repeat (5,184 rows, 79 distinct, at
        GSp_4(F_3)), so each distinct row is multiplied by every U_1 once
        and the product rows are one gather from those images, with no
        batched product or reduction per element.  One _distinct of the
        keys certifies that no element appears twice."""
        q, r = self.spec.modulus, self.spec.rank
        first, *rest = self.transversals
        prefixes = np.eye(r, dtype=np.int64)[None]
        for T in reversed(rest):
            prefixes = (prefixes[:, None] @ T).reshape(-1, r, r) % q
        rows = prefixes.reshape(-1, r)
        codes = _keys(rows, q)
        distinct, at = _first_occurrences(codes)
        images = (rows[at] @ first % q).reshape(-1, r)
        gather = np.arange(len(first))[:, None] * len(at) + \
            _find(distinct, codes)[0]
        array = np.take(images, gather.ravel(), axis=0).reshape(-1, r, r)
        keys = _keys(array, q)
        certify(len(_distinct(keys)) == len(keys),
                "stabilizer chain lists an element twice")
        return array
