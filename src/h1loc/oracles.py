"""The brute-force cocycle counter.

cocycle_counts recomputes |Z^1|, |B^1|, |H^1| and |H^1_loc| of small
instances by direct enumeration, deliberately avoiding the Howell/kernel
machinery so the two paths stay independent.  It is the one brute-force
oracle in the package, kept for the benchmark's answer checks; the test
suite's references live in tests/oracles.py.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import certify


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
