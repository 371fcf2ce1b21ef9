"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import hashlib
import time
from math import gcd

import numpy as np
import pytest

from corpus import M, small_oracle_groups, twist_corpus
import oracles
from h1loc.cohomology import (class_order, h1_loc,
                              satisfies_local_conditions, sizes)
from h1loc.counterexample import build, family_matrix, verify
from h1loc.criteria import (fixed_point_free_criterion,
                            sylow_normalizer_criterion)
from h1loc.errors import PreconditionError
from h1loc.groups import MatGroup, decompose_generators, element_order
from h1loc.oracles import cocycle_counts
from h1loc.ringmat import ModuleSpec, is_prime, kernel
from h1loc.symplectic import eigenvalue_pairing_sweep, gsp4_generators, \
    gsp4_order


@pytest.fixture(scope="module")
def gsp4_f3():
    t0 = time.monotonic()
    gens, _ = gsp4_generators(3)
    G = MatGroup.close(gens, ModuleSpec(3, 1, 4), cap=200_000)
    return G, time.monotonic() - t0


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_family_reproduction():
    for p in (5, 11):
        t0 = time.monotonic()
        inst = build(p)
        rep = verify(inst)
        elapsed = time.monotonic() - t0
        q = p * p
        ok = rep.all_passed
        ok &= bool(rep.h1_loc_factors)
        ok &= class_order(inst.Z) == p
        # witness uniqueness up to the kernel pM: solution sets are exactly
        # (1,1) + pM and (-1,0) + pM
        for (a, b), target in (((1, 1), (1, 1)), ((2, 1), (p - 1, 0))):
            h = family_matrix(p, a, b)
            B = h.minus_identity()
            flag, wits = satisfies_local_conditions(inst.Z)
            w = wits[h.key()]
            ok &= flag and tuple(x % p for x in w) == target
            ker = kernel(B, inst.spec)
            ker_span = oracles.span_enumerate(ker, q)
            ok &= ker_span == {(p * x % q, p * y % q)
                               for x in range(p) for y in range(p)}
        ok &= elapsed < 10.0
        _report(f"criterion 1 (family at p={p})", ok,
                f"H1_loc={rep.h1_loc_factors}, {elapsed:.1f}s")


def test_criterion_2_gsp4_f3_order(gsp4_f3):
    G, elapsed = gsp4_f3
    ok = G.order == 103680 == gsp4_order(3) and elapsed < 60.0
    _report("criterion 2 (GSp4(F3) closure = 103680)", ok,
            f"order={G.order}, {elapsed:.1f}s")


def test_criterion_3_eigenvalue_pairing(gsp4_f3):
    G, _ = gsp4_f3
    failures = eigenvalue_pairing_sweep(G.element_array(), 3)
    # the multiplier is onto the units over the full group
    J = np.zeros((4, 4), dtype=np.int64)
    J[0, 2] = J[1, 3] = 1
    J[2, 0] = J[3, 1] = -1
    arr = G.element_array()
    nus = np.einsum("nji,jk,nkl->nil", arr, J % 3, arr) % 3
    assert set(np.unique(nus[:, 0, 2]).tolist()) == {1, 2}
    rng = np.random.default_rng(31415)
    gens5, _ = gsp4_generators(5)
    garr = [g.to_array() for g in gens5]
    sample = []
    for _ in range(1000):
        acc = np.eye(4, dtype=np.int64)
        for j in rng.integers(0, len(garr), size=14):
            acc = acc @ garr[j] % 5
        sample.append(acc)
    failures5 = eigenvalue_pairing_sweep(np.stack(sample), 5)
    ok = failures == 0 and failures5 == 0
    _report("criterion 3 (eigenvalue pairing, exact)", ok,
            f"F3 failures={failures}, F5 sample failures={failures5}")


def test_criterion_4_bruteforce_oracle_equivalence():
    groups = small_oracle_groups()
    seen = set()
    mism = []
    for label, G in groups:
        assert G.order <= 30, label
        assert G.spec.size <= 625, label
        fast = sizes(G)
        brute = cocycle_counts(G)
        if fast != brute:
            mism.append((label, fast, brute))
        seen.add((G.spec.p, G.spec.n))
    ok = (len(groups) >= 20 and not mism and
          {(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)} <= seen)
    _report("criterion 4 (brute-force oracle equivalence)", ok,
            f"{len(groups)} groups, mismatches={mism}")


def test_criterion_5_criterion_soundness_sweep():
    corpus = twist_corpus()
    certified = 0
    false_certs = []
    nonvanishing_bad_order = 0
    orders_seen = set()
    for label, p, g, G in corpus:
        orders_seen.add(element_order(g))
        rep = sylow_normalizer_criterion(G)
        if rep.certified:
            certified += 1
            if not h1_loc(G).is_trivial:
                false_certs.append(("sylow", label))
        Q = G.reduce_mod(1)
        rep2 = fixed_point_free_criterion(Q, G)
        if rep2.certified:
            certified += 1
            if not h1_loc(G).is_trivial:
                false_certs.append(("mod-p", label))
        tw_order = element_order(g)
        if (p - 1) % tw_order != 0 and not h1_loc(G).is_trivial:
            nonvanishing_bad_order += 1
    ok = (len(corpus) >= 100 and not false_certs and certified >= 10 and
          nonvanishing_bad_order >= 1 and len(orders_seen) >= 4)
    _report("criterion 5 (criterion soundness sweep)", ok,
            f"{len(corpus)} groups, {certified} certifications, "
            f"false={false_certs}, nonvanishing-with-bad-order="
            f"{nonvanishing_bad_order}")


def _decomposition_instances():
    out = []
    # mod p: diagonal twists against unipotent families
    for p in (3, 5, 7, 13):
        pairs = [(a, b) for a in range(1, p) for b in range(1, p)][:8]
        for a, b in pairs:
            spec = ModuleSpec(p, 1, 2)
            out.append((M([[a, 0], [0, b]], p),
                        MatGroup.close([M([[1, 1], [0, 1]], p)], spec)))
    # rank 4: block-diagonal twist against an off-block shear
    for p in (5, 7):
        spec = ModuleSpec(p, 1, 4)
        e13 = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        out.append((M([[2, 0, 0, 0], [0, 2, 0, 0],
                       [0, 0, 3, 0], [0, 0, 0, 3]], p),
                    MatGroup.close([M(e13, p)], spec)))
    # mod p: Heisenberg with a torus twist (non-abelian H)
    for p in (3, 5, 7):
        spec = ModuleSpec(p, 1, 3)
        H = MatGroup.close([M([[1, 1, 0], [0, 1, 0], [0, 0, 1]], p),
                            M([[1, 0, 0], [0, 1, 1], [0, 0, 1]], p)], spec)
        for a, b, c in [(2, 1, 1), (1, 2, 1), (2, 2, 1)]:
            out.append((M([[a, 0, 0], [0, b, 0], [0, 0, c]], p), H))
    # mod p^2: twists of order dividing p-1 against kernel subgroups
    for p in (5, 7):
        q = p * p
        spec = ModuleSpec(p, 2, 2)
        d23 = M([[2, 0], [0, 3]], q).pow(p)
        d21 = M([[2, 0], [0, 1]], q).pow(p)
        fams = [
            MatGroup.close([M([[1, p], [0, 1]], q)], spec),
            MatGroup.close([M([[1, p], [0, 1]], q),
                            M([[1, 0], [p, 1]], q)], spec),
            MatGroup.close([M([[1, 1], [0, 1]], q)], spec),  # cyclic p^2
        ]
        for g in (d23, d21):
            for H in fams:
                out.append((g, H))
    # order-3 twist against the structured family at p = 1 mod 3
    for p in (7, 13):
        q = p * p
        spec = ModuleSpec(p, 2, 2)
        H = MatGroup.close([family_matrix(p, 1, 0), family_matrix(p, 0, 1)],
                           spec)
        from h1loc.counterexample import twist_matrix
        out.append((twist_matrix(p), H))
    return out


def test_criterion_6_constructive_decomposition():
    instances = _decomposition_instances()
    good = 0
    for g, H in instances:
        dec = decompose_generators(g, H)
        regen = MatGroup.close([h for h, _ in dec.pairs], H.spec) \
            if dec.pairs else MatGroup.close([], H.spec)
        assert {m.key() for m in regen.elements} == \
            {m.key() for m in H.elements}
        gi = g.inv()
        for h, lam in dec.pairs:
            assert g.mul(h).mul(gi).key() == h.pow(lam).key()
        good += 1
    # violating instances report the failed hypothesis
    spec = ModuleSpec(5, 1, 2)
    H = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    violations = 0
    with pytest.raises(PreconditionError, match="order of g"):
        decompose_generators(M([[1, 1], [0, 1]], 5), H)
    violations += 1
    with pytest.raises(PreconditionError, match="p-group"):
        decompose_generators(M([[2, 0], [0, 1]], 5),
                             MatGroup.close([M([[2, 0], [0, 2]], 5)], spec))
    violations += 1
    ok = good >= 50 and violations == 2
    _report("criterion 6 (constructive decomposition)", ok,
            f"{good} instances, {violations} violations reported")


def test_decomposition_outputs_frozen():
    # sha256 of the (h.entries, lambda) lists of every instance: a change
    # of the generators, their order or their exponents shows here
    pairs = [[(h.entries, lam) for h, lam in decompose_generators(g, H).pairs]
             for g, H in _decomposition_instances()]
    assert len(pairs) == 53
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "a0f454df6a676c8138685e19c417bf1cd925c7b43aa8f6fcbbd73e85be6c7218"


def test_criterion_7_torsion_isomorphism_sweep():
    from h1loc.cohomology import torsion_isomorphism_check
    hits = 0
    bad = []
    for label, p, g, G in twist_corpus():
        delta = next((x for x in G.elements
                      if gcd(x.minus_identity().det(), G.spec.modulus) == 1),
                     None)
        if delta is None:
            continue
        rep = torsion_isomorphism_check(G, delta)
        if not rep.ok:
            bad.append(label)
        hits += 1
    ok = hits >= 30 and not bad
    _report("criterion 7 (torsion isomorphism)", ok,
            f"{hits} groups with qualifying delta, failures={bad}")


def test_criterion_8_cyclic_vanishing_and_inclusion():
    checked = 0
    cache = {}
    corpus8 = [(label, G) for label, G in small_oracle_groups()] + \
        [(label, G) for label, p, g, G in twist_corpus() if G.order <= 500]
    for label, G in corpus8:
        seen = set()
        for x in G.elements:
            C = MatGroup.close([x], G.spec)
            key = (G.spec, frozenset(m.key() for m in C.elements))
            if key in seen:
                continue
            seen.add(key)
            if key not in cache:
                cache[key] = h1_loc(C).is_trivial
            assert cache[key], (label, x.entries)
            checked += 1
    # inclusion H1_loc <= H1, representative-wise, across the full corpus
    for label, p, g, G in twist_corpus():
        loc = h1_loc(G)
        for f, Z in zip(loc.structure.invariant_factors,
                        loc.representatives):
            ok_flag, _ = satisfies_local_conditions(Z)
            assert ok_flag and class_order(Z) == f, label
    _report("criterion 8 (cyclic vanishing + inclusion)", True,
            f"{checked} distinct cyclic subgroups")


def test_criterion_9_gcd_identity():
    bad = []
    for p in [x for x in range(2, 51) if is_prime(x)]:
        for l in range(1, 9):
            lhs = gcd((p ** l - 1) // (p - 1), p - 1)
            rhs = gcd(l, p - 1)
            if lhs != rhs:
                bad.append((p, l, lhs, rhs))
    _report("criterion 9 (gcd identity)", not bad, f"violations={bad}")
