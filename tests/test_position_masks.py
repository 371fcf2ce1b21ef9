"""The vanishing criteria on boolean masks over a group's element positions
against the normalizer subgroup and key-set search they replaced, the Mat
lists they must not build, subgroups closed from positions, the batched
determinant and multiplier, and the lazy group caches under threads."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import M, small_oracle_groups, twist_corpus
import oracles
from h1loc.errors import InputError
from h1loc.cohomology import _system, h1_loc
from h1loc.criteria import (_qualifying_search, fixed_point_free_criterion,
                            sylow_normalizer_criterion)
from h1loc.groups import (MatGroup, _normalizer_mask, element_order,
                          normalizer, p_sylow)
from h1loc.ringmat import Mat, ModuleSpec, batch_det
from h1loc.symplectic import (SymplecticSpace, gsp4_generators,
                              similitude_multiplier, similitude_multipliers)


def _fresh(G):
    """G closed again, with every lazy cache empty."""
    return MatGroup.close(G.generators, G.spec)


def _same_group(A, B):
    return (A.generators == B.generators
            and np.array_equal(A.element_array(), B.element_array()))


def _search_agrees(found, ref):
    if ref is None:
        return found is None
    return (found is not None and found[0] == ref
            and found[1] == element_order(ref))


def _brute_normalizer(G, H):
    """Mask of the x in G with x h x^-1 in H for every element h of H (not
    only the generators), one block of elements x at a time."""
    q, r = G.spec.modulus, G.spec.rank
    X, Hel = G.element_array(), H.element_array()
    Xi = X[G.inverse_indices()]
    step = max(1, 2 ** 16 // H.order)
    out = []
    for s in range(0, G.order, step):
        conj = (((X[s:s + step, None] @ Hel[None]) % q)
                @ Xi[s:s + step, None]) % q
        out.append((H.lookup(conj.reshape(-1, r, r)) >= 0)
                   .reshape(len(conj), H.order).all(axis=1))
    return np.concatenate(out)


def test_normalizer_mask_and_search_match_references_on_twist_corpus():
    for label, p, _, G in twist_corpus():
        H = p_sylow(G)
        # the subgroup the twist acts on, and G itself, have generators
        # whose own normalizers differ from that of the group they generate
        others = [MatGroup.close(G.generators[1:], G.spec), G]
        for K in [H] + others:
            mask = _normalizer_mask(G, K)
            N = normalizer(G, K)
            assert np.array_equal(mask, N.lookup(G.element_array()) >= 0), \
                label
            assert int(mask.sum()) == N.order, label
            assert _same_group(G.subgroup(mask), N), label
            if G.order * K.order <= 2 * 10 ** 5:
                assert np.array_equal(mask, _brute_normalizer(G, K)), label
        mask = _normalizer_mask(G, H)
        keys = {x.key() for x in normalizer(G, H).elements}
        assert _search_agrees(_qualifying_search(mask, G, p),
                              oracles.reference_qualifying_search(keys, G, p)
                              ), label
        Q = G.reduce_mod(1)
        assert _search_agrees(
            _qualifying_search(np.ones(Q.order, dtype=bool), Q, p),
            oracles.reference_qualifying_search(
                {x.key() for x in Q.elements}, Q, p)), label


def test_qualifying_search_past_a_masked_first_hit():
    """The search against the key-set reference on masks that leave out
    its first hit over the whole group, and then every element of that
    hit's order, so the next hit has another order among the divisors of
    p - 1: on every fourth twist-corpus group and its mod-p image, and on
    GL_2(F_5)."""
    groups = [(p, H) for _, p, _, G in twist_corpus()[::4]
              for H in (G, G.reduce_mod(1))]
    groups.append((5, MatGroup.close([M([[2, 0], [0, 1]], 5),
                                      M([[4, 1], [4, 0]], 5)],
                                     ModuleSpec(5, 1, 2))))
    compared, order_changed = 0, 0
    for p, G in groups:
        found = _qualifying_search(np.ones(G.order, dtype=bool), G, p)
        if found is None:
            continue
        first = G.index_of(found[0])
        for mask in (np.arange(G.order) != first, G.orders() != found[1]):
            keys = {G.elements[i].key() for i in np.flatnonzero(mask)}
            got = _qualifying_search(mask, G, p)
            assert _search_agrees(
                got, oracles.reference_qualifying_search(keys, G, p)), p
            compared += 1
            order_changed += got is not None and got[1] != found[1]
    assert (compared, order_changed) == (58, 22)


def test_subgroup_from_positions_equals_from_elements():
    # the reduction kernel and the mod-p Sylow preimage, as the lift of a
    # qualifying element builds them
    for label, p, _, G in twist_corpus()[::5]:
        Q = G.reduce_mod(1)
        HQ = p_sylow(Q)
        red = Q.lookup(G.element_array() % p)
        for mask in (red == 0, (HQ.lookup(Q.element_array()) >= 0)[red]):
            ref = MatGroup.from_elements(
                [G.elements[i] for i in np.flatnonzero(mask)], G.spec)
            assert _same_group(G.subgroup(mask), ref), label


def test_criteria_build_no_mat_element_lists(monkeypatch):
    groups = {label: G for label, _, _, G in twist_corpus()}
    picks = ["p5 g=diag23 H=H2", "p7 g=order3 H=p-sl2", "p5 g=order3 H=H2",
             "p7 g=unipotent H=pE12"]
    expected = {}
    for label in picks:
        G = groups[label]
        expected[label] = [sylow_normalizer_criterion(G).lines(),
                           fixed_point_free_criterion(G.reduce_mod(1),
                                                      G).lines()]

    def refuse(*args, **kwargs):
        raise AssertionError("a criterion built a Mat element list")

    monkeypatch.setattr(MatGroup, "elements", property(refuse))
    monkeypatch.setattr(MatGroup, "from_elements", classmethod(refuse))
    for label in picks:
        G = _fresh(groups[label])
        got = [sylow_normalizer_criterion(G).lines(),
               fixed_point_free_criterion(G.reduce_mod(1), G).lines()]
        assert got == expected[label], label


def test_lazy_caches_fill_once_across_threads():
    G0 = next(G for label, _, _, G in twist_corpus() if G.order == 2500)
    G = _fresh(G0)

    def accessors(grp):
        system = _system(grp)
        return [grp.elements, grp.power_maps(), grp.orders(),
                grp.inverse_indices(), grp.cyclic_class_representatives(),
                system, system.cocycle_basis(), system.z1_gens(),
                system.b1_gens(), system.z1loc_gens()]

    results = [None] * 4
    barrier = threading.Barrier(4)

    def work(t):
        barrier.wait()
        results[t] = accessors(G)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    # one fill per cache: every thread holds the very same objects
    for got in results[1:]:
        assert all(a is b for a, b in zip(got, results[0]))
    ref = accessors(_fresh(G0))
    assert results[0][0] == ref[0]
    maps, ref_maps = results[0][1], ref[1]
    assert list(maps) == list(ref_maps)
    assert all(np.array_equal(maps[ell], ref_maps[ell]) for ell in ref_maps)
    for a, b in zip(results[0][2:5] + results[0][6:], ref[2:5] + ref[6:]):
        assert np.array_equal(a, b)
    assert h1_loc(G).structure == h1_loc(G0).structure


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 1), (3, 2), (5, 1), (7, 2), (2, 31), (3, 19)]),
       st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_batch_det_matches_mat_det(pn, r, seed, singular):
    p, n = pn
    q = p ** n
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, size=(8, r, r))
    if singular:
        A[:, -1] = (A[:, 0] * p ** rng.integers(0, n + 1)) % q
    got = batch_det(A, q)
    assert got.tolist() == [Mat.from_array(a, q).det() for a in A]


# the largest modulus batch_det accepts: q (q - 1) < 2^63
NEAR_INT64_BOUND = 3037000500


@pytest.mark.parametrize("q", [2 ** 31 - 1, NEAR_INT64_BOUND])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_batch_det_laplace_matches_leibniz(r, q):
    """Every rank 1 to 5, at 2^31 - 1 and at the int64 bound, on random,
    singular and worst-case (every entry q - 1) matrices."""
    rng = np.random.default_rng(r)
    A = rng.integers(0, q, size=(40, r, r))
    A[:10, -1] = A[:10, 0] if r > 1 else 0    # singular
    A[10] = q - 1
    A[11] = np.eye(r, dtype=np.int64) * (q - 1)
    A[12] = np.eye(r, dtype=np.int64)[::-1]
    got = batch_det(A, q)
    assert got.tolist() == oracles.reference_batch_det(A, q).tolist()
    assert (got[:10] == 0).all()
    assert got[11] == pow(q - 1, r, q)
    assert got[12] == (-1) ** (r * (r - 1) // 2) % q
    assert batch_det(A[:2], q).tolist() == [Mat.from_array(a, q).det()
                                            for a in A[:2]]
    with pytest.raises(InputError):
        batch_det(A[:1], NEAR_INT64_BOUND + 1)


def test_batch_det_on_gsp4_f3_matches_leibniz():
    gens, space = gsp4_generators(3)
    X = MatGroup.close(gens, space.spec).element_array()
    assert np.array_equal(batch_det(X, 3), oracles.reference_batch_det(X, 3))


def _reference_multiplier(A: Mat, space):
    """nu with A^T J A = nu J for a unit nu, or 0, with Mat products."""
    S = A.transpose().mul(space.J).mul(A)
    nu = S.entries[0][space.d]
    unit = np.gcd(nu, space.spec.modulus) == 1
    return nu if unit and S.key() == space.J.scale(nu).key() else 0


def test_similitude_multipliers_match_mat_products():
    gens, space = gsp4_generators(3)
    G = MatGroup.close([gens[-1], gens[0], gens[4]], space.spec)
    rng = np.random.default_rng(0)
    mats = [G.element(i) for i in range(G.order)] + [
        Mat.from_array(a, 3) for a in rng.integers(0, 3, size=(40, 4, 4))]
    arr = np.stack([m.to_array() for m in mats])
    assert similitude_multipliers(arr, space).tolist() == [
        _reference_multiplier(m, space) for m in mats]
    for label, G in small_oracle_groups():
        if G.spec.n == 1:
            sp = SymplecticSpace(G.spec)
            assert similitude_multipliers(G.element_array(), sp).tolist() == [
                _reference_multiplier(x, sp) for x in G.elements], label
    # in rank 2, A^T J A = det(A) J: a similitude needs a unit determinant
    sp = SymplecticSpace(ModuleSpec(5, 2, 2))
    arr = np.stack([M(rows, 25).to_array() for rows in
                    ([[1, 5], [0, 1]], [[5, 0], [0, 1]], [[2, 0], [0, 3]])])
    assert similitude_multipliers(arr, sp).tolist() == [1, 0, 6]


def test_large_moduli_are_refused_not_wrapped():
    # 4 (p-1)^2 < 2^63 here: the largest entries still give exact products
    p = 1518499999
    space = SymplecticSpace(ModuleSpec(p, 1, 4))
    a, b = p - 1, p - 2
    A = M([[a, 0, 0, 0], [0, a, 0, 0], [0, 0, b, 0], [0, 0, 0, b]], p)
    assert similitude_multiplier(A, space) == a * b % p
    assert similitude_multiplier(A, space) == _reference_multiplier(A, space)
    assert batch_det(A.to_array()[None], p).tolist() == [A.det()]
    # past the bound the int64 products could wrap: refused, not answered
    p = 2 ** 31 - 1
    space = SymplecticSpace(ModuleSpec(p, 1, 4))
    A = M([[p - 1, 0, 0, 0], [0, p - 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], p)
    with pytest.raises(InputError):
        similitude_multiplier(A, space)
    with pytest.raises(InputError):
        similitude_multipliers(A.to_array()[None], space)
    q = 2 ** 32 + 15
    with pytest.raises(InputError):
        batch_det(np.full((1, 2, 2), q - 1, dtype=np.int64), q)
