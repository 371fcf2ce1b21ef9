"""Element orders, inverses, coset orders, the p-elements and the cyclic
class walk from the prime power maps, against the matrix-powering references
they replaced."""

import numpy as np
from hypothesis import given, settings, strategies as st

from corpus import (byte_key_group, semisimple_groups, small_oracle_groups,
                    twist_corpus)
import oracles
from h1loc.errors import CapExceededError
from h1loc.groups import (MatGroup, _factor, _semisimple_parts, coset_orders,
                          element_order, p_sylow)
from h1loc.ringmat import Mat, ModuleSpec, batch_inv
from h1loc.symplectic import gsp4_generators


def _fresh(G):
    """G closed again, with every lazy cache empty."""
    return MatGroup.close(G.generators, G.spec)


def _trivial_groups():
    spec = ModuleSpec(5, 2, 2)
    return [MatGroup.close([], spec),
            MatGroup.close([Mat.identity(2, 25)], spec)]


def _groups():
    """(label, group): the twist corpus and its mod-p images, the small
    oracle groups, the byte-key group and two trivial groups."""
    out = []
    for label, _p, _g, G in twist_corpus():
        out += [(label, _fresh(G)),
                (label + " mod p", _fresh(G.reduce_mod(1)))]
    out += [(label, _fresh(G)) for label, G in small_oracle_groups()]
    out.append(("rank-4 byte keys", byte_key_group()))
    out += [("trivial", G) for G in _trivial_groups()]
    return out


def _normal_and_other_subgroups(G):
    """The kernel of reduction mod p (normal), a p-Sylow and the trivial
    subgroup of G."""
    p = G.spec.p
    Q = G.reduce_mod(1)
    red = Q.lookup(G.element_array() % p)
    return [G.subgroup(red == 0), p_sylow(G), MatGroup.close([], G.spec)]


def assert_matches_references(label, G):
    q = G.spec.modulus
    maps = G.power_maps()
    assert list(maps) == list(_factor(G.order)), label
    for ell, pm in maps.items():
        assert np.array_equal(
            pm, G.lookup(oracles.reference_power(G.element_array(), ell, q))), label
    assert np.array_equal(G.orders(), oracles.reference_orders(G)), label
    assert np.array_equal(G.inverse_indices(),
                          oracles.reference_inverse_indices(G)), label
    P, e = G._p_elements()
    assert np.array_equal(P, np.flatnonzero(
        oracles.reference_p_element_mask(G))), label
    assert np.array_equal(G.spec.p ** e, G.orders()[P]), label
    assert np.array_equal(
        G.cyclic_class_representatives(),
        oracles.reference_cyclic_class_representatives(G, p_elements=True)), \
        label
    for N in _normal_and_other_subgroups(G):
        assert np.array_equal(coset_orders(G, N),
                              oracles.reference_coset_orders(G, N)), label


def test_power_maps_orders_inverses_and_class_walk_match_references():
    groups = _groups()
    assert sum(G.order == 14406 for _, G in groups) == 2
    for label, G in groups:
        assert_matches_references(label, G)


def test_trivial_group_has_empty_power_maps():
    for G in _trivial_groups():
        assert G.power_maps() == {}
        assert G.orders().tolist() == [1]
        assert G.inverse_indices().tolist() == [0]
        assert G.cyclic_class_representatives().tolist() == [0]
        assert coset_orders(G, G).tolist() == [1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_groups_match_references(data):
    p, n = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1),
                                      (2, 3), (3, 2), (5, 2)]))
    spec = ModuleSpec(p, n, 2)
    q = spec.modulus
    entries = st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
    gens = [g for g in (Mat.from_rows([flat[:2], flat[2:]], q) for flat in
                        data.draw(st.lists(entries, min_size=1, max_size=3)))
            if g.is_invertible()]
    try:
        G = MatGroup.close(gens, spec, cap=3000)
    except CapExceededError:
        return
    assert_matches_references(str(gens), G)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_batch_power_with_exponents_per_matrix(r, seed):
    """The per-matrix-exponent reference power equals Mat.pow."""
    rng = np.random.default_rng(seed)
    q = 49
    A = rng.integers(0, q, size=(12, r, r))
    k = rng.integers(0, 70, size=12)
    k[rng.integers(0, 12)] = 0
    got = oracles.reference_power(A, k, q)
    for a, e, g in zip(A, k, got):
        assert np.array_equal(g, Mat.from_array(a, q).pow(int(e)).to_array())


def test_gsp4_orders_match_iterative_element_order():
    gens, space = gsp4_generators(3)
    G = MatGroup.close(gens, space.spec)
    assert G.order == 103680
    pos = np.random.default_rng(0).choice(G.order, size=200, replace=False)
    assert G.orders()[pos].tolist() == [element_order(G.element(i))
                                        for i in pos]
    X = G.element_array()
    inv = G.inverse_indices()
    assert ((X[pos] @ X[inv[pos]]) % 3 == np.eye(4, dtype=np.int64)).all()


def test_semisimple_parts_split_every_element():
    """For every element x of the Borel and <[[2, 1], [0, 2]],
    [[1, p], [0, 1]]> groups mod 9, 27, 25 and 49, its semisimple part x_s
    from one power lies in G with order prime to p, x x_s^-1 has p-power
    order, and x and x_s commute; on the trivial groups x_s is 1.  Some
    element of each of the eight groups is not semisimple."""
    cases = semisimple_groups() + [("trivial", T) for T in _trivial_groups()]
    for label, G in cases:
        p, q = G.spec.p, G.spec.modulus
        X = G.element_array()
        S = _semisimple_parts(G, X)
        orders = G.orders()
        s_pos, u_pos = G.lookup(S), G.lookup(X @ batch_inv(S, q) % q)
        assert (s_pos >= 0).all() and (u_pos >= 0).all(), label
        assert (orders[s_pos] % p != 0).all(), label
        assert (p ** _factor(G.order).get(p, 0) % orders[u_pos] == 0).all()
        assert np.array_equal(X @ S % q, S @ X % q), label
        assert (orders[s_pos] != orders).any() == (G.order > 1), label
