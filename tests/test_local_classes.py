"""Local conditions imposed once per conjugacy class of maximal cyclic
subgroups: the cover, the representative counts, Z^1_loc against the
all-elements reference, and the layer-built coefficient array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import M, small_oracle_groups, twist_corpus
from h1loc import oracles
from h1loc.cohomology import _system
from h1loc.errors import CapExceededError
from h1loc.groups import MatGroup, _batch_power
from h1loc.ringmat import Mat, ModuleSpec


def covered_by_conjugate_powers(G):
    """Mask of the elements t s^k t^-1 over representatives s, powers k and
    all t in G, by direct conjugation by every element."""
    q = G.spec.modulus
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    covered = np.zeros(G.order, dtype=bool)
    for s in G.cyclic_class_representatives():
        o = int(G.orders()[s])
        powers = _batch_power(np.repeat(X[s][None], o, axis=0),
                              np.arange(o), q)
        conj = (((X[:, None] @ powers[None]) % q) @ Xi[:, None]) % q
        idx = G.lookup(conj.reshape(-1, G.spec.rank, G.spec.rank))
        assert (idx >= 0).all()
        covered[idx] = True
    return covered


def maximal_cyclic_class_count(G):
    """Number of conjugacy classes of maximal cyclic subgroups, from the
    sets of all cyclic subgroups."""
    q, r = G.spec.modulus, G.spec.rank
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    cyclic = {frozenset(G.lookup(_batch_power(
        np.repeat(X[s][None], o, axis=0), np.arange(o), q)).tolist())
        for s, o in enumerate(G.orders().tolist())}
    maximal = [c for c in cyclic if not any(c < d for d in cyclic)]
    classes = set()
    for c in maximal:
        conj = (((X[:, None] @ X[sorted(c)][None]) % q) @ Xi[:, None]) % q
        idx = G.lookup(conj.reshape(-1, r, r)).reshape(G.order, len(c))
        classes.add(frozenset(frozenset(row) for row in idx.tolist()))
    return len(classes)


def small_groups():
    return ([G for _, G in small_oracle_groups()]
            + [G for _, _, _, G in twist_corpus() if G.order <= 300])


def test_representatives_cover_the_group():
    for G in small_groups():
        assert covered_by_conjugate_powers(G).all()


def test_one_representative_per_class_of_maximal_cyclic_subgroups():
    for G in small_groups():
        assert len(G.cyclic_class_representatives()) == \
            maximal_cyclic_class_count(G)


def test_representative_counts_cyclic_and_dihedral():
    cyclic = MatGroup.close([M([[1, 1], [0, 1]], 25)], ModuleSpec(5, 2, 2))
    assert cyclic.order == 25
    assert cyclic.cyclic_class_representatives().tolist() == \
        [int(np.argmax(cyclic.orders()))]
    swap = M([[0, 1], [1, 0]], 7)
    spec = ModuleSpec(7, 1, 2)
    # diag(a, a^-1) with a of order n, and the swap: dihedral of order 2n
    odd = MatGroup.close([M([[2, 0], [0, 4]], 7), swap], spec)    # n = 3
    even = MatGroup.close([M([[3, 0], [0, 5]], 7), swap], spec)   # n = 6
    assert (odd.order, even.order) == (6, 12)
    # rotations, then one class of reflections (n odd) or two (n even)
    assert len(odd.cyclic_class_representatives()) == 2
    assert len(even.cyclic_class_representatives()) == 3
    assert even.orders()[even.cyclic_class_representatives()].tolist() == \
        [6, 2, 2]


def test_representative_counts_on_the_largest_corpus_groups():
    counts = {G.order: len(G.cyclic_class_representatives())
              for _, _, _, G in twist_corpus() if G.order >= 2500}
    assert counts == {2500: 84, 14406: 76}
    total = sum(len(G.cyclic_class_representatives())
                for _, _, _, G in twist_corpus())
    assert total == 1199


def test_z1loc_matches_all_elements_reference_on_twist_corpus():
    checked = 0
    for label, _p, _g, G in twist_corpus():
        if G.order > 2500:
            continue
        for j in (2, 1):
            assert np.array_equal(_system(G, j).z1loc_gens(),
                                  oracles.reference_z1loc(G, j)), (label, j)
        checked += 1
    assert checked == len(twist_corpus()) - 2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_z1loc_matches_all_elements_reference_random(data):
    p, n = data.draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (2, 2),
                                      (2, 3), (3, 2), (5, 2)]))
    spec = ModuleSpec(p, n, 2)
    q = spec.modulus
    entries = st.lists(st.integers(0, q - 1), min_size=4, max_size=4)
    gens = [g for g in (Mat.from_rows([flat[:2], flat[2:]], q) for flat in
                        data.draw(st.lists(entries, min_size=1, max_size=3)))
            if g.is_invertible()]
    try:
        G = MatGroup.close(gens, spec, cap=1500)
    except CapExceededError:
        return
    assert covered_by_conjugate_powers(G).all()
    for j in range(1, n + 1):
        assert np.array_equal(_system(G, j).z1loc_gens(),
                              oracles.reference_z1loc(G, j))


@pytest.mark.parametrize("j", [2, 1])
def test_coefficients_match_per_element_loop(j):
    groups = [G for _, G in small_oracle_groups() if G.spec.n >= j]
    groups += [G for _, _, _, G in twist_corpus()]
    for G in groups:
        assert np.array_equal(_system(G, j).C,
                              oracles.reference_coefficients(G, j))
