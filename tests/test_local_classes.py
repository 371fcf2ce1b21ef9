"""Local conditions imposed once per conjugacy class of maximal cyclic
p-subgroups: the cover of the p-elements, the representative counts, Z^1_loc
against the all-elements and all-classes references, and the coefficient
array and cocycle expansion walked down the closure tree.  The walk over all
elements, which took one representative per class of maximal cyclic
subgroups, stays as oracles.reference_cyclic_class_representatives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import (M, cohomology_cases, representatives_stop,
                    small_oracle_groups, twist_corpus)
from h1loc import oracles
from h1loc.cohomology import _fold, _system
from h1loc.counterexample import build
from h1loc.errors import CapExceededError
from h1loc.groups import MatGroup, _batch_power, _unit_generators
from h1loc.ringmat import Mat, ModuleSpec, RowSystem


def covered_by_conjugate_powers(G, reps):
    """Mask of the elements t s^k t^-1 over the representatives s in reps,
    powers k and all t in G, by direct conjugation by every element."""
    q = G.spec.modulus
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    covered = np.zeros(G.order, dtype=bool)
    for s in reps:
        o = int(G.orders()[s])
        powers = _batch_power(np.repeat(X[s][None], o, axis=0),
                              np.arange(o), q)
        conj = (((X[:, None] @ powers[None]) % q) @ Xi[:, None]) % q
        idx = G.lookup(conj.reshape(-1, G.spec.rank, G.spec.rank))
        assert (idx >= 0).all()
        covered[idx] = True
    return covered


def maximal_cyclic_class_count(G, p_elements=False):
    """Number of conjugacy classes of maximal cyclic subgroups, from the
    sets of all cyclic subgroups; with p_elements, of maximal cyclic
    p-subgroups, from the cyclic subgroups the p-elements generate."""
    q, r = G.spec.modulus, G.spec.rank
    X = G.element_array()
    Xi = X[G.inverse_indices()]
    walk = (oracles.reference_p_element_mask(G) if p_elements
            else np.ones(G.order, dtype=bool))
    cyclic = {frozenset(G.lookup(_batch_power(
        np.repeat(X[s][None], o, axis=0), np.arange(o), q)).tolist())
        for s, o in enumerate(G.orders().tolist()) if walk[s]}
    maximal = [c for c in cyclic if not any(c < d for d in cyclic)]
    classes = set()
    for c in maximal:
        conj = (((X[:, None] @ X[sorted(c)][None]) % q) @ Xi[:, None]) % q
        idx = G.lookup(conj.reshape(-1, r, r)).reshape(G.order, len(c))
        classes.add(frozenset(frozenset(row) for row in idx.tolist()))
    return len(classes)


def _class_walk_edge_groups():
    """(label, group): cyclic groups whose generators form one orbit only
    under every unit power (mod 2^5, which needs -1 and 5, and mod 3^3),
    a group of order 486 with elements of order 27 under a diagonal
    twist, a group with no p-element but the identity, and GL_2(F_3) and
    GL_2(F_5), whose maximal cyclic p-subgroups are conjugate."""
    u = [[1, 1], [0, 1]]
    return [
        ("<u> mod 2^5", MatGroup.close([M(u, 32)], ModuleSpec(2, 5, 2))),
        ("<u> mod 3^3", MatGroup.close([M(u, 27)], ModuleSpec(3, 3, 2))),
        ("<u, diag(2, 1)> mod 3^3", MatGroup.close(
            [M(u, 27), M([[2, 0], [0, 1]], 27)], ModuleSpec(3, 3, 2))),
        ("dihedral of order 6 over F_7", MatGroup.close(
            [M([[2, 0], [0, 4]], 7), M([[0, 1], [1, 0]], 7)],
            ModuleSpec(7, 1, 2))),
        ("GL2(F3)", MatGroup.close([M(u, 3), M([[0, 1], [1, 0]], 3)],
                                   ModuleSpec(3, 1, 2))),
        ("GL2(F5)", MatGroup.close([M([[2, 0], [0, 1]], 5),
                                    M([[4, 1], [4, 0]], 5)],
                                   ModuleSpec(5, 1, 2))),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_unit_generators_generate_the_units(p):
    for E in range(1, 6):
        q = p ** E
        gens = _unit_generators(p, E)
        assert all(1 < u < q and u % p for u in gens), (p, E)
        span, frontier = {1}, [1]
        while frontier:
            frontier = [x * u % q for x in frontier for u in gens
                        if x * u % q not in span]
            span.update(frontier)
        assert span == {u for u in range(1, q) if u % p}, (p, E)


def test_unit_generator_lifts_the_least_primitive_root_where_it_fails():
    """40487 is the least prime whose least primitive root, 5, is no
    primitive root mod p^2 (5^(p-1) = 1 mod p^2); the generator returned
    there still has the order p^(E-1) (p - 1) of the whole unit group."""
    p = 40487
    assert all(any(pow(g, (p - 1) // ell, p) == 1 for ell in (2, 31, 653))
               for g in (2, 3, 4))
    assert pow(5, p - 1, p * p) == 1
    for E in (2, 3):
        q, n = p ** E, p ** (E - 1) * (p - 1)
        [u] = _unit_generators(p, E)
        assert u % p == 5 and pow(u, n, q) == 1
        assert all(pow(u, n // ell, q) != 1 for ell in (2, 31, 653, p))


def test_p_representatives_match_the_walk_on_edge_groups():
    got = {}
    for label, G in _class_walk_edge_groups():
        reps = G.cyclic_class_representatives()
        walk = oracles.reference_cyclic_class_representatives(
            G, p_elements=True)
        assert np.array_equal(reps, walk), label
        got[label] = (G.order, G.orders()[reps].tolist())
    # one class in each cyclic group and in each GL_2(F_p), whose p-Sylows
    # have order p; the 3-group has three classes of order 27 and one of
    # order 9
    assert got == {"<u> mod 2^5": (32, [32]), "<u> mod 3^3": (27, [27]),
                   "<u, diag(2, 1)> mod 3^3": (486, [27, 27, 27, 9]),
                   "dihedral of order 6 over F_7": (6, [1]),
                   "GL2(F3)": (48, [3]), "GL2(F5)": (480, [5])}


def small_groups():
    return ([G for _, G in small_oracle_groups()]
            + [G for _, _, _, G in twist_corpus() if G.order <= 300])


def test_representatives_cover_the_group():
    for G in small_groups():
        reps = oracles.reference_cyclic_class_representatives(G)
        assert covered_by_conjugate_powers(G, reps).all()


def test_one_representative_per_class_of_maximal_cyclic_subgroups():
    for G in small_groups():
        assert len(oracles.reference_cyclic_class_representatives(G)) == \
            maximal_cyclic_class_count(G)


def test_p_representatives_cover_exactly_the_p_elements():
    for G in small_groups():
        p_mask = oracles.reference_p_element_mask(G)
        reps = G.cyclic_class_representatives()
        assert p_mask[reps].all()
        assert np.array_equal(covered_by_conjugate_powers(G, reps), p_mask)


def test_one_p_representative_per_class_of_maximal_cyclic_p_subgroups():
    for G in small_groups():
        assert len(G.cyclic_class_representatives()) == \
            maximal_cyclic_class_count(G, p_elements=True)


def test_representative_counts_cyclic_and_dihedral():
    walk = oracles.reference_cyclic_class_representatives
    cyclic = MatGroup.close([M([[1, 1], [0, 1]], 25)], ModuleSpec(5, 2, 2))
    assert cyclic.order == 25
    assert walk(cyclic).tolist() == [int(np.argmax(cyclic.orders()))]
    swap = M([[0, 1], [1, 0]], 7)
    spec = ModuleSpec(7, 1, 2)
    # diag(a, a^-1) with a of order n, and the swap: dihedral of order 2n
    odd = MatGroup.close([M([[2, 0], [0, 4]], 7), swap], spec)    # n = 3
    even = MatGroup.close([M([[3, 0], [0, 5]], 7), swap], spec)   # n = 6
    assert (odd.order, even.order) == (6, 12)
    # rotations, then one class of reflections (n odd) or two (n even)
    assert len(walk(odd)) == 2
    assert len(walk(even)) == 3
    assert even.orders()[walk(even)].tolist() == [6, 2, 2]


def test_p_representative_counts_cyclic_and_dihedral():
    cyclic = MatGroup.close([M([[1, 1], [0, 1]], 25)], ModuleSpec(5, 2, 2))
    assert cyclic.cyclic_class_representatives().tolist() == \
        [int(np.argmax(cyclic.orders()))]
    # dihedral groups over F_7 have no element of order 7: only the
    # identity is a 7-element
    swap = M([[0, 1], [1, 0]], 7)
    even = MatGroup.close([M([[3, 0], [0, 5]], 7), swap], ModuleSpec(7, 1, 2))
    assert even.cyclic_class_representatives().tolist() == [0]
    # over F_3, <[[1,1],[0,1]], diag(-1, 1)> is S_3: three reflections and
    # one maximal cyclic 3-subgroup, which the walk keeps alone
    s3 = MatGroup.close([M([[1, 1], [0, 1]], 3), M([[2, 0], [0, 1]], 3)],
                        ModuleSpec(3, 1, 2))
    assert s3.order == 6
    assert len(oracles.reference_cyclic_class_representatives(s3)) == 2
    assert s3.orders()[s3.cyclic_class_representatives()].tolist() == [3]


def test_representative_counts_on_the_largest_corpus_groups():
    walk = oracles.reference_cyclic_class_representatives
    counts = {G.order: len(walk(G))
              for _, _, _, G in twist_corpus() if G.order >= 2500}
    assert counts == {2500: 84, 14406: 76}
    total = sum(len(walk(G)) for _, _, _, G in twist_corpus())
    assert total == 1199


def test_p_representative_counts_on_the_largest_corpus_groups():
    counts = {G.order: len(G.cyclic_class_representatives())
              for _, _, _, G in twist_corpus() if G.order >= 2500}
    assert counts == {2500: 84, 14406: 76}
    total = sum(len(G.cyclic_class_representatives())
                for _, _, _, G in twist_corpus())
    assert total == 1187


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
    reps = oracles.reference_cyclic_class_representatives(G)
    assert covered_by_conjugate_powers(G, reps).all()
    assert np.array_equal(
        covered_by_conjugate_powers(G, G.cyclic_class_representatives()),
        oracles.reference_p_element_mask(G))
    for j in range(1, n + 1):
        assert np.array_equal(_system(G, j).z1loc_gens(),
                              oracles.reference_z1loc(G, j))


@pytest.mark.parametrize("j", [2, 1])
def test_coefficients_match_per_element_loop(j):
    """C as the expansion of the identity (in whole and up to a layer
    boundary), the expansion of Z^1's generators at the class
    representatives, down to the layer of the last one, and the expansion
    _values(K) of random K, against Python-int products with the
    per-element reference coefficients, on every cohomology case at j and
    the family's G and H."""
    rng = np.random.default_rng(j)
    groups = [G for _, G, i in cohomology_cases() if i == j]
    groups += [G for inst in map(build, (5, 11, 17))
               for G in (inst.G2, inst.H2)]
    for G in groups:
        sys = _system(G, j)
        ref = oracles.reference_coefficients(G, j)
        eye = np.eye(sys.dim, dtype=np.int64)
        assert np.array_equal(sys._values(eye), ref)
        for _, stop in G.tree_layers()[:2]:
            assert np.array_equal(sys._values(eye, stop), ref[:stop])
        reps, stop = representatives_stop(G)
        Z = sys.z1_gens()
        assert np.array_equal(sys._values(Z, stop)[reps],
                              (ref[reps].astype(object) @ Z.T.astype(object))
                              % sys.q)
        K = rng.integers(0, sys.q, size=(3, sys.dim))
        assert np.array_equal(sys._values(K), (ref.astype(object)
                                               @ K.T.astype(object)) % sys.q)


def test_z1loc_p_representatives_match_all_class_representatives():
    """Z^1_loc with the local conditions at the p-representatives equals
    Z^1_loc with them at one element per class of maximal cyclic
    subgroups, both from the whole cocycle stack."""
    cases = cohomology_cases()
    assert len(cases) == 268
    for label, G, j in cases:
        reps = oracles.reference_cyclic_class_representatives(G)
        basis = _fold(oracles.reference_cocycle_basis(G, j),
                      oracles.reference_local_constraints(G, j, reps),
                      G.spec.p, j)
        want = RowSystem(basis.T, G.spec.p, j).kernel()
        assert np.array_equal(_system(G, j).z1loc_gens(), want), label
