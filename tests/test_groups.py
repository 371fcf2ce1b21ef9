"""Matrix-group algorithms: closure, Sylow, Frattini, decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import M, small_oracle_groups, twist_corpus
import oracles
from h1loc import groups as groups_module
from h1loc.cohomology import coboundaries, restrict
from h1loc.counterexample import family_matrix, twist_matrix
from h1loc.errors import CapExceededError, InputError, PreconditionError
from h1loc.groups import (MatGroup, _normalizer_mask, _scalar_power,
                          decompose_generators, element_order,
                          find_normalized_sylow, frattini, lift_normalizer,
                          normalizer, p_sylow, sylow_normalizer_element,
                          sylow_normalizer_mask)
from h1loc.ringmat import Mat, ModuleSpec


def keys(G):
    return {m.key() for m in G.elements}


def test_close_identity_only():
    G = MatGroup.close([Mat.identity(2, 25)], ModuleSpec(5, 2, 2))
    assert G.order == 1


def test_close_family_twist_has_order_3():
    spec = ModuleSpec(5, 2, 2)
    g = twist_matrix(5)
    assert element_order(g) == 3
    assert MatGroup.close([g], spec).order == 3


def test_close_family_p_subgroup():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)], spec)
    assert G.order == 25
    # matches direct enumeration of h(a, b)
    assert keys(G) == {family_matrix(5, a, b).key()
                       for a in range(25) for b in range(25)}


def test_close_rejects_bad_generators():
    spec = ModuleSpec(5, 2, 2)
    with pytest.raises(InputError):
        MatGroup.close([M([[5, 0], [0, 1]], 25)], spec)
    with pytest.raises(InputError):
        MatGroup.close([M([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 25)], spec)


def test_close_cap():
    spec = ModuleSpec(5, 1, 2)
    with pytest.raises(CapExceededError):
        MatGroup.close([M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)],
                       spec, cap=10)


def test_closure_deterministic_ordering():
    spec = ModuleSpec(5, 2, 2)
    gens = [twist_matrix(5), family_matrix(5, 1, 0), family_matrix(5, 0, 1)]
    G1 = MatGroup.close(gens, spec)
    G2 = MatGroup.close(gens, spec)
    assert [m.key() for m in G1.elements] == [m.key() for m in G2.elements]
    assert G1.elements[0].key() == Mat.identity(2, 25).key()


def test_element_orders():
    assert element_order(Mat.identity(2, 25)) == 1
    assert element_order(M([[2, 0], [0, 1]], 5)) == 4
    assert element_order(twist_matrix(11)) == 3


def test_p_sylow_of_family_group():
    spec = ModuleSpec(5, 2, 2)
    H2 = MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)], spec)
    G2 = MatGroup.close([twist_matrix(5)] + list(H2.generators), spec)
    S = p_sylow(G2)
    assert S.order == 25
    assert keys(S) == keys(H2)


def test_p_sylow_trivial_when_p_prime_to_order():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([twist_matrix(5)], spec)  # order 3
    assert p_sylow(G).order == 1


def test_p_sylow_mixed_group():
    # unipotent joined with diag(2,1) mod 5: Sylow of order 5
    spec = ModuleSpec(5, 1, 2)
    G = MatGroup.close([M([[1, 1], [0, 1]], 5), M([[2, 0], [0, 1]], 5)], spec)
    S = p_sylow(G)
    assert S.order == 5
    assert G.order % 5 == 0 and (G.order // 5) % 5 != 0


def test_sylow_order_is_exact_p_part_across_corpus():
    for label, G in small_oracle_groups():
        S = p_sylow(G)
        p = G.spec.p
        part = 1
        o = G.order
        while o % p == 0:
            part *= p
            o //= p
        assert S.order == part, label
        assert G.order % S.order == 0, label


def test_normalizer_of_normal_subgroup_is_whole_group():
    spec = ModuleSpec(5, 2, 2)
    H2 = MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)], spec)
    G2 = MatGroup.close([twist_matrix(5)] + list(H2.generators), spec)
    assert normalizer(G2, H2).order == G2.order
    assert normalizer(G2, G2).order == G2.order


def test_normalizer_brute_force():
    spec = ModuleSpec(3, 1, 2)
    G = MatGroup.close([M([[1, 1], [0, 1]], 3), M([[0, 1], [1, 0]], 3)], spec)
    assert G.order == 48
    H = MatGroup.close([M([[1, 1], [0, 1]], 3)], spec)
    N = normalizer(G, H)
    brute = set()
    hkeys = keys(H)
    for x in G.elements:
        xi = x.inv()
        if {x.mul(h).mul(xi).key() for h in H.elements} == hkeys:
            brute.add(x.key())
    assert keys(N) == brute
    assert N.order == 12
    with pytest.raises(InputError):
        normalizer(H, G)


def test_subgroup_of_a_group_over_another_modulus_is_refused():
    """The swap mod 25 has the entries, and so the key, of an element of
    GL2(F_5), but lives over Z/25: normalizer, restrict and lift_normalizer
    refuse it, where comparing the rank alone gave a normalizer of order 2
    (the swap's normalizer in GL2(F_5) has order 16)."""
    GL2 = MatGroup.close([M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)],
                         ModuleSpec(5, 1, 2))
    swap5 = MatGroup.close([M([[0, 1], [1, 0]], 5)], ModuleSpec(5, 1, 2))
    swap25 = MatGroup.close([M([[0, 1], [1, 0]], 25)], ModuleSpec(5, 2, 2))
    assert swap5.is_subgroup_of(GL2) and not swap25.is_subgroup_of(GL2)
    assert normalizer(GL2, swap5).order == 16
    with pytest.raises(InputError):
        normalizer(GL2, swap25)
    with pytest.raises(InputError):
        restrict(coboundaries(GL2)[0], swap25)
    with pytest.raises(PreconditionError, match="subgroups"):
        lift_normalizer(GL2, GL2, swap25, GL2.identity)


def test_lagrange_for_computed_subgroups():
    for label, G in small_oracle_groups():
        S = p_sylow(G)
        N = normalizer(G, S)
        assert G.order % S.order == 0, label
        assert G.order % N.order == 0, label
        assert S.is_subgroup_of(N), label


def _sylow_cases():
    """(label, group): the twist corpus, the small oracle groups, the
    family's G and H at p = 5, 11, 17, and GL_2(F_3) and GL_2(F_5), whose
    Sylows are not normal."""
    out = [(label, G) for label, _p, _g, G in twist_corpus()]
    out += small_oracle_groups()
    for p in (5, 11, 17):
        spec = ModuleSpec(p, 2, 2)
        H = MatGroup.close([family_matrix(p, 1, 0), family_matrix(p, 0, 1)],
                           spec)
        out += [(f"family H p={p}", H), (f"family G p={p}", MatGroup.close(
            [twist_matrix(p)] + list(H.generators), spec))]
    out.append(("GL2(F3)", MatGroup.close(
        [M([[1, 1], [0, 1]], 3), M([[0, 1], [1, 0]], 3)], ModuleSpec(3, 1, 2))))
    out.append(("GL2(F5)", MatGroup.close(
        [M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)], ModuleSpec(5, 1, 2))))
    return out


def _closed_under_products(G, P):
    """Brute force: every product of two elements at the positions P lies
    at a position in P, one block of left factors at a time."""
    q, r = G.spec.modulus, G.spec.rank
    X = G.element_array()[P]
    inside = np.zeros(G.order, dtype=bool)
    inside[P] = True
    step = max(1, 2 ** 16 // len(P))
    for s in range(0, len(P), step):
        prods = ((X[s:s + step, None] @ X[None]) % q).reshape(-1, r, r)
        pos = G.lookup(prods)
        if not ((pos >= 0).all() and inside[pos].all()):
            return False
    return True


def test_sylow_normalizer_mask_matches_the_ascent(monkeypatch):
    ascents = []

    def counted_p_sylow(G):
        ascents.append(G)
        return p_sylow(G)

    # the helper reaches p_sylow through the module, so this counts the
    # ascents it runs
    monkeypatch.setattr(groups_module, "p_sylow", counted_p_sylow)
    counted, normalizer_orders = set(), {}
    for label, G in _sylow_cases():
        before = len(ascents)
        order, mask = sylow_normalizer_mask(G)
        if len(ascents) > before:
            counted.add(label)
        normalizer_orders[label] = int(mask.sum())
        H = p_sylow(G)
        assert order == H.order, label
        assert np.array_equal(mask, _normalizer_mask(G, H)), label
        P = G._p_elements()[0]
        if label not in counted:
            # the count branch: the p-elements are the normal Sylow
            assert len(P) == H.order and mask.all(), label
            assert _closed_under_products(G, P), label
    assert not counted & {label for label, *_ in twist_corpus()}
    assert {"GL2(F3)", "GL2(F5)"} <= counted
    assert normalizer_orders["GL2(F3)"] == 12
    assert normalizer_orders["GL2(F5)"] == 80


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 200), st.integers(0, 2 ** 32 - 1))
def test_batch_power_with_one_exponent(r, k, seed):
    """_scalar_power equals the per-matrix-exponent reference and Mat.pow."""
    rng = np.random.default_rng(seed)
    q = 49
    A = rng.integers(0, q, size=(12, r, r))
    got = _scalar_power(A, k, q)
    assert np.array_equal(got, oracles.reference_power(A, np.full(12, k), q))
    for a, g in zip(A, got):
        assert np.array_equal(g, Mat.from_array(a, q).pow(k).to_array())


def test_frattini_elementary_abelian():
    spec = ModuleSpec(5, 2, 2)
    H2 = MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)], spec)
    assert frattini(H2).order == 1


def test_frattini_cyclic_p2():
    spec = ModuleSpec(5, 2, 2)
    U = MatGroup.close([M([[1, 1], [0, 1]], 25)], spec)
    assert U.order == 25
    phi = frattini(U)
    assert phi.order == 5
    assert keys(phi) == oracles.maximal_subgroup_intersection(U)


def test_frattini_trivial_group():
    G = MatGroup.close([], ModuleSpec(5, 2, 2))
    assert frattini(G).order == 1


def test_frattini_matches_maximal_subgroup_oracle():
    spec3 = ModuleSpec(3, 1, 3)
    heis = MatGroup.close([
        M([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3),
        M([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 3)], spec3)
    assert heis.order == 27
    phi = frattini(heis)
    assert keys(phi) == oracles.maximal_subgroup_intersection(heis)
    assert phi.order == 3


def _ut4(*cells):
    """Id + the sum of E_ij over the cells: 4x4 unitriangular, mod 2."""
    a = np.eye(4, dtype=np.int64)
    for i, j in cells:
        a[i, j] = 1
    return Mat.from_array(a, 2)


def test_frattini_takes_the_normal_closure_of_commutators():
    # in UT_4(F_2) the commutators of the generators give <e13, e24>, which
    # is not normal; the Frattini subgroup is <e13, e24, e14> of order 8
    spec = ModuleSpec(2, 1, 4)
    U = MatGroup.close([_ut4((0, 1)), _ut4((1, 2)), _ut4((2, 3))], spec)
    assert U.order == 64
    phi = frattini(U)
    expected = MatGroup.close([_ut4((0, 2)), _ut4((1, 3)), _ut4((0, 3))], spec)
    assert keys(phi) == keys(expected)
    assert phi.order == 8


def test_frattini_generators_frozen():
    # the generators frattini returns on the groups above, frozen so that a
    # change of the greedy reduction shows as a changed generating set
    spec = ModuleSpec(5, 2, 2)
    spec3 = ModuleSpec(3, 1, 3)

    groups = [
        (MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)],
                        spec), []),
        (MatGroup.close([M([[1, 1], [0, 1]], 25)], spec),
         [((1, 5), (0, 1))]),
        (MatGroup.close([], spec), []),
        (MatGroup.close([M([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3),
                         M([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 3)], spec3),
         [((1, 0, 1), (0, 1, 0), (0, 0, 1))]),
        (MatGroup.close([_ut4((0, 1)), _ut4((1, 2)), _ut4((2, 3))],
                        ModuleSpec(2, 1, 4)),
         [((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
          ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1)),
          ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))]),
    ]
    for H, expected in groups:
        assert [g.entries for g in frattini(H).generators] == expected


def test_frattini_rejects_non_p_group():
    spec = ModuleSpec(5, 1, 2)
    G = MatGroup.close([M([[2, 0], [0, 1]], 5)], spec)
    with pytest.raises(PreconditionError):
        frattini(G)


def test_burnside_basis_property():
    # a subset generates H iff its image generates H/phi(H): spot-check on
    # the Heisenberg group mod 3 with single elements and pairs
    spec3 = ModuleSpec(3, 1, 3)
    heis = MatGroup.close([
        M([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 3),
        M([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 3)], spec3)
    phi = frattini(heis)
    phik = keys(phi)

    def image_generates(subset):
        got = keys(MatGroup.close(list(phi.generators) + subset, spec3))
        return got == keys(heis)

    import itertools
    for a, b in itertools.combinations(heis.elements, 2):
        gen_direct = keys(MatGroup.close([a, b], spec3)) == keys(heis)
        assert gen_direct == image_generates([a, b])


def test_decompose_trivial_and_basic():
    spec = ModuleSpec(5, 1, 2)
    g = M([[2, 0], [0, 1]], 5)
    T = MatGroup.close([], spec)
    assert decompose_generators(g, T).pairs == ()
    H = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    dec = decompose_generators(g, H)
    assert len(dec.pairs) == 1
    h, lam = dec.pairs[0]
    assert g.mul(h).mul(g.inv()).key() == h.pow(lam).key()
    assert lam % 5 == 2


def test_decompose_block_example():
    # diag(2,2,3,3) conjugates I + c E13 to its (2 * 3^-1 = 4)-th power
    spec = ModuleSpec(5, 1, 4)
    g = M([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]], 5)
    e13 = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    H = MatGroup.close([M(e13, 5)], spec)
    dec = decompose_generators(g, H)
    assert len(dec.pairs) == 1
    assert dec.pairs[0][1] % 5 == 4


def test_decompose_preconditions():
    spec = ModuleSpec(5, 1, 2)
    H = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    with pytest.raises(PreconditionError, match="order of g"):
        decompose_generators(M([[1, 1], [0, 1]], 5), H)
    with pytest.raises(PreconditionError, match="p-group"):
        decompose_generators(M([[2, 0], [0, 1]], 5),
                             MatGroup.close([M([[2, 0], [0, 2]], 5)], spec))
    with pytest.raises(PreconditionError, match="normal"):
        swap_conj = M([[0, 1], [1, 0]], 5)
        decompose_generators(swap_conj, H)


def test_lift_normalizer_normal_sylow_returns_g():
    spec = ModuleSpec(5, 2, 2)
    H2 = MatGroup.close([family_matrix(5, 1, 0), family_matrix(5, 0, 1)], spec)
    G2 = MatGroup.close([twist_matrix(5)] + list(H2.generators), spec)
    g = twist_matrix(5)
    assert lift_normalizer(G2, H2, H2, g).key() == g.key()


def test_lift_normalizer_corrects_coset():
    # S3 inside GL2(F3): two 3-Sylows? no; use GL2(F3) with p = 3
    spec = ModuleSpec(3, 1, 2)
    G = MatGroup.close([M([[1, 1], [0, 1]], 3), M([[0, 1], [1, 0]], 3)], spec)
    H = MatGroup.close([M([[1, 1], [0, 1]], 3)], spec)   # a 3-Sylow
    N = G  # G/N trivial: every class normalizes HN/N
    moved = M([[1, 0], [1, 1]], 3)  # conjugates H to the lower unipotents
    out = lift_normalizer(G, N, H, moved)
    oi = out.inv()
    assert all(out.mul(h).mul(oi) in H for h in H.generators)
    # brute-force cross-check: some element of the coset moved*N normalizes H
    assert any(
        all(x.mul(h).mul(x.inv()) in H for h in H.generators)
        for x in (moved.mul(n) for n in N.elements))


def test_sylow_normalizer_element_gl2():
    spec = ModuleSpec(5, 1, 2)
    GL2 = MatGroup.close([M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)],
                         spec)
    SL2 = MatGroup.from_elements(
        [x for x in GL2.elements if x.det() == 1], spec)
    assert GL2.order // SL2.order == 4
    g, report = sylow_normalizer_element(GL2, SL2)
    assert element_order(g) == 4
    assert report["i"] == 2
    assert report["class_order"] % report["class_order_multiple_of"] == 0
    gi = g.inv()
    H = p_sylow(GL2)
    # the report certifies the normalizing property for the deterministic H
    assert all(g.mul(h).mul(gi) in H for h in H.generators)


def test_sylow_normalizer_element_precondition():
    spec = ModuleSpec(5, 1, 2)
    G = MatGroup.close([M([[2, 0], [0, 1]], 5)], spec)
    with pytest.raises(PreconditionError):
        sylow_normalizer_element(G, G)  # G/N trivial, not order p-1


def test_find_normalized_sylow_search_harness():
    spec = ModuleSpec(3, 1, 2)
    G = MatGroup.close([M([[1, 1], [0, 1]], 3), M([[0, 1], [1, 0]], 3)], spec)
    g = M([[2, 0], [0, 1]], 3)
    S = find_normalized_sylow(G, g)
    assert S is not None
    gi = g.inv()
    assert all(g.mul(h).mul(gi) in S for h in S.generators)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_order_divides_group_order(data):
    label, G = data.draw(st.sampled_from(small_oracle_groups()))
    x = data.draw(st.sampled_from(G.elements))
    assert G.order % element_order(x) == 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_decomposition_identities_random_diag(data):
    p = data.draw(st.sampled_from([5, 7, 13]))
    a = data.draw(st.integers(1, p - 1))
    b = data.draw(st.integers(1, p - 1))
    spec = ModuleSpec(p, 1, 2)
    g = M([[a, 0], [0, b]], p)
    H = MatGroup.close([M([[1, 1], [0, 1]], p)], spec)
    dec = decompose_generators(g, H)
    regen = MatGroup.close([h for h, _ in dec.pairs], spec)
    assert keys(regen) == keys(H)
    for h, lam in dec.pairs:
        assert g.mul(h).mul(g.inv()).key() == h.pow(lam).key()
