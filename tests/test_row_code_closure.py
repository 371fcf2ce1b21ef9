"""MatGroup.close on row codes against the reference closure
(oracles.reference_closure, batched matmuls and a dict of entry bytes):
the same element array, tree, BFS layers, sorted keys and key positions, on groups where the row table is never
built, built mid-closure and built for the last step only; and batch_det
against the Leibniz reference on the same groups."""

import numpy as np
import pytest

from corpus import byte_key_group, twist_corpus
import oracles
from h1loc import groups
from h1loc.counterexample import build
from h1loc.errors import CapExceededError
from h1loc.groups import MatGroup, _keys
from h1loc.ringmat import Mat, ModuleSpec, batch_det
from h1loc.symplectic import gsp4_generators


@pytest.fixture
def tables(monkeypatch):
    """The row tables close builds, as (generator count, q^rank) shapes."""
    built = []
    real = groups._row_table

    def spy(garr, q):
        table = real(garr, q)
        built.append(table.shape)
        return table
    monkeypatch.setattr(groups, "_row_table", spy)
    return built


def assert_same_closure(G, label=""):
    """G equals the reference closure of its generators, array for array
    and layer for layer, and batch_det agrees with the Leibniz reference on
    its elements."""
    oracles.assert_same_closure(G, label)
    q = G.spec.modulus
    X = G.element_array()
    assert np.array_equal(batch_det(X, q), oracles.reference_batch_det(X, q))


def _table_expected(G):
    """close builds the row table exactly when the closure reaches q^rank,
    which happens iff |G| >= q^rank (the last layer sees all of G)."""
    return bool(G.generators) and G.order >= G.spec.modulus ** G.spec.rank


def _mat(a, q):
    return Mat.from_array(np.asarray(a, dtype=np.int64) % q, q)


def _borel_element(rng, q, r, units):
    """A random upper triangular r x r matrix mod q with diagonal entries
    drawn from units."""
    a = np.triu(rng.integers(0, q, size=(r, r)), 1)
    a[np.diag_indices(r)] = rng.choice(units, size=r)
    return a


def test_gsp4_f3_matches_reference(tables):
    gens, space = gsp4_generators(3)
    G = MatGroup.close(gens, space.spec)
    assert G.order == 103680
    assert tables == [(len(gens), 81)]
    assert_same_closure(G, "GSp4(F3)")


def test_twist_corpus_and_mod_p_images_match_reference(tables):
    for label, _p, _g, G in twist_corpus():
        for H in (G, G.reduce_mod(1)):
            del tables[:]
            H = MatGroup.close(H.generators, H.spec)
            assert (len(tables) == 1) == _table_expected(H), label
            assert_same_closure(H, label)


@pytest.mark.parametrize("p", [5, 11, 17])
def test_family_groups_match_reference(p):
    inst = build(p)
    for G in (inst.H2, inst.G2):
        assert_same_closure(G, f"family p={p}")


def test_byte_key_group_matches_reference(tables):
    G = byte_key_group()
    assert _keys(G.element_array(), G.spec.modulus).dtype.kind == "V"
    assert_same_closure(G, "rank-4 byte keys")
    # q^16 >= 2^63 but q^4 <= |G|: GL_2(F_17) on the first two coordinates
    # times <diag(1, 1, 1, -1)>, which builds the table
    spec = ModuleSpec(17, 1, 4)
    gens = [_mat(np.diag([3, 1, 1, 1]), 17),
            _mat([[16, 1, 0, 0], [16, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                 17),
            _mat(np.diag([1, 1, 1, 16]), 17)]
    del tables[:]
    G = MatGroup.close(gens, spec)
    assert G.order == 2 * 288 * 272 and tables == [(3, 17 ** 4)]
    assert _keys(G.element_array(), 17).dtype.kind == "V"
    assert_same_closure(G, "rank-4 byte keys with table")


@pytest.mark.parametrize("seed", range(6))
def test_random_rank3_mod8_match_reference(seed, tables):
    """Subgroups of the upper triangular group mod 8 on three random
    generators, of orders 256 to 1024: most pass 8^3 = 512 elements part
    way and build the table there, seed 3 reaches exactly 512."""
    rng = np.random.default_rng(seed)
    spec = ModuleSpec(2, 3, 3)
    gens = [_mat(_borel_element(rng, 8, 3, [1, 3, 5, 7]), 8)
            for _ in range(3)]
    G = MatGroup.close(gens, spec)
    assert (len(tables) == 1) == _table_expected(G)
    assert_same_closure(G, f"mod 8 seed {seed}")


@pytest.mark.parametrize("seed", range(3))
def test_random_rank3_mod49_match_reference(seed, tables):
    """Random upper triangular groups mod 49 with diagonal entries +-1:
    the table is built once 49^3 = 117649 elements are reached, past which
    the closure either ends or overflows the cap at the same layer as the
    reference."""
    rng = np.random.default_rng(100 + seed)
    spec = ModuleSpec(7, 2, 3)
    gens = [_mat(_borel_element(rng, 49, 3, [1, 48]), 49) for _ in range(2)]
    cap = 240_000
    try:
        G = MatGroup.close(gens, spec, cap=cap)
    except CapExceededError:
        assert len(tables) == 1
        with pytest.raises(CapExceededError):
            oracles.reference_closure(gens, spec, cap=cap)
        return
    assert (len(tables) == 1) == _table_expected(G)
    assert_same_closure(G, f"mod 49 seed {seed}")


def test_unipotent_mod49_builds_table_mid_closure(tables):
    """Unipotent upper triangular mod 49 (order 49^3) times <diag(1,-1,1)>:
    the BFS passes 117649 elements with layers still to come."""
    spec = ModuleSpec(7, 2, 3)
    gens = [_mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 49),
            _mat([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 49),
            _mat([[1, 0, 0], [0, 48, 0], [0, 0, 1]], 49)]
    G = MatGroup.close(gens, spec, cap=240_000)
    assert G.order == 2 * 49 ** 3 and tables == [(3, 49 ** 3)]
    assert_same_closure(G, "unipotent mod 49")


def test_rank1_near_2_31_never_builds_table(tables):
    q = 2 ** 31 - 1
    spec = ModuleSpec(q, 1, 1)
    # 7 is a primitive root mod 2^31 - 1; its power has order 1386
    g = Mat.from_rows([[pow(7, (q - 1) // 1386, q)]], q)
    G = MatGroup.close([g], spec)
    assert G.order == 1386 and tables == []
    assert_same_closure(G, "rank 1 mod 2^31 - 1")


@pytest.mark.parametrize("p, root", [(7, 3), (11, 2)])
def test_table_switch_waits_for_q_to_the_rank(p, root, tables):
    """F_p^* has p - 1 = q^rank - 1 elements, one short of the switch;
    GL_2(F_2), with 6 >= 2^2 elements, reaches it."""
    G = MatGroup.close([Mat.from_rows([[root]], p)], ModuleSpec(p, 1, 1))
    assert G.order == p - 1 and tables == []
    assert_same_closure(G, f"F_{p}^*")
    G = MatGroup.close([Mat.from_rows([[1, 1], [0, 1]], 2),
                        Mat.from_rows([[0, 1], [1, 0]], 2)],
                       ModuleSpec(2, 1, 2))
    assert G.order == 6 and tables == [(2, 4)]
    assert_same_closure(G, "GL2(F2)")


def test_trivial_group_and_identity_generator(tables):
    spec = ModuleSpec(5, 2, 2)
    for gens in ([], [Mat.identity(2, 25)], [Mat.identity(2, 25)] * 3):
        G = MatGroup.close(gens, spec)
        assert G.order == 1 and tables == []
        assert_same_closure(G, f"trivial, {len(gens)} generators")
    # an identity generator among others: it never makes a new element
    gens = [Mat.identity(2, 4), Mat.from_rows([[1, 1], [0, 1]], 4),
            Mat.from_rows([[0, 1], [1, 0]], 4)]
    G = MatGroup.close(gens, ModuleSpec(2, 2, 2))
    assert len(tables) == int(G.order >= 16)
    assert_same_closure(G, "identity among generators")


def test_cap_overflow_raises_at_the_same_layer(tables):
    """With the cap at each BFS layer boundary, and one below it, close
    raises exactly when the reference does, and otherwise agrees with it;
    the group builds its table part way."""
    spec = ModuleSpec(2, 3, 3)
    rng = np.random.default_rng(0)
    gens = [_mat(_borel_element(rng, 8, 3, [1, 3, 5, 7]), 8)
            for _ in range(3)]
    G = MatGroup.close(gens, spec)
    assert G.order == 1024 and len(tables) == 1
    depth = np.zeros(G.order, dtype=np.int64)
    for i in range(1, G.order):
        depth[i] = depth[G.tree_parent[i]] + 1
    boundaries = np.cumsum(np.bincount(depth))
    overflows = 0
    for size in boundaries:
        for cap in (int(size) - 1, int(size)):
            try:
                ref = oracles.reference_closure(gens, spec, cap=cap)
            except CapExceededError:
                overflows += 1
                with pytest.raises(CapExceededError):
                    MatGroup.close(gens, spec, cap=cap)
                continue
            assert np.array_equal(
                MatGroup.close(gens, spec, cap=cap).element_array(),
                ref.element_array())
    assert overflows == 2 * len(boundaries) - 1
