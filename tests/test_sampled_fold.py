"""The cocycle fold: a candidate Z^1 from the residuals of the identity's
expansion at the pairs of the first BFS layers, cut down to Z^1 by the
residuals of every later pair in its own coordinates, against the
full-stack fold oracles.reference_cocycle_basis; and the Sylow ascent over
p-elements."""

import collections
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from corpus import M, cohomology_cases, twist_corpus
import oracles
from h1loc.cohomology import (_CocycleSystem, _fold, _identity_holds,
                              _system, h1)
from h1loc.counterexample import build
from h1loc.groups import MatGroup, p_sylow
from h1loc.ringmat import ModuleSpec, RowSystem
from h1loc.symplectic import gsp4_generators


def family_cases():
    """(label, group, j): the family's G and H at p = 5, 11, 17."""
    out = []
    for p in (5, 11, 17):
        inst = build(p)
        out += [(f"family p={p} {name} j={j}", G, j)
                for name, G in (("G", inst.G2), ("H", inst.H2))
                for j in (1, 2)]
    return out


def kernel(basis, p, j):
    return RowSystem(basis.T, p, j).kernel()


def in_z1(sys, K):
    """Whether every row of K is in Z^1: the residuals of its expansion
    vanish at every pair, the pairs at the identity comparing the
    expansion with K's generator values."""
    return _identity_holds(sys.G, sys._values(K), sys._blocks(K), sys.q)


def test_sampled_fold_matches_full_stack():
    cases = cohomology_cases() + family_cases()
    assert len(cases) == 280
    for label, G, j in cases:
        sys = _system(G, j)
        ref = oracles.reference_cocycle_basis(G, j)
        assert np.array_equal(sys.cocycle_basis(), ref), label
        assert np.array_equal(sys.z1_gens(), kernel(ref, sys.p, j)), label
        loc = _fold(ref, oracles.reference_local_constraints(G, j), sys.p, j)
        assert np.array_equal(sys.z1loc_gens(), kernel(loc, sys.p, j)), label


def test_cohomology_bases_frozen():
    """cocycle_basis, z1_gens, z1loc_gens and b1_gens on the 280 cases,
    hashed in order, as the full-stack fold gave them."""
    digest = hashlib.sha256()
    for _label, G, j in cohomology_cases() + family_cases():
        sys = _system(G, j)
        for a in (sys.cocycle_basis(), sys.z1_gens(), sys.z1loc_gens(),
                  sys.b1_gens()):
            digest.update(repr(a.shape).encode())
            digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert digest.hexdigest() == \
        "d94fdb658d3cee105aaaf5afa6ef7891aac410382065f68b7bcd0905c415022f"


@pytest.mark.parametrize("p, n, gens, checks", [
    # the relator u^128 = 1 sits at the last position, outside the
    # candidate's first 64 elements, where every pair is a tree edge: the
    # candidate is everything, and the check at the later pairs cuts it
    (2, 7, [[[1, 1], [0, 1]]], [False]),
    # 2048 elements: the candidate from the first 66 is cut the same way
    (2, 7, [[[1, 2], [0, 1]], [[3, 0], [0, 3]]], [False]),
    # N < 64: the candidate takes every pair, and K is never expanded
    (5, 2, [[[1, 1], [0, 1]]], []),
])
def test_failed_sample_is_refined(monkeypatch, p, n, gens, checks):
    """checks lists whether the residuals of the later pairs all vanished,
    once per check of the candidate; each check expands K once."""
    seen, expanded = [], []
    fold, values = _CocycleSystem._residual_basis, _CocycleSystem._values

    def record_fold(self, V, Vg, start, stop):
        basis = fold(self, V, Vg, start, stop)
        if start:
            seen.append(not len(basis))
        return basis

    def record_values(self, K, stop=None):
        expanded.append(len(K))
        return values(self, K, stop)

    monkeypatch.setattr(_CocycleSystem, "_residual_basis", record_fold)
    monkeypatch.setattr(_CocycleSystem, "_values", record_values)
    G = MatGroup.close([M(g, p ** n) for g in gens], ModuleSpec(p, n, 2))
    sys = _system(G, n)
    ref = oracles.reference_cocycle_basis(G, n)
    assert np.array_equal(sys.cocycle_basis(), ref)
    assert seen == checks
    # the identity's expansion, then K's once per check
    assert len(expanded) == 1 + len(checks)
    assert np.array_equal(sys.z1_gens(), kernel(ref, p, n))


def test_certified_kernel_is_kept_as_z1_gens():
    """On <u> mod 7^3 every residual of the later pairs vanishes, since
    1 + u + ... + u^342 = 0 mod 343: the candidate K is Z^1 and is kept."""
    G = MatGroup.close([M([[1, 1], [0, 1]], 343)], ModuleSpec(7, 3, 2))
    sys = _system(G, 3)
    basis, K, cut, rows = sys._z1()
    assert K is not None and not len(cut) and rows is None
    assert sys.z1_gens() is K and sys.cocycle_basis() is basis
    assert np.array_equal(K, kernel(basis, 7, 3))
    assert np.array_equal(basis, oracles.reference_cocycle_basis(G, 3))


def _fresh(label):
    """The twist-corpus group labelled label, closed again, so that no
    cohomology of it is cached yet."""
    G = next(G for name, _p, _g, G in twist_corpus() if name == label)
    return MatGroup.close(G.generators, G.spec)


@pytest.mark.parametrize("label, walks, cuts, later", [
    # 25 elements: the candidate takes every pair, and the local rows are
    # read off the identity's expansion
    ("p5 g=id H=H2", 1, 0, False),
    # 375 elements: the local rows are read off K's expansion, the walk
    # that checks the later pairs; these leave K whole, the local rows cut
    # it
    ("p5 g=order3 H=pE12", 2, 1, False),
    # 343 elements: the later pairs and the local rows both cut K, and
    # one _cut takes them together
    ("p7 g=unipotent H=h(1,0)", 2, 1, True),
])
def test_h1loc_walks_once_per_expansion(monkeypatch, label, walks, cuts,
                                        later):
    """h1loc_structure() on a fresh system walks _values once per
    expansion it needs, and cuts K at most once; later says whether the
    later pairs cut K."""
    calls = collections.Counter()
    values, cut = _CocycleSystem._values, _CocycleSystem._cut

    def count_values(self, K, stop=None):
        calls["_values"] += 1
        return values(self, K, stop)

    def count_cut(self, K, rows):
        calls["_cut"] += 1
        return cut(self, K, rows)

    monkeypatch.setattr(_CocycleSystem, "_values", count_values)
    monkeypatch.setattr(_CocycleSystem, "_cut", count_cut)
    G = _fresh(label)
    sys = _system(G, 2)
    sys.h1loc_structure()
    assert (calls["_values"], calls["_cut"]) == (walks, cuts)
    monkeypatch.undo()
    _basis, K, cut_rows, rows = sys._z1(local=True)
    assert (K is None) == (walks == 1)
    assert rows.any() and bool(len(cut_rows)) == later
    ref = oracles.reference_cocycle_basis(G, 2)
    loc = _fold(ref, oracles.reference_local_constraints(G, 2), sys.p, 2)
    assert np.array_equal(sys.z1loc_gens(), kernel(loc, sys.p, 2))


def test_in_z1_compares_the_generator_values():
    """The second copy of u labels no closure-tree edge, so a value put on
    it alone expands to the zero cocycle: it passes Z_1 = 0 and the
    identity, and only the comparison with its generator value rejects
    it."""
    u = M([[1, 1], [0, 1]], 25)
    G = MatGroup.close([u, u], ModuleSpec(5, 2, 2))
    sys = _system(G, 2)
    assert in_z1(sys, sys.z1_gens())
    z = np.array([[0, 0, 1, 0]], dtype=np.int64)
    assert sys.expand(z)[0].is_valid() and sys.expand(z)[0].is_zero()
    assert not in_z1(sys, z)
    assert not in_z1(sys, np.vstack([sys.z1_gens(), z]))


def test_in_z1_rejects_non_cocycles():
    G = MatGroup.close([M([[1, 1], [0, 1]], 128)], ModuleSpec(2, 7, 2))
    sys = _system(G, 7)
    # (0, 1) at u: Z_{u^128} = (1 + u + ... + u^127)(0, 1) = (64, 0), not
    # Z_1 = 0
    assert not in_z1(sys, np.array([[0, 1]], dtype=np.int64))
    assert in_z1(sys, sys.z1_gens())
    assert in_z1(sys, np.zeros((0, 2), dtype=np.int64))


def test_gsp4_h1_trivial_with_full_stack_basis():
    """GSp_4(F_3), 103,680 elements on 11 generators: the candidate's
    basis hashes to the value the full stack of 4,561,920 rows gave, and
    H^1 after the closure peaks at no more than 60 MB of traced memory
    (the coefficient array C alone would be 146 MB)."""
    gens, space = gsp4_generators(3)
    G = MatGroup.close(gens, space.spec)
    tracemalloc.start()
    try:
        assert h1(G).is_trivial
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2 ** 20
    basis = _system(G).cocycle_basis()
    assert basis.shape == (40, 44)
    assert hashlib.sha256(np.ascontiguousarray(
        basis, dtype=np.int64).tobytes()).hexdigest() == \
        "5837ab50b67efabf7ffa19da679476de95e8f9ba39ab64eed35084834ad4b9c3"


def test_p_sylow_generators_frozen():
    """The Sylow ascent over p-element positions picks the generators the
    ascent over all positions picked, on the whole twist corpus."""
    gens = [[list(map(list, g.entries)) for g in p_sylow(G).generators]
            for _label, _p, _g, G in twist_corpus()]
    assert sum(map(len, gens)) == 204
    assert hashlib.sha256(json.dumps(gens).encode()).hexdigest() == \
        "4a2d771f39f074256803a46bb6f2a0ef366e88b798d1a693a7acff9e26925f80"
