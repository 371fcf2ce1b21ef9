"""Stacked Howell solves and the generator-pair cocycle check against the
one-system and exhaustive paths they replaced: _howell_stack against
_howell per system, RowSystemStack against RowSystem, the local constraints
and the fixed-point spectrum against their per-element loops,
Cocycle.is_valid against oracles.reference_is_valid and the per-pair
oracle, the closure tree's BFS layers, and the packed first-occurrence sort
of MatGroup.close against np.unique."""

import numpy as np
import pytest

from corpus import M, byte_key_group, small_oracle_groups, twist_corpus
import oracles
from h1loc.cohomology import Cocycle, _system, cocycle_space
from h1loc.counterexample import build
from h1loc.criteria import fixed_point_spectrum
from h1loc.groups import MatGroup, _first_occurrences, _keys
from h1loc.ringmat import (ModuleSpec, RowSystem, RowSystemStack, _howell,
                           _howell_stack)
from h1loc.symplectic import gsp4_generators

BIG_P = 2 ** 31 - 1


def _mulmod(x, y, q):
    """x @ y mod q for an (..., R, k) and a (..., k, C) array with entries
    below q, reduced after every term so that no int64 sum wraps at q near
    2^31."""
    out = np.zeros(np.broadcast_shapes(x.shape[:-1] + (1,),
                                       y.shape[:-2] + (1, y.shape[-1])),
                   dtype=np.int64)
    for t in range(x.shape[-1]):
        out = (out + x[..., t, None] * y[..., t, None, :] % q) % q
    return out


def _random_stack(rng, p, n, size):
    """An (N, R, C) stack mod p^n with R, C <= size + 1 and systems of every
    rank 0..size, some scaled by a power of p (non-unit pivots), some all
    zero, and columns zeroed in some systems only, so a column pivots in
    some systems and is masked in others."""
    q = p ** n
    N, R, C = 24, int(rng.integers(1, size + 2)), int(rng.integers(1, size + 2))
    out = np.zeros((N, R, C), dtype=np.int64)
    for s in range(N):
        rank = s % (size + 1)
        A = _mulmod(rng.integers(0, q, size=(R, rank)),
                    rng.integers(0, q, size=(rank, C)), q)
        if s % 3 == 1 and n > 1:
            A = A * p ** int(rng.integers(1, n)) % q
        if s % 4 == 2:
            A[:, rng.integers(0, C)] = 0
        out[s] = A
    return out


def _moduli():
    cases = [(p, 1) for p in (2, 3, 5, 7)] + [(p, 2) for p in (2, 3, 5, 7)]
    return cases + [(2, 3), (BIG_P, 1)]


@pytest.mark.parametrize("p,n", _moduli())
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_howell_stack_matches_howell_per_system(p, n, size):
    q = p ** n
    rng = np.random.default_rng(1000 * size + q % 997)
    seen = {"zero": 0, "non-unit": 0, "masked": 0}
    for _ in range(4):
        S = _random_stack(rng, p, n, size)
        H, divs = _howell_stack(S, p, n)
        assert H.shape == (len(S), S.shape[2], S.shape[2])
        pivots = divs < q
        for s, A in enumerate(S):
            Hs, cols, ds = _howell(A, p, n)
            assert np.flatnonzero(pivots[s]).tolist() == cols
            assert divs[s][pivots[s]].tolist() == ds
            assert np.array_equal(H[s][pivots[s]], Hs)
            assert not H[s][~pivots[s]].any()
            seen["zero"] += not A.any()
            seen["non-unit"] += any(d > 1 for d in ds)
        seen["masked"] += int((pivots.any(axis=0)
                               & ~pivots.all(axis=0)).sum())
    assert seen["zero"] and seen["masked"]
    if n > 1:
        assert seen["non-unit"]


@pytest.mark.parametrize("p,n", _moduli())
def test_row_system_stack_matches_row_system(p, n):
    q = p ** n
    rng = np.random.default_rng(q % 1009)
    for size in (1, 3, 5):
        S = _random_stack(rng, p, n, size)
        N, R, C = S.shape
        # half the right-hand sides lie in the row span, half are random
        V = _mulmod(rng.integers(0, q, size=(N, 1, R)), S, q)[:, 0]
        V[::2] = rng.integers(0, q, size=V[::2].shape)
        stack = RowSystemStack(S, p, n)
        K, live = stack.kernels()
        sols, ok = stack.solve(V)
        for s in range(N):
            single = RowSystem(S[s], p, n)
            assert np.array_equal(K[s][live[s]], single.kernel())
            want = single.solve(V[s])
            assert ok[s] == (want is not None)
            if want is not None:
                assert np.array_equal(sols[s], want)
                assert np.array_equal(sols[s] @ S[s] % q, V[s])
        assert ok[1::2].all()


def _corpus_groups(max_order=150):
    groups = [G for _, _, _, G in twist_corpus() if G.order <= max_order]
    groups += [G for _, G in small_oracle_groups()]
    return groups + [build(5).G2]


def test_local_constraints_match_per_representative_loop():
    """The local rows in the coordinates of z1_gens() are the reference
    rows, in the stacked generator values, times z1_gens()."""
    for G in _corpus_groups(max_order=700):
        for j in range(1, G.spec.n + 1):
            sys = _system(G, j)
            got = sys.local_constraints()
            ref = oracles.reference_local_constraints(G, j)
            want = (ref.astype(object) @ sys.z1_gens().T.astype(object)
                    % sys.q).astype(np.int64)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _gsp4_subgroups():
    gens, _ = gsp4_generators(3)
    spec = ModuleSpec(3, 1, 4)
    return [MatGroup.close([gens[i] for i in sub], spec)
            for sub in ((0, 1, 2), (0, 1, 9))]


def test_fixed_point_spectrum_matches_per_element_loop():
    groups = [G for G in _corpus_groups() if G.spec.n == 1]
    groups += [G.reduce_mod(1) for _, _, _, G in twist_corpus()[::9]]
    groups += _gsp4_subgroups()
    assert max(G.order for G in groups) == 648
    flags = set()
    for G in groups:
        got = fixed_point_spectrum(G)
        assert got == oracles.reference_fixed_point_spectrum(G)
        flags.add(got[1])
    assert flags == {True, False}


def _random_cocycle(G, rng):
    Z = Cocycle(G, np.zeros((G.order, G.spec.rank), dtype=np.int64))
    for W in cocycle_space(G):
        Z = Z.add(W.scale(int(rng.integers(W.q))))
    return Z


def _changed_at(Z, i):
    vals = Z.values.copy()
    vals[i, 0] += 1
    return Cocycle(Z.group, vals, Z.module_exponent)


def _assert_verdicts_agree(Z):
    """is_valid agrees with the blocked matmul check and, on groups small
    enough for its |G|^2 Mat products, with the per-pair oracle."""
    verdict = Z.is_valid()
    assert verdict == oracles.reference_is_valid(Z)
    if Z.group.order <= 60:
        assert verdict == oracles.cocycle_identity_holds(Z)
    return verdict


def test_is_valid_matches_references_with_corrupted_values():
    rng = np.random.default_rng(11)
    for G in _corpus_groups():
        Z = _random_cocycle(G, rng)
        assert _assert_verdicts_agree(Z)
        deep = G.tree_layers()[-1][0] if G.tree_layers() else 0
        for i in (0, deep, G.order - 1):
            # a change at one element breaks the pair (x, y) for any y
            # other than 1 and x^-1, so on groups of order >= 3 always
            verdict = _assert_verdicts_agree(_changed_at(Z, i))
            assert not verdict or (i and G.order < 3)


def test_is_valid_on_trivial_group_and_identity_generator():
    """Also with a generator listed twice, and with a value changed at the
    identity or at a repeated generator, where the k * N pairs meet Z_1
    itself or read one position for two generators."""
    rng = np.random.default_rng(5)
    spec = ModuleSpec(5, 2, 2)
    trivial = MatGroup.close([], spec)
    assert trivial.tree_layers() == ()
    assert trivial.right_multiplication().shape == (0, 1)
    assert _assert_verdicts_agree(Cocycle(trivial, [[0, 0]]))
    assert not _assert_verdicts_agree(Cocycle(trivial, [[0, 5]]))
    ident = M([[1, 0], [0, 1]], 25)
    u, d = M([[1, 1], [0, 1]], 25), M([[6, 0], [0, 1]], 25)
    for gens in ([ident], [ident, u], [u, ident, d], [u, u], [u, d, u]):
        G = MatGroup.close(gens, spec)
        for Z in cocycle_space(G) + [_random_cocycle(G, rng)]:
            assert _assert_verdicts_agree(Z)
            assert not _assert_verdicts_agree(_changed_at(Z, G.order - 1)) \
                or G.order < 3
            for g in gens:
                assert not _assert_verdicts_agree(
                    _changed_at(Z, G.index_of(g)))


def test_is_valid_sees_a_break_at_the_last_generator_only():
    """Z plus a function that is zero on H = <g_1, ..., g_{k-1}> and v off
    it: constant on the cosets xH, so it keeps Z_{xg} = Z_x + x Z_g for
    every generator but the last, and only the last one's pairs can show
    that it is no cocycle."""
    rng = np.random.default_rng(7)
    broken = 0
    for G in _corpus_groups():
        if len(G.generators) < 2:
            continue
        H = MatGroup.close(G.generators[:-1], G.spec)
        off = np.ones(G.order, dtype=bool)
        off[G.lookup(H.element_array())] = False
        Z = _random_cocycle(G, rng)
        vals = Z.values.copy()
        vals[off, 0] += 1
        broken += not _assert_verdicts_agree(
            Cocycle(G, vals, Z.module_exponent))
    assert broken >= 10


def test_is_valid_on_the_family_at_p17():
    Z = build(17).Z
    assert Z.is_valid() and oracles.reference_is_valid(Z)
    for i in (0, Z.group.tree_layers()[-1][0], Z.group.order - 1):
        bad = _changed_at(Z, i)
        assert not bad.is_valid() and not oracles.reference_is_valid(bad)


def test_tree_layers_are_the_bfs_layers():
    for G in _corpus_groups() + [byte_key_group()]:
        depth = np.zeros(G.order, dtype=np.int64)
        for i in range(1, G.order):
            depth[i] = depth[G.tree_parent[i]] + 1
        # elements come in BFS order, so layer d is the run at depth d
        assert (np.diff(depth) >= 0).all()
        bounds = (np.flatnonzero(np.diff(depth)) + 1).tolist()
        assert list(G.tree_layers()) == list(zip(bounds,
                                                 bounds[1:] + [G.order]))


def test_first_occurrences_match_unique():
    rng = np.random.default_rng(5)
    cases = [rng.integers(0, 50, size=1000),
             rng.integers(0, 2 ** 40, size=300).repeat(3),
             np.array([7]), np.zeros(0, dtype=np.int64),
             # (max + 1) * n = 2^63 exactly: still packed; one more
             # overflows and takes np.unique
             np.append(rng.integers(0, 2 ** 55, size=255), 2 ** 55 - 1),
             np.append(rng.integers(0, 2 ** 55, size=255), 2 ** 55),
             _keys(byte_key_group().element_array()[[3, 1, 3, 0, 1]], 25)]
    for keys in cases:
        keys = keys if keys.dtype != np.int64 else rng.permutation(keys)
        got = _first_occurrences(keys)
        want = np.unique(keys, return_index=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
