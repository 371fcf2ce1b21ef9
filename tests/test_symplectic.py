"""Similitude multiplier, eigenvalue pairing, subspaces, perp."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import M
from oracles import projective_order
from h1loc.errors import CapExceededError, InputError, PreconditionError
from h1loc.groups import MatGroup
from h1loc.ringmat import Mat, ModuleSpec
from h1loc.symplectic import (SymplecticSpace, eigenvalue_pairing_check,
                              eigenvalue_pairing_sweep, gsp4_generators,
                              gsp4_order, invariant_subspaces, is_stable,
                              perp, similitude_multiplier, transvection)


def space(p, n=1, rank=4):
    return SymplecticSpace(ModuleSpec(p, n, rank))


def test_form_is_skew_and_invertible():
    sp = space(5)
    J = sp.J
    assert J.transpose().key() == J.scale(-1).key()
    assert J.is_invertible()


def test_multiplier_examples():
    sp = space(5)
    assert similitude_multiplier(Mat.identity(4, 5), sp) == 1
    A = M([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 5)
    assert similitude_multiplier(A, sp) == 2
    B = M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], 5)
    assert similitude_multiplier(B, sp) is None


def test_gsp4_order_values():
    assert gsp4_order(3) == 103680
    assert gsp4_order(5) == 37440000
    assert gsp4_order(7) == 7 ** 4 * 6 ** 3 * 8 ** 2 * 50
    for p in (2, 6, 9):
        with pytest.raises(InputError):
            gsp4_order(p)


def test_transvections_are_multiplier_one():
    for p in (3, 5, 7):
        sp = space(p)
        for v in [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1)]:
            for c in (1, 2):
                T = transvection(v, c, sp)
                assert similitude_multiplier(T, sp) == 1


def test_pairing_check_examples():
    sp7 = space(7)
    A = M([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 2]], 7)
    assert eigenvalue_pairing_check(A, sp7)
    assert eigenvalue_pairing_check(Mat.identity(4, 7), sp7)
    with pytest.raises(PreconditionError):
        eigenvalue_pairing_check(
            M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]], 7),
            sp7)


def test_pairing_sweep_random_products_p5():
    rng = np.random.default_rng(20240 + 5)
    gens, sp5 = gsp4_generators(5)
    garr = [g.to_array() for g in gens]
    mats = []
    for _ in range(1000):
        acc = np.eye(4, dtype=np.int64)
        for j in rng.integers(0, len(garr), size=12):
            acc = acc @ garr[j] % 5
        mats.append(acc)
    assert eigenvalue_pairing_sweep(np.stack(mats), 5) == 0
    # scalar check agrees with the batch on a sample
    for arr in mats[:25]:
        assert eigenvalue_pairing_check(Mat.from_array(arr, 5), sp5)


def test_multiplier_is_multiplicative():
    rng = np.random.default_rng(99)
    gens, sp = gsp4_generators(5)
    garr = [g.to_array() for g in gens]
    for _ in range(60):
        a = np.eye(4, dtype=np.int64)
        b = np.eye(4, dtype=np.int64)
        for j in rng.integers(0, len(garr), size=6):
            a = a @ garr[j] % 5
        for j in rng.integers(0, len(garr), size=6):
            b = b @ garr[j] % 5
        A, B = Mat.from_array(a, 5), Mat.from_array(b, 5)
        na, nb = similitude_multiplier(A, sp), similitude_multiplier(B, sp)
        nab = similitude_multiplier(A.mul(B), sp)
        assert nab == na * nb % 5


def test_invariant_subspace_counts_trivial_group():
    T = MatGroup.close([], ModuleSpec(3, 1, 4))
    assert len(invariant_subspaces(T, 1)) == 40
    assert len(invariant_subspaces(T, 2)) == 130
    assert len(invariant_subspaces(T, 3)) == 40


def test_invariant_subspace_block_group():
    spec = ModuleSpec(3, 1, 4)
    blocks = MatGroup.close([M([[1, 1, 0, 0], [0, 1, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]], 3),
                             M([[2, 0, 0, 0], [0, 2, 0, 0],
                                [0, 0, 1, 0], [0, 0, 0, 1]], 3)], spec)
    found = invariant_subspaces(blocks, 2)
    target = Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 3)
    assert any(s.key() == target.key() for s in found)
    for s in found:
        assert is_stable(s, blocks)


def test_invariant_subspace_cap():
    T = MatGroup.close([], ModuleSpec(11, 1, 4))
    with pytest.raises(CapExceededError):
        invariant_subspaces(T, 2)


def test_perp_examples():
    sp = space(5)
    e1 = Mat.from_rows([[1, 0, 0, 0]], 5)
    got = perp(e1, sp)
    assert got.rows == 3
    # e1 pairs to zero against e1, e2, f2 = e4
    assert is_stable(e1, MatGroup.close([], ModuleSpec(5, 1, 4)))
    assert got.entries == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    iso = Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]], 5)
    assert perp(iso, sp).entries == iso.entries  # totally isotropic: V = V^perp
    full = Mat.identity(4, 5)
    assert perp(full, sp).rows == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_perp_is_an_involution(data):
    p = data.draw(st.sampled_from([3, 5]))
    sp = space(p)
    dim = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(4)]
            for _ in range(dim)]
    from h1loc.ringmat import _howell_rows
    H = _howell_rows(np.array(rows, dtype=np.int64), p, 1)
    if H.shape[0] == 0:
        return
    V = Mat.from_rows([[int(x) for x in r] for r in H], p)
    W = perp(V, sp)
    again = perp(W, sp)
    assert again.entries == V.entries


def test_perp_equivariance():
    # if V is stable under a similitude group then so is V^perp
    spec = ModuleSpec(3, 1, 4)
    sp = space(3)
    blocks = MatGroup.close([M([[2, 0, 0, 0], [0, 1, 0, 0],
                                [0, 0, 2, 0], [0, 0, 0, 1]], 3)], spec)
    V = Mat.from_rows([[1, 0, 0, 0]], 3)
    assert is_stable(V, blocks)
    assert is_stable(perp(V, sp), blocks)


def test_projective_order():
    spec5 = ModuleSpec(5, 1, 2)
    scalars = MatGroup.close([M([[2, 0], [0, 2]], 5)], spec5)
    assert projective_order(scalars) == 1
    g = MatGroup.close([M([[1, -3], [1, -2]], 25)], ModuleSpec(5, 2, 2))
    assert projective_order(g) == 3
    spec3 = ModuleSpec(3, 1, 2)
    GL23 = MatGroup.close([M([[1, 1], [0, 1]], 3), M([[0, 1], [1, 0]], 3)],
                          spec3)
    assert GL23.order == 48 and projective_order(GL23) == 24
