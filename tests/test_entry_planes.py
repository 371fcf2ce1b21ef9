"""The entry-plane kernels against per-matrix references: the similitude
multipliers against Mat products and Mat.det, batch_det against the
Leibniz expansion on both sides of the moduli where one reduction per
minor stops fitting in int64, and the pairing sweep's c3 and c1 against
char_poly, up to the largest prime the multiplier accepts."""

import itertools
from math import isqrt

import numpy as np
import pytest

import oracles
from h1loc.errors import InputError
from h1loc.groups import MatGroup
from h1loc.ringmat import Mat, ModuleSpec, _planes, batch_det, char_poly
from h1loc.symplectic import (SymplecticSpace, _pairing_coefficients,
                              eigenvalue_pairing_check,
                              eigenvalue_pairing_sweep, gsp4_generators,
                              similitude_multipliers, transvection)


def _reference_multiplier(A: Mat, space: SymplecticSpace) -> int:
    """nu with A^T J A = nu J for a unit nu, or 0, by Mat.mul; at every
    similitude also det(A) = nu^d by Mat.det."""
    S = A.transpose().mul(space.J).mul(A)
    nu = S.entries[0][space.d]
    q = space.spec.modulus
    if nu % space.spec.p == 0 or S.key() != space.J.scale(nu).key():
        return 0
    assert A.det() == pow(nu, space.d, q)
    return nu


def _similitudes(space: SymplecticSpace, rng, count: int) -> list:
    """Random words in transvections and one torus similitude diag(nu I_d,
    I_d), so their multipliers run over the powers of nu."""
    q, m, d = space.spec.modulus, space.spec.rank, space.d
    gens = [transvection(v, 1, space).to_array()
            for v in np.eye(m, dtype=np.int64).tolist()
            + [[1] * m, [1, 0] * d]]
    gens.append(np.diag([2] * d + [1] * d))
    out = []
    for _ in range(count):
        acc = np.eye(m, dtype=np.int64)
        for j in rng.integers(0, len(gens), size=8):
            acc = acc @ gens[j] % q
        out.append(acc)
    return out


@pytest.mark.parametrize("p, n, d", [(5, 1, 1), (3, 2, 1), (3, 1, 2),
                                     (5, 2, 2), (7, 1, 3), (3, 2, 3)])
def test_similitude_multipliers_match_mat_reference(p, n, d):
    """Similitudes, their products with diag(p I_d, I_d) (multiplier p nu,
    not a unit), and random matrices, which are almost never similitudes."""
    space = SymplecticSpace(ModuleSpec(p, n, 2 * d))
    q, m = space.spec.modulus, 2 * d
    rng = np.random.default_rng(p * 100 + n * 10 + d)
    sims = _similitudes(space, rng, 30)
    D = np.diag([p] * d + [1] * d)
    mats = np.stack(sims + [D @ s % q for s in sims[:10]]
                    + list(rng.integers(0, q, size=(30, m, m))))
    mats = mats[rng.permutation(len(mats))]
    got = similitude_multipliers(mats, space).tolist()
    want = [_reference_multiplier(Mat.from_array(a, q), space) for a in mats]
    assert got == want
    assert sum(nu != 0 for nu in want) >= 30
    assert len({nu for nu in want if nu}) > 1


def _one_reduction_bound(r: int) -> int:
    """The least q with r (q-1)^2 > 2^63 - 1: from there a minor of r
    products no longer fits in int64 before it is reduced."""
    return isqrt((2 ** 63 - 1) // r) + 2


@pytest.mark.parametrize("r", [2, 3, 4])
def test_batch_det_on_both_sides_of_one_reduction_per_minor(r):
    bound = _one_reduction_bound(r)
    rng = np.random.default_rng(r)
    for q in (bound - 2, bound - 1, bound, bound + 1):
        A = rng.integers(0, q, size=(60, r, r))
        A[:20] = q - 1 - rng.integers(0, 3, size=(20, r, r))
        A[20] = q - 1
        A[21:25, -1] = A[21:25, 0]                      # singular
        # alternate q - 1 and 0 so the signed products of a row agree
        A[25] = (q - 1) * (np.add.outer(np.arange(r), np.arange(r)) % 2)
        got = batch_det(A, q)
        assert got.tolist() == oracles.reference_batch_det(A, q).tolist(), q
        assert (got[21:25] == 0).all()


def _borel_p5():
    """The Borel of GSp_4(F_5), 40,000 elements: transvections along e1, e2
    and e1 + e2, the Levi unipotent [[U, 0], [0, U^-T]] and three torus
    elements."""
    space = SymplecticSpace(ModuleSpec(5, 1, 4))
    gens = [transvection(v, 1, space)
            for v in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))]
    gens.append(Mat.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                               [0, 0, 1, 0], [0, 0, 4, 1]], 5))
    gens += [Mat.from_rows(np.diag(t).tolist(), 5)
             for t in ((2, 1, 3, 1), (1, 2, 1, 3), (1, 1, 2, 2))]
    return MatGroup.close(gens, space.spec)


def test_pairing_coefficients_match_char_poly():
    gens, space = gsp4_generators(3)
    B = _borel_p5()
    assert B.order == 40000
    assert similitude_multipliers(B.element_array(), SymplecticSpace(
        B.spec)).all()
    for p, G in ((3, MatGroup.close(gens, space.spec)), (5, B)):
        rng = np.random.default_rng(p)
        X = G.element_array()[rng.choice(G.order, size=500, replace=False)]
        c3, c1 = _pairing_coefficients(_planes(X, p), p)
        want = [char_poly(Mat.from_array(a, p), ModuleSpec(p, 1, 4))
                for a in X]
        assert c3.tolist() == [c[1] for c in want]
        assert c1.tolist() == [c[3] for c in want]
        assert eigenvalue_pairing_sweep(X, p) == 0


def test_pairing_exact_at_the_largest_accepted_prime():
    """4 (p-1)^2 < 2^63, so the multiplier accepts p = 1518499999; its
    principal 3x3 minors reach 6 (p-1)^3, past int64, so each is reduced
    as it is formed."""
    p = 1518499999
    space = SymplecticSpace(ModuleSpec(p, 1, 4))
    a, b, nu = p - 1, p - 2, p - 3
    D = Mat.from_rows(np.diag([a, b, nu * pow(a, -1, p) % p,
                               nu * pow(b, -1, p) % p]).tolist(), p)
    T = transvection((1, 1, 0, 1), p - 5, space)
    mats = [D, T.mul(D), D.mul(T).mul(T)]
    for A in mats:
        assert eigenvalue_pairing_check(A, space)
    X = np.stack([A.to_array() for A in mats])
    c3, c1 = _pairing_coefficients(_planes(X, p), p)
    want = [char_poly(A, space.spec) for A in mats]
    assert c3.tolist() == [c[1] for c in want]
    assert c1.tolist() == [c[3] for c in want]


@pytest.mark.parametrize("shape", [(3, 2, 2), (3, 4, 3), (3, 6, 6), (4, 4),
                                   (2, 4, 4, 1)])
def test_pairing_sweep_refuses_a_batch_not_of_4x4_matrices(shape):
    with pytest.raises(InputError):
        eigenvalue_pairing_sweep(np.zeros(shape, dtype=np.int64), 3)


def test_planes_hold_each_entry_as_one_reduced_vector():
    rng = np.random.default_rng(0)
    for r, n in itertools.product((1, 3, 4), (0, 5, 70000)):
        A = rng.integers(-20, 20, size=(n, r, r))
        P = _planes(A, 7)
        assert P.shape == (r, r, n) and P.flags.c_contiguous
        assert np.array_equal(P, A.transpose(1, 2, 0) % 7)
