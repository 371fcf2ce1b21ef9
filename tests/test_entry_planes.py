"""The entry-plane kernels against per-matrix references: the similitude
multipliers against Mat products and Mat.det, batch_det against the
Leibniz expansion on both sides of the moduli where one reduction per
minor stops fitting in int64, and the pairing sweep's c3 and c1, and
char_poly's, against the trace and principal minors by the Leibniz
expansion, up to 1518499999, the largest prime the multiplier accepted
under its old bound.  Each kernel also runs on both sides of the int16
and int32 plane widths, against the Leibniz expansion and Python
integers, and the multipliers also at 2^31 - 1 and 3037000493.  Read-only
planes come back from _planes as a view, and the bijective-shift mask on
such a view is the one on its int64 copy."""

import itertools
import math
from math import isqrt

import numpy as np
import pytest

import oracles
from h1loc.errors import InputError
from h1loc.groups import MatGroup
from h1loc import ringmat
from h1loc.ringmat import (Mat, ModuleSpec, _bijective_shifts, _planes,
                           _sum_of_products, batch_det, batch_inv, char_poly)
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
    I_d), so their multipliers run over the powers of nu; multiplied in
    Python integers, as the entries may reach past 2^31."""
    q, m, d = space.spec.modulus, space.spec.rank, space.d
    gens = [transvection(v, 1, space).to_array()
            for v in np.eye(m, dtype=np.int64).tolist()
            + [[1] * m, [1, 0] * d]]
    gens.append(np.diag([2] * d + [1] * d))
    out = []
    for _ in range(count):
        acc = _as_python(np.eye(m, dtype=np.int64))
        for j in rng.integers(0, len(gens), size=8):
            acc = acc @ gens[j] % q
        out.append(acc.astype(np.int64))
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


def _reference_c3_c1(X: np.ndarray, p: int):
    """c3 = -trace and c1 = -(sum of the principal 3x3 minors) of the
    (N, 4, 4) matrices X mod p, each minor by the Leibniz expansion."""
    c3 = -np.trace(X, axis1=1, axis2=2) % p
    e3 = sum(oracles.reference_batch_det(X[:, idx][:, :, idx], p)
             for idx in map(list, itertools.combinations(range(4), 3)))
    return c3.tolist(), (-e3 % p).tolist()


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
        want_c3, want_c1 = _reference_c3_c1(X, p)
        assert c3.tolist() == want_c3
        assert c1.tolist() == want_c1
        cps = [char_poly(Mat.from_array(a, p), ModuleSpec(p, 1, 4))
               for a in X]
        assert [c[1] for c in cps] == want_c3
        assert [c[3] for c in cps] == want_c1
        assert eigenvalue_pairing_sweep(X, p) == 0


def test_pairing_exact_at_the_largest_accepted_prime():
    """p = 1518499999, the largest prime the multiplier accepted while it
    refused rank*(q-1)^2 >= 2^63 (it now takes every q with (q-1)^2 +
    (q-1) < 2^63); the principal 3x3 minors reach 6 (p-1)^3, past int64,
    so each is reduced as it is formed."""
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
    want_c3, want_c1 = _reference_c3_c1(X, p)
    assert c3.tolist() == want_c3
    assert c1.tolist() == want_c1
    cps = [char_poly(A, space.spec) for A in mats]
    assert [c[1] for c in cps] == want_c3
    assert [c[3] for c in cps] == want_c1


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


# moduli on both sides of each plane-width switch: int16 holds
# (q-1)^2 + (q-1) up to q = 181, int32 up to q = 46341
WIDTHS = [(169, np.int16), (181, np.int16), (191, np.int32),
          (243, np.int32), (46337, np.int32), (46349, np.int64)]


def _near_top(q: int, r: int, seed: int) -> np.ndarray:
    """60 r x r matrices mod q, the worst cases of the width rule first:
    every entry q - 1, every entry q - 1 off a diagonal of 1, entries in
    q - 3..q - 1, then random ones."""
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, size=(60, r, r))
    A[0] = q - 1
    A[1] = q - 1
    A[1][np.diag_indices(r)] = 1
    A[2:30] = q - 1 - rng.integers(0, 3, size=(28, r, r))
    return A


def _as_python(A: np.ndarray) -> np.ndarray:
    return np.asarray(A).astype(object)


@pytest.mark.parametrize("q, dtype", WIDTHS)
def test_planes_take_the_narrowest_width_of_the_modulus(q, dtype):
    assert _planes(np.zeros((2, 3, 3), dtype=np.int64), q).dtype == dtype


@pytest.mark.parametrize("q, dtype", WIDTHS)
def test_sum_of_products_exact_at_each_width(q, dtype):
    """Up to 36 signed products of entries q - 1, q - 2, q - 3 and random
    ones, against the same sums in Python integers."""
    A = _near_top(q, 6, q)
    P = _planes(A, q)
    pairs = list(itertools.product(range(6), repeat=2))
    for count in (1, 2, 7, 36):
        terms = [((-1) ** (i * j + i), P[i, j], P[j, (i + 1) % 6])
                 for i, j in pairs[:count]]
        got = _sum_of_products(terms, q)
        want = sum(s * _as_python(x) * _as_python(y)
                   for s, x, y in terms) % q
        assert got.dtype == dtype
        assert got.tolist() == want.tolist(), count


@pytest.mark.parametrize("q, dtype", WIDTHS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_det_inverse_and_shifts_exact_at_each_width(q, dtype, r):
    """batch_det against the Leibniz reference, batch_inv by x x^-1 = I in
    Python integers on every matrix with a unit determinant, and the
    bijective-shift mask against gcd(det(x - 1), q) = 1; int64 out."""
    A = _near_top(q, r, q * 10 + r)
    det = batch_det(A, q)
    want = oracles.reference_batch_det(A, q)
    assert det.dtype == np.int64 and det.tolist() == want.tolist()
    unit = np.gcd(want, q) == 1
    assert unit.sum() >= 20
    X = A[unit]
    inv = batch_inv(X, q)
    assert inv.dtype == np.int64
    assert ((inv >= 0) & (inv < q)).all()
    prods = np.einsum("nij,njk->nik", _as_python(X), _as_python(inv)) % q
    assert (prods == np.eye(r, dtype=np.int64)).all()
    shifted = oracles.reference_batch_det(A - np.eye(r, dtype=np.int64), q)
    assert _bijective_shifts(A, q).tolist() == \
        (np.gcd(shifted, q) == 1).tolist()


# the primes 2^31 - 1 and 3037000493, the largest below the int64 bound
# (q-1)^2 + (q-1) < 2^63, which the similitude code shares with _planes
@pytest.mark.parametrize("q", [q for q, _ in WIDTHS]
                         + [2 ** 31 - 1, 3037000493])
def test_similitude_multipliers_exact_at_each_width(q):
    """Similitudes, their multiples by q - 1 (the same multiplier, entries
    near q - 1), -I and the all-(q-1) matrix, which is no similitude."""
    p = min(ringmat._factor(q))
    space = SymplecticSpace(ModuleSpec(p, round(math.log(q, p)), 4))
    sims = _similitudes(space, np.random.default_rng(q), 20)
    mats = np.stack(sims + [(q - 1) * s % q for s in sims]
                    + [np.eye(4, dtype=np.int64) * (q - 1),
                       np.full((4, 4), q - 1)])
    got = similitude_multipliers(mats, space)
    want = [_reference_multiplier(Mat.from_array(a, q), space) for a in mats]
    assert got.dtype == np.int64 and got.tolist() == want
    assert want[-2] == 1 and want[-1] == 0


def _reference_char_poly(A: np.ndarray, p: int) -> tuple:
    """(1, c_{m-1}, ..., c_0) of A mod p from the principal minors, each by
    the Leibniz reference, summed in Python integers."""
    m = len(A)
    return (1,) + tuple(
        (-1) ** k * sum(int(oracles.reference_batch_det(
            A[np.ix_(rows, rows)][None], p)[0])
            for rows in map(list, itertools.combinations(range(m), k))) % p
        for k in range(1, m + 1))


@pytest.mark.parametrize("p", [181, 191, 46337, 46349])
def test_char_poly_exact_at_each_width(p):
    for A in _near_top(p, 4, p)[:6]:
        assert char_poly(Mat.from_array(A, p), ModuleSpec(p, 1, 4)) == \
            _reference_char_poly(A, p)


def test_char_poly_principal_minor_sums_stay_bounded():
    """At rank 10 and p = 181 (int16 planes) each principal 5x5 minor of
    -I plus a strictly upper triangular part is -1 = 180, and their sum
    252 * 180 = 45,360 is past the int16 maximum: char_poly must still be
    (x + 1)^10."""
    p, m = 181, 10
    rng = np.random.default_rng(10)
    A = np.triu(rng.integers(0, p, size=(m, m)), 1) + (p - 1) * np.eye(
        m, dtype=np.int64)
    assert char_poly(Mat.from_array(A, p), ModuleSpec(p, 1, m)) == \
        tuple(math.comb(m, k) % p for k in range(m + 1))


def _read_only_planes(q: int, seed: int) -> np.ndarray:
    """Read-only (3, 3, 500) planes in the _entry_dtype of q, entries in
    [0, q), as StabChain.planes() hands them out."""
    rng = np.random.default_rng(seed)
    P = rng.integers(0, q, size=(3, 3, 500)).astype(ringmat._entry_dtype(q))
    P.flags.writeable = False
    return P


@pytest.mark.parametrize("q", [7, 191, 46349])
def test_planes_of_read_only_planes_are_a_view(q):
    """The transposed view of read-only planes comes back as those planes,
    with no copy; a writeable one is copied."""
    P = _read_only_planes(q, q)
    got = _planes(P.transpose(2, 0, 1), q)
    assert got.dtype == P.dtype and np.shares_memory(got, P)
    assert np.array_equal(got, P)
    writeable = P.copy()
    got = _planes(writeable.transpose(2, 0, 1), q)
    assert not np.shares_memory(got, writeable)
    assert np.array_equal(got, P) and got.flags.c_contiguous


def test_planes_of_read_only_planes_reduce_entries_outside_the_range():
    """Read-only planes with entries -1 and q are copied and reduced; read
    in another dtype or laid out otherwise, they are copied too."""
    q = 7
    P = _read_only_planes(q, 1).copy()
    P[0, 1, 3], P[2, 2, 499] = -1, q
    P.flags.writeable = False
    got = _planes(P.transpose(2, 0, 1), q)
    assert not np.shares_memory(got, P)
    assert np.array_equal(got, P % q)
    for other in (P.astype(np.int32), P.copy(order="F")):
        other.flags.writeable = False
        got = _planes(other.transpose(2, 0, 1), q)
        assert got.dtype == np.int16 and not np.shares_memory(got, other)
        assert np.array_equal(got, P % q)


@pytest.mark.parametrize("q", [7, 9, 191])
def test_bijective_shifts_on_read_only_planes(q):
    """The mask on the read-only view is the mask on its int64 copy, and
    the planes keep their entries."""
    P = _read_only_planes(q, q + 1)
    before = P.copy()
    view = P.transpose(2, 0, 1)
    mask = _bijective_shifts(view, q)
    assert mask.tolist() == _bijective_shifts(view.astype(np.int64),
                                              q).tolist()
    assert 0 < mask.sum() < len(mask)
    assert np.array_equal(P, before)


def test_planes_reduce_before_narrowing():
    """Entries at and past 2^15, 2^16 and 2^31, and negative ones, reduce
    in int64 first: a cast to int16 would wrap them before the reduction."""
    q = 181
    rng = np.random.default_rng(15)
    A = rng.integers(-2 ** 40, 2 ** 40, size=(50, 3, 3))
    A[0] = [[2 ** 15, 2 ** 15 + 1, 2 ** 16 + 5], [2 ** 31, -1, -2 ** 15],
            [-2 ** 16 - 5, 65536 * 181, 2 ** 62]]
    P = _planes(A, q)
    assert P.dtype == np.int16
    assert np.array_equal(P, A.transpose(1, 2, 0) % q)


def test_inverse_factors_each_modulus_once(monkeypatch):
    """Mat.inv at the prime 2^31 - 1 needs phi(q); trial division of q
    takes milliseconds there, so two inverses factor it at most once."""
    calls = []
    factor = ringmat._factor

    def counting_factor(n):
        calls.append(n)
        return factor(n)

    monkeypatch.setattr(ringmat, "_factor", counting_factor)
    ringmat._totient.cache_clear()
    q = 2 ** 31 - 1
    for rows in ([[3, 5], [7, 2]], [[q - 1, q - 2], [q - 3, 1]]):
        A = Mat.from_rows(rows, q)
        assert A.mul(A.inv()) == Mat.identity(2, q)
    assert len(calls) <= 1
