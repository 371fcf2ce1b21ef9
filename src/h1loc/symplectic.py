"""Symplectic similitude linear algebra over F_p and Z/p^n.

The fixed skew form is J = [[0, I_d], [-I_d, 0]] in block shape; a
similitude is A with A^T J A = nu J for a unit nu (the multiplier), and
then det(A) = nu^d.  The multiplier is the linear-algebra shadow of the
cyclotomic character.

For 2d = 4 the group GSp_4(F_p) has order p^4 (p-1)^3 (p+1)^2 (p^2+1) and
the eigenvalues of any element pair up as l1, l2, nu/l1, nu/l2; the pairing
is certified through characteristic-polynomial coefficient identities,
which avoids root-finding in F_{p^4}: c0 = det = nu^2 is the determinant
certificate of the multiplier computation, and the sweep checks c1 = nu c3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (CapExceededError, InputError, PreconditionError,
                     certify)
from .groups import MatGroup, _primitive_root
from .ringmat import (Mat, ModuleSpec, RowSystem, _howell_rows, _planes,
                      _plane_det, _principal_minors, _sum_of_products,
                      is_prime, span_order)


@dataclass(frozen=True)
class SymplecticSpace:
    spec: ModuleSpec

    def __post_init__(self):
        if self.spec.rank % 2:
            raise InputError("symplectic rank must be even")

    @property
    def d(self) -> int:
        return self.spec.rank // 2

    @functools.cached_property
    def J(self) -> Mat:
        """[[0, I_d], [-I_d, 0]] mod q, built on first use and kept."""
        eye = np.eye(self.d, dtype=np.int64)
        zero = np.zeros_like(eye)
        return Mat.from_array(np.block([[zero, eye], [-eye, zero]]),
                              self.spec.modulus)


def similitude_multiplier(A: Mat, space: SymplecticSpace) -> Optional[int]:
    """nu with A^T J A = nu J, or None; asserts det(A) = nu^d when found."""
    if A.modulus != space.spec.modulus:
        raise InputError("matrix modulus does not match the symplectic space")
    nu = int(similitude_multipliers(A.to_array()[None], space)[0])
    return nu or None


def similitude_multipliers(arr: np.ndarray,
                           space: SymplecticSpace) -> np.ndarray:
    """The multiplier nu of every matrix A in the (N, 2d, 2d) array arr, with
    A^T J A = nu J for a unit nu, or 0 where A is not a similitude; certifies
    det(A) = nu^d at every similitude."""
    return _similitude_planes(arr, space)[1].astype(np.int64)


def _similitude_planes(arr: np.ndarray, space: SymplecticSpace):
    """(planes, nu): ringmat._planes of arr, entries reduced mod q in the
    narrowest integer dtype q allows (a view of arr when arr is read-only
    transposed planes in that dtype, a copy otherwise), and
    similitude_multipliers(arr, space) in that dtype.

    From the blocks of J, S = A^T J A has S[i, j] = sum_{k<d} A[k, i]
    A[k+d, j] - A[k+d, i] A[k, j].  S and nu J are antisymmetric and S has
    a zero diagonal, so the entries above the diagonal decide S = nu J:
    nu = S[0, d], S[i, i+d] = nu and the others vanish.  Each entry is one
    _sum_of_products of 2d products below (q-1)^2, reduced when the next
    product could pass the dtype's maximum: once, at the end, for small q
    (at q = 3 the int16 sum of 2d products of at most 4 never comes near
    it).  So the one modulus bound is _planes' (_entry_dtype's): q with
    (q-1)^2 + (q-1) >= 2^63 is refused with InputError, and every smaller
    q is exact."""
    spec = space.spec
    q, d, m = spec.modulus, space.d, spec.rank
    arr = np.asarray(arr)
    if arr.shape[1:] != (m, m):
        raise InputError("matrix size does not match the symplectic space")
    P = _planes(arr, q)

    def S(i, j):
        return _sum_of_products(
            [t for k in range(d) for t in ((1, P[k, i], P[k + d, j]),
                                           (-1, P[k + d, i], P[k, j]))], q)
    nu = S(0, d)
    ok = nu % spec.p != 0
    for i, j in itertools.combinations(range(m), 2):
        if (i, j) != (0, d):
            ok &= S(i, j) == (nu if j == i + d else 0)
    nu[~ok] = 0
    nu_d = nu
    for _ in range(d - 1):
        nu_d = nu_d * nu % q
    sims = P if ok.all() else P[:, :, ok]
    certify((_plane_det(sims, q) == nu_d[ok]).all(),
            "similitude with det != nu^d (internal)")
    return P, nu


def gsp4_order(p: int) -> int:
    """|GSp_4(F_p)| = p^4 (p-1)^3 (p+1)^2 (p^2+1), for a prime p >= 3."""
    if p < 3 or not is_prime(p):
        raise InputError(f"gsp4_order requires a prime p >= 3, not {p}")
    return p ** 4 * (p - 1) ** 3 * (p + 1) ** 2 * (p * p + 1)


def transvection(v, c: int, space: SymplecticSpace) -> Mat:
    """x -> x + c <x, v> v, a symplectic transvection (multiplier 1)."""
    return Mat.from_array(_transvections([v], c, space)[0],
                          space.spec.modulus)


def _transvections(V, c: int, space: SymplecticSpace) -> np.ndarray:
    """The transvections along the rows v of V as one (k, m, m) array: as
    <x, v> = x^T J v = (J v)^T x, each is I + c v (J v)^T mod q, where
    J v = (v_2, -v_1) for the halves v_1, v_2 of v.  Its entries are
    Python ints (object dtype), exact at every q."""
    q, d = space.spec.modulus, space.d
    V = np.asarray(V, dtype=object) % q
    JV = np.concatenate([V[:, d:], -V[:, :d]], axis=1)
    outer = V[:, :, None] * JV[:, None, :]
    return (np.eye(space.spec.rank, dtype=np.int64) + c * outer) % q


def gsp4_generators(p: int):
    """Transvections along e_1..e_4 and e_i + e_j (i < j) plus one
    similitude of nontrivial multiplier, diag(nu, nu, 1, 1) for the least
    primitive root nu; at p = 3 these generate all 103680 elements."""
    space = SymplecticSpace(ModuleSpec(p, 1, 4))
    eye = np.eye(4, dtype=np.int64)
    V = np.concatenate([eye, [eye[i] + eye[j] for i, j in
                              itertools.combinations(range(4), 2)]])
    nu = _primitive_root(p)
    gens = np.concatenate([_transvections(V, 1, space),
                           np.diag([nu, nu, 1, 1])[None]])
    return [Mat.from_array(g, p) for g in gens], space


def eigenvalue_pairing_check(A: Mat, space: SymplecticSpace) -> bool:
    """The root pairing l1, l2, nu/l1, nu/l2 in coefficient form: for
    char(A) = x^4 + c3 x^3 + c2 x^2 + c1 x + c0, c0 = nu^2 and c1 = nu c3;
    eigenvalue_pairing_sweep on the one matrix A."""
    if space.spec.rank != 4 or space.spec.n != 1:
        raise InputError("pairing check is for 4x4 matrices mod p")
    if similitude_multiplier(A, space) is None:
        raise PreconditionError("A is a symplectic similitude")
    return eigenvalue_pairing_sweep(A.to_array()[None], space.spec.p) == 0


def eigenvalue_pairing_sweep(mats: np.ndarray, p: int) -> int:
    """Vectorized pairing check over a batch of 4x4 matrices mod p; returns
    the number of failures (0 expected).  Raises if a matrix in the batch is
    not a similitude; c0 = det = nu^2 is certified by the multiplier, and
    c3, c1 come from the multiplier's planes."""
    P, nu = _similitude_planes(mats, SymplecticSpace(ModuleSpec(p, 1, 4)))
    if not nu.all():
        raise PreconditionError("every matrix is a similitude")
    c3, c1 = _pairing_coefficients(P, p)
    return int((c1 != nu * c3 % p).sum())


def _pairing_coefficients(P: np.ndarray, p: int):
    """(c3, c1) of char(A) = x^4 + c3 x^3 + c2 x^2 + c1 x + c0 for every
    matrix A of the (4, 4, N) planes P, entries in [0, p): c3 = -trace and
    c1 = -(sum of the principal 3x3 minors), both ringmat._principal_minors
    on P, as char_poly takes them."""
    return (-_principal_minors(P, 1, p) % p,
            -_principal_minors(P, 3, p) % p)


def invariant_subspaces(G: MatGroup, dim: int, cap: int = 5000):
    """All G-stable subspaces of the given dimension of F_p^rank, each as a
    row-reduced basis; enumeration over reduced echelon forms, capped."""
    spec = G.spec
    if spec.n != 1:
        raise InputError("invariant subspace enumeration works mod p")
    p, m = spec.p, spec.rank
    if not 1 <= dim < m:
        raise InputError("dimension out of range")
    count = _gaussian_binomial(m, dim, p)
    if count > cap:
        raise CapExceededError(f"subspace enumeration ({count} subspaces)", cap)
    bases = (Mat.from_rows(basis, p) for basis in _echelon_bases(m, dim, p))
    return [V for V in bases if is_stable(V, G)]


def _gaussian_binomial(m: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def _echelon_bases(m: int, k: int, p: int):
    """Reduced row echelon bases of all k-dimensional subspaces of F_p^m."""
    for pivots in itertools.combinations(range(m), k):
        free_pos = []
        for r, pc in enumerate(pivots):
            for c in range(pc + 1, m):
                if c not in pivots:
                    free_pos.append((r, c))
        for vals in itertools.product(range(p), repeat=len(free_pos)):
            basis = [[0] * m for _ in range(k)]
            for r, pc in enumerate(pivots):
                basis[r][pc] = 1
            for (r, c), v in zip(free_pos, vals):
                basis[r][c] = v
            yield basis


def perp(V: Mat, space: SymplecticSpace) -> Mat:
    """V^perp = {w : <v, w> = 0 for all v in V}, basis rows in normal form.

    Subspaces are row-basis matrices; zero rows mean the zero subspace."""
    spec = space.spec
    p = spec.p
    if spec.n != 1:
        raise InputError("perp works mod p")
    m = spec.rank
    if V.rows == 0:
        return Mat.identity(m, p)
    B = V.to_array() % p
    # <v, w> = (v^T J) w; stack the linear forms v^T J over the basis rows
    forms = (B @ space.J.to_array()) % p
    ker = RowSystem(forms.T, p, 1).kernel()
    H = _howell_rows(ker, p, 1) if ker.shape[0] else \
        np.zeros((0, m), dtype=np.int64)
    out = Mat.from_rows([[int(x) for x in row] for row in H], p)
    dimV = _howell_rows(B, p, 1).shape[0]
    certify(dimV + H.shape[0] == m, "dim V + dim V^perp != 2d (internal)")
    return out


def is_stable(V: Mat, G: MatGroup) -> bool:
    """Whether g v lies in the span of the rows v of V for every generator
    g: the span does not grow when the generator images join it."""
    p = G.spec.p
    B = V.to_array() % p
    images = (B @ G.generator_array().transpose(0, 2, 1)) % p
    return span_order(B, p, 1) == span_order(
        np.concatenate([B, images.reshape(-1, B.shape[1])]), p, 1)
