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

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (CapExceededError, InputError, PreconditionError,
                     certify)
from .groups import MatGroup, _primitive_root
from .ringmat import (Mat, ModuleSpec, RowSystem, _howell_rows, _planes,
                      _plane_det, _sum_of_products, is_prime)


@dataclass(frozen=True)
class SymplecticSpace:
    spec: ModuleSpec

    def __post_init__(self):
        if self.spec.rank % 2:
            raise InputError("symplectic rank must be even")

    @property
    def d(self) -> int:
        return self.spec.rank // 2

    @property
    def J(self) -> Mat:
        d, q = self.d, self.spec.modulus
        rows = [[0] * (2 * d) for _ in range(2 * d)]
        for i in range(d):
            rows[i][d + i] = 1
            rows[d + i][i] = -1
        return Mat.from_rows(rows, q)

    def pair(self, v, w) -> int:
        """<v, w> = v^T J w."""
        q = self.spec.modulus
        Jv = self.J.apply(w)
        return sum(int(a) * int(b) for a, b in zip(v, Jv)) % q


@dataclass(frozen=True)
class SimilitudeWitness:
    element: Mat
    multiplier: int


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
    return _similitude_planes(arr, space)[1]


def _similitude_planes(arr: np.ndarray, space: SymplecticSpace):
    """(planes, nu): the ringmat._planes copy of arr, entries reduced mod q,
    and similitude_multipliers(arr, space).

    From the blocks of J, S = A^T J A has S[i, j] = sum_{k<d} A[k, i]
    A[k+d, j] - A[k+d, i] A[k, j].  S and nu J are antisymmetric and S has
    a zero diagonal, so the entries above the diagonal decide S = nu J:
    nu = S[0, d], S[i, i+d] = nu and the others vanish.  Each entry is one
    sum of 2d products below (q-1)^2, so the rank check keeps it in int64
    and it is reduced once."""
    spec = space.spec
    q, d, m = spec.modulus, space.d, spec.rank
    if m * (q - 1) ** 2 >= 2 ** 63:
        raise InputError(f"modulus {q} too large for int64 similitude "
                         f"products (rank*(q-1)^2 >= 2^63)")
    arr = np.asarray(arr, dtype=np.int64)
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
    q = space.spec.modulus
    m = space.spec.rank
    cols = []
    for j in range(m):
        e = [0] * m
        e[j] = 1
        pairing = space.pair(e, v)
        cols.append([(e[i] + c * pairing * v[i]) % q for i in range(m)])
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    return Mat.from_rows(rows, q)


def gsp4_generators(p: int):
    """Transvections along a fixed spanning set plus one similitude of
    nontrivial multiplier; at p = 3 these generate all 103680 elements."""
    spec = ModuleSpec(p, 1, 4)
    space = SymplecticSpace(spec)
    vs = []
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        vs.append(tuple(e))
    for i in range(4):
        for j in range(i + 1, 4):
            e = [0] * 4
            e[i] = 1
            e[j] = 1
            vs.append(tuple(e))
    gens = [transvection(v, 1, space) for v in vs]
    nu = _primitive_root(p)
    gens.append(Mat.from_rows([[nu, 0, 0, 0], [0, nu, 0, 0],
                               [0, 0, 1, 0], [0, 0, 0, 1]], p))
    return gens, space


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
    c3, c1 come from the multiplier's plane copy."""
    P, nu = _similitude_planes(mats, SymplecticSpace(ModuleSpec(p, 1, 4)))
    if not nu.all():
        raise PreconditionError("every matrix is a similitude")
    c3, c1 = _pairing_coefficients(P, p)
    return int((c1 != nu * c3 % p).sum())


def _pairing_coefficients(P: np.ndarray, p: int):
    """(c3, c1) of char(A) = x^4 + c3 x^3 + c2 x^2 + c1 x + c0 for every
    matrix A of the (4, 4, N) planes P, entries in [0, p): c3 = -trace and
    c1 = -(sum of the principal 3x3 minors), each minor a _plane_det on
    views of P."""
    c3 = -sum(P[i, i] for i in range(4)) % p
    e3 = sum(_plane_det([[P[a, b] for b in idx] for a in idx], p)
             for idx in itertools.combinations(range(4), 3))
    return c3, -e3 % p


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
    p = G.spec.p
    B = V.to_array() % p
    sys = RowSystem(B, p, 1)
    for g in G.generators:
        garr = g.to_array() % p
        for row in B:
            if not sys.contains((garr @ row) % p):
                return False
    return True


def projective_order(G: MatGroup) -> int:
    """|G / (G intersect scalars)|."""
    return G.order // len(G.scalar_elements())
