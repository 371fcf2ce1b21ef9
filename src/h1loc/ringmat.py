"""Exact linear algebra over Z/p^n.

Z/p^n has zero divisors, so plain row echelon is not enough: span membership
must stay decidable.  The canonical form used throughout is a Howell-style
form for the local ring Z/p^n: pivots are powers of p, every span element
reduces to zero by back-substitution, and annihilator rows (p^(n-v) times a
pivot row) are folded in so the column filtration of the row span is exact.

All matrices are dense, entries are canonical representatives in [0, p^n),
and every operation is a pure function.  A Howell form has one layout,
indexed by pivot column: row c is the pivot row at column c, or zero where
there is none (_howell for one system, _howell_stack for a stack of them,
one canonical reduction step for both).  RowSystemStack reads kernels and
solutions off the forms of the augmented systems [M | I] with one
back-substitution, and RowSystem is the stack of one system, which also
solves several right-hand sides at once.  quotient_structure solves every
sub row in one call and diagonalizes the relations with array steps
(_smith_with_inverse).

Determinants and inverses have one routine each, on entry planes (_planes:
entry (i, j) of N matrices as one contiguous N-vector).  _plane_det, a
Laplace expansion down the rows, gives batch_det, Mat.det, the principal
minors of char_poly and the bijective-shift test; batch_inv, adj(x)
det(x)^-1 with each cofactor a _plane_det, gives Mat.inv and the group
inverses.  The planes are in the narrowest of int16, int32 and int64 that
holds (q-1)^2 + (q-1) (_entry_dtype, the bound the Howell code checks for
int64), and the plane kernels reduce against that dtype's maximum; what
leaves the module is int64.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import gcd, prod
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, certify


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 37.  It is
    exact below 318665857834031151167461, the least strong pseudoprime to
    all of them (Sorenson and Webster, Math. Comp. 86 (2017)); larger p
    raise InputError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p >= 318665857834031151167461:
        raise InputError(f"p = {p} is too large for the primality test")
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ModuleSpec:
    """The acted-on module (Z/p^n)^rank."""

    p: int
    n: int
    rank: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise InputError(f"n = {self.n} must be >= 1")
        if self.rank < 1:
            raise InputError(f"rank = {self.rank} must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.n

    @property
    def size(self) -> int:
        """Number of module elements."""
        return self.modulus ** self.rank

    def with_exponent(self, j: int) -> "ModuleSpec":
        """The torsion quotient spec (Z/p^j)^rank."""
        return ModuleSpec(self.p, j, self.rank)


@dataclass(frozen=True)
class Mat:
    """Dense matrix over Z/modulus with canonical entries in [0, modulus)."""

    entries: tuple
    modulus: int

    @classmethod
    def from_rows(cls, rows, modulus: int) -> "Mat":
        ent = tuple(tuple(int(x) % modulus for x in r) for r in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise InputError("ragged matrix rows")
        return cls(ent, modulus)

    @classmethod
    def identity(cls, size: int, modulus: int) -> "Mat":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(size))
                         for i in range(size)), modulus)

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "Mat":
        return cls(tuple((0,) * cols for _ in range(rows)), modulus)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)

    @classmethod
    def from_array(cls, arr: np.ndarray, modulus: int) -> "Mat":
        return cls(tuple(tuple(int(x) % modulus for x in row) for row in arr), modulus)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.modulus != other.modulus:
            raise InputError("dimension/modulus mismatch in matrix product")
        q = self.modulus
        a, b = self.entries, other.entries
        return Mat(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(self.cols)) % q
                  for j in range(other.cols))
            for i in range(self.rows)), q)

    def add(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.add)

    def sub(self, other: "Mat") -> "Mat":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "Mat", op) -> "Mat":
        if (self.rows, self.cols, self.modulus) != \
                (other.rows, other.cols, other.modulus):
            raise InputError("dimension/modulus mismatch in matrix sum")
        q = self.modulus
        return Mat(tuple(tuple(op(x, y) % q for x, y in zip(r, s))
                         for r, s in zip(self.entries, other.entries)), q)

    def scale(self, c: int) -> "Mat":
        q = self.modulus
        return Mat(tuple(tuple((c * x) % q for x in r) for r in self.entries), q)

    def transpose(self) -> "Mat":
        return Mat(tuple(tuple(self.entries[i][j] for i in range(self.rows))
                         for j in range(self.cols)), self.modulus)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector."""
        q = self.modulus
        if len(vec) != self.cols:
            raise InputError("vector length does not match matrix columns")
        return tuple(sum(r[k] * vec[k] for k in range(self.cols)) % q
                     for r in self.entries)

    def pow(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise InputError("power of non-square matrix")
        if k < 0:
            return self.inv().pow(-k)
        result = Mat.identity(self.rows, self.modulus)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base = base.mul(base)
            k >>= 1
        return result

    def det(self) -> int:
        """Determinant as an element of Z/modulus (batch_det; 1 for 0 x 0)."""
        if self.rows != self.cols:
            raise InputError("determinant of non-square matrix")
        if not self.rows:
            return 1 % self.modulus
        return int(batch_det([self.entries], self.modulus)[0])

    def is_invertible(self) -> bool:
        return gcd(self.det(), self.modulus) == 1

    def inv(self) -> "Mat":
        """Inverse as adj(A) det(A)^-1 (batch_inv; itself for 0 x 0)."""
        if self.rows != self.cols:
            raise InputError("inverse of non-square matrix")
        if not self.rows:
            return self
        return Mat.from_array(batch_inv([self.entries], self.modulus)[0],
                              self.modulus)

    def minus_identity(self) -> "Mat":
        return self.sub(Mat.identity(self.rows, self.modulus))

    def reduce_mod(self, modulus: int) -> "Mat":
        return Mat(tuple(tuple(x % modulus for x in r) for r in self.entries), modulus)

    def key(self) -> tuple:
        return self.entries


@dataclass(frozen=True)
class AbelianStructure:
    """A finite abelian p-group: invariant factors p^e1 >= p^e2 >= ... with
    one generator per factor (module vectors or cocycles, by context)."""

    invariant_factors: tuple
    generators: tuple

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def describe(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"C{f}" for f in self.invariant_factors)


# ---------------------------------------------------------------------------
# Howell machinery (internal, numpy rows)
# ---------------------------------------------------------------------------

def _valuation(x: int, p: int, n: int) -> int:
    if x == 0:
        return n
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@functools.lru_cache(maxsize=256)
def _entry_dtype(q: int):
    """The narrowest of int16, int32 and int64 that holds (q-1)^2 + (q-1),
    a residue plus one product of two residues mod q; InputError past
    int64 instead of wrapping around silently.  Cached per modulus; a
    refusal is not cached, so it is raised on every call."""
    q = int(q)      # a numpy integer q would wrap around in (q-1)^2
    for dtype in (np.int16, np.int32, np.int64):
        if (q - 1) ** 2 + (q - 1) <= np.iinfo(dtype).max:
            return dtype
    raise InputError(f"modulus {q} too large for int64 linear algebra "
                     f"((q-1)^2 + (q-1) >= 2^63)")


def _howell(M: np.ndarray, p: int, n: int):
    """Canonical Howell form of the row span of M, indexed by pivot column
    as _howell_stack's is for each system: (H, divs), where H[c] is the
    pivot row at column c with pivot divs[c] = p^v, and a zero row with
    divs[c] = q where there is no pivot at c.

    One step per column, vectorized across rows: the row of least
    valuation there becomes the pivot, the column is eliminated from every
    row at once (which cancels the pivot row itself mod q), and the
    pivot's annihilator row takes its slot.  The entries above each pivot
    are then reduced modulo it (_reduce_above).
    """
    q = p ** n
    _entry_dtype(q)     # refuses q where x - f * y can leave int64
    W = np.asarray(M, dtype=np.int64) % q
    W = W[W.any(axis=1)]
    C = W.shape[1]
    # W only matters modulo q, so it is reduced only when the next step
    # could leave int64: each step adds at most step to |W|
    step, bound = (q - 1) ** 2, q - 1
    # np.zeros leaves the pages of rows without a pivot untouched, so a
    # wide system costs memory by its pivot rows, not by C^2
    H = np.zeros((C, C), dtype=np.int64)
    D = np.full(C, q, dtype=np.int64)
    cols, divs = [], []
    # row operations keep initially-zero columns zero, so skip them outright
    for col in np.flatnonzero(W.any(axis=0)).tolist():
        c = W[:, col] % q
        d = gcd(int(np.gcd.reduce(c)), q)    # p^(least valuation)
        if d == q:
            continue
        f = c // d if d > 1 else c
        best = int((f % p != 0).argmax())
        piv = W[best] % q * pow(int(f[best]), -1, q) % q
        if bound > 2 ** 63 - 1 - step:
            W %= q
            bound = q - 1
        W -= f[:, None] * piv
        bound += step
        if d > 1:
            W[best] = piv * (q // d) % q
        H[col], D[col] = piv, d
        cols.append(col)
        divs.append(d)
    if len(cols) > 1:
        H[cols] = _reduce_above(H[cols], divs, cols, q)
    return H, D


def _reduce_above(P: np.ndarray, divs, cols: list, q: int) -> np.ndarray:
    """The canonical reduction of Howell rows, for one system or a stack,
    in place: P[..., i, :] is the pivot row at column cols[i] (ascending)
    with pivot divs[i], a number, or for a stack an (N, 1, 1) array that
    holds q where a system has a zero row there.  Every entry above a
    pivot is reduced modulo it, one pivot at a time from the left."""
    for i in range(1, len(cols)):
        above = P[..., :i, :]
        above -= above[..., cols[i], None] // divs[i] * P[..., i, None, :]
        above %= q
    return P


def _howell_rows(M: np.ndarray, p: int, n: int) -> np.ndarray:
    """Canonical Howell form of the row span of M; zero rows dropped."""
    H, divs = _howell(M, p, n)
    return H[divs < p ** n]


def _unit_inverses(u: np.ndarray, phi: int, q: int) -> np.ndarray:
    """u^-1 mod q = u^(phi - 1), phi = phi(q) Euler's totient, for every
    unit in u, by binary powering on the whole array; entries that are not
    units give no inverse."""
    e = phi - 1
    result = np.ones_like(u)
    base = u % q
    while e:
        if e & 1:
            result = result * base % q
        base = base * base % q
        e >>= 1
    return result


def _factor(n: int) -> dict:
    """The prime factorization {prime: exponent} of n >= 1, by trial
    division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=256)
def _totient(q: int) -> int:
    """Euler's phi(q), from _factor once per modulus."""
    phi = q
    for ell in _factor(q):
        phi -= phi // ell
    return phi


def _howell_stack(M: np.ndarray, p: int, n: int):
    """Canonical Howell forms of the row spans of the (N, R, C) stack M,
    in _howell's layout: (H, divs), where H[s], divs[s] is _howell of
    system s alone.

    The steps are _howell's, one column at a time across all N systems;
    a system whose column is zero is masked out of that step."""
    q = p ** n
    _entry_dtype(q)     # refuses q where x - f * y can leave int64
    W = np.asarray(M, dtype=np.int64) % q
    N, _, C = W.shape
    H = np.zeros((N, C, C), dtype=np.int64)
    divs = np.full((N, C), q, dtype=np.int64)
    systems = np.arange(N)
    step, bound = (q - 1) ** 2, q - 1
    pivot_cols = []
    for col in np.flatnonzero(W.any(axis=(0, 1))).tolist():
        c = W[:, :, col] % q
        d = np.gcd(np.gcd.reduce(c, axis=1), q)
        live = d < q
        if not live.any():
            continue
        # a masked system has c = 0, so f = 0: the elimination leaves it
        # alone, and only live systems take an annihilator row or a pivot
        f = c // d[:, None]
        best = (f % p != 0).argmax(axis=1)
        piv = (W[systems, best] % q
               * _unit_inverses(f[systems, best], q - q // p, q)[:, None]
               % q)
        if bound > 2 ** 63 - 1 - step:
            W %= q
            bound = q - 1
        W -= f[:, :, None] * piv[:, None, :]
        bound += step
        ann = np.flatnonzero(live & (d > 1))
        W[ann, best[ann]] = piv[ann] * (q // d[ann, None]) % q
        H[live, col] = piv[live]
        divs[live, col] = d[live]
        pivot_cols.append(col)
    H[:, pivot_cols] = _reduce_above(
        H[:, pivot_cols], divs[:, pivot_cols].T[:, :, None, None],
        pivot_cols, q)
    return H, divs


class RowSystemStack:
    """Left kernels and solutions of a @ M_s = v for every (R, C) matrix
    M_s of an (N, R, C) stack at once, from the Howell forms of the
    augmented systems [M_s | I] (_howell_stack): the rows whose pivot lies
    in I's columns generate the kernel, and back-substitution of [v | 0]
    leaves -a in I's columns."""

    def __init__(self, M: np.ndarray, p: int, n: int):
        M = np.asarray(M, dtype=np.int64)
        (N, R, self.ncols), self.q = M.shape, p ** n
        eye = np.broadcast_to(np.eye(R, dtype=np.int64), (N, R, R))
        self.H, self.divs = _howell_stack(np.concatenate([M, eye], axis=2),
                                          p, n)

    def kernels(self):
        """(K, live): the rows K[s][live[s]] generate {a : a @ M_s = 0},
        in pivot order."""
        C = self.ncols
        return self.H[:, C:, C:], self.divs[:, C:] < self.q

    @functools.cached_property
    def _steps(self) -> list:
        """(col, divs, rows) for each column of M where some system has
        a pivot, ascending: the pivots there as an (N, 1) column and the
        (N, C + R) pivot rows."""
        live = (self.divs[:, :self.ncols] < self.q).any(axis=0)
        return [(col, self.divs[:, col, None], self.H[:, col])
                for col in np.flatnonzero(live).tolist()]

    def solve(self, V: np.ndarray):
        """(A, ok) for the (N, C) right-hand sides V: A[s] @ M_s = V[s]
        wherever ok[s], and ok[s] is False where there is no solution.  A
        stack of one system broadcasts against any number of rows of V.
        Back-substitution runs one pivot column at a time across all of
        them."""
        C, q = self.ncols, self.q
        V = np.asarray(V, dtype=np.int64) % q
        w = np.zeros((len(V), self.H.shape[-1]), dtype=np.int64)
        w[:, :C] = V
        for col, d, rows in self._steps:
            w -= w[:, col, None] // d * rows
            w %= q
        # later pivot rows are zero at col, so what is left in a column of
        # M stays: the entry mod the pivot there, or all of it where the
        # system has no pivot
        return (-w[:, C:]) % q, ~w[:, :C].any(axis=1)


class RowSystem(RowSystemStack):
    """The RowSystemStack of the one matrix M, from _howell: span
    membership, solving a @ M = v for a row vector a, the left kernel of
    M, and the order of the row span.  Right-sided problems go through the
    transpose."""

    def __init__(self, M: np.ndarray, p: int, n: int):
        M = np.asarray(M, dtype=np.int64)
        (R, self.ncols), self.q = M.shape, p ** n
        H, divs = _howell(np.concatenate(
            [M, np.eye(R, dtype=np.int64)], axis=1), p, n)
        self.H, self.divs = H[None], divs[None]

    def contains(self, v) -> bool:
        return self.solve(v) is not None

    def solve(self, v):
        """Row vector a with a @ M = v, or None.  The rows of a 2-D v are
        solved at once, as RowSystemStack.solve: (A, ok)."""
        if np.ndim(v) > 1:
            return super().solve(v)
        A, ok = super().solve(np.asarray(v)[None])
        return A[0] if ok[0] else None

    def kernel(self) -> np.ndarray:
        """Rows generating {a : a @ M = 0}."""
        K, live = self.kernels()
        return K[0][live[0]]

    def span_order(self) -> int:
        return prod((self.q // self.divs[0, :self.ncols]).tolist())


def span_order(rows: np.ndarray, p: int, n: int) -> int:
    """Order of the subgroup of (Z/p^n)^c generated by the given rows."""
    return prod((p ** n // _howell(rows, p, n)[1]).tolist())


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def kernel(A: Mat, spec: ModuleSpec):
    """Generators of {x : A @ x = 0} as a list of vectors."""
    sys = RowSystem(A.to_array().T, spec.p, spec.n)
    ker = sys.kernel()
    return [tuple(int(x) for x in row) for row in ker]


def solve(A: Mat, b: Sequence[int], spec: ModuleSpec) -> Optional[tuple]:
    """Some x with A @ x = b, or None when the system is inconsistent."""
    if len(b) != A.rows:
        raise InputError("right-hand side length does not match matrix rows")
    sys = RowSystem(A.to_array().T, spec.p, spec.n)
    a = sys.solve(np.array(b, dtype=np.int64))
    if a is None:
        return None
    return tuple(int(x) for x in a)


def quotient_structure(ambient_gens, sub_gens,
                       spec: ModuleSpec) -> AbelianStructure:
    """Invariant factors and generators of span(ambient)/span(sub), the
    generators the rows of two integer arrays of one width, over
    spec.modulus = p^n (cohomology passes the spec of its torsion
    module, spec.with_exponent(j)).  The relations are the left kernel
    of the ambient rows and the solutions for every sub row, all from
    one RowSystem.
    """
    p, n, q = spec.p, spec.n, spec.modulus
    # reduced before the int64 cast: Python ints past int64 stay exact
    U = (np.asarray(ambient_gens) % q).astype(np.int64)
    S = (np.asarray(sub_gens) % q).astype(np.int64)
    if not len(U):
        if S.any():
            raise InputError("sub generators not contained in ambient span")
        return AbelianStructure((), ())
    S = S.reshape(len(S), U.shape[1])     # an empty list has no width
    sys = RowSystem(U, p, n)
    A, ok = sys.solve(S)
    if not ok.all():
        raise InputError("sub generators not contained in ambient span")
    vals, Rinv = _smith_with_inverse(np.concatenate([sys.kernel(), A]), p, n)
    # the summands with a relation, the largest first, in coordinate order
    # among equal factors
    live = np.flatnonzero(vals >= 1)
    live = live[np.argsort(-vals[live], kind="stable")]
    struct = AbelianStructure(
        tuple(p ** int(v) for v in vals[live]),
        tuple(tuple(g) for g in ((Rinv[live] @ U) % q).tolist()))
    # order coherence: |quotient| * |span(sub)| == |span(ambient)|
    certify(struct.order * span_order(S, p, n) == sys.span_order(),
            "quotient order mismatch (internal)")
    return struct


def _p_exponent(q: int, p: int) -> int:
    """n with q = p^n; InputError when q is no power of p."""
    n = 0
    while q > 1 and q % p == 0:
        q //= p
        n += 1
    if q != 1:
        raise InputError("modulus must be a power of spec.p")
    return n


def _smith_with_inverse(M: np.ndarray, p: int, n: int):
    """Diagonalize M over Z/p^n by row/column ops; track the inverse of the
    accumulated column transform.  Returns per-coordinate valuations (n for
    relation-free coordinates) as an array, and Rinv whose row i generates
    summand i of (Z/p^n)^k / rowspan(M).

    Step t takes as pivot the first entry of least valuation of M[t:, t:]
    in row-major order, the first least gcd(M[t:, t:], q), and clears its
    row and column with array operations: the column by a rank-one update
    of M[t+1:, t+1:], the row by adding its multiples of the later rows of
    Rinv to Rinv[t]."""
    q = p ** n
    M = np.asarray(M, dtype=np.int64) % q
    r, k = M.shape
    Rinv = np.eye(k, dtype=np.int64)
    vals = np.full(k, n)
    for t in range(min(r, k)):
        g = np.gcd(M[t:, t:], q)
        bi, bj = divmod(int(g.argmin()), k - t)
        d = int(g[bi, bj])
        if d == q:
            break
        bi, bj = bi + t, bj + t
        if bi != t:
            M[[t, bi]] = M[[bi, t]]
        if bj != t:
            M[:, [t, bj]] = M[:, [bj, t]]
            Rinv[[t, bj]] = Rinv[[bj, t]]
        vals[t] = _valuation(d, p, n)
        if t + 1 == k:
            break
        # the pivot row scaled to pivot d; d divides every entry of
        # M[t:, t:], so the quotients below are exact.  Clearing column t
        # leaves the rest of row t zero, so only M[t+1:, t+1:] changes
        row = M[t, t + 1:] * pow(int(M[t, t]) // d, -1, q) % q
        M[t + 1:, t + 1:] -= M[t + 1:, t, None] // d * row
        M[t + 1:, t + 1:] %= q
        # one product per entry, reduced before the sum: near q = 2^31.5
        # two unreduced ones could leave int64
        Rinv[t] = (Rinv[t] + (row[:, None] // d * Rinv[t + 1:] % q)
                   .sum(axis=0)) % q
    return vals, Rinv


# ---------------------------------------------------------------------------
# Characteristic polynomials, determinants and inverses on entry planes
# ---------------------------------------------------------------------------

def char_poly(A: Mat, spec: ModuleSpec) -> tuple:
    """Monic characteristic polynomial of A mod p, coefficients from the
    leading term down: (1, c_{m-1}, ..., c_0), with c_{m-k} = (-1)^k times
    the sum of the principal k x k minors (_principal_minors).  Public API
    and the reference of the GSp_4 pairing sweep's tests, which read the
    same minors on the planes of every element; no library code calls it,
    and the eigenvalue-ratio test needs no eigenvalue (a Sylvester kernel
    in cohomology.eigenvalue_ratio_condition)."""
    if A.rows != A.cols:
        raise InputError("characteristic polynomial of non-square matrix")
    _p_exponent(A.modulus, spec.p)      # refuses a modulus not a power of p
    p = spec.p
    _entry_dtype(p)     # refuses p before to_array could overflow
    P = _planes(A.reduce_mod(p).to_array()[None], p)
    return (1,) + tuple(int((-1) ** k * _principal_minors(P, k, p)[0] % p)
                        for k in range(1, A.rows + 1))


# entries per block of the copy in _planes: one transposing copy of a
# large (N, r, r) array strides across all of it, a block this size stays
# in cache
_PLANE_BLOCK = 1 << 16


def _planes(arr: np.ndarray, q: int) -> np.ndarray:
    """The (N, r, r) matrices arr as one entry-major (r, r, N) array with
    entries in [0, q): planes[i, j] holds entry (i, j) of every matrix as
    one contiguous N-vector, in the _entry_dtype of q, so int16 up to
    q = 181 and int32 up to q = 46341.  A read-only arr in that dtype
    whose transpose is such planes (StabChain.planes().transpose(2, 0, 1)
    is one) comes back as those planes, with no copy, once its entries are
    found in [0, q); no caller writes into planes.  Otherwise the planes
    are a copy, and entries outside [0, q) are reduced in int64 before it,
    as the narrowing cast would wrap them."""
    dtype = _entry_dtype(q)
    arr = np.asarray(arr)
    if arr.dtype == dtype and not arr.flags.writeable:
        planes = arr.transpose(1, 2, 0)
        if planes.flags.c_contiguous and _reduced(arr, q):
            return planes
    arr = arr.astype(np.int64, copy=False)
    if not _reduced(arr, q):
        arr = arr % q
    n, r = arr.shape[:2]
    planes = np.empty((r, r, n), dtype=dtype)
    step = max(1, _PLANE_BLOCK // (r * r or 1))
    for s in range(0, n, step):
        planes[:, :, s:s + step] = arr[s:s + step].transpose(1, 2, 0)
    return planes


def _reduced(arr: np.ndarray, q: int) -> bool:
    """Every entry of arr lies in [0, q)."""
    return not arr.size or (arr.min() >= 0 and arr.max() < q)


def _sum_of_products(terms, q: int) -> np.ndarray:
    """sum of s * x * y mod q, in [0, q), over the (s, x, y) in terms with
    s = +-1 and x, y N-vectors of one integer dtype (that of the _planes)
    with entries in [0, q).  Each product is below (q-1)^2, so a running
    bound on the partial sum, as in _howell, reduces it only when the next
    product could pass the dtype's maximum: once at the end for small q,
    before every product near the dtype's limit.  A reduction is
    acc - (acc // q) * q in place, through the product buffer: floor
    division gives the residue in [0, q) of a negative sum too, and numpy
    divides by a scalar several times faster in // than in %.  The product
    (acc // q) * q may wrap past the dtype's minimum, but the difference is
    exact, as it lies in [0, q)."""
    x = terms[0][1]
    limit, step = np.iinfo(x.dtype).max, (q - 1) ** 2
    acc = np.zeros(len(x), dtype=x.dtype)
    term = np.empty_like(acc)
    bound = 0
    for s, x, y in terms:
        if bound > limit - step:
            np.floor_divide(acc, q, out=term)
            term *= q
            acc -= term
            bound = q - 1
        np.multiply(x, y, out=term)
        if s < 0:
            acc -= term
        else:
            acc += term
        bound += step
    np.floor_divide(acc, q, out=term)
    term *= q
    acc -= term
    return acc


def _plane_det(planes, q: int) -> np.ndarray:
    """Determinants mod q of the r x r matrices (r >= 1) whose entry (i, j)
    is the N-vector planes[i][j], entries in [0, q), by Laplace expansion
    down the rows: the minor of rows 0..i on the column set S is
    sum_t (-1)^(i+t) planes[i][S_t] times the minor of rows 0..i-1 on S
    without S_t, so r * 2^(r-1) products per matrix, not the Leibniz
    r * r!.  Each minor is one _sum_of_products, so it lies in [0, q)."""
    r = len(planes)
    if not len(planes[0][0]):
        return planes[0][0].copy()     # no matrices: nothing to expand
    minors = {(c,): planes[0][c] for c in range(r)}
    for i in range(1, r):
        minors = {cols: _sum_of_products(
            [((-1) ** (i + t), planes[i][c], minors[cols[:t] + cols[t + 1:]])
             for t, c in enumerate(cols)], q)
            for cols in itertools.combinations(range(r), i + 1)}
    return minors[tuple(range(r))]


def batch_det(arr: np.ndarray, q: int) -> np.ndarray:
    """Determinants mod q of the (N, r, r) matrices in arr (r >= 1), as
    int64, by _plane_det on their _planes."""
    return _plane_det(_planes(arr, q), q).astype(np.int64)


def _principal_minors(P, k: int, q: int) -> np.ndarray:
    """The sum of the principal k x k minors of the matrices whose entry
    (i, j) is the N-vector P[i][j], entries in [0, q): one _plane_det on
    views of P per k-subset of the rows, each minor in [0, q).  The sum is
    reduced only when the next minor could pass the maximum of P's dtype,
    so it stays nonnegative and congruent to the true sum; callers reduce
    it."""
    limit = np.iinfo(P[0][0].dtype).max - (q - 1)
    total = bound = 0
    for rows in itertools.combinations(range(len(P)), k):
        if bound > limit:
            total %= q
            bound = q - 1
        total = total + _plane_det([[P[a][b] for b in rows] for a in rows], q)
        bound += q - 1
    return total


def batch_inv(arr, q: int) -> np.ndarray:
    """Inverses mod q of the (N, r, r) matrices in arr (r >= 1), as
    adj(x) det(x)^-1.  Each minor is a _plane_det on views of the
    _planes, det(x) the expansion of row 0 by its cofactors, and
    det(x)^-1 comes from _unit_inverses; all of it in the _planes' dtype,
    the result as int64.  Raises InputError when some det(x) is not a unit,
    and, through _entry_dtype, for a modulus past the int64 bound."""
    P = _planes(arr, q)
    r = len(P)
    # adj[j, i]: the minor without row i and column j, 1 when r = 1
    adj = np.ones_like(P)
    if r > 1:
        for i, j in itertools.product(range(r), repeat=2):
            adj[j, i] = _plane_det([[P[a, b] for b in range(r) if b != j]
                                    for a in range(r) if a != i], q)
    det = _sum_of_products([((-1) ** j, P[0, j], adj[j, 0])
                            for j in range(r)], q)
    if (np.gcd(det, q) != 1).any():
        raise InputError("matrix is not invertible")
    # minors and det^-1 lie in [0, q), so each product fits the dtype
    sign = (-1) ** np.add.outer(np.arange(r), np.arange(r))
    adj *= sign.astype(adj.dtype)[:, :, None]
    adj *= _unit_inverses(det, _totient(q), q)
    adj %= q
    return np.ascontiguousarray(adj.transpose(2, 0, 1), dtype=np.int64)


def _bijective_shifts(X: np.ndarray, modulus: int) -> np.ndarray:
    """Mask over the (N, r, r) matrices X: x - 1 is bijective over
    (Z/modulus)^rank.  The planes of x - 1 are X's, but for the diagonal
    x_ii - 1, formed as new vectors: _planes may hand back X's own."""
    P = _planes(X, modulus)
    shift = [[(P[i, j] - 1) % modulus if i == j else P[i, j]
              for j in range(len(P))] for i in range(len(P))]
    return np.gcd(_plane_det(shift, modulus), modulus) == 1
