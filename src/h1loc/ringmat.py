"""Exact linear algebra over Z/p^n.

Z/p^n has zero divisors, so plain row echelon is not enough: span membership
must stay decidable.  The canonical form used throughout is a Howell-style
form for the local ring Z/p^n: pivots are powers of p, every span element
reduces to zero by back-substitution, and annihilator rows (p^(n-v) times a
pivot row) are folded in so the column filtration of the row span is exact.

All matrices are dense, entries are canonical representatives in [0, p^n),
and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, prod
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InternalError, certify


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
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
        q = self.modulus
        return Mat(tuple(tuple((x + y) % q for x, y in zip(r, s))
                         for r, s in zip(self.entries, other.entries)), q)

    def sub(self, other: "Mat") -> "Mat":
        q = self.modulus
        return Mat(tuple(tuple((x - y) % q for x, y in zip(r, s))
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
        """Determinant as an element of Z/modulus (exact integer Bareiss, then reduce)."""
        if self.rows != self.cols:
            raise InputError("determinant of non-square matrix")
        return _int_det(self.entries) % self.modulus

    def is_invertible(self) -> bool:
        return gcd(self.det(), self.modulus) == 1

    def inv(self) -> "Mat":
        """Inverse by Gauss-Jordan with unit pivots (works over Z/q)."""
        if self.rows != self.cols:
            raise InputError("inverse of non-square matrix")
        q = self.modulus
        size = self.rows
        a = [list(r) + [1 if i == j else 0 for j in range(size)]
             for i, r in enumerate(self.entries)]
        for col in range(size):
            piv = next((i for i in range(col, size) if gcd(a[i][col], q) == 1), None)
            if piv is None:
                raise InputError("matrix is not invertible")
            a[col], a[piv] = a[piv], a[col]
            inv_p = pow(a[col][col], -1, q)
            a[col] = [(x * inv_p) % q for x in a[col]]
            for i in range(size):
                if i != col and a[i][col]:
                    f = a[i][col]
                    a[i] = [(x - f * y) % q for x, y in zip(a[i], a[col])]
        return Mat(tuple(tuple(row[size:]) for row in a), q)

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


def _check_int64(q: int) -> None:
    """Elimination forms x - f * y with x, f, y in [0, q); refuse moduli
    where that can leave int64 instead of wrapping around silently."""
    if (q - 1) ** 2 + (q - 1) >= 2 ** 63:
        raise InputError(f"modulus {q} too large for int64 linear algebra "
                         f"((q-1)^2 + (q-1) >= 2^63)")


def _howell(M: np.ndarray, p: int, n: int):
    """Canonical Howell form of the row span of M, zero rows dropped, with
    its pivot columns and pivot values: (H, cols, divs).

    Rows come back sorted by pivot column, each pivot a power of p, entries
    above a pivot reduced modulo the pivot.  One step per column, vectorized
    across rows: the row of least valuation there becomes the pivot, the
    column is eliminated from every row at once (which cancels the pivot
    row itself mod q), and the pivot's annihilator row takes its slot.
    """
    q = p ** n
    _check_int64(q)
    W = np.asarray(M, dtype=np.int64) % q
    W = W[W.any(axis=1)]
    # W only matters modulo q, so it is reduced only when the next step
    # could leave int64: each step adds at most step to |W|
    step, bound = (q - 1) ** 2, q - 1
    cols, divs, piv_rows = [], [], []
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
        cols.append(col)
        divs.append(d)
        piv_rows.append(piv)
    if not piv_rows:
        return np.zeros((0, W.shape[1]), dtype=np.int64), cols, divs
    H = np.stack(piv_rows)
    # canonical reduction above each pivot
    for i in range(1, len(cols)):
        H[:i] -= (H[:i, cols[i]] // divs[i])[:, None] * H[i]
        H[:i] %= q
    return H, cols, divs


def _howell_rows(M: np.ndarray, p: int, n: int) -> np.ndarray:
    """Canonical Howell form of the row span of M; zero rows dropped."""
    return _howell(M, p, n)[0]


class RowSystem:
    """Precomputed Howell data for the row space of M over Z/p^n.

    Supports span membership, solving a @ M = v for a row vector a, the left
    kernel of M, and the order of the row span.  Right-sided problems go
    through the transpose.
    """

    def __init__(self, M: np.ndarray, p: int, n: int):
        self.p, self.n = p, n
        self.q = p ** n
        M = np.asarray(M, dtype=np.int64)
        self.nrows, self.ncols = M.shape
        H, cols, divs = _howell(
            np.concatenate([M, np.eye(self.nrows, dtype=np.int64)], axis=1),
            p, n)
        inside = bisect_left(cols, self.ncols)
        # (pivot_col, pivot value p^v, row) with the pivot inside M columns
        self.basis = list(zip(cols[:inside], divs[:inside], H[:inside]))
        # coefficient rows spanning the left kernel
        self.kern = H[inside:, self.ncols:]

    def _reduce(self, v: np.ndarray) -> Optional[np.ndarray]:
        """Back-substitute v against the basis; None if v is not in the span."""
        w = np.concatenate([np.asarray(v, dtype=np.int64) % self.q,
                            np.zeros(self.nrows, dtype=np.int64)])
        for col, d, row in self.basis:
            e = int(w[col])
            if e:
                if e % d:
                    return None
                w = (w - (e // d) * row) % self.q
        if w[:self.ncols].any():
            return None
        return w[self.ncols:]

    def contains(self, v) -> bool:
        return self._reduce(v) is not None

    def solve(self, v) -> Optional[np.ndarray]:
        """Row vector a with a @ M = v, or None."""
        tail = self._reduce(v)
        if tail is None:
            return None
        return (-tail) % self.q

    def kernel(self) -> np.ndarray:
        """Rows generating {a : a @ M = 0}."""
        return self.kern

    def span_order(self) -> int:
        return prod(self.q // d for (_, d, _) in self.basis)


def span_order(rows: np.ndarray, p: int, n: int) -> int:
    """Order of the subgroup of (Z/p^n)^c generated by the given rows."""
    q = p ** n
    return prod(q // d for d in _howell(rows, p, n)[2])


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def normal_form(A: Mat, spec: ModuleSpec):
    """Howell-style row canonical form H of A with a unimodular transform T.

    When the canonical form needs more rows than A has (annihilator rows of
    pivots can be independent), A is implicitly padded with zero rows; then
    T @ A_padded = H and T is square unimodular.  H is deterministic for
    fixed A: rows sorted by pivot column, zero rows at the bottom.
    """
    p, n = spec.p, spec.n
    q = p ** n
    _check_int64(q)
    arr = A.to_array() % q
    r, c = arr.shape
    # work items: (vector, {row_id: coeff}); row ids r.. are lazily added pads
    work = [(arr[i].copy(), {i: 1}) for i in range(r)]
    next_id = r
    placed = []
    zeros = []
    for col in range(c):
        best, bestv = None, n
        for i, (vec, _) in enumerate(work):
            e = int(vec[col])
            if e:
                v = _valuation(e, p, n)
                if v < bestv:
                    best, bestv = i, v
        if best is None:
            continue
        vec, coeff = work.pop(best)
        v = bestv
        u_inv = pow(int(vec[col]) // p ** v, -1, q)
        vec = (vec * u_inv) % q
        coeff = {k: (x * u_inv) % q for k, x in coeff.items()}
        for i in range(len(work)):
            wv, wc = work[i]
            e = int(wv[col])
            if e:
                f = e // p ** v
                wv = (wv - f * vec) % q
                wc = dict(wc)
                for k, x in coeff.items():
                    wc[k] = (wc.get(k, 0) - f * x) % q
                work[i] = (wv, wc)
        if v:
            ann_vec = (vec * p ** (n - v)) % q
            if ann_vec.any():
                ann_coeff = {k: (x * p ** (n - v)) % q for k, x in coeff.items()}
                ann_coeff[next_id] = 1      # consumes one virtual zero-pad row
                next_id += 1
                work.append((ann_vec, ann_coeff))
        placed.append([col, v, vec, coeff])
    for vec, coeff in work:                  # fully reduced rows
        zeros.append((vec, coeff))
    # canonical reduction above pivots
    for i in range(len(placed)):
        ci, vi, ri, ki = placed[i]
        mod = p ** vi
        for j in range(i):
            cj, vj, rj, kj = placed[j]
            f = int(rj[ci]) // mod
            if f:
                rj = (rj - f * ri) % q
                kj = dict(kj)
                for k, x in ki.items():
                    kj[k] = (kj.get(k, 0) - f * x) % q
                placed[j] = [cj, vj, rj, kj]
    total = next_id
    H_rows, T_rows = [], []
    for _, _, vec, coeff in placed:
        H_rows.append(vec)
        T_rows.append([coeff.get(k, 0) for k in range(total)])
    for vec, coeff in zeros:
        H_rows.append(np.zeros(c, dtype=np.int64))
        T_rows.append([coeff.get(k, 0) for k in range(total)])
    # T acts on A padded with zero rows to `total`; H is trimmed back to
    # max(r, #pivots) rows so the form is idempotent, with
    # T @ pad(A) == pad(H) row for row
    keep = max(r, len(placed))
    H = Mat.from_rows([list(map(int, row)) for row in H_rows[:keep]], q)
    T = Mat.from_rows(T_rows, q)
    return H, T


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


def quotient_structure(ambient_gens, sub_gens, spec: ModuleSpec,
                       modulus: Optional[int] = None) -> AbelianStructure:
    """Invariant factors and generators of span(ambient)/span(sub).

    Vectors may live in any (Z/p^j)^c; pass modulus = p^j when it differs
    from spec.modulus (cohomology uses torsion modules this way).
    """
    p = spec.p
    q = modulus if modulus is not None else spec.modulus
    n = 0
    qq = q
    while qq > 1:
        qq //= p
        n += 1
    if p ** n != q:
        raise InputError("modulus must be a power of spec.p")
    ambient = [tuple(int(x) % q for x in v) for v in ambient_gens]
    sub = [tuple(int(x) % q for x in v) for v in sub_gens]
    if not ambient:
        if any(any(x for x in v) for v in sub):
            raise InputError("sub generators not contained in ambient span")
        return AbelianStructure((), ())
    U = np.array(ambient, dtype=np.int64) % q
    k = U.shape[0]
    sys = RowSystem(U, p, n)
    rel_rows = [row for row in sys.kernel()]
    for v in sub:
        a = sys.solve(np.array(v, dtype=np.int64))
        if a is None:
            raise InputError("sub generators not contained in ambient span")
        rel_rows.append(a)
    if rel_rows:
        R = np.stack(rel_rows) % q
    else:
        R = np.zeros((0, k), dtype=np.int64)
    vals, Rinv = _smith_with_inverse(R, p, n)
    entries = []
    for i in range(k):
        v = vals[i]
        if v >= 1:
            gen = tuple(int(x) for x in (Rinv[i] @ U) % q)
            entries.append((p ** v, gen))
    entries.sort(key=lambda t: -t[0])
    struct = AbelianStructure(tuple(f for f, _ in entries),
                              tuple(g for _, g in entries))
    # order coherence: |quotient| * |span(sub)| == |span(ambient)|
    sub_order = span_order(np.array(sub, dtype=np.int64), p, n) if sub else 1
    certify(struct.order * sub_order == sys.span_order(),
            "quotient order mismatch (internal)")
    return struct


def _smith_with_inverse(M: np.ndarray, p: int, n: int):
    """Diagonalize M over Z/p^n by row/column ops; track the inverse of the
    accumulated column transform.  Returns per-coordinate valuations (n for
    relation-free coordinates) and Rinv whose row i generates summand i of
    (Z/p^n)^k / rowspan(M)."""
    q = p ** n
    M = np.asarray(M, dtype=np.int64).copy() % q
    r, k = M.shape
    Rinv = np.eye(k, dtype=np.int64)
    vals = [n] * k
    t = 0
    while t < min(r, k):
        best, bestv = None, n
        for i in range(t, r):
            for j in range(t, k):
                e = int(M[i, j])
                if e:
                    v = _valuation(e, p, n)
                    if v < bestv:
                        best, bestv = (i, j), v
        if best is None:
            break
        bi, bj = best
        M[[t, bi]] = M[[bi, t]]
        if bj != t:
            M[:, [t, bj]] = M[:, [bj, t]]
            Rinv[[t, bj]] = Rinv[[bj, t]]
        v = bestv
        u_inv = pow(int(M[t, t]) // p ** v, -1, q)
        M[t] = (M[t] * u_inv) % q
        for i in range(t + 1, r):
            e = int(M[i, t])
            if e:
                M[i] = (M[i] - (e // p ** v) * M[t]) % q
        for j in range(t + 1, k):
            e = int(M[t, j])
            if e:
                f = e // p ** v
                M[:, j] = (M[:, j] - f * M[:, t]) % q
                Rinv[t] = (Rinv[t] + f * Rinv[j]) % q
        vals[t] = v
        t += 1
    return vals, Rinv


# ---------------------------------------------------------------------------
# Characteristic polynomials and extension-field eigenvalues
# ---------------------------------------------------------------------------

def char_poly(A: Mat, spec: ModuleSpec) -> tuple:
    """Monic characteristic polynomial of A mod p, coefficients from the
    leading term down: (1, c_{m-1}, ..., c_0)."""
    if A.rows != A.cols:
        raise InputError("characteristic polynomial of non-square matrix")
    p = spec.p
    m = A.rows
    lift = [[int(x) for x in row] for row in A.entries]
    coeffs = [0] * (m + 1)
    coeffs[0] = 1
    for kk in range(1, m + 1):
        e = 0
        for subset in itertools.combinations(range(m), kk):
            e += _int_det([[lift[i][j] for j in subset] for i in subset])
        coeffs[kk] = ((-1) ** kk * e) % p
    return tuple(coeffs)


def _int_det(m) -> int:
    """Exact integer determinant (Bareiss)."""
    m = [list(r) for r in m]
    size = len(m)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for kk in range(size - 1):
        if m[kk][kk] == 0:
            for i in range(kk + 1, size):
                if m[i][kk] != 0:
                    m[kk], m[i] = m[i], m[kk]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(kk + 1, size):
            for j in range(kk + 1, size):
                m[i][j] = (m[i][j] * m[kk][kk] - m[i][kk] * m[kk][j]) // prev
        prev = m[kk][kk]
    return sign * m[size - 1][size - 1]


class ExtensionField:
    """F_{p^degree} realized as F_p[x] modulo a fixed irreducible polynomial.

    The modulus is deterministic: the first irreducible monic polynomial
    x^e + c_{e-1} x^{e-1} + ... + c_0 in lexicographic order of
    (c_{e-1}, ..., c_0).  Elements are coefficient tuples (a_0, ..., a_{e-1}).
    """

    def __init__(self, p: int, degree: int):
        if not is_prime(p):
            raise InputError(f"p = {p} is not prime")
        if not 1 <= degree <= 5:
            # trial division by roots and quadratics certifies
            # irreducibility only up to degree 5
            raise InputError("extension degree must be between 1 and 5")
        self.p = p
        self.degree = degree
        self.modulus_poly = self._find_irreducible(p, degree)
        self.zero = (0,) * degree
        self.one = (1,) + (0,) * (degree - 1)

    @staticmethod
    def _find_irreducible(p: int, e: int) -> tuple:
        if e == 1:
            return (0, 1)  # x itself; arithmetic is plain mod p
        for tail in itertools.product(range(p), repeat=e):
            # tail = (c_{e-1}, ..., c_0)
            coeffs = tuple(reversed(tail)) + (1,)  # ascending, monic
            if _poly_is_irreducible(coeffs, p):
                return coeffs
        raise InternalError("no irreducible polynomial found (internal)")

    def embed(self, c: int) -> tuple:
        return tuple([c % self.p] + [0] * (self.degree - 1))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.degree)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, e = self.p, self.degree
        if e == 1:
            return ((a[0] * b[0]) % p,)
        raw = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    raw[i + j] += x * y
        # reduce modulo the modulus polynomial
        mod = self.modulus_poly
        for d in range(2 * e - 2, e - 1, -1):
            c = raw[d] % p
            if c:
                for i in range(e):
                    raw[d - e + i] -= c * mod[i]
            raw[d] = 0
        return tuple(x % p for x in raw[:e])

    def pow(self, a, k: int):
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise InputError("division by zero in extension field")
        return self.pow(a, self.p ** self.degree - 2)

    def poly_eval(self, coeffs_desc: Sequence[int], x) -> tuple:
        """Evaluate a polynomial with F_p coefficients (leading first) at x."""
        acc = self.zero
        for c in coeffs_desc:
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc


def _poly_is_irreducible(coeffs_asc: tuple, p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p by trial division."""
    e = len(coeffs_asc) - 1
    # no roots
    for r in range(p):
        acc = 0
        for c in reversed(coeffs_asc):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    # degree 4+: divide by all monic irreducible quadratics (enough for e <= 5)
    for b in range(p):
        for c in range(p):
            quad = (c, b, 1)
            if any((r * r + b * r + c) % p == 0 for r in range(p)):
                continue
            if _poly_divides(quad, coeffs_asc, p):
                return False
    return True


def _poly_divides(d_asc, f_asc, p) -> bool:
    rem = list(f_asc)
    dd = len(d_asc) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] % p == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1] % p
        shift = len(rem) - 1 - dd
        for i, c in enumerate(d_asc):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return not any(x % p for x in rem)


def eigenvalues_in_ext(A: Mat, spec: ModuleSpec, ext_degree: int):
    """All eigenvalues of A (mod p) lying in F_{p^ext_degree}, with
    multiplicities.  Returns (field, [(element, multiplicity), ...])."""
    if ext_degree not in (1, 2, 4):
        raise InputError("ext_degree must be 1, 2 or 4")
    field = ExtensionField(spec.p, ext_degree)
    cp = char_poly(A, spec)
    roots = []
    for x in field.elements():
        if field.poly_eval(cp, x) == field.zero:
            roots.append(x)
    out = []
    for root in sorted(roots):
        # multiplicity via synthetic division by (t - root)
        mult = 0
        coeffs = [field.embed(c) for c in cp]
        while True:
            quot, rem = _synthetic_div(coeffs, root, field)
            if rem != field.zero:
                break
            mult += 1
            coeffs = quot
            if len(coeffs) == 1:
                break
        out.append((root, mult))
    return field, out


def _synthetic_div(coeffs_desc, root, field: ExtensionField):
    acc = field.zero
    quot = []
    for c in coeffs_desc:
        acc = field.add(field.mul(acc, root), c)
        quot.append(acc)
    return quot[:-1], quot[-1]
