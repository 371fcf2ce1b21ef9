"""Z^1, B^1, H^1 and the first local cohomology group of a matrix group
acting on (Z/p^j)^rank.

A 1-cocycle Z satisfies Z_{st} = Z_s + s Z_t and is determined by its values
on the generators.  Writing z for the stacked generator values, the value at
any element is C_sigma @ z for coefficient matrices C built along the BFS
multiplication tree; imposing the identity for every (generator, element)
pair then forces it for all pairs.  Z^1 is the kernel of that stacked linear
system over Z/p^j.  The stack has k * N * rank rows over only k * rank
unknowns, so its rows are folded into a Howell basis a block at a time and
the kernel is taken of that basis, never of the whole stack.

The locally trivial cocycles satisfy Z_sigma in Im(sigma - 1) for every
sigma: their restriction to every cyclic subgroup is a coboundary.  For a
cocycle the condition at s implies it at every power of s (Z_s = (s - 1) v
gives Z_{s^k} = (s^k - 1) v) and at every conjugate of s
(Z_{tst^-1} = (tst^-1 - 1)(t v - Z_t)), so it is imposed only at the
representatives s of MatGroup.cyclic_class_representatives, whose cyclic
subgroups cover the group up to conjugacy.  The local rows are folded into
the basis of the cocycle rows, so the kernel is still exactly Z^1_loc.  Over Z/p^j a submodule is
cut out by the linear forms vanishing on it (w in ker((s-1)^T) gives
w . Z_s = 0), so Z^1_loc is again a kernel and H^1_loc = Z^1_loc / B^1 is a
finite abelian group with explicit invariant factors and representative
cocycles.

The module exponent j defaults to n; j < n computes cohomology with
coefficients in the p^j-torsion (the action factors through reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, PreconditionError, certify
from .groups import MatGroup, _stack, element_order
from .ringmat import (AbelianStructure, Mat, ModuleSpec, RowSystem,
                      _howell_rows, eigenvalues_in_ext, quotient_structure,
                      span_order)


# multiplication-table pairs per block of Cocycle.is_valid; larger blocks
# buy no speed and raise the peak memory
_PAIR_BLOCK = 4096
# constraint rows folded into a running Howell basis at a time; the basis
# has at most k * rank rows, so the working set stays small
_ROW_BLOCK = 4096


def _fold(basis: np.ndarray, rows: np.ndarray, p: int, j: int) -> np.ndarray:
    """Howell basis of span(basis, rows), taking rows _ROW_BLOCK at a time."""
    for s in range(0, len(rows), _ROW_BLOCK):
        basis = _howell_rows(np.concatenate([basis, rows[s:s + _ROW_BLOCK]]),
                             p, j)
    return basis


class Cocycle:
    """A 1-cocycle: one module vector per group element.

    values is a read-only (N, rank) int64 array whose row i is the value at
    group.elements[i]; module_exponent j says the values live in
    (Z/p^j)^rank and the action is reduced mod p^j.
    """

    def __init__(self, group: MatGroup, values, module_exponent=None):
        self.group = group
        self.module_exponent = (module_exponent if module_exponent is not None
                                else group.spec.n)
        self.q = group.spec.p ** self.module_exponent
        shape = (group.order, group.spec.rank)
        try:
            vals = np.asarray(values, dtype=np.int64) % self.q
        except (TypeError, ValueError):
            raise InputError(f"cocycle values must form a {shape} integer "
                             f"array") from None
        if vals.shape != shape:
            raise InputError(f"cocycle values have shape {vals.shape}, "
                             f"expected {shape}")
        vals.flags.writeable = False
        self.values = vals

    def at(self, mat: Mat) -> tuple:
        return tuple(int(x) for x in self.values[self.group.index_of(mat)])

    def generator_vector(self) -> np.ndarray:
        """Values on the group generators, stacked (the z coordinates)."""
        G = self.group
        return self.values[[G.index_of(g) for g in G.generators]].reshape(-1)

    def is_valid(self) -> bool:
        """Exhaustive check of Z_ab = Z_a + a Z_b on all |G|^2 pairs, a block
        of rows of the multiplication table at a time."""
        G, q, V = self.group, self.q, self.values
        X, r = G.element_array(), G.spec.rank
        step = max(1, _PAIR_BLOCK // G.order)
        for s in range(0, G.order, step):
            a = slice(s, s + step)
            ab = G.lookup((X[a, None] @ X[None]).reshape(-1, r, r)
                          % G.spec.modulus).reshape(-1, G.order)
            # rhs[i, b] = V[a_i] + a_i V[b]
            rhs = (V[a, None] + ((X[a] % q) @ V.T).transpose(0, 2, 1) % q) % q
            if not (V[ab] == rhs).all():
                return False
        return True

    def scale(self, c: int) -> "Cocycle":
        return Cocycle(self.group, (c % self.q) * self.values,
                       self.module_exponent)

    def add(self, other: "Cocycle") -> "Cocycle":
        if not np.array_equal(self.group.element_array(),
                              other.group.element_array()):
            raise InputError("cocycles on different groups")
        return Cocycle(self.group, self.values + other.values,
                       self.module_exponent)

    def is_zero(self) -> bool:
        return not self.values.any()


@dataclass
class CohomGroup:
    """A cohomology group: invariant factors plus representative cocycles."""

    structure: AbelianStructure
    representatives: list

    @property
    def order(self) -> int:
        return self.structure.order

    @property
    def is_trivial(self) -> bool:
        return self.structure.is_trivial

    def describe(self) -> str:
        return self.structure.describe()


class _CocycleSystem:
    """Per-(group, module exponent) linear-algebra state, cached on the group."""

    def __init__(self, G: MatGroup, j: int):
        self.G = G
        self.j = j
        spec = G.spec
        self.p = spec.p
        self.q = spec.p ** j
        self.m = spec.rank
        self.k = len(G.generators)
        self.size = G.order
        q, m, k = self.q, self.m, self.k
        self.acts = G.element_array() % q   # size x m x m
        self.dim = k * m
        # C[sigma]: value of a cocycle at sigma as a linear map of z, built
        # one BFS layer at a time from C[x g] = C[x] + x E_g, where E_g
        # picks the block of generator g
        C = np.zeros((self.size, m, self.dim), dtype=np.int64)
        rows = np.arange(m)[:, None]
        start, end = 0, 1    # layer 0 is the identity, where C is 0
        while end < self.size:
            # the next layer holds the children of [start, end); it is at
            # most k times as long and ends at the first later parent
            stop = min(self.size, end + k * (end - start))
            later = np.flatnonzero(G.tree_parent[end:stop] >= end)
            if len(later):
                stop = end + int(later[0])
            idx = np.arange(end, stop)
            par = G.tree_parent[idx]
            cols = G.tree_gen[idx, None, None] * m + np.arange(m)
            C[idx] = C[par]
            C[idx[:, None, None], rows, cols] += self.acts[par]
            C[idx] %= q
            start, end = end, stop
        self.C = C
        self._z1 = None
        self._b1 = None
        self._z1loc = None
        self._cocycle_basis = None

    def cocycle_basis(self) -> np.ndarray:
        """Howell basis of the cocycle constraint rows, the coefficients of
        Z_{gx} - Z_g - g Z_x = 0 for each generator g and element x.  The
        rows are made and folded in a block of elements at a time, so the
        k * N * rank stack is never held."""
        if self._cocycle_basis is None:
            G, m = self.G, self.m
            basis = np.zeros((0, self.dim), dtype=np.int64)
            step = max(1, _ROW_BLOCK // m)
            ident = np.eye(m, dtype=np.int64)
            for gidx, gmat in enumerate(G.generators):
                gact = self.acts[G.index_of(gmat)]
                prod_idx = G.lookup((gmat.to_array() @ G.element_array())
                                    % G.spec.modulus)
                for s in range(0, self.size, step):
                    x = slice(s, s + step)
                    rows = self.C[prod_idx[x]] - gact @ self.C[x]
                    rows[:, :, gidx * m:(gidx + 1) * m] -= ident
                    basis = _fold(basis, rows.reshape(-1, self.dim),
                                  self.p, self.j)
            self._cocycle_basis = basis
        return self._cocycle_basis

    def z1_gens(self) -> np.ndarray:
        if self._z1 is None:
            sys = RowSystem(self.cocycle_basis().T, self.p, self.j)
            self._z1 = sys.kernel()
        return self._z1

    def b1_gens(self) -> np.ndarray:
        if self._b1 is None:
            out = []
            for t in range(self.m):
                e = np.zeros(self.m, dtype=np.int64)
                e[t] = 1
                z = []
                for gmat in self.G.generators:
                    gact = self.acts[self.G.index_of(gmat)]
                    z.extend(((gact - np.eye(self.m, dtype=np.int64)) @ e) % self.q)
                out.append(z)
            self._b1 = (np.array(out, dtype=np.int64) % self.q
                        if out else np.zeros((0, self.dim), dtype=np.int64))
        return self._b1

    def local_constraints(self) -> np.ndarray:
        """Rows w C[s] with w (s - 1) = 0 at each cyclic class
        representative s."""
        blocks = [np.zeros((0, self.dim), dtype=np.int64)]
        ident = np.eye(self.m, dtype=np.int64)
        for idx in self.G.cyclic_class_representatives():
            B = (self.acts[idx] - ident) % self.q
            # w B = 0 makes w . v = 0 a test for v in Im(B); over Z/p^j the
            # double annihilator recovers the image exactly
            W = RowSystem(B, self.p, self.j).kernel()
            if W.shape[0]:
                blocks.append((W @ self.C[idx]) % self.q)
        return np.concatenate(blocks, axis=0)

    def z1loc_gens(self) -> np.ndarray:
        if self._z1loc is None:
            basis = _fold(self.cocycle_basis(), self.local_constraints(),
                          self.p, self.j)
            sys = RowSystem(basis.T, self.p, self.j)
            self._z1loc = sys.kernel()
        return self._z1loc

    def expand(self, z: np.ndarray) -> Cocycle:
        """Full cocycle C @ z from stacked generator values, reduced after
        each generator block so that every int64 sum has rank terms."""
        m, q = self.m, self.q
        zz = np.asarray(z, dtype=np.int64) % q
        vals = np.zeros((self.size, m), dtype=np.int64)
        for g in range(self.k):
            block = self.C[:, :, g * m:(g + 1) * m] @ zz[g * m:(g + 1) * m]
            vals = (vals + block % q) % q
        return Cocycle(self.G, vals, self.j)


def _system(G: MatGroup, module_exponent=None) -> _CocycleSystem:
    j = module_exponent if module_exponent is not None else G.spec.n
    if not 1 <= j <= G.spec.n:
        raise InputError("module exponent out of range")
    if j not in G._cohom_cache:
        G._cohom_cache[j] = _CocycleSystem(G, j)
    return G._cohom_cache[j]


def cocycle_space(G: MatGroup, module_exponent=None):
    """Generators of Z^1(G, M) as Cocycle objects."""
    sys = _system(G, module_exponent)
    return [sys.expand(z) for z in sys.z1_gens()]


def coboundaries(G: MatGroup, module_exponent=None):
    """Generators of B^1(G, M): one coboundary per module basis vector."""
    sys = _system(G, module_exponent)
    return [sys.expand(z) for z in sys.b1_gens()]


def h1(G: MatGroup, module_exponent=None) -> CohomGroup:
    """H^1(G, M) = Z^1/B^1 with invariant factors and representatives."""
    sys = _system(G, module_exponent)
    struct = quotient_structure(sys.z1_gens(), sys.b1_gens(), G.spec,
                                modulus=sys.q)
    reps = [sys.expand(np.array(gen, dtype=np.int64))
            for gen in struct.generators]
    return CohomGroup(struct, reps)


def h1_loc(G: MatGroup, module_exponent=None) -> CohomGroup:
    """The subgroup of H^1 of classes [Z] with Z_sigma in Im(sigma - 1) for
    every sigma: locally trivial classes, computed as Z^1_loc / B^1."""
    sys = _system(G, module_exponent)
    z1loc = sys.z1loc_gens()
    b1 = sys.b1_gens()
    # B^1 is contained in Z^1_loc: coboundaries solve their own conditions
    loc_span = RowSystem(z1loc, sys.p, sys.j)
    certify(all(loc_span.contains(row) for row in b1),
            "coboundary outside Z^1_loc (internal)")
    struct = quotient_structure(z1loc, b1, G.spec, modulus=sys.q)
    reps = [sys.expand(np.array(gen, dtype=np.int64))
            for gen in struct.generators]
    return CohomGroup(struct, reps)


def sizes(G: MatGroup, module_exponent=None):
    """(|Z^1|, |B^1|, |H^1|, |H^1_loc|) from the linear-algebra path."""
    sys = _system(G, module_exponent)
    z1 = span_order(sys.z1_gens(), sys.p, sys.j) if len(sys.z1_gens()) else 1
    b1 = span_order(sys.b1_gens(), sys.p, sys.j) if len(sys.b1_gens()) else 1
    zl = span_order(sys.z1loc_gens(), sys.p, sys.j) \
        if len(sys.z1loc_gens()) else 1
    return z1, b1, z1 // b1, zl // b1


def is_coboundary(Z: Cocycle):
    """A vector v with Z_sigma = sigma v - v for all sigma, or None.

    Agreement on the generators forces agreement everywhere, so the system
    stacks (g - 1) over the generators only."""
    G = Z.group
    q = Z.q
    m = G.spec.rank
    if not G.generators:
        return (0,) * m
    A = np.concatenate([(g.to_array() - np.eye(m, dtype=np.int64)) % q
                        for g in G.generators], axis=0)
    sol = RowSystem(A.T, G.spec.p, Z.module_exponent).solve(
        Z.generator_vector())
    if sol is None:
        return None
    return tuple(int(x) for x in sol)


def satisfies_local_conditions(Z: Cocycle):
    """(flag, witnesses): for each sigma a v with (sigma - 1) v = Z_sigma,
    or None where unsolvable.  True iff solvable everywhere."""
    G = Z.group
    q = Z.q
    m = G.spec.rank
    witnesses = {}
    ok = True
    B = (G.element_array() - np.eye(m, dtype=np.int64)) % q
    for mat, Bs, value in zip(G.elements, B, Z.values):
        sol = RowSystem(Bs.T, G.spec.p, Z.module_exponent).solve(value)
        witnesses[mat.key()] = tuple(int(x) for x in sol) \
            if sol is not None else None
        if sol is None:
            ok = False
    return ok, witnesses


def cocycle_from_generator_values(G: MatGroup, gen_values: dict,
                                  module_exponent=None) -> Cocycle:
    """Extend prescribed generator values to the whole group along the tree
    and certify the cocycle identity exhaustively (raises if inconsistent)."""
    sys = _system(G, module_exponent)
    z = np.array([v for g in G.generators for v in gen_values[g.key()]],
                 dtype=np.int64) % sys.q
    Z = sys.expand(z)
    # a generator that labels no tree edge (the identity, say) does not
    # enter the expansion, so its prescribed value is compared here
    if not Z.is_valid() or (Z.generator_vector() != z).any():
        raise InputError("generator values do not extend to a cocycle")
    return Z


def class_order(Z: Cocycle) -> int:
    """Order of [Z] in H^1: [Z] lies in a p-group killed by p^j, so this is
    the least p^i, i <= j, with p^i Z a coboundary."""
    sys = _system(Z.group, Z.module_exponent)
    b1 = RowSystem(sys.b1_gens(), sys.p, sys.j)
    z = Z.generator_vector()
    return next(sys.p ** i for i in range(sys.j + 1)
                if b1.contains((sys.p ** i * z) % sys.q))


def restrict(Z: Cocycle, H: MatGroup) -> Cocycle:
    """Value-wise restriction to a subgroup."""
    if not H.is_subgroup_of(Z.group):
        raise InputError("H is not a subgroup of the cocycle's group")
    return Cocycle(H, Z.values[Z.group.lookup(H.element_array())],
                   Z.module_exponent)


def inflate(Zq: Cocycle, G: MatGroup, project: Callable[[Mat], Mat],
            check: bool = True) -> Cocycle:
    """Pull a cocycle on a quotient back through project: G -> quotient.

    The kernel of project must act trivially on the coefficient module of
    Zq (automatic for reduction mod p^j with coefficients in the p^j-torsion)."""
    Q = Zq.group
    idx = Q.lookup(_stack([project(x) for x in G.elements], Q.spec.rank))
    if idx.min() < 0:
        raise InputError("projection leaves the quotient cocycle's group")
    W = Cocycle(G, Zq.values[idx], Zq.module_exponent)
    if check and not W.is_valid():
        raise InputError("inflation did not produce a cocycle "
                         "(kernel acts nontrivially?)")
    return W


def mod_p_projection(G: MatGroup):
    """(quotient group mod p, projection map) for inflation through the
    reduction G -> G mod p."""
    Q = G.reduce_mod(1)
    p = G.spec.p

    def project(x: Mat) -> Mat:
        return x.reduce_mod(p)

    return Q, project


@dataclass
class TorsionIsomorphismReport:
    torsion_factors: tuple        # invariant factors of H^1(G, M[p])
    h1_p_torsion_factors: tuple   # invariant factors of H^1(G, M)[p]
    injective: bool

    @property
    def ok(self) -> bool:
        return (self.torsion_factors == self.h1_p_torsion_factors
                and self.injective)


def torsion_isomorphism_check(G: MatGroup, delta: Mat) -> TorsionIsomorphismReport:
    """Certify that multiplication by p^(n-1) identifies H^1(G, M[p]) with
    the p-torsion of H^1(G, M), given delta in G with delta - 1 bijective."""
    spec = G.spec
    if delta not in G:
        raise PreconditionError("delta is an element of G")
    from math import gcd as _gcd
    if _gcd(delta.minus_identity().det(), spec.modulus) != 1:
        raise PreconditionError("delta - 1 is bijective",
                                "determinant is not a unit")
    lhs = h1(G, module_exponent=1)
    full = h1(G)
    # p-torsion of the full group contributes one factor p per nontrivial
    # invariant factor
    tors_factors = tuple(spec.p for _ in full.structure.invariant_factors)
    sysn = _system(G, spec.n)
    # injectivity of [W] -> [p^(n-1) lift(W)]: image subgroup order == |lhs|
    shift = spec.p ** (spec.n - 1)
    image_gens = [(np.array(g, dtype=np.int64) * shift) % sysn.q
                  for g in lhs.structure.generators]
    if image_gens:
        amb = np.vstack([np.array(image_gens, dtype=np.int64),
                         sysn.b1_gens()])
        image_struct = quotient_structure(amb, sysn.b1_gens(), spec,
                                          modulus=sysn.q)
        injective = image_struct.order == lhs.order
    else:
        injective = lhs.order == 1
    return TorsionIsomorphismReport(lhs.structure.invariant_factors,
                                    tors_factors, injective)


@dataclass
class RatioCriterionReport:
    """Outcome of the eigenvalue-ratio vanishing check for H^1(G, M)."""

    delta: Optional[Mat]
    quotient_h1_trivial: Optional[bool]
    ratio_condition: Optional[bool]
    offending_pair: Optional[tuple]
    verdict: str                  # 'certified' | 'not_applicable' | 'inconclusive'
    h1_factors: Optional[tuple] = None


def eigenvalue_ratio_condition(delta_bar: Mat, p: int):
    """Whether no ratio of eigenvalues of delta_bar (mod p, order prime to
    p) is itself an eigenvalue; i = j is included, so eigenvalue 1 always
    fails.  Returns (holds, offending_triple_or_None); holds is None when
    the eigenvalues do not all lie in a supported extension field."""
    spec1 = ModuleSpec(p, 1, delta_bar.rows)
    field = None
    eig = None
    for deg in (1, 2, 4):
        f, rts = eigenvalues_in_ext(delta_bar, spec1, deg)
        if sum(mlt for _, mlt in rts) == delta_bar.rows:
            field, eig = f, rts
            break
    if field is None:
        return None, None
    values = [r for r, _ in eig]
    for a in values:
        for b in values:
            ratio = field.mul(a, field.inv(b))
            if ratio in values:
                return False, (a, b, ratio)
    return True, None


def eigenvalue_ratio_vanishing(G: MatGroup) -> RatioCriterionReport:
    """Sufficient criterion for H^1(G, M) = 0: some delta with delta - 1
    bijective, trivial H^1 of the mod-p quotient, and no eigenvalue ratio
    of a p-prime power of delta-bar being itself an eigenvalue.  When the
    hypotheses hold the conclusion is also verified by direct computation.
    """
    spec = G.spec
    from math import gcd as _gcd
    delta = None
    for x in G.elements:
        if _gcd(x.minus_identity().det(), spec.modulus) == 1:
            delta = x
            break
    if delta is None:
        return RatioCriterionReport(None, None, None, None, "inconclusive")
    Q = G.reduce_mod(1)
    q_h1 = h1(Q, module_exponent=1)
    if not q_h1.is_trivial:
        return RatioCriterionReport(delta, False, None, None, "not_applicable")
    # p-prime power of the reduction of delta
    dbar = delta.reduce_mod(spec.p)
    o = element_order(dbar)
    while o % spec.p == 0:
        dbar = dbar.pow(spec.p)
        o = element_order(dbar)
    holds, offending = eigenvalue_ratio_condition(dbar, spec.p)
    if holds is None:
        return RatioCriterionReport(delta, True, None, None, "inconclusive")
    if not holds:
        return RatioCriterionReport(delta, True, False, offending,
                                    "not_applicable")
    direct = h1(G)
    certify(direct.is_trivial,
            "ratio criterion certified a nonvanishing H^1 (internal)")
    return RatioCriterionReport(delta, True, True, None, "certified",
                                direct.structure.invariant_factors)
