"""Z^1, B^1, H^1 and the first local cohomology group of a matrix group
acting on (Z/p^j)^rank.

A 1-cocycle Z satisfies Z_{st} = Z_s + s Z_t and is determined by its values
on the generators.  The identity is written once, in one orientation, as
the residual V_x + x V_g - V_{xg} at a pair (x, g) of an element and a
generator (_residuals), one gather from the group's right-multiplication
table.  Walked down the BFS closure tree one layer at a time, the identity
expands the stacked generator values z to the whole group
(_CocycleSystem._values), so the residual of a closure-tree edge is zero;
the coefficient matrices C, with C_sigma @ z the value at sigma, are the
expansion of the identity matrix.  With Z_1 = 0 the k * N pairs force the
identity for all pairs, by induction along words in the generators, so Z
is a cocycle exactly when all its residuals vanish (_identity_holds, behind
Cocycle.is_valid), and Z^1 is the kernel over Z/p^j of the residual rows
of C, folded into a Howell basis a block at a time.
Most of those rows are redundant: Z^1 is the kernel of the relator rows
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 7.6), and
the kernel of any subset of the rows contains it.  So the fold takes the
rows of the pairs of the first BFS layers holding at least 64 elements,
which need C only one layer further (every pair, when that layer is the
last), and their kernel K is a candidate containing Z^1.  K is expanded
once, and the residuals of every later pair are folded in K's coordinates:
Z^1 is exactly their kernel times K (_cut), and when they all vanish, as
they mostly do, K is Z^1.  Over Z/p^j a row span is the annihilator of
its kernel, so the Howell basis of the whole stack is the candidate's, or
after a cut the annihilator of Z^1; C itself, a k * rank column array per
element, is never formed.  B^1 is the row span of one (rank, k * rank)
matrix, the columns of g - 1 side by side, whose RowSystem decides
coboundaries and class orders.

The locally trivial cocycles satisfy Z_sigma in Im(sigma - 1) for every
sigma: their restriction to every cyclic subgroup is a coboundary.  For a
cocycle the condition at s implies it at every power of s (Z_s = (s - 1) v
gives Z_{s^k} = (s^k - 1) v) and at every conjugate of s
(Z_{tst^-1} = (tst^-1 - 1)(t v - Z_t)).  It also follows from the
condition at the p-part s_p of s: the condition at s says that Z restricted
to <s> is a coboundary, and since M is p-primary and [<s> : <s_p>] is prime
to p, restriction H^1(<s>, M) -> H^1(<s_p>, M) is injective (Brown,
Cohomology of Groups, III.9-10).  So the condition is imposed only at the
representatives s of MatGroup.cyclic_class_representatives, one per
conjugacy class of maximal cyclic p-subgroups, whose conjugates cover the
p-elements.  Those classes need no walk over the group: a p-element
x != 1 generates a maximal cyclic p-subgroup exactly when it is not the
p-th power of a p-element, conjugation by the generators and x -> x^u
(u among the generators of (Z/p^E)^*) permute those maximal generators,
and the classes are the orbits of these permutations.
Over Z/p^j a submodule is cut out by the linear forms vanishing on it
(w in ker((s-1)^T) gives w . Z_s = 0).  The local rows w . Z_s come from
the same walk as Z^1 (_CocycleSystem._z1), with no walk of their own.
When the candidate takes every pair they are read off the identity's
expansion, in the z coordinates, and folded into the residual basis.
Otherwise they are read off K's expansion, in K's coordinates, and one
_cut takes them together with the later pairs' rows.  Either way Z^1_loc
is the kernel of the Howell basis of ann(Z^1) + ann(local rows), and
H^1_loc = Z^1_loc / B^1 is a finite abelian group with explicit invariant
factors and representative cocycles.  The class representatives are
found only when Z^1_loc is asked for: the mod-p image needs H^1 alone.

The per-element certificates run on whole arrays.  The kernels of all the
s - 1 at the class representatives, and the local witnesses v with
(sigma - 1) v = Z_sigma at every element, each come from one stacked
Howell solve (ringmat.RowSystemStack).

The module exponent j defaults to n; j < n computes cohomology with
coefficients in the p^j-torsion (the action factors through reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, InternalError, PreconditionError, certify
from .groups import MatGroup, _cached, _stack
from .ringmat import (AbelianStructure, Mat, ModuleSpec, RowSystem,
                      RowSystemStack, _bijective_shifts, _howell_rows,
                      _p_exponent, quotient_structure, span_order)


# constraint rows folded into a running Howell basis at a time; the basis
# has at most k * rank rows, so the working set stays small
_ROW_BLOCK = 4096
# the candidate Z^1 takes the pairs of the first BFS layers holding at
# least this many elements
_FIRST = 64


def _residuals(G: MatGroup, V: np.ndarray, Vg: np.ndarray, x,
               q: int) -> np.ndarray:
    """(k, len(x), rank, r) array of the residuals V_x + x Vg[g] - V_{xg}
    mod q of the cocycle identity at the pairs (x, g) for the element
    positions x and every generator g, one gather per pair from the
    right-multiplication table.  V[i] holds r value columns at element i,
    and Vg[g] the (rank, r) values prescribed at generator g."""
    res = G.element_array()[x][None] @ Vg[:, None] % q + V[x]
    return (res - V[G.right_multiplication()[:, x]]) % q


def _identity_holds(G: MatGroup, V: np.ndarray, Vg: np.ndarray,
                    q: int) -> bool:
    """Whether every residual (_residuals) vanishes, a block of elements
    at a time.  At x = 1 the residual is V_1 + Vg[g] - V_g, so the
    generator values are compared there too."""
    step = max(1, _ROW_BLOCK // G.spec.rank)
    return not any(_residuals(G, V, Vg, slice(s, s + step), q).any()
                   for s in range(0, G.order, step))


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
        return self.values[G.lookup(G.generator_array())].reshape(-1)

    def is_valid(self) -> bool:
        """Whether Z_ab = Z_a + a Z_b for all pairs, from Z_1 = 0 and
        Z_{xg} = Z_x + x Z_g for every element x and generator g: k * N
        pairs, each one gather from the right-multiplication table.

        These imply the identity for all pairs, by induction on b as a word
        in the generators (G is finite, so no inverses are needed).  At
        b = 1 it says Z_1 = 0, and if it holds at b then
        Z_{abg} = Z_{ab} + ab Z_g = Z_a + a (Z_b + b Z_g) = Z_a + a Z_{bg}."""
        G, V = self.group, self.values[:, :, None]
        # the identity comes first, so right[g, 0] is generator g's
        # position; with no generators only Z_1 = 0 is left to check
        return not V[0].any() and _identity_holds(
            G, V, V[G.right_multiplication()[:, 0]], self.q)

    def scale(self, c: int) -> "Cocycle":
        return Cocycle(self.group, (c % self.q) * self.values,
                       self.module_exponent)

    def add(self, other: "Cocycle") -> "Cocycle":
        if not np.array_equal(self.group.element_array(),
                              other.group.element_array()):
            raise InputError("cocycles on different groups")
        if self.module_exponent != other.module_exponent:
            raise InputError("cocycles with different module exponents")
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
    """Per-(group, module exponent) linear-algebra state, cached on the group
    and filled under the group's lock."""

    def __init__(self, G: MatGroup, j: int):
        self.G = G
        self._lock = G._lock
        self.j = j
        spec = G.spec
        self.p = spec.p
        self.q = spec.p ** j
        self.m = spec.rank
        self.k = len(G.generator_array())
        self.size = G.order
        # size x m x m; the elements are already reduced mod p^n, so at
        # j = n the read-only element array serves without a copy
        X = G.element_array()
        self.acts = X if j == spec.n else X % self.q
        self.dim = self.k * self.m

    def _blocks(self, K: np.ndarray) -> np.ndarray:
        """(k, rank, len(K)) array whose [g] is generator g's block of the
        rows of K, reduced mod p^j."""
        K = np.asarray(K, dtype=np.int64) % self.q
        return K.reshape(len(K), self.k, self.m).transpose(1, 2, 0)

    def _values(self, K: np.ndarray, stop=None) -> np.ndarray:
        """(stop, rank, len(K)) array of the values of the cocycles with
        stacked generator values z, the rows of K, at the positions below
        stop, a layer boundary (all of them by default), walking down the
        closure tree: V_1 = 0 and V_{xg} = V_x + x K_g, where K_g is
        generator g's block of K, one BFS layer (tree_layers) at a time,
        since a layer's parents lie in the layer before it.  A layer is
        taken _ROW_BLOCK // rank elements at a time, and each product is
        reduced before the parent's values are added, so every int64 sum
        has at most rank terms."""
        G, m, q = self.G, self.m, self.q
        Kg = self._blocks(K)
        V = np.zeros((stop or self.size, m, len(K)), dtype=np.int64)
        step = max(1, _ROW_BLOCK // m)
        for start, end in G.tree_layers():
            if end > len(V):
                break
            for s in range(start, end, step):
                x = slice(s, min(s + step, end))
                par = G.tree_parent[x]
                v = self.acts[par] @ Kg[G.tree_gen[x]]
                v %= q
                v += V[par]
                v %= q
                V[x] = v
        return V

    def _residual_basis(self, V: np.ndarray, Vg: np.ndarray, start: int,
                        stop: int) -> np.ndarray:
        """Howell basis of the nonzero rows of the residuals (_residuals)
        at the pairs (x, g) with start <= x < stop, in the coordinates of
        the columns of V, taken a block of elements at a time."""
        basis = np.zeros((0, V.shape[2]), dtype=np.int64)
        step = max(1, _ROW_BLOCK // self.m)
        for s in range(start, stop, step):
            rows = _residuals(self.G, V, Vg, slice(s, min(s + step, stop)),
                              self.q)
            basis = _fold(basis, rows[rows.any(axis=-1)], self.p, self.j)
        return basis

    def _z1(self, local: bool = False) -> tuple:
        """(basis, K, cut, rows): Z^1, and with local the local rows, from
        one walk per expansion.  The pass is kept; a call with local after
        one without runs it again, since the expansions are not kept.

        With C the expansion of the identity, the residuals at a pair
        (x, g) are the constraint rows C[x] + x E_g - C[x g], and Z^1 is
        their kernel over all k * N pairs; the kernel of any subset of the
        rows contains it.  The candidate is the kernel at the pairs of the
        first BFS layers holding at least _FIRST elements, whose products
        lie at most one layer further, so the identity is expanded only
        that far, and basis is their Howell basis.  When that layer is the
        last, every pair is taken: K is None, cut is empty and basis is
        the annihilator of Z^1.  Otherwise K is the candidate's kernel,
        expanded once, and cut is the Howell basis of the residuals of
        every later pair in K's coordinates (the residual of the cocycle
        c K is R c, where column t of R is the residual of K's row t), so
        that Z^1 is the kernel of cut times K (_cut).

        rows, when asked for, are the local rows w V[s] with w (s - 1) = 0
        at each cyclic class representative s, read off the same expansion
        V (C, or K's): in the z coordinates when K is None, else in K's.
        The kernels of all the s - 1 come from one stacked Howell call."""
        with self._lock:
            done = self.__dict__.get("_z1_pass")
            if done is not None and (done[3] is not None or not local):
                return done
            p, j, q = self.p, self.j, self.q
            if local:
                reps = self.G.cyclic_class_representatives()
                B = (self.acts[reps] - np.eye(self.m, dtype=np.int64)) % q
                # w B = 0 makes w . v = 0 a test for v in Im(B); over Z/p^j
                # the double annihilator recovers the image exactly
                W, live = RowSystemStack(B, p, j).kernels()
            ends = [1] + [end for _, end in self.G.tree_layers()] + [self.size]
            i = min(np.searchsorted(ends, _FIRST), len(ends) - 2)
            # an expansion that reaches the last layer takes every pair
            stop = ends[i + 1]
            first = ends[i] if stop < self.size else stop
            eye = np.eye(self.dim, dtype=np.int64)
            V = self._values(eye, stop)
            basis = self._residual_basis(V, self._blocks(eye), 0, first)
            K, cut = None, basis[:0]
            if first < self.size:
                K = RowSystem(basis.T, p, j).kernel()
                V = self._values(K)
                cut = self._residual_basis(V, self._blocks(K), first,
                                           self.size)
            rows = ((W @ V[reps]) % q)[live] if local else None
            self._z1_pass = basis, K, cut, rows
            return self._z1_pass

    def _cut(self, K: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Howell basis of the annihilator of Z, the span of the cocycles
        c K with rows @ c = 0: the kernel of rows (in K's coordinates)
        times K.  Over Z/p^j a row span is the annihilator of its kernel,
        so this is the Howell basis of K's constraint rows stacked with
        the rows that cut it, and its kernel is Z's canonical basis."""
        p, j = self.p, self.j
        # rows has one column per row of K but may be far taller; its
        # kernel depends only on its span, and its Howell rows, no more of
        # them than K has, keep the transposed system's layout small
        if len(rows) > len(K):
            rows = _howell_rows(rows, p, j)
        # object products: a sum of len(K) terms near q^2 could leave int64
        Z = RowSystem(rows.T, p, j).kernel().astype(object) @ K % self.q
        return RowSystem(Z.astype(np.int64).T, p, j).kernel()

    @_cached
    def cocycle_basis(self) -> np.ndarray:
        """Howell basis of the cocycle constraint rows for every generator
        and element: the candidate's, or after a cut the annihilator of
        Z^1.  Over Z/p^j a row span is the annihilator of its kernel, so
        it is the whole stack's either way."""
        basis, K, cut, _ = self._z1()
        return self._cut(K, cut) if len(cut) else basis

    @_cached
    def z1_gens(self) -> np.ndarray:
        """Z^1: the candidate K when no later pair cuts it, else the kernel
        of cocycle_basis()."""
        _, K, cut, _ = self._z1()
        if K is not None and not len(cut):
            return K
        return RowSystem(self.cocycle_basis().T, self.p, self.j).kernel()

    @_cached
    def b1_gens(self) -> np.ndarray:
        """Rows spanning B^1 in the z coordinates: row t is the coboundary
        of the basis vector e_t, column t of g - 1 at each generator g, so
        v @ b1_gens() is the coboundary of v."""
        D = (self.G.generator_array()
             - np.eye(self.m, dtype=np.int64)) % self.q
        return D.transpose(2, 0, 1).reshape(self.m, self.dim)

    @_cached
    def b1_system(self) -> RowSystem:
        return RowSystem(self.b1_gens(), self.p, self.j)

    @_cached
    def z1loc_gens(self) -> np.ndarray:
        """Z^1_loc: z1_gens() when the local rows all vanish on Z^1, else
        the kernel of the Howell basis of Z^1's constraint rows stacked
        with the local rows.  Without K that is basis with the local rows
        folded in; with K it is K cut once by the later pairs' rows and
        the local rows together (_cut)."""
        basis, K, cut, rows = self._z1(local=True)
        if not rows.any():
            return self.z1_gens()
        if K is None:
            basis = _fold(basis, rows, self.p, self.j)
        else:
            basis = self._cut(K, np.concatenate([cut, rows]))
        return RowSystem(basis.T, self.p, self.j).kernel()

    @_cached
    def h1_structure(self) -> AbelianStructure:
        """Z^1 / B^1, its generators in the z coordinates."""
        return quotient_structure(self.z1_gens(), self.b1_gens(),
                                  self.G.spec.with_exponent(self.j))

    @_cached
    def h1loc_structure(self) -> AbelianStructure:
        """Z^1_loc / B^1.  quotient_structure solves every B^1 row in
        Z^1_loc, which certifies that coboundaries solve their own local
        conditions."""
        z1loc, b1 = self.z1loc_gens(), self.b1_gens()
        try:
            return quotient_structure(z1loc, b1,
                                      self.G.spec.with_exponent(self.j))
        except InputError:
            raise InternalError("coboundary outside Z^1_loc (internal)") \
                from None

    def expand(self, K: np.ndarray) -> list:
        """The cocycles with stacked generator values the rows of K, all
        from one walk (_values)."""
        V = self._values(K)
        return [Cocycle(self.G, V[:, :, t], self.j) for t in range(len(K))]

    def cohom_group(self, struct: AbelianStructure) -> CohomGroup:
        """struct with its generators expanded to representative cocycles."""
        K = np.array(struct.generators, dtype=np.int64)
        return CohomGroup(struct, self.expand(
            K.reshape(len(struct.generators), self.dim)))


def _system(G: MatGroup, module_exponent=None) -> _CocycleSystem:
    j = module_exponent if module_exponent is not None else G.spec.n
    if not 1 <= j <= G.spec.n:
        raise InputError("module exponent out of range")
    return _system_at(G, j)


@_cached
def _system_at(G: MatGroup, j: int) -> _CocycleSystem:
    """The one cocycle system of G at module exponent j (_cached)."""
    return _CocycleSystem(G, j)


def cocycle_space(G: MatGroup, module_exponent=None):
    """Generators of Z^1(G, M) as Cocycle objects."""
    sys = _system(G, module_exponent)
    return sys.expand(sys.z1_gens())


def coboundaries(G: MatGroup, module_exponent=None):
    """Generators of B^1(G, M): one coboundary per module basis vector."""
    sys = _system(G, module_exponent)
    return sys.expand(sys.b1_gens())


def h1(G: MatGroup, module_exponent=None) -> CohomGroup:
    """H^1(G, M) = Z^1/B^1 with invariant factors and representatives."""
    sys = _system(G, module_exponent)
    return sys.cohom_group(sys.h1_structure())


def h1_loc(G: MatGroup, module_exponent=None) -> CohomGroup:
    """The subgroup of H^1 of classes [Z] with Z_sigma in Im(sigma - 1) for
    every sigma: locally trivial classes, computed as Z^1_loc / B^1."""
    sys = _system(G, module_exponent)
    return sys.cohom_group(sys.h1loc_structure())


def sizes(G: MatGroup, module_exponent=None):
    """(|Z^1|, |B^1|, |H^1|, |H^1_loc|) from the linear-algebra path."""
    sys = _system(G, module_exponent)
    # Z^1_loc first: the walk that gives it serves Z^1 too
    zl, z1, b1 = (span_order(gens, sys.p, sys.j) if len(gens) else 1
                  for gens in (sys.z1loc_gens(), sys.z1_gens(),
                               sys.b1_gens()))
    return z1, b1, z1 // b1, zl // b1


def is_coboundary(Z: Cocycle):
    """A vector v with Z_sigma = sigma v - v for all sigma, or None.

    Agreement on the generators forces agreement everywhere, so v solves
    v @ b1_gens() = z for the generator values z."""
    sys = _system(Z.group, Z.module_exponent)
    sol = sys.b1_system().solve(Z.generator_vector())
    if sol is None:
        return None
    return tuple(int(x) for x in sol)


def local_solutions(Z: Cocycle) -> tuple:
    """(sols, ok) by element position: ok[i] says whether
    (sigma - 1) v = Z_sigma is solvable at the element sigma at position
    i, and sols[i] is such a v wherever it is.  The |G| systems are solved
    together, as one stack."""
    G = Z.group
    B = (G.element_array() - np.eye(G.spec.rank, dtype=np.int64)) % Z.q
    return RowSystemStack(B.transpose(0, 2, 1), G.spec.p,
                          Z.module_exponent).solve(Z.values)


def satisfies_local_conditions(Z: Cocycle):
    """(flag, witnesses): for each sigma a v with (sigma - 1) v = Z_sigma,
    or None where unsolvable, keyed by sigma.key().  True iff solvable
    everywhere.  The witnesses are the rows of local_solutions, keyed by
    element at the API edge."""
    sols, ok = local_solutions(Z)
    witnesses = {mat.key(): tuple(sol) if good else None
                 for mat, sol, good in zip(Z.group.elements, sols.tolist(),
                                           ok.tolist())}
    return bool(ok.all()), witnesses


def cocycle_from_generator_values(G: MatGroup, gen_values: dict,
                                  module_exponent=None) -> Cocycle:
    """Extend prescribed generator values to the whole group along the tree
    and certify the cocycle identity exhaustively (raises if inconsistent)."""
    sys = _system(G, module_exponent)
    rank = G.spec.rank
    for i, g in enumerate(G.generators):
        if g.key() not in gen_values:
            raise InputError(f"no value for generator {i + 1}")
        if np.shape(gen_values[g.key()]) != (rank,):
            raise InputError(f"value of generator {i + 1} is not a vector "
                             f"of length {rank}")
    z = np.array([[v for g in G.generators for v in gen_values[g.key()]]],
                 dtype=np.int64) % sys.q
    V = sys._values(z)
    if not _identity_holds(G, V, sys._blocks(z), sys.q):
        raise InputError("generator values do not extend to a cocycle")
    return Cocycle(G, V[:, :, 0], sys.j)


def class_order(Z: Cocycle) -> int:
    """Order of [Z] in H^1: [Z] lies in a p-group killed by p^j, so this is
    the least p^i, i <= j, with p^i Z a coboundary: the multiples are
    solved against B^1 at once."""
    sys = _system(Z.group, Z.module_exponent)
    multiples = sys.p ** np.arange(sys.j + 1)[:, None] * Z.generator_vector()
    _, ok = sys.b1_system().solve(multiples % sys.q)
    return sys.p ** int(ok.argmax())


def restrict(Z: Cocycle, H: MatGroup) -> Cocycle:
    """Value-wise restriction to a subgroup."""
    if not H.is_subgroup_of(Z.group):
        raise InputError("H is not a subgroup of the cocycle's group")
    return Cocycle(H, Z.values[Z.group.lookup(H.element_array())],
                   Z.module_exponent)


def inflate(Zq: Cocycle, G: MatGroup,
            project: Callable[[Mat], Mat]) -> Cocycle:
    """Pull a cocycle on a quotient back through project: G -> quotient.

    The kernel of project must act trivially on the coefficient module of
    Zq (automatic for reduction mod p^j with coefficients in the p^j-torsion)."""
    Q = Zq.group
    X = _stack([project(x) for x in G.elements], Q.spec.rank)
    # entries outside [0, q) name no element of Q
    if (X.min() < 0 or X.max() >= Q.spec.modulus
            or (idx := Q.lookup(X)).min() < 0):
        raise InputError("projection leaves the quotient cocycle's group")
    W = Cocycle(G, Zq.values[idx], Zq.module_exponent)
    if not W.is_valid():
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
    if not _bijective_shifts(delta.to_array()[None], spec.modulus)[0]:
        raise PreconditionError("delta - 1 is bijective",
                                "determinant is not a unit")
    lhs, sysn = _system(G, 1).h1_structure(), _system(G)
    # p-torsion of the full group contributes one factor p per nontrivial
    # invariant factor
    tors_factors = tuple(spec.p for _ in sysn.h1_structure().invariant_factors)
    # injectivity of [W] -> [p^(n-1) lift(W)]: the image, span(images,
    # B^1) / B^1, has order |lhs|
    image = np.array(lhs.generators, dtype=np.int64).reshape(-1, sysn.dim)
    b1 = sysn.b1_gens()
    amb = np.concatenate([image * spec.p ** (spec.n - 1) % sysn.q, b1])
    injective = (span_order(amb, spec.p, sysn.j)
                 // span_order(b1, spec.p, sysn.j) == lhs.order)
    return TorsionIsomorphismReport(lhs.invariant_factors, tors_factors,
                                    injective)


@dataclass
class RatioCriterionReport:
    """Outcome of the eigenvalue-ratio vanishing check for H^1(G, M)."""

    delta: Optional[Mat]
    quotient_h1_trivial: Optional[bool]
    ratio_condition: Optional[bool]
    ratio_witness: Optional[Mat]  # eigenvalue_ratio_condition's X
    verdict: str                  # 'certified' | 'not_applicable' | 'inconclusive'
    h1_factors: Optional[tuple] = None


def eigenvalue_ratio_condition(delta_bar: Mat, p: int):
    """Whether no ratio of eigenvalues of A = delta_bar mod p is itself an
    eigenvalue; i = j is included, so eigenvalue 1 always fails.  The
    condition says lambda_i lambda_j != lambda_k for all i, j, k, that is,
    A (x) A and A share no eigenvalue, and by Sylvester's theorem that
    holds exactly when X -> (A (x) A) X - X A is injective over F_p.  So
    the test is one Howell kernel of S = I_r (x) (A (x) A) - A^T (x) I_r^2,
    the r^3 x r^3 matrix of that map on X read column-major, and no
    eigenvalue is computed.  Returns (True, None) when the kernel is empty,
    else (False, X): X is the r^2 x r matrix of the first kernel row, a
    certified nonzero solution of (A (x) A) X = X A.  InputError for a
    non-square delta_bar, a p that is not prime, a modulus that is not a
    power of p, and a delta_bar singular mod p."""
    r = delta_bar.rows
    if delta_bar.cols != r:
        raise InputError("eigenvalue ratios of a non-square matrix")
    ModuleSpec(p, 1, r)                 # refuses a p that is not prime
    _p_exponent(delta_bar.modulus, p)   # and a modulus not a power of p
    if not delta_bar.is_invertible():
        raise InputError("delta_bar is singular mod p")
    A = delta_bar.reduce_mod(p)
    a = A.to_array()
    AA = np.kron(a, a) % p
    S = (np.kron(np.eye(r, dtype=np.int64), AA)
         - np.kron(a.T, np.eye(r * r, dtype=np.int64))) % p
    ker = RowSystem(S.T, p, 1).kernel()
    if not len(ker):
        return True, None
    X = Mat.from_array(ker[0].reshape(r, r * r).T, p)
    certify(X != Mat.zeros(r * r, r, p)
            and Mat.from_array(AA, p).mul(X) == X.mul(A),
            "ratio witness does not solve (A (x) A) X = X A (internal)")
    return False, X


def eigenvalue_ratio_vanishing(G: MatGroup) -> RatioCriterionReport:
    """Sufficient criterion for H^1(G, M) = 0: some delta with delta - 1
    bijective, trivial H^1 of the mod-p quotient, and no eigenvalue ratio
    of delta-bar being itself an eigenvalue.  delta-bar and its semisimple
    part have the same eigenvalues, so the test runs on delta-bar itself.
    When the hypotheses hold the conclusion is also verified by direct
    computation.  Only H^1 structures are read, with no representative
    cocycle expanded.
    """
    spec = G.spec
    # the first element, in G's order, with det(x - 1) a unit
    hits = np.flatnonzero(_bijective_shifts(G.element_array(), spec.modulus))
    if not len(hits):
        return RatioCriterionReport(None, None, None, None, "inconclusive")
    delta = G.element(hits[0])
    if not _system(G.reduce_mod(1)).h1_structure().is_trivial:
        return RatioCriterionReport(delta, False, None, None, "not_applicable")
    holds, witness = eigenvalue_ratio_condition(delta, spec.p)
    if not holds:
        return RatioCriterionReport(delta, True, False, witness,
                                    "not_applicable")
    direct = _system(G).h1_structure()
    certify(direct.is_trivial,
            "ratio criterion certified a nonvanishing H^1 (internal)")
    return RatioCriterionReport(delta, True, True, None, "certified",
                                direct.invariant_factors)
