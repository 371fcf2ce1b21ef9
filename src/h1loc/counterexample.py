"""An explicit family with nonvanishing first local cohomology.

For p prime with p = 2 mod 3, the group G = <g, H> inside GL_2(Z/p^2), where

    h(a, b) = [[1 + p(a-2b), 3p(b-a)], [-pb, 1 - p(a-2b)]],
    g      = [[1, -3], [1, -2]]   (order 3),

carries a cocycle Z with Z_{h(a,b)} = (p(a-2b), p(a-b)) and Z_g = (0, 0)
that satisfies the local solvability conditions at every element yet is not
a coboundary, so H^1_loc(G, (Z/p^2)^2) != 0.  The obstruction lives in the
determinant D(a, b) = a^2 + b^2 - ab, which has no nonzero root mod p
exactly because x^2 + x + 1 has no root when p = 2 mod 3.

The order-3 element g is the point: 3 does not divide p - 1, so the
Sylow-normalizer vanishing criterion cannot apply to this group.

build() constructs and certifies every structural invariant; verify() checks
the five content claims; scan_orders() contrasts the family against the same
construction driven by an element of order dividing p - 1.  Both work on
arrays: ord(g) = 3 is g != 1 and g^3 = 1 (3 is prime), with no element order
of G; the local witnesses are one stacked solve read by element position;
and H^1_loc is the cached quotient structure, with no representative cocycle
expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import (Cocycle, _system, class_order,
                         cocycle_from_generator_values, is_coboundary,
                         local_solutions)
from .errors import CapExceededError, InputError, certify
from .groups import DEFAULT_CAP, MatGroup, _normalizing
from .ringmat import Mat, ModuleSpec, RowSystem, is_prime, solve, span_order

import numpy as np


def family_array(p: int, a, b) -> np.ndarray:
    """h(a, b) for the integer arrays a, b, as an (N, 2, 2) array over
    Z/p^2."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    t = p * (a - 2 * b)
    return np.stack([1 + t, 3 * p * (b - a), -p * b, 1 - t],
                    axis=-1).reshape(-1, 2, 2) % (p * p)


def family_matrix(p: int, a: int, b: int) -> Mat:
    """h(a, b) = Id + p * [[a-2b, 3(b-a)], [-b, 2b-a]] over Z/p^2."""
    return Mat.from_array(family_array(p, [a], [b])[0], p * p)


def twist_matrix(p: int) -> Mat:
    """The order-3 element g = [[1, -3], [1, -2]] over Z/p^2."""
    return Mat.from_rows([[1, -3], [1, -2]], p * p)


def cocycle_values(p: int, a, b) -> np.ndarray:
    """Z_{h(a, b)} = (p(a-2b), p(a-b)) for the integer arrays a, b, as an
    (N, 2) array over Z/p^2."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    return np.stack([p * (a - 2 * b), p * (a - b)], axis=-1) % (p * p)


def cocycle_value(p: int, a: int, b: int) -> tuple:
    return tuple(cocycle_values(p, [a], [b])[0].tolist())


@dataclass
class CounterexampleInstance:
    p: int
    spec: ModuleSpec
    G2: MatGroup
    H2: MatGroup
    g: Mat
    Z: Cocycle


def build(p: int) -> CounterexampleInstance:
    """Construct the instance at p and certify all structural invariants.

    G has exactly 3 p^2 elements, so CapExceededError refuses p with
    3 p^2 past DEFAULT_CAP, as closing G would, before anything is closed."""
    if not is_prime(p) or p < 5 or p % 3 != 2:
        raise InputError(f"p must be a prime >= 5 with p = 2 mod 3, got {p}")
    q = p * p
    if 3 * q > DEFAULT_CAP:
        raise CapExceededError("group closure", DEFAULT_CAP)
    spec = ModuleSpec(p, 2, 2)
    g = twist_matrix(p)
    h10, h01 = family_matrix(p, 1, 0), family_matrix(p, 0, 1)
    H2 = MatGroup.close([h10, h01], spec, cap=q + 1)
    G2 = MatGroup.close([g, h10, h01], spec, cap=3 * q + 1)

    # 3 is prime, so g != 1 and g^3 = 1 is exactly ord(g) = 3
    one = Mat.identity(2, q)
    certify(g != one and g.pow(3) == one, "g must have order 3")
    certify(H2.order == p * p, "H must have order p^2")
    certify(G2.order == 3 * p * p, "G must have order 3 p^2")
    # every h(a, b) at once, a-major, and the laws as array equalities
    a, b = np.divmod(np.arange(q), p)
    hab = family_array(p, a, b)
    gi = g.inv()
    garr, giarr = g.to_array(), gi.to_array()
    ghg = (garr @ hab % q) @ giarr % q
    certify(np.array_equal(ghg, family_array(p, -b, a - b)),
            "conjugation law (g)")
    certify(np.array_equal((garr @ ghg % q) @ giarr % q,
                           family_array(p, b - a, -a)), "conjugation law (g^2)")
    certify(np.array_equal(hab @ family_array(p, [1], [1]) % q,
                           family_array(p, a + 1, b + 1)), "h is additive")
    certify(_normalizing(garr[None], giarr[None], H2)[0], "g normalizes H")
    # extends the generator values through the tree; raises if the values
    # are inconsistent with the cocycle identity anywhere
    Z = cocycle_from_generator_values(
        G2, {g.key(): (0, 0),
             h10.key(): cocycle_value(p, 1, 0),
             h01.key(): cocycle_value(p, 0, 1)})
    pos = G2.lookup(hab)
    certify((pos >= 0).all() and
            np.array_equal(Z.values[pos], cocycle_values(p, a, b)),
            "cocycle does not match its closed form on H")
    return CounterexampleInstance(p, spec, G2, H2, g, Z)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    p: int
    checks: list
    h1_loc_factors: tuple
    witness_11: tuple
    witness_21: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [f"family instance at p = {self.p}"]
        for c in self.checks:
            out.append(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        out.append(f"  H1_loc = {' x '.join(f'C{f}' for f in self.h1_loc_factors) or 'trivial'}")
        out.append("  interpretation: nontrivial classes here are cohomology "
                   "classes vanishing under restriction to every cyclic "
                   "subgroup (everywhere-locally-trivial classes)")
        return out


def verify(inst: CounterexampleInstance) -> VerificationReport:
    """The five content checks for a built instance.

    The local conditions are checked at every element by one stacked solve
    (cohomology.local_solutions), and the witnesses at h(1,1) and h(2,1)
    are read off it at their positions; H^1_loc is the invariant factors
    of the cached Z^1_loc / B^1 structure."""
    p, q = inst.p, inst.p ** 2
    checks = []

    # (i) determinant never vanishes away from (0,0)
    bad = [(a, b) for a in range(p) for b in range(p)
           if (a, b) != (0, 0) and (a * a + b * b - a * b) % p == 0]
    no_root = all(((x * x + x + 1) % p) for x in range(p))
    checks.append(CheckResult(
        "determinant a^2+b^2-ab nonzero off the origin",
        not bad and no_root,
        f"offenders: {bad or 'none'}; x^2+x+1 rootless mod {p}: {no_root}"))

    # (ii) local conditions hold everywhere
    sols, solvable = local_solutions(inst.Z)
    ok = bool(solvable.all())
    checks.append(CheckResult("local conditions solvable at every element",
                              ok, f"{inst.G2.order} elements checked"))

    # (iii) not a coboundary, with the incompatible-witness certificate
    m = is_coboundary(inst.Z)
    h11, h21 = family_matrix(p, 1, 1), family_matrix(p, 2, 1)
    disjoint = not _witness_sets_meet(inst, h11, h21)
    i11, i21 = inst.G2.index_of(h11), inst.G2.index_of(h21)
    witness_11, witness_21 = (tuple(sols[i].tolist()) for i in (i11, i21))
    w11 = tuple(x % p for x in witness_11)
    w21 = tuple(x % p for x in witness_21)
    expected = (bool(solvable[i11] and solvable[i21]) and w11 == (1, 1)
                and w21 == ((-1) % p, 0))
    cert = (m is None) and disjoint and expected
    checks.append(CheckResult(
        "not a coboundary",
        cert,
        f"global witness: {m}; witness sets at h(1,1), h(2,1) disjoint: "
        f"{disjoint}; witnesses mod p: {w11}, {w21}"))

    # (iv) H^1_loc nontrivial and the class of Z has order p
    loc = _system(inst.G2).h1loc_structure()
    zc = class_order(inst.Z)
    checks.append(CheckResult(
        "H1_loc nontrivial with [Z] of order p",
        (not loc.is_trivial) and ok and zc == p,
        f"H1_loc = {loc.describe()}, order of [Z] = {zc}"))

    # (v) the twist-equivariant homomorphisms H -> pM are generated by the
    # restriction of Z as a module over the twist group ring (the space is
    # an irreducible twist-module, so one generator suffices)
    hom_dim, z_generates = _equivariant_hom_group(inst)
    checks.append(CheckResult(
        "equivariant Hom(H, pM) cyclic (one generator: Z|_H)",
        hom_dim >= 1 and z_generates,
        f"F_p-dimension {hom_dim}; module generated by Z|_H is everything: "
        f"{z_generates}"))

    return VerificationReport(p, checks, loc.invariant_factors,
                              witness_11, witness_21)


def _witness_sets_meet(inst: CounterexampleInstance, a: Mat, b: Mat) -> bool:
    """Whether some v solves both (a - 1) v = Z_a and (b - 1) v = Z_b: one
    solve of the stacked system [a - 1; b - 1] v = [Z_a; Z_b]."""
    A = np.vstack([a.minus_identity().to_array(),
                   b.minus_identity().to_array()])
    return solve(Mat.from_array(A, inst.spec.modulus),
                 inst.Z.at(a) + inst.Z.at(b), inst.spec) is not None


def _equivariant_hom_group(inst: CounterexampleInstance):
    """Homomorphisms f: H -> pM ~ F_p^2 commuting with the conjugation twist:
    f(g h g^-1) = g f(h).  Writing f(h(a,b)) = p (F @ (a,b)) and using that
    conjugation by g sends coordinates (a,b) to C (a,b), the condition is
    F C = gbar F.  Returns (F_p-dimension of the solution space, whether the
    twist-module generated by Z|_H is the whole space)."""
    p = inst.p
    gb = inst.g.reduce_mod(p).to_array()
    Cmat = np.array([[0, -1], [1, -1]], dtype=np.int64) % p
    # F C - gbar F on the row-major flattening of F
    eye = np.eye(2, dtype=np.int64)
    R = (np.kron(eye, Cmat.T) - np.kron(gb, eye)) % p
    sol = RowSystem(R.T, p, 1).kernel()   # all F with R @ flat(F) = 0
    dim = sol.shape[0]
    FZ = np.array([[1, -2], [1, -1]], dtype=np.int64) % p
    space = RowSystem(sol, p, 1)
    if not space.contains(FZ.reshape(4)) or not FZ.any():
        return dim, False
    # the group ring acts on equivariant homs through the target: f -> gbar f
    # (conjugation fixes them by definition); the orbit of Z must span
    orbit = [FZ]
    for _ in range(2):
        orbit.append((gb @ orbit[-1]) % p)
    orbit_rows = np.array([f.reshape(4) for f in orbit], dtype=np.int64)
    generates = dim > 0 and \
        span_order(orbit_rows, p, 1) == span_order(sol, p, 1)
    return dim, generates


def scan_orders(p: int):
    """One row per subgroup <g^j, H> plus a comparison row where g is
    replaced by a fixed-point-free element of order dividing p-1: the
    nonvanishing case is exactly the one whose twist order (3) does not
    divide p-1."""
    inst = build(p)
    q = p * p
    # (label, twist, generators beside H's, closure cap)
    cases = []
    for j in (0, 1, 2):
        top = inst.g.pow(j)
        cases.append((f"<g^{j}, H>", top, [] if j == 0 else [top], 3 * q + 1))
    # same module, twist of order dividing p-1 with no nonzero fixed
    # point: diag(2,3)^p (reduces to diag(2,3) mod p)
    d = Mat.from_rows([[2, 0], [0, 3]], q).pow(p)
    cases.append(("comparison <diag(2,3)^p, H>", d, [d], (p - 1) * q * q + 1))
    rows = []
    for label, top, twist, cap in cases:
        G = MatGroup.close(twist + list(inst.H2.generators), inst.spec,
                           cap=cap)
        loc = _system(G).h1loc_structure()
        order = G.element_order(top)
        rows.append({
            "label": label,
            "twist_order": order,
            "divides_p_minus_1": (p - 1) % order == 0,
            "group_order": G.order,
            "h1_loc": loc.invariant_factors,
            "vanishes": loc.is_trivial,
        })
    return rows
