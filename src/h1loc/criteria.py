"""Hypothesis checkers that certify vanishing of the first local cohomology.

Each checker searches for the structure its criterion needs (a Sylow
normalizer element of order dividing p-1 acting without nonzero fixed
points, a fixed-point-free element of the mod-p group plus trivial H^1,
a surjective similitude multiplier), reports every hypothesis separately,
and never takes the conclusion on faith: a "certified" verdict is always
cross-checked by computing H^1_loc directly.  Failing a hypothesis is not
an error: the group may still have vanishing cohomology for other reasons,
so the verdict is just "not applicable".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd
from typing import Optional

import numpy as np

from .cohomology import h1, h1_loc
from .errors import PreconditionError, certify
from .groups import (MatGroup, coset_orders, element_order, lift_normalizer,
                     normalizer, p_sylow, sylow_normalizer_element)
from .ringmat import Mat
from .symplectic import SymplecticSpace, similitude_multiplier


@dataclass
class CheckItem:
    name: str
    status: str            # 'satisfied' | 'failed' | 'inconclusive'
    detail: str = ""
    witness: object = None


@dataclass
class CriterionReport:
    criterion: str
    items: list = field(default_factory=list)
    conclusion: str = "not_applicable"   # 'certified' | 'not_applicable' | 'inconclusive'
    cross_check: Optional[tuple] = None  # invariant factors of direct H^1_loc

    def add(self, name, status, detail="", witness=None):
        self.items.append(CheckItem(name, status, detail, witness))

    @property
    def certified(self) -> bool:
        return self.conclusion == "certified"

    def finalize(self, conclusion: str, cross_check=None):
        if conclusion == "certified":
            certify(all(i.status == "satisfied" for i in self.items),
                    "certified with an unsatisfied hypothesis (internal)")
            certify(cross_check in (None, ()),
                    "certified but direct H^1_loc is nontrivial (internal)")
        self.conclusion = conclusion
        self.cross_check = cross_check
        return self

    def lines(self):
        out = [f"criterion: {self.criterion}"]
        for i in self.items:
            out.append(f"  [{i.status}] {i.name}" +
                       (f": {i.detail}" if i.detail else ""))
        out.append(f"  conclusion: {self.conclusion}")
        if self.cross_check is not None:
            desc = " x ".join(f"C{f}" for f in self.cross_check) or "trivial"
            out.append(f"  direct H1_loc: {desc}")
        return out


def _bijective_shift(g: Mat, modulus: int) -> bool:
    """g - 1 bijective over (Z/modulus)^rank."""
    return gcd(g.minus_identity().det(), modulus) == 1


def _qualifying_search(candidates, G: MatGroup, p: int):
    """First element with order dividing p-1 and bijective g - 1, searching
    by increasing element order and then deterministic position."""
    orders = G.orders()
    for i in G.sorted_by_order():
        x = G.elements[i]
        if x.key() not in candidates:
            continue
        if (p - 1) % orders[i] == 0 and _bijective_shift(x, G.spec.modulus):
            return x
    return None


def sylow_normalizer_criterion(G: MatGroup,
                               compute_cross_check: bool = True) -> CriterionReport:
    """Vanishing when the normalizer of a p-Sylow subgroup contains an
    element g of order dividing p-1 with g - 1 bijective."""
    rep = CriterionReport("sylow-normalizer element of order dividing p-1")
    p = G.spec.p
    H = p_sylow(G)
    rep.add("p-Sylow subgroup computed", "satisfied", f"order {H.order}")
    N = normalizer(G, H)
    rep.add("normalizer computed", "satisfied", f"order {N.order}")
    keys = {x.key() for x in N.elements}
    g = _qualifying_search(keys, G, p)
    if g is None:
        rep.add("normalizer element of order dividing p-1 with g-1 bijective",
                "failed", "no qualifying element")
        cross = h1_loc(G).structure.invariant_factors \
            if compute_cross_check else None
        return rep.finalize("not_applicable", cross)
    rep.add("normalizer element of order dividing p-1 with g-1 bijective",
            "satisfied",
            f"order {element_order(g)}, det(g-1) unit", witness=g)
    return rep.finalize("certified", h1_loc(G).structure.invariant_factors)


def fixed_point_free_criterion(G1: MatGroup,
                               Gn: Optional[MatGroup] = None) -> CriterionReport:
    """Vanishing at every level from mod-p data: an element of G1 of order
    dividing p-1 fixing no nonzero vector, plus H^1(G1, M) = 0.  When the
    full-level group is supplied its H^1_loc is computed and must vanish."""
    rep = CriterionReport("fixed-point-free element mod p with trivial H^1")
    p = G1.spec.p
    if G1.spec.n != 1:
        raise PreconditionError("G1 is a group mod p")
    g = _qualifying_search({x.key() for x in G1.elements}, G1, p)
    if g is None:
        rep.add("element of order dividing p-1 fixing nothing nonzero",
                "failed", "no qualifying element")
    else:
        rep.add("element of order dividing p-1 fixing nothing nonzero",
                "satisfied", f"order {element_order(g)}", witness=g)
    h1_group = h1(G1)
    if h1_group.is_trivial:
        rep.add("H^1(G1, M) = 0", "satisfied")
    else:
        rep.add("H^1(G1, M) = 0", "failed", h1_group.describe())
    if g is None or not h1_group.is_trivial:
        cross = h1_loc(Gn).structure.invariant_factors if Gn is not None else None
        return rep.finalize("not_applicable", cross)
    cross = h1_loc(Gn).structure.invariant_factors if Gn is not None else None
    return rep.finalize("certified", cross)


def lift_qualifying_element(G: MatGroup, g1: Mat) -> Mat:
    """Lift a qualifying mod-p element to a qualifying element mod p^n.

    g1 must normalize a p-Sylow of the mod-p image, have order dividing p-1
    and bijective g1 - 1.  The lift normalizes a Sylow of G, keeps order
    dividing p-1, reduces to g1 mod p, and g - 1 stays bijective (its
    determinant is a unit already mod p).
    """
    spec = G.spec
    p = spec.p
    if spec.n == 1:
        if g1 not in G:
            raise PreconditionError("g1 is an element of G")
        return g1
    Q = G.reduce_mod(1)
    if g1 not in Q:
        raise PreconditionError("g1 is an element of the mod-p image of G")
    t = element_order(g1)
    if (p - 1) % t != 0:
        raise PreconditionError("order of g1 divides p-1",
                                f"order(g1) = {t}")
    if not _bijective_shift(g1, p):
        raise PreconditionError("g1 - 1 is bijective mod p")
    HQ = p_sylow(Q)
    g1i = g1.inv()
    if not all(g1.mul(h).mul(g1i) in HQ for h in HQ.generators):
        raise PreconditionError("g1 normalizes a p-Sylow of the mod-p image",
                                "the deterministic Sylow is not normalized")
    # preimage of the mod-p Sylow is a p-Sylow of G (the reduction kernel is
    # a p-group), so the coset correction happens inside G
    N = MatGroup.from_elements(
        [x for x in G.elements if x.reduce_mod(p).key() ==
         Mat.identity(spec.rank, p).key()], spec)
    H = MatGroup.from_elements(
        [x for x in G.elements if x.reduce_mod(p) in HQ], spec)
    h0 = next(x for x in G.elements if x.reduce_mod(p).key() == g1.key())
    h = lift_normalizer(G, N, H, h0)
    o = element_order(h)
    a = 0
    while o % p == 0:
        o //= p
        a += 1
    if a == 0:
        g = h
    else:
        # exponent p^k with p^k = 1 mod t keeps the reduction equal to g1
        # while killing the p-part of the order
        e0 = 1
        while pow(p, e0, t) != 1 % t:
            e0 += 1
        k = e0
        while k < a:
            k += e0
        g = h.pow(p ** k)
    certify((p - 1) % element_order(g) == 0,
            "lift order does not divide p-1 (internal)")
    certify(g.reduce_mod(p).key() == g1.key(),
            "lift does not reduce to g1 (internal)")
    certify(_bijective_shift(g, spec.modulus),
            "lift g-1 not bijective (internal)")
    gi = g.inv()
    certify(all(g.mul(x).mul(gi) in H for x in H.generators),
            "lift does not normalize the Sylow (internal)")
    return g


def similitude_criterion(G1: MatGroup) -> CriterionReport:
    """Vanishing for similitude groups with surjective multiplier: the
    kernel of the multiplier gives a normal N with G1/N cyclic of order
    p-1, producing a Sylow-normalizer element of order p-1; if that element
    moreover fixes nothing nonzero, the Sylow-normalizer criterion applies."""
    rep = CriterionReport("surjective similitude multiplier")
    spec = G1.spec
    p = spec.p
    if spec.n != 1:
        raise PreconditionError("G1 is a group mod p")
    space = SymplecticSpace(spec)
    mults = {}
    for x in G1.elements:
        nu = similitude_multiplier(x, space)
        if nu is None:
            rep.add("every element is a similitude", "failed",
                    "a non-similitude element exists")
            return rep.finalize("not_applicable")
        mults[x.key()] = nu
    rep.add("every element is a similitude", "satisfied")
    image = set(mults.values())
    if len(image) != p - 1:
        rep.add("multiplier is surjective onto the units", "failed",
                f"image has order {len(image)}")
        return rep.finalize("not_applicable",
                            h1_loc(G1).structure.invariant_factors)
    rep.add("multiplier is surjective onto the units", "satisfied")
    N = MatGroup.from_elements([x for x in G1.elements if mults[x.key()] == 1],
                               spec)
    g, info = sylow_normalizer_element(G1, N)
    i = gcd(factorial(spec.rank), p - 1)
    rep.add("Sylow-normalizer element of order p-1 from the multiplier "
            "kernel", "satisfied",
            f"class order {info['class_order']} (multiple of {(p - 1) // i}, "
            f"i = {i})", witness=g)
    if not _bijective_shift(g, p):
        # only existence is guaranteed; scan the same normalizer for another
        # order-(p-1) element with the class-order certificate that also
        # fixes nothing nonzero
        Nrm = normalizer(G1, p_sylow(G1))
        full = (Nrm.orders() == p - 1) & (
            coset_orders(Nrm, N) % ((p - 1) // i) == 0)
        g = next((Nrm.elements[j] for j in np.flatnonzero(full)
                  if _bijective_shift(Nrm.elements[j], p)), None)
    if g is None:
        rep.add("a constructed element fixes nothing nonzero", "failed",
                "every qualifying normalizer element has a fixed vector")
        return rep.finalize("not_applicable",
                            h1_loc(G1).structure.invariant_factors)
    rep.add("a constructed element fixes nothing nonzero", "satisfied",
            witness=g)
    return rep.finalize("certified", h1_loc(G1).structure.invariant_factors)


def fixed_point_spectrum(G: MatGroup):
    """Per-element dimension of the fixed space ker(sigma - 1) over F_p,
    plus a flag: every element has eigenvalue 1."""
    spec = G.spec
    if spec.n != 1:
        raise PreconditionError("fixed-point spectrum works mod p")
    p, m = spec.p, spec.rank
    from .ringmat import RowSystem
    out = {}
    all_fixed = True
    for x in G.elements:
        B = (x.to_array() - np.eye(m, dtype=np.int64)) % p
        ker = RowSystem(B.T, p, 1).kernel()
        dim = ker.shape[0]
        out[x.key()] = dim
        if dim == 0:
            all_fixed = False
    return out, all_fixed
