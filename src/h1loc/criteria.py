"""Hypothesis checkers that certify vanishing of the first local cohomology.

Each checker searches for the structure its criterion needs (a Sylow
normalizer element of order dividing p-1 acting without nonzero fixed
points, a fixed-point-free element of the mod-p group plus trivial H^1,
a surjective similitude multiplier), reports every hypothesis separately,
and never takes the conclusion on faith: CriterionReport.finalize
cross-checks every verdict against H^1_loc computed directly on the group
the verdict is about (G for the Sylow-normalizer criterion, the
full-level group, else the mod-p group, for the fixed-point-free
criterion, the mod-p group for the similitude criterion), and a
"certified" verdict with a nontrivial direct H^1_loc raises InternalError.
Failing a hypothesis is not an error: the group may still have vanishing
cohomology for other reasons, so the verdict is just "not applicable".

The Sylow normalizer comes from groups.sylow_normalizer_mask.  By Sylow's
theorem every p-element lies in a p-Sylow, and each p-Sylow holds exactly
|G|_p of them, so a group with exactly |G|_p p-elements has one, normal,
p-Sylow, and its normalizer is the whole group with no Sylow ascent;
only a non-normal Sylow is computed and its normalizer tested.  The
search for a qualifying element reads no element order: x^p = x, read
off the cached p-power map, picks its candidates, and powers of the hits
alone give their orders.  The hypothesis H^1 = 0 and the cross-checks
read the cached H^1 and H^1_loc structures of the cohomology system,
with no representative cocycle expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cohomology import _system
from .errors import PreconditionError, certify
from .groups import (MatGroup, _factor, _normalizing, _scalar_power,
                     _semisimple_parts, coset_orders, p_sylow,
                     sylow_normalizer_element, sylow_normalizer_mask)
from .keys import _distinct
from .ringmat import Mat, _bijective_shifts, batch_inv
from .symplectic import SymplecticSpace, similitude_multipliers


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
    # invariant factors of the direct H^1_loc, set by finalize
    cross_check: Optional[tuple] = None

    def add(self, name, status, detail="", witness=None):
        self.items.append(CheckItem(name, status, detail, witness))

    @property
    def certified(self) -> bool:
        return self.conclusion == "certified"

    def finalize(self, conclusion: str, group: MatGroup):
        """Set the conclusion and, as its cross-check, the invariant
        factors of H^1_loc(group, M) from the group's cached cohomology
        system, with no representative cocycle expanded.  A certified
        verdict needs every item satisfied and a trivial H^1_loc, or
        InternalError is raised."""
        cross_check = _system(group).h1loc_structure().invariant_factors
        if conclusion == "certified":
            certify(all(i.status == "satisfied" for i in self.items),
                    "certified with an unsatisfied hypothesis (internal)")
            certify(not cross_check,
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
        desc = " x ".join(f"C{f}" for f in self.cross_check) or "trivial"
        out.append(f"  direct H1_loc: {desc}")
        return out


def _bijective_shift(g: Mat, modulus: int) -> bool:
    """g - 1 bijective over (Z/modulus)^rank."""
    return bool(_bijective_shifts(g.to_array()[None], modulus)[0])


def _qualifying_search(mask, G: MatGroup, p: int):
    """(element, order) for the first element where the boolean mask over
    G's element positions is set with order dividing p-1 and bijective
    g - 1, searching by increasing element order and then deterministic
    position; None if there is none.

    No element order of G is read.  The candidates are the masked x with
    x^(p-1) = 1, that is x^p = x: the fixed positions of G's cached p-power
    map, which the Sylow search has already filled whenever p divides |G|;
    det(g - 1) is tested on all of them at once.  Among the hits, the
    least divisor d of p-1 with some hit x^d = 1 is the least order, and
    the hits with x^d = 1 are those of order d, so the first of them in
    position order is the element sought.  The identity, at position 0,
    has no bijective g - 1, so it is dropped before the test (the trivial
    group then takes no determinant expansion, exponential in the rank),
    no hit has order 1 and d starts past 1; with no hits nothing is
    powered."""
    q = G.spec.modulus
    X = G.element_array()
    ident = np.eye(G.spec.rank, dtype=np.int64)
    cand = np.flatnonzero(mask[1:]) + 1
    cand = cand[G._power_map(p)[cand] == cand]
    hits = X[cand[_bijective_shifts(X[cand], q)]]
    if not len(hits):
        return None
    for d in _divisors(p - 1)[1:]:
        first = np.flatnonzero(
            (_scalar_power(hits, d, q) == ident).all(axis=(1, 2)))
        if len(first):
            return Mat.from_array(hits[first[0]], q), d
    return None


def _divisors(n: int) -> list:
    """The divisors of n, ascending."""
    divs = [1]
    for ell, a in _factor(n).items():
        divs = [d * ell ** i for d in divs for i in range(a + 1)]
    return sorted(divs)


def sylow_normalizer_criterion(G: MatGroup) -> CriterionReport:
    """Vanishing when the normalizer of a p-Sylow subgroup contains an
    element g of order dividing p-1 with g - 1 bijective."""
    rep = CriterionReport("sylow-normalizer element of order dividing p-1")
    p = G.spec.p
    sylow_order, mask = sylow_normalizer_mask(G)
    rep.add("p-Sylow subgroup computed", "satisfied", f"order {sylow_order}")
    rep.add("normalizer computed", "satisfied", f"order {int(mask.sum())}")
    found = _qualifying_search(mask, G, p)
    if found is None:
        rep.add("normalizer element of order dividing p-1 with g-1 bijective",
                "failed", "no qualifying element")
        return rep.finalize("not_applicable", G)
    g, order = found
    rep.add("normalizer element of order dividing p-1 with g-1 bijective",
            "satisfied", f"order {order}, det(g-1) unit", witness=g)
    return rep.finalize("certified", G)


def fixed_point_free_criterion(G1: MatGroup,
                               Gn: Optional[MatGroup] = None) -> CriterionReport:
    """Vanishing at every level from mod-p data: an element of G1 of order
    dividing p-1 fixing no nonzero vector, plus H^1(G1, M) = 0.  The
    verdict is cross-checked against the direct H^1_loc of the full-level
    group Gn when it is given, else of G1; a certified verdict needs it
    trivial."""
    rep = CriterionReport("fixed-point-free element mod p with trivial H^1")
    p = G1.spec.p
    if G1.spec.n != 1:
        raise PreconditionError("G1 is a group mod p")
    found = _qualifying_search(np.ones(G1.order, dtype=bool), G1, p)
    if found is None:
        rep.add("element of order dividing p-1 fixing nothing nonzero",
                "failed", "no qualifying element")
    else:
        rep.add("element of order dividing p-1 fixing nothing nonzero",
                "satisfied", f"order {found[1]}", witness=found[0])
    h1_group = _system(G1).h1_structure()
    if h1_group.is_trivial:
        rep.add("H^1(G1, M) = 0", "satisfied")
    else:
        rep.add("H^1(G1, M) = 0", "failed", h1_group.describe())
    conclusion = ("certified" if found is not None and h1_group.is_trivial
                  else "not_applicable")
    return rep.finalize(conclusion, G1 if Gn is None else Gn)


def lift_qualifying_element(G: MatGroup, g1: Mat) -> Mat:
    """Lift a qualifying mod-p element to a qualifying element mod p^n.

    g1 must normalize a p-Sylow of the mod-p image, have order dividing p-1
    and bijective g1 - 1.  The lift normalizes a Sylow of G, keeps order
    dividing p-1, reduces to g1 mod p, and g - 1 stays bijective (its
    determinant is a unit already mod p).

    The reduction kernel is a p-group, so H, the full preimage of the mod-p
    Sylow HQ, is a p-Sylow of G.  The first h0 in G reducing to g1
    normalizes H: h0 H h0^-1 reduces to g1 HQ g1^-1 = HQ, and H holds
    everything that reduces into HQ.  The lift is the semisimple part of
    h0 (groups._semisimple_parts), a power of h0, so it normalizes H too.
    It reduces to the semisimple part of g1, which is g1 itself, and no
    element of order prime to p but 1 lies in the kernel, so its order is
    that of g1.  H is kept as a mask over G's positions, never closed: the
    last certificate conjugates every element of H by the lift and finds
    each conjugate in G and in H.
    """
    spec = G.spec
    p, q = spec.p, spec.modulus
    if spec.n == 1:
        if g1 not in G:
            raise PreconditionError("g1 is an element of G")
        return g1
    Q = G.reduce_mod(1)
    if g1 not in Q:
        raise PreconditionError("g1 is an element of the mod-p image of G")
    qpos = np.array([Q.index_of(g1)])
    t = int(Q.orders()[qpos[0]])
    if (p - 1) % t != 0:
        raise PreconditionError("order of g1 divides p-1",
                                f"order(g1) = {t}")
    if not _bijective_shift(g1, p):
        raise PreconditionError("g1 - 1 is bijective mod p")
    HQ = p_sylow(Q)
    QX = Q.element_array()
    if not _normalizing(QX[qpos], QX[Q.inverse_indices()[qpos]], HQ)[0]:
        raise PreconditionError("g1 normalizes a p-Sylow of the mod-p image",
                                "the deterministic Sylow is not normalized")
    X = G.element_array()
    red = Q.lookup(X % p)                    # position of x mod p in Q
    in_H = (HQ.lookup(QX) >= 0)[red]         # H as a mask over G
    gs = _semisimple_parts(G, X[np.argmax(red == qpos[0]), None])
    g = Mat.from_array(gs[0], q)
    certify((_scalar_power(gs, p - 1, q) == np.eye(spec.rank)).all(),
            "lift order does not divide p-1 (internal)")
    certify(g.reduce_mod(p).key() == g1.key(),
            "lift does not reduce to g1 (internal)")
    certify(_bijective_shift(g, q), "lift g-1 not bijective (internal)")
    # a conjugate outside G has position -1 and fails before in_H is read
    conj = G.lookup(gs @ X[in_H] % q @ batch_inv(gs, q) % q)
    certify((conj >= 0).all() and in_H[conj].all(),
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
    mults = similitude_multipliers(G1.element_array(), SymplecticSpace(spec))
    if (mults == 0).any():
        rep.add("every element is a similitude", "failed",
                "a non-similitude element exists")
        return rep.finalize("not_applicable", G1)
    rep.add("every element is a similitude", "satisfied")
    image = _distinct(mults)
    if len(image) != p - 1:
        rep.add("multiplier is surjective onto the units", "failed",
                f"image has order {len(image)}")
        return rep.finalize("not_applicable", G1)
    rep.add("multiplier is surjective onto the units", "satisfied")
    N = G1.subgroup(mults == 1)
    g, info = sylow_normalizer_element(G1, N)
    i = info["i"]
    rep.add("Sylow-normalizer element of order p-1 from the multiplier "
            "kernel", "satisfied",
            f"class order {info['class_order']} (multiple of {(p - 1) // i}, "
            f"i = {i})", witness=g)
    if not _bijective_shift(g, p):
        # only existence is guaranteed; scan the same normalizer, as a mask
        # over G1's positions, for another order-(p-1) element with the
        # class-order certificate that also fixes nothing nonzero
        full = sylow_normalizer_mask(G1)[1] & (G1.orders() == p - 1) & (
            coset_orders(G1, N) % ((p - 1) // i) == 0)
        hits = np.flatnonzero(full)
        hits = hits[_bijective_shifts(G1.element_array()[hits], p)]
        g = G1.element(hits[0]) if len(hits) else None
    if g is None:
        rep.add("a constructed element fixes nothing nonzero", "failed",
                "every qualifying normalizer element has a fixed vector")
        return rep.finalize("not_applicable", G1)
    rep.add("a constructed element fixes nothing nonzero", "satisfied",
            witness=g)
    return rep.finalize("certified", G1)
