"""Criterion checkers: worked cases and report invariants."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h1loc
import oracles
from corpus import M, semisimple_groups
from oracles import fixed_point_spectrum
from h1loc.counterexample import build
from h1loc.criteria import (fixed_point_free_criterion,
                            lift_qualifying_element, similitude_criterion,
                            sylow_normalizer_criterion)
from h1loc.errors import InternalError, PreconditionError
from h1loc import criteria, groups
from h1loc.groups import (MatGroup, _normalizer_mask, _scalar_power,
                          element_order, p_sylow)
from h1loc.ringmat import Mat, ModuleSpec, _bijective_shifts


def test_fixed_point_free_criterion_diag():
    spec = ModuleSpec(5, 1, 2)
    G1 = MatGroup.close([M([[2, 0], [0, 3]], 5)], spec)
    rep = fixed_point_free_criterion(G1)
    assert rep.certified
    assert all(i.status == "satisfied" for i in rep.items)


def test_fixed_point_free_criterion_on_family_reduction():
    inst = build(5)
    Q = inst.G2.reduce_mod(1)
    assert Q.order == 3  # the p-part reduces to the identity
    rep = fixed_point_free_criterion(Q, inst.G2)
    assert not rep.certified
    # order-3 twist: 3 does not divide p-1 = 4, so the search fails
    assert rep.items[0].status == "failed"
    assert rep.cross_check == (5, 5)


def test_finalize_cross_checks_the_group_it_is_given():
    """finalize computes the direct H^1_loc itself: a report whose items
    are all satisfied cannot be certified on the p = 5 family group, whose
    H^1_loc is C5 x C5, and every verdict carries the invariant factors."""
    G2 = build(5).G2
    rep = criteria.CriterionReport("every item satisfied")
    rep.add("a hypothesis", "satisfied")
    with pytest.raises(InternalError, match="direct H\\^1_loc"):
        rep.finalize("certified", G2)
    assert rep.finalize("not_applicable", G2).cross_check == (5, 5)
    D = MatGroup.close([M([[2, 0], [0, 3]], 5)], ModuleSpec(5, 1, 2))
    assert rep.finalize("certified", D).cross_check == ()


def test_fixed_point_free_criterion_trivial_group():
    spec = ModuleSpec(5, 1, 2)
    T = MatGroup.close([], spec)
    rep = fixed_point_free_criterion(T)
    # the identity fixes every nonzero vector
    assert rep.items[0].status == "failed"
    assert not rep.certified
    assert rep.cross_check == ()


def test_sylow_normalizer_criterion_positive():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([M([[2, 0], [0, 3]], 25), M([[1, 5], [0, 1]], 25)],
                       spec)
    rep = sylow_normalizer_criterion(G)
    assert rep.certified
    assert rep.cross_check == ()
    g = rep.items[-1].witness
    assert (5 - 1) % element_order(g) == 0


def test_sylow_normalizer_criterion_family_not_applicable():
    inst = build(5)
    rep = sylow_normalizer_criterion(inst.G2)
    assert rep.conclusion == "not_applicable"
    assert rep.cross_check == (5, 5)


def test_sylow_normalizer_criterion_cyclic_p_group():
    # no qualifying element (identity is not bijective minus one), yet the
    # direct computation vanishes: conclusions stay honest
    spec = ModuleSpec(5, 2, 2)
    C = MatGroup.close([M([[1, 1], [0, 1]], 25)], spec)
    rep = sylow_normalizer_criterion(C)
    assert rep.conclusion == "not_applicable"
    assert rep.cross_check == ()


def test_lift_qualifying_element_n1_identity_case():
    spec = ModuleSpec(5, 1, 2)
    g1 = M([[2, 0], [0, 3]], 5)
    G1 = MatGroup.close([g1], spec)
    assert lift_qualifying_element(G1, g1).key() == g1.key()


def test_lift_qualifying_element_mod25():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([M([[2, 0], [0, 3]], 25), M([[1, 5], [0, 1]], 25)],
                       spec)
    g1 = M([[2, 0], [0, 3]], 5)
    g = lift_qualifying_element(G, g1)
    assert (5 - 1) % element_order(g) == 0
    assert g.reduce_mod(5).key() == g1.key()
    import math
    assert math.gcd(g.minus_identity().det(), 25) == 1


def test_lift_qualifying_element_preconditions():
    spec = ModuleSpec(5, 2, 2)
    borel = MatGroup.close([M([[2, 0], [0, 3]], 25), M([[1, 1], [0, 1]], 25)],
                           spec)
    with pytest.raises(PreconditionError, match="order"):
        lift_qualifying_element(borel, M([[1, 1], [0, 1]], 5))
    with pytest.raises(PreconditionError, match="bijective"):
        lift_qualifying_element(borel, Mat.identity(2, 5))
    with pytest.raises(PreconditionError, match="element of"):
        lift_qualifying_element(borel, M([[0, 1], [1, 0]], 5))


def lift_by_products(G, N, H, g):
    """lift_normalizer over Mat elements, with HN the set of every product
    n h: g itself when it normalizes H, else n^-1 g for the first x in HN,
    in key order, with g^-1 x normalizing H, and the first h in H's element
    order with n = x h^-1 in N."""
    in_H = {h.key() for h in H.elements}
    in_N = {n.key() for n in N.elements}

    def normalizes(y):
        yi = y.inv()
        return all(y.mul(h).mul(yi).key() in in_H for h in H.generators)
    if normalizes(g):
        return g
    HN = {x.key(): x for x in (n.mul(h) for n in N.elements
                               for h in H.elements)}
    gi = g.inv()
    x = next(HN[k] for k in sorted(HN) if normalizes(gi.mul(HN[k])))
    n = next(n for n in (x.mul(h.inv()) for h in H.elements)
             if n.key() in in_N)
    return n.inv().mul(g)


def test_lift_normalizer_matches_products_of_n_and_h(monkeypatch):
    """lift_normalizer builds HN as the closure <N, H>; the one call the
    criteria make on the GL2(F_5) similitude case returns the element that
    HN built from every product n h gives, as does a direct call with H
    outside N: the quaternion N of GL2(F_3), the Sylow H of order 3 and g
    in N, where the search runs since N moves H (HN = SL2(F_3) has four
    3-Sylows).  The mod-25 lift_qualifying_element case makes no call."""
    calls = []
    real = groups.lift_normalizer

    def recorded(G, N, H, g):
        calls.append((G, N, H, g, real(G, N, H, g)))
        return calls[-1][-1]
    monkeypatch.setattr(groups, "lift_normalizer", recorded)
    GL2 = MatGroup.close([M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)],
                         ModuleSpec(5, 1, 2))
    assert similitude_criterion(GL2).certified
    G = MatGroup.close([M([[2, 0], [0, 3]], 25), M([[1, 5], [0, 1]], 25)],
                       ModuleSpec(5, 2, 2))
    lift_qualifying_element(G, M([[2, 0], [0, 3]], 5))
    assert len(calls) == 1
    spec3 = ModuleSpec(3, 1, 2)
    GL23 = MatGroup.close([M([[2, 0], [0, 1]], 3), M([[2, 1], [2, 0]], 3)],
                          spec3)
    Q8 = MatGroup.close([M([[0, 1], [2, 0]], 3), M([[1, 1], [1, 2]], 3)],
                        spec3)
    H = MatGroup.close([M([[1, 1], [0, 1]], 3)], spec3)
    assert (GL23.order, Q8.order) == (48, 8)
    assert not H.is_subgroup_of(Q8)
    g = M([[0, 1], [2, 0]], 3)
    assert g.mul(M([[1, 1], [0, 1]], 3)).mul(g.inv()) not in H
    recorded(GL23, Q8, H, g)
    for G, N, H, g, got in calls:
        assert got == lift_by_products(G, N, H, g)


def test_lift_matches_the_coset_correction_reference():
    """lift_qualifying_element, the semisimple part of the first h0 over
    g1, equals the reference that ran h0 through lift_normalizer and
    stripped the p-part of its order by p-th powers, for every g1 of the
    mod-p image with order dividing p-1, bijective g1 - 1 and normalizing
    the mod-p Sylow, in the Borel and <[[2, 1], [0, 2]], [[1, p], [0, 1]]>
    groups mod 9, 27, 25 and 49.  Each of those lifts had a p-part to
    strip, so the one power is what makes them agree."""
    lifts = stripped = 0
    for label, G in semisimple_groups():
        p = G.spec.p
        Q = G.reduce_mod(1)
        X = Q.element_array()
        qualifying = ((_scalar_power(X, p - 1, p) == np.eye(2)).all(
            axis=(1, 2)) & _bijective_shifts(X, p)
                      & _normalizer_mask(Q, p_sylow(Q)))
        for i in np.flatnonzero(qualifying):
            g1 = Q.element(i)
            want, strip = oracles.reference_lift_qualifying_element(G, g1)
            assert lift_qualifying_element(G, g1) == want, label
            lifts += 1
            stripped += strip
    assert lifts == stripped == 187


def _qualifying(Q):
    """Positions in the mod-p image Q of the g1 that lift_qualifying_element
    takes: order dividing p-1, bijective g1 - 1, normalizing the Sylow."""
    p, X = Q.spec.p, Q.element_array()
    return np.flatnonzero(
        (_scalar_power(X, p - 1, p) == np.eye(Q.spec.rank)).all(axis=(1, 2))
        & _bijective_shifts(X, p) & _normalizer_mask(Q, p_sylow(Q)))


def test_lifts_share_one_mod_p_image_and_close_no_subgroup(monkeypatch):
    """reduce_mod is cached on its group, so lifting every qualifying
    element of the mod-7 image of the mod-49 Borel (86,436 elements)
    closes that image once, and the Sylow preimage H stays a mask: no
    MatGroup.subgroup call."""
    B = dict(semisimple_groups())["borel mod 49"]
    G = MatGroup.close(B.generator_array(), B.spec)    # no cache filled yet
    closes, subgroups = [], []
    close, subgroup = MatGroup.close, MatGroup.subgroup

    def counting_close(generators, spec, cap=groups.DEFAULT_CAP):
        grp = close(generators, spec, cap)
        closes.append((spec, grp.order))
        return grp

    def counting_subgroup(self, mask):
        subgroups.append(self.order)
        return subgroup(self, mask)

    monkeypatch.setattr(MatGroup, "close", staticmethod(counting_close))
    monkeypatch.setattr(MatGroup, "subgroup", counting_subgroup)
    Q = G.reduce_mod(1)
    assert G.reduce_mod(1) is Q
    lifts = [lift_qualifying_element(G, Q.element(i)) for i in _qualifying(Q)]
    assert len(lifts) > 20 and subgroups == []
    assert closes.count((Q.spec, Q.order)) == 1


def test_lift_fails_a_conjugate_outside_g(monkeypatch):
    """The normalizing certificate reads H as a mask over G's positions.
    In G = <[[1, 1], [0, 1]], diag(7, 18), [[6, 1], [0, 1]]> mod 25, of
    order 500, the lift of diag(2, 3) is diag(7, 18).  Conjugated by
    [[1, 0], [5, 1]] it still reduces to g1 with order 4 and bijective
    g - 1, but it takes [[1, 1], [0, 1]] in H to [[11, 24], [0, 16]],
    outside G, at position -1.  G's last element lies in H, so reading the
    mask at -1 would pass: the certificate must fail on the -1 itself."""
    G = MatGroup.close([M([[1, 1], [0, 1]], 25), M([[7, 0], [0, 18]], 25),
                        M([[6, 1], [0, 1]], 25)], ModuleSpec(5, 2, 2))
    g1 = M([[2, 0], [0, 3]], 5)
    assert G.order == 500
    assert G.element(-1).reduce_mod(5) in p_sylow(G.reduce_mod(1))
    assert lift_qualifying_element(G, g1) == M([[7, 0], [0, 18]], 25)
    k, k_inv = np.array([[1, 0], [5, 1]]), np.array([[1, 0], [20, 1]])
    parts = criteria._semisimple_parts
    monkeypatch.setattr(criteria, "_semisimple_parts",
                        lambda G, arr: k @ parts(G, arr) % 25 @ k_inv % 25)
    with pytest.raises(InternalError, match="does not normalize"):
        lift_qualifying_element(G, g1)


def test_similitude_criterion_gl2():
    spec = ModuleSpec(5, 1, 2)
    GL2 = MatGroup.close([M([[2, 0], [0, 1]], 5), M([[4, 1], [4, 0]], 5)],
                         spec)
    rep = similitude_criterion(GL2)
    assert rep.certified
    assert rep.cross_check == ()
    item = next(i for i in rep.items if "Sylow-normalizer" in i.name)
    assert "i = 2" in item.detail


def test_similitude_criterion_small_diag_not_certified():
    spec = ModuleSpec(5, 1, 2)
    D = MatGroup.close([M([[2, 0], [0, 1]], 5)], spec)
    rep = similitude_criterion(D)
    assert rep.conclusion == "not_applicable"
    # multiplier happens to be surjective (det powers), but every
    # qualifying element fixes a vector
    assert rep.items[-1].status == "failed"


def test_similitude_criterion_multiplier_not_surjective():
    spec = ModuleSpec(5, 1, 2)
    SL2 = MatGroup.close([M([[1, 1], [0, 1]], 5), M([[1, 0], [1, 1]], 5)],
                         spec)
    rep = similitude_criterion(SL2)
    assert rep.conclusion == "not_applicable"
    assert any(i.name.startswith("multiplier") and i.status == "failed"
               for i in rep.items)


def test_fixed_point_spectrum_examples():
    spec = ModuleSpec(5, 1, 2)
    T = MatGroup.close([], spec)
    sm, flag = fixed_point_spectrum(T)
    assert list(sm.values()) == [2] and flag
    U = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    _, flag_u = fixed_point_spectrum(U)
    assert flag_u
    Neg = MatGroup.close([M([[4, 0], [0, 4]], 5)], spec)
    _, flag_n = fixed_point_spectrum(Neg)
    assert not flag_n


def test_report_lines_render():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([M([[2, 0], [0, 3]], 25)], spec)
    rep = sylow_normalizer_criterion(G)
    text = "\n".join(rep.lines())
    assert "criterion" in text and "conclusion" in text


def test_criteria_sweep_sound_under_python_O():
    root = Path(__file__).resolve().parent.parent
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", str(root / "scripts" / "criteria_sweep.py"),
         "--p", "5"], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert " 0 unsound (must be 0)" in proc.stdout
    assert "!!" not in proc.stdout
