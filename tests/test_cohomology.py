"""Cocycle spaces, H^1, H^1_loc and the structural maps between them."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h1loc

from corpus import M, small_oracle_groups, twist_corpus
from h1loc.cohomology import (Cocycle, class_order, coboundaries,
                              cocycle_from_generator_values, cocycle_space,
                              eigenvalue_ratio_vanishing, h1, h1_loc, inflate,
                              is_coboundary, mod_p_projection, restrict,
                              satisfies_local_conditions, sizes,
                              torsion_isomorphism_check)
from h1loc.counterexample import build, family_matrix
from h1loc.errors import InputError, PreconditionError
from h1loc.groups import MatGroup
from h1loc.oracles import cocycle_counts
from h1loc.ringmat import Mat, ModuleSpec, RowSystem


def test_trivial_group_everything_trivial():
    G = MatGroup.close([], ModuleSpec(5, 1, 2))
    assert cocycle_space(G) == []
    assert h1(G).is_trivial and h1_loc(G).is_trivial


def test_unipotent_mod5_counts():
    # frozen from the enumeration oracle: (|Z1|, |B1|, |H1|, |H1_loc|)
    spec = ModuleSpec(5, 1, 2)
    U = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    assert cocycle_counts(U) == (25, 5, 5, 1)
    assert sizes(U) == (25, 5, 5, 1)
    assert h1(U).structure.invariant_factors == (5,)
    assert h1_loc(U).is_trivial  # strict inclusion H1_loc < H1 witness


def test_neg_identity_mod3():
    spec = ModuleSpec(3, 1, 2)
    G = MatGroup.close([M([[2, 0], [0, 2]], 3)], spec)
    assert h1(G).is_trivial  # |G| invertible mod p forces vanishing
    cb = coboundaries(G)
    m_vec = (1, 0)
    g = G.elements[1]
    expect = tuple((x - y) % 3 for x, y in
                   zip(g.apply(m_vec), m_vec))
    assert expect == (1, 0)  # (-2, 0) mod 3
    assert any(Z.at(g) == expect for Z in cb)


def test_every_generator_satisfies_identity_exhaustively():
    for label, G in small_oracle_groups()[:12]:
        for Z in cocycle_space(G):
            assert Z.is_valid(), label


def test_b1_inside_z1loc_inside_z1():
    for label, G in small_oracle_groups():
        z1, b1, _, _ = sizes(G)
        from h1loc.cohomology import _system
        sys = _system(G, None)
        span = RowSystem(sys.z1_gens(), sys.p, sys.j)
        for row in sys.b1_gens():
            assert span.contains(row), label
        locspan = RowSystem(sys.z1loc_gens(), sys.p, sys.j)
        for row in sys.z1loc_gens():
            assert span.contains(row), label
        for row in sys.b1_gens():
            assert locspan.contains(row), label


def test_oracle_equivalence_small_corpus():
    for label, G in small_oracle_groups():
        assert sizes(G) == cocycle_counts(G), label


def test_cyclic_groups_have_trivial_h1_loc():
    seen = set()
    for label, G in small_oracle_groups():
        for x in G.elements:
            C = MatGroup.close([x], G.spec)
            key = (G.spec, frozenset(m.key() for m in C.elements))
            if key in seen:
                continue
            seen.add(key)
            assert h1_loc(C).is_trivial, (label, x.entries)


def test_family_cocycle_membership_and_class():
    inst = build(5)
    Z = inst.Z
    assert Z.is_valid()
    # Z lies in the computed cocycle space
    from h1loc.cohomology import _system
    sys = _system(inst.G2, None)
    assert RowSystem(sys.z1_gens(), 5, 2).contains(Z.generator_vector())
    assert class_order(Z) == 5
    ok, _ = satisfies_local_conditions(Z)
    assert ok
    assert is_coboundary(Z) is None


def test_is_coboundary_roundtrip():
    spec = ModuleSpec(5, 2, 2)
    G = MatGroup.close([M([[2, 0], [0, 3]], 25), M([[1, 5], [0, 1]], 25)],
                       spec)
    for m_vec in [(3, 7), (0, 0), (24, 1)]:
        vals = {x.key(): tuple((a - b) % 25 for a, b in
                               zip(x.apply(m_vec), m_vec))
                for x in G.elements}
        Z = Cocycle(G, list(vals.values()))
        assert Z.is_valid()
        got = is_coboundary(Z)
        assert got is not None
        again = {x.key(): tuple((a - b) % 25 for a, b in
                                zip(x.apply(got), got))
                 for x in G.elements}
        assert again == {x.key(): Z.at(x) for x in G.elements}


def test_zero_cocycle_behaviour():
    spec = ModuleSpec(5, 1, 2)
    U = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    Z0 = Cocycle(U, [(0, 0) for x in U.elements])
    assert is_coboundary(Z0) == (0, 0)
    ok, wit = satisfies_local_conditions(Z0)
    assert ok and all(w == (0, 0) for w in wit.values())


def test_restrict_of_family_cocycle_to_twist_is_trivial():
    inst = build(5)
    Cg = MatGroup.close([inst.g], inst.spec)
    R = restrict(inst.Z, Cg)
    assert R.at(inst.g) == (0, 0)
    assert is_coboundary(R) is not None
    T = MatGroup.close([], inst.spec)
    assert restrict(inst.Z, T).is_zero()


def test_restriction_to_every_cyclic_subgroup_of_family_is_coboundary():
    inst = build(5)
    seen = set()
    for x in inst.G2.elements:
        C = MatGroup.close([x], inst.spec)
        key = frozenset(m.key() for m in C.elements)
        if key in seen:
            continue
        seen.add(key)
        assert is_coboundary(restrict(inst.Z, C)) is not None


def test_generator_value_extension_rejects_inconsistent():
    # <diag(2,1)> mod 5: the norm matrix is diag(0, 4), so any assignment
    # with a nonzero second coordinate cannot extend to a cocycle
    spec = ModuleSpec(5, 1, 2)
    g = M([[2, 0], [0, 1]], 5)
    G = MatGroup.close([g], spec)
    with pytest.raises(InputError):
        cocycle_from_generator_values(G, {g.key(): (0, 1)})
    Z = cocycle_from_generator_values(G, {g.key(): (1, 0)})
    assert Z.is_valid()


def test_generator_value_of_wrong_length_is_an_input_error():
    spec = ModuleSpec(5, 1, 2)
    g = M([[1, 1], [0, 1]], 5)
    G = MatGroup.close([g], spec)
    with pytest.raises(InputError, match="generator 1"):
        cocycle_from_generator_values(G, {g.key(): (1, 0, 0)})


def test_missing_generator_value_is_an_input_error():
    spec = ModuleSpec(5, 1, 2)
    G = MatGroup.close([M([[1, 1], [0, 1]], 5)], spec)
    with pytest.raises(InputError, match="generator 1"):
        cocycle_from_generator_values(G, {})


def test_inflation_restriction_exactness_on_torsion():
    # groups mod p^2 with H = reduction kernel, coefficients in the p-torsion
    cases = 0
    for label, p, g, G in twist_corpus():
        if G.order > 800 or G.spec.p != 5:
            continue
        Q, project = mod_p_projection(G)
        if Q.order == G.order:   # trivial kernel: nothing to test
            continue
        cases += 1
        qh1 = h1(Q, module_exponent=1)
        gh1 = h1(G, module_exponent=1)
        infl = [inflate(Zq, G, project) for Zq in qh1.representatives]
        from h1loc.cohomology import _system
        sys1 = _system(G, 1)
        b1 = sys1.b1_gens()
        kernel_elems = set()
        image_elems = set()
        factors = gh1.structure.invariant_factors
        reps = gh1.representatives
        H_elems = [x for x in G.elements
                   if x.reduce_mod(p).key() == Mat.identity(
                       G.spec.rank, p).key()]
        Hgrp = MatGroup.from_elements(H_elems, G.spec)
        for coeffs in itertools.product(*[range(f) for f in factors]):
            Z = None
            for c, rep in zip(coeffs, reps):
                term = rep.scale(c)
                Z = term if Z is None else Z.add(term)
            if Z is None:
                continue
            zvec = tuple(Z.generator_vector())
            # restriction to H is zero iff values vanish on H (H acts
            # trivially on the torsion coefficients, so B^1(H) = 0)
            if all(not any(Z.at(x)) for x in H_elems):
                kernel_elems.add(zvec)
            amb = np.vstack([np.array([W.generator_vector() for W in infl],
                                      dtype=np.int64), b1]) \
                if infl else b1
            if RowSystem(amb, p, 1).contains(np.array(zvec)):
                image_elems.add(zvec)
        assert kernel_elems == image_elems, label
        # inflate-then-restrict is the zero class
        for W in infl:
            RW = restrict(W, Hgrp)
            assert is_coboundary(RW) is not None, label
    assert cases >= 3


def test_coboundary_triviality_criterion_on_classes():
    # when H^1(G/H, M[p]) = 0, some delta - 1 is bijective, and a class
    # restricts to a coboundary on H, that class is trivial
    from math import gcd
    checked = 0
    for label, p, g, G in twist_corpus():
        if G.order > 400:
            continue
        Q, project = mod_p_projection(G)
        if not h1(Q, module_exponent=1).is_trivial:
            continue
        delta = next((x for x in G.elements
                      if gcd(x.minus_identity().det(), G.spec.modulus) == 1),
                     None)
        if delta is None:
            continue
        H_elems = [x for x in G.elements
                   if x.reduce_mod(p).key() == Mat.identity(
                       G.spec.rank, p).key()]
        Hgrp = MatGroup.from_elements(H_elems, G.spec)
        full = h1(G)
        for coeffs in itertools.product(
                *[range(f) for f in full.structure.invariant_factors]):
            Z = None
            for c, rep in zip(coeffs, full.representatives):
                term = rep.scale(c)
                Z = term if Z is None else Z.add(term)
            if Z is None:
                continue
            if is_coboundary(restrict(Z, Hgrp)) is not None:
                checked += 1
                assert is_coboundary(Z) is not None, label
    assert checked > 10


def test_torsion_isomorphism_on_family():
    inst = build(5)
    # delta = g: det(g - 1) = 3, a unit mod 25
    rep = torsion_isomorphism_check(inst.G2, inst.g)
    assert rep.ok
    with pytest.raises(PreconditionError):
        torsion_isomorphism_check(inst.G2, family_matrix(5, 1, 0))


def test_torsion_isomorphism_across_corpus():
    from math import gcd
    hits = 0
    for label, p, g, G in twist_corpus():
        if G.order > 2000:
            continue
        delta = next((x for x in G.elements
                      if gcd(x.minus_identity().det(), G.spec.modulus) == 1),
                     None)
        if delta is None:
            continue
        rep = torsion_isomorphism_check(G, delta)
        assert rep.ok, label
        hits += 1
    assert hits >= 20


def test_eigenvalue_ratio_examples():
    from h1loc.cohomology import eigenvalue_ratio_condition
    # diag(2,3): ratios {1, 4}; neither 1 nor 4 is an eigenvalue
    holds, off = eigenvalue_ratio_condition(M([[2, 0], [0, 3]], 5), 5)
    assert holds and off is None
    # diag(1,2): ratio 2/1 = 2 is an eigenvalue
    holds2, off2 = eigenvalue_ratio_condition(M([[1, 0], [0, 2]], 5), 5)
    assert holds2 is False and off2 is not None
    # diag(2,4): ratios {3, 2}; 2 is an eigenvalue
    holds3, off3 = eigenvalue_ratio_condition(M([[2, 0], [0, 4]], 5), 5)
    assert holds3 is False
    assert off3[2] == (2,)

    spec = ModuleSpec(5, 1, 2)
    G = MatGroup.close([M([[2, 0], [0, 3]], 5)], spec)
    rep = eigenvalue_ratio_vanishing(G)
    assert rep.verdict == "certified"
    G2 = MatGroup.close([M([[1, 0], [0, 2]], 5)], spec)
    rep2 = eigenvalue_ratio_vanishing(G2)
    assert rep2.verdict != "certified"   # no bijective delta (fixes e1)
    G3 = MatGroup.close([M([[2, 0], [0, 4]], 5)], spec)
    rep3 = eigenvalue_ratio_vanishing(G3)
    assert rep3.verdict == "not_applicable"
    assert rep3.ratio_condition is False  # ratio 2 is an eigenvalue


def test_h1_representative_orders_match_factors():
    for label, G in small_oracle_groups()[:16]:
        res = h1(G)
        for f, Z in zip(res.structure.invariant_factors, res.representatives):
            assert class_order(Z) == f, label


def test_h1_loc_agrees_with_cyclic_restriction_characterization():
    # the per-element solvability definition and the "restriction to every
    # cyclic subgroup bounds" definition cut out the same subgroup of H^1
    for label, G in small_oracle_groups():
        if G.order > 24:
            continue
        full = h1(G)
        loc_order = h1_loc(G).order
        cyclic_subs = []
        seen = set()
        for x in G.elements:
            C = MatGroup.close([x], G.spec)
            key = frozenset(m.key() for m in C.elements)
            if key not in seen:
                seen.add(key)
                cyclic_subs.append(C)
        count = 0
        for coeffs in itertools.product(
                *[range(f) for f in full.structure.invariant_factors]):
            Z = None
            for c, rep in zip(coeffs, full.representatives):
                term = rep.scale(c)
                Z = term if Z is None else Z.add(term)
            if Z is None:   # trivial H^1: the zero class alone
                count += 1
                continue
            if all(is_coboundary(restrict(Z, C)) is not None
                   for C in cyclic_subs):
                count += 1
        assert count == loc_order, label


def test_h1_loc_subgroup_of_h1_representativewise():
    for label, p, g, G in twist_corpus():
        if G.order > 400:
            continue
        loc = h1_loc(G)
        for f, Z in zip(loc.structure.invariant_factors, loc.representatives):
            ok, _ = satisfies_local_conditions(Z)
            assert ok, label
            assert class_order(Z) == f, label


def test_h1_loc_structure_is_certified_once_per_system(monkeypatch):
    """A second h1_loc on the same (group, j) reuses the certified
    structure: no second B^1 certificate or Smith quotient, but a new
    CohomGroup and a new representatives list each time."""
    from h1loc import cohomology
    calls = []
    real = cohomology.quotient_structure

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(cohomology, "quotient_structure", counting)
    G = build(5).G2
    first, second = h1_loc(G), h1_loc(G)
    assert len(calls) == 1
    assert first is not second
    assert first.representatives is not second.representatives
    assert first.structure == second.structure
    assert [Z.values.tolist() for Z in first.representatives] == \
        [Z.values.tolist() for Z in second.representatives]
    h1_loc(G, module_exponent=1)
    assert len(calls) == 2


def test_h1_loc_certificate_runs_under_optimize():
    """With Z^1_loc emptied, B^1 is outside it: the certificate raises
    InternalError also under python -O."""
    script = (
        "import numpy as np\n"
        "from h1loc import cohomology\n"
        "from h1loc.counterexample import build\n"
        "from h1loc.errors import InternalError\n"
        "cohomology._CocycleSystem.z1loc_gens = "
        "lambda self: np.zeros((0, self.dim), dtype=np.int64)\n"
        "try:\n"
        "    cohomology.h1_loc(build(5).G2)\n"
        "except InternalError as e:\n"
        "    print(e)\n")
    env = dict(os.environ)
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "coboundary outside Z^1_loc" in proc.stdout
