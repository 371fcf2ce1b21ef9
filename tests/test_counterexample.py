"""The nonvanishing family: construction laws and full verification."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import h1loc
import oracles
from h1loc.counterexample import (_witness_sets_meet, build, cocycle_value,
                                  family_matrix, scan_orders, twist_matrix,
                                  verify)
from h1loc.errors import InputError
from h1loc.groups import element_order


def test_build_rejects_bad_primes():
    for bad in (2, 3, 4, 7, 13, 15):
        with pytest.raises(InputError):
            build(bad)


def test_build_structural_invariants():
    inst = build(5)
    assert inst.G2.order == 75
    assert inst.H2.order == 25
    assert element_order(inst.g) == 3
    assert inst.Z.is_valid()


def test_conjugation_law_spot():
    # g h(1,0) g^-1 = h(0, 1)
    g = twist_matrix(5)
    got = g.mul(family_matrix(5, 1, 0)).mul(g.inv())
    assert got.key() == family_matrix(5, 0, 1).key()


def test_cocycle_value_at_11():
    # (p (a-2b), p (a-b)) at (1,1) is (-p, 0)
    assert cocycle_value(5, 1, 1) == (20, 0)
    assert cocycle_value(11, 1, 1) == (110, 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([5, 11]), st.data())
def test_family_is_additive(p, data):
    a1 = data.draw(st.integers(0, p - 1))
    b1 = data.draw(st.integers(0, p - 1))
    a2 = data.draw(st.integers(0, p - 1))
    b2 = data.draw(st.integers(0, p - 1))
    lhs = family_matrix(p, a1, b1).mul(family_matrix(p, a2, b2))
    assert lhs.key() == family_matrix(p, a1 + a2, b1 + b2).key()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([5, 11]), st.data())
def test_conjugation_laws_everywhere(p, data):
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    g = twist_matrix(p)
    h = family_matrix(p, a, b)
    assert g.mul(h).mul(g.inv()).key() == family_matrix(p, -b, a - b).key()
    g2 = g.mul(g)
    assert g2.mul(h).mul(g2.inv()).key() == family_matrix(p, b - a, -a).key()


def test_verify_all_checks_pass_p5():
    rep = verify(build(5))
    assert rep.all_passed
    assert rep.h1_loc_factors and all(f == 5 for f in rep.h1_loc_factors)
    assert tuple(x % 5 for x in rep.witness_11) == (1, 1)
    assert tuple(x % 5 for x in rep.witness_21) == (4, 0)


@pytest.mark.parametrize("p, coords", [
    (5, [(a, b) for a in range(5) for b in range(5)]),
    (11, [(0, 0), (1, 1), (2, 1), (2, 2), (0, 1), (3, 7)]),
])
def test_witness_sets_meet_matches_enumeration(p, coords):
    inst = build(p)
    q = p * p
    elems = [family_matrix(p, a, b) for a, b in coords] + [inst.g]
    # every v with (h - 1) v = Z_h, by scanning the whole module
    sols = [oracles.all_solutions(h.minus_identity().entries, inst.Z.at(h), q)
            for h in elems]
    assert all(sols)      # the local conditions hold at each element
    for a, sa in zip(elems, sols):
        for b, sb in zip(elems, sols):
            assert _witness_sets_meet(inst, a, b) == bool(sa & sb)
    h11, h21 = family_matrix(p, 1, 1), family_matrix(p, 2, 1)
    assert not _witness_sets_meet(inst, h11, h21)
    detail = next(c.detail for c in verify(inst).checks
                  if c.name == "not a coboundary")
    assert "witness sets at h(1,1), h(2,1) disjoint: True" in detail


def test_scan_orders_rows():
    rows = scan_orders(5)
    by_label = {r["label"]: r for r in rows}
    family = by_label["<g^1, H>"]
    assert family["twist_order"] == 3
    assert not family["divides_p_minus_1"]
    assert not family["vanishes"]
    comparison = by_label["comparison <diag(2,3)^p, H>"]
    assert comparison["divides_p_minus_1"]
    assert comparison["vanishes"]
    alone = by_label["<g^0, H>"]
    assert alone["group_order"] == 25
    assert "h1_loc" in alone


def test_family_scan_sound_under_python_O():
    """scripts/family_scan.py exits 0 only when every check passes, every
    twist order not dividing p-1 keeps H^1_loc nonzero and the comparison
    twist kills it; here at p = 5 and 11, with asserts stripped."""
    root = Path(__file__).resolve().parent.parent
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", str(root / "scripts" / "family_scan.py"),
         "--max-p", "11"], capture_output=True, text=True, env=env,
        timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "primes: [5, 11]" in proc.stdout
    assert "0 failures (must be 0)" in proc.stdout
    assert "FAIL" not in proc.stdout and "!!" not in proc.stdout
