"""The array group engine against per-element references: closure order and
tree, element orders, inverses, normalizer masks, and the int64 bounds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import h1loc
from corpus import M, byte_key_group, small_oracle_groups, twist_corpus
import oracles
from h1loc.cli import EXIT_INPUT, run
from h1loc.cohomology import sizes
from h1loc.errors import CapExceededError, InputError
from h1loc.groups import (MatGroup, _keys, _normalizer_mask, element_order,
                          p_sylow)
from h1loc.oracles import cocycle_counts
from h1loc.ringmat import Mat, ModuleSpec, solve

BIG_P = 3037000507   # least prime above sqrt(2^63)


def test_closure_matches_reference_on_twist_corpus():
    for label, _p, _g, G in twist_corpus():
        oracles.assert_same_closure(G)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_matches_reference_random(data):
    rank = data.draw(st.sampled_from([2, 3]))
    p, n = data.draw(st.sampled_from([(3, 2), (5, 2), (7, 2)]))
    spec = ModuleSpec(p, n, rank)
    q = spec.modulus
    entries = st.lists(st.integers(0, q - 1), min_size=rank * rank,
                       max_size=rank * rank)
    gens = []
    for flat in data.draw(st.lists(entries, min_size=1, max_size=3)):
        g = Mat.from_rows([flat[i * rank:(i + 1) * rank]
                           for i in range(rank)], q)
        if g.is_invertible():
            gens.append(g)
    cap = 3000
    try:
        G = MatGroup.close(gens, spec, cap=cap)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            oracles.reference_closure(gens, spec, cap=cap)
        return
    oracles.assert_same_closure(G)


def test_byte_key_path_rank4_mod25():
    G = byte_key_group()
    q = G.spec.modulus
    assert q ** 16 >= 2 ** 63
    assert _keys(G.element_array(), q).dtype.kind == "V"
    oracles.assert_same_closure(G)
    assert [G.index_of(x) for x in G.elements] == list(range(G.order))
    assert (G.orders() == [element_order(x) for x in G.elements]).all()
    X = G.element_array()
    prods = (X @ X[G.inverse_indices()]) % q
    assert (prods == np.eye(4, dtype=np.int64)).all()


def small_groups():
    groups = [G for _, G in small_oracle_groups()]
    groups += [G for _, _, _, G in twist_corpus() if G.order <= 2000]
    return groups


def test_orders_and_inverses_match_per_element():
    for G in small_groups():
        assert G.orders().tolist() == [element_order(x) for x in G.elements]
        inv = G.inverse_indices()
        for i, x in enumerate(G.elements):
            assert G.elements[inv[i]].key() == x.inv().key()
        order_key = [(element_order(G.elements[i]), i)
                     for i in np.argsort(G.orders(), kind="stable")]
        assert order_key == sorted(order_key)


def test_lookup_and_membership():
    G = MatGroup.close([M([[1, 1], [0, 1]], 25), M([[2, 0], [0, 1]], 25)],
                       ModuleSpec(5, 2, 2))
    assert G.lookup(G.element_array()).tolist() == list(range(G.order))
    outside = M([[1, 0], [1, 1]], 25)
    assert outside not in G
    with pytest.raises(InputError):
        G.index_of(outside)
    # entries outside [0, q) and other shapes are never members
    assert Mat(((1, 25), (0, 1)), 25) not in G
    assert Mat.identity(3, 25) not in G


def test_normalizer_mask_matches_per_element_conjugation():
    for G in small_groups():
        subgroups = [p_sylow(G), MatGroup.close([G.elements[-1]], G.spec)]
        for H in subgroups:
            brute = [all(x.mul(h).mul(x.inv()) in H for h in H.generators)
                     for x in G.elements]
            assert _normalizer_mask(G, H).tolist() == brute


def test_close_refuses_int64_wrap():
    spec = ModuleSpec(BIG_P, 1, 2)
    with pytest.raises(InputError, match=r"2\^63"):
        MatGroup.close([M([[-1, 0], [0, -1]], BIG_P)], spec)


def test_solve_refuses_int64_wrap():
    spec = ModuleSpec(BIG_P, 1, 2)
    with pytest.raises(InputError, match=r"2\^63"):
        solve(M([[BIG_P - 1, 0], [0, BIG_P - 1]], BIG_P), (1, 2), spec)


def test_cli_int64_wrap_exits_with_input_error(tmp_path, capsys):
    path = tmp_path / "neg.grp"
    path.write_text(f"p={BIG_P} n=1 rank=2\ngen:\n{BIG_P - 1} 0\n"
                    f"0 {BIG_P - 1}\n")
    assert run(["h1loc", str(path), "--json"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^63" in err
    assert len(err.strip().splitlines()) == 1


def test_oracle_counts_trivial_generator():
    G = MatGroup.close([Mat.identity(2, 25)], ModuleSpec(5, 2, 2))
    assert cocycle_counts(G) == (1, 1, 1, 1)


def test_oracle_counts_redundant_generators():
    spec = ModuleSpec(3, 2, 2)
    g = M([[1, 1], [0, 1]], 9)
    base = cocycle_counts(MatGroup.close([g], spec))
    for extra in (g, g.pow(2), Mat.identity(2, 9)):
        G = MatGroup.close([g, extra], spec)
        assert cocycle_counts(G) == base
        assert sizes(G) == base


def test_module_entry_point():
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "h1loc.cli", "gsp4", "--p", "3", "--json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["command"] == "gsp4" and out["order_formula"] == 103680
