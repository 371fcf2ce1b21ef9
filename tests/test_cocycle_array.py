"""Cocycles as (N, rank) arrays in the group's element order: the blocked
cocycle check against the per-pair reference, exact expansion near the
int64 bound, batched coset orders, and internal errors that survive -O."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import h1loc
from corpus import M, representatives_stop, twist_corpus
import oracles
from h1loc.cli import EXIT_INTERNAL, run
from h1loc.cohomology import (Cocycle, _system, coboundaries,
                              cocycle_from_generator_values, cocycle_space,
                              restrict)
from h1loc.counterexample import build
from h1loc.errors import InputError, InternalError
from h1loc.groups import MatGroup, coset_orders, p_sylow
from h1loc.ringmat import Mat, ModuleSpec


def _random_cocycle(G, rng):
    """A random combination of the Z^1 generators (zero when Z^1 = 0)."""
    Z = Cocycle(G, np.zeros((G.order, G.spec.rank), dtype=np.int64))
    for W in cocycle_space(G):
        Z = Z.add(W.scale(int(rng.integers(W.q))))
    return Z


def _one_entry_changed(Z, rng):
    vals = Z.values.copy()
    i, t = rng.integers(Z.group.order), rng.integers(Z.group.spec.rank)
    vals[i, t] += rng.integers(1, Z.q)
    return Cocycle(Z.group, vals, Z.module_exponent)


def test_is_valid_matches_reference_on_corpus_and_family():
    rng = np.random.default_rng(7)
    cases = [G for _, _, _, G in twist_corpus() if G.order <= 150]
    cases.append(build(5).G2)
    invalid = 0
    for G in cases:
        Z = _random_cocycle(G, rng)
        assert Z.is_valid() and oracles.cocycle_identity_holds(Z)
        for bad in (_one_entry_changed(Z, rng),
                    Cocycle(G, Z.values + np.eye(G.order, G.spec.rank,
                                                 dtype=np.int64))):
            verdict = bad.is_valid()
            assert verdict == oracles.cocycle_identity_holds(bad)
            invalid += not verdict
    # a changed entry breaks the identity except on tiny groups
    assert invalid >= 2 * len(cases) - 4


def test_family_cocycle_matches_closed_form_everywhere():
    inst = build(5)
    assert inst.Z.is_valid() and oracles.cocycle_identity_holds(inst.Z)
    changed = _one_entry_changed(inst.Z, np.random.default_rng(1))
    assert not changed.is_valid()
    assert not oracles.cocycle_identity_holds(changed)


def test_coboundaries_exact_near_int64_bound():
    # dihedral group of order 42 mod 2^31 - 1, conjugated by a dense matrix:
    # each product of the walk down the closure tree sums 2 terms near 2^62,
    # and one more such term would wrap
    p = 2 ** 31 - 1
    spec = ModuleSpec(p, 1, 2)
    zeta = pow(7, (p - 1) // 21, p)      # 7 is a primitive root mod p
    T = M([[123456789, 987654321], [192837465, 564738291]], p)
    Ti = T.inv()
    gens = [T.mul(M(g, p)).mul(Ti)
            for g in ([[zeta, 0], [0, pow(zeta, -1, p)]], [[0, 1], [1, 0]])]
    G = MatGroup.close(gens, spec)
    assert G.order == 42
    for t, Z in enumerate(coboundaries(G)):
        for x in G.elements:
            expect = tuple((x.entries[i][t] - (i == t)) % p for i in range(2))
            assert Z.at(x) == expect
        assert Z.is_valid()


@pytest.mark.parametrize("p, n, a", [
    # units of order 2^5 and 3^3
    (2, 31, pow(5, 2 ** 24, 2 ** 31)), (3, 19, pow(2, 2 * 3 ** 15, 3 ** 19))])
def test_expansion_exact_at_the_largest_accepted_powers(p, n, a):
    """2^31 and 3^19 are the largest powers of 2 and 3 that close accepts
    at rank 2, so each product in the walk down the closure tree sums two
    terms near 2^62.  The group is a dihedral-type group of order 4 * 2^5
    or 4 * 3^3, conjugated by a dense matrix, so the tree is deep and its
    entries large.  C as the expansion of the identity, the expansion of
    Z^1's generators at the class representatives, down to the layer of
    the last one, and the expansion of random K are compared with
    Python-int products with the per-element reference coefficients, and
    the cocycle basis with the full-stack fold (for
    p = 2 the candidate Z^1 is cut); for p = 2 a wrapped int64 is still
    right mod 2^31, so only p = 3 catches a missed reduction."""
    q = p ** n
    spec = ModuleSpec(p, n, 2)
    T = M([[1, q // 3], [0, 1]], q).mul(M([[1, 0], [q // 5, 1]], q))
    Ti = T.inv()
    G = MatGroup.close([T.mul(M(g, q)).mul(Ti)
                        for g in ([[a, 0], [0, pow(a, -1, q)]],
                                  [[0, -1], [1, 0]])], spec)
    assert G.order == (128 if p == 2 else 108)
    sys = _system(G, n)
    ref = oracles.reference_coefficients(G, n)
    assert np.array_equal(sys._values(np.eye(sys.dim, dtype=np.int64)), ref)
    reps, stop = representatives_stop(G)
    Z = sys.z1_gens()
    assert np.array_equal(sys._values(Z, stop)[reps],
                          (ref[reps].astype(object) @ Z.T.astype(object)) % q)
    assert np.array_equal(sys.cocycle_basis(),
                          oracles.reference_cocycle_basis(G, n))
    K = np.random.default_rng(n).integers(0, q, size=(4, sys.dim))
    assert np.array_equal(sys._values(K), (ref.astype(object)
                                           @ K.T.astype(object)) % q)


def test_cocycle_constructor_checks_shape_and_freezes():
    G = MatGroup.close([M([[1, 1], [0, 1]], 5)], ModuleSpec(5, 1, 2))
    for bad in ([(0, 0)] * 4, np.zeros((5, 3)), np.zeros(10), [[0, 0, 0]] * 5,
                [(0, 0)] * 4 + [(0,)]):
        with pytest.raises(InputError):
            Cocycle(G, bad)
    Z = Cocycle(G, [(x.entries[0][1], 7) for x in G.elements])
    assert Z.values.tolist() == [[x.entries[0][1], 2] for x in G.elements]
    with pytest.raises(ValueError):
        Z.values[0, 0] = 1
    assert Z.add(Z.scale(4)).is_zero()
    other = MatGroup.close([M([[1, 0], [1, 1]], 5)], ModuleSpec(5, 1, 2))
    with pytest.raises(InputError):
        Z.add(Cocycle(other, Z.values))


def test_add_rejects_another_module_exponent():
    """A cocycle mod 5 and one mod 25 on the same group: adding them as
    values mod 25 gives no cocycle, so add refuses, either way round."""
    G = MatGroup.close([M([[1, 5], [0, 1]], 25)], ModuleSpec(5, 2, 2))
    Z1, Z2 = cocycle_space(G, 1)[0], cocycle_space(G, 2)[0]
    assert not Cocycle(G, Z2.values + Z1.values, 2).is_valid()
    for a, b in ((Z2, Z1), (Z1, Z2)):
        with pytest.raises(InputError):
            a.add(b)
    assert Z2.add(Z2).is_valid() and Z1.add(Z1).is_valid()


def test_restrict_rejects_non_subgroup():
    inst = build(5)
    with pytest.raises(InputError):
        restrict(inst.Z, MatGroup.close([M([[2, 0], [0, 1]], 25)], inst.spec))
    with pytest.raises(InputError):
        restrict(inst.Z, MatGroup.close([], ModuleSpec(5, 2, 3)))


def test_prescribed_value_on_a_generator_off_the_tree_is_checked():
    spec = ModuleSpec(5, 1, 2)
    u, ident = M([[1, 1], [0, 1]], 5), Mat.identity(2, 5)
    G = MatGroup.close([u, ident], spec)
    Z = cocycle_from_generator_values(G, {u.key(): (1, 0),
                                          ident.key(): (0, 0)})
    assert Z.at(u) == (1, 0)
    with pytest.raises(InputError):
        cocycle_from_generator_values(G, {u.key(): (1, 0),
                                          ident.key(): (3, 3)})


def _coset_order_reference(x, N):
    y, t = x, 1
    while y not in N:
        y, t = y.mul(x), t + 1
    return t


def test_coset_orders_match_per_element_loop():
    checked = 0
    for _, p, _, G in twist_corpus():
        if G.order > 150:
            continue
        kernel = MatGroup.from_elements(
            [x for x in G.elements
             if x.reduce_mod(p).key() == Mat.identity(2, p).key()], G.spec)
        for N in (kernel, p_sylow(G), MatGroup.close([], G.spec)):
            got = coset_orders(G, N)
            assert got.tolist() == [_coset_order_reference(x, N)
                                    for x in G.elements]
            checked += 1
    assert checked >= 150


def test_internal_error_survives_python_O():
    # a certificate that fails must raise even when asserts are stripped
    code = textwrap.dedent("""
        from types import SimpleNamespace
        import h1loc.criteria as crit
        from h1loc.errors import InternalError
        from h1loc.groups import MatGroup
        from h1loc.ringmat import Mat, ModuleSpec
        G = MatGroup.close([Mat.from_rows([[2, 0], [0, 3]], 5)],
                           ModuleSpec(5, 1, 2))
        print(crit.sylow_normalizer_criterion(G).conclusion)
        crit._system = lambda G: SimpleNamespace(
            h1loc_structure=lambda: SimpleNamespace(invariant_factors=(5,)))
        try:
            print(crit.sylow_normalizer_criterion(G).conclusion)
        except InternalError:
            print("internal-error")
    """)
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["certified", "internal-error"]


def test_cli_maps_internal_error_to_exit_4(monkeypatch, capsys):
    def broken(p):
        raise InternalError("certificate failed (internal)")

    monkeypatch.setattr(h1loc.cli.cex, "build", broken)
    assert run(["counterexample", "--p", "5"]) == EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
