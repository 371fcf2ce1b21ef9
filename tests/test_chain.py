"""The stabilizer chain against the closure: order and element keys on the
twist corpus, the family groups, GSp_4(F_3), the Borel of GSp_4(F_5) and
groups with byte keys, and there the entry planes against the elements
and the elements against the products U_r ... U_1 in their order; the
certificate that no element repeats; membership by
sift against lookup, and its refusals; determinism; the cap; the orders of
GSp_4(F_5) and GSp_4(F_7) from the orbit lengths alone; the Schreier
products the build forms; and the memory of the refusal and of the
enumeration."""

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import h1loc
from corpus import byte_key_group, twist_corpus
from test_closure_keys import _unitriangular_mod8
from h1loc.chain import StabChain
from h1loc.cli import EXIT_CAP, EXIT_OK, run
from h1loc.counterexample import build
from h1loc.errors import CapExceededError, InputError, InternalError
from h1loc.groups import MatGroup, _distinct, _keys
from h1loc.ringmat import Mat, ModuleSpec, _entry_dtype, batch_det
from h1loc.symplectic import (eigenvalue_pairing_sweep, gsp4_generators,
                              gsp4_order)


def _reference_elements(chain):
    """The products U_r ... U_1 by batched int64 products, U_i running
    over transversals[i - 1], the prefixes U_r ... U_2 fastest: the
    values and order elements() lists."""
    q, r = chain.spec.modulus, chain.spec.rank
    first, *rest = chain.transversals
    prefixes = np.eye(r, dtype=np.int64)[None]
    for T in reversed(rest):
        prefixes = (prefixes[:, None] @ T).reshape(-1, r, r) % q
    return (prefixes[None] @ first[:, None] % q).reshape(-1, r, r)


def _assert_chain_matches(G):
    """The chain of G's generators, built at cap |G|, has G's order, and its
    elements have G's sorted keys.  They are the products U_r ... U_1 in
    their order, and planes() is read-only, C-contiguous, in
    _entry_dtype(q) and their transpose."""
    q = G.spec.modulus
    chain = StabChain.build(G.generator_array(), G.spec, cap=G.order)
    planes, elements = chain.planes(), chain.elements()
    assert chain.order == G.order == len(elements)
    assert np.array_equal(_distinct(_keys(elements, q)),
                          np.sort(_keys(G.element_array(), q)))
    assert planes.dtype == _entry_dtype(q)
    assert planes.flags.c_contiguous and not planes.flags.writeable
    assert elements.dtype == np.int64 and elements.flags.c_contiguous
    assert np.array_equal(planes.transpose(2, 0, 1), elements)
    assert np.array_equal(elements, _reference_elements(chain))


def _assert_membership(G, seed):
    """contains agrees with lookup(arr) >= 0 on every element of G, on 64
    seeded random matrices, those of them with a unit determinant, and on
    the products of every element with the first of those outside G, none
    of which lies in G.  Returns how many of the random matrices lie
    outside G."""
    q, r = G.spec.modulus, G.spec.rank
    chain = StabChain.build(G.generator_array(), G.spec, cap=G.order)
    X = G.element_array()
    assert chain.contains(X).all()
    Y = np.random.default_rng(seed).integers(0, q, size=(64, r, r))
    Y = Y[np.gcd(batch_det(Y, q), q) == 1]
    outside = Y[G.lookup(Y) < 0]
    tested = [Y, X @ outside[0] % q] if len(outside) else [Y]
    for arr in tested:
        assert np.array_equal(chain.contains(arr), G.lookup(arr) >= 0)
    return len(outside)


def test_chain_matches_close_on_the_twist_corpus():
    corpus = twist_corpus()
    assert len(corpus) == 112
    for _label, _p, _g, G in corpus:
        _assert_chain_matches(G)


@pytest.mark.parametrize("p", [5, 11, 17])
def test_chain_matches_close_on_the_family(p):
    inst = build(p)
    for G in (inst.G2, inst.H2):
        _assert_chain_matches(G)


def _gsp4_f3():
    gens, space = gsp4_generators(3)
    return MatGroup.close(gens, space.spec)


def _borel_gsp4_f5():
    """The Borel of GSp_4(F_5), 40,000 elements: the Levi blocks
    [[A, 0], [0, A^-T]] for A = diag(2, 1), diag(1, 2) and [[1, 1], [0, 1]],
    the unipotents [[I, S], [0, I]] for S = E11, E22 and E12 + E21, and
    diag(1, 1, 2, 2)."""
    q = 5
    gens = []
    for A in ([[2, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 1], [0, 1]]):
        A = Mat.from_rows(A, q)
        gens.append(np.block([[A.to_array(), np.zeros((2, 2), int)],
                              [np.zeros((2, 2), int),
                               A.inv().to_array().T]]))
    for S in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]):
        gens.append(np.block([[np.eye(2, dtype=int), np.array(S)],
                              [np.zeros((2, 2), int), np.eye(2, dtype=int)]]))
    gens.append(np.diag([1, 1, 2, 2]))
    G = MatGroup.close(np.array(gens) % q, ModuleSpec(5, 1, 4))
    assert G.order == 40000
    return G


def _signed_permutations():
    """The 48 signed 3x3 permutation matrices mod the prime 2097169:
    q^3 >= 2^63, so the point keys are byte strings too."""
    q = 2097169
    return MatGroup.close([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                           [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                           [[q - 1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                          ModuleSpec(q, 1, 3))


def test_membership_by_sift():
    """Members and non-members of the twist corpus, G2 and H2 of the family
    at p = 5, 11 and 17, GSp_4(F_3) and the Borel of GSp_4(F_5)."""
    groups = [G for _label, _p, _g, G in twist_corpus()]
    for p in (5, 11, 17):
        inst = build(p)
        groups += [inst.G2, inst.H2]
    groups += [_gsp4_f3(), _borel_gsp4_f5()]
    assert len(groups) == 120
    outside = [_assert_membership(G, seed) for seed, G in enumerate(groups)]
    assert all(outside[-8:]) and sum(map(bool, outside)) > 100


@pytest.mark.parametrize("make", [_gsp4_f3, _borel_gsp4_f5,
                                  _unitriangular_mod8, byte_key_group,
                                  _signed_permutations],
                         ids=["GSp4(F3)", "Borel GSp4(F5)", "rank-3 mod 8",
                              "rank-4 mod 25", "rank-3 mod 2097169"])
def test_chain_matches_close(make):
    _assert_chain_matches(make())


@pytest.mark.parametrize("make", [_gsp4_f3, byte_key_group,
                                  _signed_permutations],
                         ids=["GSp4(F3)", "rank-4 mod 25",
                              "rank-3 mod 2097169"])
def test_planes_certify_that_no_element_repeats(make):
    """A chain whose first transversal lists 1 twice lists some elements
    twice: planes() must refuse it, with int64 keys, with byte keys from
    the row codes, and with the planes' own keys."""
    G = make()
    chain = StabChain.build(G.generator_array(), G.spec, cap=G.order)
    U, *rest = chain.levels[0]
    U = U.copy()
    U[-1] = U[0]
    twice = StabChain(chain.spec, ((U, *rest),) + chain.levels[1:])
    with pytest.raises(InternalError, match="twice"):
        twice.planes()


def test_gsp4_f3_elements_frozen():
    """sha256 of GSp_4(F_3)'s elements() as little-endian int64, the
    values and order the chain listed before it enumerated into planes."""
    gens, space = gsp4_generators(3)
    elements = StabChain.build(gens, space.spec).elements()
    assert elements.shape == (103680, 4, 4)
    assert hashlib.sha256(elements.astype("<i8").tobytes()).hexdigest() == \
        "b1dc87f7cf14d1afd8d3609866819371295ccf5e5349878ec3debb0807185164"


def _traced_peak(fn):
    """(fn(), the tracemalloc peak of the call above what was traced
    before it)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_gsp4_f3_planes_and_sweep_memory(capsys):
    """planes() and the pairing sweep on them peak at no more than 10 MiB,
    and so does all of gsp4 --p 3 --enumerate, the chain's build included:
    16 int16 planes of 103,680 entries are 3.2 MiB, where the (N, 4, 4)
    int64 elements alone are 12.7 MiB (elements() and the sweep peaked at
    18.7 MiB)."""
    gens, space = gsp4_generators(3)
    chain = StabChain.build(gens, space.spec)
    failures, peak = _traced_peak(lambda: eigenvalue_pairing_sweep(
        chain.planes().transpose(2, 0, 1), 3))
    assert failures == 0
    assert peak <= 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    code, peak = _traced_peak(lambda: run(["gsp4", "--p", "3", "--enumerate",
                                           "--json"]))
    assert code == EXIT_OK and '"pairing_failures": 0' in \
        capsys.readouterr().out
    assert peak <= 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_membership_reduces_entries_mod_q():
    """I + 3 and 4 I are I mod 3, so they lie in GSp_4(F_3), and so do
    elements with every entry shifted by -3 or by 6; a sift that read the
    entries unreduced found none of them."""
    gens, space = gsp4_generators(3)
    chain = StabChain.build(gens, space.spec)
    ident = np.eye(4, dtype=np.int64)
    assert chain.contains(np.stack([ident + 3, 4 * ident])).all()
    X = chain.elements()[::997]
    assert chain.contains(X - 3).all() and chain.contains(X + 6).all()


def test_membership_refuses_matrices_of_another_size():
    """Sixteen 3x3 matrices hold as many entries as nine 4x4 ones, but
    they are not 4x4 matrices."""
    gens, space = gsp4_generators(3)
    chain = StabChain.build(gens, space.spec)
    for shape in [(16, 3, 3), (9, 4, 4, 1), (4,), (2, 16)]:
        with pytest.raises(InputError, match="4x4"):
            chain.contains(np.zeros(shape, dtype=np.int64))


def test_trivial_and_refused_generators():
    spec = ModuleSpec(5, 2, 2)
    chain = StabChain.build([], spec)
    assert chain.orbit_lengths == (1, 1)
    assert chain.elements().tolist() == [[[1, 0], [0, 1]]]
    with pytest.raises(InputError, match="not invertible"):
        StabChain.build([[[5, 0], [0, 1]]], spec)
    with pytest.raises(InputError, match="too large"):
        StabChain.build([[[1, 1], [0, 1]]],
                        ModuleSpec(2305843009213693951, 1, 2))


def test_chain_is_deterministic():
    gens, space = gsp4_generators(3)
    first, second = (StabChain.build(gens, space.spec) for _ in range(2))
    assert first.orbit_lengths == second.orbit_lengths == (80, 24, 18, 3)
    for a, b in zip(first.transversals, second.transversals):
        assert np.array_equal(a, b)
    assert np.array_equal(first.elements(), second.elements())


def test_gsp4_enumerate_cap_boundary(capsys):
    assert run(["gsp4", "--p", "3", "--enumerate", "--cap", "103679"]) \
        == EXIT_CAP
    assert capsys.readouterr().err == \
        "error: group closure exceeded cap of 103679\n"
    assert run(["gsp4", "--p", "3", "--enumerate", "--cap", "103680"]) \
        == EXIT_OK
    assert "103680 (match)" in capsys.readouterr().out


def test_gsp4_f5_order_from_orbit_lengths():
    """37,440,000 elements, past any closure: the order is the product of
    the orbit lengths, one past it the chain refuses."""
    gens, space = gsp4_generators(5)
    order = gsp4_order(5)
    chain = StabChain.build(gens, space.spec, cap=order)
    assert chain.orbit_lengths == (624, 120, 100, 5)
    assert chain.order == order == 37_440_000
    with pytest.raises(CapExceededError):
        StabChain.build(gens, space.spec, cap=order - 1)


def test_family_p17_enumeration_memory():
    """q^r = 83,521 at the p = 17 family group, far more than its 867
    elements: the last level multiplies only the distinct rows of the
    prefixes, where row tables of 83,521 codes per element of the widest
    transversal would peak at about 2.2 GB."""
    G = build(17).G2
    chain = StabChain.build(G.generator_array(), G.spec)
    elements, peak = _traced_peak(chain.elements)
    assert len(elements) == G.order == 3 * 17 ** 2
    assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_gsp4_f5_refusal_max_rss():
    """gsp4 --p 5 --enumerate at the default cap: the product of the first
    orbits already passes the cap of 200,000, so the chain exits 3 before it
    forms a Schreier product, within 100 MB max RSS (a chain that formed
    all 378,000 level-2 Schreier pairs at once read 187 MB).  The child's
    max RSS is read in a process of its own, as the CI steps do."""
    script = textwrap.dedent("""
        import resource, subprocess, sys
        proc = subprocess.run([sys.executable, "-m", "h1loc.cli", "gsp4",
                               "--p", "5", "--enumerate", "--json"],
                              capture_output=True, text=True)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(proc.returncode, rss, proc.stderr.strip())
    """)
    src = str(Path(h1loc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, timeout=600, check=True)
    code, rss, err = out.stdout.split(maxsplit=2)
    assert int(code) == EXIT_CAP
    assert err.strip() == "error: group closure exceeded cap of 200000"
    assert float(rss) <= 100, f"max RSS {float(rss):.1f} MB"


def _count_schreier_products(monkeypatch):
    """A list that collects the number of Schreier products each call of
    h1loc.chain._schreier forms, one per pair it is given."""
    formed = []
    real = h1loc.chain._schreier

    def counting(level, gens, pairs, *args, **kwargs):
        formed.append(len(pairs))
        return real(level, gens, pairs, *args, **kwargs)

    monkeypatch.setattr("h1loc.chain._schreier", counting)
    return formed


def test_gsp4_f5_refusal_forms_one_block_of_level_2(monkeypatch):
    """At the default cap the refusal comes before a chain could form the
    378,000 level-2 Schreier pairs of a chain that keeps every Schreier
    generator: counted as the Schreier products the chain forms.  The
    sifting build refuses while it forms its first orbits, so it forms
    none; the full chain, built first, shows that the counter sees them."""
    formed = _count_schreier_products(monkeypatch)
    gens, space = gsp4_generators(5)
    StabChain.build(gens, space.spec, cap=gsp4_order(5))
    assert sum(formed) > 0
    formed.clear()
    with pytest.raises(CapExceededError):
        StabChain.build(gens, space.spec)
    # at most the 6,864 level-1 pairs and one 32,768-pair block of level 2
    assert sum(formed) < 50_000, sum(formed)


def test_gsp4_f3_sifts_few_schreier_generators(monkeypatch):
    """GSp_4(F_3) forms at most 1,300 Schreier products (1,200): a chain
    that keeps every Schreier generator forms about 8,500, one per (point,
    generator) pair of its levels of 11, 281, 53 and 2 generators; the
    sifting build keeps 12, the given 11 and one residue, and one whose
    every block was 32,768 pairs formed 1,352."""
    formed = _count_schreier_products(monkeypatch)
    gens, space = gsp4_generators(3)
    chain = StabChain.build(gens, space.spec)
    assert chain.orbit_lengths == (80, 24, 18, 3)
    assert 0 < sum(formed) <= 1_300, sum(formed)


def test_gsp4_f7_order_from_orbit_lengths(monkeypatch):
    """GSp_4(F_7), 1,659,571,200 elements: the orbit lengths and the order
    at a cap of exactly |G| within 32,000 Schreier products (28,723 are
    formed), and the refusal at one less within 2,500 (2,038).  Blocks
    that start at 256 pairs and double keep a residue found early from
    forming most of a 32,768-pair block twice: with every block at 32,768
    pairs the build formed 38,718 and 25,783, and a chain that keeps every
    Schreier generator took 5.1 s here."""
    formed = _count_schreier_products(monkeypatch)
    gens, space = gsp4_generators(7)
    order = gsp4_order(7)
    chain = StabChain.build(gens, space.spec, cap=order)
    assert chain.orbit_lengths == (2400, 336, 294, 7)
    assert chain.order == order == 1_659_571_200
    assert 0 < sum(formed) <= 32_000, sum(formed)
    formed.clear()
    with pytest.raises(CapExceededError):
        StabChain.build(gens, space.spec, cap=order - 1)
    assert sum(formed) <= 2_500, sum(formed)
