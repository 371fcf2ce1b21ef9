"""The row-code phase of MatGroup.close piece by piece: the product keys
gathered from the row table against the keys of the explicit product
array, layer by layer, with their first occurrences against np.unique;
the tracemalloc peak of the GSp_4(F_3) closure; membership of matrices
with entries outside [0, q); and the entry-plane sums against Python
integers."""

import tracemalloc

import numpy as np
import pytest

from h1loc.cohomology import Cocycle, h1, inflate
from h1loc.errors import InputError
from h1loc.groups import (MatGroup, _code_space, _digit_weights,
                          _first_occurrences, _keys, _product_keys,
                          _row_table, _stack, coset_orders)
from h1loc.ringmat import Mat, ModuleSpec, _sum_of_products
from h1loc.symplectic import gsp4_generators

# explicit products are formed this many layer elements at a time
BLOCK = 2048


def _unitriangular_mod8():
    """The upper unitriangular 3x3 group mod 8 (8^3 = 512 elements, so the
    row table is built at the last layer) times <diag(3, 5, 1)>: 1,024
    elements, the layers after the first 512 formed from row codes."""
    return MatGroup.close(
        [Mat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], 8),
         Mat.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]], 8),
         Mat.from_rows([[3, 0, 0], [0, 5, 0], [0, 0, 1]], 8)],
        ModuleSpec(2, 3, 3))


def _explicit_keys(X, garr, q, packed_codes=False):
    """The keys of every product x g, element-major, for the (L, r, r)
    matrices X and the generators garr, from the product array itself,
    BLOCK elements of X at a time: _keys of the entries, or with
    packed_codes the row codes of each product packed in base q^r."""
    r = X.shape[1]
    out = []
    for s in range(0, len(X), BLOCK):
        prods = ((X[s:s + BLOCK, None] @ garr[None]) % q).reshape(-1, r, r)
        out.append((prods @ _digit_weights(q, r)) @ _digit_weights(q ** r, r)
                   if packed_codes else _keys(prods, q))
    return np.concatenate(out)


def _gsp4_f3():
    gens, space = gsp4_generators(3)
    return MatGroup.close(gens, space.spec)


@pytest.mark.parametrize("make", [_gsp4_f3, _unitriangular_mod8],
                         ids=["GSp4(F3)", "rank-3 mod 8"])
def test_gathered_product_keys_match_the_product_array(make):
    G = make()
    q, r = G.spec.modulus, G.spec.rank
    X = G.element_array()
    garr = _stack(G.generators, r)
    table = np.ascontiguousarray(_row_table(garr, _code_space(q, r)).T)
    codes = X @ _digit_weights(q, r)
    layers = [(0, 1)] + list(G.tree_layers())
    assert G.order >= q ** r and len(layers) > 3
    for start, stop in layers:
        got = _product_keys(table, codes[start:stop], q)
        code_keys = _explicit_keys(X[start:stop], garr, q, packed_codes=True)
        entry_keys = _explicit_keys(X[start:stop], garr, q)
        assert got.dtype == np.int64 and len(got) == (stop - start) * len(garr)
        assert np.array_equal(got, code_keys), (start, stop)
        assert np.array_equal(got, entry_keys), (start, stop)
        keys, first = _first_occurrences(got)
        want_keys, want_first = np.unique(code_keys, return_index=True)
        assert np.array_equal(keys, want_keys), (start, stop)
        assert np.array_equal(first, want_first), (start, stop)


@pytest.mark.parametrize("q, r", [(17, 4), (25, 4), (7, 2), (49, 3)])
def test_product_keys_of_random_codes(q, r):
    """Random generators and row codes on both sides of the byte-key
    switch q^(r*r) >= 2^63: the gathered keys equal _keys of the explicit
    products, bytes included."""
    rng = np.random.default_rng(q * r)
    garr = rng.integers(0, q, size=(3, r, r))
    X = rng.integers(0, q, size=(700, r, r))
    X[0] = q - 1
    table = np.ascontiguousarray(_row_table(garr, _code_space(q, r)).T)
    got = _product_keys(table, X @ _digit_weights(q, r), q)
    want = _explicit_keys(X, garr, q)
    assert got.dtype == want.dtype
    assert (want.dtype.kind == "V") == (q ** (r * r) >= 2 ** 63)
    assert np.array_equal(got, want)


def test_gsp4_f3_closure_memory_peak():
    """The row-code phase forms no (k * L, r) product array: the
    tracemalloc peak of the 103,680-element closure stays within 42 MB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        G = _gsp4_f3()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert G.order == 103680
    assert peak <= 42 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def _borel_mod5():
    return MatGroup.close([Mat.from_rows([[2, 0], [0, 1]], 5),
                           Mat.from_rows([[1, 0], [0, 2]], 5),
                           Mat.from_rows([[1, 1], [0, 1]], 5)],
                          ModuleSpec(5, 1, 2))


def test_membership_refuses_entries_outside_the_modulus():
    """[[1, 6], [0, 1]] mod 25 has the base-5 key of [[2, 1], [0, 1]],
    which is in the Borel mod 5; the range check at the API edge keeps it
    out, while a mod-25 matrix with entries in [0, 5) is found."""
    G = _borel_mod5()
    assert G.order == 80
    alias = Mat.from_rows([[1, 6], [0, 1]], 25)
    assert Mat.from_rows([[2, 1], [0, 1]], 5) in G
    assert alias not in G
    with pytest.raises(InputError):
        G.index_of(alias)
    inside = Mat.from_rows([[2, 1], [0, 1]], 25)
    assert inside in G
    assert G.index_of(inside) == G.index_of(Mat.from_rows([[2, 1], [0, 1]],
                                                          5))


def test_inflate_refuses_a_projection_outside_the_modulus():
    """A projection that leaves entries >= p is refused as one whose images
    miss the quotient: the identity map of a group mod 25, and a constant
    map to [[1, 6], [0, 1]] mod 25, whose base-5 key is that of an element
    of the Borel mod 5, so that only the range check tells it apart (the
    zero cocycle would inflate through it).  The reduction mod p
    inflates."""
    G = MatGroup.close([Mat.from_rows([[1, 1], [0, 1]], 25),
                        Mat.from_rows([[6, 0], [0, 1]], 25)],
                       ModuleSpec(5, 2, 2))
    Q = G.reduce_mod(1)
    Zq = h1(Q, 1).representatives[0]
    with pytest.raises(InputError, match="projection leaves"):
        inflate(Zq, G, lambda x: x)
    W = inflate(Zq, G, lambda x: x.reduce_mod(5))
    assert W.group is G
    B = _borel_mod5()
    zero = Cocycle(B, np.zeros((B.order, 2), dtype=np.int64), 1)
    alias = Mat.from_rows([[1, 6], [0, 1]], 25)
    with pytest.raises(InputError, match="projection leaves"):
        inflate(zero, G, lambda x: alias)


def test_coset_orders_refuses_groups_over_different_moduli():
    G = MatGroup.close([Mat.from_rows([[1, 1], [0, 1]], 25)],
                       ModuleSpec(5, 2, 2))
    with pytest.raises(InputError):
        coset_orders(G, _borel_mod5())


@pytest.mark.parametrize("q", [3, 49, 1518499999])
def test_sum_of_products_matches_python_integers(q):
    """Mixed-sign sums of up to 40 products at q = 3, 49 and the largest
    prime the similitude multiplier accepts (4 (q-1)^2 < 2^63), where the
    partial sums are reduced every few products; extreme entries and
    all-negative sums included."""
    rng = np.random.default_rng(q)
    n = 64
    for count in (1, 2, 3, 7, 40):
        terms = []
        for t in range(count):
            x, y = rng.integers(0, q, size=(2, n))
            x[:8], y[:8] = q - 1, q - 1
            terms.append((1 if t % 3 == 2 else -1, x, y))
        got = _sum_of_products(terms, q)
        want = [sum(s * int(x[i]) * int(y[i]) for s, x, y in terms) % q
                for i in range(n)]
        assert got.dtype == np.int64
        assert got.tolist() == want, count
