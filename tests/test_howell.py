"""The vectorized Howell kernel against the row-at-a-time reference, the
block-folded cocycle basis against the whole constraint stack in the
reference's left orientation, the zero rows of the closure-tree edges, and
the int64 boundary of the linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import small_oracle_groups, twist_corpus
import oracles
from h1loc import cohomology
from h1loc.cohomology import (_CocycleSystem, _system, cocycle_space,
                              satisfies_local_conditions)
from h1loc.counterexample import build
from h1loc.errors import InputError
from h1loc.ringmat import (Mat, ModuleSpec, RowSystem, _entry_dtype,
                           _howell_rows, kernel, solve, span_order)


@st.composite
def howell_input(draw, max_rows=60, max_cols=8):
    """A matrix mod p^n, often of low rank, divisible by p or with
    repeated rows, so that non-unit pivots and annihilators occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    q = p ** n
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.integers(0, q, size=(rows, cols))
    rank = draw(st.integers(0, cols))
    if rows and draw(st.booleans()):
        # rows combined from a few rows: tall, low-rank input
        A = (rng.integers(0, q, size=(rows, rank))
             @ rng.integers(0, q, size=(rank, cols))) % q
    A = (A * p ** draw(st.integers(0, n))) % q
    return A, p, n


@settings(max_examples=300, deadline=None)
@given(howell_input())
def test_howell_rows_match_reference(case):
    A, p, n = case
    H = _howell_rows(A, p, n)
    assert H.dtype == np.int64
    assert np.array_equal(H, oracles.reference_howell_rows(A, p, n))


@settings(max_examples=100, deadline=None)
@given(howell_input(max_rows=30), st.data())
def test_howell_rows_ignore_row_order_and_repeats(case, data):
    A, p, n = case
    H = _howell_rows(A, p, n)
    if len(A):
        order = data.draw(st.permutations(range(len(A))))
        repeats = data.draw(st.lists(st.integers(0, len(A) - 1),
                                     max_size=len(A)))
        B = np.concatenate([A[list(order)], A[repeats]])
        assert np.array_equal(_howell_rows(B, p, n), H)
    # zero rows add nothing
    padded = np.concatenate([np.zeros((3, A.shape[1]), dtype=np.int64), A])
    assert np.array_equal(_howell_rows(padded, p, n), H)


def test_howell_rows_of_empty_and_zero_matrices():
    for shape in [(0, 0), (0, 4), (5, 0), (3, 4)]:
        H = _howell_rows(np.zeros(shape, dtype=np.int64), 5, 2)
        assert H.shape == (0, shape[1])
        assert np.array_equal(H, oracles.reference_howell_rows(
            np.zeros(shape, dtype=np.int64), 5, 2))
    # a zero column between pivots stays zero
    H = _howell_rows(np.array([[0, 0, 4], [2, 0, 1], [0, 0, 2]]), 2, 3)
    assert H.tolist() == [[2, 0, 1], [0, 0, 2]]


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_fold_in_blocks_equals_one_shot(monkeypatch, block):
    monkeypatch.setattr(cohomology, "_ROW_BLOCK", block)
    rng = np.random.default_rng(block)
    for p, n, rows, cols in [(5, 2, 40, 6), (2, 3, 17, 4), (7, 1, 9, 8),
                             (3, 2, 0, 5)]:
        q = p ** n
        A = (rng.integers(0, q, size=(rows, 3))
             @ rng.integers(0, q, size=(3, cols)) * p) % q
        start = _howell_rows(rng.integers(0, q, size=(2, cols)), p, n)
        assert np.array_equal(cohomology._fold(start, A, p, n),
                              _howell_rows(np.concatenate([start, A]), p, n))


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_cocycle_basis_in_blocks_equals_one_shot(monkeypatch, block):
    monkeypatch.setattr(cohomology, "_ROW_BLOCK", block)
    groups = [G for _, G in small_oracle_groups()][::4]
    groups += [G for _, _, _, G in twist_corpus() if 50 <= G.order <= 200][:3]
    for G in groups:
        for j in range(1, G.spec.n + 1):
            rows = oracles.reference_cocycle_rows(G, j)
            sys = _CocycleSystem(G, j)
            assert np.array_equal(sys.cocycle_basis(),
                                  _howell_rows(rows, G.spec.p, j))
            assert np.array_equal(sys.z1loc_gens(), _system(G, j).z1loc_gens())


def test_z1_and_z1loc_match_sorted_transposed_stack():
    """Z^1 and Z^1_loc from the folded basis against the whole stack, sorted
    and deduplicated, through the transposed RowSystem.  The stack is the
    reference's left-orientation rows C[g x] - E_g - g C[x]; the basis
    folds the rows C[x g] - C[x] - x E_g.  Both have Z^1 as their kernel,
    so over Z/p^j they span the same module and have the same Howell
    form."""
    groups = [G for _, G in small_oracle_groups()]
    groups += [G for _, _, _, G in twist_corpus() if G.order <= 2500]
    assert len(groups) == len(small_oracle_groups()) + len(twist_corpus()) - 2
    for G in groups:
        for j in (1, 2):
            if j > G.spec.n:
                continue
            sys = _system(G, j)
            rows = oracles.reference_cocycle_rows(G, j)
            assert np.array_equal(sys.cocycle_basis(),
                                  _howell_rows(rows, G.spec.p, j))
            assert np.array_equal(sys.z1_gens(), oracles.reference_z1(G, j))
            assert np.array_equal(
                sys.z1loc_gens(),
                oracles.reference_z1loc(G, j, G.cyclic_class_representatives()))


def test_tree_edges_give_zero_constraint_rows():
    """C is built along the closure tree by C[x g] = C[x] + x E_g, so the
    residual rows C[x] + x E_g - C[x g] of a tree edge (x, g) vanish."""
    groups = [G for _, G in small_oracle_groups()]
    groups += [G for _, _, _, G in twist_corpus() if G.order <= 2500]
    nonzero = 0
    for G in groups:
        sys = _system(G)
        eye = np.eye(sys.dim, dtype=np.int64)
        rows = cohomology._residuals(G, sys._values(eye), sys._blocks(eye),
                                     np.arange(G.order), sys.q)
        children = np.arange(1, G.order)
        for g in range(sys.k):
            edges = children[G.tree_gen[1:] == g]
            x = G.tree_parent[edges]
            assert np.array_equal(G.right_multiplication()[g, x], edges)
            assert not rows[g, x].any()
        nonzero += int(rows.any(axis=-1).sum())
    # the other pairs carry the relations
    assert nonzero


# -- the int64 boundary ------------------------------------------------------

def _unimodular(rng, size, q):
    while True:
        U = Mat.from_array(rng.integers(0, q, size=(size, size)), q)
        if U.is_invertible():
            return U


@pytest.mark.parametrize("p, n", [(2, 31), (3, 19)])
def test_linear_algebra_exact_at_the_largest_accepted_powers(p, n):
    """2^31 and 3^19 are the largest powers of 2 and 3 the int64 check
    accepts, and each elimination step there can add almost 2^62 to an
    entry.  A = U D V with U, V unimodular and D = diag(p^e): A x = b is
    solvable iff every entry of U^-1 b is divisible by the matching p^e,
    and ker A is V^-1 applied to the multiples p^(n - e) e_i.  Every check
    uses Python integers.  For p = 2 a wrapped int64 is still right mod
    2^31, so only p = 3 catches a missed reduction."""
    q, size = p ** n, 4
    spec = ModuleSpec(p, n, size)
    rng = np.random.default_rng(n)
    # rank 30 in 40 columns: without reductions the entries of the 30 column
    # steps would leave int64
    wide = (rng.integers(0, q, size=(60, 30)).astype(object)
            @ rng.integers(0, q, size=(30, 40)).astype(object)) % q
    assert np.array_equal(_howell_rows(wide, p, n),
                          oracles.reference_howell_rows(wide, p, n))
    for e in [(0, 0, 0, 0), (0, 5, n, 1), (n - 1, n - 1, 1, 0),
              (3, n // 2, n - 2, n), (n, n, n, n)]:
        U, V = _unimodular(rng, size, q), _unimodular(rng, size, q)
        D = Mat.from_rows([[p ** e[i] if i == k else 0 for k in range(size)]
                           for i in range(size)], q)
        A = U.mul(D).mul(V)
        assert np.array_equal(_howell_rows(A.to_array(), p, n),
                              oracles.reference_howell_rows(A.to_array(), p, n))
        Vi = V.inv()
        ker_gens = [Vi.apply([p ** (n - e[i]) if k == i else 0
                              for k in range(size)]) for i in range(size)]
        assert kernel(A, spec) == [tuple(int(x) for x in row) for row in
                                   oracles.reference_howell_rows(
                                       np.array(ker_gens), p, n)]
        for _ in range(4):
            x0 = [int(v) for v in rng.integers(0, q, size=size)]
            b = A.apply(x0)
            x = solve(A, b, spec)
            assert x is not None and A.apply(x) == b
            # push U^-1 b off the lattice D Z^size at the coordinate of the
            # largest exponent below n, when there is one
            off = [i for i in range(size) if 0 < e[i] < n]
            if off:
                shift = [0] * size
                shift[max(off, key=lambda i: e[i])] = 1
                bad = tuple((u + s) % q for u, s in
                            zip(b, U.apply(shift)))
                assert solve(A, bad, spec) is None


@pytest.mark.parametrize("p, n", [(2, 32), (2, 40), (3, 20)])
def test_linear_algebra_refuses_moduli_past_int64(p, n):
    q = p ** n
    spec = ModuleSpec(p, n, 2)
    A = Mat.from_rows([[q - 1, 2], [4, q - 3]], q)
    with pytest.raises(InputError, match=r"2\^63"):
        solve(A, (1, 1), spec)
    with pytest.raises(InputError, match=r"2\^63"):
        kernel(A, spec)
    with pytest.raises(InputError, match=r"2\^63"):
        span_order(A.to_array(), p, n)
    with pytest.raises(InputError, match=r"2\^63"):
        RowSystem(A.to_array(), p, n)


def test_entry_dtype_refuses_on_every_call():
    """_entry_dtype is cached per modulus, but a refusal is not: the least
    prime above sqrt(2^63) is refused on two calls in a row, and a numpy
    integer modulus gets the dtype of the equal Python int."""
    for _ in range(2):
        with pytest.raises(InputError, match=r"2\^63"):
            _entry_dtype(3037000507)
    assert _entry_dtype(np.int64(3037000493)) is _entry_dtype(3037000493) \
        is np.int64
    assert _entry_dtype(181) is np.int16 and _entry_dtype(182) is np.int32


# -- local-condition witnesses -------------------------------------------------

def test_local_witnesses_match_per_element_solves():
    cocycles = [build(5).Z]
    for _, G in small_oracle_groups()[::3]:
        cocycles += cocycle_space(G)
    unsolvable = 0
    for Z in cocycles:
        G = Z.group
        ok, witnesses = satisfies_local_conditions(Z)
        expected = {x.key(): solve(x.minus_identity(), Z.at(x), G.spec)
                    for x in G.elements}
        assert witnesses == expected
        assert ok == (None not in expected.values())
        unsolvable += not ok
    assert 0 < unsolvable < len(cocycles)
