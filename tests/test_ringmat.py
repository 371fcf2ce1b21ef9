"""Exact linear algebra over Z/p^n, cross-checked against enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from h1loc.errors import InputError
from h1loc.ringmat import (ExtensionField, Mat, ModuleSpec, _howell_rows,
                           char_poly, eigenvalues_in_ext, is_prime, kernel,
                           quotient_structure, solve, span_order)


def test_module_spec_validation():
    ModuleSpec(2, 1, 1)
    with pytest.raises(InputError):
        ModuleSpec(4, 1, 2)
    with pytest.raises(InputError):
        ModuleSpec(5, 0, 2)
    with pytest.raises(InputError):
        ModuleSpec(5, 1, 0)


def test_normal_form_span_mod9():
    H = _howell_rows(np.array([[3]]), 3, 2)
    assert H.tolist() == [[3]]
    span = oracles.span_enumerate([[3]], 9)
    assert span == {(0,), (3,), (6,)}
    assert (6,) in span and (1,) not in span
    assert oracles.span_enumerate(H.tolist(), 9) == span


def test_normal_form_needs_extra_row():
    # pivot 4 mod 8 has annihilator 2*(4,1) = (0,2) outside the row
    H = _howell_rows(np.array([[4, 1]]), 2, 3)
    assert H.tolist() == [[4, 1], [0, 2]]
    assert oracles.span_enumerate(H.tolist(), 8) == \
        oracles.span_enumerate([[4, 1]], 8)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-3, 10 ** 5) if _trial_division(n)]


def test_is_prime_on_pseudoprimes_and_large_input():
    # strong pseudoprimes to the bases 2; 2..7; 2..31, and a Carmichael
    # number, all composite
    for n, factor in [(2047, 23), (3215031751, 151),
                      (3825123056546413051, 149491), (561, 3)]:
        assert n % factor == 0 and not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)
    assert not is_prime(10 ** 14)
    # the least strong pseudoprime to every base up to 37: refused, not
    # called prime
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert (psi12 - 2) % 137 == 0 and not is_prime(psi12 - 2)
    with pytest.raises(InputError, match="too large"):
        is_prime(psi12)
    with pytest.raises(InputError, match="too large"):
        ModuleSpec(2 ** 89 - 1, 1, 1)


def test_kernel_examples():
    assert kernel(Mat.identity(2, 25), ModuleSpec(5, 2, 2)) == []
    assert kernel(Mat.from_rows([[3]], 9), ModuleSpec(3, 2, 1)) == [(3,)]
    kz = kernel(Mat.zeros(2, 2, 5), ModuleSpec(5, 1, 2))
    assert len(kz) == 2
    assert oracles.span_enumerate(kz, 5) == {(a, b) for a in range(5)
                                             for b in range(5)}


def test_solve_examples():
    spec = ModuleSpec(3, 2, 1)
    assert solve(Mat.from_rows([[3]], 9), [1], spec) is None
    spec25 = ModuleSpec(5, 2, 2)
    b = (7, 3)
    assert solve(Mat.identity(2, 25), b, spec25) == b
    with pytest.raises(InputError):
        solve(Mat.identity(2, 25), [1, 2, 3], spec25)


def test_solve_family_element():
    # (h(1,1) - 1) x = Z_{h(1,1)} at p = 5: solutions are (1,1) + ker
    from h1loc.counterexample import cocycle_value, family_matrix
    spec = ModuleSpec(5, 2, 2)
    B = family_matrix(5, 1, 1).minus_identity()
    target = cocycle_value(5, 1, 1)
    assert target == (20, 0)
    x = solve(B, target, spec)
    assert x is not None
    expected = oracles.all_solutions(B.entries, target, 25)
    assert x in expected
    ker = kernel(B, spec)
    assert oracles.span_enumerate(ker, 25) == \
        {tuple((a - 1) % 25 for a in sol) for sol in expected} == \
        {(5 * a % 25, 5 * b % 25) for a in range(5) for b in range(5)}
    assert (1, 1) in expected


def test_quotient_structure_examples():
    spec5 = ModuleSpec(5, 1, 2)
    s = quotient_structure([[1, 0], [0, 1]], [[1, 0], [0, 1]], spec5)
    assert s.is_trivial
    s2 = quotient_structure([[1]], [[3]], ModuleSpec(3, 2, 1))
    assert s2.invariant_factors == (3,)
    s3 = quotient_structure([[1, 0], [0, 1]], [[1, 0]], spec5)
    assert s3.invariant_factors == (5,)
    with pytest.raises(InputError):
        # (1,0) is not a multiple of (2,0) mod 4
        quotient_structure([[2, 0]], [[1, 0]], ModuleSpec(2, 2, 2))


def test_char_poly_examples():
    spec5 = ModuleSpec(5, 1, 2)
    assert char_poly(Mat.from_rows([[2, 0], [0, 3]], 5), spec5) == (1, 0, 1)
    assert char_poly(Mat.from_rows([[1, 1], [0, 1]], 5), spec5) == (1, 3, 1)
    field, eig = eigenvalues_in_ext(Mat.from_rows([[2, 0], [0, 3]], 5),
                                    spec5, 1)
    assert eig == [((2,), 1), ((3,), 1)]
    _, eig2 = eigenvalues_in_ext(Mat.from_rows([[1, 1], [0, 1]], 5), spec5, 1)
    assert eig2 == [((1,), 2)]


def test_eigenvalues_in_quadratic_extension():
    spec7 = ModuleSpec(7, 1, 2)
    A = Mat.from_rows([[0, -1], [1, 0]], 7)
    _, none_in_f7 = eigenvalues_in_ext(A, spec7, 1)
    assert none_in_f7 == []
    field, eig = eigenvalues_in_ext(A, spec7, 2)
    assert len(eig) == 2 and all(m == 1 for _, m in eig)
    for root, _ in eig:
        # order-4 elements: root^2 = -1
        assert field.mul(root, root) == field.embed(-1)


def test_extension_field_is_deterministic_and_a_field():
    f = ExtensionField(7, 2)
    assert f.modulus_poly == (1, 0, 1)  # x^2 + 1 is the first irreducible
    for a in f.elements():
        if a == f.zero:
            continue
        assert f.mul(a, f.inv(a)) == f.one


small_mod = st.sampled_from([(2, 2), (3, 2), (5, 1), (3, 1)])


@st.composite
def matrix_and_spec(draw, max_dim=3):
    p, n = draw(small_mod)
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    q = p ** n
    entries = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return Mat.from_rows(entries, q), ModuleSpec(p, n, cols)


@settings(max_examples=60, deadline=None)
@given(matrix_and_spec(), st.data())
def test_solve_kernel_coherence(ms, data):
    A, spec = ms
    q = spec.modulus
    b = tuple(data.draw(st.integers(0, q - 1)) for _ in range(A.rows))
    got = solve(A, b, spec)
    brute = oracles.all_solutions(A.entries, b, q)
    if got is None:
        assert brute == set()
    else:
        assert got in brute
        ker = kernel(A, spec)
        shifted = {tuple((x + g) % q for x, g in zip(got, v))
                   for v in oracles.span_enumerate(
                       ker or [[0] * A.cols], q)}
        assert shifted == brute


@settings(max_examples=40, deadline=None)
@given(matrix_and_spec())
def test_span_order_matches_enumeration(ms):
    A, spec = ms
    assert span_order(A.to_array(), spec.p, spec.n) == \
        len(oracles.span_enumerate(A.entries, spec.modulus))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_quotient_order_product_law(data):
    p, n = data.draw(small_mod)
    q = p ** n
    cols = data.draw(st.integers(1, 2))
    spec = ModuleSpec(p, n, cols)
    k = data.draw(st.integers(1, 2))
    ambient = [tuple(data.draw(st.integers(0, q - 1)) for _ in range(cols))
               for _ in range(k)]
    # sub generated by multiples of ambient rows stays inside the span
    sub = []
    for row in ambient:
        c = data.draw(st.integers(0, q - 1))
        sub.append(tuple(c * x % q for x in row))
    s = quotient_structure(ambient, sub, spec)
    assert s.order * len(oracles.span_enumerate(sub or [[0] * cols], q)) == \
        len(oracles.span_enumerate(ambient, q))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_char_poly_vanishes_on_eigenvalues(data):
    p = data.draw(st.sampled_from([3, 5, 7]))
    spec = ModuleSpec(p, 1, 2)
    A = Mat.from_rows([[data.draw(st.integers(0, p - 1)) for _ in range(2)]
                       for _ in range(2)], p)
    cp = char_poly(A, spec)
    for deg in (1, 2):
        field, eig = eigenvalues_in_ext(A, spec, deg)
        for root, mult in eig:
            assert field.poly_eval(cp, root) == field.zero
            assert mult >= 1


def test_solve_kernel_coherence_3x3_fixed_moduli():
    # deterministic sweep over Z/4, Z/9, Z/25 with 3x3 systems
    rng = np.random.default_rng(12021)
    for p, n in [(2, 2), (3, 2), (5, 2)]:
        q = p ** n
        spec = ModuleSpec(p, n, 3)
        for _ in range(4):
            A = Mat.from_array(rng.integers(0, q, size=(3, 3)), q)
            b = tuple(int(x) for x in rng.integers(0, q, size=3))
            got = solve(A, b, spec)
            brute = oracles.all_solutions(A.entries, b, q)
            if got is None:
                assert brute == set()
            else:
                ker = kernel(A, spec)
                assert {tuple((x + g) % q for x, g in zip(got, v))
                        for v in oracles.span_enumerate(
                            ker or [[0, 0, 0]], q)} == brute


def test_image_double_annihilator():
    # v in Im(B) iff w.v = 0 for all w with w B = 0: brute-check on Z/4, Z/9
    from h1loc.ringmat import RowSystem
    import itertools
    for (p, n) in [(2, 2), (3, 2)]:
        q = p ** n
        rng = np.random.default_rng(7)
        for _ in range(12):
            B = rng.integers(0, q, size=(2, 2))
            image = {tuple((B @ np.array(x)) % q)
                     for x in itertools.product(range(q), repeat=2)}
            W = RowSystem(np.asarray(B), p, n).kernel()
            cut = {v for v in itertools.product(range(q), repeat=2)
                   if all(int(w @ np.array(v)) % q == 0 for w in W)}
            assert image == cut
