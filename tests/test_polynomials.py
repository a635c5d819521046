from math import gcd

import pytest
from oracles import poly_mul

from nutorbits import (CirculantSpec, SpecificationError, circulant,
                       circulant_is_nut_symbolic, circulant_symbol, cyclotomic,
                       gcd_criterion, is_nut, vanishing_orders)
from nutorbits.polynomials import _monic_reduce


def test_monic_reduce_quotient_and_remainder():
    # x^2 - 1 = (x + 1)(x - 1)
    f = [-1, 0, 1]
    assert _monic_reduce(f, (-1, 1)) == [1, 1] and f[:1] == [0]
    # x^3 + 2 = x (x^2 + 1) + (2 - x)
    f = [2, 0, 0, 1]
    assert _monic_reduce(f, (1, 0, 1)) == [0, 1] and f[:2] == [2, -1]
    # x^5 = (x^3 - x)(x^2 + 1) + x
    f = [0, 0, 0, 0, 0, 1]
    assert _monic_reduce(f, (1, 0, 1)) == [0, -1, 0, 1] and f[:2] == [0, 1]
    # x^2 - 1 = (x - 2)(x + 2) + 3: not divisible
    f = [-1, 0, 1]
    assert _monic_reduce(f, (2, 1)) == [-2, 1] and f[:1] == [3]


def test_cyclotomic_small_and_degrees():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    for p in (5, 7, 11, 13, 17, 23):
        assert len(cyclotomic(p)) - 1 == p - 1
        assert len(cyclotomic(2 * p)) - 1 == p - 1
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity_up_to_200():
    for n in range(1, 201):
        product = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, cyclotomic(d))
        assert product == (-1,) + (0,) * (n - 1) + (1,), n


def test_circulant_symbol_examples():
    assert circulant_symbol(10, {1, 2}) == (0, 1, 1, 0, 0, 0, 0, 0, 1, 1)
    assert circulant_symbol(4, {1}) == (0, 1, 0, 1)
    assert circulant_symbol(12, {6}) == (0, 0, 0, 0, 0, 0, 1)
    with pytest.raises(SpecificationError):
        circulant_symbol(10, {0})


def test_symbol_values_are_eigenvalue_endpoints():
    # at x = 1 the symbol equals the vertex degree
    for n, offs in [(10, {1, 2}), (14, {1, 2, 3, 4}), (12, {6})]:
        p = circulant_symbol(n, offs)
        assert sum(p) == circulant(CirculantSpec(n, offs)).degree(0)


def test_vanishing_orders_examples():
    assert vanishing_orders(10, {1, 2}) == {2}
    assert vanishing_orders(4, {1}) == {4}
    assert vanishing_orders(16, set(range(1, 7))) == {2}
    # every reported order divides n
    assert all(12 % d == 0 for d in vanishing_orders(12, {1, 2, 3, 4}))


def test_circulant_is_nut_symbolic_examples():
    assert circulant_is_nut_symbolic(10, {1, 2})
    assert circulant_is_nut_symbolic(14, {1, 2, 3, 4})
    assert not circulant_is_nut_symbolic(12, {1, 2, 3, 4})
    assert not circulant_is_nut_symbolic(9, {1, 3})  # odd order


def test_gcd_criterion_examples():
    assert gcd_criterion(16, 6)
    assert gcd_criterion(14, 4)
    assert not gcd_criterion(12, 4)   # gcd(6, 2) = 2
    assert not gcd_criterion(10, 4)   # n < 2k + 2
    assert not gcd_criterion(13, 4)   # n odd
    assert not gcd_criterion(14, 3)   # k odd


def test_cross_oracle_small_orders():
    # symbolic verdict == exact nullspace verdict on all specs up to n = 12
    from itertools import combinations
    for n in range(2, 13, 2):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offs in combinations(pool, size):
                symbolic = circulant_is_nut_symbolic(n, offs)
                exact = is_nut(circulant(CirculantSpec(n, offs))).is_nut
                assert symbolic == exact, (n, offs)


def test_prop2_cyclotomic_nonvanishing():
    # For odd k and the smallest admissible prime p, none of the three
    # degree-(2k-2) polynomials that would make an interior eigenvalue
    # vanish is divisible by the p-th or 2p-th cyclotomic polynomial.
    from nutorbits import primes_from
    for k in (5, 7):
        p = next(primes_from(2 * k + 1))
        # 1 + x + ... + x^(k-3) + x^(k+1) + ... + x^(2k-2)
        body = [int(j < k - 2 or j > k) for j in range(2 * k - 1)]
        for shift in (2, 0, -2):
            poly = body[:k - 1] + [shift] + body[k:]   # + shift x^(k-1)
            assert len(poly) - 1 == 2 * k - 2 and poly[-1]
            for order in (p, 2 * p):
                phi = cyclotomic(order)
                remainder = list(poly)
                _monic_reduce(remainder, phi)
                assert any(remainder[:len(phi) - 1])


def test_vanishing_orders_match_sympy_on_every_small_circulant():
    # oracle: Phi_d divides the symbol sum_{s in S} x^s + x^(n-s), by sympy's
    # cyclotomic_poly and polynomial remainder
    sympy = pytest.importorskip("sympy")
    from itertools import combinations
    x = sympy.Symbol("x")
    phi = {}
    for n in range(1, 17):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for d in divisors:
            phi.setdefault(d, sympy.Poly(sympy.cyclotomic_poly(d, x), x))
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offs in combinations(pool, size):
                symbol = sympy.Poly(sum(x ** s + x ** (n - s) if 2 * s != n
                                        else x ** s for s in offs), x)
                expected = {d for d in divisors if sympy.rem(symbol, phi[d]).is_zero}
                assert vanishing_orders(n, offs) == expected, (n, offs)
