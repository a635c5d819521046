from math import gcd

import pytest

from nutorbits import (CirculantSpec, IntPoly, SpecificationError, circulant,
                       circulant_is_nut_symbolic, circulant_symbol, cyclotomic,
                       exact_divide, gcd_criterion, is_nut, remainder_mod,
                       vanishing_orders)
from nutorbits.polynomials import polydivmod

X = IntPoly.x()


def test_poly_basic_arithmetic():
    assert (X - 1) * (X + 1) == X ** 2 - 1
    assert IntPoly((1, 2)) + IntPoly((3, -2)) == IntPoly((4,))
    assert (X ** 3 - X).evaluate(2) == 6
    assert IntPoly().degree == -1 and IntPoly((0, 0)).is_zero
    assert IntPoly((5,)) == 5 and IntPoly() == 0
    assert -(X - 1) == 1 - X
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1


def test_exact_divide_and_remainder():
    assert exact_divide(X ** 2 - 1, X - 1) == X + 1
    q, r = polydivmod(X ** 3 + 2, X ** 2 + 1)
    assert q == X and r == 2 - X
    assert remainder_mod(X ** 5, X ** 2 + 1) == X  # x^5 = x (mod x^2+1)
    with pytest.raises(ValueError, match="remainder"):
        exact_divide(X ** 2 - 1, X + 2)
    with pytest.raises(ZeroDivisionError):
        polydivmod(X, IntPoly())


def test_cyclotomic_small_and_degrees():
    assert cyclotomic(1) == X - 1
    assert cyclotomic(2) == X + 1
    assert cyclotomic(3) == X ** 2 + X + 1
    assert cyclotomic(4) == X ** 2 + 1
    assert cyclotomic(6) == X ** 2 - X + 1
    assert cyclotomic(12) == X ** 4 - X ** 2 + 1
    for p in (5, 7, 11, 13, 17, 23):
        assert cyclotomic(p).degree == p - 1
        assert cyclotomic(2 * p).degree == p - 1
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity_up_to_200():
    for n in range(1, 201):
        product = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == X ** n - 1, n


def test_circulant_symbol_examples():
    assert circulant_symbol(10, {1, 2}) == X + X ** 2 + X ** 8 + X ** 9
    assert circulant_symbol(4, {1}) == X + X ** 3
    assert circulant_symbol(12, {6}) == X ** 6
    with pytest.raises(SpecificationError):
        circulant_symbol(10, {0})


def test_symbol_values_are_eigenvalue_endpoints():
    # at x = 1 the symbol equals the vertex degree
    for n, offs in [(10, {1, 2}), (14, {1, 2, 3, 4}), (12, {6})]:
        p = circulant_symbol(n, offs)
        assert p.evaluate(1) == circulant(CirculantSpec(n, offs)).degree(0)


def test_vanishing_orders_examples():
    assert vanishing_orders(10, {1, 2}).divisors_vanishing == {2}
    assert vanishing_orders(4, {1}).divisors_vanishing == {4}
    assert vanishing_orders(16, set(range(1, 7))).divisors_vanishing == {2}
    # every reported order divides n
    report = vanishing_orders(12, {1, 2, 3, 4})
    assert all(12 % d == 0 for d in report.divisors_vanishing)


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
        body = sum((X ** j for j in range(1, k - 2)), IntPoly((1,)))
        body = body + sum((X ** j for j in range(k + 1, 2 * k - 1)), IntPoly())
        for shift in (2, 0, -2):
            poly = body + shift * X ** (k - 1)
            assert poly.degree == 2 * k - 2
            for order in (p, 2 * p):
                assert not remainder_mod(poly, cyclotomic(order)).is_zero


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
                assert vanishing_orders(n, offs).divisors_vanishing == expected, (n, offs)
