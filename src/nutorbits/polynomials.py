"""Cyclotomic polynomials, circulant symbols and the symbolic singularity
criteria for circulant graphs.

A polynomial is a tuple of Python ints, its coefficients lowest degree
first, with trailing zeros trimmed, so ``()`` is the zero polynomial.  The
only division needed is by a monic cyclotomic polynomial, and
``_monic_reduce`` does it in place.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from .graphs import CirculantSpec


def _monic_reduce(f: list[int], g: tuple[int, ...]) -> list[int]:
    """Divide the coefficient list f by the monic polynomial g in place.
    Afterwards f[:deg g] holds the remainder (untrimmed); the quotient is
    returned.  Both are lowest degree first."""
    dg = len(g) - 1
    quotient = [0] * (len(f) - dg)
    for top in range(len(f) - 1, dg - 1, -1):
        c = f[top]
        if c:
            shift = top - dg
            quotient[shift] = c
            for i in range(dg):
                f[shift + i] -= c * g[i]
    return quotient


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, computed exactly by dividing x^n - 1
    by the cyclotomic polynomials of the proper divisors of n.  Memoized per
    process."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _monic_reduce(poly, cyclotomic(d))
    return tuple(poly)


def circulant_symbol(n: int, offsets: Iterable[int]) -> tuple[int, ...]:
    """The symbol polynomial of Circ(n, S): its values at the n-th roots of
    unity are exactly the circulant's eigenvalues.  The coefficient sequence
    is the adjacency row of vertex 0."""
    spec = CirculantSpec(n, offsets)
    coeffs = [0] * n
    for s in spec.offsets:
        coeffs[s] += 1
        if 2 * s != n:
            coeffs[n - s] += 1
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def vanishing_orders(n: int, offsets: Iterable[int]) -> frozenset[int]:
    """Exactly which orders d | n of n-th roots of unity are zeros of the
    symbol polynomial of Circ(n, S): d is included iff the d-th cyclotomic
    polynomial divides the symbol.

    For each d | n the symbol is folded modulo x^d - 1, which Phi_d divides,
    so Phi_d divides the symbol exactly when it divides the fold, a
    polynomial of degree below d."""
    symbol = circulant_symbol(n, offsets)
    vanishing = []
    for d in _divisors(n):
        folded = [0] * d
        for i, c in enumerate(symbol):
            folded[i % d] += c
        phi = cyclotomic(d)
        _monic_reduce(folded, phi)
        if not any(folded[:len(phi) - 1]):
            vanishing.append(d)
    return frozenset(vanishing)


def circulant_is_nut_symbolic(n: int, offsets: Iterable[int]) -> bool:
    """Symbolic nut test for Circ(n, S), with no linear algebra.

    The adjacency kernel is one-dimensional with a full vector exactly when
    the only vanishing root order is 2 (the alternating vector): order 1
    cannot vanish because the symbol at 1 equals the degree, and any other
    order d contributes phi(d) >= 2 zero eigenvalues.
    """
    if n % 2:
        return False
    return vanishing_orders(n, offsets) == {2}


def gcd_criterion(n: int, k: int) -> bool:
    """Arithmetic nut criterion for consecutive-offset circulants
    Circ(n, {1..k}): both n and k even, n >= 2k + 2, and
    gcd(n/2, k/2) = gcd(n/2, k + 1) = 1.  Returns False whenever the
    hypotheses fail."""
    if k < 2 or n % 2 or k % 2 or n < 2 * k + 2:
        return False
    return gcd(n // 2, k // 2) == 1 and gcd(n // 2, k + 1) == 1
