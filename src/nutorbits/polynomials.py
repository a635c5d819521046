"""Cyclotomic polynomials and the symbolic singularity criteria for
abelian Cayley graphs, circulants among them.

A polynomial is a tuple of Python ints, its coefficients lowest degree
first, with trailing zeros trimmed, so ``()`` is the zero polynomial.  The
only divisions needed are by monic polynomials, cyclotomic ones and
binomials x^e - 1, and ``_monic_reduce`` does them in place.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm, prod
from typing import Iterable

from .graphs import AbelianCayleySpec, CirculantSpec


def _monic_reduce(f: list[int], g: tuple[int, ...]) -> list[int]:
    """Divide the coefficient list f by the monic polynomial g in place.
    Afterwards f[:deg g] holds the remainder (untrimmed); the quotient is
    returned.  Both are lowest degree first.  Each step costs one update
    per nonzero coefficient of g."""
    dg = len(g) - 1
    terms = [(i, x) for i, x in enumerate(g[:dg]) if x]
    quotient = [0] * (len(f) - dg)
    for top in range(len(f) - 1, dg - 1, -1):
        c = f[top]
        if c:
            shift = top - dg
            quotient[shift] = c
            for i, x in terms:
                f[shift + i] -= c * x
    return quotient


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, computed exactly by Moebius inversion
    of x^n - 1 = prod over d | n of Phi_d: the product of x^(n/t) - 1 over
    the squarefree t | n with an even number of prime factors, divided by
    the product over those with an odd number.  Every factor is a binomial,
    so each step is one pass over the coefficients.  Memoized per process."""
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    poly, odd = [1], []
    for size in range(len(primes) + 1):
        for t in combinations(primes, size):
            e = n // prod(t)
            if size % 2:
                odd.append(e)
            else:  # times x^e - 1
                poly = [a - b for a, b in zip([0] * e + poly, poly + [0] * e)]
    for e in odd:
        poly = _monic_reduce(poly, (-1,) + (0,) * (e - 1) + (1,))
    return tuple(poly)


@lru_cache(maxsize=None)
def _dual_subgroups(orders: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One character of each cyclic subgroup of the dual group of
    Z_{m_1} x ... x Z_{m_k}, as (w, d): the character chi_a has order d
    and sends s to zeta_d^(w . s), with w_j = a_j d / m_j.  The other
    generators of the subgroup are its Galois conjugates.  Memoized per
    tuple of factor orders."""
    seen, out = set(), []
    for a in product(*map(range, orders)):
        if a in seen:
            continue
        d = lcm(*(m // gcd(x, m) for x, m in zip(a, orders)))
        seen.update(tuple(t * x % m for x, m in zip(a, orders))
                    for t in range(1, d + 1) if gcd(t, d) == 1)
        out.append((tuple(x * d // m for x, m in zip(a, orders)), d))
    return tuple(out)


def _vanishing(orders: tuple[int, ...], columns: list[list[int]]) -> list[int]:
    """``vanishing_subgroups``, unsorted; column j lists coordinate j of S."""
    vanishing = []
    for w, d in _dual_subgroups(orders):
        # w . s; for Z_n every w but the trivial one is (1,)
        exponents = columns[0] if w[0] == 1 else [w[0] * x for x in columns[0]]
        for wj, column in zip(w[1:], columns[1:]):
            if wj:
                exponents = [e + wj * x for e, x in zip(exponents, column)]
        folded = [0] * d
        for e in exponents:
            folded[e % d] += 1
        phi = cyclotomic(d)
        _monic_reduce(folded, phi)
        if not any(folded[:len(phi) - 1]):
            vanishing.append(d)
    return vanishing


def vanishing_subgroups(spec: AbelianCayleySpec) -> tuple[int, ...]:
    """The order d of every cyclic subgroup of the dual group whose
    characters are zeros of the Cayley graph's character sum, ascending.

    The eigenvalues of an abelian Cayley graph are its character sums
    lambda_chi = sum over s in S of chi(s).  A character chi of order d
    takes its values among the d-th roots of unity, so lambda_chi = f(zeta_d)
    for f = sum over s in S of x^(w . s), folded modulo x^d - 1; it vanishes
    exactly when Phi_d divides the fold, and then so do its phi(d) Galois
    conjugates, the other generators of the subgroup.  The nullity is
    therefore the sum of phi(d) over the returned orders, and the graph is
    nut exactly when they are (2,): one real character, of entries +-1."""
    columns = [[s[j] for s in spec.connection] for j in range(len(spec.orders))]
    return tuple(sorted(_vanishing(spec.orders, columns)))


def circulant_is_nut_symbolic(n: int, offsets: Iterable[int]) -> bool:
    """Symbolic nut test for Circ(n, S), with no linear algebra: whether
    the ``vanishing_subgroups`` of Z_n, which has one cyclic subgroup of
    each order d | n, are exactly (2,).

    The adjacency kernel is one-dimensional with a full vector exactly when
    the only vanishing root order is 2 (the alternating vector): order 1
    cannot vanish because the symbol at 1 equals the degree, and any other
    order d contributes phi(d) >= 2 zero eigenvalues.
    """
    spec = CirculantSpec(n, offsets)
    return _vanishing((n,), [list({x for s in spec.offsets for x in (s, n - s)})]) == [2]
