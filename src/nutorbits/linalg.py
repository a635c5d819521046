"""Exact rational linear algebra on integer matrices.

Kernels are certified modularly: sparse elimination modulo a Mersenne prime
P = 2^q - 1 with low-fill (Markowitz-style) pivoting gives the nullity
d = n - rank_P and d kernel vectors, whose reduced echelon form is lifted
entry by entry to rationals by rational reconstruction.  Every lifted
vector, scaled to integers, is checked to satisfy A v = 0 over Z, which
makes the answer exact: rank over Q is at least rank mod P, so the nullity
is at most d, and d independent verified vectors give at least d.

The first try is q = 61.  When a reconstruction or a check fails there (an
unlucky prime, or entries past the reconstruction bound) the same
elimination reruns at the first q whose prime passes the Hadamard bound:
every minor of A is then nonzero modulo P unless it is zero, so rank_P is
the rank over Q, and every reduced echelon kernel entry, a ratio of two
minors, reconstructs uniquely.  No tolerances anywhere.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .errors import ResourceCapError
from .graphs import Graph, cartesian_product
from .polynomials import IntPoly, resultant

IntMatrix = Sequence[Sequence[int]]
RationalVector = tuple[Fraction, ...]

PRODUCT_SPECTRUM_SIZE_CAP = 64

# Exponents q of Mersenne primes 2^q - 1, the moduli of the certificate.
# The last one passes the squared Hadamard bound 4095^4096 of K_4096, the
# densest graph of the largest order ``check`` accepts.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                      4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243)


@dataclass(frozen=True)
class NutVerdict:
    """Outcome of a nut-graph check: the adjacency kernel together with the
    fullness flag.  ``is_full`` is meaningful when the nullity is 1."""

    nullity: int
    kernel_basis: tuple[RationalVector, ...]
    is_full: bool
    is_nut: bool


def _check_square(a: IntMatrix) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    return n


def matvec(a: IntMatrix, v: Sequence) -> list:
    return [sum(row[j] * v[j] for j in range(len(row)) if row[j]) for row in a]


def _eliminate_mod_p(rows: list[dict[int, int]], p: int) -> list[tuple[int, list]]:
    """Forward elimination modulo the prime p on sparse rows (column ->
    entry).

    Each step pivots on a sparsest remaining row and, in it, on the column
    with the fewest remaining entries: the least Markowitz count
    (r - 1)(c - 1) that row offers, which keeps fill low on sparse graphs.
    Returns the pivots in elimination order as (pivot column, the row's
    other entries scaled so the pivot is 1).  A pivot row holds no column
    pivoted before it."""
    rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    # Every remaining row keeps a heap entry no larger than its length:
    # rows that shrink are pushed again, and an entry found smaller than its
    # row's length is pushed back with the length, so an entry popped at
    # its row's length belongs to a sparsest remaining row.
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    done = [False] * len(rows)
    pivots = []
    while heap:
        length, i = heapq.heappop(heap)
        row = rows[i]
        if done[i] or not row:
            continue
        if length < len(row):
            heapq.heappush(heap, (len(row), i))
            continue
        done[i] = True
        for j in row:
            col_rows[j].discard(i)
        c = min(row, key=lambda j: len(col_rows[j]))
        inverse = pow(row.pop(c), -1, p)
        tail = [(j, x * inverse % p) for j, x in row.items()]
        for k in col_rows.pop(c):
            other = rows[k]
            before = len(other)
            factor = p - other.pop(c)
            for j, x in tail:
                if j in other:
                    value = (other[j] + factor * x) % p
                    if value:
                        other[j] = value
                    else:
                        del other[j]
                        col_rows[j].discard(k)
                else:
                    other[j] = factor * x % p
                    col_rows[j].add(k)
            if len(other) < before:
                heapq.heappush(heap, (len(other), k))
        pivots.append((c, tail))
    return pivots


def _rref_mod_p(rows: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form modulo the prime p of linearly independent
    rows, ordered by pivot position, each leading entry 1.  Mutates and
    returns ``rows``."""
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inverse = pow(rows[r][c], -1, p)
        prow = rows[r] = [x * inverse % p for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        r += 1
    return rows


def _reconstruct(x: int, q: int) -> tuple[int, int] | None:
    """The fraction num/den congruent to x modulo 2^q - 1 with |num| and
    den below B = 2^(q // 2), or None when there is none (Wang's
    half-extended Euclidean algorithm).  For odd q, 2 (B - 1)^2 < 2^q - 1,
    so a residue has at most one such fraction."""
    bound = 1 << (q // 2)
    r0, r1, t0, t1 = (1 << q) - 1, x, 0, 1
    while r1 >= bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        t0, t1 = t1, t0 - k * t1
    if abs(t1) >= bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _modular_kernel(rows: list[dict[int, int]], n: int,
                    q: int) -> list[RationalVector] | None:
    """The reduced echelon kernel basis of the n-column sparse integer
    matrix ``rows``, certified modulo 2^q - 1 and verified over Z; None when
    rational reconstruction or the integer check fails."""
    p = (1 << q) - 1
    pivots = _eliminate_mod_p(rows, p)
    pivoted = {c for c, _ in pivots}
    vectors = []
    for f in range(n):
        if f in pivoted:
            continue
        x = [0] * n
        x[f] = 1
        for c, tail in reversed(pivots):
            x[c] = -sum(a * x[j] for j, a in tail) % p
        vectors.append(x)
    basis = []
    for x in _rref_mod_p(vectors, p):
        pairs = [_reconstruct(e, q) for e in x]
        if None in pairs:
            return None
        denom = lcm(*(d for _, d in pairs))
        ints = [num * (denom // d) for num, d in pairs]
        if any(sum(a * ints[j] for j, a in row.items()) for row in rows):
            return None
        basis.append(tuple(Fraction(num, d) for num, d in pairs))
    return basis


def _kernel(rows: list[dict[int, int]], n: int) -> list[RationalVector]:
    """The reduced echelon kernel basis of the n-column sparse integer
    matrix ``rows``: certified modulo 2^61 - 1 or, should that fail, modulo
    the next Mersenne prime past the Hadamard bound, where it cannot."""
    basis = _modular_kernel(rows, n, MERSENNE_EXPONENTS[0])
    if basis is None:
        # h2 bounds the square of every minor of the matrix
        h2 = prod(max(1, sum(x * x for x in row.values())) for row in rows)
        q = next((q for q in MERSENNE_EXPONENTS[1:] if h2 < 1 << (q - 1)), None)
        if q is None:
            raise ResourceCapError(
                f"matrix entries too large: the squared Hadamard bound has "
                f"{h2.bit_length()} bits, past the largest modulus "
                f"2^{MERSENNE_EXPONENTS[-1]} - 1")
        basis = _modular_kernel(rows, n, q)
        if basis is None:
            raise AssertionError(
                f"internal error: kernel certificate failed modulo 2^{q} - 1, "
                f"past the Hadamard bound")
    return basis


def kernel_basis(a: IntMatrix) -> list[RationalVector]:
    """Basis of the right kernel of a square integer matrix, in reduced
    echelon form with first nonzero entry 1; the form is unique, so the
    basis is canonical.

    The basis is certified modulo the prime 2^61 - 1, lifted by rational
    reconstruction and verified to satisfy A v = 0 over Z.  Should any step
    fail, the same elimination reruns modulo the first Mersenne prime past
    the Hadamard bound of ``a``, where every step succeeds; entries so large
    that the bound passes every listed prime raise ResourceCapError."""
    n = _check_square(a)
    return _kernel([{j: x for j, x in enumerate(row) if x} for row in a], n)


def is_nut(g: Graph) -> NutVerdict:
    """Certify the nut property of a graph: adjacency nullity 1 with a full
    kernel vector, on at least two vertices."""
    rows: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v in g.edges:  # sorted, so columns ascend and pivot ties break alike
        rows[u][v] = rows[v][u] = 1
    basis = _kernel(rows, g.n)
    nullity = len(basis)
    is_full = nullity == 1 and all(e != 0 for e in basis[0])
    return NutVerdict(
        nullity=nullity,
        kernel_basis=tuple(basis),
        is_full=is_full,
        is_nut=is_full and g.n >= 2,
    )


def integer_scaled(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector with the same
    direction (positive multiple)."""
    denom = lcm(*(e.denominator for e in v)) if v else 1
    ints = [int(e * denom) for e in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def char_poly(a: IntMatrix) -> IntPoly:
    """Characteristic polynomial det(xI - A), monic of degree n, via the
    fraction-free Faddeev-LeVerrier recurrence."""
    n = _check_square(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n) if a[i][t]) for j in range(n)]
              for i in range(n)]
        trace = sum(am[i][i] for i in range(n))
        q, rem = divmod(-trace, k)
        if rem:
            raise AssertionError("internal error: Faddeev-LeVerrier division inexact")
        coeffs[n - k] = q
        for i in range(n):
            am[i][i] += q
        m = am
    return IntPoly(coeffs)


def product_spectrum_check(g: Graph, h: Graph) -> bool:
    """Verify the cartesian-product spectrum identity as an exact polynomial
    equation: char(G box H)(x) = +-Res_y(char(G)(y), char(H)(x - y)),
    equivalent to the product spectrum being all sums lambda + mu."""
    n = g.n * h.n
    if n > PRODUCT_SPECTRUM_SIZE_CAP:
        raise ResourceCapError(
            f"product order {n} exceeds the spectrum-check cap "
            f"{PRODUCT_SPECTRUM_SIZE_CAP}")
    f = char_poly(g.adjacency_matrix())
    q = char_poly(h.adjacency_matrix())
    direct = char_poly(cartesian_product(g, h).adjacency_matrix())
    x_minus_y = IntPoly((IntPoly((0, 1)), -1))  # x - y, as a polynomial in y
    shifted = q.evaluate(x_minus_y)
    if isinstance(shifted, int):
        shifted = IntPoly((shifted,))
    res = resultant(f, shifted)
    if isinstance(res, int):
        res = IntPoly((res,))
    return res == direct or res == -direct


class EigenvectorMismatch(ValueError):
    """A supplied vector is not an eigenvector; ``row`` is the first row of
    A v that disagrees with lambda v."""

    def __init__(self, name: str, row: int):
        super().__init__(f"{name} is not an eigenvector: mismatch at row {row}")
        self.row = row


def _eigenvalue_of(a: IntMatrix, v: Sequence[Fraction], name: str) -> Fraction:
    n = len(a)
    if len(v) != n:
        raise ValueError(f"{name} has length {len(v)}, expected {n}")
    pivot = next((i for i, e in enumerate(v) if e != 0), None)
    if pivot is None:
        raise ValueError(f"{name} must be nonzero")
    av = matvec(a, v)
    lam = Fraction(av[pivot], 1) / v[pivot]
    for i in range(n):
        if av[i] != lam * v[i]:
            raise EigenvectorMismatch(name, i)
    return lam


def kernel_vector_from_factors(u: Sequence, v: Sequence,
                               g: Graph, h: Graph) -> RationalVector:
    """Combine factor eigenvectors with cancelling eigenvalues into a kernel
    vector of the cartesian product: w_(a,b) = u_a v_b under the row-major
    product labeling.  The result is verified to satisfy A w = 0 exactly and
    is full iff both inputs are full."""
    uf = tuple(Fraction(e) for e in u)
    vf = tuple(Fraction(e) for e in v)
    lam = _eigenvalue_of(g.adjacency_matrix(), uf, "first factor vector")
    mu = _eigenvalue_of(h.adjacency_matrix(), vf, "second factor vector")
    if lam + mu != 0:
        raise ValueError(
            f"factor eigenvalues must cancel, got {lam} + {mu} != 0")
    w = tuple(uf[a] * vf[b] for a in range(g.n) for b in range(h.n))
    residual = matvec(cartesian_product(g, h).adjacency_matrix(), w)
    if any(residual):
        raise AssertionError("internal error: product kernel vector residual nonzero")
    return w
