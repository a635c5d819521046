"""Exact linear algebra on integer matrices, over Z.

Kernels are certified modularly: sparse elimination modulo a Mersenne prime
P = 2^q - 1 with low-fill (Markowitz-style) pivoting gives the nullity
d = n - rank_P and d kernel vectors, whose reduced echelon form is lifted
entry by entry to rationals by rational reconstruction.  Every lifted
vector, scaled to its primitive integer multiple, is checked to satisfy
A v = 0 over Z, which makes the answer exact: rank over Q is at least rank
mod P, so the nullity is at most d, and d independent verified vectors give
at least d.

The first try is q = 61.  When a reconstruction or a check fails there (an
unlucky prime, or entries past the reconstruction bound) the same
elimination reruns at the first q whose prime passes the Hadamard bound:
every minor of A is then nonzero modulo P unless it is zero, so rank_P is
the rank over Q, and every reduced echelon kernel entry, a ratio of two
minors, reconstructs uniquely.  No tolerances anywhere.

Spectra are compared through power sums tr(A^k), which fix the
characteristic polynomial by Newton's identities.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import comb, gcd, lcm, prod
from typing import Sequence

from .errors import ResourceCapError
from .graphs import Graph, cartesian_product

IntMatrix = Sequence[Sequence[int]]
IntVector = tuple[int, ...]

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
    kernel_basis: tuple[IntVector, ...]
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
                    q: int) -> list[IntVector] | None:
    """The reduced echelon kernel basis of the n-column sparse integer
    matrix ``rows``, each vector scaled to its primitive integer multiple,
    certified modulo 2^q - 1 and verified over Z; None when rational
    reconstruction or the integer check fails."""
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
        divisor = gcd(*ints)  # positive: the leading entry is denom
        basis.append(tuple(e // divisor for e in ints))
    return basis


def _kernel(rows: list[dict[int, int]], n: int) -> list[IntVector]:
    """The primitive reduced echelon kernel basis of the n-column sparse
    integer matrix ``rows``: certified modulo 2^61 - 1 or, should that fail,
    modulo the next Mersenne prime past the Hadamard bound, where it
    cannot."""
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


def kernel_basis(a: IntMatrix) -> list[IntVector]:
    """Basis of the right kernel of a square integer matrix: the reduced
    echelon basis, each vector scaled to its primitive integer multiple
    (coprime entries, first nonzero entry positive).  The reduced echelon
    form is unique, so the basis is canonical.

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


def _power_traces(a: IntMatrix, m: int) -> list[int]:
    """tr(A^k) for k = 0..m, multiplying A^(k-1) by the sparse rows of A."""
    n = len(a)
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    traces = [n]
    for _ in range(m):
        nxt = []
        for prow in power:
            out = [0] * n
            for t, c in enumerate(prow):
                if c:
                    for j, x in rows[t]:
                        out[j] += c * x
            nxt.append(out)
        power = nxt
        traces.append(sum(power[i][i] for i in range(n)))
    return traces


def char_poly(a: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - A), monic of degree n, from the
    power sums tr(A^k) by Newton's identities; its coefficients lowest
    degree first."""
    n = _check_square(a)
    traces = _power_traces(a, n)
    coeffs = [1]  # c_0..c_n of x^n + c_1 x^(n-1) + ... + c_n
    for k in range(1, n + 1):
        q, rem = divmod(-sum(c * traces[k - i] for i, c in enumerate(coeffs)), k)
        if rem:
            raise AssertionError("internal error: Newton's identity division inexact")
        coeffs.append(q)
    return tuple(reversed(coeffs))


def product_spectrum_check(g: Graph, h: Graph) -> bool:
    """Verify the cartesian-product spectrum identity, that the spectrum of
    G box H is all sums lambda + mu, as exact power-sum equations:
    tr(A_P^k) = sum_j C(k, j) tr(A_G^j) tr(A_H^(k - j)) for every k up to
    the product's order, which by Newton's identities fixes its spectrum."""
    n = g.n * h.n
    if n > PRODUCT_SPECTRUM_SIZE_CAP:
        raise ResourceCapError(
            f"product order {n} exceeds the spectrum-check cap "
            f"{PRODUCT_SPECTRUM_SIZE_CAP}")
    tg = _power_traces(g.adjacency_matrix(), n)
    th = _power_traces(h.adjacency_matrix(), n)
    direct = _power_traces(cartesian_product(g, h).adjacency_matrix(), n)
    return all(direct[k] == sum(comb(k, j) * tg[j] * th[k - j] for j in range(k + 1))
               for k in range(n + 1))


class EigenvectorMismatch(ValueError):
    """A supplied vector is not an eigenvector; ``row`` is the first row of
    A v that disagrees with lambda v."""

    def __init__(self, name: str, row: int):
        super().__init__(f"{name} is not an eigenvector: mismatch at row {row}")
        self.row = row


def _eigenvalue_of(a: IntMatrix, v: Sequence[int], name: str) -> int:
    n = len(a)
    if len(v) != n:
        raise ValueError(f"{name} has length {len(v)}, expected {n}")
    pivot = next((i for i, e in enumerate(v) if e != 0), None)
    if pivot is None:
        raise ValueError(f"{name} must be nonzero")
    av = matvec(a, v)
    for i in range(n):
        if av[i] * v[pivot] != av[pivot] * v[i]:
            raise EigenvectorMismatch(name, i)
    # a rational eigenvalue of an integer matrix is an integer
    return av[pivot] // v[pivot]


def kernel_vector_from_factors(u: Sequence[int], v: Sequence[int],
                               g: Graph, h: Graph) -> IntVector:
    """Combine integer factor eigenvectors with cancelling eigenvalues into
    a kernel vector of the cartesian product: w_(a,b) = u_a v_b under the
    row-major product labeling.  The result is verified to satisfy A w = 0
    exactly and is full iff both inputs are full."""
    lam = _eigenvalue_of(g.adjacency_matrix(), u, "first factor vector")
    mu = _eigenvalue_of(h.adjacency_matrix(), v, "second factor vector")
    if lam + mu != 0:
        raise ValueError(
            f"factor eigenvalues must cancel, got {lam} + {mu} != 0")
    w = tuple(u[a] * v[b] for a in range(g.n) for b in range(h.n))
    residual = matvec(cartesian_product(g, h).adjacency_matrix(), w)
    if any(residual):
        raise AssertionError("internal error: product kernel vector residual nonzero")
    return w
