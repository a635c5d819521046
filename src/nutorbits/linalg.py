"""Exact kernels over Z of symmetric integer matrices, given by sparse rows
that are also their columns (row j is column j): the nut certificate.

Kernels are certified modularly: elimination modulo a Mersenne prime
P = 2^q - 1 gives the nullity d = n - rank_P and the d reduced echelon
kernel vectors, lifted to rationals by rational reconstruction of each
distinct residue.  Every lifted vector, scaled to its primitive integer
multiple, is checked to satisfy A v = 0 over Z, which makes the answer
exact: rank over Q is at least rank mod P, so the nullity is at most d, and
d independent verified vectors give at least d.

The elimination pivots from the last column down, onto the rightmost
independent columns of A mod P.  The kernel's reduced echelon form leads
with the leftmost independent columns of the dual matroid, by duality the
other columns, so back-substitution, with 1 at one of them and 0 at the
rest, yields that form as it stands.  It runs on sparse dict rows until
the live rows are dense (see PACKED_MAX_COLUMNS and HANDOVER_MIN_COLUMNS),
then on rows packed into one integer each.  No live row then holds a
column above the current one, so the rows go over as they stand and the
pivot columns do not change.  A graph built as neighbour bitmasks (see
``graphs``) whose rows are dense from the start is packed straight from
its masks, a byte at a time, by looking up each nibble in a small table
of that nibble spread over four slots; its dict rows are built only for
the dict elimination, and the check of a singular matrix reads the masks
of the kernel vectors' supports, each mask once.

Each kernel vector costs a few n-entry lists and a walk over the pivot
columns above its free column, plus work in its support; the nonzeros of A
outside the support are never read.  The elimination hands back its pivot
rows transposed, each column with the pivots whose rows hold it, so
back-substitution walks the pivot columns in increasing order over one
n-entry list of pending sums, pushes each nonzero entry on to the pivots it
feeds and passes over the zeros; every pivot's pending sum is the one
row-by-row substitution takes, in another order.  Only the distinct nonzero
residues of a vector are reconstructed, each once: 0 lifts to 0/1, which
moves neither the common denominator nor the gcd, and a vector of entries
+-1 takes two lifts whatever its support.  A v is summed over the support
as the columns v_j A[:, j]: the whole product over Z, at the cost of the
support's column degrees.  At full rank none of this is set up.

The moduli form a ladder.  The first try is q = 13: every residue and
every product of two fits one 30-bit CPython digit, and fractions with numerator and
denominator below 2^6 reconstruct, which covers the kernels of most
graphs.  Next comes q = 61.  When a reconstruction or a check fails there
too (an unlucky prime, or entries past the reconstruction bound) the same
certificate reruns at the first q whose prime passes the Hadamard bound:
every minor of A is then nonzero modulo P unless it is zero, so rank_P is
the rank over Q, and every reduced echelon kernel entry, a ratio of two
minors, reconstructs uniquely.  The reduced echelon form is unique, so
every rung that certifies gives the same basis.  No tolerances anywhere.

A subdivision holds its chains (see ``graphs.subdivide_edges``): each
subdivided edge uv of its base is a path u - a_1 - ... - a_L - v of new
degree-2 vertices, with L = 0 (mod 4), u != v and uv no edge, as the base
is simple.  The rows of a_1..a_L force a_{2i} = (-1)^i x_u and
a_{2i+1} = (-1)^i x_v (a_0 = u), so a_1 = x_v and a_L = x_u, and the rows
of u and v read as if the chain were the edge uv.  The base's kernel thus
lifts one to one onto the subdivision's, each chain as (x_v, -x_u, -x_v,
x_u) repeated, with the same nullity and fullness.  Chain labels come
after the base's, so a lifted vector equals its base vector on the base's
labels, where every lead lies: the lift of the primitive reduced echelon
basis is the subdivision's.  ``is_nut`` eliminates the base's rows alone
and checks each lifted vector for A v = 0 over Z on the whole graph.  Any
other graph, a subdivision read from graph6 too, is eliminated whole.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import chain
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ResourceCapError
from .graphs import DENSE_ROW_DIVISOR, Graph, bit_positions

IntVector = tuple[int, ...]
# an elimination's pivot columns, users and weights (see _eliminate_mod_p)
Eliminated = tuple[list[int], list[list[int]], list[list[int]]]

# Exponents q of Mersenne primes 2^q - 1, the moduli of the certificate:
# 2^13 - 1 is tried first and 2^61 - 1 next, and the rest are the Hadamard
# rungs, of which the first past a matrix's bound is tried last.  The last
# one passes the squared Hadamard bound 4095^4096 of K_4096, the densest
# graph of the largest order ``check`` accepts.
MERSENNE_EXPONENTS = (13, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253,
                      4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243)

# The dict rows go packed at the first column c with c + 1 at most
# PACKED_MAX_COLUMNS whose sparsest live holder is dense, with at least
# (c + 1) / DENSE_ROW_DIVISOR entries (see ``graphs``).  Packed rows cost
# about c^3 W bit operations whatever the fill, dict rows what the fill
# makes them.  In ms, packed / dict rows / handover modulo 2^13 - 1 (best
# of 3, Python 3.11, 2 shared cores): G(160, 0.5) 20 / 304 / 21; G(300,
# 0.05) 69 / 743 / 76; random cubic, order 600, 200 / 126 / 24; Circ(400,
# {1..25}) relabelled 144 / 89 / 86; G(256, 0.2) 40 / 1086 / 90 (its
# sparsest rows hold under a fifth); K_96 5.8 / 5.9 / 5.5, K_256 77 / 45 /
# 78, K_800 1585 / 392 / 332.
PACKED_MAX_COLUMNS = 256

# A handover after the first pivot also needs c + 1 at least
# HANDOVER_MIN_COLUMNS: on narrower live blocks short dict rows cost less
# per column than packed rows.  ``is_nut`` in us, handing over at any width
# / from 32 columns (best 5 of 40 alternating batches, Python 3.11, 2 shared
# cores): C_20 212 / 162 and C_40 365 / 321 (blocks of 10 columns),
# Circ(60, {1, 5, 7}) 1124 / 959 (26); construct_with_orbits(31, 32)
# 2445 / 2416 and K_400 76.5 / 74.7 ms (10).  Wider blocks go either way:
# dict rows ran 4-7% faster on Q_6 (32) and Circ(120, {1, 2, 3, 4}) (40),
# and about a third slower on prop3_graph(13) (49).
HANDOVER_MIN_COLUMNS = 32


class NutVerdict(NamedTuple):
    """Outcome of a nut-graph check: the adjacency kernel together with the
    fullness flag.  ``is_full`` is meaningful when the nullity is 1."""

    nullity: int
    kernel_basis: tuple[IntVector, ...]
    is_full: bool
    is_nut: bool


def _mask_rows(masks: Sequence[int]) -> list[dict[int, int]]:
    """The dict rows of the 0/1 matrix whose row i has bit j of
    ``masks[i]`` as its entry in column j."""
    return [dict.fromkeys(bit_positions(mask), 1) for mask in masks]


def _packs_from_start(n: int, holders: Iterable[int]) -> bool:
    """Whether the elimination of n columns runs packed from the start:
    ``holders`` are the entry counts of the rows that hold column n - 1."""
    return n <= PACKED_MAX_COLUMNS and DENSE_ROW_DIVISOR * min(holders, default=0) >= n


def _eliminate_mod_p(rows: list[dict[int, int]], n: int, q: int) -> Eliminated:
    """Forward elimination modulo p = 2^q - 1 of the n-column sparse rows
    ``rows`` (column -> entry), from the last column down, each on a sparsest
    live row that holds it (the smaller index on a tie), until the rows go packed.
    Returns the pivot columns in order and, when they are fewer than n, the
    pivot rows' other entries / pivot transposed for back-substitution:
    ``users[j]`` lists the pivot columns whose row holds column j and
    ``weights[j]`` those entries, in parallel.  At full rank both are [].

    The dict rows skip work their input makes idle.  Rows whose entries
    all lie in 1..p-1, as every adjacency matrix's do, are copied as they
    stand; otherwise each row is reduced and its zeros dropped.  A column
    with two holders picks the sparser with no keyed search, and a
    pivot entry of 1 leaves the pivot row's tail as it stands, with no
    inverse or scaling."""
    if _packs_from_start(n, (len(row) for row in rows if n - 1 in row)):
        return _eliminate_packed(rows, n, q)  # dense from the start
    p = (1 << q) - 1
    if all(0 < x < p for x in set(chain.from_iterable(map(dict.values, rows)))):
        rows = list(map(dict.copy, rows))  # reduced already, as adjacency rows are
    else:
        rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    pivots = []
    block: Eliminated = ([], [], [])  # what the packed rows return, if anything
    for c in sorted(col_rows, reverse=True):
        holders = col_rows.pop(c)
        if not holders:
            continue
        if len(holders) == 2:  # most columns of a sparse matrix
            a, b = holders
            i = a if (len(rows[a]), a) < (len(rows[b]), b) else b
        else:
            i = min(holders, key=lambda k: (len(rows[k]), k))
        if (HANDOVER_MIN_COLUMNS <= c + 1 <= PACKED_MAX_COLUMNS
                and DENSE_ROW_DIVISOR * len(rows[i]) > c):
            block = _eliminate_packed([row for row in rows if row], c + 1, q)
            break
        holders.discard(i)
        row, rows[i] = rows[i], {}
        lead = row.pop(c)
        for j in row:
            col_rows[j].discard(i)
        if lead == 1:
            tail = list(row.items())
        else:
            inverse = pow(lead, -1, p)
            tail = [(j, x * inverse % p) for j, x in row.items()]
        for k in holders:
            other = rows[k]
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
        pivots.append((c, tail))
    block_columns, users, weights = block
    columns = [c for c, _ in pivots] + block_columns
    if len(columns) == n:
        return columns, [], []
    # the block's lists cover its columns, or none at its full rank
    users += [[] for _ in range(n - len(users))]
    weights += [[] for _ in range(n - len(weights))]
    for c, tail in pivots:
        for j, a in tail:
            users[j].append(c)
            weights[j].append(a)
    return columns, users, weights


@lru_cache(maxsize=None)
def _spread(w: int) -> list[int]:
    """Entry x: the bits of the nibble x spread over four slots of w bits,
    bit b to slot 3 - b.  Sixteen integers of up to 4w bits, about 1 KB a
    width; a table of the 256 bytes packs the cross-oracle masks about a
    third faster (5.7 against 8.7 ms a round) but keeps 15 KB a width."""
    table = [0]
    for b in range(4):  # entries x + 2^b add bit b
        table += [t | 1 << w * (3 - b) for t in table]
    return table


def _packed_rows(rows: Optional[list[dict[int, int]]], n: int, q: int, w: int,
                 masks: Optional[Sequence[int]] = None) -> list[int]:
    """The nonzero rows reduced modulo p = 2^q - 1, each packed into one
    integer with column j in the slot of w bits at bit w (n - 1 - j).  Dict
    rows are packed entry by entry.  A mask is padded with zero columns to
    whole bytes and packed a byte at a time, lowest columns (the highest
    slots) first, each byte by a lookup of each nibble in the slot width's
    table."""
    p = (1 << q) - 1
    live = []
    if masks is None:
        for row in rows:
            y = 0
            for j, x in row.items():
                y += x % p << w * (n - 1 - j)
            if y:
                live.append(y)
        return live
    table, width = _spread(w), (n + 7) // 8
    pad, step, half = 8 * width - n, 8 * w, 4 * w
    for mask in masks:
        if mask:
            y = 0
            for x in (mask << pad).to_bytes(width, "little"):
                y = y << step | table[x & 15] << half | table[x >> 4]
            live.append(y)
    return live


def _eliminate_packed(rows: Optional[list[dict[int, int]]], n: int, q: int,
                      masks: Optional[Sequence[int]] = None) -> Eliminated:
    """Forward elimination modulo p = 2^q - 1 on rows packed into one
    integer each, column j in the slot of W = 2q + 2 + n.bit_length() bits
    at bit W (n - 1 - j), so the last column comes first.  Returns what
    ``_eliminate_mod_p`` returns, on the same pivot columns.  The rows come
    as dict rows or as the 0/1 ``masks`` (see ``_packed_rows``).

    A row update y + (p - f) prow is one multiply and one add over the
    whole row and is left unreduced.  Pivot rows keep their slots at most
    2^q + 1, so an update adds less than 2^(2q) to a slot; a row meets at
    most n pivots, so its slots stay below 2^(W - 1) and none carries into
    the next.  Each step shifts the pivot column out of every remaining row,
    so slot 0 is always the current column.  A pivot row is reduced by the
    Mersenne fold (2^q = 1 mod p) once before it is scaled by the pivot's
    inverse and twice after.  The pivot rows are unpacked, straight into
    ``users`` and ``weights``, only when the rank is below n, the one case
    back-substitution reads them."""
    p = (1 << q) - 1
    w = 2 * q + 2 + n.bit_length()
    slot = (1 << w) - 1
    ones = ((1 << w * n) - 1) // slot  # bit 0 of every slot
    lo, hi = p * ones, ((1 << w - 2 * q) - 1) * ones

    def fold(x: int) -> int:
        return (x & lo) + (x >> q & lo) + (x >> 2 * q & hi)

    live = _packed_rows(rows, n, q, w, masks)
    pivots = []
    for c in range(n - 1, -1, -1):
        for k, y in enumerate(live):
            f = (y & slot) % p
            if f:
                break
        else:
            live = [y >> w for y in live]
            continue
        del live[k]
        prow = fold(fold(fold(y) * pow(f, -1, p)))  # slot 0 is now 1 mod p
        pivots.append((c, prow))
        # a row with a zero in the pivot column only shifts; one that
        # reaches zero drops out
        live = [z for y in live
                if (z := (y + (p - f) * prow if (f := (y & slot) % p) else y) >> w)]
    columns = [c for c, _ in pivots]
    if len(columns) == n:
        return columns, [], []
    users: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[int]] = [[] for _ in range(n)]
    for c, prow in pivots:
        for j in range(c - 1, -1, -1):
            prow >>= w
            x = (prow & slot) % p
            if x:
                users[j].append(c)
                weights[j].append(x)
    return columns, users, weights


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


def _modular_kernel(rows: Optional[list[dict[int, int]]], n: int, q: int,
                    masks: Optional[Sequence[int]] = None) -> list[IntVector] | None:
    """The reduced echelon kernel basis of the symmetric n x n sparse
    integer matrix ``rows`` (column -> entry; row j is column j), each
    vector scaled to its primitive integer multiple, certified modulo
    2^q - 1 and verified over Z; None when rational reconstruction or the
    integer check fails.  One vector per free column of the one
    elimination, whichever rows it ends on.

    The vector with 1 at free column f walks the pivot columns above f in
    increasing order, pushing each nonzero x_j on to the pivots in
    ``users[j]``.  Each distinct residue of its support is reconstructed
    once, and the support is summed, column by column, into A v (see the
    module docstring).  At full rank it returns [] before any of this is
    set up.  The 0/1 rows ``masks`` (see ``_kernel``) go packed as they
    stand, and the check reads each mask of the supports at most once."""
    p = (1 << q) - 1
    if masks is None:
        columns, users, weights = _eliminate_mod_p(rows, n, q)
    else:
        columns, users, weights = _eliminate_packed(rows, n, q, masks)
    if len(columns) == n:
        return []
    ascending = columns[::-1]
    basis = []
    positions: dict[int, list[int]] = {}  # column j: the rows of its mask
    for f in sorted(set(range(n)).difference(ascending)):
        # a pivot row holds only columns below its pivot column, so every
        # push goes up and x_c = 0 for c < f
        pending = [0] * n
        for c, a in zip(users[f], weights[f]):
            pending[c] += a
        support, residues = [f], [1]
        for c in ascending[bisect_right(ascending, f):]:
            x = -pending[c] % p
            if x:
                support.append(c)
                residues.append(x)
                for k, a in zip(users[c], weights[c]):
                    pending[k] += a * x
        lifts = {x: _reconstruct(x, q) for x in set(residues)}
        if None in lifts.values():
            return None
        denom = lcm(*(d for _, d in lifts.values()))
        scaled = {x: num * (denom // d) for x, (num, d) in lifts.items()}
        ints = [scaled[x] for x in residues]
        product = [0] * n
        for j, e in zip(support, ints):  # column j
            if masks is None:
                for i, a in rows[j].items():
                    product[i] += a * e
            else:
                if j not in positions:
                    positions[j] = bit_positions(masks[j])
                for i in positions[j]:
                    product[i] += e
        if any(product):
            return None
        divisor = gcd(*scaled.values())  # positive: the leading entry, at f, is denom
        v = [0] * n
        for j, e in zip(support, ints):
            v[j] = e // divisor
        basis.append(tuple(v))
    return basis


def _kernel(rows: Optional[list[dict[int, int]]], n: int,
            masks: Optional[Sequence[int]] = None) -> list[IntVector]:
    """The primitive reduced echelon kernel basis of the symmetric n x n
    sparse integer matrix ``rows`` (row j is column j): certified modulo
    2^13 - 1, else modulo 2^61 - 1, else modulo the first Mersenne prime
    past the Hadamard bound, where it cannot fail.  A symmetric 0/1 matrix
    may come as ``masks`` instead, bit j of ``masks[i]`` its entry (i, j),
    with ``rows`` None: they are packed as they stand if the elimination
    runs packed from the start, and read into dict rows otherwise."""
    if masks is not None and not _packs_from_start(
            n, (mask.bit_count() for mask in masks if mask >> n - 1)):
        rows, masks = _mask_rows(masks), None
    for q in MERSENNE_EXPONENTS[:2]:
        basis = _modular_kernel(rows, n, q, masks)
        if basis is not None:
            return basis
    # h2 bounds the square of every minor of the matrix
    if masks is None:
        h2 = prod(max(1, sum(x * x for x in row.values())) for row in rows)
    else:
        h2 = prod(max(1, mask.bit_count()) for mask in masks)
    q = next((q for q in MERSENNE_EXPONENTS[2:] if h2 < 1 << (q - 1)), None)
    if q is None:
        raise ResourceCapError(
            f"matrix entries too large: the squared Hadamard bound has "
            f"{h2.bit_length()} bits, past the largest modulus "
            f"2^{MERSENNE_EXPONENTS[-1]} - 1")
    basis = _modular_kernel(rows, n, q, masks)
    if basis is None:
        raise AssertionError(
            f"internal error: kernel certificate failed modulo 2^{q} - 1, "
            f"past the Hadamard bound")
    return basis


def _chain_lift(g: Graph, basis: list[IntVector]) -> list[IntVector]:
    """The base kernel ``basis`` of g lifted along g's chains, each vector
    checked to give A v = 0 over Z on the whole of g."""
    first, s = g.chains
    lifted = []
    for y in basis:
        x = list(y)
        for u, v in first:  # in increasing order of the chains' labels
            x += (x[v], -x[u], -x[v], x[u]) * (s // 4)
        product = [0] * g.n
        for j, e in enumerate(x):  # A x, column by column
            if e:
                for i in g.neighbors[j]:
                    product[i] += e
        if any(product):
            raise AssertionError("internal error: a kernel vector lifted "
                                 "along a subdivision's chains fails A v = 0")
        lifted.append(tuple(x))
    return lifted


def is_nut(g: Graph) -> NutVerdict:
    """Certify the nut property of a graph: adjacency nullity 1 with a full
    kernel vector, on at least two vertices.  A graph built as masks is
    certified from them, and any other from dict rows of its edges: of the
    base alone, the labels below the first chain's with each subdivided
    edge put back, when it holds chains (see the module docstring)."""
    if g.masks is not None:
        basis = _kernel(None, g.n, g.masks)
    else:
        first, s = g.chains or ({}, 0)
        m = g.n - len(first) * s  # the base's order
        rows: list[dict[int, int]] = [{} for _ in range(m)]
        for u, v in chain(g.edges, first):
            if v < m:
                rows[u][v] = rows[v][u] = 1
        basis = _kernel(rows, m)
        if first:
            basis = _chain_lift(g, basis)
    nullity = len(basis)
    is_full = nullity == 1 and all(e != 0 for e in basis[0])
    return NutVerdict(
        nullity=nullity,
        kernel_basis=tuple(basis),
        is_full=is_full,
        is_nut=is_full and g.n >= 2,
    )
