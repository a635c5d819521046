"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the automorphism oracle
scans all n! permutations, the group order oracle builds a Sims-filtered
stabilizer chain from a generating set, the orbit oracle closes each item
under the generators one image at a time, the kernel oracle eliminates
fraction-free (Bareiss) over the integers instead of modulo a prime, the
residual multiplies a matrix by a vector in plain sums, and the graph6
oracle walks its input one character at a time.  Complete graphs,
cartesian products, dense adjacency matrices and neighbour bitmasks are
written from their definitions, a map is checked against the edge set, and
the gcd criterion decides the consecutive-offset circulants by arithmetic
alone.  Bi-circulants are written from their definition too.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from nutorbits import Graph


def complete_graph(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"complete graph needs at least one vertex, got {m}")
    return Graph(m, tuple(combinations(range(m), 2)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a, b) ~ (a', b') iff the pair agrees in exactly
    one coordinate and is adjacent in the other.  Product vertex (a, b) has
    label a * |V(h)| + b (row-major)."""
    nh = h.n
    edges = [(a * nh + b, a * nh + b2) for a in range(g.n) for b, b2 in h.edges]
    edges += [(a * nh + b, a2 * nh + b) for a, a2 in g.edges for b in range(nh)]
    return Graph(g.n * nh, edges)


def bicirculant_edges(m: int, S0, S1, T) -> list[tuple[int, int]]:
    """The edges of BC(m; S0, S1, T): cycle c on the vertices cm..cm + m - 1
    with j ~ j + s (mod m) for s in Sc, and the spokes j ~ m + (j + t mod m)
    for t in T.  Cycle offsets are in 1..m - 1, where s and m - s give the
    same edges and s = m / 2 gives a matching; spoke offsets are in 0..m - 1."""
    edges = set()
    for c, offsets in enumerate((S0, S1)):
        for j in range(m):
            for s in offsets:
                u, v = c * m + j, c * m + (j + s) % m
                edges.add((min(u, v), max(u, v)))
    edges |= {(j, m + (j + t) % m) for j in range(m) for t in T}
    return sorted(edges)


def edge_masks(g: Graph) -> tuple[int, ...]:
    """One neighbour bitmask per vertex: bit v of entry u is set for every
    edge uv of ``g.edges``."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def adjacency_matrix(g: Graph) -> list[list[int]]:
    """Dense (0, 1)-adjacency matrix as nested lists of ints."""
    a = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a[u][v] = a[v][u] = 1
    return a


def is_automorphism(g: Graph, p: tuple[int, ...]) -> bool:
    """Whether p permutes the vertices of g and maps every edge to an edge."""
    if sorted(p) != list(range(g.n)):
        return False
    edges = set(g.edges)
    return all((min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in g.edges)


def gcd_criterion(n: int, k: int) -> bool:
    """Arithmetic nut criterion for consecutive-offset circulants
    Circ(n, {1..k}): both n and k even, n >= 2k + 2, and
    gcd(n/2, k/2) = gcd(n/2, k + 1) = 1.  Returns False whenever the
    hypotheses fail."""
    if k < 2 or n % 2 or k % 2 or n < 2 * k + 2:
        return False
    return gcd(n // 2, k // 2) == 1 and gcd(n // 2, k + 1) == 1


def exhaustive_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """All automorphisms of g by brute force over the symmetric group.
    Feasible for n <= 8."""
    adj = g.neighbors
    edges = g.edges
    found = set()
    for p in permutations(range(g.n)):
        if all(p[v] in adj[p[u]] for u, v in edges):
            found.add(p)
    return found


Permutation = tuple[int, ...]


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p[q[i]]: apply q first, then p."""
    return tuple([p[i] for i in q])


def invert(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _first_moved(p: Permutation) -> int:
    return next(i for i, j in enumerate(p) if i != j)


def _point_stabilizer(degree: int, gens, b: int
                      ) -> tuple[dict[int, Permutation], tuple[Permutation, ...]]:
    """The orbit transversal of ``b`` (orbit point -> element mapping b to
    it) and generators of the stabilizer of ``b``: its Schreier generators
    after a Sims filter.  The filter keeps one permutation per slot (first
    moved point i, image of i).  Any other permutation in a taken slot is
    multiplied by the inverse of the kept one, which fixes i, and tried
    again until it lands in a free slot or becomes the identity.  What the
    filter keeps generates the same group."""
    ident = tuple(range(degree))
    transversal: dict[int, Permutation] = {b: ident}
    frontier = [b]
    while frontier:
        a = frontier.pop()
        for g in gens:
            c = g[a]
            if c not in transversal:
                transversal[c] = compose(g, transversal[a])
                frontier.append(c)
    inverse = {c: invert(u) for c, u in transversal.items()}
    kept: dict[tuple[int, int], tuple[Permutation, Permutation]] = {}
    for a, u in transversal.items():
        for g in gens:
            w = inverse[g[a]]
            s = tuple([w[g[j]] for j in u])     # w o g o u, which fixes b
            while s != ident:
                i = _first_moved(s)
                slot = kept.get((i, s[i]))
                if slot is None:
                    kept[i, s[i]] = (s, invert(s))
                    break
                s = compose(slot[1], s)
    return transversal, tuple(p for p, _ in kept.values())


def chain_order(degree: int, gens) -> int:
    """The order of the group that ``gens`` generate: the product of the
    orbit sizes down a Sims-filtered stabilizer chain (Sims 1970; Seress,
    Permutation Group Algorithms, 2003)."""
    ident = tuple(range(degree))
    chain = tuple(g for g in gens if g != ident)
    order = 1
    while chain:
        base = min(_first_moved(g) for g in chain)
        transversal, chain = _point_stabilizer(degree, chain, base)
        order *= len(transversal)
    return order


def orbit_partition(gens, items, act) -> list[tuple]:
    """The orbits of ``items`` under the group that ``gens`` generate, where
    ``act(p, x)`` is the image of x under p: a closure from each item not yet
    seen.  Each orbit is sorted, orbits ordered by smallest member."""
    seen = set()
    orbits = []
    for x in sorted(items):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for p in gens:
                z = act(p, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _trim(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a, b) -> tuple[int, ...]:
    """Product of two coefficient sequences, lowest degree first, by the
    schoolbook convolution."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def coarsest_equitable_partition(g: Graph, cells=None) -> set[frozenset[int]]:
    """The coarsest equitable partition finer than ``cells`` (default: one
    cell), as a set of cells.  Each pass names every vertex by its cell and
    its neighbour count in every cell; passes repeat until no cell splits."""
    n = g.n
    adj = g.neighbors
    label = [0] * n
    for i, cell in enumerate(cells or [range(n)]):
        for v in cell:
            label[v] = i
    while True:
        sig = []
        for v in range(n):
            counts: dict[int, int] = {}
            for u in adj[v]:
                counts[label[u]] = counts.get(label[u], 0) + 1
            sig.append((label[v], tuple(sorted(counts.items()))))
        names = {s: i for i, s in enumerate(sorted(set(sig)))}
        if len(names) == len(set(label)):
            break
        label = [names[s] for s in sig]
    return {frozenset(v for v in range(n) if label[v] == c) for c in set(label)}


def bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form.  Mutates and returns the pivot rows
    plus their pivot column indices.  Pivoting is deterministic: first
    nonzero entry in column order."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        prow = rows[r]
        for i in range(r + 1, nrows):
            row = rows[i]
            fac = row[c]
            if fac:
                row[c + 1:] = [(piv * x - fac * y) // prev
                               for x, y in zip(row[c + 1:], prow[c + 1:])]
            elif prev != 1 or piv != 1:
                row[c + 1:] = [piv * x // prev for x in row[c + 1:]]
            row[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], piv_cols


def rref(vectors: list[list[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over the rationals; rows ordered by pivot
    position, each leading entry 1.  This makes kernel bases canonical."""
    rows = [list(v) for v in vectors]
    if not rows:
        return ()
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


def exact_kernel(a: list[list[int]]) -> list[tuple[Fraction, ...]]:
    """The reduced echelon kernel basis by fraction-free elimination over
    the integers and back-substitution over the rationals."""
    n = len(a)
    echelon, piv_cols = bareiss_echelon([list(row) for row in a])
    piv_set = set(piv_cols)
    free_cols = [c for c in range(n) if c not in piv_set]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for i in range(len(echelon) - 1, -1, -1):
            pc = piv_cols[i]
            row = echelon[i]
            s = sum((row[j] * x[j] for j in range(pc + 1, n) if row[j]), Fraction(0))
            x[pc] = -s / row[pc]
        basis.append(x)
    canonical = list(rref(basis))
    for v in canonical:
        r = residual(a, v)
        if any(r):
            raise AssertionError(f"internal error: kernel vector has nonzero residual {r}")
    return canonical


def residual(a, v) -> list:
    """A v, one row sum at a time; v must have one entry per column."""
    return [sum(x * y for x, y in zip(row, v, strict=True)) for row in a]


def primitive(v) -> tuple[int, ...]:
    """The primitive integer multiple of a nonzero rational vector: the
    positive multiple whose entries are coprime integers."""
    entries = [Fraction(e) for e in v]
    denom = lcm(*(e.denominator for e in entries))
    ints = [int(e * denom) for e in entries]
    divisor = gcd(*ints)
    return tuple(x // divisor for x in ints)


class _Refusal(Exception):
    pass


def reference_read_graph6(text: str, max_order: int):
    """Parse one graph6 string (optional '>>graph6<<' header, whitespace
    around it) by walking it a character at a time.

    Returns the graph, or the refusal as (kind, message, offset): kind
    "Graph6ParseError" with the byte offset of the offending character, or
    "ResourceCapError" with offset None when the header gives an order above
    ``max_order``, found before any edge byte is looked at."""
    try:
        return _reference_read_graph6(text, max_order)
    except _Refusal as refusal:
        return refusal.args


def _parse_error(message: str, offset: int) -> _Refusal:
    return _Refusal("Graph6ParseError", message, offset)


def _reference_read_graph6(text: str, max_order: int) -> Graph:
    pos = 0
    end = len(text)
    while pos < end and text[pos] in " \t\r\n":
        pos += 1
    if text.startswith(">>graph6<<", pos):
        pos += len(">>graph6<<")
    body_end = pos
    while body_end < end and text[body_end] not in " \t\r\n":
        body_end += 1
    tail = body_end
    while tail < end and text[tail] in " \t\r\n":
        tail += 1
    if tail < end:
        raise _parse_error("trailing data after graph6 payload", tail)
    if pos == body_end:
        raise _parse_error("empty graph6 payload", pos)

    def value(at: int) -> int:
        if at >= body_end:
            raise _parse_error("truncated graph6 payload", body_end)
        c = ord(text[at])
        if not 63 <= c <= 126:
            raise _parse_error(f"character {text[at]!r} outside graph6 range", at)
        return c - 63

    first = value(pos)
    if first < 63:
        n = first
        pos += 1
    else:
        if value(pos + 1) == 63:
            raise _parse_error("orders above 258047 are not supported", pos)
        n = (value(pos + 1) << 12) | (value(pos + 2) << 6) | value(pos + 3)
        pos += 4
    if n > max_order:
        raise _Refusal("ResourceCapError", f"a graph of order {n} exceeds the "
                       f"order cap of {max_order} vertices", None)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if body_end - pos != nbytes:
        raise _parse_error(
            f"expected {nbytes} edge bytes for order {n}, found {body_end - pos}",
            body_end if body_end - pos < nbytes else pos + nbytes)
    bits = [(value(at) >> (5 - b)) & 1 for at in range(pos, body_end) for b in range(6)]
    if any(bits[nbits:]):
        raise _parse_error("nonzero padding bits", pos + nbytes - 1)
    k = 0
    edges = []
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(sorted(edges)))
