"""Immutable graphs and the constructions used throughout the package.

Vertices are dense integer labels 0..n-1.  Construction coordinates (group
elements for Cayley graphs, factor pairs for cartesian products) are kept as
side annotations and never take part in equality: two graphs are equal iff
they have the same order and the same normalized edge set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product as _cartesian_tuples
from typing import Iterable, Optional, Sequence

from .errors import Graph6ParseError, ResourceCapError, SpecificationError

# Larger orders are refused for time.  On Python 3.11 and one Xeon core the
# orbit census of Circ(4078, {1, 2}) takes about 0.2 s and its nut
# certificate 0.1 s; graphs with a deep first search path cost more (the
# edgeless graph of order 1200: 1.5 s and 85 MB).
MAX_ORDER = 4096


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``edges`` is sorted with (min, max) normalization, so every graph has a
    canonical iteration order.  Instances are immutable; all operations on
    them are pure.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    coords: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e!r} out of range or not (min, max) normalized")
            if prev is not None and e <= prev:
                raise ValueError("edges must be strictly sorted")
            prev = e
        if self.coords is not None and len(self.coords) != self.n:
            raise ValueError("coords must annotate every vertex")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   coords: Optional[Sequence] = None) -> "Graph":
        """Build a graph from an arbitrary edge iterable, normalizing order
        and dropping duplicates.  Self-loops are rejected."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(norm)),
                   tuple(coords) if coords is not None else None)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(s) for s in adj)

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def degree_sequence(self) -> list[int]:
        return sorted(len(s) for s in self.neighbors)

    def adjacency_matrix(self) -> list[list[int]]:
        """Dense (0, 1)-adjacency matrix as nested lists of ints."""
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return a

    def arcs(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs, sorted."""
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        out.sort()
        return out


@dataclass(frozen=True)
class CirculantSpec:
    """Order and connection offsets of the circulant graph Circ(n, S).

    Offsets must be distinct integers in 1..n//2 and S must be nonempty.
    """

    n: int
    offsets: frozenset[int]

    def __init__(self, n: int, offsets: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "offsets", frozenset(offsets))
        if n < 1:
            raise SpecificationError(f"circulant order must be positive, got {n}")
        if not self.offsets:
            raise SpecificationError("connection set must be nonempty")
        for s in self.offsets:
            if not isinstance(s, int) or not (1 <= s <= n // 2):
                raise SpecificationError(
                    f"invalid offset {s!r}: offsets must lie in 1..{n // 2} for order {n}")


@dataclass(frozen=True)
class AbelianCayleySpec:
    """Cayley graph data for Z_{m_1} x ... x Z_{m_d}: cyclic factor orders
    plus a connection set of nonzero group elements closed under negation."""

    orders: tuple[int, ...]
    connection: frozenset[tuple[int, ...]]

    def __init__(self, orders: Iterable[int], connection: Iterable[tuple[int, ...]]):
        object.__setattr__(self, "orders", tuple(orders))
        object.__setattr__(self, "connection", frozenset(tuple(c) for c in connection))
        if not self.orders or any(m < 1 for m in self.orders):
            raise SpecificationError(f"factor orders must be positive, got {self.orders}")
        zero = (0,) * len(self.orders)
        for c in self.connection:
            if len(c) != len(self.orders) or any(
                    not (0 <= x < m) for x, m in zip(c, self.orders)):
                raise SpecificationError(f"connection element {c!r} is not a group element")
            if c == zero:
                raise SpecificationError("connection set must exclude the identity")
            neg = tuple((-x) % m for x, m in zip(c, self.orders))
            if neg not in self.connection:
                raise SpecificationError(
                    f"connection set not closed under negation: {c!r} present, {neg!r} missing")


def circulant(spec: CirculantSpec) -> Graph:
    """Circ(n, S): vertex i is adjacent to i +- s (mod n) for every s in S."""
    n = spec.n
    edges = ((i, (i + s) % n) for i in range(n) for s in spec.offsets)
    return Graph.from_edges(n, edges)


def complete_graph(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"complete graph needs at least one vertex, got {m}")
    return Graph(m, tuple(combinations(range(m), 2)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (a, b) ~ (a', b') iff the pair agrees in exactly
    one coordinate and is adjacent in the other.

    Product vertex (a, b) maps to label a * |V(h)| + b (row-major), and the
    coords annotation records the coordinate pair.
    """
    nh = h.n
    edges = []
    for a in range(g.n):
        base = a * nh
        for b, b2 in h.edges:
            edges.append((base + b, base + b2))
    for a, a2 in g.edges:
        for b in range(nh):
            edges.append((a * nh + b, a2 * nh + b))
    coords = tuple((a, b) for a in range(g.n) for b in range(nh))
    return Graph.from_edges(g.n * nh, edges, coords)


def cayley_abelian(spec: AbelianCayleySpec) -> Graph:
    """Cayley graph of the abelian group with the given cyclic factor orders:
    u ~ v iff u - v lies in the connection set.

    Vertices are the group elements in row-major order (last coordinate
    fastest), annotated as coords.
    """
    elements = list(_cartesian_tuples(*(range(m) for m in spec.orders)))
    index = {e: i for i, e in enumerate(elements)}
    edges = []
    for i, u in enumerate(elements):
        for c in spec.connection:
            v = tuple((x + y) % m for x, y, m in zip(u, c, spec.orders))
            edges.append((i, index[v]))
    return Graph.from_edges(len(elements), edges, tuple(elements))


def subdivide_edges(g: Graph, targets: Iterable[tuple[int, int]], s: int) -> Graph:
    """Replace each target edge uv by a path u, w_1, ..., w_s, v of fresh
    degree-2 vertices.

    New vertices are labeled n, n+1, ... in sorted target-edge order, with
    each path oriented from the smaller endpoint label, so outputs are
    reproducible.  s = 0 returns the graph unchanged.
    """
    if s < 0:
        raise ValueError(f"subdivision count must be nonnegative, got {s}")
    edge_set = set(g.edges)
    norm = set()
    for u, v in targets:
        e = (u, v) if u < v else (v, u)
        if e not in edge_set:
            raise ValueError(f"target {e!r} is not an edge of the graph")
        norm.add(e)
    if s == 0 or not norm:
        return g
    edges = [e for e in g.edges if e not in norm]
    nxt = g.n
    for u, v in sorted(norm):
        chain = [u] + list(range(nxt, nxt + s)) + [v]
        nxt += s
        edges.extend(zip(chain, chain[1:]))
    return Graph.from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# graph6 serialization (standard format: optional header, 6-bit big-endian
# packing of the upper triangle in column order)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
_G6_OUTSIDE = re.compile(r"[^?-~]")     # outside chr(63)..chr(126)
_G6_NONZERO = re.compile(r"[@-~]")      # a byte with at least one bit set


def write_graph6(g: Graph) -> str:
    n = g.n
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.extend(((n >> shift) & 63) + 63 for shift in (12, 6, 0))
    else:
        raise ValueError(f"graph6 writer supports orders up to 258047, got {n}")
    # Edge (i, j), i < j, is bit i + j(j-1)/2 of the upper triangle in
    # column order, six bits to a byte, most significant first.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = i + j * (j - 1) // 2
        body[k // 6] |= 32 >> (k % 6)
    out.extend(b + 63 for b in body)
    return out.decode("ascii")


def read_graph6(text: str) -> Graph:
    """Parse a single graph6 string (optional '>>graph6<<' header allowed).

    Raises Graph6ParseError with the byte offset of the offending character
    on malformed input, and ResourceCapError, before any edge is decoded,
    when the header gives an order above ``MAX_ORDER``.
    """
    pos = 0
    end = len(text)
    while pos < end and text[pos] in " \t\r\n":
        pos += 1
    if text.startswith(_G6_HEADER, pos):
        pos += len(_G6_HEADER)
    body_end = pos
    while body_end < end and text[body_end] not in " \t\r\n":
        body_end += 1
    tail = body_end
    while tail < end and text[tail] in " \t\r\n":
        tail += 1
    if tail < end:
        raise Graph6ParseError("trailing data after graph6 payload", tail)
    if pos == body_end:
        raise Graph6ParseError("empty graph6 payload", pos)

    def value(at: int) -> int:
        if at >= body_end:
            raise Graph6ParseError("truncated graph6 payload", body_end)
        c = ord(text[at])
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"character {text[at]!r} outside graph6 range", at)
        return c - 63

    first = value(pos)
    if first < 63:
        n = first
        pos += 1
    else:
        if value(pos + 1) == 63:
            raise Graph6ParseError("orders above 258047 are not supported", pos)
        n = (value(pos + 1) << 12) | (value(pos + 2) << 6) | value(pos + 3)
        pos += 4
    if n > MAX_ORDER:
        raise ResourceCapError(f"a graph of order {n} exceeds the order cap "
                               f"of {MAX_ORDER} vertices")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if body_end - pos != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} edge bytes for order {n}, found {body_end - pos}",
            body_end if body_end - pos < nbytes else pos + nbytes)
    bad = _G6_OUTSIDE.search(text, pos, body_end)
    if bad:
        raise Graph6ParseError(f"character {bad.group()!r} outside graph6 range", bad.start())
    # Only bytes with a set bit are visited; bit k of the upper triangle in
    # column order is edge (k - j(j-1)/2, j).
    edges = []
    j = 1
    for m in _G6_NONZERO.finditer(text, pos, body_end):
        base = (m.start() - pos) * 6
        v = ord(m.group()) - 63
        for b in range(6):
            if v & (32 >> b):
                k = base + b
                if k >= nbits:
                    raise Graph6ParseError("nonzero padding bits", pos + nbytes - 1)
                while j * (j + 1) // 2 <= k:
                    j += 1
                edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, tuple(sorted(edges)))


# DOT output; one color class per edge orbit when a partition is supplied.

_DOT_PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
)


def write_dot(g: Graph, edge_orbits: Optional[Sequence[Sequence[tuple[int, int]]]] = None) -> str:
    color_of = {}
    if edge_orbits is not None:
        for i, orbit in enumerate(edge_orbits):
            for e in orbit:
                color_of[tuple(e)] = _DOT_PALETTE[i % len(_DOT_PALETTE)]
    lines = ["graph G {", "  node [shape=circle, width=0.2, fixedsize=true];"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for e in g.edges:
        if e in color_of:
            lines.append(f'  {e[0]} -- {e[1]} [color="{color_of[e]}"];')
        else:
            lines.append(f"  {e[0]} -- {e[1]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
