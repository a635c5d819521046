"""Immutable graphs and the constructions used throughout the package.

A graph is its order n and its adjacency on the dense labels 0..n-1; two
graphs are equal iff both agree.  It holds its adjacency in the form it
was built in.  One form is the sorted edge tuple, which ``read_graph6``,
``cayley_abelian``, ``subdivide_edges`` and ``circulant`` on sparse specs
build.  The other is one neighbour bitmask per vertex, which ``circulant``
builds on dense specs by rotating vertex 0's offset mask; ``is_nut`` packs
such masks straight into its elimination.  Every builder makes its output
valid by construction and hands it to ``Graph._unchecked``.  Cayley graphs
label their group elements in row-major order, so a label gives its
coordinates.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress, count
from math import prod
from operator import mod, sub
from typing import Iterable, Optional, Sequence

from .errors import Graph6ParseError, ResourceCapError, SpecificationError

# The cap bounds order, not time or memory; ROADMAP item 4 sets the caps.
# The baseline table of ROADMAP.md gives the time and peak memory of the
# slowest inputs ``check`` accepts under it.
MAX_ORDER = 4096

# A row that holds at least a fifth of the columns is dense: ``circulant``
# builds masks from degree n / DENSE_ROW_DIVISOR and edges below, and
# ``linalg`` packs the rows of an elimination once they are dense.  A mask is
# n bits whatever the degree, and reading one back into edges or dict rows
# costs time per bit, so masks pay where ``is_nut`` packs them as they stand,
# and on large dense rows.  is_nut(circulant(spec)) built as masks / as edges,
# in ms (least CPU time of 6-10 alternating calls, Python 3.11, 2 shared
# cores): Circ(34, {1..12}) 0.56 / 0.75, Circ(256, {1..32}) 22.9 / 27.1; below
# a fifth, where they stay edges, Circ(24, {1, 2}) 0.22 / 0.20, Circ(40, {1, 2,
# 3}) 0.44 / 0.40, Circ(256, {1..16}) 13.3 / 13.5, Circ(1024, {1..40}) 144 /
# 154 and Circ(4078, {1, 2}) 217 / 28.
DENSE_ROW_DIVISOR = 5


class _Frozen:
    """What a frozen dataclass gives, without importing ``dataclasses``:
    equal when of one class with equal ``_fields``, hashed and shown by
    them, closed to assignment."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copies and pickles rebuild through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# binary digits "0" and "1" to the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def bit_positions(mask: int) -> list[int]:
    """The set bits of a nonnegative integer, ascending: its binary digits,
    lowest first, as bytes 0 and 1, pick them from the counting numbers.
    All of it runs in C, a few ns a bit.  Against splitting off the lowest
    set bit in turn: 4.4 against 29 ms on the 422 rows of
    Circ(422, {1..200}), 15 against 13 ms on the 16298 rows, of at most 18
    bits, of the cross-oracle circulants."""
    return list(compress(count(), bin(mask).encode()[:1:-1].translate(_DIGIT_BYTES)))


def _normalized(edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The distinct edges as (min, max) pairs, sorted; a self-loop is
    refused."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        norm.add((u, v) if u < v else (v, u))
    return tuple(sorted(norm))


class Graph(_Frozen):
    """Undirected simple graph on vertices 0..n-1.

    ``edges`` is sorted with (min, max) normalization, so every graph has a
    canonical iteration order.  ``masks``, bit v of ``masks[u]`` set iff uv
    is an edge, is None unless a builder made them; ``edges``, if not built,
    and ``neighbors`` are derived on first read.  ``Graph(n, edges)`` and
    ``from_edges`` check their input; the builders use ``_unchecked``.
    Instances are immutable; all operations on them are pure.
    """

    _fields = ("n", "edges")
    masks: Optional[tuple[int, ...]] = None

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        if type(n) is not int:
            raise ValueError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        prev = None
        for e in edges:
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge {e!r} has an endpoint that is not an int")
            if not (0 <= u < v < n):
                raise ValueError(f"edge {e!r} out of range or not (min, max) normalized")
            if prev is not None and e <= prev:
                raise ValueError("edges must be strictly sorted")
            prev = e
        self.__dict__.update(n=n, edges=edges)

    @classmethod
    def _unchecked(cls, n: int, **form) -> "Graph":
        """A graph of order n holding ``edges`` or ``masks`` as given: the
        constructor of the builders, whose output is valid by construction."""
        g = cls.__new__(cls)
        g.__dict__.update(n=n, **form)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an arbitrary edge iterable, normalizing order
        and dropping duplicates.  Self-loops are rejected."""
        return cls(n, _normalized(edges))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(u, u + 1 + v) for u, mask in enumerate(self.masks)
                      for v in bit_positions(mask >> u + 1)])

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple([frozenset(s) for s in adj])

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree_sequence(self) -> list[int]:
        return sorted(len(s) for s in self.neighbors)

    def arcs(self) -> list[tuple[int, int]]:
        """All ordered adjacent pairs, sorted."""
        out = []
        for u, v in self.edges:
            out.append((u, v))
            out.append((v, u))
        out.sort()
        return out


class CirculantSpec(_Frozen):
    """Order and connection offsets of the circulant graph Circ(n, S).

    n must be a positive integer, the offsets distinct integers in 1..n//2,
    and S nonempty.
    """

    __slots__ = _fields = ("n", "offsets")
    n: int
    offsets: frozenset[int]

    def __init__(self, n: int, offsets: Iterable[int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "offsets", frozenset(offsets))
        if not isinstance(n, int) or n < 1:
            raise SpecificationError(f"circulant order must be a positive integer, got {n!r}")
        if not self.offsets:
            raise SpecificationError("connection set must be nonempty")
        for s in self.offsets:
            if not isinstance(s, int) or not (1 <= s <= n // 2):
                raise SpecificationError(
                    f"invalid offset {s!r}: offsets must lie in 1..{n // 2} for order {n}")


class AbelianCayleySpec(_Frozen):
    """Cayley graph data for Z_{m_1} x ... x Z_{m_d}: positive integer factor
    orders plus a connection set of nonzero group elements, integer tuples,
    closed under negation."""

    __slots__ = _fields = ("orders", "connection")
    orders: tuple[int, ...]
    connection: frozenset[tuple[int, ...]]

    def __init__(self, orders: Iterable[int], connection: Iterable[tuple[int, ...]]):
        object.__setattr__(self, "orders", tuple(orders))
        object.__setattr__(self, "connection", frozenset(map(tuple, connection)))
        if not all(isinstance(m, int) for m in self.orders):
            raise SpecificationError(f"factor orders must be integers, got {self.orders}")
        if not self.orders or any(m < 1 for m in self.orders):
            raise SpecificationError(f"factor orders must be positive, got {self.orders}")
        orders, connection = self.orders, self.connection
        d, zero = len(orders), (0,) * len(orders)
        for c in connection:
            # for an integer x, x % m == x exactly when 0 <= x < m
            if (len(c) != d or not all(isinstance(x, int) for x in c)
                    or tuple(map(mod, c, orders)) != c):
                raise SpecificationError(f"connection element {c!r} is not a group element")
            if c == zero:
                raise SpecificationError("connection set must exclude the identity")
            neg = tuple(map(mod, map(sub, orders, c), orders))
            if neg not in connection:
                raise SpecificationError(
                    f"connection set not closed under negation: {c!r} present, {neg!r} missing")


def circulant(spec: CirculantSpec) -> Graph:
    """Circ(n, S): vertex i is adjacent to i +- s (mod n) for every s in S.

    A dense spec (see ``DENSE_ROW_DIVISOR``) gives masks: vertex 0's has
    bits s and n - s for every s in S, and vertex i's is that mask rotated
    i places up, read off the doubled mask.  A sparse one gives edges:
    offset s gives (i, i + s) for i < n - s and, unless 2s = n makes them
    the same edges, (j, j + n - s) for j < s; no two offsets give a common
    edge, since they lie in 1..n/2, and none makes a vertex its own
    neighbour.  Rotation keeps the masks symmetric."""
    n, offsets = spec.n, spec.offsets
    if DENSE_ROW_DIVISOR * (2 * len(offsets) - (2 * max(offsets) == n)) >= n:
        first = 0
        for s in offsets:
            first |= 1 << s | 1 << n - s
        doubled, full = first << n | first, (1 << n) - 1
        # a tuple of a list: one of a generator, resized from its guessed
        # length, fills the tuple free lists a little on every call (as
        # ``edges`` and ``neighbors`` would)
        masks = tuple([doubled >> k & full for k in range(n, 0, -1)])
        return Graph._unchecked(n, masks=masks)
    edges = []
    for s in offsets:
        edges += [(i, i + s) for i in range(n - s)]
        if 2 * s < n:
            edges += [(j, j + n - s) for j in range(s)]
    edges.sort()
    return Graph._unchecked(n, edges=tuple(edges))


def cayley_abelian(spec: AbelianCayleySpec) -> Graph:
    """Cayley graph of the abelian group with the given cyclic factor orders:
    u ~ v iff u - v lies in the connection set.

    Vertices are the group elements in row-major order (last coordinate
    fastest): (x_1, ..., x_d) has label sum of x_i * m_(i+1) * ... * m_d.
    """
    edges = []
    for c in spec.connection:
        edges.extend(enumerate(_affine(spec.orders, 1, c)))
    return Graph._unchecked(prod(spec.orders), edges=_normalized(edges))


def _affine(orders: Sequence[int], sign: int, c: Sequence[int]) -> list[int]:
    """The label of sign * u + c, for every u in label order."""
    targets = [0]
    for m, x in zip(orders, c):
        targets = [t * m + (sign * y + x) % m for t in targets for y in range(m)]
    return targets


def cayley_automorphisms(orders: Sequence[int]) -> list[tuple[int, ...]]:
    """The translation by each factor's unit vector, then the inversion
    x -> -x, as permutations of ``cayley_abelian``'s labels.  Each is an
    automorphism of every Cayley graph of Z_{m_1} x ... x Z_{m_d}, the
    inversion because a connection set is closed under negation."""
    d = len(orders)
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return ([tuple(_affine(orders, 1, e)) for e in units]
            + [tuple(_affine(orders, -1, (0,) * d))])


def subdivide_edges(g: Graph, targets: Iterable[tuple[int, int]], s: int) -> Graph:
    """Replace each target edge uv by a path u, w_1, ..., w_s, v of fresh
    degree-2 vertices.

    New vertices are labeled n, n+1, ... in sorted target-edge order, with
    each path oriented from the smaller endpoint label, so outputs are
    reproducible.  s = 0 returns the graph unchanged.
    """
    if s < 0:
        raise ValueError(f"subdivision count must be nonnegative, got {s}")
    first = _chain_starts(g.n, targets, s)
    edge_set = set(g.edges)
    for e in first:
        if e not in edge_set:
            raise ValueError(f"target {e!r} is not an edge of the graph")
    if s == 0 or not first:
        return g
    edges = [e for e in g.edges if e not in first]
    for (u, v), b in first.items():
        chain = [u, *range(b, b + s), v]
        edges += zip(chain, chain[1:])
    return Graph._unchecked(g.n + len(first) * s, edges=_normalized(edges))


def _chain_starts(n: int, targets: Iterable[tuple[int, int]],
                  s: int) -> dict[tuple[int, int], int]:
    """Each target edge, (min, max) normalized, in sorted order, to the
    label n + i s of the first vertex of its chain of s."""
    return {e: n + i * s for i, e in enumerate(
        sorted({(u, v) if u < v else (v, u) for u, v in targets}))}


def subdivision_lifts(g: Graph, targets: Iterable[tuple[int, int]], s: int,
                      perms: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Each automorphism p of g that maps the target edges onto themselves,
    lifted to ``subdivide_edges(g, targets, s)``: it acts as p on g's
    vertices and carries the chain of each target edge (u, v) onto the
    chain of (p[u], p[v]), reversed when p[u] > p[v]."""
    first = _chain_starts(g.n, targets, s)
    lifts = []
    for p in perms:
        lift = list(p)
        for u, v in first:
            pu, pv = p[u], p[v]
            b = first[(pu, pv) if pu < pv else (pv, pu)]
            lift += range(b, b + s) if pu < pv else range(b + s - 1, b - 1, -1)
        lifts.append(tuple(lift))
    return lifts


# ---------------------------------------------------------------------------
# graph6 serialization (standard format: optional header, 6-bit big-endian
# packing of the upper triangle in column order)
# ---------------------------------------------------------------------------

_G6_PAYLOAD = re.compile(r"[ \t\r\n]*(?:>>graph6<<)?([^ \t\r\n]*)[ \t\r\n]*")
_G6_OUTSIDE = re.compile(r"[^?-~]")     # outside chr(63)..chr(126)
_G6_NONZERO = re.compile(r"[@-~]")      # a byte with at least one bit set
_G6_ADD63 = bytes((b + 63) % 256 for b in range(256))


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = bytes([n])
    elif n <= 258047:
        head = bytes([63, n >> 12, n >> 6 & 63, n & 63])
    else:
        raise ValueError(f"graph6 writer supports orders up to 258047, got {n}")
    # Edge (i, j), i < j, is bit i + j(j-1)/2 of the upper triangle in
    # column order, six bits to a byte, most significant first.
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = i + j * (j - 1) // 2
        body[k // 6] |= 32 >> (k % 6)
    return (head + body).translate(_G6_ADD63).decode("ascii")


def read_graph6(text: str) -> Graph:
    """Parse a single graph6 string (optional '>>graph6<<' header allowed).

    Raises Graph6ParseError with the byte offset of the offending character
    on malformed input, and ResourceCapError, before any edge is decoded,
    when the header gives an order above ``MAX_ORDER``.
    """
    match = _G6_PAYLOAD.match(text)
    if match.end() < len(text):
        raise Graph6ParseError("trailing data after graph6 payload", match.end())
    pos, end = match.span(1)
    if pos == end:
        raise Graph6ParseError("empty graph6 payload", pos)
    if text.startswith("~~", pos):
        raise Graph6ParseError("orders above 258047 are not supported", pos)
    # The order takes one byte, or '~' and three more.
    head = pos + 4 if text[pos] == "~" else pos + 1
    bad = _G6_OUTSIDE.search(text, pos, min(head, end))
    if bad:
        raise Graph6ParseError(f"character {bad.group()!r} outside graph6 range", bad.start())
    if head > end:
        raise Graph6ParseError("truncated graph6 payload", end)
    n = ord(text[pos]) - 63
    if n == 63:
        n = ((ord(text[pos + 1]) - 63) << 12 | (ord(text[pos + 2]) - 63) << 6
             | ord(text[pos + 3]) - 63)
    if n > MAX_ORDER:
        raise ResourceCapError(f"a graph of order {n} exceeds the order cap "
                               f"of {MAX_ORDER} vertices")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - head != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} edge bytes for order {n}, found {end - head}",
            min(end, head + nbytes))
    bad = _G6_OUTSIDE.search(text, head, end)
    if bad:
        raise Graph6ParseError(f"character {bad.group()!r} outside graph6 range", bad.start())
    # Only bytes with a set bit are visited; bit k of the upper triangle in
    # column order is edge (k - j(j-1)/2, j).
    edges = []
    j = 1
    for m in _G6_NONZERO.finditer(text, head, end):
        base = (m.start() - head) * 6
        v = ord(m.group()) - 63
        for b in range(6):
            if v & (32 >> b):
                k = base + b
                if k >= nbits:
                    raise Graph6ParseError("nonzero padding bits", head + nbytes - 1)
                while j * (j + 1) // 2 <= k:
                    j += 1
                edges.append((k - j * (j - 1) // 2, j))
    return Graph._unchecked(n, edges=tuple(sorted(edges)))


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
