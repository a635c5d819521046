"""Graph automorphism groups from scratch, plus orbit machinery.

The search is a small canonical-labeling engine: iterated equitable
refinement of an ordered partition (cells split by neighbor counts per
cell), with backtracking over a target cell.  Every discrete leaf yields a
labeling; any leaf whose relabeled edge set matches the first leaf's gives
an automorphism.  Siblings already reachable from an explored branch via
known automorphisms fixing the branching prefix are pruned, which is what
keeps vertex-transitive instances cheap.

Groups are enumerated in full by breadth-first closure over the generators
up to a cap (default 10^6, override with NUTORBITS_ENUM_CAP); above the cap
the group is returned with an order computed by a Schreier-style orbit chain
and flagged unverified.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError, ResourceCapError
from .graphs import Graph

Permutation = tuple[int, ...]

DEFAULT_ENUM_CAP = 10 ** 6


def _enum_cap() -> int:
    text = os.environ.get("NUTORBITS_ENUM_CAP")
    if not text:
        return DEFAULT_ENUM_CAP
    try:
        return int(text)
    except ValueError:
        raise InputError(f"NUTORBITS_ENUM_CAP must be an integer, got {text!r}") from None


def identity(n: int) -> Permutation:
    return tuple(range(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p[q[i]]: apply q first, then p."""
    return tuple(p[i] for i in q)


def invert(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_automorphism(g: Graph, p: Permutation) -> bool:
    if len(p) != g.n or sorted(p) != list(range(g.n)):
        return False
    adj = g.neighbors
    return all(p[v] in adj[p[u]] for u, v in g.edges)


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    generators: tuple[Permutation, ...]
    elements: Optional[tuple[Permutation, ...]]
    order: int
    order_verified: bool

    @classmethod
    def from_generators(cls, degree: int, generators: Iterable[Permutation],
                        cap: Optional[int] = None) -> "PermutationGroup":
        """Enumerate the generated group by BFS closure.  When the closure
        would exceed the cap, elements are dropped and the order falls back
        to a Schreier-style orbit-chain computation, flagged unverified."""
        cap = _enum_cap() if cap is None else cap
        ident = identity(degree)
        gens = tuple(dict.fromkeys(g for g in generators if g != ident))
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    h = compose(g, e)
                    if h not in elems:
                        if len(elems) >= cap:
                            return cls(degree, gens, None,
                                       _schreier_order(degree, gens), False)
                        elems.add(h)
                        nxt.append(h)
            frontier = nxt
        return cls(degree, gens, tuple(sorted(elems)), len(elems), True)


def _schreier_order(degree: int, gens: Sequence[Permutation]) -> int:
    """Group order via a plain orbit/stabilizer chain (Schreier generators,
    no sifting).  Exact, but not cross-checked by closure."""
    ident = identity(degree)
    gens = [g for g in gens if g != ident]
    if not gens:
        return 1
    base = min(i for g in gens for i in range(degree) if g[i] != i)
    transversal: dict[int, Permutation] = {base: ident}
    frontier = [base]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = g[a]
            if b not in transversal:
                transversal[b] = compose(g, transversal[a])
                frontier.append(b)
    stab_gens = set()
    for a, u in transversal.items():
        for g in gens:
            rep = transversal[g[a]]
            s = compose(invert(rep), compose(g, u))
            if s != ident:
                stab_gens.add(s)
    return len(transversal) * _schreier_order(degree, sorted(stab_gens))


def orbits_of(gens: Sequence[Permutation], items: Iterable, act) -> list[tuple]:
    """Orbit partition of ``items`` under the generator action ``act``; each
    orbit is sorted, orbits ordered by smallest member."""
    items = sorted(items)
    seen = set()
    orbits = []
    for x in items:
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = act(g, y)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _act_point(p: Permutation, v: int) -> int:
    return p[v]


def _act_edge(p: Permutation, e: tuple[int, int]) -> tuple[int, int]:
    a, b = p[e[0]], p[e[1]]
    return (a, b) if a < b else (b, a)


def _act_arc(p: Permutation, e: tuple[int, int]) -> tuple[int, int]:
    return (p[e[0]], p[e[1]])


@dataclass(frozen=True)
class OrbitCensus:
    """Vertex/edge/arc orbit partitions of a graph with the group order.

    Orbits are sorted tuples ordered by smallest member, so edge orbits are
    ordered by their lexicographically smallest edge.
    """

    vertex_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[tuple[int, int], ...], ...]
    arc_orbits: tuple[tuple[tuple[int, int], ...], ...]
    aut_order: int

    @property
    def o_v(self) -> int:
        return len(self.vertex_orbits)

    @property
    def o_e(self) -> int:
        return len(self.edge_orbits)

    @property
    def o_a(self) -> int:
        return len(self.arc_orbits)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.o_v, self.o_e, self.o_a)


# ---------------------------------------------------------------------------
# Refinement + backtracking search
# ---------------------------------------------------------------------------

Cells = tuple[tuple[int, ...], ...]


def _refine(adj: Sequence[frozenset[int]], cells: Cells) -> Cells:
    """Equitable refinement: split cells by per-cell neighbor counts until
    stable.  Sub-cells are ordered by their count signature, which depends
    only on the ordered partition, never on vertex labels, so the refinement
    commutes with graph automorphisms."""
    n = len(adj)
    cell_index = [0] * n
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_index[v] = ci
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                cnt: dict[int, int] = {}
                for u in adj[v]:
                    ci = cell_index[u]
                    cnt[ci] = cnt.get(ci, 0) + 1
                buckets.setdefault(tuple(sorted(cnt.items())), []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(buckets):
                    new_cells.append(tuple(sorted(buckets[key])))
        if not changed:
            return cells
        cells = tuple(new_cells)


def _search_generators(g: Graph) -> list[Permutation]:
    """Collect automorphism generators by exploring the refinement tree.

    The first discrete leaf is the reference; every later leaf with the same
    relabeled edge set yields one automorphism.  At each node we branch over
    the first non-singleton cell of smallest size, smallest vertex first,
    skipping vertices already reachable from an explored sibling under the
    group found so far (restricted to permutations fixing the branching
    prefix)."""
    n = g.n
    adj = g.neighbors
    edges = g.edges
    gens: list[Permutation] = []
    gen_set: set[Permutation] = set()
    ref: dict = {}
    ident = identity(n)

    def leaf(cells: Cells) -> None:
        pos = [0] * n
        for i, cell in enumerate(cells):
            pos[cell[0]] = i
        form = tuple(sorted(
            (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
            for u, v in edges))
        if not ref:
            inv = [0] * n
            for v in range(n):
                inv[pos[v]] = v
            ref["form"] = form
            ref["inv"] = inv
        elif form == ref["form"]:
            inv = ref["inv"]
            perm = tuple(inv[pos[v]] for v in range(n))
            if perm != ident and perm not in gen_set:
                gen_set.add(perm)
                gens.append(perm)

    def covered(vertices: list[int], fixed: tuple[int, ...]) -> set[int]:
        sub = [p for p in gens if all(p[x] == x for x in fixed)]
        reach = set(vertices)
        frontier = list(vertices)
        while frontier:
            a = frontier.pop()
            for p in sub:
                b = p[a]
                if b not in reach:
                    reach.add(b)
                    frontier.append(b)
        return reach

    def recurse(cells: Cells, fixed: tuple[int, ...]) -> None:
        cells = _refine(adj, cells)
        target = min(
            ((len(c), i) for i, c in enumerate(cells) if len(c) > 1),
            default=None)
        if target is None:
            leaf(cells)
            return
        idx = target[1]
        cell = cells[idx]
        rest = cells[idx + 1:]
        head = cells[:idx]
        branched: list[int] = []
        for v in cell:
            if branched and v in covered(branched, fixed):
                continue
            branched.append(v)
            child = head + ((v,), tuple(u for u in cell if u != v)) + rest
            recurse(child, fixed + (v,))

    if n:
        recurse((tuple(range(n)),), ())
    return gens


def automorphism_group(g: Graph, cap: Optional[int] = None) -> PermutationGroup:
    """Compute Aut(G).  Every emitted generator is checked to preserve
    adjacency, and the group is enumerated by closure when its order is
    within the cap."""
    if g.n < 1:
        raise ValueError("automorphism group needs at least one vertex")
    gens = _search_generators(g)
    for p in gens:
        if not is_automorphism(g, p):
            raise AssertionError(
                f"internal error: search produced a non-automorphism {p}")
    return PermutationGroup.from_generators(g.n, gens, cap)


def orbit_census(g: Graph, group: Optional[PermutationGroup] = None) -> OrbitCensus:
    """Vertex, edge and arc orbit partitions under Aut(G)."""
    if group is None:
        group = automorphism_group(g)
    if not group.order_verified:
        raise ResourceCapError(
            "orbit census requires a fully enumerated automorphism group; "
            f"order estimate {group.order} exceeded the enumeration cap")
    gens = group.generators
    census = OrbitCensus(
        vertex_orbits=tuple(orbits_of(gens, range(g.n), _act_point)),
        edge_orbits=tuple(orbits_of(gens, g.edges, _act_edge)),
        arc_orbits=tuple(orbits_of(gens, g.arcs(), _act_arc)),
        aut_order=group.order,
    )
    if not census.o_e <= census.o_a <= 2 * census.o_e:
        raise AssertionError(f"internal error: orbit counts violate "
                             f"o_e <= o_a <= 2 o_e: {census.counts}")
    return census


def stabilizer(group: PermutationGroup, x: int) -> PermutationGroup:
    """Subgroup fixing the point x; requires an enumerated group."""
    if group.elements is None:
        raise ValueError("stabilizer requires an enumerated group")
    elems = tuple(p for p in group.elements if p[x] == x)
    ident = identity(group.degree)
    gens = tuple(p for p in elems if p != ident)
    return PermutationGroup(group.degree, gens, elems, len(elems), True)


def is_vertex_transitive(g: Graph) -> bool:
    group = automorphism_group(g)
    return len(orbits_of(group.generators, range(g.n), _act_point)) == 1
