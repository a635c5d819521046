"""Graph automorphism groups from scratch.  The orbit census is one
union-find over the vertices and arcs, fed by each generator only at the
points it moves and the arcs there; the search keeps its orbits in the same
union-find.

The search is a small canonical-labeling engine: equitable refinement of an
ordered partition, with backtracking over a target cell.  The partition is
kept by position (vertices listed cell by cell, each cell named by its start)
and refined with a queue of splitter cells: a splitter splits only the cells
holding its neighbours, by their neighbour counts in it, so a split costs
the degrees of the splitter's vertices rather than a pass over every cell
(McKay 1981; nauty's refine).  Every choice depends on positions and counts,
never on vertex labels, so the refinement commutes with automorphisms.  A
child node individualizes one vertex of the target cell and refines from that
singleton alone, since its parent is already equitable.

The tree is walked with first-path automorphism pruning (McKay 1981, section
2; McKay and Piperno, Practical Graph Isomorphism II, 2014).  The first path
individualizes the smallest vertex v_i of each target cell down to a
discrete leaf.  Its levels are then revisited deepest first, so every
automorphism found so far fixes v_0..v_{i-1} and one union-find of their
orbits serves every level.  A sibling w of v_i is explored only if its class
is neither v_i's nor that of a sibling already explored, and only through
nodes shaped like the first path's.  The first one that maps onto the first
path's node at its depth by an automorphism yields that automorphism, which
sends w to v_i and joins two classes: at most n - 1 generators are kept.

No group element is ever listed.  When level i ends, v_i's class in its
target cell is its orbit under the stabilizer of v_0..v_{i-1}, since every
sibling outside it was explored, or is equivalent to one that was, without
yielding an automorphism.  By orbit-stabilizer, |Aut| is the product of
these class sizes down the first path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(n))


def is_automorphism(g: Graph, p: Permutation) -> bool:
    if len(p) != g.n or sorted(p) != list(range(g.n)):
        return False
    adj = g.neighbors
    return all(p[v] in adj[p[u]] for u, v in g.edges)


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    generators: tuple[Permutation, ...]
    order: int

    # Not a field: no element list is kept.  Only the benchmark's tracer
    # (perfbench/tracer.py) reads it.
    elements = None

    @classmethod
    def from_generators(cls, degree: int, generators: Iterable[Permutation],
                        order: int) -> "PermutationGroup":
        """The group of the given ``order`` generated by ``generators``,
        with duplicates and the identity dropped."""
        ident = identity(degree)
        gens = tuple(dict.fromkeys(g for g in generators if g != ident))
        return cls(degree, gens, order)


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

class _Partition:
    """An ordered partition of range(n), indexed by position.

    ``lab`` lists the vertices cell by cell and ``pos`` inverts it.  A cell
    is named by its start position s: ``ends[s]`` is its end (exclusive;
    entries at other positions are stale) and ``cell[v]`` is the start of
    the cell holding v.  The order of vertices inside a cell carries no
    meaning."""

    __slots__ = ("lab", "pos", "cell", "ends")

    def __init__(self, n: int):
        self.lab = list(range(n))
        self.pos = list(range(n))
        self.cell = [0] * n
        self.ends = [n] * n

    def copy(self) -> "_Partition":
        other = _Partition.__new__(_Partition)
        other.lab = self.lab[:]
        other.pos = self.pos[:]
        other.cell = self.cell[:]
        other.ends = self.ends[:]
        return other

    def cells(self) -> list[tuple[int, ...]]:
        out = []
        s = 0
        while s < len(self.lab):
            e = self.ends[s]
            out.append(tuple(self.lab[s:e]))
            s = e
        return out

    def individualize(self, v: int) -> int:
        """Split v off as a singleton at the front of its cell and return
        its position, which names the new singleton cell."""
        lab, pos, cell = self.lab, self.pos, self.cell
        s = cell[v]
        e = self.ends[s]
        u, p = lab[s], pos[v]
        lab[s], lab[p] = v, u
        pos[v], pos[u] = s, p
        self.ends[s] = s + 1
        self.ends[s + 1] = e
        for i in range(s + 1, e):
            cell[lab[i]] = s + 1
        return s


def _refine(adj: Sequence[frozenset[int]], part: _Partition,
            splitters: list[int]) -> None:
    """Refine ``part`` in place to the coarsest equitable partition finer
    than it, given that it is already equitable with respect to every cell
    not named in ``splitters`` (McKay 1981; nauty's ``refine``).

    Splitters are cell starts, popped first in, first out.  A splitter S
    gives each vertex its number of neighbours in S; only the cells holding
    a vertex with a nonzero count can split.  Such a cell is rearranged
    into pieces of equal count, in increasing count, the count-0 piece
    keeping the cell's start.  If the cell was queued every new piece is
    queued; otherwise every piece but the first largest is (Hopcroft's
    rule: stability under a cell and all but one of its pieces implies
    stability under the last piece).  Touched cells are split in position
    order, and refinement stops once every cell is a singleton.  Every
    choice depends on positions and counts only, never on vertex labels, so
    the refinement commutes with automorphisms: mapping the input by one
    maps the output cells likewise."""
    lab, pos, cell, ends = part.lab, part.pos, part.cell, part.ends
    n, cells = len(lab), len(_cell_starts(part))
    queue = deque(splitters)
    queued = set(splitters)
    while queue:
        s = queue.popleft()
        queued.discard(s)
        count: dict[int, int] = {}
        for w in lab[s:ends[s]]:
            for u in adj[w]:
                count[u] = count.get(u, 0) + 1
        touched: dict[int, list[int]] = {}
        for u in count:
            touched.setdefault(cell[u], []).append(u)
        for c in sorted(touched):
            e = ends[c]
            vs = touched[c]
            vs.sort(key=count.__getitem__)
            t = e - len(vs)
            if t == c and count[vs[0]] == count[vs[-1]]:
                continue
            # The untouched vertices move to the front of the cell, the
            # touched ones behind them in count order.
            back = e
            for u in vs:
                back -= 1
                p, x = pos[u], lab[back]
                lab[p], pos[x] = x, p
            lab[t:e] = vs
            starts = [c] if t > c else []
            last = 0
            for i, u in enumerate(vs, t):
                pos[u] = i
                if count[u] != last:
                    starts.append(i)
                    last = count[u]
            bounds = starts + [e]
            ends[c] = bounds[1]
            for j in range(1, len(starts)):
                a, b = bounds[j], bounds[j + 1]
                ends[a] = b
                for i in range(a, b):
                    cell[lab[i]] = a
            cells += len(starts) - 1
            if cells == n:
                return
            if c in queued:
                new = starts[1:]
            else:
                big = max(range(len(starts)), key=lambda j: bounds[j + 1] - bounds[j])
                new = starts[:big] + starts[big + 1:]
            queue.extend(new)
            queued.update(new)


def _cell_starts(part: _Partition) -> list[int]:
    """The shape of a partition: the start of every cell, in order."""
    ends, n = part.ends, len(part.lab)
    starts = [0]
    while ends[starts[-1]] < n:
        starts.append(ends[starts[-1]])
    return starts


def _sorted_cells(part: _Partition, starts: list[int]) -> list[int]:
    """The vertices cell by cell, each cell in increasing order."""
    lab, ends = part.lab, part.ends
    out: list[int] = []
    for s in starts:
        out += sorted(lab[s:ends[s]]) if ends[s] > s + 1 else (lab[s],)
    return out


def _find(root: list[int], x: int) -> int:
    """The root of x's class, halving the path on the way."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def _join(root: list[int], pairs: Iterable[tuple[int, int]]) -> None:
    """Merge the classes of a and b for every pair (a, b), under the smaller
    root, so every root is its class's smallest member.  The find is
    inlined: this loop carries every merge of the search and the census."""
    for a, b in pairs:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b


def _moved(p: Permutation) -> list[tuple[int, int]]:
    """The pairs (u, p[u]) at the points p moves."""
    return [(u, pu) for u, pu in enumerate(p) if u != pu]


def _search(g: Graph, fixed: Optional[int] = None) -> tuple[list[Permutation], int]:
    """Generators and order of the automorphisms of g, or of those fixing
    the vertex ``fixed``, by first-path automorphism pruning (see the module
    docstring).  The target cell of a node is its first non-singleton cell
    of smallest size."""
    n = g.n
    if n == 0:
        return [], 1
    adj = g.neighbors
    part = _Partition(n)
    if fixed is None or n == 1:
        _refine(adj, part, [0])
    else:   # cells {fixed} and the rest, at positions 0 and 1
        _refine(adj, part, [part.individualize(fixed), 1])

    # the first path: each node's partition, shape and sorted cells, and
    # the target cell start and chosen vertex of each node above the leaf
    nodes, shapes, first_cells = [part], [], []
    choices: list[tuple[int, int]] = []
    while True:
        starts = _cell_starts(part)
        shapes.append(starts)
        first_cells.append(_sorted_cells(part, starts))
        if len(starts) == n:
            break
        ends = part.ends
        target = min((s for s in starts if ends[s] > s + 1), key=lambda s: ends[s] - s)
        v = min(part.lab[target:ends[target]])
        choices.append((target, v))
        part = part.copy()
        _refine(adj, part, [part.individualize(v)])
        nodes.append(part)

    def explore(node: _Partition, w: int, depth: int) -> Optional[Permutation]:
        """An automorphism fixing the first ``depth`` chosen vertices and
        mapping w to the next, or None.  The subtree below ``node`` with w
        individualized is searched depth first, through nodes shaped like
        the first path's at the same depth only.  Each such node is mapped
        onto that first-path node cell by cell, in increasing order within
        a cell, and the map is kept if it preserves adjacency; at a leaf
        this tests the relabeled edge set."""
        stack = [(node, iter((w,)))]
        while stack:
            parent, todo = stack[-1]
            u = next(todo, None)
            if u is None:
                stack.pop()
                continue
            child = parent.copy()
            _refine(adj, child, [child.individualize(u)])
            d = depth + len(stack)
            starts = _cell_starts(child)
            if starts != shapes[d]:
                continue
            image = [0] * n
            for a, b in zip(_sorted_cells(child, starts), first_cells[d]):
                image[a] = b
            p = tuple(image)
            if is_automorphism(g, p):
                return p
            if d < len(choices):
                t = choices[d][0]
                stack.append((child, iter(sorted(child.lab[t:child.ends[t]]))))
        return None

    root = list(range(n))
    gens: list[Permutation] = []
    order = 1
    for level in reversed(range(len(choices))):
        node = nodes[level]
        target, v = choices[level]
        cell = sorted(node.lab[target:node.ends[target]])
        tried = {_find(root, v)}
        for w in cell:
            if _find(root, w) in tried:
                continue
            p = explore(node, w, level)
            if p is None:
                tried.add(_find(root, w))
                continue
            gens.append(p)
            _join(root, _moved(p))
            tried = {_find(root, x) for x in tried}
        rv = _find(root, v)
        order *= sum(1 for w in cell if _find(root, w) == rv)
    return gens, order


def automorphism_group(g: Graph) -> PermutationGroup:
    """Compute Aut(G): checked generators and the exact order, both from
    the search."""
    if g.n < 1:
        raise ValueError("automorphism group needs at least one vertex")
    gens, order = _search(g)
    return PermutationGroup.from_generators(g.n, gens, order)


def orbits_of(g: Graph, gens: Sequence[Permutation]
              ) -> tuple[tuple[tuple, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """The vertex, edge and arc orbits of g under the group generated by
    ``gens``, from one union-find over the vertices 0..n-1 and the arcs
    n..n+2m-1 (in ``g.arcs()`` order).  Each generator p visits only the
    points u it moves: u joins p[u], each arc (u, v) joins (p[u], p[v]),
    and if p fixes v, (v, u) joins (v, p[u]); an arc between fixed points
    is its own image.  An edge orbit is the union of the classes of (u, v)
    and (v, u).  Items are read out in sorted order, so each orbit is
    sorted and the orbits are ordered by smallest member."""
    n, adj = g.n, g.neighbors
    arcs = g.arcs()
    slot: list[dict[int, int]] = [{} for _ in range(n)]
    for i, (u, v) in enumerate(arcs, n):
        slot[u][v] = i
    root = list(range(n + len(arcs)))
    for p in gens:
        moved = _moved(p)
        pairs = moved[:]
        for u, pu in moved:
            su, spu = slot[u], slot[pu]
            for v in adj[u]:
                pv = p[v]
                pairs.append((su[v], spu[pv]))
                if v == pv:
                    sv = slot[v]
                    pairs.append((sv[u], sv[pu]))
        _join(root, pairs)
    # each root is its class's smallest member, so one increasing pass
    # points every item at it
    for x in range(len(root)):
        root[x] = root[root[x]]
    edge_keys = [min(root[slot[u][v]], root[slot[v][u]]) for u, v in g.edges]
    return (_classes(root[:n], range(n)), _classes(edge_keys, g.edges),
            _classes(root[n:], arcs))


def _classes(keys: Iterable[int], items: Iterable) -> tuple[tuple, ...]:
    """The items grouped by key, groups in order of first appearance."""
    out: dict[int, list] = {}
    for key, item in zip(keys, items):
        out.setdefault(key, []).append(item)
    return tuple(map(tuple, out.values()))


def orbit_census(g: Graph) -> OrbitCensus:
    """Vertex, edge and arc orbit partitions under Aut(G)."""
    group = automorphism_group(g)
    census = OrbitCensus(*orbits_of(g, group.generators), group.order)
    if not census.o_e <= census.o_a <= 2 * census.o_e:
        raise AssertionError(f"internal error: orbit counts violate "
                             f"o_e <= o_a <= 2 o_e: {census.counts}")
    return census


def stabilizer(g: Graph, x: int) -> PermutationGroup:
    """The subgroup of Aut(g) fixing the vertex x: the same search with x
    individualized at the root."""
    gens, order = _search(g, x)
    return PermutationGroup.from_generators(g.n, gens, order)


def is_vertex_transitive(g: Graph) -> bool:
    return orbit_census(g).o_v == 1
