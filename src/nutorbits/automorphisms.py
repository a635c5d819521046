"""Graph automorphism groups from scratch.  The orbit census of a graph
read from outside is one union-find over the vertices and arcs, fed by each
generator only at the points it moves and the arcs there; the search keeps
its orbits in a union-find of its own over the vertices, joined by the same
routine.  A construction's orbits come from its group instead: a Cayley
build's are read at vertex 0 from the generators that fix it, and a
subdivision's are its base's, carried along the chains (see
``orbit_census``).

The search is a small canonical-labeling engine: equitable refinement of an
ordered partition, with backtracking over a target cell.  Its root is an
ordered colouring, refined with every cell as a splitter: one cell for
Aut(G), [{x}, rest] for the stabilizer of x.  The partition is kept by
position (vertices listed cell by cell, each cell named by its start) and
refined with a queue of splitter cells: a splitter splits only the cells
holding its neighbours, by their neighbour counts in it, so a split costs the
degrees of the splitter's vertices rather than a pass over every cell (McKay
1981; nauty's refine).  Each touched cell takes one rule: its touched
vertices of one count move to its back as one new piece, with nothing sorted,
and a cell with mixed counts takes that split once per count, highest count
first.  Counts are consulted only when two vertices of the splitter share a
neighbour.  A singleton splitter, the common case on the long degree-2 paths
of subdivided graphs, never does, nor does a larger one whose neighbourhoods
are disjoint: every count is then 1.  Every choice depends on positions and
counts, never on vertex labels, so the refinement commutes with
automorphisms.  A child node individualizes one vertex of the target cell and
refines from that singleton alone, since its parent is already equitable.

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
Each candidate map is checked only at the edges of the points it moves,
each edge once.

The search can start from seeds: automorphisms the caller knows, such as a
Cayley graph's translations and inversion.  Each is verified as a
permutation that maps edges to edges, by the test a candidate map passes.
A seed joins the union-find, and the generators, when the level loop
reaches the first level whose chosen vertex it moves: it fixes v_0..v_{i-1},
so it lies in the stabilizer whose orbits the union-find then keeps.  A
verified seed joins only points that an automorphism joins, so it can spare
explores but never change a class, the orbits or the order.  A caller that
proves its seeds generate the whole group, and knows its order, skips the
search: ``orbit_census`` then verifies the seeds by the same check and takes
them as the group's generators (a subdivision's lifts, see
``constructions``).

No group element is ever listed.  When level i ends, v_i's class in its
target cell is its orbit under the stabilizer of v_0..v_{i-1}, since every
sibling outside it was explored, or is equivalent to one that was, without
yielding an automorphism.  By orbit-stabilizer, |Aut| is the product of
these class sizes down the first path.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import VerificationError
from .graphs import Graph, _affine, cayley_automorphisms

Permutation = tuple[int, ...]


def identity(n: int) -> Permutation:
    return tuple(range(n))


class PermutationGroup(NamedTuple):
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


class OrbitCensus(NamedTuple):
    """Vertex/edge/arc orbit partitions of a graph with the group order,
    and generators of the group that give those orbits.

    Orbits are sorted tuples ordered by smallest member, so edge orbits are
    ordered by their lexicographically smallest edge.  ``generators`` are
    the search's, its verified seeds and the automorphisms it found, or
    the verified seeds alone when the order was given.  A construction
    passes them on as seeds for a graph built from this one.
    """

    vertex_orbits: tuple[tuple[int, ...], ...]
    edge_orbits: tuple[tuple[tuple[int, int], ...], ...]
    arc_orbits: tuple[tuple[tuple[int, int], ...], ...]
    aut_order: int
    generators: tuple[Permutation, ...] = ()

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
    """An ordered partition of range(n), indexed by position, built from the
    ordered colouring ``cells`` (one cell by default; empty cells dropped).

    ``lab`` lists the vertices cell by cell and ``pos`` inverts it.  A cell
    is named by its start position s: ``ends[s]`` is its end (exclusive;
    entries at other positions are stale) and ``cell[v]`` is the start of
    the cell holding v.  The order of vertices inside a cell carries no
    meaning."""

    __slots__ = ("lab", "pos", "cell", "ends")

    def __init__(self, n: int, cells: Optional[Iterable[Iterable[int]]] = None):
        self.lab, self.pos, self.cell, self.ends = [], [0] * n, [0] * n, [n] * n
        for c in ([range(n)] if cells is None else cells):
            s = len(self.lab)
            self.lab += c
            for p, v in enumerate(self.lab[s:], s):   # an empty cell sets no end
                self.pos[v], self.cell[v], self.ends[s] = p, s, len(self.lab)

    def copy(self) -> "_Partition":
        other = _Partition.__new__(_Partition)
        other.lab = self.lab[:]
        other.pos = self.pos[:]
        other.cell = self.cell[:]
        other.ends = self.ends[:]
        return other

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
    a vertex with a nonzero count can split.  One rule serves each such
    cell [c, e): its touched vertices of one count swap to its back as a new
    piece [t, e), with no sort; if they fill the cell, it does not split.
    If the cell was queued the new piece is queued, otherwise the smaller
    piece is, [t, e) on a tie (Hopcroft's rule: stability under a cell and
    one of its two pieces implies stability under the other).  A cell with
    mixed counts takes this split once per count, highest count first,
    each off the back of what is left at c, so its pieces run in increasing
    count with the untouched vertices keeping the cell's start.

    Counts can differ only when two vertices of S share a neighbour, which
    the pass over S's neighbourhoods notes; otherwise, and for every
    singleton S, each count is 1 and none is consulted, so S costs only its
    degrees.  Touched cells are split in position order, and refinement
    stops once every cell is a singleton.  Every choice depends on positions
    and counts only, never on vertex labels, so the refinement commutes
    with automorphisms: mapping the input by one maps the output cells
    likewise."""
    lab, pos, cell, ends = part.lab, part.pos, part.cell, part.ends
    n, cells = len(lab), len(_cell_starts(part))
    queue = list(splitters)
    queued = set(splitters)
    head = 0
    while head < len(queue):
        s = queue[head]
        head += 1
        queued.discard(s)
        # every count is 1 unless two vertices of S share a neighbour
        shared = False
        if ends[s] == s + 1:
            touching = adj[lab[s]]
        else:
            touching = count = {}
            for w in lab[s:ends[s]]:
                for u in adj[w]:
                    if u in count:
                        count[u] += 1
                        shared = True
                    else:
                        count[u] = 1
        touched: dict[int, list[int]] = {}
        for u in touching:
            touched.setdefault(cell[u], []).append(u)
        for c in sorted(touched) if len(touched) > 1 else touched:
            vs = touched[c]
            rest = None
            # mixed counts?  The ends of vs tell for two vertices, a set beyond
            if shared and (count[vs[0]] != count[vs[-1]] or len(vs) > 2
                           and len(set(map(count.__getitem__, vs))) > 1):
                by_count: dict[int, list[int]] = {}
                for u in vs:
                    by_count.setdefault(count[u], []).append(u)
                rest = [by_count[k] for k in sorted(by_count)]
                vs = rest.pop()
            # one split per count, highest first, each off the back of what
            # is left of the cell
            while True:
                e = ends[c]
                t = e - len(vs)
                if t == c:
                    break
                # each touched vertex swaps with the last vertex not yet moved
                for u in vs:
                    e -= 1
                    p, x = pos[u], lab[e]
                    lab[p], pos[x] = x, p
                    lab[e], pos[u], cell[u] = u, e, t
                ends[t] = ends[c]
                ends[c] = t
                cells += 1
                if cells == n:
                    return
                # Hopcroft's rule for the two pieces [c, t) and [t, e)
                new = t if c in queued or t - c >= ends[t] - t else c
                queue.append(new)
                queued.add(new)
                if not rest:
                    break
                vs = rest.pop()


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


def _preserves_edges(adj: Sequence[frozenset[int]], p: Sequence[int]) -> bool:
    """Whether the bijection p of range(n) maps every edge to an edge.  An
    edge between two fixed points is its own image, so only the edges at
    moved points are looked up, an edge between two moved points from its
    smaller end only: a bijection that maps E into E maps E onto E."""
    return all(p[v] in adj[pu] for u, pu in enumerate(p) if u != pu
               for v in adj[u] if v > u or p[v] == v)


def _verified(g: Graph, seeds: Iterable[Sequence[int]]) -> list[Permutation]:
    """The seeds as tuples, once each is checked to be a permutation of
    range(n), of ``int`` entries, that maps edges to edges;
    ``VerificationError`` names the first that is not."""
    n, adj = g.n, g.neighbors
    verified = []
    for i, p in enumerate(map(tuple, seeds)):
        if any(type(u) is not int for u in p) or sorted(p) != list(range(n)):
            raise VerificationError(f"seed {i} is not a permutation of range({n})")
        if not _preserves_edges(adj, p):
            raise VerificationError(f"seed {i} maps an edge to a non-edge")
        verified.append(p)
    return verified


def _search(g: Graph, cells: Optional[Iterable[Iterable[int]]] = None,
            seeds: Iterable[Sequence[int]] = ()) -> tuple[list[Permutation], int]:
    """Generators and order of the automorphisms of g that map each cell of
    the ordered colouring ``cells`` (see ``_Partition``) onto itself, by
    first-path automorphism pruning (see the module docstring).  The target
    cell of a node is its first non-singleton cell of smallest size.

    ``seeds`` are automorphisms known in advance, for the uncoloured search
    only.  Each must be a permutation of range(n) that preserves the edges,
    or ``VerificationError`` is raised.  A seed that fixes every chosen
    vertex of the first path fixes its discrete leaf, so it is the identity
    and is dropped.  Any other seed fixes v_0..v_{i-1} and moves v_i for
    some level i: it joins the union-find at its moved points, and the
    generators, when the level loop reaches level i, where every class is an
    orbit of the stabilizer of v_0..v_{i-1}, which holds it.  A seed only
    joins points that one automorphism joins, so it spares the explores of
    the siblings it joins to v_i and changes no class count."""
    n = g.n
    adj = g.neighbors
    part = _Partition(n, cells)
    _refine(adj, part, _cell_starts(part))

    # the first path: each node's partition and shape, and the target cell
    # start and chosen vertex of each node above the leaf
    nodes, shapes = [part], []
    choices: list[tuple[int, int]] = []
    while True:
        starts = _cell_starts(part)
        shapes.append(starts)
        if len(starts) == n:
            break
        ends = part.ends
        target = min((s for s in starts if ends[s] > s + 1), key=lambda s: ends[s] - s)
        v = min(part.lab[target:ends[target]])
        choices.append((target, v))
        part = part.copy()
        _refine(adj, part, [part.individualize(v)])
        nodes.append(part)
    # each node's sorted cells, listed when explore first maps a child onto
    # it: a level its seeds make tight never lists them
    first_cells: list[Optional[list[int]]] = [None] * len(nodes)

    def explore(node: _Partition, w: int, depth: int) -> Optional[Permutation]:
        """An automorphism fixing the first ``depth`` chosen vertices and
        mapping w to the next, or None.  The subtree below ``node`` with w
        individualized is searched depth first, through nodes shaped like
        the first path's at the same depth only.  Each such node is mapped
        onto that first-path node cell by cell, in increasing order within
        a cell, and the map is kept if it preserves adjacency; at a leaf
        this tests the relabeled edge set.  The map is a bijection, built
        from two listings of range(n)."""
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
            cells = first_cells[d]
            if cells is None:
                cells = first_cells[d] = _sorted_cells(nodes[d], shapes[d])
            image = [0] * n
            for a, b in zip(_sorted_cells(child, starts), cells):
                image[a] = b
            if _preserves_edges(adj, image):
                return tuple(image)
            if d < len(choices):
                t = choices[d][0]
                stack.append((child, iter(sorted(child.lab[t:child.ends[t]]))))
        return None

    # each verified seed waits for the first level whose chosen vertex it moves
    seeded: dict[int, list[Permutation]] = {}
    for p in _verified(g, seeds):
        level = next((j for j, (_, v) in enumerate(choices) if p[v] != v), None)
        if level is not None:
            seeded.setdefault(level, []).append(p)

    root = list(range(n))
    gens: list[Permutation] = []
    order = 1
    for level in reversed(range(len(choices))):
        for p in seeded.get(level, ()):
            gens.append(p)
            _join(root, _moved(p))
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


def automorphism_group(g: Graph, seeds: Iterable[Sequence[int]] = ()
                       ) -> PermutationGroup:
    """Compute Aut(G): checked generators and the exact order, both from
    the search, which starts from the automorphisms ``seeds`` once each is
    verified."""
    if g.n < 1:
        raise ValueError("automorphism group needs at least one vertex")
    gens, order = _search(g, seeds=seeds)
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


def _cayley_orbits(g: Graph, gens: Sequence[Permutation]
                   ) -> tuple[tuple[tuple, ...], tuple[tuple, ...], tuple[tuple, ...]]:
    """The orbits of a Cayley graph of the abelian group with factor orders
    ``g.cayley_orders``, given generators of its automorphism group among
    which those that fix 0 generate the stabilizer of 0, the inversion
    among them unless it is the identity.

    The translations act regularly, so every arc (u, u + c) is the
    translate of (0, c), and two arcs at 0 lie in one orbit exactly when
    the stabilizer of 0 maps one onto the other: the arc orbits are the
    classes C of N(0) under the generators fixing 0, each expanded to
    {(u, u + c) : c in C}.  The inversion maps c to -c, so a class holds
    both arcs of each of its edges, and its edge orbit is its arcs (u, v)
    with u < v.  There is one vertex orbit.  Orbits are sorted and ordered
    by smallest member, as ``orbits_of`` gives them: the smallest arc of C
    is (0, min C)."""
    n, orders = g.n, g.cayley_orders
    near = sorted(g.neighbors[0])
    root = list(range(n))
    _join(root, [(c, p[c]) for p in gens if p[0] == 0 for c in near])
    arc_orbits = []
    for cls in _classes([_find(root, c) for c in near], near):
        arcs = []
        for c in cls:
            coordinates = []   # row-major: the last coordinate is c mod m_d
            for m in reversed(orders):
                c, x = divmod(c, m)
                coordinates.append(x)
            arcs += enumerate(_affine(orders, 1, coordinates[::-1]))
        arcs.sort()
        arc_orbits.append(tuple(arcs))
    edge_orbits = tuple(tuple([a for a in arcs if a[0] < a[1]]) for arcs in arc_orbits)
    return (tuple(range(n)),), edge_orbits, tuple(arc_orbits)


def _chain_orbits(g: Graph, gens: Sequence[Permutation]
                  ) -> Optional[tuple[tuple[tuple, ...], tuple[tuple, ...], tuple[tuple, ...]]]:
    """The orbits of a graph that holds chains (see
    ``graphs.subdivide_edges``) under the group generated by ``gens``, if
    each generator maps the base's labels, those below the first chain's,
    onto themselves; None otherwise.

    Such a group maps each chain, a path of degree-2 vertices between two
    base vertices, onto a chain, so its restriction to the base, with each
    subdivided edge put back, is a group of automorphisms of the base that
    maps the subdivided edges onto themselves.  The union-find runs on the
    base under the restricted generators.  Its vertex orbits, and its edge
    and arc orbits off the subdivided edges, stand.  Read along an arc
    (x, y) of a subdivided edge, its chain is x = P_0, P_1, ..., P_s,
    P_{s+1} = y, and an automorphism mapping (x, y) to (x', y') maps each
    P_j to P'_j.  So the arc orbit A of (x, y) gives one vertex orbit for
    each position j, one arc orbit {(P_i, P_{i+1})} for each i = 0..s, and
    one edge orbit for each i.  Read along (y, x), position j is s + 1 - j.
    When A holds both arcs of its edges, its paths read each chain both
    ways, so j pairs with s + 1 - j and i with s - i, and the positions up
    to s / 2 give every vertex and edge orbit.  Otherwise the arc orbit of
    (y, x), the reverse of A, gives the same vertex and edge orbits as A,
    and its own s + 1 arc orbits."""
    first, s = g.chains
    base_n = g.n - len(first) * s
    if any(max(p[:base_n]) >= base_n for p in gens):
        return None
    edges = [e for e in g.edges if e[1] < base_n]
    edges += first
    edges.sort()
    base = Graph._unchecked(base_n, edges=tuple(edges))
    vertex_orbits, base_edge_orbits, base_arc_orbits = orbits_of(
        base, [p[:base_n] for p in gens])
    index = {a: i for i, arcs in enumerate(base_arc_orbits) for a in arcs}

    def path(x: int, y: int) -> list[int]:
        if x < y:
            b = first[x, y]
            return [x, *range(b, b + s), y]
        b = first[y, x]
        return [x, *range(b + s - 1, b - 1, -1), y]

    vertex_orbits, edge_orbits, arc_orbits = list(vertex_orbits), [], []
    for orbit in base_edge_orbits:
        if orbit[0] not in first:
            edge_orbits.append(orbit)
            continue
        u, v = orbit[0]
        forward, backward = index[u, v], index[v, u]
        # either arc orbit's paths read every chain of the edge orbit
        last = s // 2 if forward == backward else s
        for k in {forward, backward}:
            paths = [path(*a) for a in base_arc_orbits[k]]
            arc_orbits += [[(p[i], p[i + 1]) for p in paths] for i in range(s + 1)]
        vertex_orbits += [{p[j] for p in paths} for j in range(1, last + 1)]
        edge_orbits += [[(p[i], p[i + 1]) for p in paths] for i in range(last + 1)]
    arc_orbits += [arcs for arcs in base_arc_orbits
                   if arcs[0] not in first and arcs[0][::-1] not in first]
    edge_orbits = [{(x, y) if x < y else (y, x) for x, y in orbit} for orbit in edge_orbits]
    return (_sorted_orbits(vertex_orbits), _sorted_orbits(edge_orbits),
            _sorted_orbits(arc_orbits))


def _sorted_orbits(orbits: Iterable[Iterable]) -> tuple[tuple, ...]:
    """Each orbit sorted, the orbits ordered by smallest member."""
    return tuple(sorted(tuple(sorted(orbit)) for orbit in orbits))


def orbit_census(g: Graph, seeds: Iterable[Sequence[int]] = (),
                 aut_order: Optional[int] = None) -> OrbitCensus:
    """Vertex, edge and arc orbit partitions under Aut(G), from a search
    seeded with the automorphisms ``seeds`` (see ``_search``).  A caller
    that knows the seeds generate Aut(G), and its order ``aut_order``,
    skips the search: the seeds are verified as the search verifies them
    and generate the group as they stand.  A subdivision's lifts are such
    seeds (see ``constructions.subdivided_nut``).

    A construction's orbits come from its group.  A Cayley graph built by
    ``cayley_abelian`` or ``circulant`` seeds the search with its
    translations and inversion, and its orbits are read at vertex 0 (see
    ``_cayley_orbits``): it is regular, so the search's root partition is
    one cell, its first chosen vertex is 0, and the generators it keeps
    below that level, those fixing 0, generate the stabilizer of 0 and
    hold the inversion, a seed that fixes 0.  A graph that holds chains
    takes its orbits from its base, carried along the chains, when every
    generator maps the base onto itself (see ``_chain_orbits``).  Any other
    graph, and a chain graph whose generators mix base and chain labels,
    takes ``orbits_of``."""
    cayley = aut_order is None and g.cayley_orders is not None
    if cayley:
        seeds = [*cayley_automorphisms(g.cayley_orders), *seeds]
    if aut_order is None:
        group = automorphism_group(g, seeds)
    else:
        group = PermutationGroup.from_generators(g.n, _verified(g, seeds), aut_order)
    gens = group.generators
    if cayley:
        orbits = _cayley_orbits(g, gens)
    else:
        orbits = g.chains and _chain_orbits(g, gens) or orbits_of(g, gens)
    census = OrbitCensus(*orbits, group.order, gens)
    if not census.o_e <= census.o_a <= 2 * census.o_e:
        raise AssertionError(f"internal error: orbit counts violate "
                             f"o_e <= o_a <= 2 o_e: {census.counts}")
    return census


def stabilizer(g: Graph, x: int) -> PermutationGroup:
    """The subgroup of Aut(g) fixing the vertex x: the same search, started
    from the colouring [{x}, rest]."""
    if type(x) is not int or not 0 <= x < g.n:
        raise ValueError(f"vertex {x} is not a vertex of a graph of order {g.n}")
    gens, order = _search(g, [[x], [v for v in range(g.n) if v != x]])
    return PermutationGroup.from_generators(g.n, gens, order)
