"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the automorphism oracle
scans all n! permutations, and the characteristic polynomial oracle expands
det(xI - A) by cofactors.
"""

from itertools import permutations

from nutorbits import Graph, IntPoly


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


def charpoly_cofactor(a: list[list[int]]) -> IntPoly:
    """det(xI - A) by recursive cofactor expansion along the first row.
    Exponential; intended for n <= 6."""
    n = len(a)
    x = IntPoly.x()
    m = [[(x - a[i][j]) if i == j else IntPoly((-a[i][j],)) for j in range(n)]
         for i in range(n)]

    def det(rows):
        if not rows:
            return IntPoly((1,))
        if len(rows) == 1:
            return rows[0][0]
        total = IntPoly()
        for j, cell in enumerate(rows[0]):
            if cell == 0:
                continue
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = cell * det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    return det(m)


def root_zero_multiplicity(p: IntPoly) -> int:
    mult = 0
    for c in p.coeffs:
        if c != 0:
            break
        mult += 1
    return mult


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
