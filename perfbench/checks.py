"""Output checks that share no code with nutorbits.

Each check returns a list of error strings, empty when the output is right.
The facts checked come from closed forms and from integer arithmetic done
here: Ramanujan-sum kernels for circulants, the paper's family formulas,
A v = 0 over Z, and a rank taken modulo a prime, which never exceeds the
rank over Q.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from math import comb, factorial, gcd

from inputs import CliCase, read_g6

PRIME = (1 << 61) - 1

# ---------------------------------------------------------------------------
# Integer linear algebra
# ---------------------------------------------------------------------------


def adjacency_rows(n: int, edges) -> list[dict[int, int]]:
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in edges:
        rows[u][v] = 1
        rows[v][u] = 1
    return rows


def in_kernel(rows: list[dict[int, int]], v) -> bool:
    """A v = 0 over Z."""
    return all(sum(a * v[j] for j, a in row.items()) == 0 for row in rows)


def rank_mod_p(rows: list[dict[int, int]], p: int = PRIME) -> int:
    """Rank of a sparse integer matrix modulo p, by elimination that always
    pivots on a shortest remaining row (little fill on sparse graphs).
    The rank over Q is at least this value."""
    rows = [{j: a % p for j, a in row.items() if a % p} for row in rows]
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows) if row]
    heapq.heapify(heap)
    done = set()
    rank = 0
    while heap:
        length, i = heapq.heappop(heap)
        if i in done or length != len(rows[i]) or not rows[i]:
            continue
        done.add(i)
        pivot_row = rows[i]
        for j in pivot_row:
            col_rows[j].discard(i)
        pc = min(pivot_row, key=lambda j: (len(col_rows[j]), j))
        inverse = pow(pivot_row[pc], p - 2, p)
        for k in list(col_rows[pc]):
            row = rows[k]
            factor = row[pc] * inverse % p
            for j, a in pivot_row.items():
                value = (row.get(j, 0) - factor * a) % p
                if value:
                    if j not in row:
                        col_rows[j].add(k)
                    row[j] = value
                elif j in row:
                    del row[j]
                    col_rows[j].discard(k)
            if row:
                heapq.heappush(heap, (len(row), k))
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# cross-oracle: circulant kernels from Ramanujan sums
# ---------------------------------------------------------------------------


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _phi(n: int) -> int:
    result = n
    for q in _factor(n):
        result = result // q * (q - 1)
    return result


def _mobius(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def ramanujan_sum(d: int, j: int) -> int:
    """c_d(j), the sum of the j-th powers of the primitive d-th roots of
    unity: mu(d/g) phi(d) / phi(d/g) with g = gcd(j, d)."""
    q = d // gcd(j, d)
    return _mobius(q) * _phi(d) // _phi(q)


@lru_cache(maxsize=None)
def circulant_oracle(n: int, offsets: tuple[int, ...]) -> tuple[int, bool]:
    """(nullity, is_nut) of Circ(n, S).

    The symbol of Circ(n, S) vanishes at one primitive d-th root of unity
    iff at all of them, and then the integer vector c_d (period d) is a
    kernel vector; the vectors (zeta^i) are independent, so A c_d = 0 holds
    exactly for the vanishing orders.  Each contributes phi(d) to the
    nullity, and the graph is nut iff the only vanishing order is 2."""
    steps = {s % n for s in offsets} | {-s % n for s in offsets}
    vanishing = []
    for d in range(1, n + 1):
        if n % d:
            continue
        c = [ramanujan_sum(d, j) for j in range(d)]
        if all(sum(c[(i + s) % d] for s in steps) == 0 for i in range(d)):
            vanishing.append(d)
    return sum(_phi(d) for d in vanishing), vanishing == [2]


def check_cross(n: int, offsets, output) -> list[str]:
    """``output`` is (symbolic verdict, is_nut, nullity, is_full)."""
    symbolic, nut, nullity, full = output
    want_nullity, want_nut = circulant_oracle(n, tuple(offsets))
    errors = []
    if symbolic != want_nut:
        errors.append(f"symbolic verdict {symbolic}, expected {want_nut}")
    if nut != want_nut:
        errors.append(f"is_nut verdict {nut}, expected {want_nut}")
    if nullity != want_nullity:
        errors.append(f"nullity {nullity}, expected {want_nullity}")
    if want_nut and not full:
        errors.append("nut graph reported without a full kernel vector")
    return [f"Circ({n}, {set(offsets)}): {e}" for e in errors]


# ---------------------------------------------------------------------------
# Automorphism counting by plain backtracking (small graphs only)
# ---------------------------------------------------------------------------


def count_automorphisms(n: int, edges) -> int:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for c in range(n):
            if used[c] or len(adj[c]) != len(adj[i]):
                continue
            if all((j in adj[i]) == (image[j] in adj[c]) for j in range(i)):
                image[i], used[c] = c, True
                total += extend(i + 1)
                used[c] = False
        return total

    return extend(0)


# ---------------------------------------------------------------------------
# construct-ladder: the paper's family formulas
# ---------------------------------------------------------------------------


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % q for q in range(2, int(m ** 0.5) + 1))


def _prime_at_least(m: int) -> int:
    while not _is_prime(m):
        m += 1
    return m


def _fig3_edges() -> list[tuple[int, int]]:
    """Cayley graph of Z6 x Z2, connection set from the paper's Fig. 3,
    vertex (a, b) labelled 2a + b."""
    conn = {(a, 0) for a in (1, 2, 4, 5)} | {(a, 1) for a in (0, 1, 3, 5)}
    edges = set()
    for a in range(6):
        for b in range(2):
            for x, y in conn:
                u, v = 2 * a + b, 2 * ((a + x) % 6) + (b + y) % 2
                edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@lru_cache(maxsize=None)
def _fig3_aut() -> int:
    return count_automorphisms(12, _fig3_edges())


def _family(k: int, p: int | None) -> dict:
    """Cayley base family for k edge orbits: order, size, |Aut| and the
    size of its smallest edge orbit."""
    if k % 2 == 0:  # Circ(2p, {1..k}), one edge orbit of 2p edges per offset
        p = _prime_at_least(k + 2) if p is None else p
        return {"order": 2 * p, "size": 2 * p * k, "aut": 4 * p, "smallest": 2 * p}
    if k == 3:  # Circ(10, {1, 5}) box K4
        return {"order": 40, "size": 120, "aut": 480, "smallest": 20}
    # Circ(2p, {2..k-1, p}) box K2
    p = _prime_at_least(2 * k + 1) if p is None else p
    return {"order": 4 * p, "size": 4 * p * (k - 1), "aut": 8 * p, "smallest": 2 * p}


def expected_construct(argv) -> dict:
    """Orbit counts, |Aut|, order and size the paper gives for a
    ``construct`` call."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    value = {key.lstrip("-"): int(v) for key, v in flags.items() if key != "--variant"}
    variant = flags.get("--variant")
    if variant is None:
        r, k = value["r"], value["k"]
        base = _family(k - r + 1, None)
        added = base["smallest"] * 2 * (r - 1)  # 4t new vertices per edge
        return {"counts": (r, k, k + r - 1), "aut": base["aut"],
                "order": base["order"] + added, "size": base["size"] + added}
    if variant == "prop2":
        base = _family(value["k"], value.get("p"))
        return {"counts": (1, value["k"], value["k"]), "aut": base["aut"],
                "order": base["order"], "size": base["size"]}
    if variant == "prop3":
        m = value["n"]
        return {"counts": (1, 3, 3), "aut": 96 * m, "order": 8 * m, "size": 24 * m}
    if variant == "fig3":
        return {"counts": (1, 5, 5), "aut": _fig3_aut(), "order": 12, "size": 48}
    raise ValueError(f"no formula for {argv}")


def _census_counts(census: dict) -> list[str]:
    errors = []
    for key, orbits in (("o_v", "vertex_orbits"), ("o_e", "edge_orbits"),
                        ("o_a", "arc_orbits")):
        if census[key] != len(census[orbits]):
            errors.append(f"{key} = {census[key]} but {len(census[orbits])} {orbits}")
    return errors


def _partitions(orbits, items, what: str) -> list[str]:
    flat = [tuple(x) if isinstance(x, list) else x for orbit in orbits for x in orbit]
    if len(flat) != len(set(flat)) or set(flat) != set(items):
        return [f"{what} orbits do not partition the {what}s"]
    return []


def check_construct(case: CliCase, report: dict) -> list[str]:
    want = expected_construct(case.argv)
    graph, nut, census = report["graph"], report["nut"], report["census"]
    errors = _census_counts(census)
    counts = (census["o_v"], census["o_e"], census["o_a"])
    if counts != want["counts"]:
        errors.append(f"orbit counts {counts}, expected {want['counts']}")
    if census["aut_order"] != want["aut"]:
        errors.append(f"|Aut| = {census['aut_order']}, expected {want['aut']}")
    n = graph["order"]
    edges = sorted(tuple(e) for orbit in census["edge_orbits"] for e in orbit)
    if n != want["order"] or graph["size"] != want["size"] or len(edges) != want["size"]:
        errors.append(f"order/size {n}/{graph['size']} ({len(edges)} edges in orbits), "
                      f"expected {want['order']}/{want['size']}")
    if len(set(edges)) != len(edges) or (n, edges) != read_g6(graph["graph6"]):
        errors.append("edge orbits disagree with the graph6 string")
        return [f"{case.name}: {e}" for e in errors]
    errors += _partitions(census["vertex_orbits"], range(n), "vertex")
    rows = adjacency_rows(n, edges)
    kernel = nut["kernel"]
    if not (nut["is_nut"] and nut["nullity"] == 1 and nut["is_full"] and len(kernel) == 1):
        errors.append(f"not certified nut: {({k: nut[k] for k in ('is_nut', 'nullity', 'is_full')})}")
    elif len(kernel[0]) != n or not all(kernel[0]) or not in_kernel(rows, kernel[0]):
        errors.append("kernel vector is not a full integer solution of A v = 0")
    elif rank_mod_p(rows) < n - 1:
        errors.append("rank mod p below n - 1: nullity may exceed 1")
    return [f"{case.name}: {e}" for e in errors]


# ---------------------------------------------------------------------------
# census-symmetric: closed forms
# ---------------------------------------------------------------------------


def expected_census(family: str, params: tuple) -> dict:
    f = factorial
    if family == "complete":
        (m,) = params
        return {"aut": f(m), "counts": (1, 1, 1), "nullity": 0}
    if family == "hypercube":
        (d,) = params
        return {"aut": 2 ** d * f(d), "counts": (1, 1, 1),
                "nullity": comb(d, d // 2) if d % 2 == 0 else 0}
    if family == "bipartite":
        a, b = params
        return {"aut": 2 * f(a) ** 2 if a == b else f(a) * f(b),
                "counts": (1, 1, 1) if a == b else (2, 1, 2), "nullity": a + b - 2}
    if family == "rook":  # spectrum of K_m box K_m: 2m-2, m-2, -2
        (m,) = params
        return {"aut": 2 * f(m) ** 2, "counts": (1, 1, 1),
                "nullity": 2 * (m - 1) if m == 2 else 0}
    if family == "petersen":
        return {"aut": 120, "counts": (1, 1, 1), "nullity": 0}
    if family == "cycle":
        (m,) = params
        return {"aut": 2 * m, "counts": (1, 1, 1), "nullity": 2 if m % 4 == 0 else 0}
    raise ValueError(f"unknown family {family!r}")


def check_census(case: CliCase, report: dict) -> list[str]:
    want = expected_census(case.family, case.params)
    n, edges = case.n, list(case.edges)
    graph, nut, census = report["graph"], report["nut"], report["census"]
    errors = _census_counts(census)
    degrees = sorted(sum(x in e for e in edges) for x in range(n))
    if (graph["order"], graph["size"], graph["degree_sequence"]) != (n, len(edges), degrees):
        errors.append("order, size or degrees differ from the input graph")
    if graph["graph6"] != case.argv[1]:
        errors.append("graph6 written back differs from the input")
    arcs = edges + [(v, u) for u, v in edges]
    errors += _partitions(census["vertex_orbits"], range(n), "vertex")
    errors += _partitions(census["edge_orbits"], edges, "edge")
    errors += _partitions(census["arc_orbits"], arcs, "arc")
    counts = (census["o_v"], census["o_e"], census["o_a"])
    if counts != want["counts"]:
        errors.append(f"orbit counts {counts}, expected {want['counts']}")
    if census["aut_order"] != want["aut"]:
        errors.append(f"|Aut| = {census['aut_order']}, expected {want['aut']}")
    kernel = nut["kernel"]
    rows = adjacency_rows(n, edges)
    full = len(kernel) == 1 and all(kernel[0])
    if nut["nullity"] != want["nullity"] or len(kernel) != want["nullity"]:
        errors.append(f"nullity {nut['nullity']} ({len(kernel)} vectors), "
                      f"expected {want['nullity']}")
    elif not all(len(v) == n and in_kernel(rows, v) for v in kernel):
        errors.append("a kernel vector fails A v = 0")
    elif rank_mod_p([dict(enumerate(v)) for v in kernel]) != len(kernel):
        errors.append("kernel vectors are not independent")
    if nut["is_nut"] != (want["nullity"] == 1 and full):
        errors.append(f"is_nut = {nut['is_nut']}")
    return [f"{case.name}: {e}" for e in errors]

