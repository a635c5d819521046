"""Seeded inputs for the three benchmark workloads, made without nutorbits.

The seed and the round number set the instance order of every workload
and the vertex relabelling of the census-symmetric graphs; the same seed
gives the same inputs.  Each round draws afresh, so a run averages over
orders and labellings.  The census graphs are built here from their definitions and
encoded by this module's own graph6 writer, so a fault shared by the
program's graph6 reader and writer cannot cancel out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

WORKLOADS = ("cross-oracle", "construct-ladder", "census-symmetric")

# Every even n up to this bound, every offset set S of {1..n/2}: 1013 specs.
CROSS_NMAX = 18

# (case name, argv after "construct").  The --r/--k rungs grow the order
# from 34 to 610 vertices; the variants cover the other three families.
CONSTRUCT_LADDER = (
    ("r1k12", ("--r", "1", "--k", "12")),
    ("r3k8", ("--r", "3", "--k", "8")),
    ("r9k10", ("--r", "9", "--k", "10")),
    ("r21k22", ("--r", "21", "--k", "22")),
    ("r31k32", ("--r", "31", "--k", "32")),
    ("prop2-k9-p19", ("--variant", "prop2", "--k", "9", "--p", "19")),
    ("prop3-n13", ("--variant", "prop3", "--n", "13")),
    ("fig3", ("--variant", "fig3")),
)

# (case name, family, parameters).  Each graph is checked in
# CENSUS_RELABELLINGS relabellings per round (for K_8 they are all the same
# graph).  Left out, because the check's cost on them depends on the labels
# by far more than a run can average away: Q_5 (0.11-1.24 s over 16
# relabellings), Q_6 (22-45 s relabelled, 4.9 s as built), K_5 x K_5
# (1-21 s) and K_4 x K_4 (0.04-0.13 s).  Left out because one check fills a
# run: K_9 (16-21 s).  Left out because their groups exceed the program's
# enumeration cap, so it refuses them with exit 4: K_{6,6} and K_10.
CENSUS_GRAPHS = (
    ("K8", "complete", (8,)),
    ("K5,5", "bipartite", (5, 5)),
    ("K4,6", "bipartite", (4, 6)),
    ("Petersen", "petersen", ()),
    ("C40", "cycle", (40,)),
)
CENSUS_RELABELLINGS = 2

Edges = list[tuple[int, int]]


@dataclass(frozen=True)
class CliCase:
    """One in-process CLI call: ``argv`` for ``nutorbits.cli.main``."""

    name: str
    argv: tuple[str, ...]
    family: str = ""
    params: tuple = ()
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def cross_specs(seed: int, round_index: int) -> list[tuple[int, tuple[int, ...]]]:
    specs = []
    for n in range(2, CROSS_NMAX + 1, 2):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            specs.extend((n, s) for s in combinations(pool, size))
    _rng("cross-oracle", seed, round_index).shuffle(specs)
    return specs


def construct_cases(seed: int, round_index: int) -> list[CliCase]:
    cases = [CliCase(name, ("construct",) + argv) for name, argv in CONSTRUCT_LADDER]
    _rng("construct-ladder", seed, round_index).shuffle(cases)
    return cases


def census_cases(seed: int, round_index: int) -> list[CliCase]:
    rng = _rng("census-symmetric", seed, round_index)
    cases = []
    for name, family, params in CENSUS_GRAPHS:
        n, edges = family_graph(family, params)
        for copy in range(CENSUS_RELABELLINGS):
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = sorted(_norm(perm[u], perm[v]) for u, v in edges)
            cases.append(CliCase(f"{name}/{copy}", ("check", write_g6(n, relabelled)),
                                 family, params, n, tuple(relabelled)))
    rng.shuffle(cases)
    return cases


def cases(workload: str, seed: int, round_index: int) -> list:
    if workload == "cross-oracle":
        return cross_specs(seed, round_index)
    if workload == "construct-ladder":
        return construct_cases(seed, round_index)
    if workload == "census-symmetric":
        return census_cases(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Graph families, from their definitions
# ---------------------------------------------------------------------------


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def family_graph(family: str, params: tuple) -> tuple[int, Edges]:
    if family == "complete":
        (n,) = params
        return n, list(combinations(range(n), 2))
    if family == "hypercube":
        (d,) = params
        n = 1 << d
        return n, [(v, v | 1 << i) for v in range(n) for i in range(d) if not v >> i & 1]
    if family == "bipartite":
        m, k = params
        return m + k, [(i, m + j) for i in range(m) for j in range(k)]
    if family == "rook":
        # K_m box K_m: cells (a, b) adjacent when they share a row or column.
        (m,) = params
        cells = [(a, b) for a in range(m) for b in range(m)]
        return m * m, [(i, j) for i, j in combinations(range(m * m), 2)
                       if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])]
    if family == "petersen":
        # Kneser graph K(5, 2): 2-subsets of {0..4}, adjacent when disjoint.
        pairs = list(combinations(range(5), 2))
        return 10, [(i, j) for i, j in combinations(range(10), 2)
                    if not set(pairs[i]) & set(pairs[j])]
    if family == "cycle":
        (n,) = params
        return n, sorted(_norm(i, (i + 1) % n) for i in range(n))
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# graph6, written from the format definition: order byte(s), then the upper
# triangle in column order, six bits per character, offset 63.
# ---------------------------------------------------------------------------


def write_g6(n: int, edges: Edges) -> str:
    if n <= 62:
        chars = [chr(n + 63)]
    elif n <= 258047:
        chars = [chr(126)] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    else:
        raise ValueError(f"graph6 orders stop at 258047, got {n}")
    present = set(edges)
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    for at in range(0, len(bits), 6):
        value = 0
        for bit in bits[at:at + 6]:
            value = value << 1 | bit
        chars.append(chr(value + 63))
    return "".join(chars)


def read_g6(text: str) -> tuple[int, Edges]:
    data = [ord(c) - 63 for c in text.strip()]
    if not data or any(not 0 <= x <= 63 for x in data):
        raise ValueError("not a graph6 string")
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    bits = [x >> shift & 1 for x in body for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or len(body) != (len(pairs) + 5) // 6:
        raise ValueError("graph6 length does not match its order")
    return n, sorted(pair for pair, bit in zip(pairs, bits) if bit)
