"""Acceptance suite: every check is an exact integer identity.

Each criterion prints one PASS line (run with ``pytest -v -s`` to see them);
a failing criterion shows up as a failed test.  Criteria verify against
stated runtime budgets as well.

The module keeps registries of everything earlier criteria certify so the
two global invariants (the orbit-count gap of certified nut graphs, and the
orbit-stabilizer identity) can sweep the entire suite with zero exceptions.
"""

import random
import time
from itertools import combinations, islice

import pytest
from oracles import exhaustive_automorphisms, orbit_partition, residual

from nutorbits import (CirculantSpec, Graph, NotCoveredByThisPaper,
                       NotRealizable, automorphism_group, cartesian_product,
                       cayley_nut, circulant, circulant_is_nut_symbolic,
                       complete_graph, construct_with_orbits, fig3_graph,
                       gcd_criterion, is_nut, kernel_vector_from_factors,
                       orbit_census, primes_from, product_spectrum_check,
                       prop1_graph, prop2_graph, prop3_graph, stabilizer,
                       subdivided_nut)

# filled by earlier criteria, swept by criteria 8 and 10
CERTIFIED = []          # (label, VerifiedNut)
NUT_CIRCULANTS = []     # (n, offsets) certified nut by the cross-oracle
CENSUSED = []           # (label, Graph) whose automorphism group the suite computed


def _register(label, built):
    CERTIFIED.append((label, built))
    CENSUSED.append((label, built.graph))


def _pass(num, detail):
    print(f"criterion {num:2d} PASS: {detail}")


def test_criterion_01_prop1_sweep():
    start = time.perf_counter()
    checked = []
    for k in (2, 4, 6):
        for p in islice(primes_from(k + 2), 2):
            built = prop1_graph(k, p)
            assert built.verdict.is_nut
            assert built.census.counts == (1, k, k)
            assert built.census.aut_order == 4 * p
            _register(f"prop1({k},{p})", built)
            checked.append((k, p))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(1, f"{len(checked)} instances {checked}, census (1,k,k), "
             f"|Aut| = 4p, {elapsed:.1f}s")


def test_criterion_02_prop2():
    start = time.perf_counter()
    for k, p in ((5, 11), (7, 17)):
        built = prop2_graph(k, p)
        assert built.verdict.is_nut
        assert built.census.counts == (1, k, k)
        assert built.census.aut_order == 8 * p
        _register(f"prop2({k},{p})", built)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(2, f"(5,11) and (7,17) verified, |Aut| = 8p exactly, {elapsed:.1f}s")


def test_criterion_03_prop3():
    start = time.perf_counter()
    for n in (5, 7, 9):
        built = prop3_graph(n)
        assert built.verdict.is_nut
        assert built.census.counts == (1, 3, 3)
        assert built.census.aut_order == 96 * n
        _register(f"prop3({n})", built)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(3, f"n in (5,7,9) verified, census (1,3,3), |Aut| = 96n, {elapsed:.1f}s")


def test_criterion_04_fig3():
    start = time.perf_counter()
    built = fig3_graph()
    assert built.graph.n == 12
    assert set(built.graph.degree_sequence()) == {8}
    assert built.verdict.is_nut
    assert built.census.counts == (1, 5, 5)
    _register("fig3", built)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _pass(4, f"order 12, 8-regular, nut, census (1,5,5), {elapsed:.1f}s")


def test_criterion_05_subdivision_chain():
    start = time.perf_counter()
    base = prop1_graph(2, 5)
    for t in (1, 2):
        built = subdivided_nut(base, 0, t)
        assert built.graph.n == 10 + 10 * 4 * t
        assert built.census.counts == (2 * t + 1, 2 * t + 2, 4 * t + 2)
        # the kernel is recomputed from scratch, not inherited: re-check the
        # certificate by direct multiplication
        assert built.verdict.nullity == 1 and built.verdict.is_full
        vec = built.verdict.kernel_basis[0]
        assert all(x == 0 for x in residual(built.graph.adjacency_matrix(), vec))
        _register(f"subdiv(t={t})", built)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(5, f"t in (1,2) on the 10-vertex base: censuses (3,4,6), (5,6,10), "
             f"kernels re-verified, {elapsed:.1f}s")


def test_criterion_06_dispatch():
    start = time.perf_counter()
    built_count = 0
    for r in (1, 3, 5):
        for k in range(r + 1, r + 5):
            built = construct_with_orbits(r, k)
            assert built.census.o_v == r and built.census.o_e == k
            _register(f"dispatch({r},{k})", built)
            built_count += 1
        for k in (r, max(r - 1, 0)):
            if k < 0:
                continue
            with pytest.raises((NotRealizable, ValueError)):
                construct_with_orbits(r, k)
    for r in (2, 4):
        with pytest.raises(NotCoveredByThisPaper):
            construct_with_orbits(r, r + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _pass(6, f"{built_count} (r,k) instances built with census (r,k,.); "
             f"k <= r and even r rejected, {elapsed:.1f}s")


def test_criterion_07_cross_oracle():
    start = time.perf_counter()
    specs = 0
    for n in range(2, 25, 2):
        pool = range(1, n // 2 + 1)
        for size in range(1, n // 2 + 1):
            for offs in combinations(pool, size):
                symbolic = circulant_is_nut_symbolic(n, offs)
                exact = is_nut(circulant(CirculantSpec(n, offs))).is_nut
                assert symbolic == exact, (n, offs)
                specs += 1
                if symbolic:
                    NUT_CIRCULANTS.append((n, offs))
    gcd_pairs = 0
    for n in range(4, 41, 2):
        for k in range(1, (n - 2) // 2 + 1):
            offs = tuple(range(1, k + 1))
            symbolic = circulant_is_nut_symbolic(n, offs)
            assert gcd_criterion(n, k) == symbolic, (n, k)
            assert symbolic == is_nut(circulant(CirculantSpec(n, offs))).is_nut, (n, k)
            gcd_pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _pass(7, f"{specs} circulant specs agree symbolically and exactly "
             f"({len(NUT_CIRCULANTS)} nuts); gcd criterion agrees on "
             f"{gcd_pairs} consecutive-set pairs, {elapsed:.1f}s")


def test_criterion_08_orbit_gap_invariant():
    assert CERTIFIED and NUT_CIRCULANTS, "earlier criteria must run first"
    checked = 0
    for label, built in CERTIFIED:
        assert built.verdict.is_nut
        assert built.census.o_e >= built.census.o_v + 1, label
        checked += 1
    for n, offs in NUT_CIRCULANTS:
        g = circulant(CirculantSpec(n, offs))
        census = orbit_census(g)
        assert census.o_e >= census.o_v + 1, (n, offs)
        CENSUSED.append((f"Circ({n},{set(offs)})", g))
        checked += 1
    _pass(8, f"o_e >= o_v + 1 on all {checked} certified nut graphs, "
             f"zero exceptions")


def test_criterion_09_product_spectra_and_kernels():
    start = time.perf_counter()
    k1, k2, k4 = complete_graph(1), complete_graph(2), complete_graph(4)
    c4 = circulant(CirculantSpec(4, {1}))
    c6 = circulant(CirculantSpec(6, {1}))
    family = [k1, k2, k4, c4, c6]
    pairs = 0
    for g in family:
        for h in family:
            assert product_spectrum_check(g, h), (g.n, h.n)
            pairs += 1

    # full product kernel vectors for the two box families
    g22 = circulant(CirculantSpec(22, {2, 3, 4, 11}))
    w = kernel_vector_from_factors([(-1) ** i for i in range(22)], [1, -1],
                                   g22, k2)
    assert all(e != 0 for e in w)
    assert all(x == 0 for x in residual(
        cartesian_product(g22, k2).adjacency_matrix(), w))

    g10 = circulant(CirculantSpec(10, {1, 5}))
    w = kernel_vector_from_factors([(-1) ** i for i in range(10)], [1, 1, 1, 1],
                                   g10, k4)
    assert all(e != 0 for e in w)
    assert all(x == 0 for x in residual(
        cartesian_product(g10, k4).adjacency_matrix(), w))
    elapsed = time.perf_counter() - start
    _pass(9, f"product spectrum identity on {pairs} pairs; full kernel "
             f"vectors with A w = 0 exactly for both box families, {elapsed:.1f}s")


def test_criterion_10_orbit_stabilizer_everywhere():
    assert CENSUSED, "earlier criteria must run first"
    small_named = [
        ("K1", complete_graph(1)), ("K2", complete_graph(2)),
        ("K4", complete_graph(4)), ("C4", circulant(CirculantSpec(4, {1}))),
        ("C6", circulant(CirculantSpec(6, {1}))),
        ("P3", Graph(3, ((0, 1), (1, 2)))),
    ]
    groups = 0
    vertices = 0
    for label, g in CENSUSED + small_named:
        grp = automorphism_group(g)
        vertex_orbits = orbit_partition(grp.generators, range(g.n), lambda p, v: p[v])
        orbit_of = {}
        for orbit in vertex_orbits:
            for v in orbit:
                orbit_of[v] = len(orbit)
        for x in range(g.n):
            st = stabilizer(g, x)
            assert st.order * orbit_of[x] == grp.order, (label, x)
            vertices += 1
        groups += 1
    _pass(10, f"|stab| * |orbit| = |Aut| at all {vertices} vertices of "
              f"{groups} groups")


def test_criterion_11_brute_force_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    graphs = []
    for trial in range(25):
        n = rng.randint(2, 8)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        graphs.append((f"random[{trial}]", Graph(n, tuple(sorted(edges)))))
    graphs += [
        ("K1", complete_graph(1)), ("K2", complete_graph(2)),
        ("K4", complete_graph(4)), ("C4", circulant(CirculantSpec(4, {1}))),
        ("C6", circulant(CirculantSpec(6, {1}))),
        ("P3", Graph(3, ((0, 1), (1, 2)))),
        ("Q2", cartesian_product(complete_graph(2), complete_graph(2))),
    ]
    for label, g in graphs:
        grp = automorphism_group(g)
        expected = exhaustive_automorphisms(g)
        # a subgroup of Aut(G) with the order of Aut(G) is Aut(G)
        assert grp.order == len(expected), label
        assert all(p in expected for p in grp.generators), label
        for x in range(g.n):
            assert (stabilizer(g, x).order
                    == sum(p[x] == x for p in expected)), (label, x)
    elapsed = time.perf_counter() - start
    _pass(11, f"search equals n!-enumeration on {len(graphs)} graphs "
              f"(25 pseudorandom + named), {elapsed:.1f}s")
