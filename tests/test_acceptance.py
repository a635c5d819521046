"""Acceptance suite: every check is an exact integer identity.

Each criterion prints one PASS line (run with ``pytest -v -s`` to see them);
a failing criterion shows up as a failed test.  Criteria verify against
stated runtime budgets as well.

Module-scoped fixtures build each family's instances once, with the seconds
that took; the criteria that certify them and the two global invariants (the
orbit-count gap of certified nut graphs, and the orbit-stabilizer identity)
share them, so each criterion also runs on its own.
"""

import random
import time
from itertools import combinations, islice, product

import pytest
from oracles import (adjacency_matrix, cartesian_product, complete_graph,
                     exhaustive_automorphisms, gcd_criterion, orbit_partition,
                     residual)

from nutorbits import (AbelianCayleySpec, CirculantSpec, Graph,
                       NotCoveredByThisPaper, NotRealizable, automorphism_group,
                       cayley_abelian, circulant, circulant_is_nut_symbolic,
                       construct_with_orbits, fig3_graph, is_nut,
                       orbit_census, primes_from, prop1_graph, prop2_graph,
                       prop3_graph, stabilizer, subdivided_nut,
                       vanishing_subgroups)


def _pass(num, detail):
    print(f"criterion {num:2d} PASS: {detail}")


def _timed(make):
    """make()'s value and the seconds it took."""
    start = time.perf_counter()
    value = make()
    return value, time.perf_counter() - start


@pytest.fixture(scope="module")
def prop1_built():
    """{(k, p): VerifiedNut} for k in (2, 4, 6) and the two least admissible
    primes of each, and the seconds taken."""
    return _timed(lambda: {(k, p): prop1_graph(k, p) for k in (2, 4, 6)
                           for p in islice(primes_from(k + 2), 2)})


@pytest.fixture(scope="module")
def prop2_built():
    return _timed(lambda: {(k, p): prop2_graph(k, p) for k, p in ((5, 11), (7, 17))})


@pytest.fixture(scope="module")
def prop3_built():
    return _timed(lambda: {(n,): prop3_graph(n) for n in (5, 7, 9)})


@pytest.fixture(scope="module")
def fig3_built():
    return _timed(lambda: {(): fig3_graph()})


@pytest.fixture(scope="module")
def subdiv_built():
    """{(t,): VerifiedNut} for t in (1, 2), each subdividing orbit 0 of
    prop1_graph(2, 5), and the seconds taken."""
    def make():
        base = prop1_graph(2, 5)
        return {(t,): subdivided_nut(base, 0, t) for t in (1, 2)}
    return _timed(make)


@pytest.fixture(scope="module")
def dispatch_built():
    return _timed(lambda: {(r, k): construct_with_orbits(r, k) for r in (1, 3, 5)
                           for k in range(r + 1, r + 5)})


@pytest.fixture(scope="module")
def certified(prop1_built, prop2_built, prop3_built, fig3_built, subdiv_built,
              dispatch_built):
    """(label, VerifiedNut) for every construction criteria 1-6 certify."""
    families = (("prop1", prop1_built), ("prop2", prop2_built),
                ("prop3", prop3_built), ("fig3", fig3_built),
                ("subdiv", subdiv_built), ("dispatch", dispatch_built))
    return [(f"{name}{key}", built) for name, (built_at, _) in families
            for key, built in built_at.items()]


@pytest.fixture(scope="module")
def cross_oracle():
    """(n, offsets, symbolic verdict, nullspace verdict) for every offset set
    of every even n <= 24, and the seconds taken."""
    def make():
        rows = []
        for n in range(2, 25, 2):
            pool = range(1, n // 2 + 1)
            for size in range(1, n // 2 + 1):
                for offs in combinations(pool, size):
                    rows.append((n, offs, circulant_is_nut_symbolic(n, offs),
                                 is_nut(circulant(CirculantSpec(n, offs))).is_nut))
        return rows
    return _timed(make)


@pytest.fixture(scope="module")
def nut_circulants(cross_oracle):
    """(label, Graph) for every circulant the cross-oracle certifies nut."""
    return [(f"Circ({n},{set(offs)})", circulant(CirculantSpec(n, offs)))
            for n, offs, symbolic, _ in cross_oracle[0] if symbolic]


def test_criterion_01_prop1_sweep(prop1_built):
    built_at, elapsed = prop1_built
    checked = []
    for (k, p), built in built_at.items():
        assert built.verdict.is_nut
        assert built.census.counts == (1, k, k)
        assert built.census.aut_order == 4 * p
        checked.append((k, p))
    assert elapsed < 30.0
    _pass(1, f"{len(checked)} instances {checked}, census (1,k,k), "
             f"|Aut| = 4p, {elapsed:.1f}s")


def test_criterion_02_prop2(prop2_built):
    built_at, elapsed = prop2_built
    for (k, p), built in built_at.items():
        assert built.verdict.is_nut
        assert built.census.counts == (1, k, k)
        assert built.census.aut_order == 8 * p
    assert elapsed < 60.0
    _pass(2, f"(5,11) and (7,17) verified, |Aut| = 8p exactly, {elapsed:.1f}s")


def test_criterion_03_prop3(prop3_built):
    built_at, elapsed = prop3_built
    for (n,), built in built_at.items():
        assert built.verdict.is_nut
        assert built.census.counts == (1, 3, 3)
        assert built.census.aut_order == 96 * n
    assert elapsed < 60.0
    _pass(3, f"n in (5,7,9) verified, census (1,3,3), |Aut| = 96n, {elapsed:.1f}s")


def test_criterion_04_fig3(fig3_built):
    built_at, elapsed = fig3_built
    built = built_at[()]
    assert built.graph.n == 12
    assert set(built.graph.degree_sequence()) == {8}
    assert built.verdict.is_nut
    assert built.census.counts == (1, 5, 5)
    assert elapsed < 5.0
    _pass(4, f"order 12, 8-regular, nut, census (1,5,5), {elapsed:.1f}s")


def test_criterion_05_subdivision_chain(subdiv_built):
    built_at, elapsed = subdiv_built
    for (t,), built in built_at.items():
        assert built.graph.n == 10 + 10 * 4 * t
        assert built.census.counts == (2 * t + 1, 2 * t + 2, 4 * t + 2)
        # the kernel is recomputed from scratch, not inherited: re-check the
        # certificate by direct multiplication
        assert built.verdict.nullity == 1 and built.verdict.is_full
        vec = built.verdict.kernel_basis[0]
        assert all(x == 0 for x in residual(adjacency_matrix(built.graph), vec))
    assert elapsed < 60.0
    _pass(5, f"t in (1,2) on the 10-vertex base: censuses (3,4,6), (5,6,10), "
             f"kernels re-verified, {elapsed:.1f}s")


def test_criterion_06_dispatch(dispatch_built):
    built_at, build_elapsed = dispatch_built
    start = time.perf_counter()
    built_count = 0
    for (r, k), built in built_at.items():
        assert built.census.o_v == r and built.census.o_e == k
        built_count += 1
    for r in (1, 3, 5):
        for k in (r, max(r - 1, 0)):
            if k < 0:
                continue
            with pytest.raises((NotRealizable, ValueError)):
                construct_with_orbits(r, k)
    for r in (2, 4):
        with pytest.raises(NotCoveredByThisPaper):
            construct_with_orbits(r, r + 1)
    elapsed = build_elapsed + time.perf_counter() - start
    assert elapsed < 300.0
    _pass(6, f"{built_count} (r,k) instances built with census (r,k,.); "
             f"k <= r and even r rejected, {elapsed:.1f}s")


def test_criterion_07_cross_oracle(cross_oracle):
    rows, oracle_elapsed = cross_oracle
    start = time.perf_counter()
    specs = 0
    nuts = 0
    for n, offs, symbolic, exact in rows:
        assert symbolic == exact, (n, offs)
        specs += 1
        nuts += symbolic
    gcd_pairs = 0
    for n in range(4, 41, 2):
        for k in range(1, (n - 2) // 2 + 1):
            offs = tuple(range(1, k + 1))
            symbolic = circulant_is_nut_symbolic(n, offs)
            assert gcd_criterion(n, k) == symbolic, (n, k)
            assert symbolic == is_nut(circulant(CirculantSpec(n, offs))).is_nut, (n, k)
            gcd_pairs += 1
    elapsed = oracle_elapsed + time.perf_counter() - start
    assert elapsed < 600.0
    _pass(7, f"{specs} circulant specs agree symbolically and exactly "
             f"({nuts} nuts); gcd criterion agrees on "
             f"{gcd_pairs} consecutive-set pairs, {elapsed:.1f}s")


def test_criterion_08_orbit_gap_invariant(certified, nut_circulants):
    assert certified and nut_circulants, "the fixtures certified no graph"
    checked = 0
    for label, built in certified:
        assert built.verdict.is_nut
        assert built.census.o_e >= built.census.o_v + 1, label
        checked += 1
    for label, g in nut_circulants:
        census = orbit_census(g)
        assert census.o_e >= census.o_v + 1, label
        checked += 1
    _pass(8, f"o_e >= o_v + 1 on all {checked} certified nut graphs, "
             f"zero exceptions")


def _box_spec(m, offsets, r):
    """Circ(m, offsets) box K_(2^r) as the Cayley graph of Z_m x Z_2^r."""
    zero = (0,) * r
    return AbelianCayleySpec((m,) + (2,) * r, {(x,) + zero for s in offsets
                                               for x in (s, m - s)}
                             | {(0,) + e for e in product((0, 1), repeat=r) if any(e)})


def test_criterion_09_product_spectra_and_kernels(prop2_built, prop3_built):
    # Each box family is the Cayley graph of an abelian group, whose
    # eigenvalues are its character sums: lambda + mu over every pair of
    # factor characters.  The certificate's kernel vector must be the
    # alternating character of Z_m times the factor's +-1 character with
    # mu = -lambda, and the character test must find one vanishing subgroup,
    # of order 2.
    start = time.perf_counter()
    cases = [(prop2_built[0][k, p], 2 * p, {*range(2, k), p}, (1, -1))
             for k, p in ((5, 11), (7, 17))]
    cases += [(prop3_built[0][(n,)], 2 * n, {1, n}, (1, 1, 1, 1)) for n in (5, 7)]
    for built, m, offsets, factor in cases:
        spec = _box_spec(m, offsets, len(factor).bit_length() - 1)
        assert built.graph == cayley_abelian(spec) == cartesian_product(
            circulant(CirculantSpec(m, offsets)), complete_graph(len(factor)))
        w = tuple((-1) ** a * b for a in range(m) for b in factor)
        assert built.verdict.kernel_basis in ((w,), (tuple(-x for x in w),)), \
            built.provenance
        assert not any(residual(adjacency_matrix(built.graph), w))
        assert vanishing_subgroups(spec) == (2,), built.provenance
    elapsed = time.perf_counter() - start
    _pass(9, f"{len(cases)} box-family certificates: kernel = alternating x "
             f"factor vector with A w = 0 exactly, one vanishing character "
             f"subgroup of order 2, {elapsed:.1f}s")


def test_criterion_10_orbit_stabilizer_everywhere(certified, nut_circulants):
    censused = [(label, built.graph) for label, built in certified] + nut_circulants
    assert censused, "the fixtures censused no graph"
    small_named = [
        ("K1", complete_graph(1)), ("K2", complete_graph(2)),
        ("K4", complete_graph(4)), ("C4", circulant(CirculantSpec(4, {1}))),
        ("C6", circulant(CirculantSpec(6, {1}))),
        ("P3", Graph(3, ((0, 1), (1, 2)))),
    ]
    groups = 0
    vertices = 0
    for label, g in censused + small_named:
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
