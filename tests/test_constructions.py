from itertools import islice

import pytest

from nutorbits import (HypothesisError, NotCoveredByThisPaper, NotRealizable,
                       buset_connected, buset_general, cayley_nut,
                       cayley_nut_edge_orbits, construct_with_orbits,
                       fig3_graph, nut_realizable, primes_from, prop1_graph,
                       prop2_graph, prop3_graph, subdivided_nut)
from nutorbits.constructions import (FAMILIES, ConstructionParams, build,
                                     is_prime)


def test_primes_from():
    assert list(islice(primes_from(4), 3)) == [5, 7, 11]
    assert next(primes_from(11)) == 11
    assert next(primes_from(-5)) == 2
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prop1_instances():
    built = prop1_graph(2, 5)
    assert built.graph.n == 10
    assert built.verdict.is_nut
    assert built.census.counts == (1, 2, 2)
    assert built.census.aut_order == 20
    assert built.provenance.variant == "prop1"

    built = prop1_graph(4, 7)
    assert built.graph.n == 14 and built.census.counts == (1, 4, 4)


@pytest.mark.parametrize("k,p", [(2, 4), (3, 7), (1, 5), (2, 3)])
def test_prop1_hypothesis_errors(k, p):
    with pytest.raises(HypothesisError):
        prop1_graph(k, p)


def test_prop2_instance():
    built = prop2_graph(5, 11)
    assert built.graph.n == 44
    assert built.census.counts == (1, 5, 5)
    assert built.census.aut_order == 88
    assert set(built.graph.degree_sequence()) == {8}


@pytest.mark.parametrize("k,p", [(5, 7), (4, 11), (3, 7), (5, 12)])
def test_prop2_hypothesis_errors(k, p):
    with pytest.raises(HypothesisError):
        prop2_graph(k, p)


def test_prop3_instance():
    built = prop3_graph(5)
    assert built.graph.n == 40
    assert built.census.counts == (1, 3, 3)
    assert built.census.aut_order == 480
    assert set(built.graph.degree_sequence()) == {6}


@pytest.mark.parametrize("n", [4, 3, -1, 6])
def test_prop3_hypothesis_errors(n):
    with pytest.raises(HypothesisError):
        prop3_graph(n)


def test_fig3():
    built = fig3_graph()
    assert built.graph.n == 12
    assert set(built.graph.degree_sequence()) == {8}
    assert built.census.counts == (1, 5, 5)
    assert built.verdict.is_nut


def test_cayley_nut_dispatch():
    assert cayley_nut(2).provenance.variant == "prop1"
    assert cayley_nut(2).graph.n == 10
    assert cayley_nut(3).provenance.variant == "prop3"
    assert cayley_nut(5).provenance.variant == "prop2"
    assert cayley_nut(4).census.counts == (1, 4, 4)
    # explicit primes exhibit other members of the family
    assert cayley_nut(2, p=7).graph.n == 14
    with pytest.raises(NotRealizable):
        cayley_nut(1)
    with pytest.raises(NotRealizable):
        cayley_nut(0)


def test_defaults_are_the_smallest_admissible_choices():
    assert prop1_graph(4).provenance.p == 7
    assert prop2_graph(5).provenance.p == 11
    sweep = FAMILIES["subdiv"].sweep
    built = build("subdiv", **sweep.fixed, **sweep.cases(1, 2)[0])
    assert built.provenance.base == ConstructionParams("prop1", k=2, p=5)
    assert built.provenance.orbit_index == 0
    assert built.graph == subdivided_nut(prop1_graph(2, 5), 0, 1).graph


def test_subdivided_nut_counts():
    base = prop1_graph(2, 5)
    one = subdivided_nut(base, 0, 1)
    assert one.graph.n == 50 and one.census.counts == (3, 4, 6)
    assert one.census.aut_order == base.census.aut_order
    two = subdivided_nut(base, 0, 2)
    assert two.graph.n == 90 and two.census.counts == (5, 6, 10)
    # the second orbit works just as well (the construction is orbit-agnostic)
    other = subdivided_nut(base, 1, 1)
    assert other.census.counts == (3, 4, 6)


def test_subdivided_nut_hypothesis_errors():
    base = prop1_graph(2, 5)
    with pytest.raises(HypothesisError):
        subdivided_nut(base, 0, 0)
    with pytest.raises(HypothesisError):
        subdivided_nut(base, 5, 1)
    # the output of one subdivision is no longer vertex-transitive, so a
    # second application is rejected
    once = subdivided_nut(base, 0, 1)
    assert once.census.o_v >= 3
    with pytest.raises(HypothesisError):
        subdivided_nut(once, 0, 1)


def test_construct_with_orbits_dispatch():
    assert construct_with_orbits(1, 4).graph == prop1_graph(4, 7).graph
    built = construct_with_orbits(3, 5)
    assert built.census.counts == (3, 5, 7)
    assert built.provenance.variant == "subdivided"
    assert built.provenance.base.variant == "prop3"


def test_large_subdivision_is_certified():
    # Circ(10, {1, 2}) with each edge of a 10-edge orbit subdivided 4t = 120
    # times: n = 10 + 10 * 120 = 1210, mostly long induced paths
    built = construct_with_orbits(61, 62)
    assert built.graph.n == 1210
    assert built.verdict.is_nut
    assert built.census.counts == (61, 62, 122)
    assert built.census.aut_order == cayley_nut(2).census.aut_order == 20


def test_construct_with_orbits_rejections():
    with pytest.raises(NotRealizable):
        construct_with_orbits(3, 3)
    with pytest.raises(NotRealizable):
        construct_with_orbits(1, 1)
    with pytest.raises(NotCoveredByThisPaper):
        construct_with_orbits(2, 5)
    with pytest.raises(NotCoveredByThisPaper):
        construct_with_orbits(4, 9)
    with pytest.raises(HypothesisError):
        construct_with_orbits(0, 4)


def test_realizability_predicates():
    assert nut_realizable(3, 4)
    assert not nut_realizable(1, 1)
    assert not nut_realizable(3, 3)
    assert cayley_nut_edge_orbits(2) and not cayley_nut_edge_orbits(1)
    assert buset_general(5, 2)          # 5 <= 2*2 + 1
    assert not buset_general(6, 2)
    assert not buset_connected(5, 2)    # needs r <= k + 1
    assert buset_connected(3, 2)
    with pytest.raises(ValueError):
        nut_realizable(0, 3)


def test_every_verified_nut_satisfies_orbit_gap():
    # o_e >= o_v + 1 on a spread of builder outputs
    for built in (prop1_graph(2, 5), prop1_graph(4, 7), fig3_graph(),
                  cayley_nut(3), subdivided_nut(prop1_graph(2, 5), 0, 1)):
        assert built.census.o_e >= built.census.o_v + 1


def test_cayley_nut_census_for_small_k():
    for k in range(2, 10):
        built = cayley_nut(k)
        assert built.census.counts == (1, k, k), k


def test_certified_nuts_have_min_degree_three_on_base_vertices():
    # regular nut families are at least cubic, and subdivision only adds
    # degree-2 path vertices while keeping base degrees intact
    for built in (prop1_graph(2, 5), prop2_graph(5, 11), prop3_graph(5),
                  fig3_graph()):
        assert min(built.graph.degree_sequence()) >= 3
    base = prop1_graph(2, 5)
    sub = subdivided_nut(base, 0, 1)
    assert all(sub.graph.degree(v) >= 3 for v in range(base.graph.n))
    assert all(sub.graph.degree(v) == 2 for v in range(base.graph.n, sub.graph.n))


def test_prop2_spectral_endpoints_from_symbol():
    # the two eigenvalue branches of the box-K2 family evaluate, at the
    # rational roots of unity +-1, to 2k-2, 2k-4, 2 and 0
    from nutorbits import circulant_symbol
    for k in (5, 7, 9):
        p = next(primes_from(2 * k + 1))
        symbol = circulant_symbol(2 * p, set(range(2, k)) | {p})
        at_one = sum(symbol)
        at_minus_one = sum(c if i % 2 == 0 else -c for i, c in enumerate(symbol))
        # K2 eigenvalue +1 branch, then -1 branch
        assert at_one + 1 == 2 * k - 2
        assert at_one - 1 == 2 * k - 4
        assert at_minus_one + 1 == 2
        assert at_minus_one - 1 == 0
