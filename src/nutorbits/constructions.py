"""Verified builders: the three Cayley nut-graph families, the order-12
exceptional Cayley nut graph, the orbit-raising subdivision, the (r, k)
dispatch, and the realizability predicates.

Every builder verifies its own output from scratch: the nut certificate is
recomputed by exact nullspace, the orbit census by the automorphism search,
and the group order is compared against the formula claimed for the family.
A mismatch is an internal consistency failure and aborts loudly; it is never
a valid outcome.  Each builder refuses, before it builds anything, an order
above ``graphs.MAX_ORDER``.

``FAMILIES`` is the one table of construct forms and sweep suites: each row
gives the builder, the prime floor of a prime family and the sweep range.
``build(form, **params)`` checks the parameters against the builder's
signature, whose names are the ``nutorbits construct`` flags, and calls it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from itertools import combinations, count, islice
from typing import Callable, Iterator, NamedTuple, Optional

from .automorphisms import OrbitCensus, orbit_census
from .errors import (HypothesisError, NotCoveredByThisPaper, NotRealizable,
                     ResourceCapError, VerificationError)
from .graphs import (MAX_ORDER, AbelianCayleySpec, CirculantSpec, Graph,
                     cartesian_product, cayley_abelian, circulant,
                     complete_graph, subdivide_edges)
from .linalg import NutVerdict, is_nut

FIG3_CONNECTION = frozenset(
    {(i, 0) for i in (1, 2, 4, 5)} | {(i, 1) for i in (0, 1, 3, 5)})


@dataclass(frozen=True)
class ConstructionParams:
    """Provenance record for a verified construction."""

    variant: str  # prop1 | prop2 | prop3 | fig3 | subdivided
    k: Optional[int] = None
    p: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    orbit_index: Optional[int] = None
    base: Optional["ConstructionParams"] = None


@dataclass(frozen=True)
class VerifiedNut:
    """A graph together with its recomputed nut certificate and census."""

    graph: Graph
    verdict: NutVerdict
    census: OrbitCensus
    provenance: ConstructionParams


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_from(lower_bound: int) -> Iterator[int]:
    """Ascending primes >= lower_bound, by trial division."""
    for n in count(max(2, lower_bound)):
        if is_prime(n):
            yield n


def _certify(graph: Graph, provenance: ConstructionParams,
             expected_counts: tuple[int, int, int],
             expected_aut_order: Optional[int] = None) -> VerifiedNut:
    verdict = is_nut(graph)
    if not verdict.is_nut:
        raise VerificationError(
            f"construction {provenance} failed the nut check: "
            f"nullity={verdict.nullity}, is_full={verdict.is_full} "
            f"(order {graph.n}, size {graph.size})")
    census = orbit_census(graph)
    if census.counts != expected_counts:
        raise VerificationError(
            f"construction {provenance} produced orbit counts "
            f"{census.counts}, expected {expected_counts}")
    if expected_aut_order is not None and census.aut_order != expected_aut_order:
        raise VerificationError(
            f"construction {provenance} has |Aut| = {census.aut_order}, "
            f"expected {expected_aut_order}")
    if census.o_e < census.o_v + 1:
        raise VerificationError(
            f"construction {provenance} violates o_e >= o_v + 1: {census.counts}")
    return VerifiedNut(graph, verdict, census, provenance)


def admissible_primes(family: str, k: int) -> Iterator[int]:
    """Ascending primes p for which the prime family ``family`` (prop1 or
    prop2) with parameter k is a nut graph."""
    return primes_from(FAMILIES[family].prime_floor(k))


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ResourceCapError(f"a construction of order {n} exceeds the order "
                               f"cap of {MAX_ORDER} vertices")


def _check_prime_order(family: str, p: int) -> None:
    _check_order(FAMILIES[family].order_scale * p)


def _prime_parameter(family: str, k: int, p: Optional[int]) -> int:
    """p, by default the family's smallest admissible prime, checked against
    the order cap and against the family's hypotheses."""
    floor = FAMILIES[family].prime_floor(k)
    if p is None:
        _check_prime_order(family, floor)  # no prime search past the cap
        p = next(admissible_primes(family, k))
    _check_prime_order(family, p)  # before trial division on a large p
    if not is_prime(p):
        raise HypothesisError(f"p must be prime, got {p}")
    if p < floor:
        raise HypothesisError(f"p must be at least {floor}, got {p}")
    return p


def prop1_graph(k: int, p: Optional[int] = None) -> VerifiedNut:
    """Circ(2p, {1..k}) for even k >= 2 and prime p >= k + 2: a Cayley nut
    graph with k edge orbits, k arc orbits, and dihedral symmetry of order
    4p.  The default p is the smallest admissible prime."""
    if k < 2 or k % 2:
        raise HypothesisError(f"k must be even and >= 2, got {k}")
    p = _prime_parameter("prop1", k, p)
    graph = circulant(CirculantSpec(2 * p, frozenset(range(1, k + 1))))
    return _certify(graph, ConstructionParams("prop1", k=k, p=p),
                    (1, k, k), expected_aut_order=4 * p)


def prop2_graph(k: int, p: Optional[int] = None) -> VerifiedNut:
    """Circ(2p, {2..k-1, p}) box K2 for odd k >= 5 and prime p >= 2k + 1: a
    Cayley nut graph with k edge orbits, k arc orbits, |Aut| = 8p.  The
    default p is the smallest admissible prime."""
    if k < 5 or k % 2 == 0:
        raise HypothesisError(f"k must be odd and >= 5, got {k}")
    p = _prime_parameter("prop2", k, p)
    offsets = frozenset(range(2, k)) | {p}
    graph = cartesian_product(circulant(CirculantSpec(2 * p, offsets)),
                              complete_graph(2))
    return _certify(graph, ConstructionParams("prop2", k=k, p=p),
                    (1, k, k), expected_aut_order=8 * p)


def prop3_graph(n: int) -> VerifiedNut:
    """Circ(2n, {1, n}) box K4 for odd n >= 5: a Cayley nut graph with three
    edge orbits, three arc orbits, |Aut| = 96n."""
    if n < 5 or n % 2 == 0:
        raise HypothesisError(f"n must be odd and >= 5, got {n}")
    _check_order(8 * n)
    graph = cartesian_product(circulant(CirculantSpec(2 * n, frozenset({1, n}))),
                              complete_graph(4))
    return _certify(graph, ConstructionParams("prop3", n=n),
                    (1, 3, 3), expected_aut_order=96 * n)


def fig3_graph() -> VerifiedNut:
    """The Cayley graph for Z6 x Z2 with connection set
    {(1,0),(2,0),(4,0),(5,0),(0,1),(1,1),(3,1),(5,1)}: order 12, 8-regular,
    a nut graph with five edge orbits and five arc orbits."""
    graph = cayley_abelian(AbelianCayleySpec((6, 2), FIG3_CONNECTION))
    return _certify(graph, ConstructionParams("fig3"), (1, 5, 5))


def cayley_nut(k: int, p: Optional[int] = None) -> VerifiedNut:
    """A Cayley nut graph with k edge orbits and k arc orbits, for any
    k >= 2.

    Even k dispatches to the consecutive-offset circulant family, k = 3 to
    the box-K4 family, and odd k >= 5 to the box-K2 family.  The default
    prime parameter is the smallest admissible one; pass ``p`` to sample
    other members of the (infinite) family.
    """
    if k < 2:
        raise NotRealizable(
            f"no Cayley nut graph has {k} edge orbits: nut graphs satisfy "
            "o_e >= o_v + 1 >= 2, and k >= 2 is achievable")
    if k % 2 == 0:
        return prop1_graph(k, p)
    if k == 3:
        if p is not None:
            raise HypothesisError("k = 3 uses the box-K4 family; its size "
                                  "parameter is n, not a prime p")
        return prop3_graph(5)
    return prop2_graph(k, p)


def subdivided_nut(base: VerifiedNut, orbit_index: int, t: int) -> VerifiedNut:
    """Subdivide every edge of one edge orbit of a vertex-transitive nut
    graph with o_e = o_a exactly 4t times.

    The result is verified from scratch to be a nut graph with orbit counts
    (2t + 1, 2t + k, 4t + k) and an unchanged automorphism group order.
    ``orbit_index`` selects among edge orbits ordered by lexicographically
    smallest edge.
    """
    if t < 1:
        raise HypothesisError(f"t must be a positive integer, got {t}")
    census = base.census
    if census.o_v != 1:
        raise HypothesisError(
            f"base must be vertex-transitive, got o_v = {census.o_v}")
    if census.o_e != census.o_a:
        raise HypothesisError(
            f"base must have o_e = o_a, got ({census.o_e}, {census.o_a})")
    if not (0 <= orbit_index < census.o_e):
        raise HypothesisError(
            f"orbit index {orbit_index} out of range for {census.o_e} edge orbits")
    orbit = census.edge_orbits[orbit_index]
    _check_order(base.graph.n + 4 * t * len(orbit))
    k = census.o_e
    graph = subdivide_edges(base.graph, orbit, 4 * t)
    provenance = ConstructionParams("subdivided", k=k, t=t,
                                    orbit_index=orbit_index,
                                    base=base.provenance)
    return _certify(graph, provenance, (2 * t + 1, 2 * t + k, 4 * t + k),
                    expected_aut_order=census.aut_order)


def subdivided_cayley(k: int, t: int, p: Optional[int] = None,
                      orbit: Optional[int] = None) -> VerifiedNut:
    """``cayley_nut(k, p)`` with one edge orbit subdivided 4t times.

    By default the smallest edge orbit is subdivided (ties broken by
    lexicographically smallest edge), which keeps the output small; any
    orbit would do.
    """
    base = cayley_nut(k, p)
    if orbit is None:
        sizes = [len(o) for o in base.census.edge_orbits]
        orbit = sizes.index(min(sizes))
    return subdivided_nut(base, orbit, t)


def construct_with_orbits(r: int, k: int) -> VerifiedNut:
    """A nut graph with r vertex orbits and k edge orbits, for odd r and
    k >= r + 1.

    r = 1 is the Cayley case; odd r >= 3 subdivides one edge orbit of a
    Cayley nut graph with k - r + 1 edge orbits, 4t times with
    t = (r - 1) / 2.
    """
    if r < 1:
        raise HypothesisError(f"vertex orbit count must be >= 1, got {r}")
    if k <= r:
        raise NotRealizable(
            f"no nut graph has (o_v, o_e) = ({r}, {k}): nut graphs require "
            f"k >= r + 1 = {r + 1}")
    if r % 2 == 0:
        raise NotCoveredByThisPaper(
            f"(o_v, o_e) = ({r}, {k}) is realizable, but even vertex-orbit "
            "counts are covered only by a prior construction that this "
            "library does not implement")
    if r == 1:
        return cayley_nut(k)
    return subdivided_cayley(k - r + 1, (r - 1) // 2)


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------


class Sweep(NamedTuple):
    """A ``nutorbits sweep`` suite, which reads the flags ``reads``: ``var``
    runs over first, first + step, ... up to ``--<var>max`` (default
    ``default_max``, refused above ``cap``).  ``cases(value, primes)`` lists
    the build parameters its rows report; ``fixed`` adds ones they omit."""

    var: str
    first: int
    step: int
    default_max: int
    cap: int
    reads: tuple[str, ...]
    cases: Callable[[int, int], list[dict]]
    fixed: dict = {}


class Family(NamedTuple):
    """A row of FAMILIES: a construct form's builder, whose parameters are
    the flags the form reads (None if the suite only sweeps); a prime
    family's least admissible prime as a function of k, and its order as a
    multiple of p; the sweep suite."""

    build: Optional[Callable[..., VerifiedNut]]
    prime_floor: Optional[Callable[[int], int]] = None
    order_scale: Optional[int] = None
    sweep: Optional[Sweep] = None


def _with_primes(family: str):
    def cases(k: int, primes: int) -> list[dict]:
        rows = []
        for p in islice(admissible_primes(family, k), primes):
            _check_prime_order(family, p)  # refused before anything is built
            rows.append({"k": k, "p": p})
        return rows
    return cases


def _offset_sets(n: int, primes: int) -> list[dict]:
    pool = range(1, n // 2 + 1)
    return [{"n": n, "S": list(subset)} for size in range(1, len(pool) + 1)
            for subset in combinations(pool, size)]


FAMILIES = {
    "dispatch": Family(construct_with_orbits),
    "prop1": Family(prop1_graph, lambda k: k + 2, 2, Sweep(
        "k", 2, 2, 6, 10, ("k", "kmax", "primes"), _with_primes("prop1"))),
    "prop2": Family(prop2_graph, lambda k: 2 * k + 1, 4, Sweep(
        "k", 5, 2, 7, 9, ("k", "kmax", "primes"), _with_primes("prop2"))),
    "prop3": Family(prop3_graph, sweep=Sweep(
        "n", 5, 2, 9, 13, ("nmax",), lambda n, primes: [{"n": n}])),
    "fig3": Family(fig3_graph),
    # the sweep subdivides Circ(10, {1, 2}), the smallest Cayley nut graph
    "subdiv": Family(subdivided_cayley, sweep=Sweep(
        "t", 1, 1, 2, 4, ("tmax",), lambda t, primes: [{"t": t}], {"k": 2})),
    "circulant-cross": Family(None, sweep=Sweep("n", 2, 2, 12, 24, ("nmax",), _offset_sets)),
}


def build(form: str, **params) -> VerifiedNut:
    """The verified graph of construct form ``form``.  ``params`` are named
    as the builder's parameters, which are the ``nutorbits construct`` flags;
    an unread one, or a missing one without a default, is rejected."""
    builder = FAMILIES[form].build
    signature = inspect.signature(builder).parameters
    unread = [f"--{name}" for name in params if name not in signature]
    missing = [f"--{name}" for name, parameter in signature.items()
               if parameter.default is parameter.empty and name not in params]
    if unread or missing:
        raise HypothesisError(f"{form} does not read {', '.join(unread)}" if unread
                              else f"{form} needs {', '.join(missing)}")
    return builder(**params)


# ---------------------------------------------------------------------------
# Realizability predicates
# ---------------------------------------------------------------------------


def _check_rk(r: int, k: int) -> None:
    if r < 1 or k < 0:
        raise ValueError(f"predicates are defined for r >= 1, k >= 0, "
                         f"got ({r}, {k})")


def nut_realizable(r: int, k: int) -> bool:
    """Whether some nut graph has r vertex orbits and k edge orbits."""
    _check_rk(r, k)
    return k >= r + 1


def cayley_nut_edge_orbits(k: int) -> bool:
    """Whether some Cayley nut graph has k edge orbits (equivalently k arc
    orbits)."""
    if k < 0:
        raise ValueError(f"orbit counts are nonnegative, got {k}")
    return k >= 2


def buset_general(r: int, k: int) -> bool:
    """Whether some graph (nut or not) has r vertex orbits and k edge
    orbits."""
    _check_rk(r, k)
    return r <= 2 * k + 1


def buset_connected(r: int, k: int) -> bool:
    """Whether some connected graph has r vertex orbits and k edge orbits."""
    _check_rk(r, k)
    return r <= k + 1
