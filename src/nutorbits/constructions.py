"""Verified builders: the three Cayley nut-graph families, the order-12
exceptional Cayley nut graph, the orbit-raising subdivision, the (r, k)
dispatch, and the realizability predicates.

Every builder verifies its own output from scratch: the nut certificate is
recomputed by exact nullspace, the orbit census by the automorphism search,
and the group order is compared against the formula claimed for the family.
The search is seeded with the automorphisms the construction guarantees, each
one verified before use: a Cayley graph's translations and inversion, and a
subdivision's base generators lifted to its chains.
A Cayley builder's nullity and verdict must also match its character test.
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
from itertools import combinations, count, islice
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .automorphisms import OrbitCensus, orbit_census
from .errors import (HypothesisError, NotCoveredByThisPaper, NotRealizable,
                     ResourceCapError, VerificationError)
from .graphs import (MAX_ORDER, AbelianCayleySpec, CirculantSpec, Graph,
                     cayley_abelian, cayley_automorphisms, circulant,
                     subdivide_edges, subdivision_lifts)
from .linalg import NutVerdict, is_nut
from .polynomials import cyclotomic, vanishing_subgroups

FIG3_CONNECTION = frozenset(
    {(i, 0) for i in (1, 2, 4, 5)} | {(i, 1) for i in (0, 1, 3, 5)})


class VerifiedNut(NamedTuple):
    """A graph together with its recomputed nut certificate and census, and
    the builder's parameters as the report prints them: ``variant`` (prop1,
    prop2, prop3, fig3 or subdivided) first, then the family's parameters."""

    graph: Graph
    verdict: NutVerdict
    census: OrbitCensus
    provenance: dict


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


def _certify(graph: Graph, provenance: dict,
             expected_counts: tuple[int, int, int], expected_aut_order: int,
             spec: Optional[AbelianCayleySpec] = None,
             seeds: Sequence[Sequence[int]] = ()) -> VerifiedNut:
    """Verify ``graph`` as a nut graph with the expected census; a Cayley
    ``spec`` supplies the census's seeds and a character test to match."""
    verdict = is_nut(graph)
    if spec is not None:
        seeds = cayley_automorphisms(spec.orders)
        orders = vanishing_subgroups(spec)
        nullity = sum(len(cyclotomic(d)) - 1 for d in orders)  # phi(d) = deg Phi_d
        if nullity != verdict.nullity or (orders == (2,)) != verdict.is_nut:
            raise VerificationError(
                f"construction {provenance}: the character test gives nullity {nullity} "
                f"(subgroup orders {list(orders)}), the certificate {verdict.nullity}")
    if not verdict.is_nut:
        raise VerificationError(
            f"construction {provenance} failed the nut check: "
            f"nullity={verdict.nullity}, is_full={verdict.is_full} "
            f"(order {graph.n}, size {graph.size})")
    census = orbit_census(graph, seeds)
    if census.counts != expected_counts:
        raise VerificationError(
            f"construction {provenance} produced orbit counts "
            f"{census.counts}, expected {expected_counts}")
    if census.aut_order != expected_aut_order:
        raise VerificationError(
            f"construction {provenance} has |Aut| = {census.aut_order}, "
            f"expected {expected_aut_order}")
    if census.o_e < census.o_v + 1:
        raise VerificationError(
            f"construction {provenance} violates o_e >= o_v + 1: {census.counts}")
    return VerifiedNut(graph, verdict, census, provenance)


def _check_order(n: int, at_least: bool = False) -> None:
    if n > MAX_ORDER:
        order = f"at least {n}" if at_least else n
        raise ResourceCapError(f"a construction of order {order} exceeds the order "
                               f"cap of {MAX_ORDER} vertices")


def _primes(family: str, k: int, p: Optional[int] = None,
            number: int = 1) -> list[int]:
    """[p], or else the ``number`` smallest admissible primes of ``family``
    at k, each checked against the order cap first, then the hypotheses."""
    row = FAMILIES[family]
    floor = row.prime_floor(k)
    if p is None:
        _check_order(row.order_scale * floor, at_least=True)  # no prime search past the cap
    primes = []
    for q in [p] if p is not None else islice(primes_from(floor), number):
        _check_order(row.order_scale * q)  # before trial division on a large q
        if not is_prime(q):
            raise HypothesisError(f"p must be prime, got {q}")
        if q < floor:
            raise HypothesisError(f"p must be at least {floor}, got {q}")
        primes.append(q)
    return primes


def prop1_graph(k: int, p: Optional[int] = None) -> VerifiedNut:
    """Circ(2p, {1..k}) for even k >= 2 and prime p >= k + 2: a Cayley nut
    graph with k edge orbits, k arc orbits, and dihedral symmetry of order
    4p.  The default p is the smallest admissible prime."""
    if k < 2 or k % 2:
        raise HypothesisError(f"k must be even and >= 2, got {k}")
    [p] = _primes("prop1", k, p)
    # on one Xeon core circulant() builds Circ(34, {1..12}) in 0.12 ms, cayley_abelian 0.27
    graph = circulant(CirculantSpec(2 * p, frozenset(range(1, k + 1))))
    spec = AbelianCayleySpec((2 * p,), {(x,) for s in range(1, k + 1)
                                        for x in (s, 2 * p - s)})
    return _certify(graph, {"variant": "prop1", "k": k, "p": p},
                    (1, k, k), expected_aut_order=4 * p, spec=spec)


def prop2_graph(k: int, p: Optional[int] = None) -> VerifiedNut:
    """Circ(2p, {2..k-1, p}) box K2 for odd k >= 5 and prime p >= 2k + 1: a
    Cayley nut graph with k edge orbits, k arc orbits, |Aut| = 8p.  The
    default p is the smallest admissible prime."""
    if k < 5 or k % 2 == 0:
        raise HypothesisError(f"k must be odd and >= 5, got {k}")
    [p] = _primes("prop2", k, p)
    spec = AbelianCayleySpec((2 * p, 2), {(x, 0) for s in [*range(2, k), p]
                                          for x in (s, 2 * p - s)} | {(0, 1)})
    return _certify(cayley_abelian(spec), {"variant": "prop2", "k": k, "p": p},
                    (1, k, k), expected_aut_order=8 * p, spec=spec)


def prop3_graph(n: int) -> VerifiedNut:
    """Circ(2n, {1, n}) box K4 for odd n >= 5: a Cayley nut graph with three
    edge orbits, three arc orbits, |Aut| = 96n."""
    if n < 5 or n % 2 == 0:
        raise HypothesisError(f"n must be odd and >= 5, got {n}")
    _check_order(8 * n)
    spec = AbelianCayleySpec((2 * n, 2, 2), {(1, 0, 0), (2 * n - 1, 0, 0), (n, 0, 0),
                                             (0, 1, 0), (0, 0, 1), (0, 1, 1)})
    return _certify(cayley_abelian(spec), {"variant": "prop3", "n": n},
                    (1, 3, 3), expected_aut_order=96 * n, spec=spec)


def fig3_graph() -> VerifiedNut:
    """The Cayley graph for Z6 x Z2 with connection set
    {(1,0),(2,0),(4,0),(5,0),(0,1),(1,1),(3,1),(5,1)}: order 12, 8-regular,
    a nut graph with five edge orbits and five arc orbits, whose 24
    automorphisms are its 12 translations, each with and without the
    inversion."""
    spec = AbelianCayleySpec((6, 2), FIG3_CONNECTION)
    return _certify(cayley_abelian(spec), {"variant": "fig3"}, (1, 5, 5),
                    expected_aut_order=24, spec=spec)


def _cayley_base(k: int, p: Optional[int]) -> tuple[str, dict, int, list[int]]:
    """The construct form and parameters ``cayley_nut(k, p)`` builds, with
    k and p checked and the default prime chosen, the order n it builds and
    the sizes of its k edge orbits, in census order.  Each offset s of a
    circulant factor gives n edges, or n / 2 for the involution s = p: for
    even k, n edges in every orbit; for odd k >= 5, n / 2 for the K2 edges
    (index 0) and for s = p (index k - 1).  The k = 3 base, Circ(10, {1, 5})
    box K4, has 60 K4 edges, 40 at offset 1 and 20 at offset 5."""
    if k < 2:
        raise NotRealizable(
            f"no Cayley nut graph has {k} edge orbits: nut graphs satisfy "
            "o_e >= o_v + 1 >= 2, and k >= 2 is achievable")
    if k == 3:
        if p is not None:
            raise HypothesisError("k = 3 uses the box-K4 family; its size "
                                  "parameter is n, not a prime p")
        return "prop3", {"n": 5}, 40, [60, 40, 20]
    form = "prop2" if k % 2 else "prop1"
    [p] = _primes(form, k, p)
    n = FAMILIES[form].order_scale * p
    sizes = [n // 2] + [n] * (k - 2) + [n // 2] if k % 2 else [n] * k
    return form, {"k": k, "p": p}, n, sizes


def cayley_nut(k: int, p: Optional[int] = None) -> VerifiedNut:
    """A Cayley nut graph with k edge orbits and k arc orbits, for any
    k >= 2.

    Even k dispatches to the consecutive-offset circulant family, k = 3 to
    the box-K4 family, and odd k >= 5 to the box-K2 family.  The default
    prime parameter is the smallest admissible one; pass ``p`` to sample
    other members of the (infinite) family.
    """
    form, params, _, _ = _cayley_base(k, p)
    return FAMILIES[form].build(**params)


def _check_subdivision(t: int, orbit_index: Optional[int], k: int) -> None:
    """Refuse t < 1, or an orbit index outside a base's k edge orbits."""
    if t < 1:
        raise HypothesisError(f"t must be a positive integer, got {t}")
    if orbit_index is not None and not (0 <= orbit_index < k):
        raise HypothesisError(
            f"orbit index {orbit_index} out of range for {k} edge orbits")


def subdivided_nut(base: VerifiedNut, orbit_index: int, t: int) -> VerifiedNut:
    """Subdivide every edge of one edge orbit of a vertex-transitive nut
    graph with o_e = o_a exactly 4t times.

    The result is verified from scratch to be a nut graph with orbit counts
    (2t + 1, 2t + k, 4t + k) and an unchanged automorphism group order.
    ``orbit_index`` selects among edge orbits ordered by lexicographically
    smallest edge.
    """
    census = base.census
    _check_subdivision(t, orbit_index, census.o_e)
    if census.o_v != 1:
        raise HypothesisError(
            f"base must be vertex-transitive, got o_v = {census.o_v}")
    if census.o_e != census.o_a:
        raise HypothesisError(
            f"base must have o_e = o_a, got ({census.o_e}, {census.o_a})")
    orbit = census.edge_orbits[orbit_index]
    _check_order(base.graph.n + 4 * t * len(orbit))
    k = census.o_e
    graph = subdivide_edges(base.graph, orbit, 4 * t)
    provenance = {"variant": "subdivided", "k": k, "t": t,
                  "orbit_index": orbit_index, "base": base.provenance}
    seeds = subdivision_lifts(base.graph, orbit, 4 * t, census.generators)
    return _certify(graph, provenance, (2 * t + 1, 2 * t + k, 4 * t + k),
                    expected_aut_order=census.aut_order, seeds=seeds)


def subdivided_cayley(k: int, t: int, p: Optional[int] = None,
                      orbit: Optional[int] = None) -> VerifiedNut:
    """``cayley_nut(k, p)`` with one edge orbit subdivided 4t times.

    By default the smallest edge orbit is subdivided (ties broken by
    lexicographically smallest edge), which keeps the output small; any
    orbit would do.  The order cap, t and the orbit index are checked
    before the base is built, from the base's order n and edge orbit sizes
    (see ``_cayley_base``): first the smallest orbit's output order, at
    least n(1 + 4t) for even k and n(1 + 2t) for odd k, then t and the
    index, then an explicit orbit's exact output order.
    """
    _, _, n, sizes = _cayley_base(k, p)
    _check_order(n + 4 * t * min(sizes), at_least=True)
    _check_subdivision(t, orbit, k)  # a cayley_nut(k) base has k edge orbits
    if orbit is None:
        orbit = sizes.index(min(sizes))
    else:
        _check_order(n + 4 * t * sizes[orbit])
    return subdivided_nut(cayley_nut(k, p), orbit, t)


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
    """A ``nutorbits sweep`` suite: ``var`` runs over first, first + step,
    ... up to ``--<var>max`` (default ``default_max``, refused above
    ``cap``).  ``cases(value, primes)`` lists the build parameters its rows
    report; ``fixed`` adds ones they omit.  The suite reads ``--<var>max``,
    and in a prime family (one with a ``prime_floor``) ``--k`` and
    ``--primes`` too."""

    var: str
    first: int
    step: int
    default_max: int
    cap: int
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
    return lambda k, primes: [{"k": k, "p": p} for p in _primes(family, k, number=primes)]


def _offset_sets(n: int, primes: int) -> list[dict]:
    pool = range(1, n // 2 + 1)
    return [{"n": n, "S": list(subset)} for size in range(1, len(pool) + 1)
            for subset in combinations(pool, size)]


FAMILIES = {
    "dispatch": Family(construct_with_orbits),
    "prop1": Family(prop1_graph, lambda k: k + 2, 2, Sweep(
        "k", 2, 2, 6, 10, _with_primes("prop1"))),
    "prop2": Family(prop2_graph, lambda k: 2 * k + 1, 4, Sweep(
        "k", 5, 2, 7, 9, _with_primes("prop2"))),
    "prop3": Family(prop3_graph, sweep=Sweep(
        "n", 5, 2, 9, 13, lambda n, primes: [{"n": n}])),
    "fig3": Family(fig3_graph),
    # the sweep subdivides Circ(10, {1, 2}), the smallest Cayley nut graph
    "subdiv": Family(subdivided_cayley, sweep=Sweep(
        "t", 1, 1, 2, 4, lambda t, primes: [{"t": t}], {"k": 2})),
    "circulant-cross": Family(None, sweep=Sweep("n", 2, 2, 12, 24, _offset_sets)),
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


def nut_realizable(r: int, k: int) -> bool:
    """Whether some nut graph has r vertex orbits and k edge orbits."""
    if r < 1 or k < 0:
        raise ValueError(f"predicates are defined for r >= 1, k >= 0, "
                         f"got ({r}, {k})")
    return k >= r + 1


def cayley_nut_edge_orbits(k: int) -> bool:
    """Whether some Cayley nut graph has k edge orbits (equivalently k arc
    orbits)."""
    if k < 0:
        raise ValueError(f"orbit counts are nonnegative, got {k}")
    return k >= 2
