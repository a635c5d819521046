import ast
import copy
import pathlib
import pickle
import random
import subprocess
import sys
from itertools import combinations

import pytest
from oracles import cartesian_product, complete_graph, edge_masks, reference_read_graph6

import nutorbits
from nutorbits import (AbelianCayleySpec, CirculantSpec, Graph,
                       Graph6ParseError, ResourceCapError, SpecificationError,
                       cayley_abelian, circulant, graphs, read_graph6,
                       subdivide_edges, write_dot, write_graph6)
from nutorbits.graphs import MAX_ORDER


def test_graph_normalization_and_queries():
    g = Graph.from_edges(4, [(2, 0), (0, 1), (1, 0), (3, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.neighbors[2] == {0, 3} and g.neighbors[0] == {1, 2}
    assert 3 not in g.neighbors[0]
    assert g.degree_sequence() == [1, 1, 2, 2]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_circulant_examples(circ_10_12, c4):
    assert circ_10_12.n == 10 and circ_10_12.size == 20
    assert set(circ_10_12.degree_sequence()) == {4}
    assert c4.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    matching = circulant(CirculantSpec(12, {6}))
    assert matching.size == 6 and set(matching.degree_sequence()) == {1}


def test_circulant_rotation_is_automorphism():
    # v -> v + 1 preserves adjacency in every circulant
    for n, offs in [(10, {1, 2}), (9, {1, 3}), (14, {1, 2, 3, 4}), (12, {6})]:
        g = circulant(CirculantSpec(n, offs))
        adj = g.neighbors
        assert all((v + 1) % n in adj[(u + 1) % n] for u, v in g.edges)


def test_circulant_edges_match_the_modular_definition():
    # every offset set for n <= 12; for n <= 40, every set of at most two
    # offsets and the full set, both with s = n/2 at even n
    for n in range(2, 41):
        half = range(1, n // 2 + 1)
        sets = [set(c) for k in range(1, n // 2 + 1 if n <= 12 else 3)
                for c in combinations(half, k)]
        for offsets in sets + [set(half)]:
            expected = Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in offsets])
            assert circulant(CirculantSpec(n, offsets)) == expected


def _edge_built_circulant(n, offsets):
    """Circ(n, S) from its edge list, sorted and validated by ``Graph``."""
    return Graph(n, tuple(sorted({tuple(sorted((i, (i + s) % n)))
                                  for i in range(n) for s in offsets})))


def _same_graph(g, h):
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert g.edges == h.edges and g.neighbors == h.neighbors
    assert Graph(g.n, g.edges) == g
    assert g.masks is None or g.masks == edge_masks(h)


# each builds every circulant in one form: masks, or edges
BOTH_FORMS = pytest.mark.parametrize("fill_divisor, form", [
    (MAX_ORDER, "masks"), (0, "edges")], ids=["masks", "edges"])


@BOTH_FORMS
def test_circulant_forms_equal_the_edge_built_graph(monkeypatch, fill_divisor, form):
    # every spec of order at most 18, in the form the divisor forces
    monkeypatch.setattr(graphs, "DENSE_ROW_DIVISOR", fill_divisor)
    for n in range(2, 19):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offsets in combinations(pool, size):
                g = circulant(CirculantSpec(n, offsets))
                assert (g.masks is not None) == (form == "masks")
                _same_graph(g, _edge_built_circulant(n, offsets))


@BOTH_FORMS
@pytest.mark.parametrize("n, offsets", [
    (4078, {1, 2}), (4077, {1, 5, 2038}), (4078, {3, 2039}), (9, {4}), (8, {4})])
def test_large_circulant_forms_equal_the_edge_built_graph(monkeypatch, fill_divisor,
                                                          form, n, offsets):
    # an odd order, and the involution s = n/2, whose edges are not doubled
    monkeypatch.setattr(graphs, "DENSE_ROW_DIVISOR", fill_divisor)
    _same_graph(circulant(CirculantSpec(n, offsets)), _edge_built_circulant(n, offsets))


def test_no_module_builds_a_graph_through_the_checked_constructors():
    # Graph(n, edges) and Graph.from_edges check outside input; the
    # package's builders make valid graphs and go through Graph._unchecked
    package = pathlib.Path(nutorbits.__file__).parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("Graph", "Graph.from_edges")]
    assert calls == []


def test_bit_positions_match_a_scan_bit_by_bit():
    rng = random.Random(64)
    for length in [0, 1, 2, 17, 63, 64, 65, 66, 130, 422]:
        for fill in (1, 2, 3, 4, 8, 64):
            mask = sum(1 << i for i in range(length) if rng.randrange(fill) == 0)
            assert graphs.bit_positions(mask) == [i for i in range(length) if mask >> i & 1]


def test_circulant_holds_masks_exactly_on_dense_specs():
    # degree at least n / 5: Circ(10, {1}) (degree 2) and Circ(20, {1, 2})
    # (degree 4) hold masks, Circ(11, {1}) and Circ(21, {1, 2}) edges
    for n, offsets, dense in [(10, {1}, True), (11, {1}, False), (20, {1, 2}, True),
                              (21, {1, 2}, False), (10, {5}, False), (4078, {1, 2}, False),
                              (422, range(1, 201), True)]:
        g = circulant(CirculantSpec(n, offsets))
        assert (g.masks is not None) == dense, (n, offsets)
        assert ("edges" in vars(g)) != dense


def test_specs_and_graphs_compare_hash_and_print_by_their_fields():
    spec = CirculantSpec(10, [1, 2, 2])
    assert spec == CirculantSpec(10, {2, 1}) and hash(spec) == hash((10, frozenset({1, 2})))
    assert spec != CirculantSpec(10, {1}) and spec != (10, frozenset({1, 2}))
    assert repr(spec) == "CirculantSpec(n=10, offsets=frozenset({1, 2}))"
    cayley = AbelianCayleySpec([4], [[1], [3]])
    assert cayley == AbelianCayleySpec((4,), {(3,), (1,)})
    assert hash(cayley) == hash(((4,), frozenset({(1,), (3,)})))
    assert repr(cayley) == f"AbelianCayleySpec(orders=(4,), connection={cayley.connection!r})"
    g = Graph(3, ((0, 1),))
    assert repr(g) == "Graph(n=3, edges=((0, 1),))" and hash(g) == hash((3, ((0, 1),)))
    assert g != Graph(4, ((0, 1),)) and g != (3, ((0, 1),))
    masked = circulant(CirculantSpec(10, {1, 2}))
    for value in (spec, cayley, g, masked):
        assert pickle.loads(pickle.dumps(value)) == copy.deepcopy(value) == value
    for value, name in [(spec, "n"), (cayley, "orders"), (g, "edges")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no site packages, whose .pth files may import either
    probe = ("import sys, nutorbits.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = pathlib.Path(nutorbits.__file__).parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("bad_offset", [0, 6, -1])
def test_circulant_offset_validation(bad_offset):
    with pytest.raises(SpecificationError):
        CirculantSpec(10, {1, bad_offset})


@pytest.mark.parametrize("order", [0, -4, 10.0])
def test_circulant_order_validation(order):
    with pytest.raises(SpecificationError) as err:
        CirculantSpec(order, {1})
    assert str(err.value) == f"circulant order must be a positive integer, got {order!r}"


def test_circulant_requires_nonempty_connection():
    with pytest.raises(SpecificationError):
        CirculantSpec(10, set())


def test_complete_graphs():
    assert complete_graph(1).size == 0
    assert complete_graph(2).edges == ((0, 1),)
    k4 = complete_graph(4)
    assert k4.size == 6 and set(k4.degree_sequence()) == {3}
    with pytest.raises(ValueError):
        complete_graph(0)


def test_cartesian_product_basics(k4):
    k2 = complete_graph(2)
    q2 = cartesian_product(k2, k2)
    # the 4-cycle 0-1-3-2-0 under row-major labels
    assert q2.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert set(q2.degree_sequence()) == {2}

    # (a, b) has label 2a + b: it is adjacent to (a, b') for b ~ b' in K2
    # and to (a', b) for a ~ a' in P3
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    expected = {(2 * a + b, 2 * a + b2) for a in range(3) for b, b2 in k2.edges}
    expected |= {(2 * a + b, 2 * a2 + b) for a, a2 in p3.edges for b in range(2)}
    assert set(cartesian_product(p3, k2).edges) == expected

    prod = cartesian_product(circulant(CirculantSpec(10, {1, 5})), k4)
    assert prod.n == 40 and set(prod.degree_sequence()) == {6}

    g = circulant(CirculantSpec(10, {1, 2}))
    same = cartesian_product(g, complete_graph(1))
    assert Graph(same.n, same.edges) == g


def test_cartesian_product_degree_additivity():
    g = Graph.from_edges(3, [(0, 1)])  # degrees 1, 1, 0
    h = complete_graph(3)
    prod = cartesian_product(g, h)
    for a in range(g.n):
        for b in range(h.n):
            assert len(prod.neighbors[a * h.n + b]) == len(g.neighbors[a]) + len(h.neighbors[b])


def test_cayley_abelian_fig3_and_cycles():
    connection = {(i, 0) for i in (1, 2, 4, 5)} | {(i, 1) for i in (0, 1, 3, 5)}
    fig3 = cayley_abelian(AbelianCayleySpec((6, 2), connection))
    assert fig3.n == 12 and set(fig3.degree_sequence()) == {8}
    # (x, y) has label 2x + y, and u ~ v iff u - v is in the connection set
    elements = [(x, y) for x in range(6) for y in range(2)]
    assert set(fig3.edges) == {
        (2 * u[0] + u[1], 2 * v[0] + v[1]) for u, v in combinations(elements, 2)
        if ((u[0] - v[0]) % 6, (u[1] - v[1]) % 2) in connection}

    cycle = cayley_abelian(AbelianCayleySpec((7,), {(1,), (6,)}))
    assert Graph(cycle.n, cycle.edges) == circulant(CirculantSpec(7, {1}))

    z10 = cayley_abelian(AbelianCayleySpec((10,), {(1,), (2,), (8,), (9,)}))
    assert Graph(z10.n, z10.edges) == circulant(CirculantSpec(10, {1, 2}))


def test_cayley_abelian_validation():
    with pytest.raises(SpecificationError):
        AbelianCayleySpec((6,), {(1,)})  # -1 = 5 missing
    with pytest.raises(SpecificationError):
        AbelianCayleySpec((6,), {(0,)})  # identity
    with pytest.raises(SpecificationError):
        AbelianCayleySpec((6,), {(7,)})  # out of range


@pytest.mark.parametrize("orders,connection,message", [
    ((6, 0), {(1, 0)}, "factor orders must be positive, got (6, 0)"),
    ((6, 2), {(1,)}, "connection element (1,) is not a group element"),
    ((6, 2), {(1, 0, 0)}, "connection element (1, 0, 0) is not a group element"),
    ((6, 2), {(-1, 0)}, "connection element (-1, 0) is not a group element"),
    ((6, 2), {(6, 0)}, "connection element (6, 0) is not a group element"),
    ((6, 2), {(0, 2)}, "connection element (0, 2) is not a group element"),
    ((6, 2), {(0, 0)}, "connection set must exclude the identity"),
    ((6, 2), {(1, 1)}, "connection set not closed under negation: (1, 1) present, "
                       "(5, 1) missing"),
    # non-integer data is refused here, not by a TypeError in a later layer
    ((5,), {(1.5,), (3.5,)}, "connection element (1.5,) is not a group element"),
    ((5,), {(1.0,), (4.0,)}, "connection element (1.0,) is not a group element"),
    ((5.0,), {(1,), (4,)}, "factor orders must be integers, got (5.0,)"),
])
def test_cayley_abelian_validation_messages(orders, connection, message):
    with pytest.raises(SpecificationError) as err:
        AbelianCayleySpec(orders, connection)
    assert str(err.value) == message


def test_cayley_abelian_validation_agrees_with_the_definition():
    # Random symmetric sets, half of them then spoiled by dropping an element
    # or adding one that may lie outside the group, have the wrong length or
    # be zero: a spec is accepted exactly when every element is a nonzero
    # group element whose negation is also in the set.
    rng = random.Random(0xCA7)
    accepted = 0
    for _ in range(400):
        orders = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        picks = [tuple(rng.randrange(m) for m in orders) for _ in range(rng.randint(1, 4))]
        connection = {t for c in picks for t in (c, tuple(-x % m for x, m in zip(c, orders)))
                      if any(t)}
        if rng.random() < 0.5 and connection:
            connection.discard(rng.choice(sorted(connection)))
        elif rng.random() < 0.8:
            connection.add(tuple(rng.randint(-1, m) for m in orders[:rng.randint(1, 3)]))
        valid = all(len(t) == len(orders) and all(0 <= x < m for x, m in zip(t, orders))
                    and any(t) and tuple(-x % m for x, m in zip(t, orders)) in connection
                    for t in connection)
        try:
            spec = AbelianCayleySpec(orders, connection)
        except SpecificationError:
            assert not valid, (orders, connection)
        else:
            assert valid and spec.connection == connection, (orders, connection)
            g = cayley_abelian(spec)
            assert Graph(g.n, g.edges) == g
            accepted += 1
    assert 40 <= accepted <= 360


def test_subdivide_edges(circ_10_12):
    assert subdivide_edges(circ_10_12, [(0, 1)], 0) == circ_10_12

    one = subdivide_edges(circ_10_12, [(0, 1)], 4)
    assert one.n == 14 and one.size == 24

    orbit = [(v, (v + 1) % 10) for v in range(10)]
    g = subdivide_edges(circ_10_12, orbit, 4)
    assert g.n == 50 and g.size == 60
    assert Graph(one.n, one.edges) == one and Graph(g.n, g.edges) == g
    # original degrees unchanged, all new vertices have degree 2
    assert [len(g.neighbors[v]) for v in range(10)] == [4] * 10
    assert all(len(g.neighbors[v]) == 2 for v in range(10, 50))

    with pytest.raises(ValueError):
        subdivide_edges(circ_10_12, [(0, 5)], 1)


def test_subdivision_labels_are_deterministic():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    s = subdivide_edges(g, [(1, 2), (0, 1)], 2)
    # sorted target order: (0,1) gets 3,4 and (1,2) gets 5,6, paths oriented
    # from the smaller endpoint: 0-3-4-1 and 1-5-6-2
    assert s.edges == ((0, 3), (1, 4), (1, 5), (2, 6), (3, 4), (5, 6))


@pytest.mark.parametrize("g6,n,m", [("@", 1, 0), ("A_", 2, 1), ("A?", 2, 0)])
def test_graph6_known_strings(g6, n, m):
    g = read_graph6(g6)
    assert g.n == n and g.size == m
    assert write_graph6(g) == g6


def test_graph6_round_trip(circ_10_12, k4):
    fig3 = cayley_abelian(AbelianCayleySpec(
        (6, 2), {(i, 0) for i in (1, 2, 4, 5)} | {(i, 1) for i in (0, 1, 3, 5)}))
    big = circulant(CirculantSpec(70, {1, 2, 3}))
    for g in (circ_10_12, k4, fig3, big, Graph(5, ())):
        assert read_graph6(write_graph6(g)) == Graph(g.n, g.edges)


def test_graph6_header_and_whitespace(circ_10_12):
    s = write_graph6(circ_10_12)
    assert read_graph6(f">>graph6<<{s}") == circ_10_12
    assert read_graph6(f"  {s}\n") == circ_10_12


def test_graph6_long_form_orders():
    g = Graph(63, ((0, 62),))
    s = write_graph6(g)
    assert s.startswith("~")
    assert read_graph6(s) == g


G6_ERRORS = [
    ("A", 1, "expected 1 edge bytes for order 2, found 0"),
    ("A_?", 2, "expected 1 edge bytes for order 2, found 2"),
    ("A!", 1, "character '!' outside graph6 range"),
    ("", 0, "empty graph6 payload"),
    ("A_ A_", 3, "trailing data after graph6 payload"),
    ("~~", 0, "orders above 258047 are not supported"),
    ("~?", 2, "truncated graph6 payload"),
    ("~?!", 2, "character '!' outside graph6 range"),
    ("A_?!", 2, "expected 1 edge bytes for order 2, found 3"),
]


@pytest.mark.parametrize("bad,offset,message", G6_ERRORS,
                         ids=[f"{bad}-{offset}" for bad, offset, _ in G6_ERRORS])
def test_graph6_errors_carry_byte_offset(bad, offset, message):
    with pytest.raises(Graph6ParseError) as err:
        read_graph6(bad)
    assert err.value.offset == offset
    assert str(err.value) == f"{message} (byte offset {offset})"


def test_graph6_rejects_nonzero_padding():
    # K2 with a nonzero padding bit: '_' is 100000; '`'+1 -> 100001; 'o' is
    # 110000, the first padding bit
    for bad in ("A" + chr(ord("_") + 1), "Ao"):
        with pytest.raises(Graph6ParseError):
            read_graph6(bad)


def test_graph6_agrees_with_networkx_both_ways():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x96)
    for n in range(1, 81):
        p = rng.choice([0.05, 0.3, 0.7])
        g = Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p))
        h = nx.Graph()
        h.add_nodes_from(range(n))      # node order sets the graph6 labels
        h.add_edges_from(g.edges)
        expected = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
        assert write_graph6(g) == expected
        back = nx.from_graph6_bytes(expected.encode("ascii"))
        assert read_graph6(expected) == Graph.from_edges(back.number_of_nodes(), back.edges)


def test_graph6_fuzzed_round_trips_and_error_offsets():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def cases(draw):
        n = draw(st.integers(0, 70))
        pairs = list(combinations(range(n), 2))
        edges = draw(st.sets(st.sampled_from(pairs), max_size=80)) if pairs else set()
        text = write_graph6(Graph.from_edges(n, edges))
        at = draw(st.integers(0, len(text) - 1))
        bad = draw(st.sampled_from('!"#$%&*+,-./0123456789:;<=>\x7f\xe9'))
        return Graph.from_edges(n, edges), text, at, bad

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(cases())
    def check(case):
        g, text, at, bad = case
        h = read_graph6(text)
        assert Graph(h.n, h.edges) == h == g
        with pytest.raises(Graph6ParseError) as err:
            read_graph6(text[:at] + bad + text[at + 1:])
        assert err.value.offset == at

    check()


def test_graph6_reader_agrees_with_reference_on_mutated_strings():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    chars = "?@A_`o}~" * 2 + " \t" + "!>\x00\x7f\xe9"
    errors = {"Graph6ParseError": Graph6ParseError, "ResourceCapError": ResourceCapError}

    @st.composite
    def texts(draw):
        n = draw(st.one_of(st.integers(0, 70), st.integers(63, 300)))
        vertex = st.integers(0, max(n - 1, 0))
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=60))
        payload = write_graph6(Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
        if n > 1 and draw(st.booleans()):
            # more bits in the last byte, which may hold padding
            bits = draw(st.integers(1, 63))
            payload = payload[:-1] + chr(63 + ((ord(payload[-1]) - 63) | bits))
        if draw(st.booleans()):
            # another order, in the long form or cut inside it
            head = 1 if n < 63 else 4
            payload = "~" + draw(st.text("?@A_}~~~", max_size=3)) + payload[head:]
        if draw(st.booleans()):
            cut = draw(st.one_of(st.integers(0, 5), st.integers(0, len(payload))))
            payload = payload[:cut]
        prefix = draw(st.sampled_from(["", " ", "\n\t", ">>graph6<<", " >>graph6<<",
                                       ">>graph6<< ", ">>graph6", ">>graph6<<>>graph6<<"]))
        suffix = draw(st.sampled_from(["", "", "", "\n", " \r\n", " A", "\t>>graph6<<"]))
        text = prefix + payload + suffix
        for _ in range(draw(st.integers(0, 2))):
            # half the edits fall in or next to the order bytes
            at = draw(st.one_of(st.integers(0, len(text)),
                                st.integers(len(prefix), len(prefix) + 5)))
            at = max(0, min(at, len(text)))
            edit = draw(st.sampled_from(["substitute", "delete", "insert"]))
            ch = draw(st.sampled_from(chars))
            if edit == "insert":
                text = text[:at] + ch + text[at:]
            elif at < len(text):
                text = text[:at] + ("" if edit == "delete" else ch) + text[at + 1:]
        return text

    def agree(text):
        expected = reference_read_graph6(text, MAX_ORDER)
        if isinstance(expected, Graph):
            g = read_graph6(text)
            assert Graph(g.n, g.edges) == g == expected
            return
        kind, message, offset = expected
        with pytest.raises(errors[kind]) as err:
            read_graph6(text)
        assert type(err.value) is errors[kind]
        assert getattr(err.value, "offset", None) == offset
        assert str(err.value) == (message if offset is None
                                  else f"{message} (byte offset {offset})")

    # the order cap comes before the count and the range of the edge bytes
    n = MAX_ORDER + 1
    over_cap = "~" + chr(63 + (n >> 12)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    for text in ("~~?", ">>graph6<<~~ ", "~@?", "~?~~", over_cap, over_cap + "!"):
        agree(text)
    settings(max_examples=600, deadline=None, derandomize=True,
             database=None)(given(texts())(agree))()


def test_write_dot_with_and_without_orbits(c4):
    plain = write_dot(c4)
    assert "0 -- 1;" in plain and plain.startswith("graph G {")
    colored = write_dot(c4, edge_orbits=[c4.edges])
    assert colored.count('color="#e41a1c"') == 4


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(-1, ()), "vertex count must be nonnegative"),
    (lambda: Graph(3, ((1, 2), (0, 1))), "edges must be strictly sorted"),
    (lambda: Graph(2.5, ()), "vertex count must be an int, got 2.5"),
    (lambda: Graph(3, ((0.0, 1.0),)), "edge (0.0, 1.0) has an endpoint that is not an int"),
    (lambda: Graph(3, ((0, 1), (1, 2.0))), "edge (1, 2.0) has an endpoint that is not an int"),
    (lambda: subdivide_edges(Graph(2, ((0, 1),)), [], -1),
     "subdivision count must be nonnegative, got -1"),
    (lambda: write_graph6(Graph(258048, ())),
     "graph6 writer supports orders up to 258047, got 258048"),
])
def test_graph_layer_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
