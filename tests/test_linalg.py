import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from oracles import (adjacency_matrix, bareiss_echelon, complete_graph,
                     edge_masks, exact_kernel, primitive, residual)

from nutorbits import linalg
from nutorbits import (CirculantSpec, Graph, ResourceCapError, circulant,
                       cayley_nut, construct_with_orbits, is_nut)
from nutorbits.graphs import (MAX_ORDER, AbelianCayleySpec, cayley_abelian,
                              read_graph6, subdivide_edges, write_graph6)
from nutorbits.linalg import MERSENNE_EXPONENTS

EXACT_KERNEL = exact_kernel


def _rows(a):
    """The sparse rows (column -> entry) of the symmetric integer matrix a,
    which are also its columns."""
    assert all(a[i][j] == a[j][i] for i in range(len(a)) for j in range(i)), a
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _kernel(a):
    """The certified kernel basis of the symmetric integer matrix a."""
    return linalg._kernel(_rows(a), len(a))


def _graph_rows(g):
    """The dict rows of g's whole adjacency matrix, as ``is_nut`` builds
    them from the edges of a graph that holds no chains."""
    rows = [{} for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    return rows


def _unreduced(g):
    """The kernel basis of g's whole adjacency matrix, no chain contracted."""
    return linalg._kernel(_graph_rows(g), g.n)


def _symmetric_product(b, d):
    """B D B^T for the n x r matrix b and the r x r diagonal matrix of d."""
    return [[sum(x * e * y for x, e, y in zip(bi, d, bj)) for bj in b] for bi in b]


def test_kernel_of_k2_is_trivial():
    assert list(is_nut(complete_graph(2)).kernel_basis) == []


def test_kernel_of_c4_frozen(c4):
    # char poly x^4 - 4x^2 has a double root at 0; the canonical reduced
    # basis pairs opposite vertices
    basis = list(is_nut(c4).kernel_basis)
    assert basis == [(1, 0, -1, 0), (0, 1, 0, -1)]


def test_kernel_of_circ_10_12_is_alternating(circ_10_12):
    basis = list(is_nut(circ_10_12).kernel_basis)
    assert len(basis) == 1
    assert basis[0] == tuple((-1) ** i for i in range(10))


def test_kernel_vectors_are_exact_on_random_matrices():
    # deterministic pseudorandom symmetric integer matrices; A v must be
    # exactly zero
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 8)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        for v in _kernel(a):
            assert all(x == 0 for x in residual(a, v))


def test_kernel_rank_nullity_on_rectifiable_cases():
    zero3 = [[0] * 3 for _ in range(3)]
    basis = _kernel(zero3)
    assert len(basis) == 3
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert _kernel(ident) == []


def test_is_nut_verdicts(circ_10_12, c4):
    v = is_nut(circ_10_12)
    assert v.is_nut and v.nullity == 1 and v.is_full

    v = is_nut(c4)
    assert not v.is_nut and v.nullity == 2 and not v.is_full

    v = is_nut(circulant(CirculantSpec(12, {1, 2, 3, 4})))
    assert not v.is_nut

    # K1 has nullity 1 with a full vector but is never a nut graph
    v = is_nut(complete_graph(1))
    assert v.nullity == 1 and v.is_full and not v.is_nut


def test_nut_check_stays_fast_at_desk_scale():
    import time
    g = circulant(CirculantSpec(200, {1, 2, 3}))
    start = time.perf_counter()
    is_nut(g)
    assert time.perf_counter() - start < 10.0


_PAIRS = list(combinations(range(5), 2))


@pytest.mark.parametrize("name, g, nullity", [
    ("Petersen", Graph(10, [(i, j) for i, j in combinations(range(10), 2)
                            if not set(_PAIRS[i]) & set(_PAIRS[j])]), 0),
    ("C12", circulant(CirculantSpec(12, {1})), 2),
    ("K34", Graph(7, tuple((i, j) for i in range(3) for j in range(3, 7))), 5),
    ("construct(3,8)", construct_with_orbits(3, 8).graph, 1),
])
def test_nullity_and_kernel_follow_a_relabelling(name, g, nullity):
    verdict = is_nut(g)
    assert verdict.nullity == nullity
    rng = random.Random(name)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = is_nut(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        assert moved.nullity == nullity
        if nullity == 1:
            expected = [0] * g.n
            for v, x in enumerate(verdict.kernel_basis[0]):
                expected[perm[v]] = x
            got = list(moved.kernel_basis[0])
            assert got in (expected, [-x for x in expected])


# -- the modular certificate and its exact fallback ---------------------------

def _sympy_rref_kernel(a):
    sympy = pytest.importorskip("sympy")
    null = sympy.Matrix(a).nullspace()
    if not null:
        return []
    reduced = sympy.Matrix.hstack(*null).T.rref()[0]
    return [primitive(Fraction(int(e.p), int(e.q)) for e in reduced.row(i))
            for i in range(reduced.rows)]


def _all_circulants(nmax, step=1):
    for n in range(step, nmax + 1, step):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offs in combinations(pool, size):
                yield circulant(CirculantSpec(n, offs))


def test_kernel_basis_matches_sympy_on_random_matrices():
    rng = random.Random(2025)
    nullities = set()
    for trial in range(60):
        n = rng.randint(4, 8)
        r = n - trial % 5
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        a = _symmetric_product(b, [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r)])
        expected = _sympy_rref_kernel(a)
        assert _kernel(a) == expected, a
        nullities.add(len(expected))
    assert nullities == {0, 1, 2, 3, 4}


def test_kernel_basis_matches_sympy_on_every_small_circulant():
    for g in _all_circulants(12):
        a = adjacency_matrix(g)
        assert list(is_nut(g).kernel_basis) == _sympy_rref_kernel(a), a


# the moduli tried before the one past the Hadamard bound
FIRST_TRIES = MERSENNE_EXPONENTS[:2]


def _record_tries(monkeypatch, fail_first_tries):
    tried = []
    certify = linalg._modular_kernel

    def spy(rows, n, q, masks=None):
        tried.append(q)
        if fail_first_tries and q in FIRST_TRIES:
            return None
        return certify(rows, n, q, masks)

    monkeypatch.setattr(linalg, "_modular_kernel", spy)
    return tried


@pytest.fixture
def tried(monkeypatch):
    """Records the Mersenne exponent of every modulus the certificate
    tries, in order."""
    return _record_tries(monkeypatch, fail_first_tries=False)


@pytest.fixture
def fail_first_tries(monkeypatch):
    """As ``tried``, and makes the certificate fail at every modulus below
    the Hadamard rung, 2^13 - 1 and 2^61 - 1, on every matrix."""
    return _record_tries(monkeypatch, fail_first_tries=True)


def test_certificate_answers_every_cross_oracle_circulant(tried):
    # every even n <= 18: the certificate modulo 2^13 - 1 holds, agrees with
    # the Bareiss oracle and never reruns
    graphs = list(_all_circulants(18, step=2))
    for g in graphs:
        assert list(is_nut(g).kernel_basis) == [
            primitive(v) for v in EXACT_KERNEL(adjacency_matrix(g))]
    assert tried == [13] * len(graphs)


@pytest.mark.parametrize("a, expected", [
    # singular modulo 2^13 - 1 and 2^61 - 1 but not over Q; the squared
    # Hadamard bound (8191 (2^61 - 1))^2 needs 2^521 - 1
    ([[8191 * (2 ** 61 - 1)]], ([13, 61, 521], [])),
    ([[1, 0], [0, 8191 * (2 ** 61 - 1)]], ([13, 61, 521], [])),
    # u u^T for u = (1, -100): RREF entry 1/100, past the bound 2^6 of
    # 2^13 - 1 but within that of 2^61 - 1
    ([[1, -100], [-100, 100 ** 2]], ([13, 61], [(100, 1)])),
    # u u^T for u = (1, -2^40): RREF entry 2^-40, past both reconstruction
    # bounds: it is congruent to 1/2 modulo 2^13 - 1 and to 2^21 modulo
    # 2^61 - 1, which reconstruct but fail A v = 0 over Z
    ([[1, -2 ** 40], [-2 ** 40, 2 ** 80]], ([13, 61, 521], [(2 ** 40, 1)])),
    # u u^T for u = (3^25, -5^17): RREF entry 3^25 / 5^17, a residue with no
    # reconstruction in bounds
    ([[3 ** 50, -3 ** 25 * 5 ** 17], [-3 ** 25 * 5 ** 17, 5 ** 34]],
     ([13, 61, 521], [(5 ** 17, 3 ** 25)])),
    # RREF entry 2^-40 again, with the residual of 1/2 and 2^21 in row 2,
    # outside the support {0, 1}
    ([[0, 0, 1], [0, 0, -2 ** 40], [1, -2 ** 40, 0]], ([13, 61, 521], [(2 ** 40, 1, 0)])),
])
def test_failed_certificate_falls_back_to_exact_path(tried, a, expected):
    # expected: the exponents tried, the last one certifying, and the basis
    expected_tries, expected_basis = expected
    basis = _kernel(a)
    assert tried == expected_tries
    assert basis == expected_basis == [primitive(v) for v in EXACT_KERNEL(a)]
    for v in basis:
        assert all(x == 0 for x in residual(a, v))


def test_kernel_basis_matches_bareiss_on_sparse_symmetric_products():
    # B D B^T for a sparse n x r factor B and a diagonal D, r <= n / 2:
    # nullity at least n / 2
    rng = random.Random(19)
    nullities = set()
    for trial in range(60):
        n = rng.randint(2, 16)
        r = rng.randint(1, n // 2)
        b = [[rng.choice([0, 0, 0, 1, -2]) for _ in range(r)] for _ in range(n)]
        a = _symmetric_product(b, [rng.choice([0, 1, -1, 3]) for _ in range(r)])
        basis = _kernel(a)
        assert basis == [primitive(v) for v in EXACT_KERNEL(a)], a
        assert 2 * len(basis) >= n
        nullities.add(len(basis))
    assert len(nullities) >= 8


def test_past_bound_certificate_agrees_on_every_cross_oracle_circulant(request):
    # the answers of the first try match the Bareiss oracle (see above); a
    # 0/1 matrix of order <= 18 has squared Hadamard bound below 2^88
    graphs = list(_all_circulants(18, step=2))
    expected = [is_nut(g) for g in graphs]
    tries = request.getfixturevalue("fail_first_tries")
    assert [is_nut(g) for g in graphs] == expected
    assert tries == [13, 61, 89] * len(graphs)


@pytest.mark.parametrize("r, k, rerun", [(5, 7, 521), (31, 32, 1279)])
def test_past_bound_certificate_agrees_on_large_constructions(request, r, k, rerun):
    # on the whole graph's dict rows: is_nut contracts the chains the
    # subdivision holds and certifies its base
    g = construct_with_orbits(r, k).graph
    rows = _graph_rows(g)
    expected = linalg._kernel(rows, g.n)
    assert expected == list(is_nut(g).kernel_basis)
    tries = request.getfixturevalue("fail_first_tries")
    assert linalg._kernel(rows, g.n) == expected
    assert tries == [13, 61, rerun]


# -- the two eliminations ------------------------------------------------------

def _packed_throughout(monkeypatch):
    monkeypatch.setattr(linalg, "_eliminate_mod_p", linalg._eliminate_packed)


def _dict_rows_throughout(monkeypatch):
    monkeypatch.setattr(linalg, "PACKED_MAX_COLUMNS", 0)


def _on_both_paths(monkeypatch, a, over_q=True):
    """The kernel basis of the symmetric matrix a with the packed elimination forced throughout, then
    with the dict rows forced throughout.  The two must agree, and so must
    the certificate at each first modulus, failures included: the kernel
    modulo p and its reduced echelon form do not depend on the pivot order.

    Both eliminations pivot from the last column down, so at each first
    modulus they must pivot on the same columns, the rightmost independent
    columns of a modulo p.  With ``over_q``, those modulo 2^61 - 1 must be
    the rightmost independent columns over Q: column c is one when the
    rank of columns c..n-1 exceeds that of columns c+1..n-1, that is, when
    column n-1-c of a with its columns reversed is a Bareiss pivot column."""
    n = len(a)
    rows = _rows(a)
    pivoted, results = [], []
    for force in (_packed_throughout, _dict_rows_throughout):
        with monkeypatch.context() as m:
            force(m)
            pivoted.append([set(linalg._eliminate_mod_p(rows, n, q)[0])
                            for q in FIRST_TRIES])
            results.append(([linalg._modular_kernel(rows, n, q)
                             for q in FIRST_TRIES],
                            linalg._kernel(rows, n)))
    for q, packed, dict_rows in zip(FIRST_TRIES, *pivoted):
        assert packed == dict_rows, (q, a)
    if over_q:
        _, reversed_pivots = bareiss_echelon([row[::-1] for row in a])
        assert pivoted[0][-1] == {n - 1 - c for c in reversed_pivots}, a
    assert results[0] == results[1], a
    return results[0][1]


def test_eliminations_agree_on_every_small_circulant(monkeypatch):
    for g in _all_circulants(18):
        _on_both_paths(monkeypatch, adjacency_matrix(g))


def test_eliminations_agree_on_random_integer_matrices(monkeypatch):
    # low-rank symmetric products, with entry pairs shifted by multiples of
    # the first two moduli so that some are negative, some at least p and
    # some vanish mod p
    rng = random.Random(14)
    nullities = set()
    matrices = []
    for trial in range(120):
        n = rng.randint(1, 12)
        r = rng.randint(0, n)
        b = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        a = _symmetric_product(b, [rng.randint(-4, 4) for _ in range(r)])
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            shift = rng.choice([-1, 1, 3]) * rng.choice([8191, 2 ** 61 - 1])
            a[i][j] += shift
            if i != j:
                a[j][i] += shift
        matrices.append(a)
    # the dict rows copy rank-one (1, 2, 3, 4)^T (1, 2, 3, 4) as it stands,
    # every entry in 1..8190; (1, 8192, 8191, 2)^T (...) has entries 0 and 1
    # mod 8191 and past it, which the filtering copy reduces
    for v in ((1, 2, 3, 4), (1, 8192, 8191, 2)):
        matrices.append(_symmetric_product([[x] for x in v], [1]))
    assert all(0 < x < 8191 for row in matrices[-2] for x in row)
    assert {8191 * 8192, 8192} <= {x for row in matrices[-1] for x in row}
    for a in matrices:
        basis = _on_both_paths(monkeypatch, a, over_q=False)
        assert basis == [primitive(v) for v in EXACT_KERNEL(a)], a
        nullities.add(len(basis))
    assert {0, 1, 2, 3} <= nullities


def _gnp(n, prob, seed):
    rng = random.Random(seed)
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < prob])


@pytest.mark.parametrize("g", [
    complete_graph(2), complete_graph(7), complete_graph(30),
    Graph(9, [(i, j) for i in range(4) for j in range(4, 9)]),
    Graph(40, [(i, j) for i in range(20) for j in range(20, 40)]),
    Graph(25, [(0, j) for j in range(1, 25)]),
    Graph(60, [(0, j) for j in range(1, 60)]),
    _gnp(120, 0.3, 120),
], ids=["K2", "K7", "K30", "K4,5", "K20,20", "K1,24", "K1,59", "G(120,0.3)"])
def test_eliminations_agree_on_graph_families(monkeypatch, g):
    a = adjacency_matrix(g)
    basis = _on_both_paths(monkeypatch, a)
    for v in basis:
        assert not any(residual(a, v))


def _unit_difference(n, i, j):
    v = [0] * n
    v[i], v[j] = 1, -1
    return tuple(v)


def _reconstructions(monkeypatch):
    """Records the exponent q of every rational reconstruction, in order."""
    calls = []

    def spy(x, q, inner=linalg._reconstruct):
        calls.append(q)
        return inner(x, q)

    monkeypatch.setattr(linalg, "_reconstruct", spy)
    return calls


def test_kernel_basis_of_a_large_star(monkeypatch):
    m = 1199
    star = Graph(m + 1, [(0, j) for j in range(1, m + 1)])
    calls = _reconstructions(monkeypatch)
    assert list(is_nut(star).kernel_basis) == [
        _unit_difference(m + 1, i, m) for i in range(1, m)]
    # only the support of each vector is reconstructed: 2 entries, not m + 1
    assert calls == [13] * (2 * (m - 1))


def test_kernel_basis_of_a_large_edgeless_graph(monkeypatch):
    n = 1200
    identity = [[0] * n for _ in range(n)]
    for i in range(n):
        identity[i][i] = 1
    calls = _reconstructions(monkeypatch)
    assert list(is_nut(Graph(n, [])).kernel_basis) == [
        tuple(row) for row in identity]
    # one reconstruction per vector, of its 1
    assert calls == [13] * n


def test_kernel_basis_of_a_large_complete_bipartite_graph():
    m = 150
    g = Graph(2 * m, [(i, j) for i in range(m) for j in range(m, 2 * m)])
    assert list(is_nut(g).kernel_basis) == (
        [_unit_difference(2 * m, i, m - 1) for i in range(m - 1)]
        + [_unit_difference(2 * m, m + j, 2 * m - 1) for j in range(m - 1)])


def _handed_over(monkeypatch, g, certify=is_nut):
    """certify(g), and the column count of every live block that the dict
    rows handed to the packed elimination."""
    handed = []

    def spy(rows, n, q, masks=None, inner=linalg._eliminate_packed):
        handed.append(n)
        return inner(rows, n, q, masks)

    monkeypatch.setattr(linalg, "_eliminate_packed", spy)
    return certify(g), handed


@pytest.mark.parametrize("g, certify, expected", [
    # every row holds 8 of 18 columns: packed from the start
    (circulant(CirculantSpec(18, {1, 2, 3, 4})), is_nut, [18]),
    # n = 610, degree 2 and 3, unreduced (is_nut contracts its chains): the
    # rows fill only in the last 10 columns, a block too narrow to hand over
    (construct_with_orbits(31, 32).graph, _unreduced, []),
    # dense but past the order limit; one pivot leaves rows of 2 entries,
    # which fill only in the last 10 columns
    (complete_graph(400), is_nut, []),
    # Q_6: its rows fill in the last 32 columns, just wide enough
    (cayley_abelian(AbelianCayleySpec([2] * 6, [tuple(int(i == j) for j in range(6))
                                                for i in range(6)])), is_nut, [32]),
], ids=["Circ(18,{1,2,3,4})", "construct(31,32)", "K400", "Q6"])
def test_dict_rows_hand_over_once_the_live_block_is_dense(monkeypatch, g, certify, expected):
    assert _handed_over(monkeypatch, g, certify)[1] == expected


def _random_cubic_graph(n, seed):
    """A random cubic graph of order n from the configuration model: three
    points per vertex paired at random, redrawn until no loop or double
    edge."""
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph(n, sorted(edges))


def test_random_cubic_graph_hands_over_a_strict_tail(monkeypatch):
    g = _random_cubic_graph(600, 600)
    verdict, handed = _handed_over(monkeypatch, g)
    # the dict rows fill as they go, and their last 134 columns go packed
    assert handed == [134]
    # the graph has nullity 0; with vertex 100 given the neighbours of
    # vertex 50 the kernel is spanned by e_50 - e_100, whose free column 50
    # lies in the handed block
    kept = [e for e in g.edges if 100 not in e]
    twin = Graph(g.n, kept + [(u + v - 50, 100) for u, v in kept if 50 in (u, v)])
    expected = (_unit_difference(g.n, 50, 100),)
    assert is_nut(twin).kernel_basis == expected
    assert handed == [134, 141]
    with monkeypatch.context() as m:
        _dict_rows_throughout(m)
        assert is_nut(g) == verdict
        assert is_nut(twin).kernel_basis == expected


# -- graphs held as neighbour bitmasks ----------------------------------------

def _random_masks(n, rng):
    """n rows of n 0/1 entries as bitmasks, with a zero row, a full row and
    the first and last columns alone among random rows of every fill."""
    randoms = [rng.getrandbits(n) & rng.getrandbits(n) >> rng.randrange(n) for _ in range(n)]
    return ([0, (1 << n) - 1, 1, 1 << n - 1] + randoms)[:n]


@pytest.mark.parametrize("q", [13, 61, 89])
def test_masks_pack_like_their_dict_rows(q):
    rng = random.Random(q)
    for n in [*range(1, 41), 255, 256]:
        w = 2 * q + 2 + n.bit_length()
        masks = _random_masks(n, rng)
        rows = [{j: 1 for j in range(n) if mask >> j & 1} for mask in masks]
        assert linalg._mask_rows(masks) == rows
        assert linalg._packed_rows(None, n, q, w, masks) == linalg._packed_rows(rows, n, q, w)


def _edge_rows(g):
    rows = [{} for _ in range(g.n)]
    for u, v in g.edges:
        rows[u][v] = rows[v][u] = 1
    return rows


def test_mask_kernel_equals_the_dict_row_kernel_on_every_cross_oracle_circulant():
    # the masks of the sparse specs, which circulant builds as edges, are
    # read into dict rows; those of the dense ones are packed as they stand
    for g in _all_circulants(18, step=2):
        expected = linalg._kernel(_edge_rows(g), g.n)
        assert linalg._kernel(None, g.n, edge_masks(g)) == expected
        assert list(is_nut(g).kernel_basis) == expected


def test_is_nut_reads_a_dense_circulant_from_its_masks_alone(monkeypatch):
    # no edge tuple, neighbour sets or dict rows, not even for the check
    # over Z of a singular matrix; an edge-built graph gets no masks
    calls = []
    monkeypatch.setattr(linalg, "_mask_rows", calls.append)
    held = singular = 0
    for g in _all_circulants(18, step=2):
        verdict = is_nut(g)
        if g.masks is None:
            assert "masks" not in vars(g)
            continue
        held += 1
        singular += verdict.nullity > 0
        assert "edges" not in vars(g) and "neighbors" not in vars(g)
    assert held == 965 and singular == 372 and calls == []
    g = read_graph6(write_graph6(circulant(CirculantSpec(40, {1}))))
    assert is_nut(g).nullity == 2 and g.masks is None


def test_is_nut_reads_each_mask_at_most_once(monkeypatch):
    # the check over Z reads a column's mask once, however many kernel
    # vectors' supports hold it: Circ(18, {1, 2, 4, 6, 9}), nullity 10,
    # read 66 masks one at a time
    calls = []

    def spy(mask, inner=linalg.bit_positions):
        calls.append(mask)
        return inner(mask)

    monkeypatch.setattr(linalg, "bit_positions", spy)
    held = 0
    for g in _all_circulants(18, step=2):
        if g.masks is None:
            continue
        calls.clear()
        is_nut(g)
        assert len(calls) <= g.n, g.masks
        held += 1
    assert held == 965


def test_is_nut_builds_no_dense_matrix():
    # is_nut on Circ(2000, {1, 2}) peaks near 1.7 MB; the pointer
    # array of a dense 2000 x 2000 list of lists alone takes 32 MB
    g = circulant(CirculantSpec(2000, {1, 2}))
    tracemalloc.start()
    try:
        verdict = is_nut(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_nut
    assert peak < 8 * 2 ** 20, peak


def test_largest_modulus_passes_the_hadamard_bound_of_every_checked_graph():
    # K_MAX_ORDER has the largest bound of any graph of order <= MAX_ORDER
    assert (MAX_ORDER - 1) ** MAX_ORDER < 1 << (MERSENNE_EXPONENTS[-1] - 1)


def test_entries_past_every_modulus_are_refused():
    # singular modulo both first moduli, so the Hadamard rung is reached
    with pytest.raises(ResourceCapError):
        linalg._kernel([{0: 8191 * (2 ** 61 - 1) * 2 ** 200000}], 1)


@pytest.mark.parametrize("q, unreachable", [
    (13, 64),  # the least residue with no fraction in bounds
    (61, 3 ** 25 * pow(5 ** 17, -1, 2 ** 61 - 1) % (2 ** 61 - 1)),
], ids=["13", "61"])
def test_rational_reconstruction_round_trips_small_fractions(q, unreachable):
    p = (1 << q) - 1
    bound = 1 << (q // 2)
    for num, den in [(0, 1), (1, 1), (-1, 1), (3, 7), (-5, 12),
                     (bound - 1, bound - 2), (-(bound - 1), bound - 3)]:
        assert linalg._reconstruct(num * pow(den, -1, p) % p, q) == (num, den)
    assert linalg._reconstruct(unreachable, q) is None


def test_rational_reconstruction_modulo_8191_on_every_residue():
    # every fraction with |num|, den < 2^6 has its own residue, and every
    # other residue has no reconstruction
    p = 8191
    fractions = {num * pow(den, -1, p) % p: (num, den)
                 for den in range(1, 64) for num in range(-63, 64) if gcd(num, den) == 1}
    assert len(fractions) == sum(1 for den in range(1, 64) for num in range(-63, 64)
                                 if gcd(num, den) == 1)
    assert [linalg._reconstruct(x, 13) for x in range(p)] == [fractions.get(x)
                                                              for x in range(p)]



# -- threads and chains: paths of degree-2 vertices ---------------------------

def _threaded(base_order, edges, threads, rng=None):
    """The graph of ``edges`` on 0..base_order-1 with, for each (u, v, L),
    a path of L fresh vertices from u to v; its labels shuffled by ``rng``
    if given."""
    edges, order = list(edges), base_order
    for u, v, length in threads:
        path = [u, *range(order, order + length), v]
        edges += zip(path, path[1:])
        order += length
    if rng is not None:
        label = list(range(order))
        rng.shuffle(label)
        edges = [(label[a], label[b]) for a, b in edges]
    return Graph(order, edges)


@pytest.fixture
def kernel_orders(monkeypatch):
    """The order of every matrix ``_kernel`` certifies, with whether it
    came as masks."""
    orders = []
    kernel = linalg._kernel

    def spy(rows, n, masks=None):
        orders.append((n, masks is not None))
        return kernel(rows, n, masks)

    monkeypatch.setattr(linalg, "_kernel", spy)
    return orders


def _assert_exact(g):
    verdict = is_nut(g)
    assert list(verdict.kernel_basis) == [
        primitive(v) for v in EXACT_KERNEL(adjacency_matrix(g))]
    return verdict


K33 = [(a, b) for a in range(3) for b in range(3, 6)]  # 0 and 1 are not adjacent


@pytest.mark.parametrize("length", range(1, 10))
def test_only_threads_of_a_multiple_of_4_contract(kernel_orders, length):
    # a thread that Graph(...) built is eliminated whole; a chain of K_3,3's
    # edge 03 that subdivide_edges built is contracted when 4 divides it
    g = _threaded(6, K33, [(0, 1, length)], random.Random(length))
    _assert_exact(g)
    subdivided = subdivide_edges(Graph(6, K33), [(0, 3)], length)
    _assert_exact(subdivided)
    assert kernel_orders == [(g.n, False), (6 if length % 4 == 0 else subdivided.n, False)]


@pytest.mark.parametrize("base_order, edges, threads, nullity", [
    (6, K33, [(0, 0, 4)], 3),              # u = v
    (6, K33, [(0, 3, 4)], 2),              # ends already adjacent
    (6, K33, [(0, 1, 4), (0, 1, 4)], 2),   # parallel
    (6, K33, [(0, 1, 4), (0, 1, 8)], 2),   # parallel, of 4 and 8
    (14, K33 + [(6 + i, 6 + (i + 1) % 8) for i in range(8)], [], 6),  # a C_8 component
    (7, K33, [(0, 6, 8)], 3),              # a pendant thread, to a vertex of degree 1
    (2, [], [(0, 1, 4)], 0),               # the path P_6
    (6, [], [(0, v, 4) for v in range(1, 6)], 4),  # a subdivided star K_{1,5}
], ids=["u=v", "adjacent-ends", "parallel", "parallel-4-8", "cycle", "pendant", "P6",
        "star"])
def test_threads_contract_where_the_identity_holds(kernel_orders, base_order, edges,
                                                   threads, nullity):
    # built by Graph(...), so eliminated whole; P_6 and the star are also
    # subdivide_edges' chains of 4, which contract to K_2 and K_1,5
    g = _threaded(base_order, edges, threads)
    assert _assert_exact(g).nullity == nullity
    assert kernel_orders == [(g.n, False)]
    if not edges:
        star = [(u, v) for u, v, _ in threads]
        subdivided = subdivide_edges(Graph(base_order, star), star, 4)
        assert subdivided == g
        kernel_orders.clear()
        assert _assert_exact(subdivided).nullity == nullity
        assert kernel_orders == [(base_order, False)]


def test_an_end_of_two_contracted_threads_lifts_from_its_least_label(kernel_orders):
    # vertex 1 ends two threads of 8, under a labelling that interleaves
    # them: built by Graph(...), the graph is eliminated whole
    g = _threaded(4, [(2, 3)], [(1, 3, 8), (3, 1, 2), (2, 1, 8), (2, 0, 2)])
    label = [10, 17, 15, 11, 5, 21, 16, 13, 22, 8, 4, 18, 6, 2, 3, 1, 20, 12, 0, 19, 9,
             23, 7, 14]
    _assert_exact(Graph(g.n, [(label[u], label[v]) for u, v in g.edges]))
    assert kernel_orders == [(g.n, False)]


def test_a_subdivided_nut_graph_contracts_to_its_base(kernel_orders):
    # the offset-1 edges of the nut graph Circ(10, {1, 2}), 4 vertices on each;
    # relabelled by Graph(...), it holds no chains and is eliminated whole
    g = subdivide_edges(circulant(CirculantSpec(10, {1, 2})),
                        [(v, (v + 1) % 10) for v in range(10)], 4)
    relabelled = _threaded(g.n, g.edges, [], random.Random(5))
    assert _assert_exact(g).is_nut and _assert_exact(relabelled).is_nut
    assert kernel_orders == [(10, False), (g.n, False)]


def test_threads_agree_with_the_exact_kernel_on_random_graphs(kernel_orders):
    # random graphs of 2-8 vertices with up to four planted threads of 1-9
    # vertices, ends anywhere (equal and adjacent ends too), sometimes with a
    # cycle component, labels shuffled: built by Graph(...), each is
    # eliminated whole
    rng = random.Random(34)
    nullities = set()
    for trial in range(300):
        base_order = rng.randint(2, 8)
        edges = [e for e in combinations(range(base_order), 2) if rng.random() < 0.5]
        threads = [(rng.randrange(base_order), rng.randrange(base_order), rng.randint(1, 9))
                   for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:  # a cycle of 3-9 vertices
            cycle = range(base_order, base_order + rng.randint(3, 9))
            edges += zip(cycle, [*cycle[1:], cycle[0]])
            base_order = cycle.stop
        g = _threaded(base_order, edges, threads, rng)
        kernel_orders.clear()
        nullities.add(_assert_exact(g).nullity)
        assert kernel_orders == [(g.n, False)], g
    assert {0, 1} <= nullities and max(nullities) >= 3


@pytest.mark.parametrize("s", range(10))
def test_subdivide_edges_holds_its_chains_at_a_positive_multiple_of_4(s):
    g = Graph(6, K33)
    targets = [(3, 0), (1, 4), (2, 5)]
    subdivided = subdivide_edges(g, targets, s)
    if s == 0:
        assert subdivided is g and g.chains is None
    else:
        first = {(0, 3): 6, (1, 4): 6 + s, (2, 5): 6 + 2 * s}
        assert subdivided.chains == ((first, s) if s % 4 == 0 else None)
    # Graph(...) and read_graph6 hold no chains, and equality ignores them
    for copy in (Graph(subdivided.n, subdivided.edges),
                 read_graph6(write_graph6(subdivided))):
        assert copy == subdivided and copy.chains is None


def test_a_subdivision_of_a_subdivision_contracts_only_its_own_chains(kernel_orders):
    # the second subdivision's base is the first, chains and all, and is
    # eliminated whole
    once = subdivide_edges(circulant(CirculantSpec(10, {1, 2})),
                           [(v, (v + 1) % 10) for v in range(10)], 4)
    twice = subdivide_edges(once, [(0, 2), (10, 11), (13, 1)], 8)
    assert twice.chains == ({(0, 2): 50, (1, 13): 58, (10, 11): 66}, 8)
    assert _assert_exact(twice).is_nut
    assert kernel_orders == [(once.n, False)]


def test_declared_chains_agree_with_the_exact_kernel_on_random_subdivisions(kernel_orders):
    # random bases of 2-8 vertices, one to four of their edges subdivided 4
    # or 8 times, labels as subdivide_edges gives them: only the base is
    # eliminated, and the lifted basis is the whole graph's reduced echelon
    # basis, at nullity above 1 too
    rng = random.Random(37)
    nullities = []
    for trial in range(200):
        base_order = rng.randint(2, 8)
        edges = [e for e in combinations(range(base_order), 2) if rng.random() < 0.5]
        if not edges:
            continue
        base = Graph(base_order, edges)
        g = subdivide_edges(base, rng.sample(edges, min(len(edges), rng.randint(1, 4))),
                            rng.choice((4, 8)))
        assert g.chains is not None
        kernel_orders.clear()
        nullities.append(_assert_exact(g).nullity)
        assert kernel_orders == [(base_order, False)], g
    assert {0, 1, 2, 3} <= set(nullities) and len(nullities) > 150


@pytest.mark.parametrize("r, k", [(3, 8), (9, 10), (21, 22), (31, 32)])
def test_a_construct_ladder_subdivision_eliminates_only_its_base(kernel_orders, r, k):
    base = cayley_nut(k - r + 1).graph
    kernel_orders.clear()
    g = construct_with_orbits(r, k).graph
    first, s = g.chains
    assert s == 2 * (r - 1) and g.n == base.n + len(first) * s
    # the base's own certificate, then the output's, from the base's rows
    assert kernel_orders == [(base.n, base.masks is not None), (base.n, False)]


def test_graphs_held_as_masks_are_never_reduced(kernel_orders):
    # dense circulants are regular: even a cycle held as masks has no ends
    specs = [CirculantSpec(10, {1}), CirculantSpec(10, {1, 2}), CirculantSpec(18, {1, 2, 3, 4})]
    graphs = [circulant(spec) for spec in specs]
    assert all(g.masks is not None for g in graphs)
    for g in graphs:
        _assert_exact(g)
    assert kernel_orders == [(g.n, True) for g in graphs]


def test_a_lifted_vector_is_checked_on_the_whole_graph(monkeypatch):
    # a reduced "kernel" vector that is not one fails A v = 0 once lifted
    g = construct_with_orbits(3, 5).graph
    monkeypatch.setattr(linalg, "_kernel", lambda rows, n, masks=None: [(1,) * n])
    with pytest.raises(AssertionError, match="fails A v = 0"):
        is_nut(g)
