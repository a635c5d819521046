import random
from fractions import Fraction
from itertools import combinations

import pytest
from oracles import charpoly_cofactor, exact_kernel, primitive, root_zero_multiplicity

from nutorbits import linalg
from nutorbits import (CirculantSpec, Graph, ResourceCapError,
                       cartesian_product, char_poly, circulant, complete_graph,
                       construct_with_orbits, is_nut, kernel_basis,
                       kernel_vector_from_factors, product_spectrum_check)
from nutorbits.graphs import MAX_ORDER
from nutorbits.linalg import MERSENNE_EXPONENTS, EigenvectorMismatch, matvec

EXACT_KERNEL = exact_kernel


def test_kernel_of_k2_is_trivial():
    assert kernel_basis(complete_graph(2).adjacency_matrix()) == []


def test_kernel_of_c4_frozen(c4):
    # char poly x^4 - 4x^2 has a double root at 0; the canonical reduced
    # basis pairs opposite vertices
    basis = kernel_basis(c4.adjacency_matrix())
    assert basis == [(1, 0, -1, 0), (0, 1, 0, -1)]


def test_kernel_of_circ_10_12_is_alternating(circ_10_12):
    basis = kernel_basis(circ_10_12.adjacency_matrix())
    assert len(basis) == 1
    assert basis[0] == tuple((-1) ** i for i in range(10))


def test_kernel_vectors_are_exact_on_random_matrices():
    # deterministic pseudorandom integer matrices; A v must be exactly zero
    import random
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(1, 8)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        for v in kernel_basis(a):
            assert all(x == 0 for x in matvec(a, v))


def test_kernel_rank_nullity_on_rectifiable_cases():
    zero3 = [[0] * 3 for _ in range(3)]
    basis = kernel_basis(zero3)
    assert len(basis) == 3
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert kernel_basis(ident) == []


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


def test_char_poly_frozen_values(c4, k4):
    assert char_poly(complete_graph(2).adjacency_matrix()) == (-1, 0, 1)
    # (x - 3)(x + 1)^3 expanded: x^4 - 6x^2 - 8x - 3
    assert char_poly(k4.adjacency_matrix()) == (-3, -8, -6, 0, 1)
    # x^4 - 4x^2
    assert char_poly(c4.adjacency_matrix()) == (0, 0, -4, 0, 1)


def test_char_poly_matches_cofactor_oracle_up_to_6():
    import random
    from itertools import combinations
    rng = random.Random(99)
    graphs = [complete_graph(m) for m in range(1, 5)]
    for trial in range(20):
        n = rng.randint(2, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        graphs.append(Graph(n, tuple(sorted(edges))))
    for g in graphs:
        a = g.adjacency_matrix()
        assert char_poly(a) == charpoly_cofactor(a)


def test_nullity_equals_charpoly_zero_multiplicity():
    # cross-oracle on all graphs used elsewhere plus samples up to order 10
    for spec in [(4, {1}), (6, {1}), (8, {1, 4}), (10, {1, 2}), (10, {1, 5}),
                 (10, {2, 5}), (9, {1, 3})]:
        g = circulant(CirculantSpec(*spec))
        a = g.adjacency_matrix()
        assert len(kernel_basis(a)) == root_zero_multiplicity(char_poly(a))


def test_product_spectrum_check_named_pairs(c4, k4):
    k1, k2 = complete_graph(1), complete_graph(2)
    c6 = circulant(CirculantSpec(6, {1}))
    family = [k1, k2, k4, c4, c6]
    for g in family:
        for h in family:
            assert product_spectrum_check(g, h)


def test_product_spectrum_check_fails_on_a_broken_product(monkeypatch, c4, k4):
    # the true product less its first edge has a different spectrum
    true_product = linalg.cartesian_product

    def broken(g, h):
        p = true_product(g, h)
        return Graph(p.n, p.edges[1:])

    monkeypatch.setattr(linalg, "cartesian_product", broken)
    family = [complete_graph(1), complete_graph(2), k4, c4,
              circulant(CirculantSpec(6, {1}))]
    checked = 0
    for g in family:
        for h in family:
            if true_product(g, h).edges:
                assert not product_spectrum_check(g, h), (g.n, h.n)
                checked += 1
    assert checked == 24


def test_product_spectrum_check_cap():
    big = circulant(CirculantSpec(10, {1}))
    with pytest.raises(ResourceCapError):
        product_spectrum_check(big, circulant(CirculantSpec(7, {1})))


def test_kernel_vector_from_factors_prop3_style(k4):
    g = circulant(CirculantSpec(10, {1, 5}))
    u = [(-1) ** i for i in range(10)]     # eigenvalue -3
    w = kernel_vector_from_factors(u, [1, 1, 1, 1], g, k4)
    assert len(w) == 40 and all(e != 0 for e in w)
    assert all(x == 0 for x in matvec(cartesian_product(g, k4).adjacency_matrix(), w))


def test_kernel_vector_from_factors_prop2_style():
    g = circulant(CirculantSpec(22, {2, 3, 4, 11}))
    u = [(-1) ** i for i in range(22)]     # eigenvalue 1
    k2 = complete_graph(2)
    w = kernel_vector_from_factors(u, [1, -1], g, k2)   # K2 eigenvalue -1
    assert len(w) == 44 and all(e != 0 for e in w)
    assert all(x == 0 for x in matvec(cartesian_product(g, k2).adjacency_matrix(), w))


def test_kernel_vector_from_factors_edgeless():
    e3, e2 = Graph(3, ()), Graph(2, ())
    w = kernel_vector_from_factors([1, 1, 1], [1, 1], e3, e2)
    assert w == (1,) * 6


def test_kernel_vector_from_factors_fullness_tracks_inputs(k4):
    # a non-full factor eigenvector produces a non-full product vector
    w = kernel_vector_from_factors([1, 0, -1, 0], [1, 1],
                                   circulant(CirculantSpec(4, {1})), Graph(2, ()))
    assert any(e == 0 for e in w)


def test_kernel_vector_from_factors_errors(c4, k4):
    with pytest.raises(EigenvectorMismatch) as err:
        kernel_vector_from_factors([1, 0, 0, 0], [1, 1], c4, Graph(2, ()))
    assert err.value.row == 1
    with pytest.raises(ValueError, match="cancel"):
        kernel_vector_from_factors([1, 1, 1, 1], [1, 1], k4, Graph(2, ()))
    with pytest.raises(ValueError, match="nonzero"):
        kernel_vector_from_factors([0, 0, 0, 0], [1, 1], c4, Graph(2, ()))


def test_nut_check_stays_fast_at_desk_scale():
    import time
    g = circulant(CirculantSpec(200, {1, 2, 3}))
    start = time.perf_counter()
    is_nut(g)
    assert time.perf_counter() - start < 10.0


_PAIRS = list(combinations(range(5), 2))


@pytest.mark.parametrize("name, g, nullity", [
    ("Petersen", Graph.from_edges(10, [(i, j) for i, j in combinations(range(10), 2)
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
        moved = is_nut(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
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
    from itertools import combinations
    for n in range(step, nmax + 1, step):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offs in combinations(pool, size):
                yield circulant(CirculantSpec(n, offs)).adjacency_matrix()


def test_kernel_basis_matches_sympy_on_random_matrices():
    import random
    rng = random.Random(2025)
    nullities = set()
    for trial in range(60):
        n = rng.randint(4, 8)
        r = n - trial % 5
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        a = [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)]
             for i in range(n)]
        expected = _sympy_rref_kernel(a)
        assert kernel_basis(a) == expected, a
        nullities.add(len(expected))
    assert nullities == {0, 1, 2, 3, 4}


def test_kernel_basis_matches_sympy_on_every_small_circulant():
    for a in _all_circulants(12):
        assert kernel_basis(a) == _sympy_rref_kernel(a), a


def _record_reruns(monkeypatch, fail_at_61):
    calls = []
    certify = linalg._modular_kernel

    def spy(rows, n, q):
        if q != 61:
            calls.append(q)
        elif fail_at_61:
            return None
        return certify(rows, n, q)

    monkeypatch.setattr(linalg, "_modular_kernel", spy)
    return calls


@pytest.fixture
def exact_calls(monkeypatch):
    """Records every Mersenne exponent other than 61 that the certificate
    reruns at."""
    return _record_reruns(monkeypatch, fail_at_61=False)


@pytest.fixture
def fail_at_61(monkeypatch):
    """As exact_calls, and makes the certificate modulo 2^61 - 1 fail on
    every matrix."""
    return _record_reruns(monkeypatch, fail_at_61=True)


def test_certificate_answers_every_cross_oracle_circulant(exact_calls):
    # every even n <= 18: the certificate modulo 2^61 - 1 holds, agrees with
    # the Bareiss oracle and never reruns
    for a in _all_circulants(18, step=2):
        assert kernel_basis(a) == [primitive(v) for v in EXACT_KERNEL(a)]
    assert exact_calls == []


@pytest.mark.parametrize("a, expected", [
    # singular modulo 2^61 - 1 but not over Q
    ([[2 ** 61 - 1]], (127, [])),
    ([[1, 0], [0, 2 ** 61 - 1]], (127, [])),
    # RREF entry 2^-40, past the reconstruction bound: it is congruent to
    # 2^21, which reconstructs but fails A v = 0 over Z
    ([[1, -2 ** 40], [0, 0]], (89, [(2 ** 40, 1)])),
    # RREF entry 3^25 / 5^17, a residue with no reconstruction in bounds
    ([[3 ** 25, -5 ** 17], [0, 0]], (89, [(5 ** 17, 3 ** 25)])),
])
def test_failed_certificate_falls_back_to_exact_path(exact_calls, a, expected):
    # expected: the exponent the Hadamard bound picks, and the basis
    rerun, expected_basis = expected
    basis = kernel_basis(a)
    assert exact_calls == [rerun]
    assert basis == expected_basis == [primitive(v) for v in EXACT_KERNEL(a)]
    for v in basis:
        assert all(x == 0 for x in matvec(a, v))


def test_past_bound_certificate_agrees_on_every_cross_oracle_circulant(request):
    # the answers modulo 2^61 - 1 match the Bareiss oracle (see above); a 0/1
    # matrix of order <= 18 has squared Hadamard bound below 2^88
    matrices = list(_all_circulants(18, step=2))
    expected = [kernel_basis(a) for a in matrices]
    reruns = request.getfixturevalue("fail_at_61")
    assert [kernel_basis(a) for a in matrices] == expected
    assert reruns == [89] * len(matrices)


@pytest.mark.parametrize("r, k, rerun", [(5, 7, 521), (31, 32, 1279)])
def test_past_bound_certificate_agrees_on_large_constructions(request, r, k, rerun):
    g = construct_with_orbits(r, k).graph
    expected = is_nut(g)
    reruns = request.getfixturevalue("fail_at_61")
    assert is_nut(g) == expected
    assert reruns == [rerun]


def test_is_nut_builds_no_dense_matrix(monkeypatch, circ_10_12):
    def refuse(self):
        raise AssertionError("dense adjacency matrix built")

    monkeypatch.setattr(Graph, "adjacency_matrix", refuse)
    verdict = is_nut(circ_10_12)
    assert verdict.is_nut
    assert verdict.kernel_basis[0] == tuple((-1) ** i for i in range(10))


def test_largest_modulus_passes_the_hadamard_bound_of_every_checked_graph():
    # K_MAX_ORDER has the largest bound of any graph of order <= MAX_ORDER
    assert (MAX_ORDER - 1) ** MAX_ORDER < 1 << (MERSENNE_EXPONENTS[-1] - 1)


def test_entries_past_every_modulus_are_refused():
    with pytest.raises(ResourceCapError):
        kernel_basis([[(2 ** 61 - 1) * 2 ** 200000]])


def test_rational_reconstruction_round_trips_small_fractions():
    q = 61
    p = (1 << q) - 1
    bound = 1 << (q // 2)
    for num, den in [(0, 1), (1, 1), (-1, 1), (3, 7), (-5, 12),
                     (bound - 1, bound - 2), (-(bound - 1), bound - 3)]:
        assert linalg._reconstruct(num * pow(den, -1, p) % p, q) == (num, den)
    assert linalg._reconstruct(3 ** 25 * pow(5 ** 17, -1, p) % p, q) is None
