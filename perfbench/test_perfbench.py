"""Tests of the benchmark's own checkers, inputs and tracer.

    python3 -m pytest -q perfbench

Each checker is shown to accept the program's real output and to catch a
wrong verdict, census, group order or kernel vector injected into it.
"""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
import nutorbits  # noqa: E402
import nutorbits.cli  # noqa: E402
from tracer import Tracer, entry_points  # noqa: E402


def cli_report(argv) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert nutorbits.cli.main(list(argv)) == 0
    report = json.loads(buffer.getvalue())
    report.pop("timing_ms")
    return report


def flip_bit(text: str, at: int) -> str:
    return text[:at] + chr((ord(text[at]) - 63 ^ 1) + 63) + text[at + 1:]


def corrupted(report: dict, edit) -> dict:
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


# ---------------------------------------------------------------------------
# graph6 and inputs
# ---------------------------------------------------------------------------


def test_graph6_writer_matches_the_format():
    assert inputs.write_g6(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]) == "C~"
    assert inputs.write_g6(64, [])[:4] == "~?@?"


@pytest.mark.parametrize("seed", [1, 2])
def test_census_inputs_round_trip_and_parse_in_the_program(seed):
    for case in inputs.census_cases(seed, 0):
        text = case.argv[1]
        assert inputs.read_g6(text) == (case.n, list(case.edges))
        graph = nutorbits.read_graph6(text)
        assert (graph.n, list(graph.edges)) == (case.n, list(case.edges))


def test_inputs_depend_on_the_seed_only():
    for workload in inputs.WORKLOADS:
        assert inputs.cases(workload, 5, 0) == inputs.cases(workload, 5, 0)
        assert inputs.cases(workload, 5, 0) != inputs.cases(workload, 6, 0)
        assert inputs.cases(workload, 5, 0) != inputs.cases(workload, 5, 1)


# ---------------------------------------------------------------------------
# reference work and rescaling
# ---------------------------------------------------------------------------


def test_every_workload_has_fixed_reference_work():
    assert set(reference.REFERENCE_WORK) == set(inputs.WORKLOADS)
    assert reference.closure() >= 5000
    assert reference.elimination() == reference.elimination() > 0


def test_latencies_are_rescaled_by_the_references_during_or_around_them():
    samples = [(0.0, 0.01), (1.0, 1.03), (1.5, 1.52), (3.0, 3.05)]
    spans = [(0.5, 0.7), None, (0.9, 2.0), (2.5, 2.9)]
    latencies, rescaled = worker.rescale(spans, samples)
    ref = worker.REFERENCE_S
    assert latencies[1] is None and rescaled[1] is None
    # nothing inside: the references before and after
    assert latencies[0] == pytest.approx(0.2)
    assert rescaled[0] == pytest.approx(0.2 * ref / ((0.01 + 0.03) / 2))
    # two inside: their time is taken out and their mean rescales
    assert latencies[2] == pytest.approx(1.1 - 0.03 - 0.02)
    assert rescaled[2] == pytest.approx(1.05 * ref / ((0.03 + 0.02) / 2))
    assert rescaled[3] == pytest.approx(0.4 * ref / ((0.02 + 0.05) / 2))


def test_the_host_is_sampled_during_a_long_instance():
    def busy():
        end = perf_counter() + 0.45
        while perf_counter() < end:
            pass
        return "done"

    latencies, rescaled, outputs, failed, references, wall = worker.run_calls(
        "cross-oracle", [busy])
    assert outputs == ["done"] and failed == 0
    assert len(references) >= 4  # before, at least two inside, after
    # the call ran 0.45 s of wall time, the sampler's work inside it included
    assert latencies[0] == pytest.approx(0.45 - sum(references[1:-1]), abs=0.03)
    assert wall == pytest.approx(latencies[0], abs=0.03)
    assert rescaled[0] > 0


def test_peak_rss_is_this_process():
    assert 1 < worker.peak_rss_mb() < 4096


# ---------------------------------------------------------------------------
# integer linear algebra and closed forms
# ---------------------------------------------------------------------------


def test_rank_mod_p_sees_a_second_kernel_vector():
    # C_8 has nullity 2, and (1,1,-1,-1,...) is a full kernel vector, so
    # only the rank bound can refute a claim of nullity 1.
    rows = checks.adjacency_rows(8, inputs.family_graph("cycle", (8,))[1])
    assert checks.in_kernel(rows, [1, 1, -1, -1, 1, 1, -1, -1])
    assert checks.rank_mod_p(rows) == 6


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_ramanujan_oracle_matches_rank(n):
    for offsets in [(1,), (1, 2), (2,), (1, n // 2), tuple(range(1, n // 2 + 1))]:
        offsets = tuple(sorted(set(offsets)))
        edges = {(min(i, (i + s) % n), max(i, (i + s) % n)) for i in range(n) for s in offsets}
        rank = checks.rank_mod_p(checks.adjacency_rows(n, edges))
        assert checks.circulant_oracle(n, offsets)[0] == n - rank


@pytest.mark.parametrize("family,params", [
    ("complete", (4,)), ("hypercube", (3,)), ("bipartite", (2, 3)), ("bipartite", (3, 3)),
    ("rook", (2,)), ("rook", (3,)), ("petersen", ()), ("cycle", (8,)), ("cycle", (6,))])
def test_closed_forms_against_brute_force(family, params):
    n, edges = inputs.family_graph(family, params)
    want = checks.expected_census(family, params)
    assert checks.count_automorphisms(n, edges) == want["aut"]
    assert n - checks.rank_mod_p(checks.adjacency_rows(n, edges)) == want["nullity"]


def test_census_nullities_of_the_workload_graphs():
    for name, family, params in inputs.CENSUS_GRAPHS:
        n, edges = inputs.family_graph(family, params)
        rank = checks.rank_mod_p(checks.adjacency_rows(n, edges))
        assert n - rank == checks.expected_census(family, params)["nullity"], name


def test_construct_formulas():
    want = {name: checks.expected_construct(("construct",) + argv)
            for name, argv in inputs.CONSTRUCT_LADDER}
    assert want["r31k32"] == {"counts": (31, 32, 62), "aut": 20, "order": 610, "size": 620}
    assert want["r1k12"]["order"] == 34 and want["r1k12"]["aut"] == 68
    assert want["prop2-k9-p19"] == {"counts": (1, 9, 9), "aut": 152, "order": 76, "size": 608}
    assert want["prop3-n13"]["aut"] == 1248


# ---------------------------------------------------------------------------
# the checkers catch injected faults
# ---------------------------------------------------------------------------


def test_cross_check_catches_wrong_verdicts():
    assert checks.check_cross(10, (1, 2), [True, True, 1, True]) == []
    assert checks.check_cross(8, (1,), [False, False, 2, False]) == []
    assert checks.check_cross(10, (1, 2), [False, True, 1, True])
    assert checks.check_cross(10, (1, 2), [True, False, 1, True])
    assert checks.check_cross(8, (1,), [False, False, 1, False])
    assert checks.check_cross(10, (1, 2), [True, True, 1, False])


CONSTRUCT_FAULTS = {
    "verdict": lambda r: r["nut"].update(is_nut=False),
    "nullity": lambda r: r["nut"].update(nullity=2),
    "census": lambda r: r["census"].update(o_e=r["census"]["o_e"] + 1),
    "orbits": lambda r: r["census"]["edge_orbits"].append(r["census"]["edge_orbits"].pop()[1:]),
    "aut": lambda r: r["census"].update(aut_order=2 * r["census"]["aut_order"]),
    "kernel": lambda r: r["nut"]["kernel"][0].__setitem__(0, r["nut"]["kernel"][0][0] + 1),
    "graph6": lambda r: r["graph"].update(graph6=flip_bit(r["graph"]["graph6"], 5)),
}


@pytest.mark.parametrize("argv", [("construct", "--r", "3", "--k", "4"),
                                  ("construct", "--variant", "fig3")])
def test_construct_check_accepts_real_output_and_catches_faults(argv):
    case = inputs.CliCase("c", argv)
    report = cli_report(argv)
    assert checks.check_construct(case, report) == []
    for fault, edit in CONSTRUCT_FAULTS.items():
        assert checks.check_construct(case, corrupted(report, edit)), fault


def test_census_check_accepts_real_output_and_catches_faults():
    faults = {
        "verdict": lambda r: r["nut"].update(is_nut=True),
        "nullity": lambda r: r["nut"].update(nullity=r["nut"]["nullity"] + 1),
        "counts": lambda r: r["census"].update(o_v=r["census"]["o_v"] + 1),
        "aut": lambda r: r["census"].update(aut_order=r["census"]["aut_order"] + 1),
        "orbits": lambda r: r["census"]["arc_orbits"][0].pop(),
        "order": lambda r: r["graph"].update(order=r["graph"]["order"] + 1),
    }
    for case in inputs.census_cases(3, 0):
        if case.family == "complete":
            continue
        report = cli_report(case.argv)
        assert checks.check_census(case, report) == [], case.name
        for fault, edit in faults.items():
            assert checks.check_census(case, corrupted(report, edit)), (case.name, fault)
        if report["nut"]["kernel"]:
            bad = corrupted(report, lambda r: r["nut"]["kernel"][0].__setitem__(
                0, r["nut"]["kernel"][0][0] + 1))
            assert checks.check_census(case, bad), case.name


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_restores_every_name():
    modules = (nutorbits, nutorbits.cli, nutorbits.constructions, nutorbits.automorphisms)
    before = [dict(vars(m)) for m in modules]
    group_attr = nutorbits.automorphisms.PermutationGroup.__dict__["from_generators"]
    tracer = Tracer()
    tracer.install()
    try:
        assert nutorbits.cli.is_nut is not before[1]["is_nut"]
        assert nutorbits.is_nut is nutorbits.cli.is_nut is nutorbits.constructions.is_nut
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert nutorbits.automorphisms.PermutationGroup.__dict__["from_generators"] is group_attr


def test_entry_points_cover_all_six_modules():
    layers = {name.split(".")[0] for name in entry_points().values()}
    assert layers == {"graphs", "linalg", "polynomials", "automorphisms", "constructions", "cli"}


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("linalg.is_nut", lambda: sum(range(20000)))
    outer = tracer.wrap("constructions.prop1_graph", lambda: inner() + inner())
    outer()
    (name, start, end, parent, child), first, second = tracer.spans
    assert first[3] == second[3] == 0 and parent == -1
    assert child == pytest.approx((first[2] - first[1]) + (second[2] - second[1]))
    metrics = tracer.layer_metrics()
    assert metrics["linalg.is_nut_calls"] == 2
    assert metrics["constructions.certify_calls"] == 2
    assert metrics["constructions.self_s"] == pytest.approx(end - start - child)


def test_traced_construct_counts():
    tracer = Tracer()
    tracer.install()
    try:
        cli_report(("construct", "--r", "3", "--k", "4"))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["linalg.is_nut_calls"] == metrics["constructions.certify_calls"] == 2
    assert metrics["linalg.order_cubed_sum"] == 10 ** 3 + 50 ** 3
    assert metrics["linalg.nullity_sum"] == 2
    assert metrics["automorphisms.generators"] > 0
    assert metrics["graphs.graph6_bytes"] > 0
    assert all(value >= -1e-9 for value in metrics.values())
