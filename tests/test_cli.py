import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from itertools import combinations

import pytest

from nutorbits import (CirculantSpec, Graph, circulant, complete_graph,
                       read_graph6, is_nut, orbit_census, write_graph6)
from nutorbits import cli
from nutorbits.cli import main
from nutorbits.graphs import MAX_ORDER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_nut_and_census(capsys):
    g6 = write_graph6(circulant(CirculantSpec(10, {1, 2})))
    code, out, _ = run_cli(capsys, "check", g6)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "nutorbits-report/1"
    assert report["nut"]["is_nut"] is True
    assert report["nut"]["kernel"] == [[1, -1, 1, -1, 1, -1, 1, -1, 1, -1]]
    assert (report["census"]["o_v"], report["census"]["o_e"],
            report["census"]["o_a"]) == (1, 2, 2)
    assert report["census"]["aut_order"] == 20


def test_check_k4_is_not_nut(capsys):
    code, out, _ = run_cli(capsys, "check", write_graph6(complete_graph(4)))
    assert code == 0
    report = json.loads(out)
    assert report["nut"]["is_nut"] is False and report["nut"]["nullity"] == 0


def test_check_malformed_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "A!")
    assert code == 2
    assert "byte offset" in err


def test_check_reads_files_and_multiple_lines(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text(write_graph6(complete_graph(2)) + "\n"
                    + write_graph6(complete_graph(4)) + "\n")
    code, out, _ = run_cli(capsys, "check", "--file", str(path))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["graph"]["order"] for r in rows] == [2, 4]


def test_report_round_trips_through_graph6(capsys):
    code, out, _ = run_cli(capsys, "construct", "--variant", "prop1",
                           "--k", "2", "--p", "5")
    assert code == 0
    report = json.loads(out)
    g = read_graph6(report["graph"]["graph6"])
    verdict = is_nut(g)
    census = orbit_census(g)
    assert verdict.is_nut == report["nut"]["is_nut"]
    assert verdict.nullity == report["nut"]["nullity"]
    assert [census.o_v, census.o_e, census.o_a] == [
        report["census"]["o_v"], report["census"]["o_e"], report["census"]["o_a"]]
    assert census.aut_order == report["census"]["aut_order"]


def test_construct_dispatch_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "construct", "--r", "3", "--k", "5")
    assert code == 0
    report = json.loads(out)
    assert report["census"]["o_v"] == 3 and report["census"]["o_e"] == 5

    code, _, err = run_cli(capsys, "construct", "--r", "3", "--k", "3")
    assert code == 3 and "k >= r + 1" in err

    code, _, err = run_cli(capsys, "construct", "--r", "2", "--k", "5")
    assert code == 3 and "prior construction" in err

    code, _, err = run_cli(capsys, "construct", "--variant", "prop1",
                           "--k", "2", "--p", "4")
    assert code == 3

    code, _, err = run_cli(capsys, "construct")
    assert code == 3


def test_construct_writes_graph_files(tmp_path, capsys):
    base = tmp_path / "out"
    code, out, _ = run_cli(capsys, "construct", "--variant", "fig3",
                           "--out", str(base))
    assert code == 0
    g6 = (tmp_path / "out.g6").read_text().strip()
    assert read_graph6(g6).n == 12
    dot = (tmp_path / "out.dot").read_text()
    assert dot.startswith("graph G {") and dot.count("--") == 48
    # one color per edge orbit
    report = json.loads(out)
    assert report["census"]["o_e"] == 5
    assert len({line.split('color="')[1] for line in dot.splitlines()
                if 'color="' in line}) == 5


def test_construct_subdiv_variant(capsys):
    code, out, _ = run_cli(capsys, "construct", "--variant", "subdiv",
                           "--k", "2", "--t", "1")
    assert code == 0
    report = json.loads(out)
    assert report["census"]["o_v"] == 3
    assert report["provenance"]["variant"] == "subdivided"
    assert report["provenance"]["base"]["variant"] == "prop1"


def test_sweep_prop1_six_rows(capsys):
    code, out, err = run_cli(capsys, "sweep", "--suite", "prop1", "--kmax", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 6
    assert all(row["verified"] for row in rows)
    assert "0 failures" in err


def test_sweep_prop2_single_k(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--suite", "prop2", "--k", "5",
                           "--primes", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1 and rows[0]["order"] == 44 and rows[0]["verified"]


def test_sweep_cross_agrees_everywhere(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--suite", "circulant-cross",
                           "--nmax", "10")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 57   # sum over even n <= 10 of 2^(n/2) - 1
    assert all(row["symbolic"] == row["nullspace"] for row in rows)


def test_sweep_jobs_output_is_byte_identical(capsys):
    _, seq, _ = run_cli(capsys, "sweep", "--suite", "circulant-cross", "--nmax", "8")
    _, par, _ = run_cli(capsys, "sweep", "--suite", "circulant-cross", "--nmax", "8",
                        "--jobs", "3")
    assert seq == par


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the sweep's process pool by one that maps in this process;
    records each pool's max_workers."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("jobs, cpus, workers", [
    # circulant-cross up to n = 8 has 26 tasks, 4 chunks of 8
    ("5000", 64, [4]), ("3", 64, [3]), ("5000", 2, [2]), ("5000", None, []),
])
def test_sweep_workers_bounded_by_cores_and_chunks(capsys, monkeypatch, pool_sizes,
                                                   jobs, cpus, workers):
    argv = ["sweep", "--suite", "circulant-cross", "--nmax", "8"]
    _, seq, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, par, _ = run_cli(capsys, *argv, "--jobs", jobs)
    assert code == 0 and par == seq
    assert pool_sizes == workers


def test_sweep_of_one_chunk_starts_no_pool(capsys, pool_sizes):
    code, out, _ = run_cli(capsys, "sweep", "--suite", "prop3", "--jobs", "5000")
    assert code == 0 and len(out.splitlines()) == 3
    assert pool_sizes == []


@pytest.mark.parametrize("suite, k", [("prop1", "2"), ("prop2", "5")])
def test_sweep_refuses_primes_past_the_order_cap_before_building(capsys, monkeypatch,
                                                                 suite, k):
    monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("a build ran"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--suite", suite, "--k", k,
                             "--primes", "400")
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert f"order cap of {MAX_ORDER}" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("a build ran"))
    code, out, err = run_cli(capsys, "sweep", "--suite", "prop3", "--jobs", jobs)
    assert code == 3 and out == ""
    assert "--jobs" in err


def test_sweep_cap_refusal(capsys, monkeypatch):
    monkeypatch.setenv("NUTORBITS_SWEEP_CAP", "6")
    code, _, err = run_cli(capsys, "sweep", "--suite", "circulant-cross",
                           "--nmax", "10")
    assert code == 4 and "capped" in err


def test_sweep_cap_bounds_the_largest_value_swept(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--suite", "prop3", "--nmax", "14")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == [5, 7, 9, 11, 13]


def test_check_human_output(capsys):
    g6 = write_graph6(circulant(CirculantSpec(10, {1, 2})))
    code, out, _ = run_cli(capsys, "check", g6, "--human")
    assert code == 0
    assert "is_nut         True" in out
    assert "o_v=1 o_e=2 o_a=2" in out


def test_check_order_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "?")
    assert code == 2 and out == ""
    assert "order 0" in err


def test_check_refuses_orders_above_the_cap(capsys):
    n = MAX_ORDER + 1
    header = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    edgeless = header + "?" * ((nbits + 5) // 6)
    # every bit set, then the padding bits of the last byte left clear
    complete = header + "~" * (nbits // 6)
    if nbits % 6:
        complete += chr(63 + (63 ^ (63 >> nbits % 6)))
    for text in (edgeless, complete):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "check", text)
        assert time.perf_counter() - start < 1.0
        assert code == 4 and out == ""
        assert f"cap of {MAX_ORDER}" in err


@pytest.mark.parametrize("suite, bound, value", [
    ("prop1", "--kmax", "1"), ("prop2", "--kmax", "3"), ("prop3", "--nmax", "3"),
    ("prop1", "--kmax", "0"), ("prop3", "--nmax", "0"), ("subdiv", "--tmax", "0"),
    ("prop1", "--primes", "0"), ("prop1", "--primes", "-1"),
])
def test_sweep_empty_range_exits_3(capsys, suite, bound, value):
    code, out, err = run_cli(capsys, "sweep", "--suite", suite, bound, value)
    assert code == 3 and out == ""
    assert "empty" in err


def test_sweep_k_zero_fails_the_family_hypothesis(capsys):
    code, out, err = run_cli(capsys, "sweep", "--suite", "prop1", "--k", "0")
    assert code == 3 and out == ""
    assert "k must be even" in err


@pytest.mark.parametrize("variable, argv", [
    ("NUTORBITS_SWEEP_CAP", ("sweep", "--suite", "prop1", "--kmax", "2")),
])
def test_non_integer_cap_exits_2(capsys, monkeypatch, variable, argv):
    monkeypatch.setenv(variable, "x")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert variable in err


@pytest.mark.parametrize("argv, unread", [
    (("--r", "3", "--k", "5", "--p", "7"), "--p"),
    (("--r", "3", "--k", "5", "--t", "1", "--orbit", "0"), "--t, --orbit"),
    (("--variant", "fig3", "--k", "9"), "--k"),
    (("--variant", "prop3", "--n", "7", "--p", "11", "--t", "3"), "--p, --t"),
    (("--variant", "prop1", "--k", "2", "--n", "5"), "--n"),
    (("--variant", "prop2", "--k", "5", "--orbit", "1"), "--orbit"),
    (("--variant", "subdiv", "--k", "2", "--t", "1", "--n", "5"), "--n"),
])
def test_construct_rejects_unread_flags(capsys, argv, unread):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 3 and out == ""
    assert f"does not read {unread}" in err


@pytest.mark.parametrize("argv, message", [
    (("--r", "3"), "dispatch needs --k"),
    (("--variant", "prop3"), "prop3 needs --n"),
    (("--variant", "subdiv", "--k", "2"), "subdiv needs --t"),
    (("--variant", "subdiv"), "subdiv needs --k, --t"),
    (("--k", "5"), "exactly one of --r (with --k) and --variant"),
    (("--r", "3", "--k", "5", "--variant", "fig3"), "exactly one of --r (with --k) and --variant"),
])
def test_construct_names_missing_flags(capsys, argv, message):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ("--variant", "prop1", "--k", "2", "--p", "2053"),
    ("--variant", "prop2", "--k", "5", "--p", "1031"),
    ("--variant", "prop1", "--k", str(10 ** 20)),
    ("--variant", "prop3", "--n", "513"),
    ("--variant", "subdiv", "--k", "2", "--t", "200"),
    ("--r", "207", "--k", "208"),
])
def test_construct_refuses_orders_above_the_cap(capsys, argv):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 4 and out == ""
    assert f"cap of {MAX_ORDER}" in err


@pytest.mark.parametrize("argv, unread", [
    (("prop3", "--k", "5"), "--k"),
    (("subdiv", "--k", "4"), "--k"),
    (("prop1", "--nmax", "9"), "--nmax"),
    (("subdiv", "--primes", "5"), "--primes"),
    (("circulant-cross", "--kmax", "4", "--tmax", "2"), "--kmax, --tmax"),
    (("prop1", "--k", "2", "--kmax", "8"), "--kmax"),
])
def test_sweep_rejects_unread_flags(capsys, argv, unread):
    code, out, err = run_cli(capsys, "sweep", "--suite", *argv)
    assert code == 3 and out == ""
    assert f"does not read {unread}" in err


@pytest.mark.parametrize("k, t", [(k, t) for k in (2, 3, 4, 5) for t in (1, 2)])
def test_subdiv_variant_agrees_with_the_dispatch(capsys, k, t):
    _, variant, _ = run_cli(capsys, "construct", "--variant", "subdiv",
                            "--k", str(k), "--t", str(t))
    _, dispatch, _ = run_cli(capsys, "construct", "--r", str(2 * t + 1),
                             "--k", str(k + 2 * t))
    variant, dispatch = json.loads(variant), json.loads(dispatch)
    for key in ("graph", "census", "provenance"):
        assert variant[key] == dispatch[key]
    assert variant["provenance"]["t"] == t


@pytest.mark.parametrize("g, aut_order", [
    (complete_graph(10), 3628800),
    (Graph(12, tuple((i, j) for i in range(6) for j in range(6, 12))), 1036800),
])
def test_check_answers_groups_above_a_million(capsys, g, aut_order):
    code, out, _ = run_cli(capsys, "check", write_graph6(g))
    assert code == 0
    census = json.loads(out)["census"]
    assert (census["o_v"], census["o_e"], census["o_a"]) == (1, 1, 1)
    assert census["aut_order"] == aut_order


def test_sweep_streams_rows_before_a_later_task_fails(capsys, monkeypatch):
    task = cli._sweep_task
    calls = []

    def fail_on_second(t):
        calls.append(t)
        if len(calls) == 2:
            raise RuntimeError("second task fails")
        return task(t)

    monkeypatch.setattr(cli, "_sweep_task", fail_on_second)
    with pytest.raises(RuntimeError, match="second task fails"):
        main(["sweep", "--suite", "prop3", "--nmax", "9"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 1
    assert (rows[0]["suite"], rows[0]["n"], rows[0]["verified"]) == ("prop3", 5, True)


def test_importing_the_cli_loads_no_fractions():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, nutorbits.cli; print('fractions' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def _relabelled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


_PETERSEN_PAIRS = list(combinations(range(5), 2))
_PINNED_GRAPHS = {
    "Petersen": (10, [(i, j) for i, j in combinations(range(10), 2)
                      if not set(_PETERSEN_PAIRS[i]) & set(_PETERSEN_PAIRS[j])]),
    "C40": (40, [(i, (i + 1) % 40) for i in range(40)]),
    "K5,5": (10, [(i, 5 + j) for i in range(5) for j in range(5)]),
}


def _report_digest(out: str) -> str:
    """SHA-256 of a one-line report with its timing_ms entry removed."""
    stripped, count = re.subn(r',"timing_ms":[0-9.]+', "", out)
    assert count == 1
    return hashlib.sha256(stripped.encode()).hexdigest()


# Frozen report bytes: any change in orbit membership or order, or in any
# other byte but timing_ms, fails here.
@pytest.mark.parametrize("name, seed, digest", [
    ("Petersen", 1, "6af2d591996d769d67920406256927b6ab019a4a3cda363e86ff50dc5dd9e50f"),
    ("Petersen", 2, "4f6a3b37f2b8d789cc55faa1f96df7a97c7963cf525b97d84bf3d0cef160397f"),
    ("C40", 1, "27d0ee553f79c2da556dbfcb006a49fe312ee6cdd7750e109681ed520b6920c3"),
    ("C40", 2, "271704b9577debfecdae97c3c90aeb31c6de230601ff7979a2495346c30614f5"),
    ("K5,5", 1, "c55808449e017dbfdb490c24200c8b47939bacf31ab4b1d35490825fe203b4a9"),
    ("K5,5", 2, "3bf6633f33e72c199adb75ad3c05cfb9a6072fd9e04a92011e1fef5ddf379b3e"),
])
def test_check_report_bytes_are_pinned(capsys, name, seed, digest):
    g = _relabelled(*_PINNED_GRAPHS[name], seed)
    code, out, _ = run_cli(capsys, "check", write_graph6(g))
    assert code == 0
    assert _report_digest(out) == digest


@pytest.mark.parametrize("argv, digest", [
    (("--r", "3", "--k", "5"),
     "f9951f1d08010240ca9ee50142e00f84eec160627778a3079ae0fba3953db983"),
    (("--variant", "subdiv", "--k", "2", "--t", "1"),
     "c06917bbd15a249abd4fd5a23643f54a33e1ffe5ae6ecca9bf3fa980400ca9ef"),
])
def test_construct_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    assert _report_digest(out) == digest
