import ast
import concurrent.futures
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from itertools import combinations

import pytest
from oracles import complete_graph

import nutorbits
from nutorbits import (CirculantSpec, Graph, cayley_nut, circulant, read_graph6,
                       is_nut, orbit_census, write_graph6)
from nutorbits import cli, constructions
from nutorbits.cli import main
from nutorbits.constructions import FAMILIES
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


def test_check_file_of_undecodable_bytes_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\xff\xfeC~")
    code, _, err = run_cli(capsys, "check", "--file", str(path))
    assert code == 2
    assert "input error" in err and "byte offset 0" in err


def _run_check_process(*argv, stdin=b""):
    """``nutorbits check`` in a fresh interpreter whose standard streams
    decode strictly as UTF-8, as under a UTF-8 locale."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "nutorbits.cli", "check", *argv],
                          input=stdin, env=env, capture_output=True)


def test_check_stdin_and_file_read_undecodable_bytes_alike(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"A\xff\n")
    for argv, stdin in (((), b"A\xff\n"), (("-",), b"A\xff\n"),
                        (("--file", str(path)), b"")):
        result = _run_check_process(*argv, stdin=stdin)
        assert result.returncode == 2 and result.stdout == b""
        assert b"'\\udcff' outside graph6 range (byte offset 1)" in result.stderr


def test_check_refuses_a_graph6_string_with_file(tmp_path):
    path = tmp_path / "k2.g6"
    path.write_text(write_graph6(complete_graph(2)) + "\n")
    result = _run_check_process(write_graph6(complete_graph(4)), "--file", str(path))
    assert result.returncode == 3 and result.stdout == b""
    assert b"not both" in result.stderr


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


def _wrong_aut_order(monkeypatch):
    """Make every construction's census report twice its group order."""
    census = constructions.orbit_census

    def doubled(g, seeds=()):
        right = census(g, seeds)
        return right._replace(aut_order=2 * right.aut_order)

    monkeypatch.setattr(constructions, "orbit_census", doubled)


def test_construct_exits_1_on_a_verification_failure(capsys, monkeypatch):
    _wrong_aut_order(monkeypatch)
    code, out, err = run_cli(capsys, "construct", "--variant", "prop1", "--k", "2")
    assert code == 1 and out == ""
    assert err.startswith("verification failure: construction ")
    assert "has |Aut| = 40, expected 20" in err


def test_construct_exits_1_on_a_seed_that_breaks_an_edge(capsys, swapped_chain_lift):
    code, out, err = run_cli(capsys, "construct", "--r", "3", "--k", "5")
    assert code == 1 and out == ""
    assert err.startswith("verification failure:")


def test_sweep_prints_failure_rows_and_exits_1(capsys, monkeypatch):
    _wrong_aut_order(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", "--suite", "prop1", "--k", "2")
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    assert [list(row) for row in rows] == [["suite", "params", "verified", "error"]] * 2
    assert [row["params"] for row in rows] == [[2, 5], [2, 7]]
    assert all(row["suite"] == "prop1" and row["verified"] is False
               and "|Aut| = " in row["error"] for row in rows)
    assert "2 instances, 2 failures" in err


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

    # the sweep imports the pool only when it starts workers, so the import
    # picks up this replacement
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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
    monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("a build ran"))
    code, out, err = run_cli(capsys, "sweep", "--suite", "circulant-cross",
                             "--nmax", "26")
    assert code == 4 and out == ""
    assert "capped at nmax = 24" in err


def test_sweep_cap_refusal_names_a_single_k(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("a build ran"))
    code, out, err = run_cli(capsys, "sweep", "--suite", "prop1", "--k", "12")
    assert code == 4 and out == ""
    assert "capped at k = 10" in err and "kmax" not in err


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


def test_check_unreadable_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", "--file", str(tmp_path / "missing.g6"))
    assert code == 2 and out == ""
    assert err.startswith("input error: [Errno 2] ")


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


def _refuse_base(k, p=None):
    raise AssertionError("base built")


# the base of cayley_nut(k) has order n = 2p for even k, 4p for odd k >= 5;
# its smallest edge orbit holds n edges for even k and n / 2 for odd k, so
# the subdivided order is at least n (1 + 4t) or n (1 + 2t)
@pytest.mark.parametrize("argv, bound", [
    (("--r", "3", "--k", "2000"), 20030),  # p = 2003
    (("--variant", "subdiv", "--k", "1998", "--t", "1"), 20030),
    (("--r", "3", "--k", "1300"), 13010),  # p = 1301
    (("--variant", "subdiv", "--k", "1364", "--t", "1"), 13670),  # p = 1367
    (("--variant", "subdiv", "--k", "660", "--t", "1"), 6730),  # p = 673
    (("--variant", "subdiv", "--k", "169", "--t", "1", "--orbit", "999"), 4164),  # p = 347
    (("--variant", "subdiv", "--k", "3000", "--t", "1"), 6004),  # the base alone, p >= 3002
])
def test_subdivision_refuses_an_over_cap_order_before_building_its_base(
        capsys, monkeypatch, argv, bound):
    monkeypatch.setattr(constructions, "cayley_nut", _refuse_base)
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 4 and out == ""
    assert f"order at least {bound} exceeds the order cap of {MAX_ORDER}" in err


@pytest.mark.parametrize("argv, message", [
    (("--variant", "subdiv", "--k", "1364", "--t", "0"), "t must be a positive integer, got 0"),
    (("--variant", "subdiv", "--k", "400", "--t", "1", "--orbit", "999"),
     "orbit index 999 out of range for 400 edge orbits"),
])
def test_subdivision_refuses_t_and_orbit_before_building_its_base(
        capsys, monkeypatch, argv, message):
    monkeypatch.setattr(constructions, "cayley_nut", _refuse_base)
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 3 and out == ""
    assert message in err


def test_subdivision_refuses_an_explicit_orbit_from_its_size(capsys, monkeypatch):
    # p = 211, n = 844: orbit 1 holds n edges, so the output has 844 * 5 = 4220 vertices
    monkeypatch.setattr(constructions, "cayley_nut", _refuse_base)
    code, out, err = run_cli(capsys, "construct", "--variant", "subdiv", "--k", "101",
                             "--t", "1", "--orbit", "1")
    assert code == 4 and out == ""
    assert f"order 4220 exceeds the order cap of {MAX_ORDER}" in err


def test_subdivision_at_the_cap_builds_its_base(monkeypatch):
    # p = 409: the output order is 818 * 5 = 4090, under the cap; p = 211:
    # orbit 0 holds n / 2 = 422 edges, so the output order is 844 * 3 = 2532
    monkeypatch.setattr(constructions, "cayley_nut", _refuse_base)
    for args in (("--k", "400", "--t", "1"), ("--k", "101", "--t", "1", "--orbit", "0")):
        with pytest.raises(AssertionError, match="base built"):
            main(["construct", "--variant", "subdiv", *args])


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


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite, family in FAMILIES.items() if family.sweep
    for flag in ("k", "kmax", "nmax", "tmax", "primes")])
def test_sweep_flags_follow_from_the_family_row(capsys, monkeypatch, suite, flag):
    # a suite reads --<var>max, and a prime family --k and --primes too
    family = FAMILIES[suite]
    sweep = family.sweep
    reads = {sweep.var + "max"} | ({"k", "primes"} if family.prime_floor else set())
    bound = cli._parser().parse_args(["sweep", "--suite", suite, f"--{sweep.var}max", "9"])
    assert getattr(bound, sweep.var + "max") == 9
    value = "1" if flag == "primes" else str(sweep.first)
    argv = ["sweep", "--suite", suite, f"--{flag}", value]
    if flag in reads:
        # the flag narrows the default range, or the primes per value, to one
        default = cli._sweep_instances(cli._parser().parse_args(argv[:3]))
        tasks = cli._sweep_instances(cli._parser().parse_args(argv))
        assert tasks and tasks != default
    else:
        monkeypatch.setattr(cli, "_sweep_task", lambda task: pytest.fail("a build ran"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert f"{suite} sweep does not read --{flag}" in err


def test_sweep_timings_add_seconds_as_the_last_key(capsys):
    argv = ("sweep", "--suite", "prop1", "--kmax", "4")
    _, plain, _ = run_cli(capsys, *argv)
    code, timed, _ = run_cli(capsys, *argv, "--timings")
    assert code == 0
    plain_rows = [json.loads(line) for line in plain.splitlines()]
    timed_rows = [json.loads(line) for line in timed.splitlines()]
    assert len(timed_rows) == len(plain_rows) == 4
    for plain_row, row in zip(plain_rows, timed_rows):
        assert list(row) == list(plain_row) + ["seconds"]
        seconds = row.pop("seconds")
        assert row == plain_row
        assert seconds >= 0 and round(seconds, 3) == seconds


def test_sweep_human_prints_key_value_pairs_in_row_order(capsys):
    argv = ("sweep", "--suite", "prop1", "--kmax", "4")
    _, plain, _ = run_cli(capsys, *argv)
    code, human, _ = run_cli(capsys, *argv, "--human")
    assert code == 0
    rows = [json.loads(line) for line in plain.splitlines()]
    lines = human.splitlines()
    assert len(lines) == len(rows) == 4
    assert lines[0] == ("suite=prop1  k=2  p=5  order=10  census=[1, 2, 2]  "
                        "aut_order=20  verified=True")
    for line, row in zip(lines, rows):
        pairs = [pair.split("=", 1) for pair in line.split("  ")]
        assert [key for key, _ in pairs] == list(row)
        assert [value for _, value in pairs] == [str(value) for value in row.values()]


def test_no_source_file_reads_the_environment():
    src = pathlib.Path(cli.__file__).parents[1]
    readers = [f"{path.relative_to(src)}:{number}"
               for path in sorted(src.rglob("*.py"))
               for number, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"environ|getenv", line)]
    assert readers == []


def test_every_source_import_is_stdlib_or_nutorbits():
    allowed = sys.stdlib_module_names | {"nutorbits"}
    outside = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["nutorbits" if node.level else node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []


def test_package_exports_are_exactly_its_public_names():
    # a name deleted from a module but left in __all__ fails to resolve; a
    # public function or class bound in the package must be listed
    assert [name for name in nutorbits.__all__ if not hasattr(nutorbits, name)] == []
    bound = {name for name, obj in vars(nutorbits).items()
             if not name.startswith("_") and callable(obj)}
    assert bound - set(nutorbits.__all__) == set()
    assert len(nutorbits.__all__) == len(set(nutorbits.__all__))


def test_public_surface_is_pinned():
    # the names the CLI, the builders and the two realizability statements
    # use; a helper only the tests need belongs in tests/oracles.py
    assert nutorbits.__all__ == [
        "AbelianCayleySpec", "CirculantSpec", "Graph",
        "Graph6ParseError", "HypothesisError", "InputError",
        "NotCoveredByThisPaper", "NotRealizable", "NutVerdict", "OrbitCensus",
        "Permutation", "PermutationGroup", "ResourceCapError", "SpecificationError",
        "VerificationError", "VerifiedNut",
        "automorphism_group", "cayley_abelian", "cayley_nut",
        "cayley_nut_edge_orbits", "circulant", "circulant_is_nut_symbolic",
        "construct_with_orbits", "cyclotomic", "fig3_graph", "is_nut",
        "nut_realizable", "orbit_census", "primes_from", "prop1_graph",
        "prop2_graph", "prop3_graph", "read_graph6", "stabilizer",
        "subdivide_edges", "subdivided_nut", "vanishing_subgroups", "write_dot",
        "write_graph6",
    ]


def test_oracles_import_only_graph_from_the_package():
    # the oracles share no code with the paths they check
    path = pathlib.Path(__file__).with_name("oracles.py")
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nutorbits"):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.startswith("nutorbits")]
    assert imported == [("nutorbits", "Graph")]


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


def _modules_after_importing_the_cli() -> set[str]:
    """The modules a fresh interpreter holds after importing the package
    and its CLI."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, nutorbits, nutorbits.cli; print(*sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_fractions():
    assert "fractions" not in _modules_after_importing_the_cli()


def test_importing_the_cli_loads_no_process_pool():
    loaded = _modules_after_importing_the_cli()
    assert "nutorbits.cli" in loaded
    assert not {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli._parser() is cli._parser()
    g6 = write_graph6(circulant(CirculantSpec(10, {1, 2})))
    _, pretty, _ = run_cli(capsys, "check", "--pretty", g6)
    _, plain, _ = run_cli(capsys, "check", g6)
    assert len(pretty.splitlines()) > 1 and len(plain.splitlines()) == 1

    code, out, _ = run_cli(capsys, "construct", "--variant", "fig3")
    assert code == 0 and json.loads(out)["params"] == {"variant": "fig3"}
    code, out, _ = run_cli(capsys, "construct", "--r", "3", "--k", "5")
    assert code == 0 and json.loads(out)["params"] == {"r": 3, "k": 5}

    with pytest.raises(SystemExit) as exc:
        main(["check", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, again, _ = run_cli(capsys, "check", g6)
    assert _report_digest(again) == _report_digest(plain)


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
    "K8": (8, list(combinations(range(8), 2))),
    "K4,6": (10, [(i, 4 + j) for i in range(4) for j in range(6)]),
}


def _report_digest(out: str, reports: int = 1) -> str:
    """SHA-256 of ``reports`` reports, one-line or indented, with their
    timing_ms entries removed."""
    stripped, count = re.subn(r',\s*"timing_ms": ?[0-9.]+', "", out)
    assert count == reports
    return hashlib.sha256(stripped.encode()).hexdigest()


# The byte-identity corpus.  Frozen output bytes, timings aside: any change
# in orbit membership or order, in a kernel, or in any other byte fails
# here, under the name of the output that moved.  The check reports cover
# the census-symmetric benchmark graphs in two relabellings each.
@pytest.mark.parametrize("name, seed, digest", [
    ("Petersen", 1, "6af2d591996d769d67920406256927b6ab019a4a3cda363e86ff50dc5dd9e50f"),
    ("Petersen", 2, "4f6a3b37f2b8d789cc55faa1f96df7a97c7963cf525b97d84bf3d0cef160397f"),
    ("C40", 1, "27d0ee553f79c2da556dbfcb006a49fe312ee6cdd7750e109681ed520b6920c3"),
    ("C40", 2, "271704b9577debfecdae97c3c90aeb31c6de230601ff7979a2495346c30614f5"),
    ("K5,5", 1, "c55808449e017dbfdb490c24200c8b47939bacf31ab4b1d35490825fe203b4a9"),
    ("K5,5", 2, "3bf6633f33e72c199adb75ad3c05cfb9a6072fd9e04a92011e1fef5ddf379b3e"),
    ("K8", 1, "f0f7dc39b9fb598178cebfbd5dc4176115b9b49837867acd4686a3a18bdd5926"),
    ("K8", 2, "f0f7dc39b9fb598178cebfbd5dc4176115b9b49837867acd4686a3a18bdd5926"),  # = K8
    ("K4,6", 1, "3403daa5b341f8025d761ea3de5746b6b96f16ec86f609122705f10385a2773b"),
    ("K4,6", 2, "61e8e6fa0ab13971e1e673ad7b6fc94cdeed69ce4c1662f32f943f6d20cc76e4"),
])
def test_check_report_bytes_are_pinned(capsys, name, seed, digest):
    g = _relabelled(*_PINNED_GRAPHS[name], seed)
    code, out, _ = run_cli(capsys, "check", write_graph6(g))
    assert code == 0
    assert _report_digest(out) == digest


# Every construct form with its defaults, then the construct-ladder argvs
# (its fig3 rung is the fig3 form's).
_CONSTRUCT_CORPUS = [
    (("--r", "3", "--k", "5"),
     "f9951f1d08010240ca9ee50142e00f84eec160627778a3079ae0fba3953db983"),
    (("--variant", "subdiv", "--k", "2", "--t", "1"),
     "c06917bbd15a249abd4fd5a23643f54a33e1ffe5ae6ecca9bf3fa980400ca9ef"),
    (("--variant", "prop1", "--k", "2"),
     "5522cdbff750a7fbd7188852eebd7335b05d4fed9e7dc3910f7eb52f1ee5f032"),
    (("--variant", "prop2", "--k", "5"),
     "85f078a59735353dac8829da50fb7a241a73988c57dc676809d5761ec5e8622f"),
    (("--variant", "prop3", "--n", "5"),
     "b10062f394f2d51ed96b9e73472248fc975a9effbcc438b3d31e7a94f397ea12"),
    (("--variant", "fig3"),
     "dda09c591b134942d04c30c988dfb7eae8de3e414bfe5d86946ec06a51816eb4"),
    (("--r", "1", "--k", "12"),
     "d20ac28198efd54098846a877df646483216598d26e7fa21a02b8740a94e601c"),
    (("--r", "3", "--k", "8"),
     "1bd5582346bbe2dcbc840b8461e1589156911d6315d0b10c55d4eec93ad4dc55"),
    (("--r", "9", "--k", "10"),
     "b324486ecbd287b048a490b84d6e04160f840708e8f34bcdf166cd7876f5429d"),
    (("--r", "21", "--k", "22"),
     "df7fb6518655171250d28ff864f87710df9f2ea9b59e2e8a7c8417cfc0c656fd"),
    (("--r", "31", "--k", "32"),
     "170c02d41bcdfd6bd4c882a2462338660fa5d24d06f42e284577a2180fa6a5b0"),
    (("--variant", "prop2", "--k", "9", "--p", "19"),
     "ed1dd8a774436c69bfb36de9b2b53efb6d462ca2f42440f3c3be3b797088ae83"),
    (("--variant", "prop3", "--n", "13"),
     "9090e1af2cd4cde3d3279a470d19269e67fc2bcbfd55b26e2d8d702682f122c6"),
]


@pytest.mark.parametrize("argv, digest", _CONSTRUCT_CORPUS)
def test_construct_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    assert _report_digest(out) == digest


@pytest.mark.parametrize("argv", [argv for argv, _ in _CONSTRUCT_CORPUS])
def test_report_provenance_is_the_builders_dict(capsys, monkeypatch, argv):
    built = []

    def recorded(form, **params):
        built.append(constructions.build(form, **params))
        return built[0]

    monkeypatch.setattr(cli, "build", recorded)
    code, out, _ = run_cli(capsys, "construct", *argv)
    assert code == 0
    provenance = json.loads(out)["provenance"]
    assert provenance == built[0].provenance
    # the same keys in the same order, which the report's bytes depend on
    assert json.dumps(provenance) == json.dumps(built[0].provenance)
    if provenance["variant"] == "subdivided":
        assert list(provenance) == ["variant", "k", "t", "orbit_index", "base"]
        assert provenance["base"] == cayley_nut(provenance["k"]).provenance


# The tables and indented JSON, with a kernel of one vector and of two.
@pytest.mark.parametrize("argv, digest", [
    (("check", "--human", write_graph6(_relabelled(*_PINNED_GRAPHS["C40"], 1))),
     "acb21f1381482fe575708c2affe63742c912c57a595d1d8d2649b06e46de183c"),
    (("construct", "--human", "--r", "3", "--k", "5"),
     "3d9a98032e3eb84db5c32c50fd6e2349798b8b9dd8df654dd9b991eda6561cc0"),
    (("construct", "--pretty", "--variant", "fig3"),
     "948159572d4c27a21dd8b17017b725af39b76202e2c075fb01237c3cd1ec809d"),
])
def test_human_and_pretty_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if "--pretty" in argv:
        assert _report_digest(out) == digest
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_construct_out_file_bytes_are_pinned(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "construct", "--variant", "fig3",
                         "--out", str(tmp_path / "out"))
    assert code == 0
    digests = {ext: hashlib.sha256((tmp_path / f"out.{ext}").read_bytes()).hexdigest()
               for ext in ("g6", "dot")}
    assert digests == {
        "g6": "ec52fc404ff57e5ba57b93f24bbd52e0f94292e4875392ec65bc233902d8c988",
        "dot": "1b6da552c5706a507fd56feee2e98ece884b71ca2b1035a79925521b521fcc53",
    }


def test_check_pretty_bytes_are_pinned(capsys):
    g6 = write_graph6(_relabelled(*_PINNED_GRAPHS["Petersen"], 1))
    code, out, _ = run_cli(capsys, "check", "--pretty", g6)
    assert code == 0
    assert _report_digest(out) == (
        "857f9e51fe90ff72b7acbdade41210cb2d9b9fee0da7f5d079f286f256f6314e")


def test_check_file_bytes_are_pinned(tmp_path, capsys):
    # two graph6 lines with a blank line between them: two reports
    path = tmp_path / "two.g6"
    path.write_text(write_graph6(_relabelled(*_PINNED_GRAPHS["K5,5"], 1)) + "\n\n"
                    + write_graph6(_relabelled(*_PINNED_GRAPHS["C40"], 2)) + "\n")
    code, out, _ = run_cli(capsys, "check", "--file", str(path))
    assert code == 0
    assert _report_digest(out, reports=2) == (
        "240cd0985b2d7a5e3654492724f8589d977a96544b978f531f5104e79420e965")


# The default sweep of each suite; rows carry no timings by default.
@pytest.mark.parametrize("suite, digest", [
    ("prop1", "5ed742c4ece169e52d9b1715fc5ceb618bae87afabcb9d43049bead11c8451d9"),
    ("prop2", "911f61bd32216a86bb5315dc3edde56a8797b5a09035f0998527a697acd821db"),
    ("prop3", "a8e8fe2c4c71e1fe892854438cf3225f386d9ccd8c8d0fa8e65b7b8780b9a5d6"),
    ("subdiv", "1d826e917084c01e042a370961408fb9b89e7da55e90bb89b6613f7e305e50af"),
    ("circulant-cross", "d06ee659702cc17d04847de8e676eda2b6beaaced2529aeb525a14e8f51800b7"),
])
def test_sweep_output_bytes_are_pinned(capsys, suite, digest):
    code, out, _ = run_cli(capsys, "sweep", "--suite", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cross_oracle_verdicts_and_kernels_are_pinned():
    # every even n <= 18 and every offset set of {1..n/2}: the 1013 specs
    # of the cross-oracle benchmark workload
    digest = hashlib.sha256()
    specs = 0
    for n in range(2, 19, 2):
        pool = range(1, n // 2 + 1)
        for size in range(1, len(pool) + 1):
            for offsets in combinations(pool, size):
                v = is_nut(circulant(CirculantSpec(n, offsets)))
                digest.update(repr((n, offsets, v.is_nut, v.nullity, v.is_full,
                                    v.kernel_basis)).encode())
                specs += 1
    assert specs == 1013
    assert digest.hexdigest() == "85a87f42c60af39b06623808ee8abbc703cea11ef001e9fea58cc914405db653"
