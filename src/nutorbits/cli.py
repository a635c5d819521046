"""Command-line front end: check graphs, construct verified nut graphs, and
run verification sweeps.

JSON is the single machine format (one object per line); DOT output and the
--human tables are presentational.  Exit codes: 0 success, 1 verification
failure, 2 input error, 3 hypothesis/realizability rejection, 4 resource cap.

Sweep rows never include timings unless --timings is passed, so sweep output
is byte-identical for any --jobs value; per-run timing always goes to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import ExitStack
from typing import Optional

from . import __version__
from .automorphisms import OrbitCensus, orbit_census
from .constructions import FAMILIES, build
from .errors import (HypothesisError, InputError, NotCoveredByThisPaper,
                     NotRealizable, ResourceCapError, SpecificationError,
                     VerificationError)
from .graphs import CirculantSpec, Graph, circulant, read_graph6, write_dot, write_graph6
from .linalg import NutVerdict, is_nut
from .polynomials import circulant_is_nut_symbolic

SCHEMA = "nutorbits-report/1"
SWEEP_CHUNK = 8  # sweep tasks handed to a worker at a time
# the construct flags, in the order a report's params lists them
CONSTRUCT_FLAGS = ("r", "k", "p", "n", "t", "variant", "orbit")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_CAP = 4


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# The kernel and the orbits go to json.dumps as the tuples they are
# computed as; it writes tuples as arrays, as it writes lists.
def _report(command: str, params: dict, graph: Graph, verdict: NutVerdict,
            census: OrbitCensus, provenance: Optional[dict],
            elapsed: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "graph": {"order": graph.n, "size": graph.size,
                  "degree_sequence": graph.degree_sequence(),
                  "graph6": write_graph6(graph)},
        "nut": {"is_nut": verdict.is_nut, "nullity": verdict.nullity,
                "is_full": verdict.is_full, "kernel": verdict.kernel_basis},
        "census": {"o_v": census.o_v, "o_e": census.o_e, "o_a": census.o_a,
                   "aut_order": census.aut_order,
                   "vertex_orbits": census.vertex_orbits,
                   "edge_orbits": census.edge_orbits,
                   "arc_orbits": census.arc_orbits},
        "provenance": provenance,
        "timing_ms": round(elapsed * 1000.0, 1),
    }


def _emit(obj: dict, pretty: bool) -> None:
    # a report or sweep row is a freshly built tree, never cyclic, so the
    # encoder's cycle check is skipped
    if pretty:
        print(json.dumps(obj, indent=2, check_circular=False))
    else:
        print(json.dumps(obj, separators=(",", ":"), check_circular=False))


def _human_summary(report: dict) -> str:
    g, nut, cen = report["graph"], report["nut"], report["census"]
    lines = [
        f"order          {g['order']}",
        f"size           {g['size']}",
        f"graph6         {g['graph6']}",
        f"is_nut         {nut['is_nut']}",
        f"nullity        {nut['nullity']}",
        f"orbit counts   o_v={cen['o_v']} o_e={cen['o_e']} o_a={cen['o_a']}",
        f"|Aut|          {cen['aut_order']}",
    ]
    kernel = [list(vec) for vec in nut["kernel"]]
    if kernel:
        lines.append(f"kernel         {kernel[0] if nut['nullity'] == 1 else kernel}")
    return "\n".join(lines)


def _print_report(report: dict, args) -> None:
    if args.human:
        print(_human_summary(report))
    else:
        _emit(report, args.pretty)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    if args.file and args.graph6 is not None:
        raise HypothesisError("check reads a graph6 string or --file, not both")
    if args.file or args.graph6 in (None, "-"):
        # One reader for a file and stdin.  graph6 is printable ASCII, so
        # every other byte becomes a lone surrogate that read_graph6
        # refuses at its byte offset.
        with open(args.file or sys.stdin.fileno(), encoding="ascii",
                  errors="surrogateescape", closefd=bool(args.file)) as fh:
            text = fh.read()
    else:
        text = args.graph6
    lines = [ln for ln in text.splitlines() if ln.strip()] or [text]
    for line in lines:
        start = time.perf_counter()
        g = read_graph6(line)
        if g.n == 0:
            raise InputError(f"graph {line.strip()!r} has order 0; "
                             "check needs at least one vertex")
        report = _report("check", {"input": line.strip()}, g, is_nut(g),
                         orbit_census(g), None, time.perf_counter() - start)
        _print_report(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    start = time.perf_counter()
    params = {key: getattr(args, key) for key in CONSTRUCT_FLAGS
              if getattr(args, key) is not None}
    if ("r" in params) == ("variant" in params):
        raise HypothesisError("pass exactly one of --r (with --k) and --variant")
    built = build(params.get("variant", "dispatch"),
                  **{key: value for key, value in params.items() if key != "variant"})
    report = _report("construct", params, *built, time.perf_counter() - start)
    if args.out:
        with open(args.out + ".g6", "w") as fh:
            fh.write(write_graph6(built.graph) + "\n")
        with open(args.out + ".dot", "w") as fh:
            fh.write(write_dot(built.graph, built.census.edge_orbits))
        print(f"wrote {args.out}.g6 and {args.out}.dot", file=sys.stderr)
    _print_report(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_instances(args) -> list[tuple]:
    suite = args.suite
    family = FAMILIES[suite]
    sweep = family.sweep
    flag = sweep.var + "max"
    # a prime family also reads --k and --primes; a single --k replaces the
    # range of k, so --kmax goes unread
    reads = {flag, "k", "primes"} if family.prime_floor else {flag}
    if args.k is not None:
        reads.discard("kmax")
    unread = [f"--{key}" for key in ("k", "kmax", "nmax", "tmax", "primes")
              if getattr(args, key) is not None and key not in reads]
    if unread:
        raise HypothesisError(f"{suite} sweep does not read {', '.join(unread)}")
    top = getattr(args, flag)
    values = [args.k] if args.k is not None else range(
        sweep.first, (sweep.default_max if top is None else top) + 1, sweep.step)
    if max(values, default=0) > sweep.cap:
        # name the flag that was passed: a single --k, or the range flag
        name = flag if args.k is None else "k"
        raise ResourceCapError(f"{suite} sweep capped at {name} = {sweep.cap}")
    primes = 2 if args.primes is None else max(args.primes, 0)
    tasks = [(suite, params) for value in values for params in sweep.cases(value, primes)]
    if not tasks:
        raise HypothesisError(f"{suite} sweep: the parameter range is empty")
    return tasks


def _sweep_task(task: tuple) -> dict:
    suite, params = task
    start = time.perf_counter()
    row = {"suite": suite, **params}
    try:
        if suite == "circulant-cross":
            symbolic = circulant_is_nut_symbolic(params["n"], params["S"])
            verdict = is_nut(circulant(CirculantSpec(params["n"], params["S"])))
            row.update(symbolic=symbolic, nullspace=verdict.is_nut,
                       verified=symbolic == verdict.is_nut)
        else:
            built = build(suite, **FAMILIES[suite].sweep.fixed, **params)
            row.update(order=built.graph.n, census=list(built.census.counts),
                       aut_order=built.census.aut_order, verified=True)
    except VerificationError as exc:
        row = {"suite": suite, "params": list(params.values()), "verified": False,
               "error": str(exc)}
    row["_seconds"] = time.perf_counter() - start
    return row


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise HypothesisError(f"--jobs must be at least 1, got {args.jobs}")
    tasks = _sweep_instances(args)
    start = time.perf_counter()
    failures = 0
    with ExitStack() as stack:
        # no more workers than cores, nor than chunks of tasks to hand out
        workers = min(args.jobs, os.cpu_count() or 1, -(-len(tasks) // SWEEP_CHUNK))
        if workers > 1:
            # imported here: the pool's modules cost every other call
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            rows = pool.map(_sweep_task, tasks, chunksize=SWEEP_CHUNK)
        else:
            rows = map(_sweep_task, tasks)
        # each row is printed as it arrives, in task order
        for row in rows:
            seconds = row.pop("_seconds")
            if args.timings:
                row["seconds"] = round(seconds, 3)
            if not row.get("verified", False):
                failures += 1
            if args.human:
                print("  ".join(f"{key}={value}" for key, value in row.items()))
            else:
                _emit(row, pretty=False)
    print(f"sweep {args.suite}: {len(tasks)} instances, {failures} failures, "
          f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; each parse returns a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="nutorbits",
        description="Exact construction and certification of nut graphs "
                    "with prescribed vertex/edge/arc orbit counts.")
    ap.add_argument("--version", action="version", version=f"nutorbits {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a graph6 graph and report its orbit census")
    p_check.add_argument("graph6", nargs="?", help="graph6 string, or '-' for stdin (default)")
    p_check.add_argument("--file", help="read graph6 line(s) from a file, not with a graph6 string")
    p_check.add_argument("--human", action="store_true", help="human-readable table instead of JSON")
    p_check.add_argument("--pretty", action="store_true", help="indent JSON output")
    p_check.set_defaults(fn=_cmd_check)

    p_con = sub.add_parser("construct", help="build and verify a nut graph")
    p_con.add_argument("--r", type=int, help="vertex orbit count (dispatch form, with --k)")
    p_con.add_argument("--k", type=int, help="edge orbit count / family parameter")
    p_con.add_argument("--p", type=int, help="explicit prime parameter (default: smallest admissible)")
    p_con.add_argument("--n", type=int, help="odd size parameter for the box-K4 family")
    p_con.add_argument("--t", type=int, help="subdivision parameter (4t subdivisions per edge)")
    p_con.add_argument("--orbit", type=int, help="edge orbit index to subdivide (default: smallest orbit)")
    p_con.add_argument("--variant", choices=[form for form, family in FAMILIES.items()
                                             if family.build and form != "dispatch"])
    p_con.add_argument("--out", metavar="BASE", help="write BASE.g6 and BASE.dot")
    p_con.add_argument("--human", action="store_true")
    p_con.add_argument("--pretty", action="store_true")
    p_con.set_defaults(fn=_cmd_construct)

    p_sw = sub.add_parser("sweep", help="verify a parameter family; one JSON row per instance")
    p_sw.add_argument("--suite", required=True,
                      choices=[suite for suite, family in FAMILIES.items() if family.sweep])
    p_sw.add_argument("--k", type=int, help="single k instead of a range")
    p_sw.add_argument("--kmax", type=int)
    p_sw.add_argument("--nmax", type=int)
    p_sw.add_argument("--tmax", type=int)
    p_sw.add_argument("--primes", type=int,
                      help="primes sampled per parameter (default 2)")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--timings", action="store_true",
                      help="include per-row timings (breaks byte-identity across --jobs)")
    p_sw.add_argument("--human", action="store_true")
    p_sw.set_defaults(fn=_cmd_sweep)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotRealizable, NotCoveredByThisPaper, HypothesisError,
            SpecificationError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ResourceCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
