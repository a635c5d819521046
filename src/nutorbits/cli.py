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
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from typing import Optional

from . import __version__
from .automorphisms import OrbitCensus, orbit_census
from .constructions import FAMILIES, ConstructionParams, build
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


def _sweep_cap(suite: str) -> int:
    text = os.environ.get("NUTORBITS_SWEEP_CAP")
    if not text:
        return FAMILIES[suite].sweep.cap
    try:
        return int(text)
    except ValueError:
        raise InputError(f"NUTORBITS_SWEEP_CAP must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# Report payloads
# ---------------------------------------------------------------------------


def _graph_payload(g: Graph) -> dict:
    return {
        "order": g.n,
        "size": g.size,
        "degree_sequence": g.degree_sequence(),
        "graph6": write_graph6(g),
    }


def _verdict_payload(v: NutVerdict) -> dict:
    return {
        "is_nut": v.is_nut,
        "nullity": v.nullity,
        "is_full": v.is_full,
        "kernel": [list(vec) for vec in v.kernel_basis],
    }


def _census_payload(c: OrbitCensus) -> dict:
    return {
        "o_v": c.o_v,
        "o_e": c.o_e,
        "o_a": c.o_a,
        "aut_order": c.aut_order,
        "vertex_orbits": [list(o) for o in c.vertex_orbits],
        "edge_orbits": [[list(e) for e in o] for o in c.edge_orbits],
        "arc_orbits": [[list(a) for a in o] for o in c.arc_orbits],
    }


def _provenance_payload(p: Optional[ConstructionParams]) -> Optional[dict]:
    if p is None:
        return None
    out = {"variant": p.variant}
    for field in ("k", "p", "n", "t", "orbit_index"):
        value = getattr(p, field)
        if value is not None:
            out[field] = value
    if p.base is not None:
        out["base"] = _provenance_payload(p.base)
    return out


def _report(command: str, params: dict, g: Graph, verdict: NutVerdict,
            census: OrbitCensus, provenance: Optional[ConstructionParams],
            elapsed: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "graph": _graph_payload(g),
        "nut": _verdict_payload(verdict),
        "census": _census_payload(census),
        "provenance": _provenance_payload(provenance),
        "timing_ms": round(elapsed * 1000.0, 1),
    }


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2))
    else:
        print(json.dumps(obj, separators=(",", ":")))


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
    if nut["kernel"]:
        lines.append(f"kernel         {nut['kernel'][0] if nut['nullity'] == 1 else nut['kernel']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(args) -> int:
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
    elif args.graph6 in (None, "-"):
        text = sys.stdin.read()
    else:
        text = args.graph6
    lines = [ln for ln in text.splitlines() if ln.strip()] or [text]
    for line in lines:
        start = time.perf_counter()
        g = read_graph6(line)
        if g.n == 0:
            raise InputError(f"graph {line.strip()!r} has order 0; "
                             "check needs at least one vertex")
        verdict = is_nut(g)
        census = orbit_census(g)
        report = _report("check", {"input": line.strip()}, g, verdict, census,
                         None, time.perf_counter() - start)
        if args.human:
            print(_human_summary(report))
        else:
            _emit(report, args.pretty)
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
    report = _report("construct", params, built.graph, built.verdict,
                     built.census, built.provenance,
                     time.perf_counter() - start)
    if args.out:
        with open(args.out + ".g6", "w") as fh:
            fh.write(write_graph6(built.graph) + "\n")
        with open(args.out + ".dot", "w") as fh:
            fh.write(write_dot(built.graph, built.census.edge_orbits))
        print(f"wrote {args.out}.g6 and {args.out}.dot", file=sys.stderr)
    if args.human:
        print(_human_summary(report))
    else:
        _emit(report, args.pretty)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_instances(args) -> list[tuple]:
    suite = args.suite
    sweep = FAMILIES[suite].sweep
    # a single --k replaces the range of k, so --kmax goes unread
    reads = set(sweep.reads) - ({"kmax"} if args.k is not None else set())
    unread = [f"--{key}" for key in ("k", "kmax", "nmax", "tmax", "primes")
              if getattr(args, key) is not None and key not in reads]
    if unread:
        raise HypothesisError(f"{suite} sweep does not read {', '.join(unread)}")
    cap = _sweep_cap(suite)
    flag = sweep.var + "max"
    top = getattr(args, flag)
    values = [args.k] if args.k is not None else range(
        sweep.first, (sweep.default_max if top is None else top) + 1, sweep.step)
    if max(values, default=0) > cap:
        raise ResourceCapError(f"{suite} sweep capped at {flag} = {cap}")
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


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nutorbits",
        description="Exact construction and certification of nut graphs "
                    "with prescribed vertex/edge/arc orbit counts.")
    ap.add_argument("--version", action="version", version=f"nutorbits {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a graph6 graph and report its orbit census")
    p_check.add_argument("graph6", nargs="?", help="graph6 string, or '-' for stdin (default)")
    p_check.add_argument("--file", help="read graph6 line(s) from a file")
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
