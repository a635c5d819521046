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
from itertools import combinations, islice
from typing import Optional

from . import __version__
from .automorphisms import OrbitCensus, orbit_census
from .constructions import (ConstructionParams, VerifiedNut, cayley_nut,
                            construct_with_orbits, fig3_graph, primes_from,
                            prop1_graph, prop2_graph, prop3_graph,
                            subdivided_nut)
from .errors import (HypothesisError, InputError, NotCoveredByThisPaper,
                     NotRealizable, ResourceCapError, SpecificationError,
                     VerificationError)
from .graphs import CirculantSpec, Graph, circulant, read_graph6, write_dot, write_graph6
from .linalg import NutVerdict, integer_scaled, is_nut
from .polynomials import circulant_is_nut_symbolic

SCHEMA = "nutorbits-report/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_CAP = 4

SWEEP_CAPS = {
    "prop1": ("kmax", 10),
    "prop2": ("kmax", 9),
    "prop3": ("nmax", 13),
    "subdiv": ("tmax", 4),
    "circulant-cross": ("nmax", 24),
}


def _sweep_cap(suite: str) -> int:
    text = os.environ.get("NUTORBITS_SWEEP_CAP")
    if not text:
        return SWEEP_CAPS[suite][1]
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
        "kernel": [list(integer_scaled(vec)) for vec in v.kernel_basis],
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


# The parameter flags each construct form reads; any other one is rejected.
FORM_FLAGS = {
    "dispatch": ("r", "k"),
    "prop1": ("k", "p"),
    "prop2": ("k", "p"),
    "prop3": ("n",),
    "fig3": (),
    "subdiv": ("k", "p", "t", "orbit"),
}


def _build_from_args(args) -> VerifiedNut:
    if args.r is not None and args.variant is not None:
        raise HypothesisError("--r/--k dispatch and --variant are mutually exclusive")
    if args.r is None and args.variant is None:
        raise HypothesisError("pass either --r/--k or --variant")
    form = "dispatch" if args.r is not None else args.variant
    unread = [f"--{key}" for key in ("r", "k", "p", "n", "t", "orbit")
              if getattr(args, key) is not None and key not in FORM_FLAGS[form]]
    if unread:
        raise HypothesisError(f"{form} does not read {', '.join(unread)}")
    if form == "dispatch":
        if args.k is None:
            raise HypothesisError("the dispatch form needs both --r and --k")
        return construct_with_orbits(args.r, args.k)
    variant = args.variant
    if variant == "prop1":
        if args.k is None:
            raise HypothesisError("prop1 needs --k (even, >= 2)")
        p = args.p if args.p is not None else next(primes_from(args.k + 2))
        return prop1_graph(args.k, p)
    if variant == "prop2":
        if args.k is None:
            raise HypothesisError("prop2 needs --k (odd, >= 5)")
        p = args.p if args.p is not None else next(primes_from(2 * args.k + 1))
        return prop2_graph(args.k, p)
    if variant == "prop3":
        if args.n is None:
            raise HypothesisError("prop3 needs --n (odd, >= 5)")
        return prop3_graph(args.n)
    if variant == "fig3":
        return fig3_graph()
    if variant == "subdiv":
        if args.k is None or args.t is None:
            raise HypothesisError("subdiv needs --k (base orbit count) and --t")
        base = cayley_nut(args.k, args.p)
        if args.orbit is not None:
            index = args.orbit
        else:
            sizes = [len(o) for o in base.census.edge_orbits]
            index = sizes.index(min(sizes))
        return subdivided_nut(base, index, args.t)
    raise HypothesisError(f"unknown variant {variant!r}")


def _cmd_construct(args) -> int:
    start = time.perf_counter()
    built = _build_from_args(args)
    params = {key: getattr(args, key) for key in ("r", "k", "p", "n", "t", "variant", "orbit")
              if getattr(args, key) is not None}
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
    cap = _sweep_cap(suite)
    tasks: list[tuple] = []
    if suite == "prop1":
        ks = [args.k] if args.k else list(range(2, (args.kmax or 6) + 1, 2))
        if max(ks, default=0) > cap:
            raise ResourceCapError(f"prop1 sweep capped at kmax = {cap}")
        for k in ks:
            for p in islice(primes_from(k + 2), args.primes):
                tasks.append(("prop1", k, p))
    elif suite == "prop2":
        ks = [args.k] if args.k else list(range(5, (args.kmax or 7) + 1, 2))
        if max(ks, default=0) > cap:
            raise ResourceCapError(f"prop2 sweep capped at kmax = {cap}")
        for k in ks:
            for p in islice(primes_from(2 * k + 1), args.primes):
                tasks.append(("prop2", k, p))
    elif suite == "prop3":
        nmax = args.nmax or 9
        if nmax > cap:
            raise ResourceCapError(f"prop3 sweep capped at nmax = {cap}")
        tasks = [("prop3", n) for n in range(5, nmax + 1, 2)]
    elif suite == "subdiv":
        tmax = args.tmax or 2
        if tmax > cap:
            raise ResourceCapError(f"subdiv sweep capped at tmax = {cap}")
        tasks = [("subdiv", t) for t in range(1, tmax + 1)]
    elif suite == "circulant-cross":
        nmax = args.nmax or 12
        if nmax > cap:
            raise ResourceCapError(f"circulant-cross sweep capped at nmax = {cap}")
        for n in range(2, nmax + 1, 2):
            pool = range(1, n // 2 + 1)
            for size in range(1, len(pool) + 1):
                for subset in combinations(pool, size):
                    tasks.append(("cross", n, subset))
    if not tasks:
        raise HypothesisError(f"{suite} sweep: the parameter range is empty")
    return tasks


def _sweep_task(task: tuple) -> dict:
    kind = task[0]
    start = time.perf_counter()
    try:
        if kind == "prop1":
            _, k, p = task
            built = prop1_graph(k, p)
            row = {"suite": "prop1", "k": k, "p": p}
        elif kind == "prop2":
            _, k, p = task
            built = prop2_graph(k, p)
            row = {"suite": "prop2", "k": k, "p": p}
        elif kind == "prop3":
            _, n = task
            built = prop3_graph(n)
            row = {"suite": "prop3", "n": n}
        elif kind == "subdiv":
            _, t = task
            built = subdivided_nut(prop1_graph(2, 5), 0, t)
            row = {"suite": "subdiv", "t": t}
        else:
            _, n, subset = task
            symbolic = circulant_is_nut_symbolic(n, subset)
            verdict = is_nut(circulant(CirculantSpec(n, subset)))
            row = {"suite": "circulant-cross", "n": n, "S": list(subset),
                   "symbolic": symbolic, "nullspace": verdict.is_nut,
                   "verified": symbolic == verdict.is_nut}
            row["_seconds"] = time.perf_counter() - start
            return row
    except VerificationError as exc:
        row = {"suite": kind, "params": list(task[1:]), "verified": False,
               "error": str(exc)}
        row["_seconds"] = time.perf_counter() - start
        return row
    row.update({
        "order": built.graph.n,
        "census": list(built.census.counts),
        "aut_order": built.census.aut_order,
        "verified": True,
    })
    row["_seconds"] = time.perf_counter() - start
    return row


def _cmd_sweep(args) -> int:
    tasks = _sweep_instances(args)
    start = time.perf_counter()
    failures = 0
    with ExitStack() as stack:
        if args.jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
            rows = pool.map(_sweep_task, tasks, chunksize=8)
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
    p_con.add_argument("--variant", choices=["prop1", "prop2", "prop3", "fig3", "subdiv"])
    p_con.add_argument("--out", metavar="BASE", help="write BASE.g6 and BASE.dot")
    p_con.add_argument("--human", action="store_true")
    p_con.add_argument("--pretty", action="store_true")
    p_con.set_defaults(fn=_cmd_construct)

    p_sw = sub.add_parser("sweep", help="verify a parameter family; one JSON row per instance")
    p_sw.add_argument("--suite", required=True,
                      choices=["prop1", "prop2", "prop3", "subdiv", "circulant-cross"])
    p_sw.add_argument("--k", type=int, help="single k instead of a range")
    p_sw.add_argument("--kmax", type=int)
    p_sw.add_argument("--nmax", type=int)
    p_sw.add_argument("--tmax", type=int)
    p_sw.add_argument("--primes", type=int, default=2,
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
