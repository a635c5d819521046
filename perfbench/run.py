"""The nutorbits benchmark.

    python3 perfbench/run.py --workload cross-oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload census-symmetric --seed 1 --repeat 10

Run from any directory; the program is imported from ``src/`` beside this
directory.  Each round runs every instance of the workload once in a fresh
interpreter (``worker.py``), so per-process memo tables are paid as a CLI
user pays them; rounds repeat until --seconds have passed.  Outputs are
checked against ``checks.py`` after the rounds, outside every timed section.
End-to-end times are in reference seconds: rescaled by the host's speed,
sampled with the reference work of ``reference.py`` (see worker.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A traced run alternates
untraced and traced rounds; ``trace.overhead_s`` is the difference of their
median wall times.  --repeat N makes N runs with seeds seed..seed+N-1 and
prints each metric's median and quartiles instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import inputs
from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "instance_ref_ms_p50": "ms",
                    "slowest_instance_ref_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"


class BenchmarkError(Exception):
    pass


def build() -> None:
    """Byte-compile the program and the benchmark, so that no round pays
    for compilation."""
    if not (SRC / "nutorbits" / "__init__.py").is_file():
        raise BenchmarkError(f"no nutorbits sources under {SRC}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                   check=True, stdout=subprocess.DEVNULL)


def run_child(workload: str, seed: int, round_index: int, traced: bool = False,
              setup_only: bool = False, spans: Path | None = None):
    """Run worker.py; return (set-up seconds, set-up rescaled by the
    reference time measured just after it, parsed result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_index)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            rest = proc.stdout.read()
        finally:
            timer.cancel()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise BenchmarkError(f"worker for {workload} exited with code {code}")
    result = json.loads(rest)
    reference = result["reference_s"] if setup_only else result["references"][0]
    return setup, setup * REFERENCE_S / reference, None if setup_only else result


def case_key(case):
    """The instance a latency belongs to: a circulant spec, a construct
    call, or a census graph whatever its relabelling."""
    return case if isinstance(case, tuple) else case.name.split("/")[0]


def output_errors(workload: str, rounds: list[tuple[list, dict]]) -> list[str]:
    """Check every output of every round; identical reports (timing_ms
    aside) are checked once."""
    seen: dict = {}
    errors: list[str] = []
    for cases, result in rounds:
        for case, output in zip(cases, result["outputs"]):
            if output is None:
                continue
            if workload == "cross-oracle":
                errors += checks.check_cross(case[0], case[1], output)
                continue
            lines = output.splitlines()
            if len(lines) != 1:
                errors.append(f"{case.name}: {len(lines)} output lines, expected 1")
                continue
            report = json.loads(lines[0])
            report.pop("timing_ms", None)
            key = (case.argv, json.dumps(report, sort_keys=True))
            if key not in seen:
                check = (checks.check_construct if workload == "construct-ladder"
                         else checks.check_census)
                seen[key] = check(case, report)
            errors += seen[key]
    return errors


def end_to_end(setups: list[tuple[float, float]],
               rounds: list[tuple[list, dict]]) -> dict[str, float]:
    """Times are in reference seconds (see reference.py), medians over the
    run: wall_ref_s of a round's instance times summed; instance_ref_ms_p50
    over the instances of each one's median, so that it does not hang on
    the fastest and slowest samples of two neighbouring instances;
    slowest_instance_ref_s the largest of those medians; setup_s of every
    set-up."""
    by_case: dict = {}
    for cases, result in rounds:
        for case, latency in zip(cases, result["ref_latencies"]):
            if latency is not None:
                by_case.setdefault(case_key(case), []).append(latency)
    medians = [statistics.median(samples) for samples in by_case.values()]
    return {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_ref_s": statistics.median(
            sum(x for x in result["ref_latencies"] if x is not None) for _, result in rounds),
        "instance_ref_ms_p50": 1000 * statistics.median(medians),
        "slowest_instance_ref_s": max(medians),
        "peak_rss_mb": max(result["rss_mb"] for _, result in rounds),
    }


def per_layer(plain: list[tuple[list, dict]], traced: list[tuple[list, dict]]) -> dict[str, float]:
    layers = [result["layers"] for _, result in traced]
    out = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    out["trace.overhead_s"] = (statistics.median(result["wall_s"] for _, result in traced)
                               - statistics.median(result["wall_s"] for _, result in plain))
    return out


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    setups = [] if trace else [run_child(workload, seed, 0, setup_only=True)[:2]
                               for _ in range(SETUP_PROBES)]
    plain: list[tuple[list, dict]] = []
    traced: list[tuple[list, dict]] = []
    start = perf_counter()
    while True:
        index = len(plain) + len(traced)
        cases = inputs.cases(workload, seed, index)
        if trace and len(plain) > len(traced):
            spans = BENCH / "out" / f"spans-{workload}-seed{seed}-round{index}.jsonl"
            traced.append((cases, run_child(workload, seed, index, traced=True, spans=spans)[2]))
        else:
            setup, setup_ref, result = run_child(workload, seed, index)
            setups.append((setup, setup_ref))
            plain.append((cases, result))
        if perf_counter() - start >= seconds and (traced or not trace):
            break
    rounds = plain + traced
    errors = output_errors(workload, rounds)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    values = per_layer(plain, traced) if trace else end_to_end(setups, plain)
    latencies = [x for _, result in plain for x in result["latencies"] if x is not None]
    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced "
          f"rounds of {len(cases)} instances", file=sys.stderr)
    references = [x for _, result in plain for x in result["references"]]
    print(f"  unscaled: median set-up {statistics.median(raw for raw, _ in setups):.6g} s, "
          f"round {statistics.median(r['wall_s'] for _, r in plain):.6g} s, "
          f"instance {1000 * statistics.median(latencies):.6g} ms; median reference "
          f"{1000 * statistics.median(references):.6g} ms over {len(references)}", file=sys.stderr)
    if len(latencies) >= 1000:
        p99 = 1000 * statistics.quantiles(latencies, n=100)[98]
        print(f"  instance_ms_p99 {p99:.4f} ms over {len(latencies)} instances",
              file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} {value:.6g} {unit_of(name)}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(len(cases) for cases, _ in rounds),
        "failed": sum(result["failed"] for _, result in rounds),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in values.items()},
    }


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(median) if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs with seeds seed..seed+N-1; print medians and quartiles")
    args = ap.parse_args()
    if args.repeat < 1 or args.seconds < 1:
        ap.error("--repeat and --seconds must be positive")
    try:
        build()
        results = []
        for i in range(args.repeat):
            results.append(measure(args.workload, args.seed + i, args.seconds,
                                   bool(args.trace)))
            if args.repeat > 1:
                print(json.dumps(results[-1]), file=sys.stderr)
    except (BenchmarkError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.repeat == 1:
        print(json.dumps(results[0]))
        return 0
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:36s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "runs": args.repeat,
        "correct": all(r["correct"] for r in results),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in results}),
        "metrics": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
