"""One round of one workload, in a fresh interpreter.

Prints ``ready`` once nutorbits is imported and the inputs are made (the
parent times interpreter start up to that line as set-up), then runs every
instance once, closed loop, and prints one JSON line: the timed section's
wall time, each instance's latency, the outputs for checking, the peak RSS
and, with --trace, the per-layer metrics.  Latencies and outputs are in
input order, None for an instance that failed.  Outputs are checked by the
parent, outside the timed section.

The reference work of ``reference.py`` is timed right after ``ready``,
every REFERENCE_EVERY_S of wall time while the instances run, and at the
end.  Latencies exclude the reference work and are also reported rescaled
by the reference times during or around them, as ``ref_latencies``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import signal
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

import nutorbits
import nutorbits.cli

import inputs
from reference import REFERENCE_S, time_reference

REFERENCE_EVERY_S = 0.1


def peak_rss_mb() -> float:
    """This process's peak resident set since exec.  ru_maxrss is not used:
    it keeps the peak of the parent image the process was forked from."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class HostSampler:
    """Times the workload's reference work when started and stopped and,
    while running, every REFERENCE_EVERY_S of wall time from a SIGALRM
    handler, so the host's speed is sampled during a long instance too."""

    def __init__(self, workload: str, periodic: bool = True):
        self.workload = workload
        self.periodic = periodic
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(time_reference(self.workload))
        finally:
            self._busy = False

    def __enter__(self):
        time_reference(self.workload)  # the first run in a fresh interpreter pays for its memory
        self.sample()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def rescale(spans, samples):
    """For each (start, end) span, or None: its latency less the reference
    work run inside it, and that latency multiplied by REFERENCE_S over the
    mean reference time inside it or, if none ran inside, over the mean of
    the last one before and the first one after."""
    durations = [end - start for start, end in samples]
    latencies, rescaled = [], []
    j = 0
    for span in spans:
        if span is None:
            latencies.append(None)
            rescaled.append(None)
            continue
        start, end = span
        while samples[j][0] < start:
            j += 1
        k = j
        while samples[k][1] <= end:
            k += 1
        inside = durations[j:k]
        latency = end - start - sum(inside)
        around = inside or [durations[j - 1], durations[k]]
        latencies.append(latency)
        rescaled.append(latency * REFERENCE_S * len(around) / sum(around))
    return latencies, rescaled


def run_calls(workload, calls, periodic=True):
    """Run each call once, closed loop, while a HostSampler times the
    workload's reference work; return (latencies, rescaled latencies,
    outputs, failed, reference times, wall time less the reference work).
    A call returns its output, or None if it failed."""
    spans, outputs = [], []
    with HostSampler(workload, periodic) as sampler:
        begin = perf_counter()
        for call in calls:
            start = perf_counter()
            output = call()
            end = perf_counter()
            spans.append(None if output is None else (start, end))
            outputs.append(output)
        finish = perf_counter()
    samples = sampler.samples
    latencies, rescaled = rescale(spans, samples)
    wall = finish - begin - sum(end - start for start, end in samples
                                if begin <= start < finish)
    return (latencies, rescaled, outputs, sum(o is None for o in outputs),
            [end - start for start, end in samples], wall)


def cross_call(n, offsets):
    def call():
        try:
            symbolic = nutorbits.circulant_is_nut_symbolic(n, offsets)
            verdict = nutorbits.is_nut(nutorbits.circulant(nutorbits.CirculantSpec(n, offsets)))
        except Exception:
            traceback.print_exc()
            return None
        return [symbolic, verdict.is_nut, verdict.nullity, verdict.is_full]
    return call


def cli_call(case, tracer):
    def call():
        buffer = io.StringIO()
        try:
            with redirect_stdout(buffer):
                rc = nutorbits.cli.main(list(case.argv))
        except Exception:
            traceback.print_exc()
            rc = None
        text = buffer.getvalue()
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(text.encode())
        return text if rc == 0 else None
    return call


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file for the recorded spans (with --trace)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    cases = inputs.cases(args.workload, args.seed, args.round)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        time_reference(args.workload)
        start, end = time_reference(args.workload)
        sys.stdout.write(json.dumps({"reference_s": end - start}) + "\n")
        return 0

    if args.workload == "cross-oracle":
        calls = [cross_call(n, offsets) for n, offsets in cases]
    else:
        calls = [cli_call(case, tracer) for case in cases]
    # A traced round samples the host only before and after, so that no
    # reference work lands inside the spans it times.
    latencies, rescaled, outputs, failed, references, wall = run_calls(
        args.workload, calls, periodic=tracer is None)

    result = {"wall_s": wall, "latencies": latencies, "ref_latencies": rescaled,
              "references": references, "outputs": outputs, "failed": failed,
              "rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
