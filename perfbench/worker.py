"""One workload in one process: set up, run whole cycles, report raw records.

Started by run.py with the package's src/ on PYTHONPATH.  Prints "READY"
once imports, input generation and the warm-up jobs are done, then (unless
--setup-only) runs the closed loop and prints one JSON line of raw results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time
import traceback

import numpy as np

import probe
import tracing
import workloads

import fourierknot

CYCLES = 64  # drawn up front; a run that finishes them starts again at the first


def series_sample_s(job) -> float:
    """x and y evaluated on the job's numeric grid, as the finder samples them."""
    knot = fourierknot.gen_theorem_knot(fourierknot.TorusParams(job["p"], job["q"]))
    ts = (np.arange(job["grid"] + 1) + 0.5 * (math.sqrt(5.0) - 1.0)) * (2 * math.pi / job["grid"])
    t0 = time.perf_counter()
    knot.x.eval(ts)
    knot.y.eval(ts)
    return time.perf_counter() - t0


class Loop:
    def __init__(self, name: str, trace: bool):
        spec = workloads.WORKLOADS[name]
        self.run_fn, self.check_fn = spec.run, spec.check
        self.name = name
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.prober = None
        self.records: list[dict] = []

    def timed(self, job, traced: bool):
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            try:
                out = self.run_fn(job)
                err = None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
        finally:
            if traced:
                self.tracer.uninstall()
        return out, err, t0, t1

    def checked(self, job, out, err):
        if err is not None:
            return err, {}, {}
        try:
            return self.check_fn(job, out)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}", {}, {}

    def one(self, job):
        rec = {"input": workloads.key(job), "factors": self.prober.pick(every=probe.PICK_GAP_S)}
        modes = [False]
        if self.trace:
            # alternate which run goes first so the overhead estimate has no order bias
            modes = [False, True] if len(self.records) % 2 == 0 else [True, False]
        causes = []
        for traced in modes:
            out, err, t0, t1 = self.timed(job, traced)
            cause, digests, data = self.checked(job, out, err)
            del out
            causes.append(cause)
            if traced:
                rec.update(traced_wall_s=t1 - t0, spans=self.tracer.snapshot())
            else:
                rec["wall_s"] = t1 - t0
        if self.trace and self.name == "crosscheck":
            rec["series_sample_s"] = series_sample_s(job)
        rec.update(cause=next((c for c in causes if c), None), digests=digests, data=data)
        self.records.append(rec)

    def run(self, anchors, cycles, seconds: float) -> int:
        """The anchors, then whole cycles until `seconds` have passed; returns the cycle count."""
        deadline = time.perf_counter() + seconds
        for job in anchors:
            self.one(job)
        i = 0
        while True:
            for job in cycles[i % len(cycles)]:
                self.one(job)
            i += 1
            if time.perf_counter() >= deadline:
                return i


def machine() -> dict:
    try:
        import numba  # noqa: F401
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "scan_backend": fourierknot.kernel_backend() if hasattr(fourierknot, "kernel_backend") else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "package_file": fourierknot.__file__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    spec = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    anchors = spec.anchors(rng)
    cycles = [spec.cycle(rng) for _ in range(CYCLES)]
    warm = spec.warmup(random.Random(0))
    loop = Loop(args.workload, trace=bool(args.trace))
    outs = [loop.run_fn(job) for job in warm]
    stdout = sys.stdout
    print("READY", flush=True)
    if args.setup_only:
        return 0
    for job, out in zip(warm, outs):
        cause = loop.checked(job, out, None)[0]
        if cause:
            print(f"warm-up {workloads.key(job)} failed: {cause}", file=sys.stderr)
            return 1
    del outs
    with probe.Prober() as loop.prober:
        n_cycles = loop.run(anchors, cycles, args.seconds)
    result = {
        "records": loop.records,
        "cycles": n_cycles,
        "absent_spans": loop.tracer.absent if loop.tracer else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
    }
    stdout.write(json.dumps(result) + "\n")
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
