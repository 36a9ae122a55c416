"""Machine-speed probes: run on the faster CPU, report times at a reference speed.

The reference machine (a 2-vCPU VM on a shared host) changes speed for
seconds to minutes at a time, for reasons outside the program (other
tenants on the host), in two separate ways:

- interpreter speed: one vCPU at a time drops to about 0.6x for tight
  Python loops;
- shared-cache and memory speed: numpy passes over tens of MB slow down by
  up to 2.5x, and with them the package's scan and its big-integer work.

The same job then reads 10-150% slower from one minute to the next.  Two
measures absorb this, both acting only on the benchmark's own processes:

1. Before a job (at most every PICK_GAP_S) the benchmark times a short
   Python loop on every CPU it may use and pins itself to the fastest.
   Children it starts inherit the choice.  With one CPU this does nothing.
2. On the chosen CPU it times that loop and a numpy pass over ~40 MB.
   Their times over the reference times below are two slowdown factors; a
   job's wall time is divided by the blend of the two given by its
   workload's weight, so times are reported at the reference speed.  The
   weights were fitted on the reference machine so that the same input
   gives the same rescaled time across runs and machine states.

The probes run in a helper process so that their arrays do not count in the
workload's peak RSS.  Set-up and import times of fresh processes are
rescaled the same way with the "setup" weight, from the probe taken just
before each process starts.  Raw wall times and the factors are kept in the
run's result file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# probe times at normal speed on the reference machine (2-vCPU Xeon VM,
# Python 3.11.7, numpy 2.4.6)
REF_LOOP_S = 0.0013
REF_STREAM_S = 0.0090
# share of each workload's time that slows like the Python loop; the rest
# slows like the numpy pass.  "setup" is a fresh process up to its first job.
WEIGHTS = {"crosscheck": 0.4, "identify": 0.4, "phase": 0.6, "verify": 0.8, "setup": 0.5}
PICK_GAP_S = 0.5  # jobs closer together than this share one probe

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _loop_s() -> float:
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(10000):
        acc += (i * 2654435761) % 1000003
        seen[i & 255] = acc
    return time.perf_counter() - t0


def _serve():
    """Helper process: answer each "pick" line with "cpu loop_factor stream_factor"."""
    import numpy as np

    a = np.random.default_rng(7).random((256, 4096))
    b = np.random.default_rng(8).random((256, 4096))

    def stream_s() -> float:
        t0 = time.perf_counter()
        x = (a * b - b * a) / (a + 1.0)
        np.count_nonzero((x > 0.1) & (x < 0.9))
        return time.perf_counter() - t0

    for _ in sys.stdin:
        best = None
        for cpu in _CPUS if len(_CPUS) > 1 else [None]:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            _loop_s()  # the helper was idle: let the CPU leave its idle state first
            t = min(_loop_s() for _ in range(3))
            if best is None or t < best[0]:
                best = (t, cpu)
        if best[1] is not None:
            os.sched_setaffinity(0, {best[1]})
        stream = min(stream_s() for _ in range(2))
        # the numpy pass disturbs nothing the loop factor depends on, but the
        # loop is timed again after it so both factors describe the same moment
        loop = min(_loop_s() for _ in range(3))
        best = (min(best[0], loop), best[1])
        print(best[1], best[0] / REF_LOOP_S, stream / REF_STREAM_S, flush=True)


class Prober:
    """Owns the helper process; use as a context manager so it always ends."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.last = (-float("inf"), (1.0, 1.0))

    def pick(self, every: float = 0.0) -> tuple[float, float]:
        """Pin this process to the fastest CPU; return (loop, stream) slowdown factors."""
        if time.perf_counter() - self.last[0] < every:
            return self.last[1]
        self.proc.stdin.write("pick\n")
        self.proc.stdin.flush()
        cpu, loop, stream = self.proc.stdout.readline().split()
        if cpu != "None":
            os.sched_setaffinity(0, {int(cpu)})
        self.last = (time.perf_counter(), (float(loop), float(stream)))
        return self.last[1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def rescale(seconds: float, factors: tuple[float, float], weight: float) -> float:
    """Wall time at the reference speed."""
    loop, stream = factors
    return seconds / (weight * loop + (1.0 - weight) * stream)


if __name__ == "__main__":
    _serve()
