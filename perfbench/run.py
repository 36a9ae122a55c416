#!/usr/bin/env python3
"""fourierknot benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Prints a table, then as the last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Full records (every job's
input, wall time, speed factors, output digests and failures) are written to
perfbench/results/<workload>-seed<seed>-trace<trace>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402

WORKLOADS = ("crosscheck", "identify", "phase", "verify")
SETUPS = 5  # fresh interpreters per run; setup_s is their median
IMPORTS = 5  # fresh `import fourierknot` runs for cli.import_ms
TIME_LIMIT_S = 170.0
TAIL_ABOVE = 10  # the tail percentile keeps this many samples above it


class BenchError(Exception):
    pass


def worker_cmd(args, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--setup-only"] if setup_only else [])


def spawn(cmd, env, deadline, started):
    """Start a worker; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    if line.strip() != "READY":
        raise BenchError(f"worker did not start: {line.strip()!r}")
    if time.perf_counter() > deadline:
        raise BenchError("set-up overran the time limit")
    return proc, took


def setup_samples(args, env, deadline, started, prober):
    """Set-up times (the last from the measuring worker) and that worker.

    The traced run reports no set-up time, so it starts only the worker.
    """
    samples = []
    count = 1 if args.trace else SETUPS
    for i in range(count):
        factors = prober.pick()  # the child inherits the CPU choice
        proc, took = spawn(worker_cmd(args, setup_only=i < count - 1), env, deadline, started)
        samples.append((took, factors))
        if i < count - 1:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    return samples, proc


def import_samples(env, deadline, prober):
    """(wall time, speed factors) of fresh `import fourierknot` processes."""
    out = []
    for _ in range(IMPORTS):
        factors = prober.pick()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fourierknot"], env=env, check=True,
                       timeout=max(1.0, deadline - time.perf_counter()))
        out.append((time.perf_counter() - t0, factors))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE samples above it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def end_to_end(recs, setups, rss_mb):
    lat_ms = [r["time_s"] * 1e3 for r in recs]
    tail_ms, pct = tail(lat_ms)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(recs) / sum(r["time_s"] for r in recs), "1/s"),
        "latency_ms.p50": (statistics.median(lat_ms), "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, pct


def per_layer(recs, imports_ms):
    """Per-job means of span times (ms) and counters over the traced jobs."""
    n = len(recs)
    tot, slf, calls, cnt = {}, {}, {}, {}
    peak = 0
    for r in recs:
        f = r["time_s"] / r["wall_s"]
        sp = r["spans"]
        for k, v in sp["total_s"].items():
            tot[k] = tot.get(k, 0.0) + v * f * 1e3
        for k, v in sp["self_s"].items():
            slf[k] = slf.get(k, 0.0) + v * f * 1e3
        for k, v in sp["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in list(sp["counts"].items()) + list(r["data"].items()):
            cnt[k] = cnt.get(k, 0.0) + v
        peak = max(peak, sp["raster_peak_bytes"])

    def mean(d, k):
        return d.get(k, 0.0) / n

    remainder_calls = calls.get("laurent.bareiss", 0) + calls.get("laurent.modular", 0)
    candidates = cnt.get("_kernels.candidates", 0.0)
    rasters = [r for r in recs if "n_classes" in r["data"]]
    # class counts of the fixed T(7,13)/512 reference raster, recorded as data
    ref = next((r["data"] for r in rasters if r["input"].startswith("T(7,13)/512")), {})
    traced = sum(r["traced_time_s"] for r in recs)
    plain = sum(r["time_s"] for r in recs)
    series = [r["series_sample_s"] * r["time_s"] / r["wall_s"] * 1e3 for r in recs if "series_sample_s" in r]
    m = {
        "series.sample_ms": (sum(series) / n, "ms"),
        "kernels.scan_ms": (mean(tot, "_kernels.scan"), "ms"),
        "kernels.pairs_tested": (mean(cnt, "_kernels.pairs_tested"), "count"),
        "kernels.candidates": (mean(cnt, "_kernels.candidates"), "count"),
        "crossings.newton_ms": (mean(tot, "crossings.newton"), "ms"),
        "crossings.newton_calls": (mean(calls, "crossings.newton"), "count"),
        "crossings.newton_fail.tangential": (mean(cnt, "newton_fail.tangential"), "count"),
        "crossings.newton_fail.divergence": (mean(cnt, "newton_fail.divergence"), "count"),
        "crossings.newton_fail.singular": (mean(cnt, "newton_fail.singular"), "count"),
        "crossings.yield": (cnt.get("crossings.accepted", 0.0) / candidates if candidates else 0.0, "ratio"),
        "crossings.numeric_self_ms": (mean(slf, "crossings.numeric"), "ms"),
        "crossings.analytic_ms": (mean(tot, "crossings.analytic"), "ms"),
        "crossings.classify_ms": (mean(tot, "crossings.classify"), "ms"),
        "crossings.validate_ms": (mean(tot, "crossings.validate"), "ms"),
        "crossings.to_json_ms": (mean(tot, "crossings.to_json"), "ms"),
        "diagram.gauss_ms": (mean(tot, "diagram.gauss"), "ms"),
        "diagram.pd_ms": (mean(tot, "diagram.pd"), "ms"),
        "diagram.alexander_self_ms": (mean(slf, "diagram.alexander"), "ms"),
        "diagram.oracle_ms": (mean(tot, "diagram.oracle"), "ms"),
        "diagram.identify_self_ms": (mean(slf, "diagram.identify"), "ms"),
        "laurent.det_ms": (mean(tot, "laurent.det"), "ms"),
        "laurent.reduce_ms": (mean(tot, "laurent.reduce"), "ms"),
        "laurent.remainder_ms": (mean(tot, "laurent.bareiss") + mean(tot, "laurent.modular"), "ms"),
        "laurent.remainder_dim": (cnt.get("laurent.remainder_dim_sum", 0.0) / remainder_calls if remainder_calls else 0.0, "count"),
        "laurent.bareiss_calls": (mean(calls, "laurent.bareiss"), "count"),
        "laurent.modular_calls": (mean(calls, "laurent.modular"), "count"),
        "laurent.primes": (mean(cnt, "laurent.primes"), "count"),
        "phases.raster_ms": (mean(tot, "phases.raster"), "ms"),
        "phases.raster_peak_mb": (peak / 2**20, "MB"),
        "phases.lines_ms": (mean(tot, "phases.lines"), "ms"),
        "phases.lines": (mean(cnt, "phases.lines"), "count"),
        "phases.signvec_ms": (mean(tot, "phases.signvec"), "ms"),
        "phases.n_classes": (ref.get("n_classes", 0), "count"),
        "phases.classes_nonsingular": (ref.get("classes_nonsingular", 0), "count"),
        "phases.singular_cells": (ref.get("singular_cells", 0), "count"),
        "render.png_ms": (mean(tot, "render.png"), "ms"),
        "render.svg_self_ms": (mean(slf, "render.svg"), "ms"),
        "render.png_bytes": (mean(cnt, "render.png_bytes"), "bytes"),
        "cli.import_ms": (statistics.median(imports_ms), "ms"),
        "cli.verify_self_ms": (mean(slf, "cli.verify"), "ms"),
        "trace.overhead_ms": ((traced - plain) / n * 1e3, "ms"),
        "trace.overhead_pct": (100.0 * (traced - plain) / plain, "%"),
    }
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    # on SIGTERM unwind normally, so the workers and the probe helper are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    deadline = time.perf_counter() + TIME_LIMIT_S
    root = HERE.parent
    src = root / "src"
    if not (src / "fourierknot" / "__init__.py").is_file():
        print(f"error: no package source at {src}/fourierknot", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    started: list[subprocess.Popen] = []
    try:
        with probe.Prober() as prober:
            setups, proc = setup_samples(args, env, deadline, started, prober)
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}")
            result = json.loads(out.strip().splitlines()[-1])
            imports = import_samples(env, deadline, prober) if args.trace else []
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for p in started:
            if p.poll() is None:
                p.kill()
            p.wait()

    if not Path(result["machine"]["package_file"]).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {result['machine']['package_file']}, not the checkout's src/", file=sys.stderr)
        return 1
    weight = probe.WEIGHTS[args.workload]
    recs = result["records"]
    for r in recs:
        r["time_s"] = probe.rescale(r["wall_s"], r["factors"], weight)
        if args.trace:
            r["traced_time_s"] = probe.rescale(r["traced_wall_s"], r["factors"], weight)
    setup_s = [probe.rescale(t, f, probe.WEIGHTS["setup"]) for t, f in setups]
    failures = [{"input": r["input"], "cause": r["cause"]} for r in recs if r["cause"]]
    attempted, failed = len(recs), len(failures)

    if args.trace:
        imports_ms = [probe.rescale(t, f, probe.WEIGHTS["setup"]) * 1e3 for t, f in imports]
        metrics = per_layer(recs, imports_ms)
        pct = None
    else:
        metrics, pct = end_to_end(recs, setup_s, result["peak_rss_mb"])

    # ---- human-readable report
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {result['cycles']}  jobs {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        note = f"  (p{pct:.1f} of {attempted} samples)" if name == "latency_ms.tail" else ""
        print(f"  {name:<34} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"  {'error_rate':<34} {failed / attempted:>14.6g} ratio  ({failed}/{attempted})")
    if result["absent_spans"]:
        print(f"  absent (renamed or removed in the package): {', '.join(result['absent_spans'])}")
    for f in failures:
        print(f"  FAILED {f['input']}: {f['cause']}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({
            "args": vars(args), "machine": result["machine"], "weight": weight,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "tail_percentile": pct, "setup_samples": setups, "failures": failures,
            "absent_spans": result["absent_spans"], "records": recs,
        }, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
