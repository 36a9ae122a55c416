"""Spans around calls into the package, installed from outside it.

The tracer replaces module-level functions (and two CrossingSet methods)
with timing wrappers while a traced job runs, and puts the originals back
afterwards; nothing under src/ is edited.  Hot scalar helpers
(FourierSeries.eval, pair_distance, laurent._mul) are deliberately left
alone.  A target that a later version of the package renames or removes is
reported as absent instead of failing the run.

A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated per job (calls, total, self) rather than kept one by
one, since a single large job makes thousands of classify calls.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

PACKAGE = "fourierknot"


def _scan_counts(tr, args, result):
    segs = len(args[0]) - 1
    # the dense scan tests every non-adjacent segment pair of the closed polyline
    tr.counts["_kernels.pairs_tested"] += (segs - 1) * (segs - 2) // 2 - 1
    tr.counts["_kernels.candidates"] += len(result[0])


def _numeric_counts(tr, args, result):
    tr.counts["crossings.accepted"] += len(result)


def _remainder_counts(tr, args, result):
    tr.counts["laurent.remainder_dim_sum"] += len(args[0])


def _prime_counts(tr, args, result):
    tr.counts["laurent.primes"] += len(result)


def _line_counts(tr, args, result):
    tr.counts["phases.lines"] += len(result)


def _png_counts(tr, args, result):
    tr.counts["render.png_bytes"] += len(result)


# (span, module, attribute, counter hook, track allocations)
TARGETS = (
    ("_kernels.scan", "_kernels", "scan_segment_pairs", _scan_counts, False),
    ("crossings.numeric", "crossings", "find_crossings_numeric", _numeric_counts, False),
    ("crossings.newton", "crossings", "_newton_refine", None, False),
    ("crossings.analytic", "crossings", "analytic_crossing_set", None, False),
    ("crossings.classify", "crossings", "classify", None, False),
    ("crossings.validate", "crossings", "CrossingSet.__post_init__", None, False),
    ("crossings.to_json", "crossings", "CrossingSet.to_json", None, False),
    ("diagram.gauss", "diagram", "build_gauss_code", None, False),
    ("diagram.pd", "diagram", "build_pd_code", None, False),
    ("diagram.alexander", "diagram", "alexander_from_diagram", None, False),
    ("diagram.oracle", "diagram", "torus_alexander_oracle", None, False),
    ("diagram.identify", "diagram", "identify", None, False),
    ("laurent.det", "laurent", "det_poly_matrix", None, False),
    ("laurent.reduce", "laurent", "_sparse_unit_reduce", None, False),
    ("laurent.bareiss", "laurent", "_det_bareiss_lists", _remainder_counts, False),
    ("laurent.modular", "laurent", "_det_modular_lists", _remainder_counts, False),
    ("laurent.prime_search", "laurent", "_primes_31bit", _prime_counts, False),
    ("phases.raster", "phases", "phase_map_render", None, True),
    ("phases.lines", "phases", "singular_lines", _line_counts, False),
    ("phases.signvec", "phases", "sign_vector", None, False),
    ("render.png", "render", "phase_map_png", _png_counts, False),
    ("render.svg", "render", "phase_map_svg", None, False),
    ("cli.verify", "cli", "cmd_verify", None, False),
)


class Tracer:
    """Per-job span totals and counters for the TARGETS above."""

    def __init__(self):
        self.stack: list[list] = []
        self.patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_bytes = 0

    def snapshot(self) -> dict:
        out = {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "raster_peak_bytes": self.peak_bytes,
        }
        self.reset()
        return out

    def _wrap(self, span, fn, hook, track_alloc):
        tracer = self

        def wrapper(*args, **kwargs):
            if track_alloc:
                tracemalloc.start()
            frame = [time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.calls[span] += 1
                tracer.total[span] += dur
                tracer.self_time[span] += dur - frame[1]
                if track_alloc:
                    tracer.peak_bytes = max(tracer.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for span, modname, attr, hook, track in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, name, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(span)
                continue
            wrapped = self._wrap(span, orig, hook, track)
            if owner_name:
                self._patch(owner, name, wrapped)
                continue
            # rebind the name wherever the package imported it
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, name, value):
        self.patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches = []
