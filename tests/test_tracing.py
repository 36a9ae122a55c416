"""The benchmark tracer's targets name functions the package still has."""

import importlib.util
from pathlib import Path

import fourierknot.cli  # noqa: F401  (loads every module the tracer patches)
import fourierknot.diagram
from fourierknot import TorusParams, analytic_crossing_set, gen_theorem_knot

# The spans of the deleted modular determinant engine, absent since the determinant
# has one engine.  The benchmark change that drops them from TARGETS (ROADMAP item 1)
# removes this exception, here and in CI's traced smoke step.
DELETED_ENGINE_SPANS = ("laurent.modular", "laurent.prime_search")


def load_tracing():
    """perfbench/tracing.py as a module, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert [span for span in tracer.absent if span not in DELETED_ENGINE_SPANS] == []
    finally:
        tracer.uninstall()


def test_tracer_sees_the_sweep_determinant():
    # identify takes its polynomial from the x-sweep, whose (p - 1)-row bridge
    # minor goes through the one determinant engine the tracer wraps
    params = TorusParams(7, 13)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        fourierknot.diagram.identify(knot, cs, params)
    finally:
        tracer.uninstall()
    assert tracer.calls["laurent.bareiss"] == 1
    assert tracer.counts["laurent.remainder_dim_sum"] == 6
