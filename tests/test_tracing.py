"""The benchmark tracer's targets name functions the package still has."""

import importlib.util
from pathlib import Path

import fourierknot.cli  # noqa: F401  (loads every module the tracer patches)

# The spans of the deleted modular determinant engine, absent since the determinant
# has one engine.  The benchmark change that drops them from TARGETS (ROADMAP item 1)
# removes this exception, here and in CI's traced smoke step.
DELETED_ENGINE_SPANS = ("laurent.modular", "laurent.prime_search")


def test_every_traced_name_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [span for span in tracer.absent if span not in DELETED_ENGINE_SPANS] == []
    finally:
        tracer.uninstall()
