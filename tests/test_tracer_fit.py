"""The benchmark's tracer still fits the package: every function it wraps
exists under its name, and restore puts each original back. A deleted or
renamed traced name fails here, not only in bench/test_bench.py."""

import fractions
import types
from pathlib import Path

import assoc2
import assoc2.cli  # the tracer wraps cli and serialize too
from assoc2 import deformation

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py as a module, compiled in memory so that nothing is
    written next to it."""
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def test_tracer_installs_and_restores():
    fraction_new = vars(fractions.Fraction)["__new__"]
    orbit_dim = deformation.orbit_dim
    tracer = _load_tracer().Tracer().install(assoc2)
    try:
        assert deformation.orbit_dim is not orbit_dim
        assert vars(fractions.Fraction)["__new__"] is not fraction_new
    finally:
        tracer.restore()
    assert vars(fractions.Fraction)["__new__"] is fraction_new
    assert deformation.orbit_dim is orbit_dim
