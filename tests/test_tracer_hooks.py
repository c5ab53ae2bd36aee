"""The benchmark's per-layer tracer (``perfbench/instrument.py``) wraps
package functions by name where their callers look them up, such as
``stats.build_evaluators``, ``hull.f_vector`` and
``malliavin.convex_hull``.  A refactor that renames one of them must fail
here, not only in the benchmark's ``--trace 1`` job."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    from tracer import Tracer

    tracer = Tracer()
    try:
        instrument.install(tracer)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
