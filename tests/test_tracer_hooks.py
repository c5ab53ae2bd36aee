"""The benchmark's per-layer tracer (``perfbench/instrument.py``) wraps
package functions by name where their callers look them up, such as
``stats.build_evaluators``, ``hull.f_vector`` and
``malliavin.convex_hull``.  A refactor that renames one of them must fail
here, not only in the benchmark's ``--trace 1`` job."""
from pathlib import Path

from randpoly import experiment

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


def test_tracer_sees_the_error_term_report(monkeypatch, tmp_path):
    """The wrapped names still carry the report path: the tau estimate,
    its functional, and the sampling and hulls of the malliavin module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    from tracer import Tracer

    config = {
        "name": "traced", "body": {"kind": "ball", "dim": 2, "radius": 1.0},
        "t_grid": [100.0], "n_reps": 4, "functionals": [{"type": "oracle"}],
        "seed": 3, "workers": 1,
        "malliavin": {"t": 100.0, "functional": "oracle", "n_outer": 2,
                      "n_inner": 4, "sampling": "plain"},
    }
    tracer = Tracer()
    try:
        instrument.install(tracer)
        experiment.run(config, outdir=tmp_path)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert tracer.named("malliavin.estimate_taus")
    assert tracer.named("malliavin.functional")
    assert tracer.named("bodies.sample", site="randpoly.malliavin")
    assert tracer.named("hull.convex_hull", site="randpoly.malliavin")
