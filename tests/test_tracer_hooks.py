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
    """The wrapped names still carry the report path: the sampling and
    hulls of the malliavin module, which the univariate (tau) and the
    multivariate (gamma) reports share, and the tau estimate and its
    functional."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    from tracer import Tracer

    for multivariate in (False, True):
        spec = ({"multivariate": True} if multivariate
                else {"functional": "oracle"})
        config = {
            "name": "traced",
            "body": {"kind": "ball", "dim": 2, "radius": 1.0},
            "t_grid": [100.0], "n_reps": 4,
            "functionals": [{"type": "multivariate" if multivariate
                             else "oracle"}],
            "seed": 3, "workers": 1,
            "malliavin": {"t": 100.0, "n_outer": 2, "n_inner": 4,
                          "sampling": "plain", **spec},
        }
        tracer = Tracer()
        try:
            instrument.install(tracer)
            experiment.run(config, outdir=tmp_path / str(multivariate))
        finally:
            tracer.restore()
        assert tracer.unrestored() == []
        # only the univariate report goes through experiment.estimate_taus
        assert bool(tracer.named("malliavin.estimate_taus")) != multivariate
        assert bool(tracer.named("malliavin.functional")) != multivariate
        assert tracer.named("bodies.sample", site="randpoly.malliavin")
        assert tracer.named("hull.convex_hull", site="randpoly.malliavin")


def test_tracer_sees_the_summary_statistics(monkeypatch, tmp_path):
    """Each table's summary calls ``covariance_matrix`` and
    ``w1_bootstrap_se`` once, through the names that the tracer wraps in
    ``experiment``, in ``run`` and again in ``verify``; so the summary's
    work shows as ``stats.summary`` spans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import instrument
    from tracer import Tracer

    config = {
        "name": "traced",
        "body": {"kind": "ball", "dim": 2, "radius": 1.0},
        "t_grid": [100.0, 200.0], "n_reps": 4,
        "functionals": [{"type": "multivariate"}],
        "seed": 3, "workers": 1,
    }
    tracer = Tracer()
    try:
        instrument.install(tracer)
        experiment.run(config, outdir=tmp_path)
        in_run = len(tracer.named("stats.summary"))
        result = experiment.verify(tmp_path / "traced" / "manifest.json",
                                   quiet=True)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert result["ok"]
    spans = tracer.named("stats.summary", site="randpoly.experiment")
    assert len(spans) == len(tracer.named("stats.summary"))
    assert in_run == 2 * 2 and len(spans) == 2 * in_run
