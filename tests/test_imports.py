"""Import budget: ``import randpoly`` loads only the scipy parts it calls.

``scipy.stats`` and ``scipy.optimize`` each take several tenths of a
second to import, more than a small run, and the package needs neither
at import time.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randpoly

SRC = str(Path(randpoly.__file__).resolve().parents[1])

CHILD = """
import sys
import {module}
heavy = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
assert not heavy, heavy
from randpoly.bodies import ball_floating_body_radius
print(repr(ball_floating_body_radius(2, 1.0, 0.1)))
print("scipy.optimize" in sys.modules)
"""


def child_output(code: str) -> list[str]:
    """The words a fresh interpreter running ``code`` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()


@pytest.mark.parametrize("module", ["randpoly", "randpoly.cli"])
def test_import_skips_scipy_stats_and_optimize(module):
    out = child_output(CHILD.format(module=module))
    # the floating-body radius imports its root finder on first use
    assert out == ["0.8567581563109014", "True"]


RUN_CHILD = """
import sys
import numpy as np
from randpoly.bodies import Ball
from randpoly.config import ExperimentConfig
from randpoly.functionals import intrinsic_volumes
from randpoly.malliavin import estimate_taus
from randpoly.rng import stream
from randpoly.stats import run_replications
cfg = ExperimentConfig.from_dict({
    "name": "small", "body": {"kind": "ball", "dim": 2, "radius": 1.0},
    "t_grid": [200.0], "n_reps": 3, "functionals": [{"type": "multivariate"}],
    "seed": 1,
})
run_replications(cfg)
estimate_taus(Ball(2), 200.0, lambda p: intrinsic_volumes(p)[2], 1.0, 2, 4,
              stream(2), sampling="plain")
print("scipy.optimize" in sys.modules)
"""


def test_small_run_and_plain_taus_skip_scipy_optimize():
    """The d = 2 hull prefilter finds its core radius without a root
    finder, so a run's warm-up and forked workers import none."""
    assert child_output(RUN_CHILD) == ["False"]


PARSE_CHILD = """
import sys
from randpoly.config import ExperimentConfig
cfg = ExperimentConfig.from_dict({
    "name": "shell", "body": {"kind": "ball", "dim": 2, "radius": 1.0},
    "t_grid": [500.0], "n_reps": 3, "functionals": [{"type": "multivariate"}],
    "malliavin": {"t": 500.0, "functional": "V_2", "c": 2.0,
                  "sampling": "boundary_shell"},
})
print(cfg.malliavin.sampling, "scipy.optimize" in sys.modules)
"""


def test_parsing_a_shell_block_skips_scipy_optimize():
    """The parse-time boundary_shell checks need no floating-body radius,
    so parsing stays out of a run's set-up time."""
    assert child_output(PARSE_CHILD) == ["boundary_shell", "False"]


POOL_CHILD = """
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from randpoly import cli, experiment, malliavin
original = malliavin._outer_step
main = os.getpid()

def outer_step(*args):
    rows = original(*args)
    if os.getpid() != main:
        # the step ran in a pool worker, on the inputs it was handed
        assert "scipy.optimize" not in sys.modules, "a worker imported it"
        with open(os.path.join(out, f"worker-{os.getpid()}"), "w"):
            pass
    return rows

malliavin._outer_step = outer_step
cfg = {
    "name": "shell", "body": {"kind": "ball", "dim": 2, "radius": 1.0},
    "t_grid": [100.0], "n_reps": 8, "functionals": [{"type": "multivariate"}],
    "malliavin": {"t": 100.0, "functional": "V_2", "n_outer": 4,
                  "n_inner": 4, "sampling": "boundary_shell"},
    "workers": 2,
}
with tempfile.TemporaryDirectory() as out:
    {entry}
    print(any(name.startswith("worker-") for name in os.listdir(out)))
print("scipy.optimize" in sys.modules)
"""
RUN_ENTRY = "print(experiment.run(cfg, outdir=out).status)"
TAUS_ENTRY = """path = Path(out) / "cfg.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["taus", str(path)])
    print(code)"""


@pytest.mark.parametrize("entry, words", [
    (RUN_ENTRY, ["completed", "True", "True"]),
    (TAUS_ENTRY, ["0", "True", "True"])], ids=["run", "taus"])
def test_pool_workers_skip_the_shell_root_finder(entry, words):
    """The boundary_shell radius is found once, in the calling process,
    and the error-term blocks receive the sampler built from it, so no
    pool worker imports scipy.optimize, though the caller does."""
    assert child_output(POOL_CHILD.replace("{entry}", entry)) == words
