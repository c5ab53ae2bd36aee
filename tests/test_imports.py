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


@pytest.mark.parametrize("module", ["randpoly", "randpoly.cli"])
def test_import_skips_scipy_stats_and_optimize(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(module=module)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    # the floating-body radius imports its root finder on first use
    assert out == ["0.8567581563109014", "True"]
