"""The demos import only names that the package exports, and print their
stored golden output."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randpoly

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "data" / "demos"


def imported_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "randpoly"
            for alias in node.names]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_are_exported(path):
    names = imported_names(path)
    assert names, f"{path.name} imports nothing from randpoly"
    missing = [n for n in names if n not in randpoly.__all__]
    assert not missing, f"{path.name} imports unexported {missing}"


def test_every_demo_has_a_golden_output():
    assert sorted(p.name[:2] for p in DEMOS) == sorted(
        p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name[:2])
def test_demo_prints_golden_output(path, tmp_path):
    """Each demo, run as a script against ``src``, prints exactly
    ``tests/data/demos/NN.out``.  BLAS runs single-threaded, as when the
    goldens were taken, so printed round-off does not depend on the
    thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{path.name[:2]}.out").read_text()
