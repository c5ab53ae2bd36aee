"""The benchmark's stored references (``perfbench/references/``) hold the
config each run was made with, and ``perfbench/checks.py`` fails every
reference check when a run's config differs from it, defaults included.
A new config field with a default, or a changed default, must fail here,
not only in the benchmark."""
import json
import runpy
from pathlib import Path

import pytest

from randpoly.config import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("grid_d3", "bound_d2", "mc_d4")


def without_workers(config: dict) -> dict:
    return {k: v for k, v in config.items() if k != "workers"}


@pytest.mark.parametrize("seed", [1, 10])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_config_matches_its_reference(workload, seed):
    # run_path compiles the source without writing bytecode under perfbench/
    workloads = runpy.run_path(str(PERFBENCH / "workloads.py"))
    assert set(workloads["WORKLOADS"]) == set(WORKLOADS)
    got = ExperimentConfig.from_dict(workloads["config"](workload, seed))
    refs = json.loads((PERFBENCH / "references" / f"{workload}.json")
                      .read_text())
    assert (without_workers(got.to_dict())
            == without_workers(refs[str(seed)]["config"]))
