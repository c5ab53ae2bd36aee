"""Write the stored reference outputs of every workload.

    python3 perfbench/make_references.py [WORKLOAD ...]

For each seed in ``workloads.REFERENCE_SEEDS`` this runs the workload's
config once and stores its tables and tau/bound values in
``references/<workload>.json``.  Rerun it only when a workload's config
changes on purpose; a program change must match the stored values.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from randpoly import experiment  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    runs = HERE.parent / ".perfbench_runs"
    scratch = runs / f"references-{os.getpid()}"
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            entries = []
            for seed in workloads.REFERENCE_SEEDS:
                manifest = experiment.run(
                    workloads.config(name, seed, workers=1),
                    outdir=scratch / f"{name}-{seed}")
                ref = json.dumps(checks.capture(manifest))
                entries.append(f'"{seed}": {ref}')
                print(f"{name} seed {seed}", flush=True)
            path = checks.REFERENCE_DIR / f"{name}.json"
            path.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
