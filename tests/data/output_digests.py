"""Print the sha256 of every output file of the benchmark workloads.

    python tests/data/output_digests.py > digests.txt

Run from anywhere in a checkout; randpoly is imported from its ``src/``
and the workload configs from ``perfbench/workloads.py``.  Each of the
``grid_d3``, ``bound_d2`` and ``mc_d4`` configs runs at seeds 1-10 with
one and with two workers, in a temporary directory that is removed
afterwards.  One line per output file, except ``manifest.json`` (it holds
paths and wall time):

    workload seed workers path sha256

with ``path`` relative to the run's directory.  Two checkouts whose
outputs are byte-identical print the same lines, so a change meant to
keep every output is checked with ``diff`` of the two printouts.
"""
from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from randpoly.experiment import run  # noqa: E402
from workloads import config  # noqa: E402

WORKLOADS = ("grid_d3", "bound_d2", "mc_d4")
SEEDS = range(1, 11)
WORKER_COUNTS = (1, 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                for workers in WORKER_COUNTS:
                    base = Path(tmp) / f"{name}-{seed}-{workers}"
                    run(config(name, seed, workers=workers), outdir=base)
                    out = base / name
                    for p in sorted(out.rglob("*")):
                        if p.is_file() and p.name != "manifest.json":
                            digest = hashlib.sha256(p.read_bytes()).hexdigest()
                            print(name, seed, workers,
                                  p.relative_to(out).as_posix(), digest,
                                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
