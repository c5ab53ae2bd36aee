"""Every output file of the benchmark workloads stays byte-identical.

``tests/data/output_digests.txt`` holds the printout of
``tests/data/output_digests.py``: the sha256 of each output file of the
``grid_d3``, ``bound_d2`` and ``mc_d4`` configs at seeds 1-10, with one
and with two workers.  This test re-runs the script and requires the
same lines, so a change that moves any table, report or plot file fails
here.  When a change is meant to move an output, regenerate the file
from the changed checkout,

    python tests/data/output_digests.py > tests/data/output_digests.txt

and say in CHANGES.md which outputs moved and why.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def test_output_digests_match_the_stored_printout():
    got = subprocess.run(
        [sys.executable, str(DATA / "output_digests.py")],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    want = (DATA / "output_digests.txt").read_text().splitlines()
    assert len(got) == len(want)
    moved = [(w, g) for w, g in zip(want, got) if w != g]
    assert not moved, f"{len(moved)} digests moved, first: {moved[0]}"
