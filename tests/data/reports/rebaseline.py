"""Rewrite one stored report from its ``config.json`` and say what moved.

    python tests/data/reports/rebaseline.py NAME

Run from anywhere in a checkout; randpoly is imported from its ``src/``.
The run's ``report.json`` and plot CSVs replace the stored copies under
``NAME/``; a directory that holds only its ``config.json`` receives
them.  Every number is paired with the stored one at the same place
(JSON path, or CSV file, row and column) and the script prints how many
moved, the largest relative change among values larger than 1e-12 in
size, and how many smaller values moved, which are round-off where a
true value is zero.  Anything it cannot pair (a changed key, text or
shape) is listed.  A round-off re-baseline is made only with this
script, and its output is recorded with the change that needs it.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[2] / "src"))

from randpoly.experiment import run  # noqa: E402

TINY = 1e-12


def _leaves(obj, at: str):
    """(place, value) for every scalar of a parsed JSON document."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{at}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{at}[{i}]")
    else:
        yield at, obj


def _cells(path: Path, at: str):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    yield f"{at}:header", tuple(header)
    for r, row in enumerate(rows[1:], start=1):
        for name, cell in zip(header, row, strict=True):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            yield f"{at}:{r}:{name}", value


def _values(root: Path, rel: Path) -> dict:
    if rel.suffix == ".json":
        items = _leaves(json.loads((root / rel).read_text()), str(rel))
    else:
        items = _cells(root / rel, str(rel))
    return dict(items)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(old: dict, new: dict) -> list[str]:
    """Lines of the change report between two {place: value} maps."""
    rel, tiny, unpaired = [], [], []
    for at in sorted(old.keys() | new.keys()):
        a, b = old.get(at), new.get(at)
        if a == b or (_number(a) and _number(b)
                      and math.isnan(a) and math.isnan(b)):
            continue
        if not (_number(a) and _number(b)):  # missing, text or a header
            unpaired.append(f"  {at}: {a!r} -> {b!r}")
        elif max(abs(a), abs(b)) > TINY:
            rel.append((abs(b - a) / max(abs(a), abs(b)), at))
        else:
            tiny.append((abs(b - a), at))
    lines = [f"{len(rel) + len(tiny)} of {len(old)} stored values moved"]
    if rel:
        lines.append("largest relative change above %g: %.2g at %s"
                     % (TINY, *max(rel)))
    lines.append(f"values of size <= {TINY:g} that moved: {len(tiny)}"
                 + (" (largest change %.2g at %s)" % max(tiny) if tiny
                    else ""))
    if unpaired:
        lines.append(f"{len(unpaired)} values could not be paired:")
        lines.extend(unpaired)
    return lines


def rebaseline(name: str) -> list[str]:
    golden = HERE / name
    stored = sorted(p.relative_to(golden) for p in golden.rglob("*")
                    if p.is_file() and p.name != "config.json")
    raw = json.loads((golden / "config.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        run(raw, outdir=tmp)
        fresh = Path(tmp) / raw["name"]
        if not stored:  # a new report: store its report.json and plots
            stored = [Path("report.json")] + sorted(
                p.relative_to(fresh) for p in (fresh / "plots").glob("*.csv"))
            (golden / "plots").mkdir(exist_ok=True)
            for rel in stored:
                shutil.copyfile(fresh / rel, golden / rel)
        old, new = {}, {}
        for rel in stored:
            old.update(_values(golden, rel))
            new.update(_values(fresh, rel))
        for rel in stored:
            shutil.copyfile(fresh / rel, golden / rel)
    return [f"{name}:"] + compare(old, new)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("name", help="a directory beside this script")
    args = ap.parse_args(argv)
    if not (HERE / args.name / "config.json").is_file():
        ap.error(f"no {args.name}/config.json beside this script")
    print("\n".join(rebaseline(args.name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
