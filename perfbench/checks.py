"""Output checks: a run's tables and bound against stored references.

A reference holds, for one workload and seed, the config it was made
with, every table column and the tau/bound values of the
``malliavin_stein`` report.  Integer columns (``n_points`` and the face
counts ``f_j``) must match exactly; every other value within relative
1e-9, the package's pin tolerance.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from randpoly.stats import ReplicationTable

REL_TOL = 1e-9
BOUND_KEYS = ("tau1", "tau2", "tau3", "bound")
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def _exact(column: str) -> bool:
    return column == "n_points" or column.startswith("f_")


def capture(manifest) -> dict:
    """Reference data of one completed run."""
    tables = []
    for entry in manifest.tables:
        table = ReplicationTable.read_csv(entry["csv"])
        tables.append({name: table.column(name).tolist()
                       for name in table.names})
    report = json.loads(Path(manifest.reports["report"]).read_text())
    bound = report.get("malliavin_stein")
    return {
        "config": manifest.config,
        "tables": tables,
        "bound": None if bound is None else {k: bound[k] for k in BOUND_KEYS},
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _without_workers(config: dict) -> dict:
    return {k: v for k, v in config.items() if k != "workers"}


def compare(got: dict, ref: dict) -> list[tuple[str, bool, str]]:
    """(check name, passed, detail) per table and for the bound.  The
    tables do not depend on the worker count, so configs are compared
    without it."""
    if _without_workers(got["config"]) != _without_workers(ref["config"]):
        return [("reference config matches", False,
                 "workload config changed; regenerate the references")]
    out = []
    if len(got["tables"]) != len(ref["tables"]):
        return [("reference table count", False,
                 f"{len(got['tables'])} vs {len(ref['tables'])}")]
    for i, (tg, tr) in enumerate(zip(got["tables"], ref["tables"])):
        bad = []
        if list(tg) != list(tr):
            bad.append(f"columns {list(tg)} vs {list(tr)}")
        else:
            for name in tr:
                same = (tg[name] == tr[name]) if _exact(name) else (
                    len(tg[name]) == len(tr[name])
                    and all(map(_close, tg[name], tr[name])))
                if not same:
                    bad.append(name)
        out.append((f"table_t{i} matches reference", not bad,
                    ", ".join(bad)))
    if ref["bound"] is not None:
        bad = [k for k in BOUND_KEYS
               if got["bound"] is None or not _close(got["bound"][k],
                                                     ref["bound"][k])]
        out.append(("tau and bound match reference", not bad, ", ".join(bad)))
    return out
