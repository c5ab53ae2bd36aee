"""The benchmark's workloads: each turns a seed into one experiment config.

All three are closed loops on a unit ball: one run at a time from one
main process.  The program receives only the config built here.
"""
from __future__ import annotations


def _ball(d: int) -> dict:
    return {"kind": "ball", "dim": d, "radius": 1.0}


def _grid_d3(seed: int) -> dict:
    # Lattice assembly and exact 3-D intrinsic volumes make up most of each
    # replication; the difference-operator code is idle.
    return {
        "name": "grid_d3",
        "body": _ball(3),
        "t_grid": [500.0, 1000.0, 2000.0],
        "n_reps": 20,
        "functionals": [{"type": "multivariate"}, {"type": "oracle"},
                        {"type": "wills"}],
        "mode": "exact",
        "seed": seed,
        "workers": 1,
    }


def _bound_d2(seed: int) -> dict:
    # Shaped like the `bound` preset: the tau estimator dominates, and it
    # uses the hull code as many small add-one re-hulls.  Two workers run
    # the replication process pool.
    return {
        "name": "bound_d2",
        "body": _ball(2),
        "t_grid": [500.0],
        "n_reps": 150,
        "functionals": [{"type": "multivariate"}],
        "mode": "exact",
        "seed": seed,
        "workers": 2,
        "malliavin": {"t": 500.0, "functional": "V_2", "n_outer": 70,
                      "n_inner": 8, "sampling": "boundary_shell", "c": 2.0},
    }


def _mc_d4(seed: int) -> dict:
    # The only path for d >= 4: projection Monte Carlo builds many small
    # projection hulls per replication, so per-call hull overhead shows.
    return {
        "name": "mc_d4",
        "body": _ball(4),
        "t_grid": [50.0, 100.0, 200.0],
        "n_reps": 3,
        "functionals": [{"type": "multivariate"}],
        "mode": "mc",
        "n_dirs": 8,
        "seed": seed,
        "workers": 1,
    }


WORKLOADS = {"grid_d3": _grid_d3, "bound_d2": _bound_d2, "mc_d4": _mc_d4}

# Seeds whose outputs are stored under references/ (see make_references.py).
REFERENCE_SEEDS = range(1, 11)


def config(workload: str, seed: int, workers: int | None = None) -> dict:
    """The workload's config for ``seed``; ``workers`` overrides the pool
    size (the tables do not depend on it)."""
    cfg = WORKLOADS[workload](int(seed))
    if workers is not None:
        cfg["workers"] = workers
    return cfg
