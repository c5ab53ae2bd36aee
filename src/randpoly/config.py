"""Declarative experiment configuration: parsing and validation.

Configs are single JSON documents.  Each record is checked against its
fields in :data:`randpoly.records.RECORDS`; validation failures raise
:class:`ConfigError` carrying the key path of the offending entry so the
message pinpoints the problem inside the file.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .bodies import Ball, ConvexBody, body_from_spec
from .functionals import (
    ValuationSpec,
    build_evaluators,
    column_values,
    multivariate_labels,
)
from .hull import Polytope
from .records import RECORDS, ConfigError, check_record

__all__ = ["ConfigError", "ExperimentConfig", "MalliavinSettings"]


def _check_exact(columns, t: float, d: int, path: str) -> None:
    """Raise ConfigError at ``path`` naming the ``(name, evaluator)``
    columns that cannot run exactly in dimension d, found by evaluating
    each on the empty polytope; the evaluators own that limit."""
    failed = []
    for name, fn in columns:
        try:
            column_values([fn], t, Polytope(d))
        except ValueError:
            failed.append(name)
    if failed:
        raise ConfigError(path, f"cannot evaluate {', '.join(failed)} "
                                f"exactly in dim {d}")


@dataclass(frozen=True)
class MalliavinSettings:
    t: float
    functional: str
    n_outer: int
    n_inner: int
    sampling: str
    c: float
    multivariate: bool

    @staticmethod
    def from_dict(d: dict, t_grid: list[float],
                  body: ConvexBody) -> "MalliavinSettings":
        ms = MalliavinSettings(**check_record(d, RECORDS["malliavin"],
                                              "malliavin"))
        if ms.t not in t_grid:
            raise ConfigError("malliavin.t", f"{ms.t} is not in t_grid")
        if ms.sampling == "boundary_shell":
            # the shell lies outside the floating body at cap volume
            # c log t / t, which only a ball has in closed form here
            if not isinstance(body, Ball):
                raise ConfigError("malliavin.sampling", "boundary_shell "
                                  "needs a ball body; use 'plain'")
            if ms.t <= 1.0:
                raise ConfigError("malliavin.t", "boundary_shell needs t > 1")
            if ms.c * math.log(ms.t) / ms.t > body.volume / 2.0:
                raise ConfigError("malliavin.c", "c log t / t exceeds half "
                                  "the ball's volume")
        return ms


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    body: dict
    t_grid: tuple[float, ...]
    n_reps: tuple[int, ...]  # one entry per t
    functionals: tuple[dict, ...]
    mode: str
    n_dirs: int
    seed: int
    workers: int
    malliavin: MalliavinSettings | None
    outputs: str | None
    allow_nonsmooth: bool
    allow_non_clt: bool

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        cfg = check_record(raw, RECORDS["config"], "")
        body = body_from_spec(cfg["body"])
        t_grid = cfg["t_grid"]
        if not t_grid:
            raise ConfigError("t_grid", "must be non-empty")
        if any(t <= 0 for t in t_grid):
            raise ConfigError("t_grid", "intensities must be positive")
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("t_grid", "must be strictly increasing")
        n_reps = cfg["n_reps"]
        if isinstance(n_reps, int):
            n_reps = [n_reps] * len(t_grid)
        elif len(n_reps) != len(t_grid):
            raise ConfigError("n_reps",
                              "list must have one entry per t_grid value")
        for i, n in enumerate(n_reps):
            if n < 2:
                raise ConfigError(f"n_reps[{i}]", "must be >= 2")

        functionals = cfg["functionals"]
        if not functionals:
            raise ConfigError("functionals", "must be non-empty")
        for i, f in enumerate(functionals):
            if f.get("type") != "valuation" or cfg["allow_non_clt"]:
                continue
            record = check_record(f, RECORDS["functionals"]["valuation"],
                                  f"functionals[{i}]", at="functionals")
            if not ValuationSpec(record["coeffs"]).clt_compatible():
                raise ConfigError(
                    f"functionals[{i}]",
                    "valuation fails the coefficient gate (mixed signs "
                    "or no nonzero c_k for k >= 1); set allow_non_clt "
                    "to evaluate it anyway",
                )
        columns = build_evaluators(functionals, body.dim)
        if cfg["mode"] == "exact":
            _check_exact(columns, t_grid[0], body.dim, "mode")
        if cfg["mode"] == "mc" and cfg["n_dirs"] < 2:
            raise ConfigError("n_dirs", "must be >= 2 in mc mode")
        if not body.is_smooth and not cfg["allow_nonsmooth"]:
            raise ConfigError(
                "body",
                f"kind {body.kind!r} has non-smooth boundary; the limit "
                "theorems assume smoothness -- set allow_nonsmooth to "
                "run anyway",
            )
        if cfg["malliavin"] is not None:
            cfg["malliavin"] = MalliavinSettings.from_dict(
                cfg["malliavin"], t_grid, body)

        config = ExperimentConfig(**{
            **cfg, "body": dict(cfg["body"]), "t_grid": tuple(t_grid),
            "n_reps": tuple(n_reps),
            "functionals": tuple(dict(f) for f in functionals)})
        if config.malliavin is not None:
            config.malliavin_functional()
        return config

    def malliavin_functional(self) -> tuple[list[str], tuple]:
        """The labels of the columns the bound report differentiates (the
        multivariate ones, or the one that ``malliavin.functional`` names;
        "V_d" is the top intrinsic volume) and their evaluators, the
        tables' own; :func:`column_values` calls them exactly."""
        d = body_from_spec(self.body).dim
        ms = self.malliavin
        labels = (multivariate_labels(d) if ms.multivariate
                  else [f"V_{d}" if ms.functional == "V_d" else ms.functional])
        columns = dict(build_evaluators(self.functionals, d))
        missing = ", ".join(lab for lab in labels if lab not in columns)
        if missing:
            raise ConfigError("malliavin.functional", "no table column "
                              f"{missing} (columns: {', '.join(columns)})")
        _check_exact([(lab, columns[lab]) for lab in labels], ms.t, d,
                     "malliavin.functional")
        return labels, tuple(columns[lab] for lab in labels)

    def worker_count(self, override: int | None) -> int:
        """``override``, checked as the ``workers`` key is, or the config's
        own ``workers`` when it is None."""
        if override is None:
            return self.workers
        field = {"workers": RECORDS["config"]["workers"]}
        return check_record({"workers": override}, field, "")["workers"]

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
        try:
            return ExperimentConfig.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{exc.path}", exc.message) from exc

    def to_dict(self) -> dict:
        """The config as a JSON record; unset optional blocks are left out."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in asdict(self).items() if value is not None}
