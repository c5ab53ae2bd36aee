"""Declarative experiment configuration: parsing and validation.

Configs are single JSON documents.  Validation failures raise
:class:`ConfigError` carrying the key path of the offending entry so the
message pinpoints the problem inside the file.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .bodies import Ball, ConvexBody, body_from_spec
from .functionals import (
    ValuationSpec,
    build_evaluators,
    column_values,
    multivariate_labels,
)
from .hull import Polytope

__all__ = ["ConfigError", "ExperimentConfig", "MalliavinSettings"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _reject_unknown_keys(raw: dict, cls, where: str = "") -> None:
    """Config keys are the fields of ``cls``; a misspelt key would
    otherwise leave its field at the default without a word."""
    known = [f.name for f in fields(cls)]
    for key in raw:
        if key not in known:
            raise ConfigError(where + key,
                              f"unknown key (known: {', '.join(known)})")


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"must be a JSON object, not {value!r}")
    return value


def _convert(kind, value, path: str):
    """``kind(value)``; a value of the wrong type is a ConfigError, and so
    is a bool or a fractional number where an int is expected (``int``
    would truncate it) and anything but true or false where a bool is
    (``bool("false")`` is True)."""
    if kind is int and (isinstance(value, bool) or isinstance(value, float)
                        and not value.is_integer()):
        raise ConfigError(path, f"expected int, not {value!r}")
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, not {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"expected {kind.__name__}, "
                                f"not {value!r}") from exc


@dataclass(frozen=True)
class MalliavinSettings:
    t: float
    functional: str = "V_d"
    n_outer: int = 2000
    n_inner: int = 8
    sampling: str = "boundary_shell"
    c: float = 2.0
    multivariate: bool = False

    @staticmethod
    def from_dict(d: dict, t_grid: list[float],
                  body: ConvexBody) -> "MalliavinSettings":
        where = "malliavin"
        _reject_unknown_keys(_mapping(d, where), MalliavinSettings,
                             where + ".")
        if "t" not in d:
            raise ConfigError(where + ".t", "required (an entry of t_grid)")
        t = _convert(float, d["t"], where + ".t")
        if t not in t_grid:
            raise ConfigError(where + ".t", f"{t} is not in t_grid")
        n_outer = _convert(int, d.get("n_outer", 2000), where + ".n_outer")
        n_inner = _convert(int, d.get("n_inner", 8), where + ".n_inner")
        if n_outer < 2:
            raise ConfigError(where + ".n_outer", "must be >= 2")
        if n_inner < 4:
            raise ConfigError(where + ".n_inner",
                              "must be >= 4 (disjoint draw groups)")
        sampling = d.get("sampling", "boundary_shell")
        if sampling not in ("plain", "boundary_shell"):
            raise ConfigError(where + ".sampling",
                              "must be 'plain' or 'boundary_shell'")
        c = _convert(float, d.get("c", 2.0), where + ".c")
        if c <= 0:
            raise ConfigError(where + ".c", "must be positive")
        if sampling == "boundary_shell":
            # the shell lies outside the floating body at cap volume
            # c log t / t, which only a ball has in closed form here
            if not isinstance(body, Ball):
                raise ConfigError(where + ".sampling", "boundary_shell "
                                  "needs a ball body; use 'plain'")
            if t <= 1.0:
                raise ConfigError(where + ".t", "boundary_shell needs t > 1")
            if c * math.log(t) / t > body.volume / 2.0:
                raise ConfigError(where + ".c", "c log t / t exceeds half "
                                  "the ball's volume")
        return MalliavinSettings(
            t=t, functional=str(d.get("functional", "V_d")),
            n_outer=n_outer, n_inner=n_inner, sampling=sampling, c=c,
            multivariate=_convert(bool, d.get("multivariate", False),
                                  where + ".multivariate"),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    body: dict
    t_grid: tuple[float, ...]
    n_reps: tuple[int, ...]  # one entry per t
    functionals: tuple[dict, ...]
    mode: str = "exact"
    n_dirs: int = 4096
    seed: int = 0
    workers: int = 1
    malliavin: MalliavinSettings | None = None
    outputs: str | None = None
    allow_nonsmooth: bool = False
    allow_non_clt: bool = False

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        def need(key):
            if key not in raw:
                raise ConfigError(key, "required key is missing")
            return raw[key]

        _reject_unknown_keys(_mapping(raw, "config"), ExperimentConfig)
        body_spec = need("body")
        if isinstance(body_spec, dict) and "dim" in body_spec:
            _convert(int, body_spec["dim"], "body.dim")
        try:
            body = body_from_spec(body_spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError("body", str(exc)) from exc

        t_grid = [_convert(float, t, f"t_grid[{i}]")
                  for i, t in enumerate(_convert(list, need("t_grid"),
                                                 "t_grid"))]
        if not t_grid:
            raise ConfigError("t_grid", "must be non-empty")
        if any(t <= 0 for t in t_grid):
            raise ConfigError("t_grid", "intensities must be positive")
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("t_grid", "must be strictly increasing")

        n_reps_raw = need("n_reps")
        if isinstance(n_reps_raw, (int, float)):
            n_reps = [_convert(int, n_reps_raw, "n_reps")] * len(t_grid)
        else:
            n_reps = [_convert(int, n, f"n_reps[{i}]")
                      for i, n in enumerate(_convert(list, n_reps_raw,
                                                     "n_reps"))]
            if len(n_reps) != len(t_grid):
                raise ConfigError("n_reps",
                                  "list must have one entry per t_grid value")
        for i, n in enumerate(n_reps):
            if n < 2:
                raise ConfigError(f"n_reps[{i}]", "must be >= 2")

        functionals = _convert(list, need("functionals"), "functionals")
        if not functionals:
            raise ConfigError("functionals", "must be non-empty")

        allow_non_clt = _convert(bool, raw.get("allow_non_clt", False),
                                 "allow_non_clt")
        for i, f in enumerate(functionals):
            _mapping(f, f"functionals[{i}]")
            if "j" in f:
                _convert(int, f["j"], f"functionals[{i}].j")
            if (f.get("type") == "valuation" and not allow_non_clt
                    and "coeffs" in f):
                try:
                    vs = ValuationSpec(tuple(f["coeffs"]),
                                       f.get("label", "valuation"))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"functionals[{i}].coeffs",
                                      "expected a list of numbers, "
                                      f"not {f['coeffs']!r}") from exc
                if not vs.clt_compatible():
                    raise ConfigError(
                        f"functionals[{i}]",
                        "valuation fails the coefficient gate (mixed signs "
                        "or no nonzero c_k for k >= 1); set allow_non_clt "
                        "to evaluate it anyway",
                    )
        try:
            build_evaluators(functionals, body.dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError("functionals", str(exc)) from exc

        mode = raw.get("mode", "exact")
        if mode not in ("exact", "mc"):
            raise ConfigError("mode", "must be 'exact' or 'mc'")
        if mode == "exact" and body.dim > 3:
            raise ConfigError("mode", "exact intrinsic volumes need dim <= 3; "
                                      "use mode='mc'")
        n_dirs = _convert(int, raw.get("n_dirs", 4096), "n_dirs")
        if mode == "mc" and n_dirs < 2:
            raise ConfigError("n_dirs", "must be >= 2 in mc mode")

        allow_nonsmooth = _convert(bool, raw.get("allow_nonsmooth", False),
                                   "allow_nonsmooth")
        if not body.is_smooth and not allow_nonsmooth:
            raise ConfigError(
                "body",
                f"kind {body.kind!r} has non-smooth boundary; the limit "
                "theorems assume smoothness -- set allow_nonsmooth to "
                "run anyway",
            )

        workers = _convert(int, raw.get("workers", 1), "workers")
        if workers < 1:
            raise ConfigError("workers", "must be >= 1")

        malliavin = None
        if raw.get("malliavin") is not None:
            malliavin = MalliavinSettings.from_dict(raw["malliavin"], t_grid,
                                                    body)

        config = ExperimentConfig(
            name=str(raw.get("name", "experiment")),
            body=dict(body_spec),
            t_grid=tuple(t_grid),
            n_reps=tuple(n_reps),
            functionals=tuple(dict(f) for f in functionals),
            mode=mode,
            n_dirs=n_dirs,
            seed=_convert(int, raw.get("seed", 0), "seed"),
            workers=workers,
            malliavin=malliavin,
            outputs=raw.get("outputs"),
            allow_nonsmooth=allow_nonsmooth,
            allow_non_clt=allow_non_clt,
        )
        if malliavin is not None:
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
        evaluators = tuple(columns[lab] for lab in labels)
        if d > 3:  # exact intrinsic volumes stop at dimension 3
            try:
                column_values(evaluators, ms.t, Polytope(d))
            except ValueError as exc:
                msg = f"cannot evaluate {', '.join(labels)} exactly in dim {d}"
                raise ConfigError("malliavin.functional", msg) from exc
        return labels, evaluators

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
            raise ConfigError(f"{path}:{exc.path}",
                              str(exc).split(": ", 1)[1]) from exc

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "body": self.body,
            "t_grid": list(self.t_grid),
            "n_reps": list(self.n_reps),
            "functionals": [dict(f) for f in self.functionals],
            "mode": self.mode,
            "n_dirs": self.n_dirs,
            "seed": self.seed,
            "workers": self.workers,
            "allow_nonsmooth": self.allow_nonsmooth,
            "allow_non_clt": self.allow_non_clt,
        }
        if self.malliavin is not None:
            d["malliavin"] = asdict(self.malliavin)
        if self.outputs is not None:
            d["outputs"] = self.outputs
        return d
