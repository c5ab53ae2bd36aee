"""Scalar and vector functionals of a polytope.

Everything here is a continuous, motion-invariant quantity: intrinsic
volumes, their linear combinations (with the total intrinsic volume as
the all-ones case), face counts, and the vertex-count-corrected volume
estimator for a known-intensity Poisson sample.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .hull import (
    Polytope,
    exact_intrinsic_volumes,
    f_vector,
    intrinsic_volume_mc,
    volume,
)
from .records import RECORDS, ConfigError, check_record

__all__ = [
    "ValuationSpec",
    "euler_indicator",
    "intrinsic_volumes",
    "valuation",
    "wills",
    "oracle_estimate",
    "multivariate_labels",
    "build_evaluators",
    "column_values",
]

DEFAULT_MC_DIRS = RECORDS["config"]["n_dirs"].default


@dataclass(frozen=True)
class ValuationSpec:
    """Coefficients (c_0, ..., c_d) of a linear combination of intrinsic volumes."""

    coeffs: tuple[float, ...]
    label: str = "valuation"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs) - 1

    def clt_compatible(self) -> bool:
        """Coefficient gate for the normal-limit experiments: no mixed signs,
        and at least one nonzero coefficient with positive index."""
        c = self.coeffs
        no_mixed = all(x >= 0 for x in c) or all(x <= 0 for x in c)
        return no_mixed and any(x != 0.0 for x in c[1:])

    def warn_if_not_clt(self) -> None:
        if not self.clt_compatible():
            warnings.warn(
                f"valuation {self.label!r} fails the coefficient gate "
                "(mixed signs or no nonzero c_k, k >= 1); it can be "
                "evaluated but is not covered by the normal-limit checks",
                stacklevel=3,
            )


def euler_indicator(poly: Polytope) -> float:
    """1 if the polytope is nonempty, else 0."""
    return 0.0 if poly.is_empty() else 1.0


def intrinsic_volumes(
    poly: Polytope,
    mode: str = "exact",
    n_dirs: int = DEFAULT_MC_DIRS,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """(V_0, ..., V_d), exact for ambient dimension <= 3 or by projection
    Monte Carlo for any dimension.  In ``mc`` mode V_d is still exact:
    its "projection" is a rotation, so it is the volume itself."""
    d = poly.dim_ambient
    if mode == "exact":
        return exact_intrinsic_volumes(poly)
    if mode == "mc":
        if n_dirs < 2:
            raise ValueError("mc mode needs n_dirs >= 2")
        if rng is None:
            raise ValueError("mc mode needs an rng")
        out = [euler_indicator(poly)]
        for j in range(1, d):
            est, _ = intrinsic_volume_mc(poly, j, n_dirs, rng)
            out.append(est)
        return out + [volume(poly)]
    raise ValueError(f"unknown mode {mode!r}")


def valuation(
    poly: Polytope,
    spec: ValuationSpec,
    mode: str = "exact",
    n_dirs: int = DEFAULT_MC_DIRS,
    rng: np.random.Generator | None = None,
) -> float:
    """Evaluate sum_i c_i V_i(poly)."""
    if spec.dim != poly.dim_ambient:
        raise ValueError(
            f"spec has {spec.dim + 1} coefficients, polytope needs "
            f"{poly.dim_ambient + 1}"
        )
    spec.warn_if_not_clt()
    if all(c == 0.0 for c in spec.coeffs):
        return 0.0
    vols = intrinsic_volumes(poly, mode=mode, n_dirs=n_dirs, rng=rng)
    return _combination(spec.coeffs, vols)


def wills(poly: Polytope, mode: str = "exact", n_dirs: int = DEFAULT_MC_DIRS,
          rng: np.random.Generator | None = None) -> float:
    """Total intrinsic volume sum_j V_j(poly): the all-ones valuation."""
    vols = intrinsic_volumes(poly, mode=mode, n_dirs=n_dirs, rng=rng)
    return _combination((1.0,) * (poly.dim_ambient + 1), vols)


def _combination(coeffs, vols) -> float:
    """sum_j c_j V_j, summed in index order (a coefficient of 1.0 leaves
    its volume as it is, so the all-ones case is the plain sum)."""
    return float(sum(c * v for c, v in zip(coeffs, vols)))


def oracle_estimate(poly: Polytope, t: float,
                    vd: float | None = None) -> float:
    """Volume estimator for a known-intensity sample: V_d + f_0 / t.

    Unbiased for the volume of the generating body when ``poly`` is the
    hull of a Poisson sample with intensity ``t``; the empty hull maps
    to 0.  ``vd`` is V_d when the caller already has it.
    """
    if t <= 0:
        raise ValueError("intensity t must be positive")
    if poly.is_empty():
        return 0.0
    return (volume(poly) if vd is None else vd) + poly.n_vertices / t


def multivariate_labels(d: int) -> list[str]:
    return [f"V_{j}" for j in range(1, d + 1)] + [f"f_{j}" for j in range(d)]


# ---------------------------------------------------------------------------
# column evaluators for the replication tables and the bound report

# Evaluators receive (poly, ctx) where ctx carries the intensity "t", a
# per-replication "rng", and a per-polytope value cache so the intrinsic
# volumes are computed once no matter how many columns need them.  They
# are module-level functions or partials of them, so they pickle.


def _cached_volumes(poly, ctx):
    key = "ivols"
    if key not in ctx["cache"]:
        ctx["cache"][key] = intrinsic_volumes(
            poly, mode=ctx["mode"], n_dirs=ctx["n_dirs"], rng=ctx["rng"]
        )
    return ctx["cache"][key]


def _cached_fvector(poly, ctx):
    if "fvec" not in ctx["cache"]:
        ctx["cache"]["fvec"] = f_vector(poly)
    return ctx["cache"]["fvec"]


def _euler_column(poly, ctx) -> float:
    return euler_indicator(poly)


def _volume_column(j, poly, ctx) -> float:
    return float(_cached_volumes(poly, ctx)[j])


def _face_column(j, poly, ctx) -> float:
    return float(_cached_fvector(poly, ctx)[j])


def _combination_column(coeffs, poly, ctx) -> float:
    return _combination(coeffs, _cached_volumes(poly, ctx))


def _oracle_column(poly, ctx) -> float:
    # V_d is the last cached intrinsic volume (the same volume call) when
    # a column has asked for them; alone, it draws no mc projection
    ivols = ctx["cache"].get("ivols")
    return oracle_estimate(poly, ctx["t"],
                           None if ivols is None else ivols[-1])


def column_values(columns, t: float, poly: Polytope) -> list[float]:
    """Exact values of the evaluators ``columns`` on ``poly`` at intensity
    t, with a fresh cache: the bound report's functional, as a partial
    over ``columns`` and ``t``."""
    ctx = {"t": t, "rng": None, "cache": {}, "mode": "exact",
           "n_dirs": DEFAULT_MC_DIRS}
    return [fn(poly, ctx) for fn in columns]


def build_evaluators(functional_specs: list[dict], d: int) -> list[tuple]:
    """Turn config functional records into named column evaluators.

    Records: {"type": "intrinsic", "j": int} | {"type": "f", "j": int}
    | {"type": "wills"} | {"type": "oracle"}
    | {"type": "valuation", "label": str, "coeffs": [...]}
    | {"type": "multivariate"}, checked against ``RECORDS``.  Duplicate
    column names collapse to the first occurrence; a valuation label may
    not be ``n_points`` or a built-in column name, which it would silently
    replace, nor repeat with other coefficients, which would drop the
    later valuation, nor hold a comma, a line break or trailing
    whitespace, which a table's CSV header cannot give back.
    """
    cols: list[tuple] = []
    seen: set[str] = set()
    valuation_coeffs: dict[str, tuple[float, ...]] = {}
    builtin = {"n_points", "V_0", "wills", "oracle", *multivariate_labels(d)}

    def add(name, fn):
        if name not in seen:
            seen.add(name)
            cols.append((name, fn))

    def fail(message):
        raise ConfigError("functionals", f"{where}: {message}")

    for i, spec in enumerate(functional_specs):
        where = f"functionals[{i}]"
        kind = spec.get("type") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in RECORDS["functionals"]:
            fail(f"unknown type {kind!r}")
        rec = check_record(spec, RECORDS["functionals"][kind], where,
                           at="functionals")
        if kind == "intrinsic":
            j = rec["j"]
            if not 0 <= j <= d:
                fail(f"j must be in 0..{d}")
            add(f"V_{j}", partial(_volume_column, j) if j else _euler_column)
        elif kind == "f":
            j = rec["j"]
            if not 0 <= j <= d - 1:
                fail(f"j must be in 0..{d - 1}")
            add(f"f_{j}", partial(_face_column, j))
        elif kind == "wills":
            add("wills", partial(_combination_column, (1.0,) * (d + 1)))
        elif kind == "oracle":
            add("oracle", _oracle_column)
        elif kind == "valuation":
            vspec = ValuationSpec(tuple(rec["coeffs"]), rec["label"])
            if vspec.label in builtin:
                fail(f"label {vspec.label!r} is a built-in column name")
            if (any(c in vspec.label for c in ",\n\r")
                    or vspec.label != vspec.label.rstrip()):
                fail(f"label {vspec.label!r} cannot head a table column "
                     "(no commas, line breaks or trailing whitespace)")
            if vspec.dim != d:
                fail(f"coeffs must have length {d + 1}")
            first = valuation_coeffs.setdefault(vspec.label, vspec.coeffs)
            if first != vspec.coeffs:
                fail(f"valuation label {vspec.label!r} repeats with other "
                     "coefficients")
            vspec.warn_if_not_clt()
            add(vspec.label, partial(_combination_column, vspec.coeffs))
        else:  # multivariate
            for j in range(1, d + 1):
                add(f"V_{j}", partial(_volume_column, j))
            for j in range(d):
                add(f"f_{j}", partial(_face_column, j))
    return cols
