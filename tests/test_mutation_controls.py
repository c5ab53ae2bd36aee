"""The known-answer checks fail on named defects.

- With ``stats.sample_poisson_process`` patched to draw at 1.05 t, the
  d = 2 and d = 3 rows of ``test_known_answer_fvector`` (mean face
  counts) and of ``test_known_answer_v1`` (mean V_1, and every planar
  column) must leave their 4 SE bound on the seeds they pass on
  unpatched.
- With it patched to draw at 1.2 t, the d = 1 variance row of
  ``test_known_answer_d1`` must leave its 4 SE bound; at 1.05 t it moves
  to z -2.24 only: Var V_1 = 2/t^2 is then 9% low, within the noise of
  2,000 replications.
- With ``functionals.volume``, which the oracle column calls when no V_j
  column is asked, patched to 0.995 times the volume, the oracle rows of
  ``test_known_answer_fvector`` in d = 2 and 3 and at d = 4, t = 1000
  must leave it.
- With ``hull._mean_width_term_3d`` patched to 1.01 times V_1, the d = 3
  rows of ``test_known_answer_v1`` must leave it.

Tables run in one process (``workers`` 1), so no pool holds the unpatched
code.  Each row's z-scores are printed, so a check that drifts toward its
bound shows before it stops failing.
"""
import math

import pytest

from randpoly import functionals, hull, stats

import test_known_answer_d1 as d1
import test_known_answer_fvector as fvector
import test_known_answer_v1 as v1

INTENSITY_ERROR = 1.05
D1_INTENSITY_ERROR = 1.2
VOLUME_ERROR = 0.995
V1_ERROR = 1.01


def draw_at(monkeypatch, factor: float) -> None:
    draw = stats.sample_poisson_process

    def at_wrong_intensity(body, t, rng, core=None):
        return draw(body, factor * t, rng, core)

    monkeypatch.setattr(stats, "sample_poisson_process", at_wrong_intensity)


@pytest.fixture
def fast_sampler(monkeypatch):
    draw_at(monkeypatch, INTENSITY_ERROR)


@pytest.fixture
def short_volume(monkeypatch):
    volume = functionals.volume
    monkeypatch.setattr(functionals, "volume",
                        lambda poly: VOLUME_ERROR * volume(poly))


@pytest.fixture
def long_mean_width(monkeypatch):
    term = hull._mean_width_term_3d
    monkeypatch.setattr(hull, "_mean_width_term_3d",
                        lambda poly: V1_ERROR * term(poly))


def fvector_z_scores(row: int) -> dict[str, float]:
    d, t, _ = fvector.ROWS[row]
    cols = fvector.row_columns(row)
    out = {}
    for name, exact in fvector.exact_means(d, t).items():
        x = cols[name]
        out[name] = (x.mean() - exact) / (x.std(ddof=1) / math.sqrt(len(x)))
    return out


def worst_z(label: str, z: dict[str, float]) -> float:
    """Print the row's z-scores and return the largest |z|."""
    print(label, {name: round(float(v), 2) for name, v in z.items()})
    return max(map(abs, z.values()))


FVECTOR_ROWS = [r for r, (d, _, _) in enumerate(fvector.ROWS) if d <= 3]
V1_ROWS = [r for r, (d, _, _, _) in enumerate(v1.ROWS) if d <= 3]


@pytest.mark.parametrize("row", FVECTOR_ROWS)
def test_face_count_rows_fail_at_the_wrong_intensity(fast_sampler, row):
    label = f"f-vector row {fvector.ROWS[row]}"
    assert worst_z(label, fvector_z_scores(row)) > 4.0


@pytest.mark.parametrize("row", V1_ROWS)
def test_v1_rows_fail_at_the_wrong_intensity(fast_sampler, row):
    assert worst_z(f"V_1 row {v1.ROWS[row]}", v1.z_scores(row)) > 4.0


def test_d1_variance_row_fails_at_the_wrong_intensity(monkeypatch):
    draw_at(monkeypatch, D1_INTENSITY_ERROR)
    ratio, ratio_se = d1.variance_ratio()
    z = {"V_1 variance": (ratio - 1.0) / ratio_se}
    assert worst_z("d = 1 variance row", z) > 4.0


ORACLE_ROWS = [r for r, (d, t, _) in enumerate(fvector.ROWS)
               if d <= 3 or t == 1000.0]
V1_D3_ROWS = [r for r, (d, _, _, _) in enumerate(v1.ROWS) if d == 3]


@pytest.mark.parametrize("row", ORACLE_ROWS)
def test_oracle_rows_fail_on_a_short_volume(short_volume, row):
    z = {"oracle": fvector_z_scores(row)["oracle"]}
    assert worst_z(f"oracle row {fvector.ROWS[row]}", z) > 4.0


@pytest.mark.parametrize("row", V1_D3_ROWS)
def test_d3_v1_rows_fail_on_a_long_mean_width(long_mean_width, row):
    assert worst_z(f"V_1 row {v1.ROWS[row]}", v1.z_scores(row)) > 4.0
