"""The known-answer checks fail on a sampler at the wrong intensity.

With ``stats.sample_poisson_process`` patched to draw at 1.05 t, the
d = 2 and d = 3 rows of ``test_known_answer_fvector`` (mean face counts)
and of ``test_known_answer_v1`` (mean V_1, and every planar column) must
leave their 4 SE bound on the seeds they pass on unpatched.  Tables run
in one process (``workers`` 1), so no pool holds the unpatched sampler.
Each row's z-scores are printed, so a check that drifts toward its bound
shows before it stops failing.
"""
import math

import pytest

from randpoly import stats

import test_known_answer_fvector as fvector
import test_known_answer_v1 as v1

INTENSITY_ERROR = 1.05


@pytest.fixture
def fast_sampler(monkeypatch):
    draw = stats.sample_poisson_process

    def at_wrong_intensity(body, t, rng, core=None):
        return draw(body, INTENSITY_ERROR * t, rng, core)

    monkeypatch.setattr(stats, "sample_poisson_process", at_wrong_intensity)


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
