"""Monte Carlo engine for random polytopes.

Hulls of Poisson samples in smooth convex bodies, their geometric
functionals (intrinsic volumes, valuations, face counts, the
vertex-corrected volume estimator), add-one-cost difference operators
with the resulting normal-approximation error bounds, and the statistics
used to check the limit theorems at desk scale.
"""

__version__ = "0.1.0"

from .bodies import (
    Ball,
    ConvexBody,
    Cube,
    Ellipsoid,
    PointCloud,
    ball_cap_volume,
    ball_floating_body_radius,
    body_from_spec,
    sample_poisson_process,
    unit_ball_volume,
)
from .config import ConfigError, ExperimentConfig
from .functionals import (
    ValuationSpec,
    euler_indicator,
    intrinsic_volumes,
    multivariate_labels,
    oracle_estimate,
    valuation,
    wills,
)
from .hull import (
    FVector,
    Polytope,
    brute_force_facets,
    convex_hull,
    exact_intrinsic_volumes,
    f_vector,
    hull_facets_as_source_sets,
    intrinsic_volume_mc,
    surface_measure,
    volume,
)
from .malliavin import (
    GammaEstimate,
    TauEstimate,
    VectorFunctional,
    estimate_gammas,
    estimate_taus,
    first_difference,
    make_disjoint_visibility_config,
    second_difference,
)
from .experiment import PRESETS, RunManifest, preset_config, run, verify
from .rng import stream, substream
from .stats import (
    MardiaResult,
    RateFit,
    ReplicationTable,
    SummaryStats,
    covariance_matrix,
    mardia_normality,
    numeric_rank,
    rate_fit,
    run_replications,
    sandwich_probability,
    standardize,
    variance_identity_check,
    w1_bootstrap_se,
    w1_to_normal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
