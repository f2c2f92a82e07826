"""mmslab: a numerical laboratory for finite pointed metric measure spaces.

Quadratic optimal transport, distortion coefficients and the entropy-
convexity curvature check, blow-up rescaling, a computable surrogate for
pointed measured Gromov-Hausdorff distance, line detection and splitting —
and the experiments tying them together on model spaces.
"""
from .core import (
    DoublingProfile,
    FiniteSpace,
    PointedSpace,
    ValidationReport,
    ball_restrict,
    doubling_profile,
    load_space,
    normalize_at,
    product,
    rescale,
    space_to_dict,
    validate,
)
from .curvature import (
    CdReport,
    RenyiEnergy,
    cdstar_check,
    enumerate_optimal_plans,
    prolongability_experiment,
    renyi_energy,
    sigma,
    sigma_vec,
)
from .models import GroundTruth, ModelSpec, ground_truth, make, parse_spec
from .pmgh import (
    Correspondence,
    PmghEstimate,
    distortion,
    measure_gap,
    pmgh_distance,
)
from .tangent_lab import (
    BlowupSequence,
    LineCandidate,
    SplitResult,
    blowup,
    detect_line,
    distances_to,
    euclidean_dimension,
    iterated_tangent_check,
    match_tangent,
    normalize_window,
    split,
)
from .transport import (
    Coupling,
    GeodesicPlan,
    Interpolator,
    MetricInterpolator,
    W2Result,
    geodesic_plan,
    interpolate,
    w2,
)

__version__ = "0.1.0"
