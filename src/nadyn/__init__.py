"""Exact solver for reductions, depths and resultant functions of rational
maps over Q(t), with a floating-point degeneration checker for complex
specialisations."""

from .errors import (
    AmbiguousClass,
    BothFormsZero,
    CoefficientPole,
    DegenerateMap,
    DegreeTooHigh,
    DegreeTooLow,
    IllConditioned,
    IrrationalDirection,
    IterationCapExceeded,
    LevelCapExceeded,
    NadynError,
    OutputTooLarge,
    OutOfRange,
    ParseError,
    PowerTooLarge,
    RootFindingFailed,
    SamePoint,
    SampleCapExceeded,
    SeriesCapExceeded,
    TotallyInvariantPoint,
)
from .polys import QPoly, rational_roots
from .scalars import KScalar, RES_INF, T
from .respoly import (
    DepthDivisor,
    FactorClass,
    FiniteClass,
    HomogeneousForm,
    INFINITY,
    InfinityClass,
    depth_at,
    homogeneous_gcd,
    squarefree_decomposition,
)
from .berkspace import (
    CLASSICAL_INF,
    GAUSS,
    TypeIIPoint,
    chart,
    direction_toward,
    path_point,
    rho,
    step_into,
    wedge,
)
from .redux import (
    IntrinsicReduction,
    RationalMapK,
    compose,
    conjugate,
    intrinsic_data,
    iterate,
    reduction_at,
)
from .crucial import (
    MinLocusResult,
    SlopeReport,
    Verdict,
    hyp_res,
    hyp_res_direct,
    min_locus,
    ord_res,
    ord_res_for_chart,
    semistability,
    slope_measured,
    slope_rhs,
)
from .equidist import (
    ConvergenceReport,
    DirectionMeasure,
    depth_sequence,
    predicted_limit,
    totally_invariant,
    tv_distance,
)
from .degeneration import (
    ComplexMap,
    DegenerationReport,
    INF_C,
    chordal,
    degeneration_report,
    pullback_sample,
    specialize,
)
from .parsing import (
    class_str,
    frac_str,
    map_str,
    parse_direction_class,
    parse_map,
    parse_point,
    parse_scalar,
    point_str,
)

__version__ = "0.1.0"
