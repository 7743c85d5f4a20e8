"""mmtrace: discretized metric measure spaces, codimensional contents,
and trace-norm functionals on piecewise regular sets."""

from .content import ContentQuery, CoverSolution, hausdorff_content, hausdorff_measure, piece_measure_weights
from .errors import (
    EmptySet,
    InsufficientData,
    InvalidFamily,
    InvalidGrid,
    InvalidPair,
    InvalidParameter,
    InvalidPoint,
    InvalidScale,
    IoError,
    MissingMetadata,
    MMTraceError,
    ParameterError,
    ResolutionError,
    ZeroMass,
)
from .experiments import (
    ExperimentConfig,
    RatioReport,
    dirichlet_upper_bound_probe,
    report_emit,
    run_equivalence,
)
from .functionals import (
    FunctionalReport,
    NiceFamily,
    SampleFunction,
    averaging_double,
    averaging_single,
    besov_norm,
    besov_norm_alt,
    bn_functional,
    bsn_functional,
    calderon_maximal,
    combinatorial_expand,
    enumerate_or_search_nice_family,
    gluing,
    sharp_mu_s1,
    tilde_e,
    trace_norm_difficult,
    trace_norm_simple,
    validate_nice_family,
    weight_w,
    weight_w_alt,
)
from .generators import (
    GeneratorSpec,
    PieceSpec,
    build_grid_space,
    difficult_case_spec,
    generate,
    make_sample_function,
    nested_case_spec,
    simple_case_spec,
)
from .measures import (
    LocalStats,
    MeasureSequence,
    RegularityCertificate,
    build_measure_sequence,
    default_k_max,
    local_stats,
    lp_tail_check,
    measure_comparison_check,
    verify_regular_sequence,
    weighted_stats,
)
from .regularity import (
    PiecewiseSet,
    PorosityReport,
    SubsetPiece,
    check_adr,
    check_lcr,
    compose_piecewise,
    default_r_grid,
    porosity_product_sigma,
    porosity_scan,
)
from .space import (
    Ball,
    DecayReport,
    FiniteMetricMeasureSpace,
    SeparatedNet,
    ball_members,
    covering_multiplicity,
    decay_exponents,
    doubling_constant,
    k_of_r,
    mu_ball,
    separated_net,
)

__version__ = "0.1.0"
