"""opacue: exact and approximate opacity verification.

Finite metric transition systems are verified exactly by one forward
subset search over n-bit state sets that stops at the first revealing
class; the paper's observer, estimator and product constructions are kept
as independent oracles. Continuous-space discrete-time control systems are
handled soundly through opacity-preserving grid abstractions, candidate
barrier-certificate checking, and small-gain composition of two-subsystem
interconnections.
"""

__version__ = "0.1.0"

from .api import verify_opacity
from .abstraction import Abstraction, build_abstraction, sample_system
from .barrier import (
    AugmentedRegions,
    CheckReport,
    build_regions,
    check_lack_barrier,
    check_opacity_barrier,
)
from .boxes import Box, BoxUnion, grid
from .brute import brute_force_opacity, confirm_witness
from .compositional import (
    GainReport,
    Interval,
    LinearSubsystem,
    compose_barriers,
    compose_simulation,
    interconnect,
    small_gain,
)
from .control import (
    DtControlSystem,
    IssCertificate,
    QuantizationParams,
    affine_certificate,
    check_quantization,
    evaluate_quantization_inequality,
    parse_control_system,
)
from .delayed import product_opacity, verify_delayed_opacity
from .errors import (
    DimensionError,
    DomainError,
    InputError,
    OpacueError,
    ParseError,
    PrecisionError,
    QuantizationError,
    ResourceError,
    SmallGainError,
    ValidationError,
)
from .estimator import (
    EstimatorState,
    InitialStateEstimator,
    build_initial_estimator,
    estimator_verdict,
    verify_initial_opacity_via_estimator,
)
from .observer import (
    DEFAULT_STATE_CAP,
    Observer,
    ObserverState,
    build_observer,
    observer_verdict,
    verify_state_opacity,
)
from .polynomial import Polynomial, parse_polynomial
from .simrel import (
    AbstractionStatus,
    AbstractionVerdict,
    SimRelation,
    SimReport,
    check_relation,
    max_initsop_relation,
    opacity_via_abstraction,
)
from .system import (
    MetricSystem,
    NotionKind,
    OpacityNotion,
    OutputMetric,
    Path,
    delta_close,
    parse_system,
    post,
    pre,
    serialize_system,
)
from .verdict import Verdict, Witness
