"""critflow: critical points of autonomous ODE systems and numerical
verification of topological conjugacy under coordinate transformations.

The library analyzes a vector field written in a small expression language
for its fixed points (zeros of the velocity) and perpetual points (zeros
of the acceleration field F = Df f at nonzero velocity), classifies them
by the eigenvalues of the respective Jacobians, and checks numerically
whether a coordinate map carries those points, spectra, and flows onto a
transformed system's.
"""

__version__ = "0.1.0"

from .expr import (
    Expression, Const, Name, Unary, Binary,
    ExpressionError, ExpressionSyntaxError, UnknownIdentifierError, DomainError,
    parse_expression, evaluate, differentiate, free_variables, to_source,
    SystemDefinition,
)
from .region import AnalysisRegion, lattice_points
from .linalg import (
    Spectrum, SingularMatrixError, EigenConvergenceError,
    eigenvalues, solve_linear, spectrum_distance,
)
from .fields import (
    VectorMap, VectorField, TransformationMap, InverseMismatchError,
    acceleration_field, pushforward_velocity, pushforward_acceleration,
    transformed_system, image_region,
)
from .points import (
    FIXED, PERPETUAL, SolverConfig, CriticalPoint, PointSearch,
    NoConvergenceError, newton_root, fixed_point_search, perpetual_point_search,
    classify_point,
)
from .flows import (
    IntegratorConfig, Trajectory, BlowUpError, StepUnderflowError,
    integrate, flow_map,
)
from .conjugacy import (
    HOLDS, FAILS, NOT_APPLICABLE, THEOREM_IDS,
    MatchRecord, TheoremCheck, ConjugacyReport,
    verify_flow_conjugacy, verify_point_mapping, verify_spectrum_preservation,
    detect_new_points, run_verification, select_flow_points,
)

__all__ = [
    "__version__",
    # expr
    "Expression", "Const", "Name", "Unary", "Binary",
    "ExpressionError", "ExpressionSyntaxError", "UnknownIdentifierError",
    "DomainError", "parse_expression", "evaluate", "differentiate",
    "free_variables", "to_source", "SystemDefinition",
    # region
    "AnalysisRegion", "lattice_points",
    # linalg
    "Spectrum", "SingularMatrixError", "EigenConvergenceError",
    "eigenvalues", "solve_linear", "spectrum_distance",
    # fields
    "VectorMap", "VectorField", "TransformationMap",
    "InverseMismatchError", "acceleration_field",
    "pushforward_velocity", "pushforward_acceleration",
    "transformed_system", "image_region",
    # points
    "FIXED", "PERPETUAL", "SolverConfig", "CriticalPoint", "PointSearch",
    "NoConvergenceError", "newton_root", "fixed_point_search",
    "perpetual_point_search", "classify_point",
    # flows
    "IntegratorConfig", "Trajectory", "BlowUpError", "StepUnderflowError",
    "integrate", "flow_map",
    # conjugacy
    "HOLDS", "FAILS", "NOT_APPLICABLE", "THEOREM_IDS",
    "MatchRecord", "TheoremCheck", "ConjugacyReport",
    "verify_flow_conjugacy", "verify_point_mapping",
    "verify_spectrum_preservation", "detect_new_points", "run_verification",
    "select_flow_points",
]
