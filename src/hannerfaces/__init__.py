"""Face-number machinery for recursively built Hanner polytopes.

Exact coefficient recursions, window-composition maps, weighted-tree
representations, small-dimension geometric oracles, and an asymptotics
harness, exposed both as a library and through the ``hannerfaces`` CLI.
"""

from .asymptotics import (
    EnvelopeReport,
    FitResult,
    ScanRow,
    bound_envelope,
    fit_exponent,
    flm_report,
    floor_d_delta,
    scan,
)
from .errors import BudgetExceededError, PrecisionError, UsageError, VerificationError
from .geometry import (
    FaceLattice,
    VPolytope,
    build_polytope,
    face_lattice,
    oracle_report,
    radii,
    radii_recursion,
)
from .phimap import PhiMap, apply_phi, compose_window, tfree_and_top, window_support, word_from_string
from .polys import (
    DecimalPoly,
    IntPoly,
    LogPoly,
    convolve_truncated,
    eval_at_one,
    power_truncated,
)
from .recursion import (
    Engine,
    RecursionState,
    face_numbers,
    initial_state,
    proper_f_vector,
    step,
    verify_growth_bounds,
)
from .schedule import DensityParam, StepKind, Window, choose_window, is_product_step, window_profile
from .trees import (
    LowerBoundCertificate,
    enumerate_trees,
    lower_bound_certificate,
    tree_sum_check,
    tree_weight,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DecimalPoly",
    "DensityParam",
    "Engine",
    "EnvelopeReport",
    "FaceLattice",
    "FitResult",
    "IntPoly",
    "LogPoly",
    "LowerBoundCertificate",
    "PhiMap",
    "PrecisionError",
    "RecursionState",
    "ScanRow",
    "StepKind",
    "UsageError",
    "VPolytope",
    "VerificationError",
    "Window",
    "apply_phi",
    "bound_envelope",
    "build_polytope",
    "choose_window",
    "compose_window",
    "convolve_truncated",
    "enumerate_trees",
    "eval_at_one",
    "face_lattice",
    "face_numbers",
    "fit_exponent",
    "flm_report",
    "floor_d_delta",
    "initial_state",
    "is_product_step",
    "lower_bound_certificate",
    "oracle_report",
    "power_truncated",
    "proper_f_vector",
    "radii",
    "radii_recursion",
    "scan",
    "step",
    "tfree_and_top",
    "tree_sum_check",
    "tree_weight",
    "verify_growth_bounds",
    "window_profile",
    "window_support",
    "word_from_string",
]
