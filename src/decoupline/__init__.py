"""Decoupling of multivariate vector functions into W1 g(W0 x).

Given Jacobian evaluations of f stacked into a third-order tensor and the
matching function values, the package factors them jointly into two mixing
matrices and a bank of univariate B-spline branch functions, optionally
constrained to be monotone increasing.
"""

from .bspline import (
    Constraint,
    Representation,
    SplineBasis,
    SplineFunction,
    determine_knots,
)
from .decoupling import (
    Certification,
    CmtfConfig,
    DecoupledModel,
    FitState,
    certify_monotone,
    decouple,
    load_model,
    predict,
    save_model,
)
from .experiments import (
    ExperimentSpec,
    RunRecord,
    error_tensor,
    output_error,
    run_experiment,
)
from .sysgen import (
    SampleSet,
    SyntheticSystem,
    builtin_mono,
    builtin_trig,
    jacobian_tensor,
    sample_for_system,
    sample_uniform,
    zeroth_matrix,
)
from .tensor3 import Tensor3, khatri_rao, unfold

__version__ = "0.1.0"

__all__ = [
    "Representation",
    "SplineBasis",
    "SplineFunction",
    "determine_knots",
    "Certification",
    "CmtfConfig",
    "Constraint",
    "DecoupledModel",
    "FitState",
    "certify_monotone",
    "decouple",
    "load_model",
    "predict",
    "save_model",
    "ExperimentSpec",
    "RunRecord",
    "error_tensor",
    "output_error",
    "run_experiment",
    "SampleSet",
    "SyntheticSystem",
    "builtin_mono",
    "builtin_trig",
    "jacobian_tensor",
    "sample_for_system",
    "sample_uniform",
    "zeroth_matrix",
    "Tensor3",
    "khatri_rao",
    "unfold",
    "__version__",
]
