"""Single-hidden-layer feedforward networks treated as statistical models.

The package fits networks by penalized maximum likelihood, quantifies
estimation uncertainty with a ridge-aware sandwich covariance, tests
weights singly and in per-covariate groups with Wald statistics,
summarizes covariate effects as partial-effect curves with delta-method
confidence bands, selects the hidden-layer width by BIC or
cross-validation, and ships a Monte Carlo harness for studying the
whole pipeline's sampling behavior.
"""

from .canonical import (align_to, all_symmetry_ops, apply_symmetry,
                        canonicalize)
from .effects import PceCurve, PcePoint, pce_curve, to_original_scale
from .exceptions import (DataError, FitError, NotPositiveDefiniteError,
                         ShapeError, StatnnError)
from .fit import FitConfig, FitResult, evaluate_at, fit
from .inference import (CovarianceEstimate, InferenceReport, WaldResult,
                        effective_df, sandwich_covariance, summarize,
                        wald_multi, wald_single)
from .likelihood import (gradient, log_likelihood, observed_information,
                         penalty, prediction_gradient)
from .model import (Architecture, ColumnMeta, Dataset, ParamVector, forward,
                    forward_batch, sigmoid)
from .preprocess import PreprocessPlan, dataset_from_meta, ingest
from .report import emit_diagram, emit_summary
from .selection import (LinearFit, SelectionSweep, bic, cross_validate,
                        fit_linear, sweep)
from .serialize import (ModelDocument, load_model, load_scenario,
                        model_document, save_model, save_scenario)
from .simgen import (SimReport, SimScenario, default_true_theta, run_grid,
                     run_scenario)
from .special import chi_square_survival, normal_quantile

__version__ = "0.1.0"

__all__ = [
    "Architecture", "ColumnMeta", "CovarianceEstimate", "DataError",
    "Dataset", "FitConfig", "FitError", "FitResult", "InferenceReport",
    "LinearFit", "ModelDocument", "NotPositiveDefiniteError",
    "ParamVector", "PceCurve", "PcePoint",
    "PreprocessPlan", "SelectionSweep", "ShapeError", "SimReport",
    "SimScenario", "StatnnError", "WaldResult", "align_to",
    "all_symmetry_ops", "apply_symmetry", "bic", "canonicalize",
    "chi_square_survival", "cross_validate", "dataset_from_meta",
    "default_true_theta", "effective_df", "emit_diagram", "emit_summary",
    "evaluate_at", "fit", "fit_linear", "forward", "forward_batch",
    "gradient", "ingest", "load_model", "load_scenario", "log_likelihood",
    "model_document", "normal_quantile", "observed_information",
    "pce_curve", "penalty", "prediction_gradient", "run_grid",
    "run_scenario", "sandwich_covariance", "save_model", "save_scenario",
    "sigmoid", "summarize", "sweep", "to_original_scale", "wald_multi",
    "wald_single",
]
