"""Sparse linear regression with combined L1 and concave penalties.

Penalized least squares with an L1 term at a universal level plus a concave
term (hard-thresholding, SCAD, MCP, or SICA), solved by path-following
cyclic coordinate descent whose updates are exact univariate global
minimizers. Includes BIC/CV tuning, selection and design diagnostics, and a
reproducible Monte-Carlo study harness with CSV output.
"""

from .metrics import (ar1_covariance, equicorr_gram_infnorm, false_signs, fp_fn,
                      lq_loss, noise_event_check, prediction_error,
                      restricted_eigenvalue_estimate, sparse_eigenvalue)
from .penalty import (KINDS, PenaltySpec, ShapeCheckReport, check_shape_conditions,
                      penalty_derivative, penalty_value)
from .scalar_prox import level_for_threshold, prox_combined, zero_threshold
from .simulate import (SimConfig, StudyReport, combined_lambda_grid, gen_design,
                       gen_response, run_study, study_beta0, write_raw_csv, write_report_csv)
from .solver import (CertificateReport, DegenerateColumnError, FitResult,
                     PathResult, RegressionProblem, center, default_lambda_grid,
                     fit_combined, fit_path, objective_value, refit_ls,
                     standardize, computable_certificate, universal_lambda0)
from .tuning import SelectionResult, bic_select, cv_select

__version__ = "0.1.0"
