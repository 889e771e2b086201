"""cfkit: cognitive fuzzy numbers, their distances, scoring, and applications.

cfkit's kernels are elementwise and make no BLAS call, yet ``import numpy``
loads OpenBLAS, whose idle worker threads busy-wait for about 0.1 s of CPU
each before they sleep.  When cfkit is the first to import numpy and the
environment does not already set ``OPENBLAS_THREAD_TIMEOUT``, it imports
numpy with that variable at OpenBLAS's shortest timeout, so the workers
sleep at once, and removes it again.  OpenBLAS reads it once, when it loads:
the pool and its thread count are unchanged, and neither the environment
nor child processes see the variable afterwards.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .cfn import CFN, CognitiveFuzzyNumber, IntervalForm, joint_bounds
from .distance import (
    CHEBYSHEV,
    DistanceParams,
    cf_c,
    cf_h,
    cf_im,
    interval_hausdorff,
    legacy_minkowski,
)
from .errors import (
    BadItemCountError,
    CfkitError,
    DegenerateDenominatorError,
    EmptyFeasibleRegionError,
    EmptyRangeError,
    ItemOutOfRangeError,
    JointBoundViolationError,
    OutOfEpsilonRangeError,
    OutOfRangeError,
)
from .pain import (
    Interpretation,
    PainAssessment,
    PainSolution,
    interpret,
    legacy_comparison_sweep,
    normalize_patient_score,
    sensitivity_sweep,
    solve_programming1,
)
from .perturbation import (
    PerturbationConfig,
    StudyResult,
    TrialRecord,
    epsilon_bounds,
    lambda_trend,
    perturb,
    run_study,
)
from .score import BEST_ANCHOR, WORST_ANCHOR, ScoreResult, compare, score

__version__ = "0.1.0"

__all__ = [
    "CFN",
    "CognitiveFuzzyNumber",
    "IntervalForm",
    "joint_bounds",
    "CHEBYSHEV",
    "DistanceParams",
    "legacy_minkowski",
    "cf_im",
    "cf_h",
    "cf_c",
    "interval_hausdorff",
    "ScoreResult",
    "score",
    "compare",
    "BEST_ANCHOR",
    "WORST_ANCHOR",
    "PerturbationConfig",
    "StudyResult",
    "TrialRecord",
    "epsilon_bounds",
    "perturb",
    "run_study",
    "lambda_trend",
    "PainAssessment",
    "PainSolution",
    "Interpretation",
    "normalize_patient_score",
    "solve_programming1",
    "interpret",
    "sensitivity_sweep",
    "legacy_comparison_sweep",
    "CfkitError",
    "OutOfRangeError",
    "JointBoundViolationError",
    "EmptyRangeError",
    "OutOfEpsilonRangeError",
    "DegenerateDenominatorError",
    "BadItemCountError",
    "ItemOutOfRangeError",
    "EmptyFeasibleRegionError",
]
