"""cfkit: cognitive fuzzy numbers, their distances, scoring, and applications.

cfkit's kernels are elementwise and make no BLAS call, yet ``import numpy``
loads OpenBLAS, whose idle worker threads busy-wait for about 0.1 s of CPU
each before they sleep.  When cfkit is the first to import numpy and the
environment does not already set ``OPENBLAS_THREAD_TIMEOUT``, it imports
numpy with that variable at OpenBLAS's shortest timeout, so the workers
sleep at once, and removes it again.  OpenBLAS reads it once, when it loads:
the pool and its thread count are unchanged, and neither the environment
nor child processes see the variable afterwards.

Nothing else of cfkit is imported with the package.  Each public name, and
each submodule (``cfkit.pain``, ``cfkit.backends``, ...), is imported the
first time it is looked up (PEP 562), so a command loads only the modules it
uses; ``from cfkit import X`` and ``from cfkit import *`` work as before.
"""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

_set_timeout = "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ
if _set_timeout:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
try:
    import numpy as _numpy
finally:
    if _set_timeout:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "cfn": ("CFN", "CognitiveFuzzyNumber", "IntervalForm", "joint_bounds"),
    "distance": ("CHEBYSHEV", "DistanceParams", "legacy_minkowski", "cf_im", "cf_h", "cf_c",
                 "interval_hausdorff"),
    "score": ("ScoreResult", "score", "compare", "BEST_ANCHOR", "WORST_ANCHOR"),
    "perturbation": ("PerturbationConfig", "StudyResult", "TrialRecord", "epsilon_bounds",
                     "perturb", "run_study", "lambda_trend"),
    "pain": ("PainAssessment", "PainSolution", "Interpretation", "normalize_patient_score",
             "solve_programming1", "interpret", "sensitivity_sweep", "legacy_comparison_sweep"),
    "errors": ("CfkitError", "OutOfRangeError", "JointBoundViolationError", "EmptyRangeError",
               "OutOfEpsilonRangeError", "DegenerateDenominatorError", "BadItemCountError",
               "ItemOutOfRangeError", "EmptyFeasibleRegionError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("backends", "cfn", "cli", "distance", "errors", "figures", "pain",
               "perturbation", "score")

__all__ = list(_HOME)


def _submodule(name):
    # __import__, unlike importlib.import_module, shows in python -X importtime
    __import__(f"{__name__}.{name}")
    return _sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(_submodule(module), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _submodule(name)  # the import also binds it in this module's globals
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(_ModuleType):
    """The package's module type: ``cfkit.score`` stays the function ``score``.

    Importing a submodule binds it on its package under its own name, and the
    submodule ``score`` shares its name with the function it defines.
    """

    def __setattr__(self, name, value):
        if name == "score" and isinstance(value, _ModuleType):
            value = value.score
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
