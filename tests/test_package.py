"""The lazy ``cfkit`` package: every public name resolves on first use, and a
command imports only the modules it needs.

The import checks run in a fresh interpreter, because this one has imported
every cfkit module long ago.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfkit

SRC = str(Path(__file__).resolve().parents[1] / "src")
FIXTURES = Path(__file__).parent / "fixtures"

# The public names by defining module, as the package exported them eagerly.
EXPORTS = {
    "cfn": ["CFN", "CognitiveFuzzyNumber", "IntervalForm", "joint_bounds"],
    "distance": ["CHEBYSHEV", "DistanceParams", "cf_c", "cf_h", "cf_im", "interval_hausdorff",
                 "legacy_minkowski"],
    "errors": ["BadItemCountError", "CfkitError", "DegenerateDenominatorError",
               "EmptyFeasibleRegionError", "EmptyRangeError", "ItemOutOfRangeError",
               "JointBoundViolationError", "OutOfEpsilonRangeError", "OutOfRangeError"],
    "pain": ["Interpretation", "PainAssessment", "PainSolution", "interpret",
             "legacy_comparison_sweep", "normalize_patient_score", "sensitivity_sweep",
             "solve_programming1"],
    "perturbation": ["PerturbationConfig", "StudyResult", "TrialRecord", "epsilon_bounds",
                     "lambda_trend", "perturb", "run_study"],
    "score": ["BEST_ANCHOR", "WORST_ANCHOR", "ScoreResult", "compare", "score"],
}
# Modules that the distance command does not need.
NOT_FOR_DISTANCE = ["cfkit.figures", "cfkit.pain", "cfkit.perturbation", "cfkit.score"]


def run(code):
    """Run ``code`` in a new interpreter that imports cfkit from this checkout; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_distance_imports_only_what_it_needs(tmp_path):
    code = f"""
import sys
import cfkit.cli
loaded = lambda: ",".join(m for m in {NOT_FOR_DISTANCE!r} if m in sys.modules) or "-"
print(loaded())
argv = ["distance", "--measure", "c", "--batch", {str(FIXTURES / "pairs.csv")!r},
        "--out", {str(tmp_path / "out.txt")!r}]
assert cfkit.cli.main(argv) == 0
print(loaded())
"""
    assert run(code) == ["-", "-"]


def test_import_loads_numpy_and_no_submodule():
    code = "import sys, cfkit; print(sorted(m for m in sys.modules if m.startswith('cfkit')), 'numpy' in sys.modules)"
    assert run(code) == ["['cfkit']", "True"]


def test_all_names_are_those_of_their_modules():
    assert sorted(cfkit.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"cfkit.{module}")
        for name in names:
            assert getattr(cfkit, name) is getattr(defining, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from cfkit import *", namespace)
    for name in cfkit.__all__:
        assert namespace[name] is getattr(cfkit, name)
    assert set(cfkit.__all__) <= set(dir(cfkit))
    assert {"backends", "pain", "cli"} <= set(dir(cfkit))


def test_submodules_resolve_as_attributes():
    code = """
import cfkit
print(cfkit.backends.__name__, cfkit.pain.__name__, cfkit.cli.__name__)
"""
    assert run(code) == ["cfkit.backends", "cfkit.pain", "cfkit.cli"]


@pytest.mark.parametrize("first", ["import cfkit.score", "import cfkit.figures", "import cfkit.pain"])
def test_score_stays_the_function(first):
    """The submodule ``cfkit.score`` shares its name with the function ``cfkit.score``."""
    code = f"""
{first}
import cfkit
from cfkit import score
print(cfkit.score is score is cfkit.score.__globals__["score"], callable(score))
"""
    assert run(code) == ["True", "True"]


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        cfkit.no_such_name
    with pytest.raises(ImportError):
        from cfkit import no_such_name  # noqa: F401
