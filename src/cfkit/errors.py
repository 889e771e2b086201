"""Exception types raised across the toolkit."""


class CfkitError(Exception):
    """Base class for all cfkit domain errors."""


class OutOfRangeError(CfkitError, ValueError):
    """A numeric input lies outside its documented range."""


class JointBoundViolationError(CfkitError, ValueError):
    """Joint degree outside the admissible interval for its (u, v) pair."""


class EmptyRangeError(CfkitError, ValueError):
    """A derived interval came out empty (defensive; unreachable for valid inputs)."""


class OutOfEpsilonRangeError(CfkitError, ValueError):
    """Perturbation size outside the admissible epsilon interval."""


class DegenerateDenominatorError(CfkitError, ArithmeticError):
    """Score normalizer collapsed to zero.

    No code raises it: for admissible CFNs ``d(f, worst) + d(f, best) >= 1``
    by the triangle inequality (see ``score.scores``).  It stays exported,
    in ``cfkit.__all__`` too, for code that catches it.
    """


class BadItemCountError(CfkitError, ValueError):
    """Questionnaire does not contain exactly seven items."""


class ItemOutOfRangeError(CfkitError, ValueError):
    """Questionnaire item outside the 0..10 integer scale."""


class EmptyFeasibleRegionError(CfkitError, ValueError):
    """Solver feasible interval is empty.

    No code raises it: ``joint_bounds`` never returns an empty interval.  It
    stays exported, in ``cfkit.__all__`` too, for code that catches it.
    """
