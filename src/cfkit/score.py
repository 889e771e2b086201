"""Combined-distance score function and CFN comparison.

The score of a CFN is its relative closeness, under the combined distance,
to the worst anchor ``<0,1,0>`` versus the best anchor ``<1,0,0>``:

    s = d(f, worst) / (d(f, worst) + d(f, best))

so ``s = 1`` at the best anchor, ``s = 0`` at the worst, and higher is
better.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import backends
from .cfn import CognitiveFuzzyNumber
from .distance import DistanceParams, component_row, order_code
from .errors import DegenerateDenominatorError

BEST_ANCHOR = CognitiveFuzzyNumber(1.0, 0.0, 0.0)
WORST_ANCHOR = CognitiveFuzzyNumber(0.0, 1.0, 0.0)

FIRST_BETTER = "first_better"
SECOND_BETTER = "second_better"
EQUAL = "equal"

# Scores closer than this are reported as a tie.
TIE_TOL = 1e-12
# A score normalizer d(f, worst) + d(f, best) below this is degenerate.
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ScoreResult:
    """Score plus its two distance components (both anchors)."""

    s: float
    d_to_worst: float
    d_to_best: float


def score(f: CognitiveFuzzyNumber, params: DistanceParams) -> ScoreResult:
    """Combined-distance score of ``f`` under the given order and balance."""
    parts = backends.anchor_parts(component_row(f).reshape(1, 4), order_code(params.p))
    d_worst, d_best = backends.combine(parts, params.lam)
    d_worst, d_best = float(d_worst[0]), float(d_best[0])
    denom = d_worst + d_best
    if denom < DEGENERATE_TOL:
        raise DegenerateDenominatorError(
            f"score normalizer collapsed to {denom!r} for {f}"
        )
    return ScoreResult(d_worst / denom, d_worst, d_best)


def compare(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, params: DistanceParams) -> str:
    """Order two CFNs by score: FIRST_BETTER, SECOND_BETTER, or EQUAL."""
    s1 = score(f1, params).s
    s2 = score(f2, params).s
    if abs(s1 - s2) <= TIE_TOL:
        return EQUAL
    return FIRST_BETTER if s1 > s2 else SECOND_BETTER
