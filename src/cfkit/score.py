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
from .distance import DistanceParams, component_rows, order_code

BEST_ANCHOR = CognitiveFuzzyNumber(1.0, 0.0, 0.0)
WORST_ANCHOR = CognitiveFuzzyNumber(0.0, 1.0, 0.0)

FIRST_BETTER = "first_better"
SECOND_BETTER = "second_better"
EQUAL = "equal"

# Scores closer than this are reported as a tie.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ScoreResult:
    """Score plus its two distance components (both anchors)."""

    s: float
    d_to_worst: float
    d_to_best: float


def scores(rows, code: int, lam) -> tuple:
    """``(s, d_to_worst, d_to_best)`` arrays of the CFNs whose component rows are ``rows``.

    ``lam`` is a balance value, one per row, or an ``(L, 1)`` column, which
    puts an axis on the ``(2, n)`` anchor parts and scores every row under
    each.  The normalizer ``d_to_worst + d_to_best`` is at least
    ``d(worst, best) >= 1`` by the triangle inequality, and its computed
    value is within a few ulps of that, so the division never degenerates.
    """
    parts = backends.anchor_parts(rows, code)
    if getattr(lam, "ndim", 0) == 2:
        parts = [x[:, None] for x in parts]
    d_worst, d_best = backends.combine(parts, lam)
    return d_worst / (d_worst + d_best), d_worst, d_best


def score(f: CognitiveFuzzyNumber, params: DistanceParams) -> ScoreResult:
    """Combined-distance score of ``f`` under the given order and balance."""
    s, d_worst, d_best = scores(component_rows((f,)), order_code(params.p), params.lam)
    return ScoreResult(float(s[0]), float(d_worst[0]), float(d_best[0]))


def compare(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, params: DistanceParams) -> str:
    """Order two CFNs by score: FIRST_BETTER, SECOND_BETTER, or EQUAL."""
    s1 = score(f1, params).s
    s2 = score(f2, params).s
    if abs(s1 - s2) <= TIE_TOL:
        return EQUAL
    return FIRST_BETTER if s1 > s2 else SECOND_BETTER
