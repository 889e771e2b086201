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


def scores(rows, code: int, lam, fs) -> tuple:
    """``(s, d_to_worst, d_to_best)`` arrays of the CFNs ``fs``, whose component rows are ``rows``.

    ``lam`` is a balance value, one per row, or an ``(L, 1)`` column, which
    puts an axis on the ``(2, n)`` anchor parts and scores every row under
    each.  A normalizer below ``DEGENERATE_TOL`` raises
    ``DegenerateDenominatorError``.
    """
    parts = backends.anchor_parts(rows, code)
    if getattr(lam, "ndim", 0) == 2:
        parts = [x[:, None] for x in parts]
    d_worst, d_best = backends.combine(parts, lam)
    denom = d_worst + d_best
    degenerate = denom < DEGENERATE_TOL
    if degenerate.any():
        i = int(degenerate.argmax())
        raise DegenerateDenominatorError(
            f"score normalizer collapsed to {float(denom.flat[i])!r} for {fs[i % len(fs)]}"
        )
    return d_worst / denom, d_worst, d_best


def score(f: CognitiveFuzzyNumber, params: DistanceParams) -> ScoreResult:
    """Combined-distance score of ``f`` under the given order and balance."""
    s, d_worst, d_best = scores(component_rows((f,)), order_code(params.p), params.lam, (f,))
    return ScoreResult(float(s[0]), float(d_worst[0]), float(d_best[0]))


def compare(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, params: DistanceParams) -> str:
    """Order two CFNs by score: FIRST_BETTER, SECOND_BETTER, or EQUAL."""
    s1 = score(f1, params).s
    s2 = score(f2, params).s
    if abs(s1 - s2) <= TIE_TOL:
        return EQUAL
    return FIRST_BETTER if s1 > s2 else SECOND_BETTER
