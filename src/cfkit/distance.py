"""Distance measures between cognitive fuzzy numbers.

Four measures are provided:

* ``legacy_minkowski`` - Minkowski distance over ``(u*, v*, j)``; ignores
  hesitancy, so pairs that differ only in hesitancy tie.
* ``cf_im``            - improved Minkowski distance over ``(u*, v*, j, h)``.
* ``cf_h``             - Hausdorff distance ``max(|du*|, |dv*|)``, equal to
  the Hausdorff distance of the interval representations.
* ``cf_c``             - convex combination ``lam*cf_im + (1-lam)*cf_h``;
  ``lam`` trades information utilization against anti-perturbation ability.

All are unnormalized (the Minkowski variants can exceed 1 at small p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backends
from .cfn import CognitiveFuzzyNumber, IntervalForm
from .errors import OutOfRangeError

# Named order for the p -> +inf limit of the Minkowski family.
CHEBYSHEV = math.inf

MAX_ORDER = 64

MEASURES = ("legacy", "im", "h", "c")


def order_code(p) -> int:
    """Validate a Minkowski order and map it to the kernel code.

    Accepted: integers 1..64, or ``CHEBYSHEV`` (``math.inf``) which maps to
    code 0. Fractional orders are rejected.
    """
    if isinstance(p, float) and math.isinf(p) and p > 0:
        return backends.CHEBYSHEV_CODE
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise OutOfRangeError(f"order p must be an integer or CHEBYSHEV, got {p!r}")
    p = int(p)
    if not 1 <= p <= MAX_ORDER:
        raise OutOfRangeError(f"order p must lie in 1..{MAX_ORDER}, got {p}")
    return p


def parse_order(text: str):
    """Read a Minkowski order written as text: an integer, or ``inf``.

    ``inf``, ``chebyshev`` and ``cheb`` (any case) name ``CHEBYSHEV``.  The
    range check is left to ``order_code``.
    """
    if text.strip().lower() in ("inf", "chebyshev", "cheb"):
        return CHEBYSHEV
    try:
        return int(text)
    except ValueError:
        raise OutOfRangeError(f"order p must be an integer or 'inf', got {text!r}") from None


@dataclass(frozen=True)
class DistanceParams:
    """Minkowski order and balance parameter for the combined distance.

    ``cf_h`` reads neither field and ``cf_im`` reads only ``p``; carrying
    both keeps one parameter object usable across every measure.
    """

    p: int | float = 2
    lam: float = 0.5

    def __post_init__(self) -> None:
        order_code(self.p)
        lam = float(self.lam)
        if math.isnan(lam) or not 0.0 <= lam <= 1.0:
            raise OutOfRangeError(f"lambda must lie in [0, 1], got {self.lam!r}")
        object.__setattr__(self, "lam", lam)


def component_row(f: CognitiveFuzzyNumber) -> np.ndarray:
    """The ``(u*, v*, j, h)`` component vector of a CFN."""
    return np.array([f.u_star, f.v_star, f.j, f.hesitancy])


def component_rows(fs) -> np.ndarray:
    """Stack component vectors of an iterable of CFNs into an (n, 4) array."""
    return np.array([[f.u_star, f.v_star, f.j, f.hesitancy] for f in fs]).reshape(-1, 4)


def check_lambdas(values) -> np.ndarray:
    """The balance values of a lambda grid as ``DistanceParams`` checks them, ``-0.0`` kept."""
    return np.array([DistanceParams(lam=float(lam)).lam for lam in values])


def _pair(f1, f2):
    return component_row(f1).reshape(1, 4), component_row(f2).reshape(1, 4)


def legacy_minkowski(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, p=1) -> float:
    """Minkowski distance over ``(u*, v*, j)``, without the hesitancy term."""
    return float(pairwise("legacy", *_pair(f1, f2), DistanceParams(p=p))[0])


def cf_im(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, p=1) -> float:
    """Improved Minkowski distance over all four degree components."""
    return float(pairwise("im", *_pair(f1, f2), DistanceParams(p=p))[0])


def cf_h(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber) -> float:
    """Hausdorff distance ``max(|u1* - u2*|, |v1* - v2*|)``."""
    return float(pairwise("h", *_pair(f1, f2), DistanceParams())[0])


def pairwise(measure: str, a, b, params: DistanceParams) -> np.ndarray:
    """Row-wise distances between ``(n, 4)`` component rows ``a`` and ``b``.

    ``measure`` is one of ``MEASURES``, naming ``legacy_minkowski``,
    ``cf_im``, ``cf_h`` and ``cf_c`` in that order, each a one-row call of it.
    """
    code = order_code(params.p)
    if measure == "legacy":
        return backends.legacy_pairwise(a, b, code)
    if measure == "im":
        return backends.cfim_pairwise(a, b, code)
    if measure == "h":
        return backends.cfh_pairwise(a, b)
    if measure == "c":
        norm, cheb = backends.cfim_pairwise(a, b, code), backends.cfh_pairwise(a, b)
        return backends.mix(params.lam, norm, cheb)
    raise OutOfRangeError(f"measure must be one of {', '.join(MEASURES)}, got {measure!r}")


def cf_c(f1: CognitiveFuzzyNumber, f2: CognitiveFuzzyNumber, params: DistanceParams) -> float:
    """Combined distance ``lam * cf_im + (1 - lam) * cf_h``."""
    return float(pairwise("c", *_pair(f1, f2), params)[0])


def interval_hausdorff(a: IntervalForm, b: IntervalForm) -> float:
    """Hausdorff distance between two closed intervals.

    Computed from first principles as the larger of the two directed gaps,
    each attained at an interval endpoint.  Serves as an independent check
    of ``cf_h`` applied to ``to_interval`` values.
    """

    def _directed(src_lo, src_hi, dst_lo, dst_hi):
        d_lo = max(dst_lo - src_lo, src_lo - dst_hi, 0.0)
        d_hi = max(dst_lo - src_hi, src_hi - dst_hi, 0.0)
        return max(d_lo, d_hi)

    return max(
        _directed(a.lo, a.hi, b.lo, b.hi),
        _directed(b.lo, b.hi, a.lo, a.hi),
    )
