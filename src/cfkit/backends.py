"""Array kernels behind the distance and score hot paths.

Every public distance and score function is a thin wrapper over the
kernels here.  Kernels operate on ``(n, 4)`` float64 component rows
``(u*, v*, j, h)``.  The Minkowski order is an integer code: 1..64 for the
order itself, 0 for the Chebyshev limit.

The aggregations perform only exactly-rounded operations in a fixed order
(abs, max, additions, and integer powers by square-and-multiply), followed
by one p-th root.  A scalar call and a batch call over the same rows
therefore give bitwise-identical results.

At high orders the power sum of close rows underflows (every term below
about 1.6e-5 at p=64 gives a sum under the smallest normal float), which
would make distinct rows sit at distance 0.  ``_finish``, the root step of
every norm, recomputes exactly those rows max-scaled,
``m * (sum (t/m)**p)**(1/p)`` with ``m = max t``, as LAPACK's ``dnrm2``
does; every other row keeps the unscaled result.

The score splits into a lambda-free and a per-lambda half.
``anchor_parts(rows, p_code)`` returns the Minkowski norm and the Chebyshev
term of each row to the worst anchor ``(0, 1, 0, 0)`` and to the best anchor
``(1, 0, 0, 0)``; the two anchors share the ``|j|**p`` and ``|h|**p`` powers.
``combine(parts, lam)`` mixes them into the two combined distances
``lam * norm + (1 - lam) * chebyshev``, and ``ratio`` turns those into the
score.  A solver that scores the same rows under many lambdas computes the
parts once.
"""

from __future__ import annotations

import numpy as np

CHEBYSHEV_CODE = 0

_TINY = np.finfo(np.float64).tiny

# The six distinct anchor terms, as (component, anchor value) pairs:
# |u* - 0|, |v* - 1|, |j|, |h| to the worst anchor, then |u* - 1|, |v* - 0|
# to the best one, which shares |j| and |h|.
_ANCHOR_COLUMNS = [0, 1, 2, 3, 0, 1]
_ANCHOR_VALUES = np.array([[0.0], [1.0], [0.0], [0.0], [1.0], [0.0]])


def _rows(x) -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"expected (n, 4) component rows, got shape {a.shape}")
    return a


def _root(s: np.ndarray, p: int) -> np.ndarray:
    # Chebyshev (0) and p=1 aggregates are already the distance.
    if p <= 1:
        return s
    if p == 2:
        return np.sqrt(s)
    return s ** (1.0 / p)


def _ipow(x: np.ndarray, p: int) -> np.ndarray:
    """``x**p`` for an integer ``p >= 1`` by square-and-multiply.

    The first factor is taken as it is rather than multiplied into 1.0, and
    the squaring stops at the top set bit of ``p``.
    """
    out = None
    while True:
        if p & 1:
            out = x if out is None else out * x
        p >>= 1
        if not p:
            return out
        x = x * x


def _sum(terms, p: int) -> np.ndarray:
    """Fold ``terms`` left to right: max for Chebyshev, else addition."""
    op = np.maximum if p == CHEBYSHEV_CODE else np.add
    out = op(terms[0], terms[1])
    for t in terms[2:]:
        op(out, t, out=out)
    return out


def _finish(s: np.ndarray, terms, p: int) -> np.ndarray:
    """p-th root of the power sum ``s`` of ``terms``.

    Rows whose power sum falls below the smallest normal float are
    recomputed max-scaled (0 where every term is 0); Chebyshev and p=1 sums
    take no powers and cannot underflow.
    """
    d = _root(s, p)
    if p > 1:
        small = s < _TINY
        if small.any():
            t = np.stack([x[small] for x in terms])
            m = t.max(axis=0)
            t /= np.where(m > 0.0, m, 1.0)
            d[small] = m * _root(_sum(_ipow(t, p), p), p)
    return d


def _norm(terms, p: int) -> np.ndarray:
    """Minkowski norm over the absolute-difference columns ``terms``."""
    powers = terms if p <= 1 else [_ipow(t, p) for t in terms]
    return _finish(_sum(powers, p), terms, p)


def cfim_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise improved Minkowski distance over 4-component rows."""
    a, b = _rows(a), _rows(b)
    terms = [np.abs(a[:, i] - b[:, i]) for i in range(4)]
    return _norm(terms, p_code)


def legacy_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise Minkowski distance over (u*, v*, j) only."""
    a, b = _rows(a), _rows(b)
    terms = [np.abs(a[:, i] - b[:, i]) for i in range(3)]
    return _norm(terms, p_code)


def cfh_pairwise(a, b) -> np.ndarray:
    """Row-wise Hausdorff distance ``max(|du*|, |dv*|)``."""
    a, b = _rows(a), _rows(b)
    return np.maximum(np.abs(a[:, 0] - b[:, 0]), np.abs(a[:, 1] - b[:, 1]))


def anchor_parts(rows, p_code: int) -> tuple[np.ndarray, ...]:
    """The lambda-free parts of the distances of many CFN rows to the anchors.

    Returns ``(norm_worst, cheb_worst, norm_best, cheb_best)``: the Minkowski
    norm and the Chebyshev term ``max(|du*|, |dv*|)`` to the worst anchor
    ``<0,1,0>`` and to the best anchor ``<1,0,0>``.  The norms go through the
    underflow rescue, so rows within about 1e-5 of an anchor at high p keep a
    nonzero distance.
    """
    t = np.abs(_rows(rows).T[_ANCHOR_COLUMNS] - _ANCHOR_VALUES)
    # Chebyshev (0) and p=1 aggregate the terms themselves.
    tp = t if p_code <= 1 else _ipow(t, p_code)
    worst, best = (t[0], t[1], t[2], t[3]), (t[4], t[5], t[2], t[3])
    s_worst = _sum((tp[0], tp[1], tp[2], tp[3]), p_code)
    s_best = _sum((tp[4], tp[5], tp[2], tp[3]), p_code)
    return (
        _finish(s_worst, worst, p_code),
        np.maximum(t[0], t[1]),
        _finish(s_best, best, p_code),
        np.maximum(t[4], t[5]),
    )


def combine(parts, lam) -> tuple[np.ndarray, np.ndarray]:
    """Combined distances ``lam * norm + (1 - lam) * cheb`` to the worst and the best anchor.

    ``parts`` is an ``anchor_parts`` result; ``lam`` is one balance value or
    an array with one value per row.
    """
    norm_worst, cheb_worst, norm_best, cheb_best = parts
    lam = np.asarray(lam, dtype=np.float64)
    oml = 1.0 - lam
    return lam * norm_worst + oml * cheb_worst, lam * norm_best + oml * cheb_best


def ratio(distances) -> np.ndarray:
    """Score ``d_worst / (d_worst + d_best)`` of a ``combine`` result."""
    d_worst, d_best = distances
    return d_worst / (d_worst + d_best)


def anchor_distances(rows, p_code: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """Combined distances of many CFN rows to the worst and the best anchor."""
    return combine(anchor_parts(rows, p_code), lam)


def score_many(f, p_code: int, lam) -> np.ndarray:
    """Combined-distance scores of many CFN rows against the two anchors."""
    return ratio(combine(anchor_parts(f, p_code), lam))
