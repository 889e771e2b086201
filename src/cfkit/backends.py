"""Array kernels behind the distance and score hot paths.

Every public distance and score function is a thin wrapper over the
kernels here.  Kernels operate on ``(n, 4)`` float64 component rows
``(u*, v*, j, h)``.  The Minkowski order is an integer code: 1..64 for the
order itself, 0 for the Chebyshev limit.

The aggregations perform only exactly-rounded operations in a fixed order
(abs, max, additions, and integer powers by exponent-by-squaring), followed
by one p-th root.  A scalar call and a batch call over the same rows
therefore give bitwise-identical results.

At high orders the power sum of close rows underflows (every term below
about 1.6e-5 at p=64 gives a sum under the smallest normal float), which
would make distinct rows sit at distance 0.  ``_norm`` recomputes exactly
those rows max-scaled, ``m * (sum (t/m)**p)**(1/p)`` with ``m = max t``, as
LAPACK's ``dnrm2`` does; every other row keeps the unscaled result.
"""

from __future__ import annotations

import numpy as np

CHEBYSHEV_CODE = 0

_TINY = np.finfo(np.float64).tiny


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


def _np_ipow(x: np.ndarray, p: int) -> np.ndarray:
    out = np.ones_like(x)
    base = x.copy()
    n = p
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _np_agg4(t0, t1, t2, t3, p):
    if p == CHEBYSHEV_CODE:
        return np.maximum(np.maximum(t0, t1), np.maximum(t2, t3))
    if p == 1:
        return ((t0 + t1) + t2) + t3
    return ((_np_ipow(t0, p) + _np_ipow(t1, p)) + _np_ipow(t2, p)) + _np_ipow(t3, p)


def _np_agg3(t0, t1, t2, p):
    if p == CHEBYSHEV_CODE:
        return np.maximum(np.maximum(t0, t1), t2)
    if p == 1:
        return (t0 + t1) + t2
    return (_np_ipow(t0, p) + _np_ipow(t1, p)) + _np_ipow(t2, p)


def _norm(agg, terms, p: int) -> np.ndarray:
    """Minkowski norm of the absolute-difference columns ``terms``.

    ``agg`` is ``_np_agg4`` or ``_np_agg3``.  Rows whose power sum falls
    below the smallest normal float are recomputed max-scaled (0 where
    every term is 0); Chebyshev and p=1 sums take no powers and cannot
    underflow.
    """
    s = agg(*terms, p)
    d = _root(s, p)
    if p > 1:
        small = s < _TINY
        if small.any():
            t = [x[small] for x in terms]
            m = agg(*t, CHEBYSHEV_CODE)
            scale = np.where(m > 0.0, m, 1.0)
            d[small] = m * _root(agg(*(x / scale for x in t), p), p)
    return d


def cfim_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise improved Minkowski distance over 4-component rows."""
    a, b = _rows(a), _rows(b)
    terms = [np.abs(a[:, i] - b[:, i]) for i in range(4)]
    return _norm(_np_agg4, terms, p_code)


def legacy_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise Minkowski distance over (u*, v*, j) only."""
    a, b = _rows(a), _rows(b)
    terms = [np.abs(a[:, i] - b[:, i]) for i in range(3)]
    return _norm(_np_agg3, terms, p_code)


def cfh_pairwise(a, b) -> np.ndarray:
    """Row-wise Hausdorff distance ``max(|du*|, |dv*|)``."""
    a, b = _rows(a), _rows(b)
    return np.maximum(np.abs(a[:, 0] - b[:, 0]), np.abs(a[:, 1] - b[:, 1]))


def anchor_distances(rows, p_code: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """Combined distances of many CFN rows to the worst and the best anchor.

    The anchors ``<0,1,0>`` and ``<1,0,0>`` have the component rows
    ``(0, 1, 0, 0)`` and ``(1, 0, 0, 0)``.  ``lam`` is one balance value or
    an array with one value per row.  The Minkowski parts go through
    ``_norm``, so rows within about 1e-5 of an anchor at high p keep a
    nonzero distance.
    """
    f = _rows(rows)
    us, vs, j, h = f[:, 0], f[:, 1], f[:, 2], f[:, 3]
    w0 = np.abs(us - 0.0)
    w1 = np.abs(vs - 1.0)
    w2 = np.abs(j - 0.0)
    w3 = np.abs(h - 0.0)
    b0 = np.abs(us - 1.0)
    b1 = np.abs(vs - 0.0)
    lam = np.asarray(lam, dtype=np.float64)
    oml = 1.0 - lam
    d_worst = lam * _norm(_np_agg4, (w0, w1, w2, w3), p_code) + oml * np.maximum(w0, w1)
    d_best = lam * _norm(_np_agg4, (b0, b1, w2, w3), p_code) + oml * np.maximum(b0, b1)
    return d_worst, d_best


def score_many(f, p_code: int, lam) -> np.ndarray:
    """Combined-distance scores of many CFN rows against the two anchors."""
    d_worst, d_best = anchor_distances(f, p_code, lam)
    return d_worst / (d_worst + d_best)
