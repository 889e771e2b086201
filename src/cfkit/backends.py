"""Array kernels behind the distance and score hot paths.

Every public distance and score function is a thin wrapper over the
kernels here.  Kernels operate on ``(n, 4)`` float64 component rows
``(u*, v*, j, h)``.  The Minkowski order is an integer code: 1..64 for the
order itself, 0 for the Chebyshev limit.

The aggregations perform only exactly-rounded operations in a fixed order
(abs, max, additions, and integer powers by exponent-by-squaring), followed
by one p-th root.  A scalar call and a batch call over the same rows
therefore give bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

CHEBYSHEV_CODE = 0


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


def cfim_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise improved Minkowski distance over 4-component rows."""
    a, b = _rows(a), _rows(b)
    agg = _np_agg4(
        np.abs(a[:, 0] - b[:, 0]),
        np.abs(a[:, 1] - b[:, 1]),
        np.abs(a[:, 2] - b[:, 2]),
        np.abs(a[:, 3] - b[:, 3]),
        p_code,
    )
    return _root(agg, p_code)


def legacy_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise Minkowski distance over (u*, v*, j) only."""
    a, b = _rows(a), _rows(b)
    agg = _np_agg3(
        np.abs(a[:, 0] - b[:, 0]),
        np.abs(a[:, 1] - b[:, 1]),
        np.abs(a[:, 2] - b[:, 2]),
        p_code,
    )
    return _root(agg, p_code)


def cfh_pairwise(a, b) -> np.ndarray:
    """Row-wise Hausdorff distance ``max(|du*|, |dv*|)``."""
    a, b = _rows(a), _rows(b)
    return np.maximum(np.abs(a[:, 0] - b[:, 0]), np.abs(a[:, 1] - b[:, 1]))


def anchor_distances(rows, p_code: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Combined distances of many CFN rows to the worst and the best anchor.

    The anchors ``<0,1,0>`` and ``<1,0,0>`` have the component rows
    ``(0, 1, 0, 0)`` and ``(1, 0, 0, 0)``.
    """
    f = _rows(rows)
    us, vs, j, h = f[:, 0], f[:, 1], f[:, 2], f[:, 3]
    w0 = np.abs(us - 0.0)
    w1 = np.abs(vs - 1.0)
    w2 = np.abs(j - 0.0)
    w3 = np.abs(h - 0.0)
    b0 = np.abs(us - 1.0)
    b1 = np.abs(vs - 0.0)
    lam = float(lam)
    oml = 1.0 - lam
    d_worst = lam * _root(_np_agg4(w0, w1, w2, w3, p_code), p_code) + oml * np.maximum(w0, w1)
    d_best = lam * _root(_np_agg4(b0, b1, w2, w3, p_code), p_code) + oml * np.maximum(b0, b1)
    return d_worst, d_best


def score_many(f, p_code: int, lam: float) -> np.ndarray:
    """Combined-distance scores of many CFN rows against the two anchors."""
    d_worst, d_best = anchor_distances(f, p_code, lam)
    return d_worst / (d_worst + d_best)
