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

The score splits into a lambda-free and a per-lambda half.  ``terms_parts(t,
p_code)`` takes the anchor terms of many rows, ``|u*|, |u* - 1|, |v* - 1|,
|v*|, |j|, |h|``, whose rows 0:2 and 2:4 are (worst, best) pairs, and
returns the Minkowski norms and Chebyshev terms ``(norm, cheb)``, each ``(2,
...)``, to the worst anchor ``(0, 1, 0, 0)`` and the best ``(1, 0, 0, 0)``:
one array axis through the powers, sum, root and max.  ``mix(lam, norm,
cheb)``, the one place that computes ``lam * norm + (1 - lam) * cheb`` for
every caller, turns them into one ``(2, ...)`` array of the distances to
both anchors, and ``ratio`` turns that into the score.  A caller that
scores the same rows under many lambdas computes the parts once; a column
of lambdas needs an axis on them, ``(2, 1, n)`` against ``(L, 1)``.

The terms come from one of two builders.  ``anchor_parts(rows, p_code)``
takes them of ``(n, 4)`` component rows and is the ``terms_parts`` of
those.  ``line_terms`` writes them straight from ``(u, v, j)`` for the pain
solver, whose rows are the CFNs of fixed similarities and a varying joint
degree, in the shape of ``j``.  Every kernel returns new arrays and keeps no
state between calls.
"""

from __future__ import annotations

import numpy as np

CHEBYSHEV_CODE = 0

_TINY = np.finfo(np.float64).tiny

# The six distinct anchor terms, as (component, anchor value) pairs:
# |u* - 0| and |u* - 1|, then |v* - 1| and |v* - 0|, each a (worst, best)
# pair, then |j| and |h|, which both anchors share.
_ANCHOR_COLUMNS = [0, 0, 1, 1, 2, 3]
_ANCHOR_VALUES = np.array([[0.0], [1.0], [1.0], [0.0], [0.0], [0.0]])


def _rows(x) -> np.ndarray:
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"expected (n, 4) component rows, got shape {a.shape}")
    return a


def _root(s: np.ndarray, p: int) -> np.ndarray:
    """p-th root of the aggregate ``s``, in place."""
    # Chebyshev (0) and p=1 aggregates are already the distance.
    if p == 2:
        np.sqrt(s, out=s)
    elif p > 2:
        np.power(s, 1.0 / p, out=s)
    return s


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
    """p-th root of the power sum ``s`` of the terms that ``terms()`` returns, in place.

    Rows whose power sum falls below the smallest normal float are
    recomputed max-scaled (0 where every term is 0), reading the terms by
    broadcast; Chebyshev and p=1 sums take no powers and cannot underflow.
    Only that rescue asks for the terms, so a caller builds them on demand.
    The test for it is one reduction: ``fmin`` skips NaN as ``s < _TINY``
    does.
    """
    if p <= 1:
        return s
    if np.fmin.reduce(s, axis=None) >= _TINY:
        return _root(s, p)
    small = s < _TINY
    _root(s, p)
    t = np.stack([np.broadcast_to(x, s.shape)[small] for x in terms()])
    m = t.max(axis=0)
    t /= np.where(m > 0.0, m, 1.0)
    s[small] = m * _root(_sum(_ipow(t, p), p), p)
    return s


def _norm(terms, p: int) -> np.ndarray:
    """Minkowski norm over the absolute-difference columns ``terms``."""
    powers = terms if p <= 1 else [_ipow(t, p) for t in terms]
    return _finish(_sum(powers, p), lambda: terms, p)


def cfim_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise improved Minkowski distance over 4-component rows."""
    a, b = _rows(a), _rows(b)
    terms = [np.abs(a[:, i] - b[:, i]) for i in range(4)]
    return _norm(terms, p_code)


def legacy_pairwise(a, b, p_code: int) -> np.ndarray:
    """Row-wise Minkowski distance over (u*, v*, j) only.

    That is ``cfim_pairwise`` of the rows with their hesitancy zeroed, bit
    for bit: a zero term adds nothing to the power sum, the max or the
    underflow rescue.
    """
    a, b = _rows(a), _rows(b)
    return _norm([np.abs(a[:, i] - b[:, i]) for i in range(3)], p_code)


def cfh_pairwise(a, b) -> np.ndarray:
    """Row-wise Hausdorff distance ``max(|du*|, |dv*|)``."""
    a, b = _rows(a), _rows(b)
    return np.maximum(np.abs(a[:, 0] - b[:, 0]), np.abs(a[:, 1] - b[:, 1]))


def anchor_parts(rows, p_code: int) -> tuple[np.ndarray, np.ndarray]:
    """The lambda-free parts of the distances of many CFN rows to the anchors.

    Returns ``(norm, cheb)``, each of shape ``(2, n)``: the Minkowski norm
    and the Chebyshev term ``max(|du*|, |dv*|)`` to the worst anchor
    ``<0,1,0>`` (index 0) and to the best anchor ``<1,0,0>`` (index 1).  The
    norms go through the underflow rescue, so rows within about 1e-5 of an
    anchor at high p keep a nonzero distance.
    """
    return terms_parts(np.abs(_rows(rows).T[_ANCHOR_COLUMNS] - _ANCHOR_VALUES), p_code)


def line_terms(u: float, v: float, j: np.ndarray, blind: bool) -> np.ndarray:
    """The six anchor terms of the rows ``(u - j, v - j, j, 1 - u - v + j)``.

    These rows are the CFNs with similarities ``u`` and ``v`` and joint
    degree ``j``; ``blind`` zeroes their hesitancy.  The result is ``(6,
    *j.shape)``, in the order of ``terms_parts``, and is, bit for bit, the
    terms ``anchor_parts`` takes of the same rows: subtracting 0 changes no
    bits that survive the absolute value.
    """
    t = np.empty((6,) + j.shape)
    np.subtract(u, j, out=t[0])
    np.subtract(v, j, out=t[3])
    np.subtract(t[0:4:3], 1.0, out=t[1:3])  # u* - 1 and v* - 1 from rows 0 and 3
    t[4] = j
    if blind:
        t[5] = 0.0
    else:
        np.add(1.0 - u - v, j, out=t[5])
    return np.abs(t, out=t)


def terms_parts(t: np.ndarray, p_code: int) -> tuple[np.ndarray, np.ndarray]:
    """``anchor_parts`` of the ``(6, ...)`` anchor terms ``t``.

    Both anchors' norms are one fold, ``|u* - a|**p + |v* - b|**p``, then
    ``|j|**p``, then ``|h|**p``, and one root; the Chebyshev terms one max.
    """
    # Chebyshev (0) and p=1 aggregate the terms themselves.
    tp = t if p_code <= 1 else _ipow(t, p_code)
    norm = _finish(
        _sum((tp[0:2], tp[2:4], tp[4], tp[5]), p_code), lambda: (t[0:2], t[2:4], t[4], t[5]), p_code
    )
    return norm, np.maximum(t[0:2], t[2:4])


def mix(lam, norm, cheb) -> np.ndarray:
    """The combined distance ``lam * norm + (1 - lam) * cheb``.

    ``lam`` is one value or an array that broadcasts; ``norm`` and ``cheb``
    have one shape.  The sum is taken in place, which rounds as ``+`` does.
    """
    d = lam * norm
    d += (1.0 - lam) * cheb
    return d


def ratio(distances) -> np.ndarray:
    """Score ``d_worst / (d_worst + d_best)`` of the ``(2, ...)`` distances of ``mix``."""
    s = distances[0] + distances[1]
    return np.divide(distances[0], s, out=s)
