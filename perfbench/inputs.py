"""Seeded input generators for the four workloads.

Every generator takes the seed as an argument, so the same seed gives the
same inputs, and returns the inputs together with the properties the
workload's behaviour depends on.  The program under test receives only the
files or values written from these inputs.
"""

from __future__ import annotations

import json

import numpy as np

# Share of CFNs whose joint degree is placed exactly on a bound of its
# admissible interval (half on the lower bound, half on the upper).
BOUND_SHARE = 0.10
# Share of assessments whose face similarities make the feasible j interval
# zero-width (one similarity exactly 0 or 1).
ZERO_WIDTH_SHARE = 0.08

CLINIC_ORDERS = tuple(range(1, 11)) + ("inf",)
CLINIC_LAMBDAS = tuple(float(x) for x in np.linspace(0.0, 1.0, 21))

STUDY_ORDERS = (1, 2, 3)
STUDY_LAMBDAS = (0.0, 0.5, 1.0)


def _triples(rng, n, bound_share=BOUND_SHARE):
    """Admissible ``(u, v, j)`` arrays; a share of ``j`` sits on a bound.

    The bounds repeat the admissibility rule's own float operations, so a
    ``j`` placed on a bound is exactly on it after a ``repr`` round trip.
    """
    u = rng.random(n)
    v = rng.random(n)
    hi = np.minimum(u, v)
    lo = np.minimum(np.maximum(0.0, u + v - 1.0), hi)
    j = np.minimum(hi, lo + (hi - lo) * rng.random(n))
    pick = rng.random(n)
    j = np.where(pick < bound_share / 2, lo, np.where(pick < bound_share, hi, j))
    return u, v, j, (j == lo) | (j == hi)


def batch_pairs(seed: int, rows: int):
    """``(rows, 6)`` array of admissible pairs ``u1,v1,j1,u2,v2,j2`` and its CSV text."""
    rng = np.random.default_rng(seed)
    u1, v1, j1, b1 = _triples(rng, rows)
    u2, v2, j2, b2 = _triples(rng, rows)
    pairs = np.column_stack([u1, v1, j1, u2, v2, j2])
    text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in pairs.tolist())
    props = {
        "rows": rows,
        "cfn_at_joint_bound_share": float(np.concatenate([b1, b2]).mean()),
        "p": [3],
        "lambda": [0.5],
        "input_bytes": len(text),
    }
    return pairs, text, props


def _balanced(rng, choices, count):
    """``count`` indices into ``choices``, each used equally often, shuffled."""
    return rng.permutation(np.resize(np.arange(len(choices)), count))


def clinic_stream(seed: int, count: int):
    """A stream of ``count`` independent pain assessments.

    Orders, lambdas and the zero-width cases are spread evenly over the
    stream and shuffled, so that streams from different seeds cost alike.
    """
    rng = np.random.default_rng(seed)
    items = rng.integers(0, 11, size=(count, 7))
    u = rng.random(count)
    v = rng.random(count)
    # Zero-width interval: one similarity exactly 0 or 1.
    edge = rng.permutation(count) < round(ZERO_WIDTH_SHARE * count)
    edge_value = rng.integers(0, 2, size=count).astype(float)
    edge_on_u = rng.random(count) < 0.5
    u = np.where(edge & edge_on_u, edge_value, u)
    v = np.where(edge & ~edge_on_u, edge_value, v)
    p_idx = _balanced(rng, CLINIC_ORDERS, count)
    lam_idx = _balanced(rng, CLINIC_LAMBDAS, count)
    stream = [
        {
            "items": [int(x) for x in items[i]],
            "u": float(u[i]),
            "v": float(v[i]),
            "p": CLINIC_ORDERS[p_idx[i]],
            "lambda": CLINIC_LAMBDAS[lam_idx[i]],
        }
        for i in range(count)
    ]
    hi = np.minimum(u, v)
    lo = np.minimum(np.maximum(0.0, u + v - 1.0), hi)
    props = {
        "assessments": count,
        "zero_width_share": float((hi - lo <= 0.0).mean()),
        "p_mix": {str(p): int((p_idx == k).sum()) for k, p in enumerate(CLINIC_ORDERS)},
        "lambda_distinct": int(len(np.unique(lam_idx))),
        "input_bytes": len(json.dumps(stream)),
    }
    return stream, props


def study_pair(seed: int):
    """A seeded admissible pair whose first CFN has a non-empty epsilon range."""
    rng = np.random.default_rng(seed)
    while True:
        u, v, j, _ = _triples(rng, 2, bound_share=0.0)
        eps_lo = max(j[0] - u[0], v[0] - 1.0)
        eps_hi = min(1.0 - u[0], v[0] - j[0])
        if eps_hi - eps_lo > 0.0:
            break
    pair = tuple((float(u[k]), float(v[k]), float(j[k])) for k in range(2))
    props = {
        "pair": [list(f) for f in pair],
        "epsilon_range": [float(eps_lo), float(eps_hi)],
        "p": list(STUDY_ORDERS),
        "lambda": list(STUDY_LAMBDAS),
    }
    return pair, props
