"""Monte-Carlo perturbation studies of the distance measures.

A trial perturbs the first CFN of a pair to ``<u+eps, v-eps, j>`` (the joint
degree, the sum ``u+v``, and hence the hesitancy are preserved), recomputes
the three distances to the second CFN, and records the absolute deviation of
each from its unperturbed baseline.  Epsilon is drawn uniformly from the
largest admissible interval; each trial uses a counter-derived sub-seed so
results are reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import backends
from .cfn import CognitiveFuzzyNumber, _max, _min, validate_rows
from .distance import DistanceParams, component_row, order_code
from .errors import EmptyRangeError, OutOfEpsilonRangeError, OutOfRangeError

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100


def epsilon_bounds(f: CognitiveFuzzyNumber) -> tuple[float, float]:
    """Largest interval of eps for which ``<u+eps, v-eps, j>`` stays valid."""
    lo = max(f.j - f.u, f.v - 1.0)
    hi = min(1.0 - f.u, f.v - f.j)
    if lo > hi + 1e-12:
        raise EmptyRangeError(f"empty perturbation range [{lo!r}, {hi!r}] for {f}")
    return lo, min(hi, max(lo, hi))


def perturb(f: CognitiveFuzzyNumber, epsilon: float) -> CognitiveFuzzyNumber:
    """Shift membership up and non-membership down by ``epsilon``."""
    lo, hi = epsilon_bounds(f)
    eps = float(epsilon)
    if eps < lo - 1e-12 or eps > hi + 1e-12:
        raise OutOfEpsilonRangeError(
            f"epsilon {epsilon!r} outside admissible interval [{lo:.12g}, {hi:.12g}]"
        )
    eps = min(hi, max(lo, eps))
    return CognitiveFuzzyNumber(f.u + eps, f.v - eps, f.j)


@dataclass(frozen=True)
class PerturbationConfig:
    base_pair: tuple[CognitiveFuzzyNumber, CognitiveFuzzyNumber]
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    p_values: tuple = (1, 2, 3)
    lambda_values: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self) -> None:
        f1, f2 = self.base_pair
        if not isinstance(f1, CognitiveFuzzyNumber) or not isinstance(f2, CognitiveFuzzyNumber):
            raise OutOfRangeError("base_pair must hold two CognitiveFuzzyNumbers")
        object.__setattr__(self, "base_pair", (f1, f2))
        if not isinstance(self.trials, int) or self.trials < 1:
            raise OutOfRangeError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise OutOfRangeError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.p_values:
            raise OutOfRangeError("p_values must not be empty")
        for p in self.p_values:
            order_code(p)
        object.__setattr__(self, "p_values", tuple(self.p_values))
        if not self.lambda_values:
            raise OutOfRangeError("lambda_values must not be empty")
        object.__setattr__(
            self, "lambda_values", tuple(DistanceParams(lam=x).lam for x in self.lambda_values)
        )


class TrialDistances(NamedTuple):
    d_m: float
    d_h: float
    d_c: float
    delta_d_m: float
    delta_d_h: float
    delta_d_c: float


@dataclass(frozen=True)
class TrialRecord:
    index: int
    epsilon: float
    # keyed by (p, lambda)
    cells: dict[tuple, TrialDistances] = field(repr=False)


@dataclass(frozen=True)
class CellSummary:
    mean_delta_m: float
    mean_delta_h: float
    mean_delta_c: float
    max_delta_m: float
    max_delta_h: float
    max_delta_c: float
    n_m_ge_h: int
    n_m_ge_c_ge_h: int


@dataclass(frozen=True, eq=False)
class StudyResult:
    """A study held as arrays: one draw per trial and one column block per cell.

    ``epsilons[i]`` is the draw of trial ``i``.  ``columns[(p, lam)]`` is a
    ``(trials, 6)`` array whose columns follow the ``TrialDistances`` fields.
    """

    config: PerturbationConfig
    epsilons: np.ndarray
    columns: dict[tuple, np.ndarray]
    summary: dict[tuple, CellSummary]

    @property
    def records(self) -> list[TrialRecord]:
        """One ``TrialRecord`` per trial, built from the columns on each access."""
        keys = list(self.columns)
        cells = np.stack([self.columns[key] for key in keys], axis=1).tolist()
        return [
            TrialRecord(i, e, {key: TrialDistances(*c) for key, c in zip(keys, row)})
            for i, (e, row) in enumerate(zip(self.epsilons.tolist(), cells))
        ]


def _draw_epsilons(seed: int, trials: int, lo: float, hi: float) -> np.ndarray:
    # one sub-seeded generator per trial: parallel and serial schedules agree
    out = np.empty(trials)
    for i in range(trials):
        out[i] = np.random.default_rng([seed, i]).uniform(lo, hi)
    return out


def run_study(config: PerturbationConfig) -> StudyResult:
    """Run the perturbation study described by ``config``.

    Every trial's perturbed CFN is built and checked at once by
    ``validate_rows``, bit for bit as ``perturb`` builds it, and scored
    against the second CFN by broadcasting its one component row.
    """
    f1, f2 = config.base_pair
    lo, hi = epsilon_bounds(f1)
    eps = _draw_epsilons(config.seed, config.trials, lo, hi)

    e = _min(hi, _max(lo, eps))
    bad, perturbed = validate_rows(np.column_stack([f1.u + e, f1.v - e, np.full(len(e), f1.j)]))
    if bad.any():
        perturb(f1, eps[int(bad.argmax())])  # raises, with the constructor's message

    base1 = component_row(f1).reshape(1, 4)
    base2 = component_row(f2).reshape(1, 4)

    d_h = backends.cfh_pairwise(perturbed, base2)
    d_h0 = float(backends.cfh_pairwise(base1, base2)[0])
    delta_h = np.abs(d_h - d_h0)

    d_m, d_m0, delta_m = {}, {}, {}
    for p in config.p_values:
        code = order_code(p)
        d_m[p] = backends.cfim_pairwise(perturbed, base2, code)
        d_m0[p] = float(backends.cfim_pairwise(base1, base2, code)[0])
        delta_m[p] = np.abs(d_m[p] - d_m0[p])

    columns = {}
    summary = {}
    for p in config.p_values:
        for lam in config.lambda_values:
            d_c = lam * d_m[p] + (1.0 - lam) * d_h
            d_c0 = lam * d_m0[p] + (1.0 - lam) * d_h0
            delta_c = np.abs(d_c - d_c0)
            columns[(p, lam)] = np.column_stack([d_m[p], d_h, d_c, delta_m[p], delta_h, delta_c])
            m_ge_h = delta_m[p] >= delta_h
            summary[(p, lam)] = CellSummary(
                mean_delta_m=float(delta_m[p].mean()),
                mean_delta_h=float(delta_h.mean()),
                mean_delta_c=float(delta_c.mean()),
                max_delta_m=float(delta_m[p].max()),
                max_delta_h=float(delta_h.max()),
                max_delta_c=float(delta_c.max()),
                n_m_ge_h=int(np.count_nonzero(m_ge_h)),
                n_m_ge_c_ge_h=int(
                    np.count_nonzero((delta_m[p] >= delta_c) & (delta_c >= delta_h))
                ),
            )

    return StudyResult(config=config, epsilons=eps, columns=columns, summary=summary)


class TrendRow(NamedTuple):
    lam: float
    d_m: float
    d_h: float
    d_c: float


def lambda_trend(pair, p, lambda_grid) -> list[TrendRow]:
    """Distances of a pair as the balance parameter sweeps a grid.

    ``d_m`` and ``d_h`` are constant in lambda; ``d_c`` runs affinely from
    ``d_h`` at lambda 0 to ``d_m`` at lambda 1.
    """
    f1, f2 = pair
    a = component_row(f1).reshape(1, 4)
    b = component_row(f2).reshape(1, 4)
    d_m = float(backends.cfim_pairwise(a, b, order_code(p))[0])
    d_h = float(backends.cfh_pairwise(a, b)[0])
    rows = []
    for lam in lambda_grid:
        lam = DistanceParams(lam=float(lam)).lam
        rows.append(TrendRow(lam, d_m, d_h, lam * d_m + (1.0 - lam) * d_h))
    return rows
