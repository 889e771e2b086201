"""Pain evaluation pipeline.

A patient self-reports seven 0..10 interference items whose normalized sum
is the patient-side pain score.  A nurse reports the similarity of the
patient's face to the no-pain and worst-pain reference faces; those two
similarities become the membership and non-membership degrees of a CFN
whose joint degree ``j`` is unknown.  The solver picks ``j`` inside its
admissible interval to minimize the squared gap between the nurse-side
score target ``1 - patient_pain`` and the combined-distance score, via a
dense grid scan refined by ternary search.  Where the optimal ``j`` sits in
its interval (the confusion ratio) flags low-confidence assessments.

One solver, ``_solve``, serves every entry point: it scans the grid once per
lambda and refines all lambdas together.  ``solve_programming1`` is its
one-lambda case, ``sensitivity_sweep`` calls it once per order over the
whole lambda grid, and ``legacy_comparison_sweep`` scores rows with their
hesitancy dropped at lambda = 1, which is the hesitancy-blind Minkowski
score.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import backends
from .cfn import joint_bounds
from .distance import DistanceParams, order_code, parse_order
from .errors import (
    BadItemCountError,
    EmptyFeasibleRegionError,
    ItemOutOfRangeError,
    OutOfRangeError,
)

ITEM_COUNT = 7
ITEM_MAX = 10

RECOMMEND_ACCEPT = "accept_nurse_score"
RECOMMEND_SECOND_NURSE = "second_nurse_suggested"

DEFAULT_CONFUSION_THRESHOLD = 0.9
DEFAULT_GRID_POINTS = 10001
REFINE_TOL = 1e-8


def normalize_patient_score(items) -> float:
    """Normalized questionnaire score: item sum over the maximum total."""
    items = tuple(items)
    if len(items) != ITEM_COUNT:
        raise BadItemCountError(f"expected {ITEM_COUNT} items, got {len(items)}")
    for i, item in enumerate(items):
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            raise ItemOutOfRangeError(f"item {i + 1} must be an integer, got {item!r}")
        if not 0 <= item <= ITEM_MAX:
            raise ItemOutOfRangeError(f"item {i + 1} must lie in 0..{ITEM_MAX}, got {item}")
    return sum(items) / float(ITEM_COUNT * ITEM_MAX)


def _check_unit(value, name: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")
    return x


@dataclass(frozen=True)
class PainAssessment:
    """Seven questionnaire items plus the nurse's two face similarities."""

    patient_items: tuple[int, ...]
    sim_to_scale0: float
    sim_to_scale10: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "patient_items", tuple(self.patient_items))
        normalize_patient_score(self.patient_items)
        for name in ("sim_to_scale0", "sim_to_scale10"):
            object.__setattr__(self, name, _check_unit(getattr(self, name), name))

    @property
    def patient_pain(self) -> float:
        return normalize_patient_score(self.patient_items)


def assessment_from_dict(data: dict) -> tuple[PainAssessment, DistanceParams]:
    """Read the assessment-input JSON object."""
    try:
        assessment = PainAssessment(
            patient_items=tuple(data["patient_items"]),
            sim_to_scale0=data["sim_scale0"],
            sim_to_scale10=data["sim_scale10"],
        )
    except KeyError as exc:
        raise ValueError(f"missing key {exc} in assessment object") from exc
    p = data.get("p", 2)
    if isinstance(p, str):
        p = parse_order(p)
    params = DistanceParams(p=p, lam=data.get("lambda", 0.5))
    return assessment, params


@dataclass(frozen=True)
class PainSolution:
    j_opt: float
    s_opt: float
    nurse_pain: float
    patient_pain: float
    gap: float
    confusion_ratio: float
    recommendation: str

    def to_dict(self) -> dict:
        return asdict(self)


class Interpretation(NamedTuple):
    recommendation: str
    final_pain_score: float


def _rows_for_j(u: float, v: float, j_arr, blind: bool) -> np.ndarray:
    j = np.asarray(j_arr, dtype=np.float64)
    h = np.zeros_like(j) if blind else 1.0 - u - v + j
    return np.column_stack([u - j, v - j, j, h])


def _solve(u, v, j_lo, j_hi, target, code, lams, grid_points, blind=False):
    """Minimize ``(target - s(j))**2`` over the admissible j, once per lambda.

    ``[j_lo, j_hi]`` is ``joint_bounds(u, v)``, which also validated u and v.
    ``lams`` is a 1-D array of balance values; returns ``(j_opt, s_opt)``
    arrays with one entry per lambda.  Each lambda's score curve is scanned
    on the dense grid (one kernel call per lambda), which keeps the search
    robust against non-unimodal curves.  The ternary refinement of each
    winning bracket to REFINE_TOL in j then runs for all lambdas at once,
    one kernel call per step for the cells still live.  ``blind`` zeroes the
    hesitancy column: with lambda = 1 that is the hesitancy-blind Minkowski
    score, bit for bit.
    """
    grid = np.linspace(j_lo, j_hi, grid_points)
    rows = _rows_for_j(u, v, grid, blind)
    k = np.empty(len(lams), dtype=np.intp)
    s_opt = np.empty(len(lams))
    for i, lam in enumerate(lams.tolist()):
        s = backends.score_many(rows, code, lam)
        k[i] = np.argmin((target - s) ** 2)
        s_opt[i] = s[k[i]]
    j_opt = grid[k]
    if j_hi - j_lo <= 0.0:
        return j_opt, s_opt

    def objective(j, lam):
        s = backends.score_many(_rows_for_j(u, v, j, blind), code, lam)
        # The refinement compares C pow squares (what Python's float ** gives),
        # the grid argmin numpy's exact square.  The two differ in about 0.1%
        # of values, enough to flip a near-tie step, and the published sweep
        # bytes were produced this way.
        return np.float_power(target - s, 2), s

    lo = grid[np.maximum(k - 1, 0)]
    hi = grid[np.minimum(k + 1, grid_points - 1)]
    live = hi - lo > REFINE_TOL
    while live.any():
        l, h = lo[live], hi[live]
        third = (h - l) / 3.0
        m1, m2 = l + third, h - third
        obj = objective(np.concatenate([m1, m2]), np.tile(lams[live], 2))[0].reshape(2, -1)
        left = obj[0] < obj[1]
        hi[live] = np.where(left, m2, h)
        lo[live] = np.where(left, l, m1)
        live = hi - lo > REFINE_TOL

    best_obj = np.float_power(target - s_opt, 2)
    candidates = (lo, 0.5 * (lo + hi), hi)
    obj, s = objective(np.concatenate(candidates), np.tile(lams, 3))
    for j_c, obj_c, s_c in zip(candidates, obj.reshape(3, -1), s.reshape(3, -1)):
        better = obj_c < best_obj
        j_opt = np.where(better, j_c, j_opt)
        s_opt = np.where(better, s_c, s_opt)
        best_obj = np.where(better, obj_c, best_obj)
    return j_opt, s_opt


def _check_grid(grid_points) -> None:
    if grid_points < 101:
        raise OutOfRangeError(f"grid_points must be at least 101, got {grid_points}")


def _solution(j_opt, s_opt, patient_pain, j_lo, j_hi, confusion_threshold) -> PainSolution:
    nurse_pain = 1.0 - s_opt
    width = j_hi - j_lo
    confusion = 0.0 if width <= 0.0 else min(1.0, max(0.0, (j_opt - j_lo) / width))
    recommendation = (
        RECOMMEND_SECOND_NURSE if confusion >= confusion_threshold else RECOMMEND_ACCEPT
    )
    return PainSolution(
        j_opt=j_opt,
        s_opt=s_opt,
        nurse_pain=nurse_pain,
        patient_pain=patient_pain,
        gap=nurse_pain - patient_pain,
        confusion_ratio=confusion,
        recommendation=recommendation,
    )


def solve_programming1(
    u: float,
    v: float,
    patient_pain: float,
    params: DistanceParams,
    grid_points: int = DEFAULT_GRID_POINTS,
    confusion_threshold: float = DEFAULT_CONFUSION_THRESHOLD,
) -> PainSolution:
    """Choose the joint degree minimizing ``(1 - patient_pain - s(j))**2``.

    The target is formed internally from the patient-side pain so the two
    scores sit on the same side of the scale.
    """
    _check_grid(grid_points)
    confusion_threshold = _check_unit(confusion_threshold, "threshold")
    patient_pain = _check_unit(patient_pain, "patient pain")
    j_lo, j_hi = joint_bounds(u, v)
    if j_lo > j_hi:
        raise EmptyFeasibleRegionError(f"no admissible joint degree for u={u!r}, v={v!r}")
    target = 1.0 - patient_pain
    j, s = _solve(
        u, v, j_lo, j_hi, target, order_code(params.p), np.array([params.lam]), grid_points
    )
    return _solution(j.item(), s.item(), patient_pain, j_lo, j_hi, confusion_threshold)


def interpret(
    solution: PainSolution,
    confusion_threshold: float = DEFAULT_CONFUSION_THRESHOLD,
) -> Interpretation:
    """Recommendation plus the conservative final pain score.

    High confusion suggests a second assessment; the final score is the
    larger of the nurse and patient scores, so concealment never lowers it.
    """
    threshold = _check_unit(confusion_threshold, "threshold")
    recommendation = (
        RECOMMEND_SECOND_NURSE
        if solution.confusion_ratio >= threshold
        else RECOMMEND_ACCEPT
    )
    return Interpretation(recommendation, max(solution.nurse_pain, solution.patient_pain))


class SweepRow(NamedTuple):
    p: object
    lam: float
    j_opt: float
    s_opt: float
    gap: float


class LegacySweepRow(NamedTuple):
    p: object
    j_opt: float
    s_opt: float
    gap: float


def sensitivity_sweep(
    u, v, patient_pain, p_list, lambda_grid, grid_points: int = DEFAULT_GRID_POINTS
) -> list[SweepRow]:
    """Solve the joint-degree program on every (p, lambda) cell.

    The per-row ``gap`` is ``target - s_opt``, identical to the solution's
    nurse-minus-patient gap.
    """
    _check_grid(grid_points)
    target = 1.0 - _check_unit(patient_pain, "patient pain")
    j_lo, j_hi = joint_bounds(u, v)
    lams = np.array([DistanceParams(lam=float(lam)).lam for lam in lambda_grid])
    rows = []
    for p in p_list:
        j_opt, s_opt = _solve(u, v, j_lo, j_hi, target, order_code(p), lams, grid_points)
        rows.extend(
            SweepRow(p, lam, j, s, target - s)
            for lam, j, s in zip(lams.tolist(), j_opt.tolist(), s_opt.tolist())
        )
    return rows


def legacy_comparison_sweep(
    u, v, patient_pain, p_list, grid_points: int = DEFAULT_GRID_POINTS
) -> list[LegacySweepRow]:
    """Re-solve the program with the hesitancy-blind Minkowski score.

    That score is the combined-distance score at lambda = 1 of the rows with
    their hesitancy dropped.
    """
    _check_grid(grid_points)
    target = 1.0 - _check_unit(patient_pain, "patient pain")
    j_lo, j_hi = joint_bounds(u, v)
    rows = []
    for p in p_list:
        j, s = _solve(
            u, v, j_lo, j_hi, target, order_code(p), np.ones(1), grid_points, blind=True
        )
        rows.append(LegacySweepRow(p, j.item(), s.item(), target - s.item()))
    return rows
