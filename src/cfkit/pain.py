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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

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
            x = float(getattr(self, name))
            if not 0.0 <= x <= 1.0:
                raise OutOfRangeError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
            object.__setattr__(self, name, x)

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
        return {
            "j_opt": self.j_opt,
            "s_opt": self.s_opt,
            "nurse_pain": self.nurse_pain,
            "patient_pain": self.patient_pain,
            "gap": self.gap,
            "confusion_ratio": self.confusion_ratio,
            "recommendation": self.recommendation,
        }


class Interpretation(NamedTuple):
    recommendation: str
    final_pain_score: float


def _rows_for_j(u: float, v: float, j_arr: np.ndarray) -> np.ndarray:
    j = np.asarray(j_arr, dtype=np.float64)
    return np.column_stack([u - j, v - j, j, 1.0 - u - v + j])


def _combined_score_curve(u, v, params: DistanceParams) -> Callable[[np.ndarray], np.ndarray]:
    code = order_code(params.p)
    lam = params.lam

    def curve(j_arr):
        return backends.score_many(_rows_for_j(u, v, j_arr), code, lam)

    return curve


def _legacy_score_curve(u, v, p) -> Callable[[np.ndarray], np.ndarray]:
    code = order_code(p)

    def curve(j_arr):
        rows = _rows_for_j(u, v, j_arr)
        shape = rows.shape
        worst = np.ascontiguousarray(np.broadcast_to(np.array([0.0, 1.0, 0.0, 0.0]), shape))
        best = np.ascontiguousarray(np.broadcast_to(np.array([1.0, 0.0, 0.0, 0.0]), shape))
        d_worst = backends.legacy_pairwise(rows, worst, code)
        d_best = backends.legacy_pairwise(rows, best, code)
        return d_worst / (d_worst + d_best)

    return curve


def _minimize_squared_gap(target, j_lo, j_hi, curve, grid_points):
    """Grid scan plus ternary refinement of the best bracket.

    Returns ``(j_opt, s_opt)``.  The grid keeps the search robust against
    non-unimodal score curves; the refinement narrows the winning bracket to
    REFINE_TOL in j.
    """
    if grid_points < 101:
        raise OutOfRangeError(f"grid_points must be at least 101, got {grid_points}")
    grid = np.linspace(j_lo, j_hi, grid_points)
    s = curve(grid)
    obj = (target - s) ** 2
    k = int(np.argmin(obj))
    if j_hi - j_lo <= 0.0:
        return float(grid[k]), float(s[k])

    def evaluate(j):
        sj = float(curve(np.array([j]))[0])
        return (target - sj) ** 2, sj

    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, grid_points - 1)])
    while hi - lo > REFINE_TOL:
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        if evaluate(m1)[0] < evaluate(m2)[0]:
            hi = m2
        else:
            lo = m1

    best_j, best_s = float(grid[k]), float(s[k])
    best_obj = (target - best_s) ** 2
    for candidate in (lo, 0.5 * (lo + hi), hi):
        obj_c, s_c = evaluate(candidate)
        if obj_c < best_obj:
            best_j, best_s, best_obj = candidate, s_c, obj_c
    return best_j, best_s


def _check_pain(patient_pain) -> float:
    x = float(patient_pain)
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"patient pain must lie in [0, 1], got {patient_pain!r}")
    return x


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
    patient_pain = _check_pain(patient_pain)
    j_lo, j_hi = joint_bounds(u, v)
    if j_lo > j_hi:
        raise EmptyFeasibleRegionError(f"no admissible joint degree for u={u!r}, v={v!r}")
    target = 1.0 - patient_pain
    curve = _combined_score_curve(u, v, params)
    j_opt, s_opt = _minimize_squared_gap(target, j_lo, j_hi, curve, grid_points)
    return _solution(j_opt, s_opt, patient_pain, j_lo, j_hi, confusion_threshold)


def interpret(
    solution: PainSolution,
    confusion_threshold: float = DEFAULT_CONFUSION_THRESHOLD,
) -> Interpretation:
    """Recommendation plus the conservative final pain score.

    High confusion suggests a second assessment; the final score is the
    larger of the nurse and patient scores, so concealment never lowers it.
    """
    threshold = float(confusion_threshold)
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRangeError(f"threshold must lie in [0, 1], got {confusion_threshold!r}")
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
    patient_pain = _check_pain(patient_pain)
    target = 1.0 - patient_pain
    j_lo, j_hi = joint_bounds(u, v)
    rows = []
    for p in p_list:
        for lam in lambda_grid:
            params = DistanceParams(p=p, lam=float(lam))
            curve = _combined_score_curve(u, v, params)
            j_opt, s_opt = _minimize_squared_gap(target, j_lo, j_hi, curve, grid_points)
            rows.append(SweepRow(p, float(lam), j_opt, s_opt, target - s_opt))
    return rows


def legacy_comparison_sweep(
    u, v, patient_pain, p_list, grid_points: int = DEFAULT_GRID_POINTS
) -> list[LegacySweepRow]:
    """Re-solve the program with the hesitancy-blind Minkowski score."""
    patient_pain = _check_pain(patient_pain)
    target = 1.0 - patient_pain
    j_lo, j_hi = joint_bounds(u, v)
    rows = []
    for p in p_list:
        curve = _legacy_score_curve(u, v, p)
        j_opt, s_opt = _minimize_squared_gap(target, j_lo, j_hi, curve, grid_points)
        rows.append(LegacySweepRow(p, j_opt, s_opt, target - s_opt))
    return rows
