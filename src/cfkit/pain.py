"""Pain evaluation pipeline.

A patient self-reports seven 0..10 interference items whose normalized sum
is the patient-side pain score.  A nurse reports the similarity of the
patient's face to the no-pain and worst-pain reference faces; those two
similarities become the membership and non-membership degrees of a CFN
whose joint degree ``j`` is unknown.  The solver (Programming 1) picks ``j``
inside its admissible interval to minimize the squared gap between the
nurse-side score target ``1 - patient_pain`` and the combined-distance
score.  That score is monotone in ``j`` (the lemma in ``_solve``), so the
optimum is a bound of the interval, or else the root of ``s(j) = target``,
which a bracketed root find locates.  Where the optimal ``j`` sits in its
interval (the confusion ratio) flags low-confidence assessments.

One solver, ``_solve``, serves every entry point, with lambda as an array
axis, and scores every point through one kernel chain, ``_objective``:
``backends.line_terms`` builds the anchor terms straight from ``(u, v, j)``
in the shape of ``j``, ``terms_parts`` makes the parts of both anchors as
one leading axis, one ``mix`` mixes them for a column of all lambdas or
for one lambda per point, ``ratio`` gives the scores, and ``np.square`` of
their gap to the target the objectives.  An answer on a bound takes one
kernel call, one inside the interval three or four on clinic inputs.
Every entry point scores the similarities as ``clamped_bounds`` clamps
them onto [0, 1].  ``solve_programming1`` is the one-lambda case.  Both
sweeps wrap ``_sweep``, which solves once per order over the whole
lambda grid: ``sensitivity_sweep`` over the given grid, and
``legacy_comparison_sweep`` at lambda = 1 with the hesitancy dropped,
which is the hesitancy-blind Minkowski score.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import backends
from .cfn import clamped_bounds
from .distance import DistanceParams, check_lambdas, order_code, parse_order
from .errors import BadItemCountError, ItemOutOfRangeError, OutOfRangeError

ITEM_COUNT = 7
ITEM_MAX = 10

RECOMMEND_ACCEPT = "accept_nurse_score"
RECOMMEND_SECOND_NURSE = "second_nurse_suggested"

DEFAULT_CONFUSION_THRESHOLD = 0.9
# Points of a solve's first kernel call, j_lo, j_hi and the evenly spaced
# points between them: a root is bracketed to a fifteenth of the interval.
_FIRST = 16
# A lambda's root find stops where a scored point lies within this of the
# target, 2.2e-16 (two ulps of a score of 0.5): the kernels' rounding moves
# a score by about that much, however small the score (see ``_solve``).
_NEAR = 2 * math.ulp(0.5)


def normalize_patient_score(items) -> float:
    """Normalized questionnaire score: item sum over the maximum total."""
    items = tuple(items)
    if len(items) != ITEM_COUNT:
        raise BadItemCountError(f"expected {ITEM_COUNT} items, got {len(items)}")
    for i, item in enumerate(items):
        if type(item) is not int and (
            isinstance(item, bool) or not isinstance(item, (int, np.integer))
        ):
            raise ItemOutOfRangeError(f"item {i + 1} must be an integer, got {item!r}")
        if not 0 <= item <= ITEM_MAX:
            raise ItemOutOfRangeError(f"item {i + 1} must lie in 0..{ITEM_MAX}, got {item}")
    return sum(items) / float(ITEM_COUNT * ITEM_MAX)


def _check_unit(value, name: str) -> float:
    x = float(value)
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")
    return x


@dataclass(frozen=True, init=False)
class PainAssessment:
    """Seven questionnaire items plus the nurse's two face similarities.

    Like ``PainSolution`` and ``DistanceParams``, it sets its checked fields
    with one ``__dict__`` update, where a generated ``__init__`` would set
    each one through ``object.__setattr__``.
    """

    patient_items: tuple[int, ...]
    sim_to_scale0: float
    sim_to_scale10: float

    def __init__(self, patient_items, sim_to_scale0, sim_to_scale10) -> None:
        items = tuple(patient_items)
        pain = normalize_patient_score(items)
        self.__dict__.update(
            patient_items=items,
            sim_to_scale0=_check_unit(sim_to_scale0, "sim_to_scale0"),
            sim_to_scale10=_check_unit(sim_to_scale10, "sim_to_scale10"),
            _pain=pain,
        )

    @property
    def patient_pain(self) -> float:
        return self._pain


@contextmanager
def _field(key: str):
    """Set ``field``, the JSON key ``key``, on an error that a value of the input raises.

    A value of the wrong JSON type, such as ``null`` for a number, raises a
    ValueError with the TypeError's message.
    """
    try:
        yield
    except ValueError as exc:
        exc.field = key
        raise
    except TypeError as exc:
        error = ValueError(str(exc))
        error.field = key
        raise error from exc


def _number(value, name: str):
    """``value``, refused where the JSON gives a boolean or a string for a number."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def assessment_from_dict(data: dict) -> tuple[PainAssessment, DistanceParams]:
    """Read the assessment-input JSON object.

    An error that a value, or a missing key, raises carries its JSON key as
    ``field``.  The values are checked in the order in which
    ``PainAssessment`` and ``DistanceParams`` check them, so the first error
    is theirs, but for a boolean or a string given for a similarity or for
    ``lambda``, which is refused.  ``p`` keeps its text forms ("inf", "3").
    """
    if not isinstance(data, dict):
        raise ValueError(f"assessment input must be a JSON object, got {type(data).__name__}")
    for key in ("patient_items", "sim_scale0", "sim_scale10"):
        if key not in data:
            with _field(key):
                raise ValueError(f"missing key {key!r} in assessment object")
    with _field("patient_items"):
        items = tuple(data["patient_items"])
        normalize_patient_score(items)
    for key, name in (("sim_scale0", "sim_to_scale0"), ("sim_scale10", "sim_to_scale10")):
        with _field(key):
            _check_unit(_number(data[key], name), name)
    assessment = PainAssessment(items, data["sim_scale0"], data["sim_scale10"])
    with _field("p"):
        p = data.get("p", 2)
        if isinstance(p, str):
            p = parse_order(p)
        order_code(p)
    with _field("lambda"):
        params = DistanceParams(p=p, lam=_number(data.get("lambda", 0.5), "lambda"))
    return assessment, params


@dataclass(frozen=True, init=False)
class PainSolution:
    j_opt: float
    s_opt: float
    nurse_pain: float
    patient_pain: float
    gap: float
    confusion_ratio: float
    recommendation: str

    def __init__(self, j_opt, s_opt, nurse_pain, patient_pain, gap, confusion_ratio,
                 recommendation) -> None:
        self.__dict__.update(
            j_opt=j_opt, s_opt=s_opt, nurse_pain=nurse_pain, patient_pain=patient_pain,
            gap=gap, confusion_ratio=confusion_ratio, recommendation=recommendation,
        )

    def to_dict(self) -> dict:
        return asdict(self)


class Interpretation(NamedTuple):
    recommendation: str
    final_pain_score: float


def _solve(u, v, j_lo, j_hi, target, code, lams, blind=False) -> tuple[list, list]:
    """Minimize ``(target - s(j))**2`` over the admissible j, once per lambda.

    ``u`` and ``v`` lie in [0, 1] and ``[j_lo, j_hi]`` is their
    ``joint_bounds``: ``clamped_bounds`` checked and clamped them.
    ``lams`` is a 1-D array of balance values; returns the lists ``j_opt``
    and ``s_opt``, Python floats with one entry per lambda.  ``blind``
    zeroes the hesitancy: with lambda = 1 that is the hesitancy-blind
    Minkowski score, bit for bit.

    The score is monotone in j (the lemma below), so where the target lies
    outside the scores at ``j_lo`` and ``j_hi``, or on one of them, the
    optimum is the bound whose objective is the smaller, ``j_lo`` on a tie,
    and else it is the root of ``s(j) = target``, which a bracketed root
    find locates (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4).  The first kernel call scores ``j_lo``, ``j_hi`` and the
    evenly spaced points between them, ``_FIRST`` in all, for every
    lambda.  That answers every lambda whose target lies outside the scores
    at the bounds, or on one, and brackets every other one's root between
    two neighbouring points whose gaps ``s - target`` have opposite signs,
    the first such pair in j.
    Each later round is one kernel call that scores the next points of
    every live lambda (see ``_next_points``), one lambda per point, and
    each lambda's bracket becomes the first sign change among its scored
    points inside it.  A lambda is done where a scored point lies within
    ``_NEAR`` of the target or its bracket holds no float between its two
    ends.  Every lambda's answer is its scored point of least objective,
    the first scored on a tie and the first in j within the first call: the
    nearer bound, ``j_lo`` on a tie, but where rounding strays a flat score
    from monotone.  The kernels are elementwise and every objective is
    ``np.square`` of the gap, so a point has the same bits in whichever
    call, under however many lambdas.

    A zero-width interval scores one j ``_FIRST`` times, and where ``u ==
    v`` every score is exactly 0.5 (the worst anchor's terms are the best's
    floats, the first two swapped, in commutative sums and maxima), so the
    target never lies strictly between the end scores and the first call
    answers ``j_lo``, the first of the tied objectives.

    The lemma: along the admissible line the exact score ``s(j) = d_w / (d_w
    + d_b)`` is non-decreasing in ``j`` where ``u < v``, non-increasing where
    ``u > v`` and constant where ``u == v``, for every order, every lambda
    in [0, 1] and ``blind`` both ways.  Proof:

    - With ``a = u - j >= 0`` and ``b = v - j >= 0``, the worst anchor's
      terms are ``A = (a, a + j + h, j, h)`` and the best's, reordered, ``B
      = (b, b + j + h, j, h)``: ``|v* - 1| = a + j + h`` and ``|u* - 1| = b +
      j + h``.  Every term is at least 0 and the Chebyshev term is the second
      one, so ``d_w = F(A)`` and ``d_b = F(B)`` with ``F(x) = lam * ||x||_p +
      (1 - lam) * x2``.  ``blind`` sets the fourth term to 0 and leaves the
      second as it is.
    - A step ``delta`` in ``j`` moves both vectors by ``delta * e``, with
      ``e = (-1, 1, 1, 1)`` (``blind``: ``(-1, 1, 1, 0)``), and ``A - B = (u
      - v) * (1, 1, 0, 0)``.  So ``d/dj ln(d_w / d_b) = H(A) - H(B)`` with
      ``H = (e . grad F) / F``, and ``s = 1 / (1 + d_b / d_w)`` moves with
      ``d_w / d_b``.  The segment from B to A runs along ``(1, 1, 0, 0)``,
      keeps every term at least 0 and keeps ``x2 - x1 = j + h``, at least
      ``x3`` and ``x4``.  If H is non-increasing along ``(1, 1, 0, 0)`` on
      that set, ``H(A) <= H(B)`` where ``u >= v`` and the reverse where ``u
      <= v``, which is the lemma.
    - ``e . grad F = lam * g + 1 - lam`` with ``g = e . grad ||x||_p >= 0``,
      and F does not fall along ``(1, 1, 0, 0)``.  So H is non-increasing
      there wherever g is: the mixed lambda reduces to lambda = 1.
    - Chebyshev: ``||x||_inf = x2`` and g is 1.  p = 1: g is 2 (``blind``:
      1).  Without ``blind`` at p = 1, and at Chebyshev both ways, ``s = (1 -
      v + j) / (2 - u - v + 2 j)`` for every lambda.
    - p >= 2: with ``y = x1 <= z = x2``, ``P = sum x_i**p``, ``G = z**(p-1)
      - y**(p-1) + c`` and ``c = x3**(p-1) + x4**(p-1)`` (``blind``: no
      ``x4``), ``g = G / P**((p-1)/p)``.  It is non-increasing along ``(1,
      1, 0, 0)`` if and only if ``(z**(p-2) - y**(p-2)) * P <= (y**(p-1) +
      z**(p-1)) * G``, that is, with ``C = x3**p + x4**p``, ``(z**(p-2) -
      y**(p-2)) * C <= (y**(p-1) + z**(p-1)) * c + (y z)**(p-2) * (z**2 -
      y**2)``.  Since ``x3, x4 <= z - y``, ``C <= (z - y) * c``, and ``(z**(p-2)
      - y**(p-2)) * (z - y) <= y**(p-1) + z**(p-1)``.

    The computed score is the exact one up to rounding, and
    ``tests/test_pain.py::TestScoreAlongLine`` checks the lemma and the
    closed form on it:

    - Each computed term is within two roundings of its exact value: it is
      ``j`` or the absolute value of one or two rounded additions of it,
      ``u - j``, ``u - j - 1``, ``v - j``, ``v - j - 1`` and ``1 - u - v +
      j``.  Every norm and Chebyshev term is 1-Lipschitz in each term.
    - The powers, power sums and maxima, the p-th root (``pow``, or
      ``_finish``'s max-scaled rescue where a power sum underflows), ``mix``
      and the ratio's division each add a few ulps; the rounded exponent ``1
      / p`` moves a norm ``N`` by at most ``N |ln N|`` units of roundoff,
      under 0.4 of one.  The terms are at most 1 and the distances at most
      4, so each computed distance is within 1e-14 of the exact one.
    - An absolute error in ``d_w`` or ``d_b`` moves ``s`` by at most as
      much: both partial derivatives are at most ``1 / (d_w + d_b)``, and
      ``d_w + d_b >= d(worst, best) >= 1`` by the triangle inequality.  So
      each computed score is within 2e-14 of the exact one, however small
      the score.

    So where the exact score is flat, the computed one may stray from
    monotone by that much.  The root find trusts no more than the computed
    signs: a bracket always holds a sign change of the computed gap, and
    an interpolation step that divides by zero or leaves the bracket falls
    back (see ``_next_points``).
    """
    step = (j_hi - j_lo) / (_FIRST - 1)
    js = [j_lo + k * step for k in range(_FIRST - 1)] + [j_hi]
    # One lambda is mixed as a Python float: at 16 points 1.7 us against 3.0 us
    # for a (1, 1) column (Xeon, in-process), about 4% of a 29 us solve.
    lam = lams.item() if len(lams) == 1 else lams[:, None]
    obj, s = _objective(u, v, np.array(js)[None], target, code, lam, blind)
    # Per lambda: the answer so far and its objective.  Per live lambda: its
    # index, its scored (j, gap) pairs in ascending j, the index in them of
    # its bracket's lower end, and whether its last round halved the bracket.
    j_opt, s_opt, best, live = [], [], [], []
    for i, (o, row) in enumerate(zip(obj.tolist(), s.tolist())):
        k = o.index(min(o))
        if min(row[0], row[-1]) < target < max(row[0], row[-1]):
            gaps = [(j, x - target) for j, x in zip(js, row)]
            live.append([i, gaps, _bracket(gaps, 0), True])
        j_opt.append(js[k])
        s_opt.append(row[k])
        best.append(o[k])
    while live := [cell for cell in live if not _done(cell, best)]:
        news = [_next_points(gaps, k, halved) for _, gaps, k, halved in live]
        points = [x for new in news for x in new]
        lam = [lams.item(cell[0]) for cell, new in zip(live, news) for _ in new]
        obj, s = _objective(u, v, np.array(points), target, code, np.array(lam), blind)
        obj, s = obj.tolist(), s.tolist()
        end = 0
        for cell, new in zip(live, news):
            i, gaps, k, _ = cell
            at, end = end, end + len(new)
            for t in range(at, end):
                if obj[t] < best[i]:
                    best[i], j_opt[i], s_opt[i] = obj[t], points[t], s[t]
            width = gaps[k + 1][0] - gaps[k][0]
            gaps[k + 1:k + 1] = zip(new, [x - target for x in s[at:end]])
            cell[2] = k = _bracket(gaps, k)
            cell[3] = gaps[k + 1][0] - gaps[k][0] <= 0.5 * width
    return j_opt, s_opt


def _objective(u, v, j, target, code, lam, blind) -> tuple[np.ndarray, np.ndarray]:
    """The objective ``(target - s)**2`` and the score ``s`` at the joint degrees ``j``.

    ``lam`` broadcasts against ``j``: one lambda per point of a 1-D ``j``,
    or one value or a ``(len(lams), 1)`` column against a ``(1, n)`` row of
    ``j``.  The kernels keep the shape of ``j``, the anchors a leading axis.
    """
    parts = backends.terms_parts(backends.line_terms(u, v, j, blind), code)
    s = backends.ratio(backends.mix(lam, *parts))
    return np.square(target - s), s


def _bracket(gaps, k) -> int:
    """The first ``m >= k`` where the gaps of ``gaps[m]`` and ``gaps[m + 1]`` differ in sign.

    A gap of 0 counts as negative; ``gaps[k]`` and the end of the bracket
    that holds the new points have gaps of opposite signs, so there is one.
    """
    positive = gaps[k][1] > 0.0
    while (gaps[k + 1][1] > 0.0) == positive:
        k += 1
    return k


def _done(cell, best) -> bool:
    """Whether a live lambda's root find stops (see ``_solve``)."""
    i, gaps, k, _ = cell
    a, b = gaps[k][0], gaps[k + 1][0]
    return best[i] <= _NEAR * _NEAR or math.nextafter(a, b) == b


def _next_points(gaps, k, halved) -> list:
    """The points to score next inside the bracket ``gaps[k], gaps[k + 1]``, ascending.

    Where the last round halved the bracket, the estimate of the root is
    the inverse cubic interpolation through the four scored points nearest
    the bracket, flanked by two guards at twice its distance from the
    secant through the bracket's ends: the cubic estimate is much nearer
    the root than the secant's, so the root most likely lies between the
    guards, and the next bracket is that narrow.  An interpolation that
    divides by zero, as where the computed scores are flat, or that leaves
    the bracket falls back to the secant, which has no guards, and a
    secant that rounds onto an end of the bracket to its midpoint.  Where
    the last round did not halve the bracket, this round quarters it, so
    that no lambda takes more rounds than bisection would, give or take
    one in two.
    """
    (a, da), (b, db) = gaps[k], gaps[k + 1]
    if not halved:
        width = b - a
        new = [a + 0.25 * width, a + 0.5 * width, a + 0.75 * width]
    else:
        secant = a - da * (b - a) / (db - da)
        first = max(0, min(k - 1, len(gaps) - 4))
        x = _inverse_interpolation(gaps[first:first + 4], a)
        if x is None or not a < x < b:
            x, delta = secant, 0.0
        else:
            delta = 2.0 * abs(x - secant)
        if not a < x < b:
            x = 0.5 * (a + b)
        new = [x - delta, x, x + delta]
    return sorted({x for x in new if a < x < b})


def _inverse_interpolation(nodes, a) -> float | None:
    """Where the polynomial in the gap through the ``(j, gap)`` pairs ``nodes`` takes gap 0.

    Lagrange's form, in ``j - a`` to keep the sum small; None where two
    nodes have the same gap.
    """
    x = 0.0
    for i, (j_i, gap_i) in enumerate(nodes):
        term = j_i - a
        for m, (_, gap_m) in enumerate(nodes):
            if m != i:
                if gap_m == gap_i:
                    return None
                term *= gap_m / (gap_m - gap_i)
        x += term
    return a + x


def _recommendation(confusion: float, threshold: float) -> str:
    return RECOMMEND_SECOND_NURSE if confusion >= threshold else RECOMMEND_ACCEPT


def _solution(j_opt, s_opt, patient_pain, j_lo, j_hi, confusion_threshold) -> PainSolution:
    nurse_pain = 1.0 - s_opt
    width = j_hi - j_lo
    confusion = 0.0 if width <= 0.0 else min(1.0, max(0.0, (j_opt - j_lo) / width))
    return PainSolution(
        j_opt, s_opt, nurse_pain, patient_pain, nurse_pain - patient_pain, confusion,
        _recommendation(confusion, confusion_threshold),
    )


def solve_programming1(
    u: float,
    v: float,
    patient_pain: float,
    params: DistanceParams,
    confusion_threshold: float = DEFAULT_CONFUSION_THRESHOLD,
) -> PainSolution:
    """Choose the joint degree minimizing ``(1 - patient_pain - s(j))**2``.

    The target is formed internally from the patient-side pain so the two
    scores sit on the same side of the scale.
    """
    confusion_threshold = _check_unit(confusion_threshold, "threshold")
    patient_pain = _check_unit(patient_pain, "patient pain")
    u, v, j_lo, j_hi = clamped_bounds(u, v)
    target = 1.0 - patient_pain
    [j], [s] = _solve(u, v, j_lo, j_hi, target, order_code(params.p), np.array([params.lam]))
    return _solution(j, s, patient_pain, j_lo, j_hi, confusion_threshold)


def interpret(
    solution: PainSolution,
    confusion_threshold: float = DEFAULT_CONFUSION_THRESHOLD,
) -> Interpretation:
    """Recommendation plus the conservative final pain score.

    High confusion suggests a second assessment; the final score is the
    larger of the nurse and patient scores, so concealment never lowers it.
    """
    threshold = _check_unit(confusion_threshold, "threshold")
    recommendation = _recommendation(solution.confusion_ratio, threshold)
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


def _sweep(u, v, patient_pain, p_list, lambda_grid, blind=False) -> list[tuple]:
    """The rows ``(p, lam, j_opt, s_opt, target - s_opt)`` of every (p, lambda) cell.

    One ``_solve`` per order serves all of its lambdas.  The arguments are
    checked in the order pain, bounds, lambda.
    """
    target = 1.0 - _check_unit(patient_pain, "patient pain")
    u, v, j_lo, j_hi = clamped_bounds(u, v)
    lams = check_lambdas(lambda_grid)
    rows = []
    for p in p_list:
        j_opt, s_opt = _solve(u, v, j_lo, j_hi, target, order_code(p), lams, blind)
        rows.extend(
            (p, lam, j, s, target - s) for lam, j, s in zip(lams.tolist(), j_opt, s_opt)
        )
    return rows


def sensitivity_sweep(u, v, patient_pain, p_list, lambda_grid) -> list[SweepRow]:
    """Solve the joint-degree program on every (p, lambda) cell.

    The per-row ``gap`` is ``target - s_opt``, identical to the solution's
    nurse-minus-patient gap.
    """
    return [SweepRow(*row) for row in _sweep(u, v, patient_pain, p_list, lambda_grid)]


def legacy_comparison_sweep(u, v, patient_pain, p_list) -> list[LegacySweepRow]:
    """Re-solve the program with the hesitancy-blind Minkowski score.

    That score is the combined-distance score at lambda = 1 of the rows with
    their hesitancy dropped.
    """
    return [
        LegacySweepRow(p, j, s, gap)
        for p, _, j, s, gap in _sweep(u, v, patient_pain, p_list, (1.0,), blind=True)
    ]
