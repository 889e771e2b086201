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

One solver, ``_solve``, serves every entry point and scores every point
through one kernel chain: ``backends.line_terms`` builds the anchor terms
straight from ``(u, v, j)`` in the shape of ``j``, ``terms_parts`` makes the
parts of both anchors as one leading axis, one ``combine`` mixes them for a
column of all lambdas or for one lambda per point, ``ratio`` gives the
scores, and ``np.square`` of their gap to the target the objectives.  The
grid scan returns the full scan's argmin bit for bit but scores only what
could hold it: grid points 0 and last and the block endpoints between them
first, which are grid points 1 and last - 1 and every ``_SPAN``-th grid
point between.  The score is monotone along the grid, so where the scores
at grid points 1 and last - 1 cannot reach the best objective of any
lambda, the scan is done.  Else it scores the interior of a block only
where the scores at its two endpoints could reach the best objective of
some lambda, and where its two endpoints differ in ``j`` (see ``_scan``),
at most ``_BLOCK`` kept points per kernel call.  The refinement has one
rule: each bracket's ternary steps are laid out along a path predicted
toward a point, scored in one call, and walked on the scores, and where a
step goes against the prediction the rest is predicted again (see
``_solve``).  Most answers sit on a bound of the grid, whose paths toward
the bound are known before anything is scored, so most solves make one
kernel call: the first points of the scan and those paths.  Around that
call the solve keeps its bookkeeping in Python floats.
``solve_programming1`` is the one-lambda case, ``sensitivity_sweep`` solves
once per order over the whole lambda grid, and ``legacy_comparison_sweep``
scores rows with their hesitancy dropped at lambda = 1, which is the
hesitancy-blind Minkowski score.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import backends
from .cfn import joint_bounds
from .distance import DistanceParams, check_lambdas, order_code, parse_order
from .errors import BadItemCountError, ItemOutOfRangeError, OutOfRangeError

ITEM_COUNT = 7
ITEM_MAX = 10

RECOMMEND_ACCEPT = "accept_nurse_score"
RECOMMEND_SECOND_NURSE = "second_nurse_suggested"

DEFAULT_CONFUSION_THRESHOLD = 0.9
DEFAULT_GRID_POINTS = 10001
REFINE_TOL = 1e-8
# Grid points per pruning block of the grid scan (see ``_layout`` and
# ``_scan``); a 10001-point grid has 80 block endpoints.  A smaller span
# scores more endpoints in every solve's first call, a larger one more points
# per kept block: an interval a few ulps wide, where only the blocks in which
# the grid's j changes are kept, scored 345 points at 128 and over 500 at 256.
_SPAN = 128
# Kept grid points per kernel call of the grid scan, past its first call.  A
# (6, 2048) term array is 96 KiB and an (anchor, lambda) row of 2048
# distances or scores 16 KiB, under glibc's 128 KiB mmap threshold, so a
# one-lambda call's arrays come from the heap and are reused by the next
# call.  Larger arrays are mapped, freed and faulted back in every solve that
# keeps that many points: on two 600-solve clinic-like streams, minor faults
# per solve were 0.3-0.4 with 2048-point calls, 6-8 with 4096 and 9-13 with
# one call for all kept points.
# The bound holds per (anchor, lambda) row: an anchor's (21, 2048) arrays in a
# sweep are 336 KiB, and a sweep whose scans keep every block faults about
# 5,000 times.
_BLOCK = 2048
# Absolute widening of the hull of two scores of the grid scan, at grid
# points 1 and last - 1 or at a pruning block's endpoints, which bounds the
# scores between them.  The exact score is monotone along the grid, and a
# computed one is within 2e-14 of it (see ``_scan``).
_SLACK = 1e-12


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
        object.__setattr__(self, "_pain", normalize_patient_score(self.patient_items))
        for name in ("sim_to_scale0", "sim_to_scale10"):
            object.__setattr__(self, name, _check_unit(getattr(self, name), name))

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


def assessment_from_dict(data: dict) -> tuple[PainAssessment, DistanceParams]:
    """Read the assessment-input JSON object.

    An error that a value, or a missing key, raises carries its JSON key as
    ``field``.  The values are checked in the order in which
    ``PainAssessment`` and ``DistanceParams`` check them, so the first error
    is theirs.
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
            _check_unit(data[key], name)
    assessment = PainAssessment(items, data["sim_scale0"], data["sim_scale10"])
    with _field("p"):
        p = data.get("p", 2)
        if isinstance(p, str):
            p = parse_order(p)
        order_code(p)
    with _field("lambda"):
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


def _grid_at(index, start: float, stop: float, grid_points: int) -> np.ndarray:
    """``np.linspace(start, stop, grid_points)[index]``, by linspace's own operations.

    Only the points at the integer array ``index`` are computed, so a solve
    never fills the whole grid.  ``index`` is non-empty and ascending, so
    only its last entry can be the last grid index, where linspace writes
    ``stop``.
    """
    div = grid_points - 1
    delta = stop - start
    step = delta / div
    # linspace's order for a width so small that its step underflows
    out = index / div * delta if step == 0.0 else index * step
    out += start
    if index[-1] == div:
        out[-1] = stop
    return out


def _point(i: int, start: float, stop: float, grid_points: int) -> float:
    """``_grid_at`` of the one index ``i``, as a Python float, by the same IEEE operations."""
    div = grid_points - 1
    if i == div:
        return stop
    delta = stop - start
    step = delta / div
    return (i / div * delta if step == 0.0 else i * step) + start


@lru_cache(maxsize=16)
def _layout(grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """``_scan``'s block endpoints and the grid indices of its first kernel call.

    With ``last = grid_points - 1``, the endpoints ``ends`` are grid index
    1, every multiple of ``_SPAN`` strictly between 1 and ``last - 1``, then
    ``last - 1``.  A block is a pair of consecutive endpoints ``(a, b)``, and
    its interior the indices ``a + 1 .. b - 1``; the last block may be
    shorter than the others, or have no interior.  The first call's indices
    are ``[0, *ends, last]``, in grid order.  Both depend on the grid size
    alone, so they are built once per size and made read-only.
    """
    last = grid_points - 1
    ends = np.concatenate([[1], np.arange(_SPAN, last - 1, _SPAN), [last - 1]])
    index = np.concatenate([[0], ends, [last]])
    ends.flags.writeable = index.flags.writeable = False
    return ends, index


def _solve(u, v, j_lo, j_hi, target, code, lams, grid_points, blind=False):
    """Minimize ``(target - s(j))**2`` over the admissible j, once per lambda.

    ``[j_lo, j_hi]`` is ``joint_bounds(u, v)``, which also validated u and v.
    ``lams`` is a 1-D array of balance values; returns ``(j_opt, s_opt)``
    arrays with one entry per lambda.  Each lambda's optimum on the dense
    grid, which keeps the search robust against non-unimodal curves, is the
    full scan's argmin, found by scoring only the grid blocks that could hold
    it (see ``_scan``).  Its bracket, the grid optimum's two neighbours, is
    then refined by ternary steps to REFINE_TOL in j, and a final check keeps
    the best of the grid optimum and the last bracket's ends and midpoint.

    Every bracket is refined by one rule: lay out the path of steps predicted
    toward a point (see ``_path``), score it with its final check, and walk
    it on the scores (see ``_walk``).  Each bracket is first predicted toward
    its grid optimum.  The two brackets at the bounds of the grid, where most
    answers sit, and their paths toward the bound are known before anything
    is scored, so the scan's first kernel call scores those paths with the
    block endpoints, for every lambda.  A solve whose walk reaches the end of
    its path and whose scan prunes every block makes one kernel call in all.
    Each later round scores every live bracket's path in one call, with one
    lambda per point.  The kernels are elementwise and every objective is
    ``np.square`` of the gap, so a point has the same bits in whichever
    call, under however many lambdas.
    ``blind`` zeroes the hesitancy: with lambda = 1 that is the
    hesitancy-blind Minkowski score, bit for bit.

    Past the scan, the bookkeeping is on Python floats, which are the same
    IEEE doubles: the grid points of the brackets come from ``_point``, and
    each lambda's optimum ``j``, score and objective are list entries, from
    the scan's own arrays at its argmin.
    """
    flat = j_hi - j_lo <= 0.0
    last = grid_points - 1
    ends, extra = (), []
    if not flat:  # the end brackets' paths toward their bounds, grid points 0 and last
        ends = (
            _path(j_lo, _point(1, j_lo, j_hi, grid_points), j_lo),
            _path(_point(last - 1, j_lo, j_hi, grid_points), j_hi, j_hi),
        )
        extra = ends[0][0] + ends[1][0]
    k, j_opt, s_opt, best, obj_ends, s_ends = _scan(
        u, v, (j_lo, j_hi, grid_points), target, code, lams, blind, flat, extra
    )
    if flat:
        return j_opt, s_opt

    # The final check: the grid optimum, then the last bracket's ends and
    # midpoint.  A candidate replaces the optimum only where it is strictly
    # better, so the first of the least objectives wins; no objective is
    # NaN, since d_worst + d_best >= 1.
    j_opt, s_opt, best = j_opt.tolist(), s_opt.tolist(), best.tolist()
    scored, todo = [], []  # (cell, path, its objectives, its scores); (cell, path)
    for i, c in enumerate(k.tolist()):
        if c == 0 or c == last:
            path = ends[c > 0]
            start = len(ends[0][0]) if c else 0
            cut = slice(start, start + len(path[0]))
            scored.append((i, path, obj_ends[i, cut].tolist(), s_ends[i, cut].tolist()))
        else:  # the grid optimum's two neighbours bracket it
            lo = _point(c - 1, j_lo, j_hi, grid_points)
            hi = _point(c + 1, j_lo, j_hi, grid_points)
            todo.append((i, _path(lo, hi, j_opt[i])))
    while True:
        for i, path, obj, s_path in scored:
            rest = _walk(path, obj, s_path, target)
            if rest:
                todo.append((i, rest))
                continue
            for x, ox, sx in zip(path[0][-3:], obj[-3:], s_path[-3:]):
                if ox < best[i]:
                    j_opt[i], s_opt[i], best[i] = x, sx, ox
        if not todo:
            break
        cells, paths = zip(*todo)
        sizes = [len(path[0]) for path in paths]
        points = np.array([x for path in paths for x in path[0]])
        lam = np.repeat(lams[list(cells)], sizes)
        obj, s_all = _objective(u, v, points, target, code, lam, blind)
        obj, s_all = obj.tolist(), s_all.tolist()
        cuts = [0, *accumulate(sizes)]
        scored = [
            (i, path, obj[a:b], s_all[a:b])
            for i, path, a, b in zip(cells, paths, cuts, cuts[1:])
        ]
        todo = []
    return np.array(j_opt), np.array(s_opt)


def _objective(u, v, j, target, code, lam, blind) -> tuple[np.ndarray, np.ndarray]:
    """The objective ``(target - s)**2`` and the score ``s`` at the joint degrees ``j``.

    ``lam`` broadcasts against ``j``: one lambda per point of a 1-D ``j``,
    or a ``(len(lams), 1)`` column against a ``(1, n)`` row of ``j``.  The
    kernels keep the shape of ``j``, the anchors a leading axis.
    """
    parts = backends.terms_parts(backends.line_terms(u, v, j, blind), code)
    s = backends.ratio(backends.combine(parts, lam))
    return np.square(target - s), s


def _scan(u, v, line, target, code, lams, blind, flat, extra) -> tuple[np.ndarray, ...]:
    """Each lambda's grid argmin of ``(target - s)**2``, and the score there, scoring what can win.

    ``line`` is the grid's ``(j_lo, j_hi, grid_points)``; returns, per
    lambda, the grid index, ``j``, score and objective of the argmin, the
    same bits as ``_grid_at`` of that index and its scoring, then the
    ``(len(lams), len(extra))`` objectives and scores of the list of points
    ``extra``.  The grid splits into blocks between endpoints (see
    ``_layout``).  The first kernel call scores, for every lambda, grid
    points 0 and ``last``, where most optima lie, the endpoints between
    them, and ``extra``.  The score is monotone in ``j`` along the line (the
    lemma below), so every score at grid points ``1 .. last - 1`` lies in
    the hull of the scores at 1 and ``last - 1``, and every interior score
    of a block in the hull of its two endpoint scores, each widened by
    ``_SLACK`` for rounding.  A lower bound on the objective over such a
    hull is the squared distance from the target to it.

    Where that bound over the whole range exceeds the best objective of
    every lambda in the first call, the scan is done after that call: a
    Python-float loop over the lambdas decides it, with the IEEE operations
    of the per-block test, and stops at the first lambda that could reach.
    Else the scan scores only the blocks that ``_kept_blocks`` keeps: those
    whose own bound is at most the best objective of some lambda.  The
    argmin over all scored points, first in grid order on a tie, is the full
    scan's bit for bit, since every pruned point's objective exceeds that
    best one and so neither wins nor ties.

    Of the blocks that bound keeps, a block whose two endpoints have the
    same ``j`` is pruned too, as where an interval a few ulps wide has few
    distinct grid points.  Every operation of ``_grid_at`` rounds
    monotonically and only ``last`` is replaced by ``stop``, so the grid is
    monotone over ``1 .. last - 1``, which holds every block.  So equal
    endpoints give every point of the block that ``j``, and so the same
    terms, score and objective as its first endpoint, which comes earlier in
    grid order and was scored in the first call: none of them can be the
    first of the least.  Equal includes -0.0 and 0.0, which give the same
    terms: each term is the absolute value of ``j`` or of a sum or
    difference with ``j``, and those differ at most in the sign of a zero.

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

    ``tests/test_pain.py::TestScoreAlongLine`` checks the lemma and the
    closed form on the computed scores, which are the exact ones up to
    rounding:

    - Each computed term is within two roundings of its exact value at the
      grid's ``j``: it is ``j`` or the absolute value of one or two rounded
      additions of it, ``u - j``, ``u - j - 1``, ``v - j``, ``v - j - 1`` and
      ``1 - u - v + j``.  Where rounding puts ``j_lo = u + v - 1`` an ulp
      low, the hesitancy there is off by as much.  Every norm and Chebyshev
      term is 1-Lipschitz in each term.
    - The powers, power sums and maxima, the p-th root (``pow``, or
      ``_finish``'s max-scaled rescue where a power sum underflows), ``mix``
      and the ratio's division each add a few ulps; the rounded exponent ``1
      / p`` moves a norm ``N`` by at most ``N |ln N|`` units of roundoff,
      under 0.4 of one.  The terms are at most 1 and the distances at most
      4, so each computed distance is within 1e-14 of the exact one.
    - An absolute error in ``d_w`` or ``d_b`` moves ``s`` by at most as
      much: both partial derivatives are at most ``1 / (d_w + d_b)``, and
      ``d_w + d_b >= d(worst, best) >= 1`` by the triangle inequality.  So
      each computed score is within 2e-14 of the exact one.  The computed
      grid is monotone over ``1 .. last - 1`` and the exact score monotone
      along it, so every computed score there is within 4e-14 of the hull
      of the computed scores at 1 and ``last - 1``, and an interior score
      within as much of the hull of its block's computed endpoint scores.
      ``_SLACK`` covers that 25 times over.
    - Past the scores, rounding is monotone: ``s >= s_lo`` gives
      ``fl(s - target) >= fl(s_lo - target)``, and ``np.square`` of a
      rounded difference is monotone in its size, so no pruned point's
      objective can fall to the best one.

    A zero-width interval (``flat``) has one j, and scores one point and
    ``extra``.  The first call lays its grid points out in grid order, by
    the layout cached for the grid size.  The kept interiors are scored at
    most ``_BLOCK`` points per kernel call.  Each call scores its points as
    a ``(1, n)`` row against the column of all lambdas, with one
    ``combine``; each lambda's argmin follows the same rule: first in grid
    order on a tie.
    """
    ends, index = _layout(line[2])
    if flat:
        index = index[:1]
    n = len(index)
    lam = lams[:, None]
    rows = np.arange(len(lams))
    j = np.concatenate([_grid_at(index, *line), extra])
    obj, s = _objective(u, v, j[None], target, code, lam, blind)
    m = obj[:, :n].argmin(1)
    k, j_opt, s_opt, best = index[m], j[m], s[rows, m], obj[rows, m]
    obj_extra, s_extra = obj[:, n:], s[:, n:]
    if flat:
        return k, j_opt, s_opt, best, obj_extra, s_extra

    # the whole range: the hull of the scores at grid points 1 and last - 1
    for x, y, o in zip(s[:, 1].tolist(), s[:, n - 2].tolist(), best.tolist()):
        g = max(min(x, y) - _SLACK - target, target - (max(x, y) + _SLACK), 0.0)
        if g * g <= o:
            break
    else:
        return k, j_opt, s_opt, best, obj_extra, s_extra

    # the endpoints, columns 1 .. n - 2 of the first call
    keep = _kept_blocks(s[:, 1:n - 1], j[1:n - 1], target, best)
    if keep.any():
        pairs = zip(ends[:-1][keep].tolist(), ends[1:][keep].tolist())
        index = np.concatenate([np.arange(a + 1, b) for a, b in pairs])
        for b in range(0, len(index), _BLOCK):
            chunk = index[b:b + _BLOCK]
            j = _grid_at(chunk, *line)
            obj, s = _objective(u, v, j[None], target, code, lam, blind)
            m = obj.argmin(1)
            o, at = obj[rows, m], chunk[m]
            win = (o < best) | ((o == best) & (at < k))
            if win.any():
                np.copyto(k, at, where=win)
                np.copyto(j_opt, j[m], where=win)
                np.copyto(s_opt, s[rows, m], where=win)
                np.copyto(best, o, where=win)
    return k, j_opt, s_opt, best, obj_extra, s_extra


def _kept_blocks(s_ends, j_ends, target, best) -> np.ndarray:
    """Which blocks ``_scan`` scores, from the ``(len(lams), len(ends))`` scores at its endpoints.

    ``j_ends`` holds the endpoints' ``j`` and ``best`` each lambda's best
    objective so far.  A block is kept where the squared distance from the
    target to the hull of its two endpoint scores, widened by ``_SLACK``, is
    at most the best objective of some lambda, and its two endpoints differ
    in ``j`` (see ``_scan``).
    """
    left, right = s_ends[:, :-1], s_ends[:, 1:]
    s_lo = np.minimum(left, right) - _SLACK
    s_hi = np.maximum(left, right) + _SLACK
    gap = np.maximum(np.maximum(s_lo - target, target - s_hi), 0.0)
    return (np.square(gap) <= best[:, None]).any(0) & (j_ends[:-1] != j_ends[1:])


def _path(l, h, toward) -> tuple[list, list, list]:
    """The ternary steps from the bracket ``(l, h)`` to REFINE_TOL, predicted toward ``toward``.

    One step splits ``(l, h)`` at ``m1 = l + (h - l) / 3`` and ``m2 = h - (h
    - l) / 3`` and keeps ``(l, m2)`` if ``obj(m1) < obj(m2)``, else ``(m1,
    h)``; a bracket steps while ``h - l > REFINE_TOL``.  The path predicts
    each step to keep ``(l, m2)`` where ``toward < 0.5 * (l + h)``, else
    ``(m1, h)``, which is the step the rule takes on a tie, and lays out the
    steps that follow from those predictions before any point is scored.
    Toward ``l`` every step keeps ``(l, m2)`` and toward ``h`` every step
    keeps ``(m1, h)``: the paths of an optimum on a bound of the grid.

    Returns the points to score, the ``n`` points ``m1``, the ``n`` points
    ``m2``, then the final check ``(l, 0.5 * (l + h), h)`` of the path's
    last bracket; ``left``, each step's prediction, True for ``(l, m2)``;
    and ``other``, the end of each step's bracket that its predicted step
    drops and a step the other way keeps.
    """
    m1s, m2s, left, other = [], [], [], []
    while (width := h - l) > REFINE_TOL:
        third = width / 3.0
        m1s.append(l + third)
        m2s.append(h - third)
        if toward < 0.5 * (l + h):
            left.append(True)
            other.append(h)
            h -= third
        else:
            left.append(False)
            other.append(l)
            l += third
    return m1s + m2s + [l, 0.5 * (l + h), h], left, other


def _walk(path, obj, s, target):
    """Walk ``path`` on its points' objectives ``obj`` and scores ``s``; the next path, or None.

    ``obj`` and ``s`` are lists of Python floats, in the order of the path's
    points.

    The walk takes each step by the rule, ``obj(m1) < obj(m2)`` on the
    scored objectives, up to the first step that goes against the
    prediction, and takes that step by the rule too: both its points are
    scored.  So every step is decided on the same computed objectives as in
    one kernel call per step, and a wrong prediction costs a round, never a
    different answer.  Where every step goes as predicted, the path's final
    check is already scored and the walk returns None.  Else it predicts the
    rest from the bracket that step leaves, toward where the secant through
    that step's two scores meets the target (regula falsi): the score is
    monotone and nearly linear across a bracket.  Two equal scores predict
    the rule's tie step, toward ``h``.
    """
    points, left, other = path
    n = len(left)
    steps = list(map(operator.lt, obj[:n], obj[n:2 * n]))
    if steps == left:
        return None
    t = next(t for t in range(n) if steps[t] != left[t])
    m1, m2 = points[t], points[n + t]
    l, h = (m1, other[t]) if left[t] else (other[t], m2)
    s1, s2 = s[t], s[n + t]
    toward = h if s1 == s2 else m1 + (target - s1) * (m2 - m1) / (s2 - s1)
    return _path(l, h, toward)


def _check_grid(grid_points) -> None:
    try:
        operator.index(grid_points)
    except TypeError:
        raise OutOfRangeError(f"grid_points must be an integer, got {grid_points!r}") from None
    if grid_points < 101:
        raise OutOfRangeError(f"grid_points must be at least 101, got {grid_points}")


def _recommendation(confusion: float, threshold: float) -> str:
    return RECOMMEND_SECOND_NURSE if confusion >= threshold else RECOMMEND_ACCEPT


def _solution(j_opt, s_opt, patient_pain, j_lo, j_hi, confusion_threshold) -> PainSolution:
    nurse_pain = 1.0 - s_opt
    width = j_hi - j_lo
    confusion = 0.0 if width <= 0.0 else min(1.0, max(0.0, (j_opt - j_lo) / width))
    return PainSolution(
        j_opt=j_opt,
        s_opt=s_opt,
        nurse_pain=nurse_pain,
        patient_pain=patient_pain,
        gap=nurse_pain - patient_pain,
        confusion_ratio=confusion,
        recommendation=_recommendation(confusion, confusion_threshold),
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
    lams = check_lambdas(lambda_grid)
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
