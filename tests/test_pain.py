import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit import (
    CFN,
    CHEBYSHEV,
    DistanceParams,
    PainAssessment,
    interpret,
    joint_bounds,
    legacy_comparison_sweep,
    normalize_patient_score,
    score,
    sensitivity_sweep,
    solve_programming1,
)
from cfkit.errors import (
    BadItemCountError,
    ItemOutOfRangeError,
    OutOfRangeError,
)
from cfkit import backends, pain
from cfkit.distance import order_code
from cfkit.pain import (
    REFINE_TOL,
    RECOMMEND_ACCEPT,
    RECOMMEND_SECOND_NURSE,
    assessment_from_dict,
)

from helpers import solver_rows

CASE_ITEMS = (4, 4, 4, 4, 4, 4, 5)  # sums to 29
CASE_U = 0.4
CASE_V = 0.7
CASE_PAIN = 29 / 70
CASE_PARAMS = DistanceParams(p=2, lam=0.5)


# --- independent brute-force oracle (plain formulas, no cfkit internals) ---

def brute_force_best_objective(u, v, target, p, lam, points=100_001):
    j_lo = min(max(0.0, u + v - 1.0), min(u, v))
    j_hi = min(u, v)
    j = np.linspace(j_lo, j_hi, points)
    us, vs, h = u - j, v - j, 1.0 - u - v + j

    def lp4(a, b, c, d):
        return (np.abs(a) ** p + np.abs(b) ** p + np.abs(c) ** p + np.abs(d) ** p) ** (1.0 / p)

    d_worst = lam * lp4(us, vs - 1.0, j, h) + (1 - lam) * np.maximum(np.abs(us), np.abs(vs - 1.0))
    d_best = lam * lp4(us - 1.0, vs, j, h) + (1 - lam) * np.maximum(np.abs(us - 1.0), np.abs(vs))
    s = d_worst / (d_worst + d_best)
    return float(np.min((target - s) ** 2))


# --- reference solver: the grid scan in one piece, one kernel call per ternary step ---

def reference_solve(u, v, j_lo, j_hi, target, code, lams, grid_points, blind=False):
    grid = np.linspace(j_lo, j_hi, grid_points)
    parts = backends.anchor_parts(solver_rows(u, v, grid, blind), code)
    k = np.empty(len(lams), dtype=np.intp)
    s_opt = np.empty(len(lams))
    for i, lam in enumerate(lams.tolist()):
        s = backends.ratio(backends.combine(parts, lam))
        k[i] = np.argmin((target - s) ** 2)
        s_opt[i] = s[k[i]]
    j_opt = grid[k]
    if j_hi - j_lo <= 0.0:
        return j_opt, s_opt

    def objective(j, lam):
        parts = backends.anchor_parts(solver_rows(u, v, j, blind), code)
        s = backends.ratio(backends.combine(parts, lam))
        return np.square(target - s), s

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

    best_obj = np.square(target - s_opt)
    candidates = (lo, 0.5 * (lo + hi), hi)
    obj, s = objective(np.concatenate(candidates), np.tile(lams, 3))
    for j_c, obj_c, s_c in zip(candidates, obj.reshape(3, -1), s.reshape(3, -1)):
        better = obj_c < best_obj
        j_opt = np.where(better, j_c, j_opt)
        s_opt = np.where(better, s_c, s_opt)
        best_obj = np.where(better, obj_c, best_obj)
    return j_opt, s_opt


SIMILARITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def similarity_pairs(draw):
    """``(u, v)``, with 0 and 1 (zero-width intervals), nearly equal pairs and pairs near an anchor.

    At lambda = 0 and ``v = u + 1e-9`` the score is flat to within an ulp on
    a refinement bracket, so ternary steps tie.  Within 1e-5 of an anchor,
    high orders take the underflow rescue of backends._finish.
    """
    u = draw(SIMILARITY)
    kind = draw(st.sampled_from(["free", "near-equal", "near-anchor"]))
    if kind == "free":
        return u, draw(SIMILARITY)
    if kind == "near-equal":
        step = draw(st.sampled_from([0.0, 1e-12, -1e-12, -1e-10, 1e-10, 1e-9, -1e-8, -1e-6]))
        return u, min(1.0, max(0.0, u + step))
    a, b = draw(st.floats(0.0, 1e-5)), draw(st.floats(0.0, 1e-5))
    return (1.0 - a, b) if draw(st.booleans()) else (a, 1.0 - b)  # the best or the worst
ORDERS = st.one_of(st.integers(1, 64), st.just(CHEBYSHEV))


@st.composite
def lambda_lists(draw):
    """Shuffled lambda grids of 1, 2, 11 or 21 values, so finished cells sit among live ones.

    Two lambdas are the count at which a ``(2, 1)`` lambda column would
    broadcast against the two anchors' parts without an error.
    """
    n = draw(st.sampled_from([1, 2, 11, 21]))
    return np.array(draw(st.permutations(np.linspace(0.0, 1.0, n).tolist())))


def reference_score(u, v, j, code, lam):
    """The score of the solver's row at joint degree j, by the reference's kernels."""
    parts = backends.anchor_parts(solver_rows(u, v, [j]), code)
    return float(backends.ratio(backends.combine(parts, lam))[0])


# u at 1: j_hi - j_lo = 1.1e-16, so the grid holds three distinct values of j.
ULPS_WIDE = (1.0, 0.2991984594656608)

# u one ulp above v: every score is 0.5 up to rounding.
ONE_ULP_APART = (0.26161213424931645, 0.2616121342493164)

# A p=64 pair within 1e-5 of the best anchor: the norms to it of the grid's
# rows, the pruning blocks' endpoints among them, take the underflow rescue
# of backends._finish.
NEAR_BEST = (1.0 - 3e-6, 2e-6)


class TestScoreAlongLine:
    """The lemma behind ``pain._scan``'s block bound: along the admissible line
    the score is monotone in j, in the direction of ``sign(v - u)``, for every
    order, lambda and ``blind``.  The computed scores may stray from that by
    rounding, far under ``pain._SLACK``."""

    @settings(max_examples=300, deadline=None)
    @given(uv=similarity_pairs(), code=st.integers(0, 64), lam=st.floats(0.0, 1.0),
           blind=st.booleans())
    @example(uv=(0.3, 0.3), code=3, lam=0.5, blind=False)
    @example(uv=(0.4, 0.4 + 1e-12), code=2, lam=0.25, blind=False)
    @example(uv=NEAR_BEST, code=64, lam=1.0, blind=False)
    @example(uv=(0.9999914522524619, 0.9999914422524618), code=3, lam=0.0, blind=False)
    def test_monotone_in_j(self, uv, code, lam, blind):
        u, v = uv
        j = np.linspace(*joint_bounds(u, v), 2001)
        s = pain._objective(u, v, j, 0.5, code, lam, blind)[1]
        if u == v:  # both anchors' distances have equal bits
            assert (s == 0.5).all()
        else:
            assert (np.diff(s) * np.sign(v - u)).min() >= -1e-13

    # p = 1 without blind and Chebyshev both ways: the distances to the worst
    # and the best anchor are (1 + lam) or 1 times 1 - v + j and 1 - u + j.
    @pytest.mark.parametrize("code, blind", [(1, False), (0, False), (0, True)])
    @settings(max_examples=100, deadline=None)
    @given(uv=similarity_pairs(), lam=st.floats(0.0, 1.0))
    def test_closed_form(self, code, blind, uv, lam):
        u, v = uv
        j = np.linspace(*joint_bounds(u, v), 2001)
        s = pain._objective(u, v, j, 0.5, code, lam, blind)[1]
        assert np.abs(s - (1.0 - v + j) / (2.0 - u - v + 2.0 * j)).max() <= 1e-15


class TestSolveMatchesReference:
    # At 101 to 130 points the grid has one pruning block.  At 257,
    # 258, 259 and 260 points, last - 1 is one below, at, one above and two
    # above 2 * pain._SPAN: the last block is short, full, has no interior,
    # or has a one-point interior.
    @pytest.mark.parametrize(
        "grid_points", [101, 129, 130, 131, 257, 258, 259, 260, 2047, 2048, 2049, 4097, 10001]
    )
    @settings(max_examples=15, deadline=None)
    @given(uv=similarity_pairs(), target=st.floats(0.0, 1.0), p=ORDERS,
           lams=lambda_lists(), blind=st.booleans())
    # steps tie: the objective at m1 and m2 is equal in most brackets
    @example(uv=(0.6, 0.60000001), target=0.49999999691537006, p=3, lams=np.array([0.0]),
             blind=False)
    @example(uv=(0.07, 0.86), target=12 / 70, p=3, lams=np.linspace(0.0, 1.0, 21)[::-1],
             blind=False)
    @example(uv=(0.4, 0.7), target=41 / 70, p=64, lams=np.array([0.5]), blind=True)
    @example(uv=(0.0, 0.6), target=0.7, p=CHEBYSHEV, lams=np.linspace(0.0, 1.0, 11),
             blind=False)
    @example(uv=(1.0, 0.35), target=0.2, p=1, lams=np.array([1.0]), blind=True)
    # all ties (u == v at lambda = 0): the one-point path against the
    # reference's full scan, whose optimum on j_lo takes its first ternary
    # step inward
    @example(uv=(0.3, 0.3), target=0.2, p=3, lams=np.array([0.0]), blind=False)
    # the target is the score of the first or the last grid point, both endpoints
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.0, 3, 0.5), p=3,
             lams=np.array([0.5]), blind=False)
    @example(uv=(0.4, 0.7), target=reference_score(0.4, 0.7, 0.4, 2, 0.3), p=2,
             lams=np.array([0.3, 0.0, 1.0]), blind=False)
    # two lambdas, one per anchor's row of the parts
    @example(uv=(0.07, 0.86), target=12 / 70, p=3, lams=np.array([0.9, 0.1]), blind=False)
    @example(uv=(0.4, 0.7), target=0.5, p=2, lams=np.array([0.0, 1.0]), blind=True)
    # block endpoint scores through the underflow rescue
    @example(uv=NEAR_BEST, target=0.99999, p=64, lams=np.linspace(0.0, 1.0, 11), blind=False)
    @example(uv=NEAR_BEST[::-1], target=1e-5, p=64, lams=np.array([1.0]), blind=True)
    # nearly equal u and v near 1: the computed score is 0.5 + 2e-9, flat to
    # about 2e-14 along j and off monotone by an ulp, so a block's interior
    # can score under both its endpoints and only pain._SLACK keeps it
    @example(uv=(0.9999914522524619, 0.9999914422524618), target=0.25, p=3,
             lams=np.linspace(0.0, 1.0, 21), blind=False)
    # u == v at lambda > 0: both anchors' distances have equal bits and every
    # score is 0.5, so the one-point path answers j_lo
    @example(uv=(0.3, 0.3), target=0.2, p=3, lams=np.array([0.5]), blind=False)
    @example(uv=(0.5, 0.5), target=0.7, p=64, lams=np.linspace(0.0, 1.0, 21)[::-1],
             blind=True)
    # |u - v| = 1e-12: the score is flat to well under pain._SLACK
    @example(uv=(0.4, 0.4 + 1e-12), target=0.5, p=2, lams=np.linspace(0.0, 1.0, 11),
             blind=False)
    # an optimum inside the first block, and one inside the last block at
    # grids 129 and 131 (grid 130's last block has no interior); then 21
    # lambdas whose optima spread over the last block and the one before it
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.2 * 0.07, 3, 0.5), p=3,
             lams=np.array([0.5]), blind=False)
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.99 * 0.07, 3, 0.5), p=3,
             lams=np.array([0.5]), blind=False)
    @example(uv=(0.4, 0.61), target=reference_score(0.4, 0.61, 0.01 + 0.99 * 0.39, 5, 0.2),
             p=5, lams=np.linspace(0.0, 1.0, 21), blind=False)
    # the grid optimum is j_lo, but the true one lies 3e-6 inside, so the
    # spine's walk stops after a few steps and the tree takes over
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 3e-6, 3, 0.5), p=3,
             lams=np.array([0.5]), blind=False)
    # 21 lambdas whose optima end on j_lo, on j_hi and inside: stored final
    # checks sit among cells that the tree refines
    @example(uv=(0.07, 0.34), target=0.43, p=5, lams=np.linspace(0.0, 1.0, 21), blind=False)
    # at grid 101 the optimum on j_hi is nearer the bracket's midpoint than
    # the grid suggests, so the spine's walk turns at its first step
    @example(uv=(0.4, 0.61), target=reference_score(0.4, 0.61, 0.3980461, 5, 0.2), p=5,
             lams=np.array([0.2]), blind=False)
    # a zero-width interval: the one-point path, under 21 lambdas
    @example(uv=(1.0, 0.3), target=0.4, p=2, lams=np.linspace(0.0, 1.0, 21), blind=False)
    # a wide interval: at grid 101 the spine paths take 33 steps
    @example(uv=(0.49, 0.52), target=0.48, p=3, lams=np.array([0.5]), blind=False)
    # an interval two ulps wide: every score ties within pain._SLACK, and most
    # blocks have the same j at both endpoints, so only the equal-j check
    # prunes them
    @example(uv=ULPS_WIDE, target=0.9, p=3, lams=np.array([0.0, 0.5, 1.0]), blind=False)
    # u one ulp above v, the target below 0.5: the first call lays out only
    # the path toward j_hi, but the scores tie and grid point 0 wins at grid
    # 101, so a later call scores the bracket at j_lo
    @example(uv=ONE_ULP_APART, target=0.3, p=4, lams=np.array([1.0]), blind=False)
    def test_bitwise(self, grid_points, uv, target, p, lams, blind):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        args = (u, v, j_lo, j_hi, target, order_code(p), lams, grid_points, blind)
        got = pain._solve(*args)
        want = reference_solve(*args)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]

    @staticmethod
    def kernel_calls(monkeypatch):
        """Points per kernel call: the reference's ``anchor_parts``, the solver's ``line_terms``."""
        calls = []

        def counting(name, size):
            function = getattr(backends, name)

            def count(*args):
                calls.append(size(args))
                return function(*args)

            monkeypatch.setattr(backends, name, count)

        counting("anchor_parts", lambda args: len(args[0]))
        counting("line_terms", lambda args: args[2].size)
        return calls

    def test_bound_optimum_solves_in_one_kernel_call(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        grid_points = 10001
        line = (0.0, 0.07, grid_points)
        args = (0.07, 0.86, *line[:2], 12 / 70, 3, np.array([0.5]), grid_points)
        reference_solve(*args)
        steps = len(calls) - 2  # the grid, one call per step, then the final candidates
        calls.clear()
        j_opt, _ = pain._solve(*args)
        assert j_opt.tolist() == [0.07]  # j_hi, the last grid point
        # The one call scores grid points 0 and last, the block endpoints
        # between them, and both end brackets' paths toward their bounds
        # with their final checks: u < v puts every score below 0.5, where
        # the target lies too, so either end could hold the optimum.  The
        # hull of the scores at grid points 1
        # and last - 1 prunes every block at once, and the walk toward j_hi
        # takes every step of its path and reads its final check from that
        # call, so nothing else is scored.
        g = pain._grid_at(np.array([0, 1, grid_points - 2, grid_points - 1]), *line).tolist()
        lower, upper = pain._path(g[0], g[1], g[0]), pain._path(g[2], g[3], g[3])
        assert upper[1] == [False] * steps and steps > 10
        assert lower[1] == [True] * len(lower[1])
        # grid points 0, 1, last - 1 and last, and the 78 multiples of the span between
        points = 4 + (grid_points - 3) // pain._SPAN
        assert len(pain._layout(grid_points)[1]) == points
        assert calls == [points + len(lower[0]) + len(upper[0])]

    @pytest.mark.parametrize("uv, target", [((0.86, 0.07), 12 / 70), ((0.07, 0.86), 0.9),
                                            ((0.4, 0.7), 0.5)])
    @pytest.mark.parametrize("lams", [np.array([0.5]), np.linspace(0.0, 1.0, 21)])
    def test_target_across_half_lays_out_the_upper_path_alone(self, uv, target, lams,
                                                             monkeypatch):
        # Every score lies on u's side of 0.5 and moves toward 0.5 as j
        # grows.  With the target on the other side (or at 0.5), the optimum
        # is j_hi, so the one call scores the path toward j_hi and not the
        # one toward j_lo.
        calls = self.kernel_calls(monkeypatch)
        u, v = uv
        grid_points = 10001
        line = (*joint_bounds(u, v), grid_points)
        args = (u, v, *line[:2], target, 3, lams, grid_points)
        got = pain._solve(*args)
        first = calls[:]
        assert [x.tolist() for x in got] == [x.tolist() for x in reference_solve(*args)]
        assert got[0].tolist() == [line[1]] * len(lams)
        upper = pain._path(pain._point(grid_points - 2, *line), line[1], line[1])
        assert first == [len(pain._layout(grid_points)[1]) + len(upper[0])]

    def test_grid_optimum_at_j_lo_without_its_path(self, monkeypatch):
        # Predicted toward j_hi, but at one ulp apart the scores tie, and
        # grid point 0 is the first of the least objectives.  After the first
        # call and the one block's interior, grid points 2 .. last - 2, the
        # bracket at j_lo is laid out toward j_lo and scored in one call.
        calls = self.kernel_calls(monkeypatch)
        u, v = ONE_ULP_APART
        grid_points = 101
        line = (*joint_bounds(u, v), grid_points)
        args = (u, v, *line[:2], 0.3, 4, np.array([1.0]), grid_points)
        want = reference_solve(*args)
        calls.clear()
        got = pain._solve(*args)
        assert [x.tolist() for x in got] == [x.tolist() for x in want]
        upper = pain._path(pain._point(grid_points - 2, *line), line[1], line[1])
        lower = pain._path(line[0], pain._point(1, *line), line[0])
        first = len(pain._layout(grid_points)[1]) + len(upper[0])
        assert calls[:3] == [first, grid_points - 4, len(lower[0])]

    @pytest.mark.parametrize("uv, target, lams, pruned", [
        # optima on j_hi and on j_lo, for 1 and for 21 lambdas
        ((0.07, 0.86), 12 / 70, np.array([0.5]), True),
        ((0.1, 0.9), 12 / 70, np.linspace(0.0, 1.0, 21), True),
        ((0.07, 0.86), 0.9, np.array([0.0, 1.0]), True),
        # an interior optimum, one inside the first block, and 21 lambdas
        # whose optima spread over the interval
        ((0.07, 0.86), reference_score(0.07, 0.86, 0.03, 3, 0.5), np.array([0.5]), False),
        ((0.07, 0.86), reference_score(0.07, 0.86, 1e-3 * 0.07, 3, 0.5), np.array([0.5]), False),
        ((0.07, 0.34), 0.43, np.linspace(0.0, 1.0, 21), False),
    ])
    def test_whole_range_check_skips_the_block_prune(self, uv, target, lams, pruned,
                                                     monkeypatch):
        # Where no lambda can reach the hull of the scores at grid points 1
        # and last - 1, the scan returns after its first call without the
        # per-block prune; where one can, the per-block prune decides.
        kept, kept_blocks = [], pain._kept_blocks

        def record(*args):
            kept.append(kept_blocks(*args))
            return kept[-1]

        monkeypatch.setattr(pain, "_kept_blocks", record)
        u, v = uv
        args = (u, v, *joint_bounds(u, v), target, 3, lams, 10001)
        got = pain._solve(*args)
        assert [x.tolist() for x in got] == [x.tolist() for x in reference_solve(*args)]
        assert len(kept) == (0 if pruned else 1)
        if not pruned:
            assert 0 < kept[0].sum() < len(pain._layout(10001)[0]) - 1

    def test_interior_optimum_refines_in_few_calls(self, monkeypatch):
        # The optimum at j = 0.03 is inside the grid.  After the scan's two
        # calls (the first one and the kept block), the path predicted toward
        # the grid optimum turns, and the one the secant predicts from there
        # reaches REFINE_TOL, its final check included: 4 calls in all for
        # over 15 ternary steps.
        calls = self.kernel_calls(monkeypatch)
        target = reference_score(0.07, 0.86, 0.03, 3, 0.5)
        args = (0.07, 0.86, 0.0, 0.07, target, 3, np.array([0.5]), 10001)
        reference_solve(*args)
        steps = len(calls) - 2
        calls.clear()
        pain._solve(*args)
        assert steps > 15
        assert len(calls) <= 4
        assert 3 not in calls  # no final check is scored on its own

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("target", [0.2, 0.5, 0.9])
    def test_ulps_wide_interval_prunes_equal_j_blocks(self, lam, target, monkeypatch):
        # Every score of the grid ties within pain._SLACK, so the hull of a
        # block's endpoint scores prunes nothing.  A block whose endpoints
        # have the same j is pruned all the same: only the two blocks where
        # the grid's j changes are scored after the first call, then at most
        # one final check (345 points at most).  Scoring every kept block would take 6 or 7 calls
        # and 10,007 points or more.
        calls = self.kernel_calls(monkeypatch)
        u, v = ULPS_WIDE
        pain._solve(u, v, *joint_bounds(u, v), target, 3, np.array([lam]), 10001)
        assert len(calls) <= 3
        assert sum(calls) < 500

    def test_bound_optimum_computes_the_grid_once(self, monkeypatch):
        # The end brackets' grid points and an optimum's neighbours are
        # Python floats from pain._point: the one _grid_at call is the scan's
        # first kernel call.
        grid_at, grids = pain._grid_at, []

        def record(index, *line):
            grids.append(len(index))
            return grid_at(index, *line)

        monkeypatch.setattr(pain, "_grid_at", record)
        calls = self.kernel_calls(monkeypatch)
        pain._solve(0.07, 0.86, 0.0, 0.07, 12 / 70, 3, np.array([0.5]), 10001)
        assert len(calls) == len(grids) == 1

    @pytest.mark.parametrize("grid_points", [101, 10001])
    @pytest.mark.parametrize("target", [0.2, 0.5, 0.8])
    def test_near_tie_refines_a_step_per_call(self, grid_points, target, monkeypatch):
        # |u - v| = 1e-12 at lambda = 0: the score is 0.5 up to rounding, so
        # the step choices are rounding noise and predictions turn often.
        # Each round still takes at least one step of every live bracket, so
        # the refinement makes at most one call per ternary step, plus one
        # for a final check left by a turn at the last step.
        calls = self.kernel_calls(monkeypatch)
        u, v = 0.3, 0.3 + 1e-12
        args = (u, v, *joint_bounds(u, v), target, 3, np.array([0.0]), grid_points)
        reference_solve(*args)
        steps = len(calls) - 2
        scan, scanned = pain._scan, []

        def record_scan(*args):
            result = scan(*args)
            scanned.append(len(calls))
            return result

        monkeypatch.setattr(pain, "_scan", record_scan)
        calls.clear()
        pain._solve(*args)
        assert len(calls) - scanned[0] <= steps + 1

    @staticmethod
    def clinic_solves(monkeypatch, solves):
        """Points per kernel call over ``solves`` clinic-like assessments."""
        points = []
        line_terms = backends.line_terms

        def count(u, v, j, blind):
            points.append(j.size)
            return line_terms(u, v, j, blind)

        monkeypatch.setattr(backends, "line_terms", count)
        rng = np.random.default_rng(21)
        for _ in range(solves):
            u, v = rng.random(2).tolist()
            if rng.random() < 0.08:  # a zero-width interval
                u = float(rng.integers(0, 2))
            p = [*range(1, 11), CHEBYSHEV][rng.integers(0, 11)]
            lam = rng.integers(0, 21) / 20
            patient_pain = normalize_patient_score(rng.integers(0, 11, 7).tolist())
            solve_programming1(u, v, patient_pain, DistanceParams(p=p, lam=lam))
        return points

    def test_scan_prunes_clinic_grids(self, monkeypatch):
        # Clinic-like assessments score 1.6% of their grids (3.0% when the
        # first call also scored the whole first and last block), end paths
        # and refinement included: a scan that fell back to scoring every grid
        # point would score over 16 times the bound.
        solves = 200
        points = self.clinic_solves(monkeypatch, solves)
        assert sum(points) <= 0.06 * solves * pain.DEFAULT_GRID_POINTS

    def test_clinic_solves_make_few_kernel_calls(self, monkeypatch):
        # Most clinic answers sit on a bound of the grid and take one call,
        # which scores grid points 0 and last, the block endpoints between
        # and both end paths with their final checks; interior optima take
        # two to four (1.105 calls per solve on this stream, 1.28 with a depth-5
        # tree of ternary steps per call for them).  A scan that also scored
        # the interiors of every block its endpoints could not prune would
        # make about 2.3.
        solves = 200
        points = self.clinic_solves(monkeypatch, solves)
        assert len(points) / solves <= 1.25


def float_score(u, v, j, p, lam, blind=False):
    """The score at joint degree ``j`` in plain floats, each norm scaled by its largest term."""
    h = 0.0 if blind else abs(1.0 - u - v + j)

    def distance(x1, x2):
        terms = (x1, x2, j, h)
        top = max(terms)
        norm = top * sum((x / top) ** p for x in terms) ** (1.0 / p) if top else 0.0
        return lam * norm + (1.0 - lam) * max(x1, x2)

    d_worst = distance(abs(u - j), abs(v - j - 1.0))
    d_best = distance(abs(u - j - 1.0), abs(v - j))
    return d_worst / (d_worst + d_best)


def least_gap(u, v, target, p, lam, blind):
    """The least ``|target - s(j)|`` over ``joint_bounds(u, v)``, by bisection on s(j) = target.

    s is monotone in j (the lemma in ``pain._scan``), so the least gap is at
    a bound unless the target lies between the scores there; then it is at
    the root, which bisection brackets down to adjacent floats.
    """
    lo, hi = joint_bounds(u, v)

    def score(j):
        return float_score(u, v, j, p, lam, blind)

    s_lo, s_hi = score(lo), score(hi)
    gaps = [abs(target - s_lo), abs(target - s_hi)]
    if min(s_lo, s_hi) < target < max(s_lo, s_hi):
        rising = s_hi > s_lo
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if (score(mid) < target) == rising:
                lo = mid
            else:
                hi = mid
        gaps += [abs(target - score(lo)), abs(target - score(hi))]
    return min(gaps)


class TestExactOptimum:
    """The solver against the exact optimum, from a closed form or by bisection.

    At p = 1 without ``blind``, and at Chebyshev both ways, ``s(j) = (1 - v +
    j) / (2 - u - v + 2 j)`` for every lambda (the lemma in ``pain._scan``),
    monotone in j.  So the least gap ``|target - s|`` over ``[j_lo, j_hi]``
    is 0 where the target lies between the scores at the two bounds, at the
    root of ``s = target``, and else the smaller gap at a bound.  The
    objective is the square of the gap, and this compares the gaps, not j,
    which is ill-conditioned where s is flat.

    The tolerance: the final check keeps the best of the last bracket's ends
    and midpoint, and that bracket is at most REFINE_TOL wide, so one of them
    is within REFINE_TOL / 4 of the optimum's j, and ``|ds/dj| = |v - u| /
    (2 - u - v + 2 j)**2 <= 1``.  Rounding adds a few ulps.  The largest
    excess measured on 6,000 solves is 1.4e-9.

    At p >= 2 the least gap comes from ``least_gap``, which bisects s(j) =
    target on ``float_score``, within an ulp or two of the kernels' score.
    Each of the four terms moves at rate 1 in j, so each distance moves at
    most ``4**(1/p) <= 2`` times as fast and ``|ds/dj| <= 2 / (d_w + d_b) <=
    2``: the gap exceeds the least one by at most ``2 * REFINE_TOL / 4``,
    plus rounding.  The largest excess measured on 3,000 solves at p 2..10
    and 64 is 1.4e-9.
    """

    @pytest.mark.parametrize("code, blind", [(1, False), (0, False), (0, True)])
    @settings(max_examples=150, deadline=None)
    @given(uv=similarity_pairs(), target=st.floats(0.0, 1.0), lams=lambda_lists(),
           grid_points=st.sampled_from([101, 2049, 10001]))
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.03, 1, 0.5),
             lams=np.array([0.5]), grid_points=10001)
    @example(uv=(0.0, 0.6), target=0.7, lams=np.array([0.0, 1.0]), grid_points=101)
    @example(uv=(1.0, 0.35), target=0.2, lams=np.array([1.0]), grid_points=101)
    @example(uv=(0.3, 0.3), target=0.2, lams=np.array([0.5]), grid_points=2049)
    @example(uv=(0.6, 0.60000001), target=0.49999999691537006, lams=np.array([0.0]),
             grid_points=10001)
    def test_gap_is_least(self, code, blind, uv, target, lams, grid_points):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        _, s_opt = pain._solve(u, v, j_lo, j_hi, target, code, lams, grid_points, blind)
        ends = [(1.0 - v + j) / (2.0 - u - v + 2.0 * j) for j in (j_lo, j_hi)]
        inside = min(ends) <= target <= max(ends)
        least = 0.0 if inside else min(abs(target - s) for s in ends)
        assert np.abs(target - s_opt).max() <= least + 5e-9

    @pytest.mark.parametrize("blind", [False, True])
    @pytest.mark.parametrize("p", [*range(2, 11), 64])
    @settings(max_examples=20, deadline=None)
    @given(uv=similarity_pairs(), target=st.floats(0.0, 1.0), lams=lambda_lists(),
           grid_points=st.sampled_from([101, 2049, 10001]))
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.03, 3, 0.5),
             lams=np.array([0.5]), grid_points=10001)
    @example(uv=NEAR_BEST, target=0.99999, lams=np.linspace(0.0, 1.0, 11), grid_points=2049)
    @example(uv=(0.3, 0.3 + 1e-12), target=0.5, lams=np.array([0.0, 1.0]), grid_points=101)
    def test_gap_is_least_by_bisection(self, p, blind, uv, target, lams, grid_points):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        _, s_opt = pain._solve(u, v, j_lo, j_hi, target, p, lams, grid_points, blind)
        for lam, s in zip(lams.tolist(), s_opt.tolist()):
            least = least_gap(u, v, target, p, lam, blind)
            assert abs(target - s) <= least + REFINE_TOL / 2 + 1e-12


# Widths down to the smallest subnormal, whose step underflows to 0.
WIDTHS = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-16, 1e-9]),
    st.floats(0.0, 1.0),
)

@st.composite
def ascending_indices(draw):
    """A grid size and a non-empty ascending array of its indices, with or without the last."""
    grid_points = draw(st.sampled_from([101, 2049, 10001]))
    last = grid_points - 1
    with_last = draw(st.booleans())
    picked = draw(st.sets(st.integers(0, last - 1), min_size=0 if with_last else 1, max_size=300))
    return grid_points, np.array(sorted(picked | ({last} if with_last else set())))


# Minor page faults per solve over 600 solves that follow 60 warm-up ones.
# Each step takes a solve whose scan keeps few blocks, an all-ties one (u ==
# v at lambda = 0), which takes the one-point path, and a near tie (|u - v| =
# 1e-12 at lambda = 0), whose scan keeps every block and scores them
# pain._BLOCK points per kernel call.
FAULTS_PER_SOLVE = """
import resource
import cfkit

def solve(i):
    p = cfkit.CHEBYSHEV if i % 11 == 10 else i % 11 + 1
    params = cfkit.DistanceParams(p=p, lam=(i % 21) / 20)
    cfkit.solve_programming1(0.3 + 0.001 * (i % 50), 0.4, 0.5, params)
    cfkit.solve_programming1(0.3, 0.3, 0.2, cfkit.DistanceParams(p=p, lam=0.0))
    cfkit.solve_programming1(0.3, 0.3 + 1e-12, 0.2, cfkit.DistanceParams(p=p, lam=0.0))

for i in range(20):
    solve(i)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(200):
    solve(i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 600)
"""


class TestGridScan:
    @settings(max_examples=200, deadline=None)
    @given(start=st.floats(0.0, 1.0), width=WIDTHS, grid_points=st.integers(101, 10001))
    @example(start=0.5, width=0.0, grid_points=101)
    @example(start=0.0, width=1.0, grid_points=10001)
    @example(start=0.0, width=5e-324, grid_points=10001)
    @example(start=0.3, width=1e-16, grid_points=2049)
    def test_grid_is_linspace(self, start, width, grid_points):
        stop = min(1.0, start + width)
        got = pain._grid_at(np.arange(grid_points), start, stop, grid_points)
        assert got.tobytes() == np.linspace(start, stop, grid_points).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(start=st.floats(0.0, 1.0), width=WIDTHS,
           grid_points=st.sampled_from([101, 2049, 10001]))
    @example(start=0.0, width=5e-324, grid_points=10001)
    @example(start=0.3, width=1e-16, grid_points=2049)
    @example(start=0.2991984594656607, width=1.1102230246251565e-16, grid_points=10001)
    def test_point_is_grid_at(self, start, width, grid_points):
        # pain._point is _grid_at of one index in Python floats, bit for bit,
        # the last index (stop) and steps that underflow included.
        stop = min(1.0, start + width)
        want = pain._grid_at(np.arange(grid_points), start, stop, grid_points)
        got = [pain._point(i, start, stop, grid_points) for i in range(grid_points)]
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid_points", [101, 129, 10001])
    def test_layout(self, grid_points):
        # The block endpoints run from grid point 1 to last - 1 through the
        # multiples of pain._SPAN between, and the first call scores them
        # between grid points 0 and last.
        ends, index = pain._layout(grid_points)
        last = grid_points - 1
        assert ends[0] == 1 and ends[-1] == last - 1
        assert (np.diff(ends) > 0).all()
        assert (ends[1:-1] % pain._SPAN == 0).all()
        assert np.diff(ends).max() <= pain._SPAN
        assert index.tolist() == [0, *ends.tolist(), last]
        if grid_points == 101:
            assert ends.tolist() == [1, 99]

    @settings(max_examples=100, deadline=None)
    @given(start=st.floats(0.0, 1.0), width=WIDTHS, grid=ascending_indices())
    @example(start=0.0, width=5e-324, grid=(10001, np.array([0, 1, 5000, 9999, 10000])))
    @example(start=0.3, width=1e-16, grid=(2049, np.array([0, 1, 1024, 2047])))
    def test_grid_at_ascending_index(self, start, width, grid):
        # _grid_at of ascending indices, with and without the last one, is
        # linspace at those indices bit for bit, also where the step underflows.
        grid_points, index = grid
        stop = min(1.0, start + width)
        want = np.linspace(start, stop, grid_points)[index]
        assert pain._grid_at(index, start, stop, grid_points).tobytes() == want.tobytes()
        out = np.full(len(index) + 2, np.nan)  # into a view, as the scan's first call does
        pain._grid_at(index, start, stop, grid_points, out[1:-1])
        assert out[1:-1].tobytes() == want.tobytes() and np.isnan(out[[0, -1]]).all()

    @settings(max_examples=100, deadline=None)
    @given(l=st.floats(0.0, 1.0), width=WIDTHS,
           toward=st.sampled_from(["l", "h", "below", "above", "inside"]))
    @example(l=0.0, width=7e-6, toward="l")
    @example(l=0.0, width=7e-6, toward="h")
    def test_path_follows_the_predicted_steps(self, l, width, toward):
        # Toward l or below it every step keeps (l, m2); toward h or above it
        # every step keeps (m1, h).  pain._path lays those paths out without
        # the prediction test, bit for bit as the test would.
        h = min(1.0, l + width)
        point = {"l": l, "h": h, "below": l - 0.25, "above": h + 0.25,
                 "inside": l + 0.3 * (h - l)}[toward]
        m1s, m2s, left = [], [], []
        a, b = l, h
        while (w := b - a) > REFINE_TOL:
            third = w / 3.0
            m1s.append(a + third)
            m2s.append(b - third)
            left.append(point < 0.5 * (a + b))
            if left[-1]:
                b -= third
            else:
                a += third
        points, got_left, *start = pain._path(l, h, point)
        assert points == m1s + m2s + [a, 0.5 * (a + b), b]
        assert got_left == left and start == [l, h]
        if toward in ("l", "below"):
            assert left == [True] * len(left)
        elif toward in ("h", "above"):
            assert left == [False] * len(left)

    def test_layout_is_built_once_per_grid_size(self):
        pain._layout.cache_clear()
        args = (0.07, 0.86, 0.0, 0.07, 12 / 70, 3, np.array([0.5]), 4097)
        pain._solve(*args)
        built = pain._layout.cache_info()
        pain._solve(*args)
        again = pain._layout.cache_info()
        assert (built.misses, again.misses, again.hits - built.hits) == (1, 1, 1)
        for array in pain._layout(4097):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    # Optima on j_hi for 1 and for 21 lambdas, where the scan's first call
    # prunes every block it has not scored, and a near tie (|u - v| = 1e-12
    # at lambda = 0), where every block is kept and the rest are scored in 5
    # calls.
    @pytest.mark.parametrize("uv, target, lam, grid_points, kernel_calls", [
        ((0.1, 0.9), 12 / 70, 0.5, 2049, 1),
        ((0.3, 0.3 + 1e-12), 0.2, 0.0, 10001, 6),
    ])
    def test_scan_combines_once_per_kernel_call(self, uv, target, lam, grid_points, kernel_calls,
                                                monkeypatch):
        # Lambda is an array axis of the scan: each kernel call scores its
        # points for every lambda with one combine, so 21 lambdas take the
        # calls that one does.
        calls, scanned = [], []
        for name in ("line_terms", "combine"):
            def record(*args, name=name, function=getattr(backends, name)):
                calls.append(name)
                return function(*args)

            monkeypatch.setattr(backends, name, record)
        scan = pain._scan

        def record_scan(*args):
            calls.clear()
            result = scan(*args)
            scanned.append(list(calls))
            return result

        monkeypatch.setattr(pain, "_scan", record_scan)
        u, v = uv
        for lams in (np.array([lam]), np.linspace(0.0, 1.0, 21)):
            pain._solve(u, v, *joint_bounds(u, v), target, 3, lams, grid_points)
        one, many = scanned
        assert many == one == ["line_terms", "combine"] * kernel_calls

    @pytest.mark.parametrize("grid_points", [2047, 2048, 2049, 4097, 10001])
    def test_all_ties_first_point_wins(self, grid_points, monkeypatch):
        # u == v at lambda = 0: the distances to both anchors are the same
        # Chebyshev term, so every score is exactly 0.5 and grid point 0,
        # j_lo, wins.
        points = TestSolveMatchesReference.kernel_calls(monkeypatch)
        solution = solve_programming1(0.3, 0.3, 0.2, DistanceParams(p=3, lam=0.0),
                                      grid_points=grid_points)
        assert (solution.j_opt, solution.s_opt) == (joint_bounds(0.3, 0.3)[0], 0.5)
        assert points == [1]

    @pytest.mark.parametrize("grid_points", [2047, 2048, 2049, 4097, 10001])
    def test_near_tie_scores_at_most_a_block_per_call(self, grid_points, monkeypatch):
        # |u - v| = 1e-12 at lambda = 0: every score ties within pain._SLACK,
        # so no block is pruned by its hull, and the scan scores its kept
        # points at most pain._BLOCK per call (10,189 points in 12 calls at
        # 10,001 grid points).
        points = TestSolveMatchesReference.kernel_calls(monkeypatch)
        solve_programming1(0.3, 0.3 + 1e-12, 0.2, DistanceParams(p=3, lam=0.0),
                           grid_points=grid_points)
        assert max(points) <= pain._BLOCK < sum(points)

    @pytest.mark.parametrize("grid_points", [101, 2049, 10001])
    @pytest.mark.parametrize("blind", [False, True])
    @pytest.mark.parametrize("lams", [np.array([0.5]), np.linspace(0.0, 1.0, 21)])
    def test_exact_tie_takes_the_one_point_path(self, grid_points, blind, lams, monkeypatch):
        # u == v: both anchors' terms are the same floats, the first two
        # swapped, so every score is exactly 0.5 and every objective ties.
        # One kernel call of one point answers j_lo for every lambda.
        points = TestSolveMatchesReference.kernel_calls(monkeypatch)
        for u in (0.0, 0.3, 0.5, 0.8, 1.0):
            j_lo = joint_bounds(u, u)[0]
            for code in range(65):
                points.clear()
                j_opt, s_opt = pain._solve(u, u, *joint_bounds(u, u), 0.2, code, lams,
                                           grid_points, blind)
                assert points == [1]
                assert j_opt.tolist() == [j_lo] * len(lams)
                assert s_opt.tolist() == [0.5] * len(lams)

    def test_exact_tie_sweep_makes_one_call_per_order(self, monkeypatch):
        points = TestSolveMatchesReference.kernel_calls(monkeypatch)
        rows = sensitivity_sweep(0.3, 0.3, 0.4, [*range(1, 11), CHEBYSHEV],
                                 np.linspace(0.0, 1.0, 21))
        assert points == [1] * 11
        assert {(row.j_opt, row.s_opt) for row in rows} == {(joint_bounds(0.3, 0.3)[0], 0.5)}

    def test_threads_keep_their_own_workspace(self):
        # One grid size, so that any module state the solver shared between
        # threads would be overwritten mid-solve.
        cases = [(u, 0.4, 0.5, DistanceParams(p=p, lam=lam))
                 for u, p, lam in [(0.1, 2, 0.3), (0.5, 7, 0.9), (0.9, 1, 0.0), (0.3, CHEBYSHEV, 1.0)]]
        want = [solve_programming1(*case) for case in cases]
        got = [[] for _ in cases]

        def work(i):
            for _ in range(10):
                got[i].append(solve_programming1(*cases[i]))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 10 for w in want]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts the page faults of glibc's heap trimming")
    def test_solves_fault_no_heap_back(self):
        src = str(Path(pain.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", FAULTS_PER_SOLVE], env=env,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert float(out) <= 5


class TestNormalizePatientScore:
    def test_case_items(self):
        assert normalize_patient_score(CASE_ITEMS) == 29 / 70

    def test_extremes(self):
        assert normalize_patient_score((0,) * 7) == 0.0
        assert normalize_patient_score((10,) * 7) == 1.0

    @pytest.mark.parametrize("items", [(1,) * 6, (1,) * 8, ()])
    def test_bad_count(self, items):
        with pytest.raises(BadItemCountError):
            normalize_patient_score(items)

    @pytest.mark.parametrize("bad", [-1, 11, 3.5, True])
    def test_bad_item(self, bad):
        with pytest.raises(ItemOutOfRangeError):
            normalize_patient_score((4, 4, 4, bad, 4, 4, 4))


class TestPainAssessment:
    def test_valid(self):
        a = PainAssessment(CASE_ITEMS, 0.4, 0.7)
        assert a.patient_pain == 29 / 70

    @given(items=st.lists(st.integers(0, 10), min_size=7, max_size=7), numpy_ints=st.booleans())
    def test_patient_pain_is_the_normalized_score(self, items, numpy_ints):
        if numpy_ints:
            items = [np.int64(x) for x in items]
        got = PainAssessment(items, 0.4, 0.7).patient_pain
        assert got.hex() == normalize_patient_score(items).hex()

    @given(items=st.lists(st.integers(0, 10), min_size=7, max_size=7), at=st.integers(0, 6),
           bad=st.sampled_from([-1, 11, 3.5, True, None, np.int64(12)]))
    def test_bad_item_raises_at_construction(self, items, at, bad):
        items[at] = bad
        with pytest.raises(ItemOutOfRangeError):
            PainAssessment(items, 0.4, 0.7)

    def test_similarity_range(self):
        with pytest.raises(OutOfRangeError):
            PainAssessment(CASE_ITEMS, 1.4, 0.7)

    def test_from_dict(self):
        assessment, params = assessment_from_dict(
            {
                "patient_items": list(CASE_ITEMS),
                "sim_scale0": 0.4,
                "sim_scale10": 0.7,
                "p": 2,
                "lambda": 0.5,
            }
        )
        assert assessment.sim_to_scale0 == 0.4
        assert assessment.sim_to_scale10 == 0.7
        assert params == CASE_PARAMS

    def test_from_dict_defaults(self):
        _, params = assessment_from_dict(
            {"patient_items": list(CASE_ITEMS), "sim_scale0": 0.4, "sim_scale10": 0.7}
        )
        assert params == DistanceParams(p=2, lam=0.5)

    @pytest.mark.parametrize("text,order", [("inf", CHEBYSHEV), ("Chebyshev", CHEBYSHEV), ("3", 3)])
    def test_from_dict_order_text(self, text, order):
        # the JSON "p" field reads orders the way the CLI --p flag does
        _, params = assessment_from_dict(
            {"patient_items": list(CASE_ITEMS), "sim_scale0": 0.4, "sim_scale10": 0.7,
             "p": text}
        )
        assert params == DistanceParams(p=order, lam=0.5)

    @pytest.mark.parametrize("p", ["2.5", "fast"])
    def test_from_dict_bad_order(self, p):
        with pytest.raises(OutOfRangeError, match="order p"):
            assessment_from_dict(
                {"patient_items": list(CASE_ITEMS), "sim_scale0": 0.4, "sim_scale10": 0.7,
                 "p": p}
            )

    @pytest.mark.parametrize("key, value, message", [
        ("sim_scale0", True, "sim_to_scale0 must be a number, got True"),
        ("sim_scale10", "0.4", "sim_to_scale10 must be a number, got '0.4'"),
        ("lambda", True, "lambda must be a number, got True"),
        ("lambda", "0.4", "lambda must be a number, got '0.4'"),
    ])
    def test_from_dict_refuses_booleans_and_strings(self, key, value, message):
        data = {"patient_items": list(CASE_ITEMS), "sim_scale0": 0.4, "sim_scale10": 0.7}
        with pytest.raises(ValueError) as raised:
            assessment_from_dict({**data, key: value})
        assert str(raised.value) == message
        assert raised.value.field == key

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError):
            assessment_from_dict({"sim_scale0": 0.4, "sim_scale10": 0.7})


class TestSolver:
    def test_case_study_joint_degree(self):
        solution = solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS)
        assert solution.j_opt == pytest.approx(0.4, abs=1e-6)
        assert solution.s_opt == score(CFN(CASE_U, CASE_V, solution.j_opt), CASE_PARAMS).s
        assert solution.nurse_pain == 1.0 - solution.s_opt
        assert solution.gap == solution.nurse_pain - solution.patient_pain
        assert solution.confusion_ratio == 1.0
        assert solution.recommendation == RECOMMEND_SECOND_NURSE

    def test_score_increasing_in_j_on_case_study(self):
        values = [score(CFN(CASE_U, CASE_V, j), CASE_PARAMS).s for j in (0.1, 0.25, 0.4)]
        assert values[0] < values[1] < values[2]

    def test_self_consistent_target_gives_zero_gap(self):
        params = DistanceParams(p=2, lam=0.5)
        s_star = score(CFN(0.5, 0.5, 0.3), params).s
        solution = solve_programming1(0.5, 0.5, 1.0 - s_star, params)
        assert (1.0 - s_star - solution.s_opt) ** 2 <= 1e-16

    def test_deterministic(self):
        a = solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS)
        b = solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS)
        assert a == b

    def test_feasibility_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            u, v = rng.random(), rng.random()
            pain = rng.random()
            params = DistanceParams(p=int(rng.integers(1, 11)), lam=float(rng.random()))
            solution = solve_programming1(u, v, pain, params)
            j_lo, j_hi = joint_bounds(u, v)
            assert j_lo - 1e-12 <= solution.j_opt <= j_hi + 1e-12
            assert 0.0 <= solution.s_opt <= 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            u, v = rng.random(), rng.random()
            target = rng.random()
            p = int(rng.integers(1, 11))
            lam = float(rng.random())
            solution = solve_programming1(u, v, 1.0 - target, DistanceParams(p=p, lam=lam))
            achieved = (target - solution.s_opt) ** 2
            assert achieved <= brute_force_best_objective(u, v, target, p, lam) + 1e-10

    def test_degenerate_interval(self):
        # u = v = j forces a single feasible point
        solution = solve_programming1(0.5, 0.5, 0.2, CASE_PARAMS, grid_points=101)
        j_lo, j_hi = joint_bounds(0.5, 0.5)
        assert j_lo == 0.0 and j_hi == 0.5
        solution_pinned = solve_programming1(0.0, 0.0, 0.2, CASE_PARAMS)
        assert solution_pinned.j_opt == 0.0
        assert solution_pinned.confusion_ratio == 0.0

    # Similarities within CLAMP_TOL outside [0, 1] are clamped by the bounds'
    # check; the solver scores the clamped values, so a u above 1 gives no
    # CFN with a negative hesitancy, and (1 + 5e-10, 1.0) is an exact tie.
    @pytest.mark.parametrize("u, v", [
        (1.0 + 5e-10, 0.3), (0.3, 1.0 + 5e-10), (-5e-10, 0.6), (0.6, -5e-10),
        (1.0 + 5e-10, -5e-10), (1.0 + 5e-10, 1.0), (-5e-10, 0.0),
    ])
    def test_solves_the_clamped_similarities(self, u, v):
        cu, cv = (min(1.0, max(0.0, x)) for x in (u, v))
        for p, lam in [(3, 0.5), (1, 0.0), (CHEBYSHEV, 1.0)]:
            params = DistanceParams(p=p, lam=lam)
            got = solve_programming1(u, v, 0.5, params)
            assert repr(got) == repr(solve_programming1(cu, cv, 0.5, params))
        orders, lams = [1, 3, CHEBYSHEV], np.linspace(0.0, 1.0, 5)
        got = sensitivity_sweep(u, v, 0.4, orders, lams, grid_points=1001)
        assert repr(got) == repr(sensitivity_sweep(cu, cv, 0.4, orders, lams, grid_points=1001))
        got = legacy_comparison_sweep(u, v, 0.4, orders, grid_points=1001)
        assert repr(got) == repr(legacy_comparison_sweep(cu, cv, 0.4, orders, grid_points=1001))

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            solve_programming1(CASE_U, CASE_V, 1.2, CASE_PARAMS)
        with pytest.raises(OutOfRangeError):
            solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS, grid_points=50)

    @pytest.mark.parametrize("grid_points", [1000.5, 1001.0, np.float64(1001.0), "1001"])
    def test_grid_points_must_be_an_integer(self, grid_points):
        # A float grid size would build its grid on a bogus last point: the
        # grid's index never equals a float 1000.5.
        with pytest.raises(OutOfRangeError, match="grid_points must be an integer"):
            solve_programming1(0.3, 0.5, 0.4, CASE_PARAMS, grid_points=grid_points)
        with pytest.raises(OutOfRangeError, match="grid_points must be an integer"):
            sensitivity_sweep(0.3, 0.5, 0.4, [2], [0.5], grid_points=grid_points)
        with pytest.raises(OutOfRangeError, match="grid_points must be an integer"):
            legacy_comparison_sweep(0.3, 0.5, 0.4, [2], grid_points=grid_points)

    def test_numpy_integer_grid_points(self):
        want = solve_programming1(0.3, 0.5, 0.4, CASE_PARAMS, grid_points=1001)
        assert solve_programming1(0.3, 0.5, 0.4, CASE_PARAMS, grid_points=np.int64(1001)) == want
        assert want.j_opt == 0.3  # j_hi, the last grid point

    @pytest.mark.parametrize("threshold", [1.5, float("nan")])
    def test_threshold_validation(self, threshold):
        with pytest.raises(OutOfRangeError, match="threshold must lie in"):
            solve_programming1(
                CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS, confusion_threshold=threshold
            )


class TestInterpret:
    def test_case_study_flags_second_nurse(self):
        solution = solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS)
        verdict = interpret(solution, confusion_threshold=0.9)
        assert verdict.recommendation == RECOMMEND_SECOND_NURSE
        assert verdict.final_pain_score == max(solution.nurse_pain, solution.patient_pain)
        assert verdict.final_pain_score == solution.nurse_pain  # nurse side is higher here

    def test_low_confusion_accepts_nurse(self):
        pinned = solve_programming1(0.0, 0.0, 0.2, CASE_PARAMS)
        assert pinned.confusion_ratio == 0.0
        assert interpret(pinned, 0.9).recommendation == RECOMMEND_ACCEPT

    def test_conservative_final_score(self):
        pinned = solve_programming1(0.0, 0.0, 0.9, CASE_PARAMS)
        verdict = interpret(pinned, 0.9)
        assert verdict.final_pain_score == max(pinned.nurse_pain, pinned.patient_pain)

    def test_threshold_validation(self):
        solution = solve_programming1(CASE_U, CASE_V, CASE_PAIN, CASE_PARAMS)
        with pytest.raises(OutOfRangeError):
            interpret(solution, confusion_threshold=1.5)


@pytest.fixture(scope="module")
def sweep():
    return sensitivity_sweep(
        CASE_U, CASE_V, CASE_PAIN, p_list=range(1, 11), lambda_grid=np.linspace(0, 1, 21)
    )


class TestSensitivitySweep:

    def test_joint_degree_pinned_across_grid(self, sweep):
        assert len(sweep) == 210
        for row in sweep:
            assert row.j_opt == pytest.approx(0.4, abs=1e-6)

    def test_gap_column(self, sweep):
        target = 1.0 - CASE_PAIN
        for row in sweep:
            assert row.gap == target - row.s_opt

    @pytest.mark.parametrize(
        "p", [1, 2, 3, 10, 64, CHEBYSHEV], ids=["p1", "p2", "p3", "p10", "p64", "cheb"]
    )
    @pytest.mark.parametrize(
        "u,v,pain",
        [
            # optimum on j_hi: every cell's bracket is one grid step
            (CASE_U, CASE_V, CASE_PAIN),
            # at p=3 some lambdas end inside the interval, others on j_hi
            (0.07, 0.86, 0.83),
            # u = 0: zero-width interval, no refinement
            (0.0, 0.6, 0.3),
        ],
        ids=["case-study", "mixed", "zero-width"],
    )
    def test_single_cell_matches_solver(self, u, v, pain, p):
        # every cell of a multi-lambda sweep equals its own one-cell solve, bit for bit;
        # lambdas out of order, so cells whose refinement ends early sit among live ones
        lams = np.linspace(0.0, 1.0, 11)[[9, 0, 10, 3, 8, 5, 1, 7, 2, 6, 4]]
        rows = sensitivity_sweep(u, v, pain, p_list=[p], lambda_grid=lams)
        assert len(rows) == len(lams)
        for row, lam in zip(rows, lams):
            solution = solve_programming1(u, v, pain, DistanceParams(p=p, lam=float(lam)))
            assert (row.j_opt, row.s_opt) == (solution.j_opt, solution.s_opt)

    def test_validates_u_v_without_orders(self):
        with pytest.raises(OutOfRangeError):
            sensitivity_sweep(1.5, 0.2, 0.3, p_list=[], lambda_grid=[0.5])

    def test_validates_grid_without_orders(self):
        with pytest.raises(OutOfRangeError, match="grid_points"):
            sensitivity_sweep(0.4, 0.7, 0.3, p_list=[], lambda_grid=[0.5], grid_points=5)

    def test_gap_nondecreasing_in_p_from_two(self, sweep):
        by_lam = {}
        for row in sweep:
            by_lam.setdefault(row.lam, []).append((row.p, row.gap))
        for lam, cells in by_lam.items():
            gaps = [gap for p, gap in sorted(cells) if p >= 2]
            assert all(a <= b + 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))


class TestLegacyComparison:
    def test_spread_exceeds_combined(self):
        legacy = legacy_comparison_sweep(CASE_U, CASE_V, CASE_PAIN, p_list=range(1, 11))
        legacy_gaps = [row.gap for row in legacy]
        combined = sensitivity_sweep(
            CASE_U, CASE_V, CASE_PAIN, p_list=range(1, 11), lambda_grid=[0.5]
        )
        combined_gaps = [row.gap for row in combined]
        assert max(legacy_gaps) - min(legacy_gaps) > max(combined_gaps) - min(combined_gaps)

    def test_legacy_gap_dominates_full_information_gap(self):
        legacy = legacy_comparison_sweep(CASE_U, CASE_V, CASE_PAIN, p_list=range(1, 11))
        combined = sensitivity_sweep(
            CASE_U, CASE_V, CASE_PAIN, p_list=range(1, 11), lambda_grid=[1.0]
        )
        for l_row, c_row in zip(legacy, combined):
            assert l_row.gap >= c_row.gap - 1e-12

    def test_single_order_has_zero_spread(self):
        [row] = legacy_comparison_sweep(CASE_U, CASE_V, CASE_PAIN, p_list=[3])
        assert row.gap - row.gap == 0.0

    def test_validates_u_v_without_orders(self):
        with pytest.raises(OutOfRangeError):
            legacy_comparison_sweep(1.5, 0.2, 0.3, p_list=[])

    def test_validates_grid_without_orders(self):
        with pytest.raises(OutOfRangeError, match="grid_points"):
            legacy_comparison_sweep(0.4, 0.7, 0.3, p_list=[], grid_points=5)
