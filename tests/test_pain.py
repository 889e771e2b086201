import math
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
from cfkit.pain import (
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


SIMILARITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def similarity_pairs(draw):
    """``(u, v)``, with 0 and 1 (zero-width intervals), nearly equal pairs and pairs near an anchor.

    At lambda = 0 and ``v = u + 1e-9`` the score is flat to within an ulp
    over a few ulps of j, so the computed gaps of neighbouring points tie.
    Within 1e-5 of an anchor, high orders take the underflow rescue of
    backends._finish.
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


def reference_scores(u, v, j, code, lam, blind=False):
    """The scores of the solver's rows at the joint degrees j, by the reference's kernels."""
    parts = backends.anchor_parts(solver_rows(u, v, np.atleast_1d(j), blind), code)
    return backends.ratio(backends.mix(lam, *parts))


def reference_score(u, v, j, code, lam):
    """The score of the solver's row at joint degree j, by the reference's kernels."""
    return float(reference_scores(u, v, j, code, lam)[0])


# u at 1: j_hi - j_lo = 1.1e-16, so the interval holds three floats.
ULPS_WIDE = (1.0, 0.2991984594656608)

# u one ulp above v: every score is 0.5 up to rounding.
ONE_ULP_APART = (0.26161213424931645, 0.2616121342493164)

# A p=64 pair within 1e-5 of the best anchor: the norms to it take the
# underflow rescue of backends._finish.
NEAR_BEST = (1.0 - 3e-6, 2e-6)

# Near the worst anchor: the computed score is flat to rounding over most
# of the interval.
NEAR_WORST = (8.156582716815833e-06, 0.9999918434172832)


class TestScoreAlongLine:
    """The lemma behind ``pain._solve``: along the admissible line the score
    is monotone in j, in the direction of ``sign(v - u)``, for every order,
    lambda and ``blind``.  The computed scores may stray from that by
    rounding, within the 2e-14 of the lemma's rounding bullets."""

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

    s is monotone in j (the lemma in ``pain._solve``), so the least gap is
    at a bound unless the target lies between the scores there; then it is
    at the root, which bisection brackets down to adjacent floats.  ``p``
    is an order, ``math.inf`` for Chebyshev.
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


@st.composite
def targets(draw, uv, code, lam, blind):
    """A target anywhere in [0, 1], or the score at a point of the interval, a root to find."""
    t = draw(st.floats(0.0, 1.0))
    if not draw(st.booleans()):
        return t
    j_lo, j_hi = joint_bounds(*uv)
    return float(reference_scores(*uv, j_lo + t * (j_hi - j_lo), code, lam, blind)[0])


class TestExactOptimum:
    """The solver against the exact optimum, from a closed form or by bisection.

    At p = 1 without ``blind``, and at Chebyshev both ways, ``s(j) = (1 - v +
    j) / (2 - u - v + 2 j)`` for every lambda (the lemma in ``pain._solve``),
    monotone in j.  So the least gap ``|target - s|`` over ``[j_lo, j_hi]``
    is 0 where the target lies between the scores at the two bounds, at the
    root of ``s = target``, and else the smaller gap at a bound.  At every
    order the least gap also comes from ``least_gap``, which bisects s(j) =
    target on ``float_score``, within an ulp or two of the kernels' score.
    The objective is the square of the gap, and this compares the gaps, not
    j, which is ill-conditioned where s is flat.

    The tolerance, 1e-14, is that of the computed score, which the lemma's
    rounding bullets put within 2e-14 of the exact one; the root find
    itself stops within ``pain._NEAR`` (2.2e-16) of the target.  The
    largest excess measured on 3,000 random solves at p codes 0..64 is
    2.2e-16.
    """

    @pytest.mark.parametrize("code, blind", [(1, False), (0, False), (0, True)])
    @settings(max_examples=150, deadline=None)
    @given(uv=similarity_pairs(), target=st.floats(0.0, 1.0), lams=lambda_lists())
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.03, 1, 0.5),
             lams=np.array([0.5]))
    @example(uv=(0.0, 0.6), target=0.7, lams=np.array([0.0, 1.0]))
    @example(uv=(1.0, 0.35), target=0.2, lams=np.array([1.0]))
    @example(uv=(0.3, 0.3), target=0.2, lams=np.array([0.5]))
    @example(uv=(0.6, 0.60000001), target=0.49999999691537006, lams=np.array([0.0]))
    def test_gap_is_least(self, code, blind, uv, target, lams):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        _, s_opt = pain._solve(u, v, j_lo, j_hi, target, code, lams, blind)
        ends = [(1.0 - v + j) / (2.0 - u - v + 2.0 * j) for j in (j_lo, j_hi)]
        inside = min(ends) <= target <= max(ends)
        least = 0.0 if inside else min(abs(target - s) for s in ends)
        assert np.abs(target - np.array(s_opt)).max() <= least + 1e-14

    @pytest.mark.parametrize("blind", [False, True])
    @pytest.mark.parametrize("p", range(65))
    @settings(max_examples=6, deadline=None)
    @given(uv=similarity_pairs(), target=st.floats(0.0, 1.0), lams=lambda_lists())
    @example(uv=(0.07, 0.86), target=reference_score(0.07, 0.86, 0.03, 3, 0.5),
             lams=np.array([0.5]))
    @example(uv=NEAR_BEST, target=0.99999, lams=np.linspace(0.0, 1.0, 11))
    @example(uv=(0.3, 0.3 + 1e-12), target=0.5, lams=np.array([0.0, 1.0]))
    # the computed score is flat to rounding: neighbouring points' gaps tie
    @example(uv=NEAR_WORST, target=NEAR_WORST[0], lams=np.linspace(0.0, 1.0, 21))
    @example(uv=(0.9999931349121842, 3.0813805589151003e-06), target=0.9999931702991036,
             lams=np.array([0.30277008306746034]))
    def test_gap_is_least_by_bisection(self, p, blind, uv, target, lams):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        _, s_opt = pain._solve(u, v, j_lo, j_hi, target, p, lams, blind)
        for lam, s in zip(lams.tolist(), s_opt):
            least = least_gap(u, v, target, p or math.inf, lam, blind)
            assert abs(target - s) <= least + 1e-14

    # A 10,001-point grid of the interval as an oracle: no answer's gap is
    # above the best of its points by more than pain._NEAR.  The root find
    # stops within it of the target, and where the computed score is flat
    # to rounding it strays from monotone by about as much.
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), uv=similarity_pairs(), code=st.integers(0, 64), lams=lambda_lists(),
           blind=st.booleans())
    def test_gap_is_never_above_the_grid(self, data, uv, code, lams, blind):
        u, v = uv
        j_lo, j_hi = joint_bounds(u, v)
        target = data.draw(targets(uv, code, lams.item(0), blind))
        _, s_opt = pain._solve(u, v, j_lo, j_hi, target, code, lams, blind)
        grid = np.linspace(j_lo, j_hi, 10001)
        for lam, s in zip(lams.tolist(), s_opt):
            best = np.abs(target - reference_scores(u, v, grid, code, lam, blind)).min()
            assert abs(target - s) <= best + pain._NEAR


class TestRootFind:
    """The kernel calls of a solve, counted at ``backends.line_terms``."""

    @staticmethod
    def kernel_calls(monkeypatch):
        """Points per kernel call."""
        calls = []
        line_terms = backends.line_terms

        def count(u, v, j, blind):
            calls.append(j.size)
            return line_terms(u, v, j, blind)

        monkeypatch.setattr(backends, "line_terms", count)
        return calls

    def test_bound_optimum_solves_in_one_kernel_call(self, monkeypatch):
        # The target lies outside the scores at j_lo and j_hi, so the first
        # call answers every lambda at a bound, with one mix for all.
        calls = self.kernel_calls(monkeypatch)
        mix, mixes = backends.mix, []

        def record(*args):
            mixes.append(len(calls))
            return mix(*args)

        monkeypatch.setattr(backends, "mix", record)
        for uv, target, bound in [((0.07, 0.86), 0.9, 1), ((0.1, 0.9), 12 / 70, 1),
                                  ((0.86, 0.07), 12 / 70, 1), ((0.07, 0.86), 0.0, 0)]:
            u, v = uv
            for lams in (np.array([0.5]), np.linspace(0.0, 1.0, 21)):
                calls.clear()
                mixes.clear()
                j_opt, _ = pain._solve(u, v, *joint_bounds(u, v), target, 3, lams)
                assert j_opt == [joint_bounds(u, v)[bound]] * len(lams)
                assert calls == [pain._FIRST] and mixes == [1]

    def test_interior_optimum_refines_in_few_calls(self, monkeypatch):
        # The optimum at j = 0.03 is inside the interval: after the first
        # call, two rounds of three points find the root to within
        # pain._NEAR of the target.
        calls = self.kernel_calls(monkeypatch)
        target = reference_score(0.07, 0.86, 0.03, 3, 0.5)
        _, [s] = pain._solve(0.07, 0.86, 0.0, 0.07, target, 3, np.array([0.5]))
        assert abs(target - s) <= pain._NEAR
        assert calls[0] == pain._FIRST and len(calls) <= 3

    def test_clinic_solves_make_few_kernel_calls(self, monkeypatch):
        # A clinic answer on a bound takes the first call alone and one
        # inside the interval at most five, three or four on this stream.
        calls = self.kernel_calls(monkeypatch)
        rng = np.random.default_rng(21)
        inside = []
        for _ in range(250):
            u, v = rng.random(2).tolist()
            if rng.random() < 0.08:  # a zero-width interval
                u = float(rng.integers(0, 2))
            p = [*range(1, 11), CHEBYSHEV][rng.integers(0, 11)]
            lam = rng.integers(0, 21) / 20
            patient_pain = normalize_patient_score(rng.integers(0, 11, 7).tolist())
            calls.clear()
            solution = solve_programming1(u, v, patient_pain, DistanceParams(p=p, lam=lam))
            if solution.j_opt in joint_bounds(u, v):
                assert len(calls) == 1
            else:
                inside.append(len(calls))
        assert inside and max(inside) <= 5

    @pytest.mark.parametrize("uv", [(0.3, 0.3 + 1e-12), ULPS_WIDE])
    def test_near_tie_sweep_makes_one_call_per_order(self, uv, monkeypatch):
        # Every score lies within 1e-12 of the one at j_lo, far from the
        # target 0.6, so each order's first call answers all 21 lambdas.
        calls = self.kernel_calls(monkeypatch)
        sensitivity_sweep(*uv, 0.4, [*range(1, 11), CHEBYSHEV], np.linspace(0.0, 1.0, 21))
        assert calls == [pain._FIRST] * 11

    @pytest.mark.parametrize("blind", [False, True])
    @pytest.mark.parametrize("lams", [np.array([0.5]), np.linspace(0.0, 1.0, 21)])
    def test_ties_and_zero_width_answer_j_lo_in_one_call(self, blind, lams, monkeypatch):
        # u == v: both anchors' terms are the same floats, the first two
        # swapped, so every score is exactly 0.5 and every objective ties.
        # A zero-width interval scores its one j at every point.  Either
        # way the first call answers j_lo for every lambda.
        points = self.kernel_calls(monkeypatch)
        ties = [(u, u) for u in (0.0, 0.3, 0.5, 0.8, 1.0)]
        for u, v in ties + [(0.0, 0.6), (0.6, 1.0), (1.0, 0.3)]:
            j_lo, j_hi = joint_bounds(u, v)
            for code in range(65):
                points.clear()
                j_opt, s_opt = pain._solve(u, v, j_lo, j_hi, 0.2, code, lams, blind)
                assert points == [pain._FIRST]
                assert j_opt == [j_lo] * len(lams)
                if u == v:
                    assert s_opt == [0.5] * len(lams)
                want = [reference_scores(u, v, j_lo, code, lam, blind)[0] for lam in lams]
                assert np.array(s_opt).tobytes() == np.array(want).tobytes()

    def test_exact_tie_sweep_makes_one_call_per_order(self, monkeypatch):
        points = self.kernel_calls(monkeypatch)
        rows = sensitivity_sweep(0.3, 0.3, 0.4, [*range(1, 11), CHEBYSHEV],
                                 np.linspace(0.0, 1.0, 21))
        assert points == [pain._FIRST] * 11
        assert {(row.j_opt, row.s_opt) for row in rows} == {(joint_bounds(0.3, 0.3)[0], 0.5)}

    def test_next_points_fall_back(self):
        # A round that follows one that did not halve the bracket quarters it.
        gaps = [(0.0, -1.0), (1.0, -0.5), (2.0, 1.0), (3.0, 2.0)]
        assert pain._next_points(gaps, 1, False) == [1.25, 1.5, 1.75]
        # Two nodes with the same gap: the secant through the bracket's
        # ends, without guards.
        gaps = [(0.0, -0.5), (1.0, -0.5), (2.0, 1.0), (3.0, 2.0)]
        assert pain._next_points(gaps, 1, True) == [1.0 + 0.5 / 1.5]
        # An interpolation that leaves the bracket, on gaps that are not
        # monotone: the secant.
        gaps = [(0.0, 0.9), (1.0, -1.0), (2.0, 1.0), (3.0, -1.1)]
        assert not 1.0 < pain._inverse_interpolation(gaps, 1.0) < 2.0
        assert pain._next_points(gaps, 1, True) == [1.5]
        # A secant that rounds onto an end of the bracket: the midpoint.
        gaps = [(0.0, -1e-300), (1.0, -1e-300), (2.0, 1.0), (3.0, 2.0)]
        assert pain._next_points(gaps, 1, True) == [1.5]

    def test_threads_keep_their_own_workspace(self):
        # Any module state the solver shared between threads would be
        # overwritten mid-solve.
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


# Minor page faults per solve over 600 solves that follow 60 warm-up ones.
# Each step takes a solve whose answer may lie inside its interval, an
# all-ties one (u == v at lambda = 0), which the first kernel call answers,
# and a near tie (|u - v| = 1e-12 at lambda = 0), whose scores are flat to
# rounding.
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
        solution = solve_programming1(0.5, 0.5, 0.2, CASE_PARAMS)
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
        got = sensitivity_sweep(u, v, 0.4, orders, lams)
        assert repr(got) == repr(sensitivity_sweep(cu, cv, 0.4, orders, lams))
        got = legacy_comparison_sweep(u, v, 0.4, orders)
        assert repr(got) == repr(legacy_comparison_sweep(cu, cv, 0.4, orders))

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            solve_programming1(CASE_U, CASE_V, 1.2, CASE_PARAMS)

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
            # optimum on j_hi: the first call answers every cell
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
