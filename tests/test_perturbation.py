import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfkit import (
    CFN,
    CHEBYSHEV,
    PerturbationConfig,
    cf_h,
    cf_im,
    epsilon_bounds,
    lambda_trend,
    perturb,
    run_study,
)
from cfkit import backends
from cfkit.errors import OutOfEpsilonRangeError, OutOfRangeError
from cfkit.perturbation import _draw_epsilons

from helpers import UNIT, cfns

F1 = CFN(0.8, 0.4, 0.32)
F2 = CFN(0.1, 0.9, 0.09)
PAIR = (F1, F2)
# on the lower and the upper joint bound, on u + v = 1, at both anchors,
# and a zero-width epsilon range
EDGE_CFNS = (
    CFN(0.7, 0.5, 0.2), CFN(0.6, 0.3, 0.3), CFN(0.3, 0.7, 0.1),
    CFN(1.0, 0.0, 0.0), CFN(0.0, 1.0, 0.0), CFN(0.5, 0.5, 0.5),
)


class TestEpsilonBounds:
    def test_reference(self):
        lo, hi = epsilon_bounds(F1)
        assert lo == pytest.approx(-0.48, abs=1e-12)
        assert hi == pytest.approx(0.08, abs=1e-12)

    def test_pinned(self):
        assert epsilon_bounds(CFN(0.5, 0.5, 0.5)) == (0.0, 0.0)

    def test_third_case(self):
        lo, hi = epsilon_bounds(CFN(0.6, 0.3, 0.2))
        assert lo == pytest.approx(-0.4, abs=1e-12)
        assert hi == pytest.approx(0.1, abs=1e-12)

    @given(cfns())
    def test_never_empty_and_brackets_zero(self, f):
        lo, hi = epsilon_bounds(f)
        assert lo <= 0.0 <= hi


class TestPerturb:
    def test_upper_boundary(self):
        assert perturb(F1, 0.08) == CFN(0.88, 0.32, 0.32)

    def test_identity(self):
        assert perturb(F1, 0.0) == F1

    def test_lower_boundary(self):
        assert perturb(F1, -0.48) == CFN(0.32, 0.88, 0.32)

    def test_out_of_range(self):
        with pytest.raises(OutOfEpsilonRangeError):
            perturb(F1, 0.09)
        with pytest.raises(OutOfEpsilonRangeError):
            perturb(F1, -0.49)

    @given(cfns(), st.floats(0.0, 1.0))
    def test_preserves_joint_and_hesitancy(self, f, t):
        lo, hi = epsilon_bounds(f)
        eps = lo + (hi - lo) * t
        g = perturb(f, eps)
        # boundary epsilons can shift the float joint bounds by an ulp,
        # which the constructor clamp absorbs
        assert abs(g.j - f.j) <= 1e-15
        assert abs(g.hesitancy - f.hesitancy) <= 1e-15

    def test_interior_epsilon_preserves_joint_exactly(self):
        f = CFN(0.8, 0.4, 0.32)
        for eps in (-0.3, -0.1, 0.0, 0.05):
            assert perturb(f, eps).j == f.j


@pytest.fixture(scope="module")
def study():
    config = PerturbationConfig(base_pair=PAIR, trials=100, seed=1234)
    return run_study(config)


class TestRunStudy:

    def test_trial_count_and_order(self, study):
        assert [r.index for r in study.records] == list(range(100))
        lo, hi = epsilon_bounds(F1)
        for record in study.records:
            assert lo <= record.epsilon <= hi

    def test_single_trial_matches_direct_recomputation(self):
        # every trial of the edge pairs
        cases = [(F1, 1, (1, 2, 3))] + [(f1, 50, (1, 3, 64, CHEBYSHEV)) for f1 in EDGE_CFNS]
        for f1, trials, p_values in cases:
            config = PerturbationConfig(
                base_pair=(f1, F2), trials=trials, seed=7, p_values=p_values
            )
            result = run_study(config)
            records = result.records
            assert [r.epsilon for r in records] == result.epsilons.tolist()
            d_h0 = cf_h(f1, F2)
            for record in records:
                shifted = perturb(f1, record.epsilon)
                d_h = cf_h(shifted, F2)
                for p in config.p_values:
                    d_m = cf_im(shifted, F2, p)
                    d_m0 = cf_im(f1, F2, p)
                    for lam in config.lambda_values:
                        d_c = lam * d_m + (1.0 - lam) * d_h
                        d_c0 = lam * d_m0 + (1.0 - lam) * d_h0
                        expected = (
                            d_m, d_h, d_c, abs(d_m - d_m0), abs(d_h - d_h0), abs(d_c - d_c0)
                        )
                        column = result.columns[(p, lam)][record.index]
                        assert column.tobytes() == np.array(expected).tobytes()
                        assert record.cells[(p, lam)] == tuple(column.tolist())

    def test_one_kernel_call_per_measure(self, monkeypatch):
        # the unperturbed baseline is scored in the same call as the trials
        calls = []

        def counting(kernel):
            def wrapped(a, *args):
                calls.append((kernel.__name__, len(a)))
                return kernel(a, *args)

            return wrapped

        for name in ("cfim_pairwise", "cfh_pairwise"):
            monkeypatch.setattr(backends, name, counting(getattr(backends, name)))
        run_study(PerturbationConfig(base_pair=PAIR, trials=30, seed=5, p_values=(1, 64)))
        assert sorted(calls) == [("cfh_pairwise", 31), ("cfim_pairwise", 31), ("cfim_pairwise", 31)]

    def test_stores_each_distinct_column_once(self):
        # d_h and delta_d_h once, d_m and delta_d_m per p, d_c and delta_d_c per (p, lambda)
        n_p, n_lam, trials = 3, 4, 40
        config = PerturbationConfig(
            base_pair=PAIR, trials=trials, seed=9, p_values=(1, 3, CHEBYSHEV),
            lambda_values=(0.0, 0.25, 0.5, 1.0),
        )
        result = run_study(config)
        arrays = []
        for item in fields(result):
            value = getattr(result, item.name)
            arrays += value.values() if isinstance(value, dict) else [value]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        columns = 1 + 2 + 2 * n_p + 2 * n_p * n_lam
        assert sum(a.nbytes for a in arrays) == columns * trials * 8
        # a view keeps at most its baseline row past the trials alive
        owners = {id(o): o.nbytes for o in (a if a.base is None else a.base for a in arrays)}
        assert sum(owners.values()) <= columns * (trials + 1) * 8

    def test_reproducible(self, study):
        again = run_study(PerturbationConfig(base_pair=PAIR, trials=100, seed=1234))
        for a, b in zip(study.records, again.records):
            assert a.epsilon == b.epsilon
            assert a.cells == b.cells
        assert study.summary == again.summary

    def test_seed_changes_draws(self, study):
        other = run_study(PerturbationConfig(base_pair=PAIR, trials=100, seed=4321))
        assert [r.epsilon for r in other.records] != [r.epsilon for r in study.records]

    def test_per_trial_dominance_at_p1(self, study):
        for record in study.records:
            cell = record.cells[(1, 0.5)]
            assert cell.delta_d_m >= cell.delta_d_h
        assert study.summary[(1, 0.5)].n_m_ge_h == 100

    def test_sandwich_count_at_lambda_endpoints(self, study):
        # at lambda 0 and 1 the combined delta collapses onto one side exactly
        for p in (1, 2, 3):
            assert study.summary[(p, 0.0)].n_m_ge_c_ge_h == study.summary[(p, 0.0)].n_m_ge_h
            assert study.summary[(p, 1.0)].n_m_ge_c_ge_h == study.summary[(p, 1.0)].n_m_ge_h

    def test_summary_maxima_bound_means(self, study):
        for cell in study.summary.values():
            assert cell.max_delta_m >= cell.mean_delta_m
            assert cell.max_delta_h >= cell.mean_delta_h
            assert cell.max_delta_c >= cell.mean_delta_c

    def test_deltas_nonnegative(self, study):
        for record in study.records:
            for cell in record.cells.values():
                assert cell.delta_d_m >= 0.0
                assert cell.delta_d_h >= 0.0
                assert cell.delta_d_c >= 0.0

    def test_delta_c_endpoints(self, study):
        for record in study.records:
            for p in (1, 2, 3):
                assert record.cells[(p, 0.0)].delta_d_c == record.cells[(p, 0.0)].delta_d_h
                assert record.cells[(p, 1.0)].delta_d_c == record.cells[(p, 1.0)].delta_d_m

    def test_bit_equal_cells_share_arrays(self, study):
        # study's lambdas are 0, 0.25, 0.5, 0.75 and 1
        for p in (1, 2, 3):
            assert study.d_c[(p, 0.0)] is study.d_h
            assert study.delta_d_c[(p, 0.0)] is study.delta_d_h
            assert study.d_c[(p, 1.0)] is study.d_m[p]
            assert study.delta_d_c[(p, 1.0)] is study.delta_d_m[p]
            half = study.d_c[(p, 0.5)], study.delta_d_c[(p, 0.5)]
            assert not any(c is x for c in half for x in
                           (study.d_h, study.delta_d_h, study.d_m[p], study.delta_d_m[p]))

    def test_mean_delta_c_nondecreasing_in_lambda(self, study):
        lams = (0.0, 0.25, 0.5, 0.75, 1.0)
        for p in (1, 2, 3):
            means = [study.summary[(p, lam)].mean_delta_c for lam in lams]
            assert all(a <= b + 1e-15 for a, b in zip(means[:-1], means[1:]))

    def test_gap_shrinks_as_p_grows(self, study):
        gaps = [
            study.summary[(p, 0.5)].mean_delta_m - study.summary[(p, 0.5)].mean_delta_h
            for p in (1, 2, 3)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_hesitancy_invariant_under_study_draws(self, study):
        for record in study.records[:10]:
            assert abs(perturb(F1, record.epsilon).hesitancy - F1.hesitancy) <= 1e-15


# Seeds of 1 to 5 words and indices on 32-bit word edges, besides free draws.
SEEDS = st.one_of(
    st.integers(0, 2**128),
    st.sampled_from((0, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128)),
)
INDICES = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from((0, 2**16, 2**16 + 1, 2**32 - 1)))
RANGES = st.one_of(
    cfns().map(epsilon_bounds),
    st.sampled_from(EDGE_CFNS).map(epsilon_bounds),
    UNIT.map(lambda x: (x, x)),
    UNIT.map(lambda x: (0.0, x)),
    UNIT.map(lambda x: (-x, 0.0)),
)


class TestDrawStream:
    """The one-pass draw is numpy's own stream, so a numpy release that
    changes ``default_rng([seed, i]).uniform`` fails here."""

    @given(SEEDS, st.lists(INDICES, min_size=1, max_size=8), RANGES)
    @example(2**128, [0, 2**16, 70_000, 2**32 - 1], (-0.48, 0.08))
    def test_matches_default_rng(self, seed, index, bounds):
        lo, hi = bounds
        got = _draw_epsilons(seed, np.array(index), lo, hi)
        want = np.array([np.random.default_rng([seed, i]).uniform(lo, hi) for i in index])
        assert got.tobytes() == want.tobytes()


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(OutOfRangeError):
            PerturbationConfig(base_pair=PAIR, trials=0)

    def test_bad_seed(self):
        with pytest.raises(OutOfRangeError):
            PerturbationConfig(base_pair=PAIR, seed=-1)

    def test_bad_lambda(self):
        with pytest.raises(OutOfRangeError):
            PerturbationConfig(base_pair=PAIR, lambda_values=(1.5,))

    def test_empty_p(self):
        with pytest.raises(OutOfRangeError):
            PerturbationConfig(base_pair=PAIR, p_values=())

    @pytest.mark.parametrize(
        "field, values, named",
        [
            ("p_values", (1, 1), "p 1 "),
            ("p_values", (2, CHEBYSHEV, 3, CHEBYSHEV), "p inf "),
            ("lambda_values", (0.5, 0.25, 0.5), "lambda 0.5 "),
            ("lambda_values", (0.0, -0.0), "lambda 0.0 "),
        ],
    )
    def test_repeated_key(self, field, values, named):
        with pytest.raises(OutOfRangeError, match=named):
            PerturbationConfig(base_pair=PAIR, **{field: values})

    def test_negative_zero_lambda_reads_zero(self):
        (lam,) = PerturbationConfig(base_pair=PAIR, lambda_values=(-0.0,)).lambda_values
        assert math.copysign(1.0, lam) == 1.0

    def test_non_cfn_pair(self):
        with pytest.raises(OutOfRangeError):
            PerturbationConfig(base_pair=(F1, "nope"))


class TestLambdaTrend:
    def test_reference_midpoint(self):
        rows = lambda_trend(PAIR, 1, [0.0, 0.5, 1.0])
        assert rows[1].d_c == pytest.approx(1.095, abs=1e-12)

    def test_endpoints_exact(self):
        rows = lambda_trend(PAIR, 1, [0.0, 1.0])
        assert rows[0].d_c == rows[0].d_h
        assert rows[1].d_c == rows[1].d_m

    def test_constant_components_and_affine_combination(self):
        grid = np.linspace(0.0, 1.0, 21)
        rows = lambda_trend(PAIR, 2, grid)
        assert len({row.d_m for row in rows}) == 1
        assert len({row.d_h for row in rows}) == 1
        for left, mid, right in zip(rows[:-2], rows[1:-1], rows[2:]):
            assert abs(mid.d_c - 0.5 * (left.d_c + right.d_c)) <= 1e-12

    def test_bad_lambda(self):
        with pytest.raises(OutOfRangeError):
            lambda_trend(PAIR, 1, [1.2])
