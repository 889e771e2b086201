import numpy as np
import pytest
from hypothesis import given

from cfkit import (
    BEST_ANCHOR,
    CFN,
    CHEBYSHEV,
    DistanceParams,
    WORST_ANCHOR,
    cf_c,
    compare,
    score,
)
from cfkit.score import EQUAL, FIRST_BETTER, SECOND_BETTER

from helpers import cfns, random_cfns

F1 = CFN(0.8, 0.4, 0.32)
F2 = CFN(0.1, 0.9, 0.09)

PARAM_GRID = [
    DistanceParams(p=p, lam=lam)
    for p in (1, 2, 3, 10, CHEBYSHEV)
    for lam in (0.0, 0.25, 0.5, 1.0)
]


class TestScore:
    def test_reference_scores(self):
        params = DistanceParams(p=2, lam=0.5)
        assert score(F1, params).s == pytest.approx(0.6369, abs=5e-4)
        assert score(F2, params).s == pytest.approx(0.1555, abs=5e-4)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_anchor_normalization(self, params):
        assert score(BEST_ANCHOR, params).s == 1.0
        assert score(WORST_ANCHOR, params).s == 0.0

    def test_decomposition(self):
        params = DistanceParams(p=2, lam=0.5)
        result = score(F1, params)
        assert result.d_to_worst == cf_c(F1, WORST_ANCHOR, params)
        assert result.d_to_best == cf_c(F1, BEST_ANCHOR, params)
        assert result.s == result.d_to_worst / (result.d_to_worst + result.d_to_best)

    @given(cfns())
    def test_range(self, f):
        for params in (DistanceParams(p=1, lam=0.5), DistanceParams(p=3, lam=0.0)):
            assert 0.0 <= score(f, params).s <= 1.0

    def test_near_anchor_at_high_order(self):
        # 1e-6 from the worst anchor: the p=64 power sum underflows unless scaled
        f = CFN(0.000001, 0.999999, 0.0)
        params = DistanceParams(p=64, lam=1.0)
        assert score(f, params).s > 0.0
        assert compare(f, WORST_ANCHOR, params) == FIRST_BETTER

    def test_range_random_grid(self):
        rng = np.random.default_rng(31)
        for f in random_cfns(rng, 500):
            for params in PARAM_GRID:
                assert 0.0 <= score(f, params).s <= 1.0


class TestCompare:
    def test_reference_pair(self):
        assert compare(F1, F2, DistanceParams(p=2, lam=0.5)) == FIRST_BETTER
        assert compare(F2, F1, DistanceParams(p=2, lam=0.5)) == SECOND_BETTER

    @given(cfns())
    def test_self_comparison(self, f):
        assert compare(f, f, DistanceParams(p=2, lam=0.5)) == EQUAL

    def test_verdict_stable_across_grid(self):
        # the reference ranking holds on the whole (lambda, p) grid
        for lam in np.linspace(0.0, 1.0, 11):
            for p in range(1, 11):
                params = DistanceParams(p=p, lam=float(lam))
                assert compare(F1, F2, params) == FIRST_BETTER

    @given(cfns(), cfns())
    def test_antisymmetric(self, f, g):
        params = DistanceParams(p=2, lam=0.5)
        forward = compare(f, g, params)
        backward = compare(g, f, params)
        if forward == EQUAL:
            assert backward == EQUAL
        else:
            assert {forward, backward} == {FIRST_BETTER, SECOND_BETTER}
