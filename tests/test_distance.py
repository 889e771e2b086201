import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cfkit import (
    CFN,
    CHEBYSHEV,
    DistanceParams,
    IntervalForm,
    cf_c,
    cf_h,
    cf_im,
    interval_hausdorff,
    legacy_minkowski,
)
from cfkit import backends
from cfkit.distance import MEASURES, component_row, component_rows, order_code, pairwise
from cfkit.errors import OutOfRangeError

from helpers import cfns, near_pairs, random_cfns, random_component_rows

F1 = CFN(0.8, 0.4, 0.32)
F2 = CFN(0.1, 0.9, 0.09)
BEST = CFN(1, 0, 0)


class TestLegacyMinkowski:
    def test_hesitancy_blind_tie(self):
        # two CFNs differing only in hesitancy tie under the legacy distance
        a, b = CFN(0.3, 0.2, 0.1), CFN(0.4, 0.3, 0.1)
        assert legacy_minkowski(a, BEST, 1) == pytest.approx(1.0, abs=1e-12)
        assert legacy_minkowski(b, BEST, 1) == pytest.approx(1.0, abs=1e-12)

    def test_reference_pair_p1(self):
        assert legacy_minkowski(F1, F2, 1) == pytest.approx(1.43, abs=1e-12)

    def test_chebyshev(self):
        assert legacy_minkowski(F1, F2, CHEBYSHEV) == pytest.approx(0.73, abs=1e-12)

    @given(cfns())
    def test_self_distance(self, f):
        assert legacy_minkowski(f, f, 1) == 0.0
        assert legacy_minkowski(f, f, 3) == 0.0


class TestCfIm:
    def test_breaks_hesitancy_tie(self):
        a, b = CFN(0.3, 0.2, 0.1), CFN(0.4, 0.3, 0.1)
        da = cf_im(a, BEST, 1)
        db = cf_im(b, BEST, 1)
        assert da == pytest.approx(1.6, abs=1e-12)
        assert db == pytest.approx(1.4, abs=1e-12)
        assert db < da  # the second CFN is closer to the anchor

    @pytest.mark.parametrize(
        "p,expected,tol",
        [(1, 1.46, 1e-12), (2, 0.8987, 5e-4), (3, 0.7964, 5e-4)],
    )
    def test_reference_pair(self, p, expected, tol):
        assert cf_im(F1, F2, p) == pytest.approx(expected, abs=tol)

    def test_chebyshev_is_max_component(self):
        assert cf_im(F1, F2, CHEBYSHEV) == pytest.approx(0.73, abs=1e-12)

    @given(cfns(), cfns())
    def test_range(self, f, g):
        d = cf_im(f, g, 1)
        assert 0.0 <= d <= 4.0 + 1e-12

    def test_monotone_in_p(self):
        rng = np.random.default_rng(21)
        for f, g in zip(random_cfns(rng, 50), random_cfns(rng, 50)):
            values = [cf_im(f, g, p) for p in range(1, 11)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12
            assert cf_im(f, g, CHEBYSHEV) <= values[-1] + 1e-12


ORDERS = st.one_of(st.integers(1, 64), st.just(CHEBYSHEV))


class TestHighOrders:
    def test_close_pair_does_not_underflow(self):
        # at p=64 the power sum of 1e-6 differences is below the smallest normal float
        a, b = CFN(0.5, 0.3, 0.1), CFN(0.500001, 0.299999, 0.1)
        assert cf_im(a, b, 64) >= cf_h(a, b) > 0.0
        assert legacy_minkowski(a, b, 64) >= cf_h(a, b)

    @given(near_pairs(), ORDERS)
    def test_distinct_cfns_have_positive_distance(self, pair, p):
        f, g = pair
        assume(not np.array_equal(component_row(f), component_row(g)))
        assert cf_im(f, g, p) > 0.0

    @given(near_pairs(), ORDERS)
    def test_dominates_hausdorff(self, pair, p):
        f, g = pair
        assert cf_im(f, g, p) >= cf_h(f, g) * (1.0 - 1e-12)


class TestCfH:
    def test_reference_pair(self):
        assert cf_h(F1, F2) == 0.73

    def test_anchors_maximally_separated(self):
        assert cf_h(CFN(1, 0, 0), CFN(0, 1, 0)) == 1.0

    @given(cfns())
    def test_self_distance(self, f):
        assert cf_h(f, f) == 0.0

    @given(cfns(), cfns())
    def test_range(self, f, g):
        assert 0.0 <= cf_h(f, g) <= 1.0


class TestIntervalHausdorff:
    def test_reference_intervals(self):
        d = interval_hausdorff(IntervalForm(0.48, 0.92), IntervalForm(0.01, 0.19))
        assert d == pytest.approx(0.73, abs=1e-12)

    def test_identical(self):
        assert interval_hausdorff(IntervalForm(0.2, 0.7), IntervalForm(0.2, 0.7)) == 0.0

    def test_endpoint_gap(self):
        assert interval_hausdorff(IntervalForm(0, 1), IntervalForm(1, 1)) == 1.0

    def test_matches_cf_h_on_interval_forms(self):
        rng = np.random.default_rng(22)
        for f, g in zip(random_cfns(rng, 2000), random_cfns(rng, 2000)):
            direct = cf_h(f, g)
            via_intervals = interval_hausdorff(f.to_interval(), g.to_interval())
            # independent computation routes; equal up to a couple of ulps
            assert abs(direct - via_intervals) <= 1e-15


class TestCfC:
    def test_reference_pair(self):
        assert cf_c(F1, F2, DistanceParams(p=1, lam=0.5)) == pytest.approx(1.095, abs=1e-12)

    def test_p2_combination(self):
        assert cf_c(F1, F2, DistanceParams(p=2, lam=0.5)) == pytest.approx(0.81435, abs=1e-4)

    @given(cfns(), cfns())
    def test_endpoints_collapse_exactly(self, f, g):
        assert cf_c(f, g, DistanceParams(p=2, lam=0.0)) == cf_h(f, g)
        assert cf_c(f, g, DistanceParams(p=2, lam=1.0)) == cf_im(f, g, 2)

    def test_affine_in_lambda(self):
        rng = np.random.default_rng(23)
        lams = np.linspace(0.0, 1.0, 11)
        for f, g in zip(random_cfns(rng, 30), random_cfns(rng, 30)):
            for la, lb in zip(lams[:-1], lams[1:]):
                mid = 0.5 * (la + lb)
                d_mid = cf_c(f, g, DistanceParams(p=2, lam=mid))
                d_avg = 0.5 * (
                    cf_c(f, g, DistanceParams(p=2, lam=la))
                    + cf_c(f, g, DistanceParams(p=2, lam=lb))
                )
                assert abs(d_mid - d_avg) <= 1e-12


class TestPairwise:
    def test_each_measure_is_its_scalar_function(self):
        rng = np.random.default_rng(25)
        fs, gs = random_cfns(rng, 50), random_cfns(rng, 50)
        a, b = component_rows(fs), component_rows(gs)
        params = DistanceParams(p=3, lam=0.35)
        scalar = {
            "legacy": lambda f, g: legacy_minkowski(f, g, 3),
            "im": lambda f, g: cf_im(f, g, 3),
            "h": cf_h,
            "c": lambda f, g: cf_c(f, g, params),
        }
        assert set(scalar) == set(MEASURES)
        for measure, fn in scalar.items():
            assert pairwise(measure, a, b, params).tolist() == list(map(fn, fs, gs))

    def test_unknown_measure(self):
        with pytest.raises(OutOfRangeError, match="'cf_c'"):
            pairwise("cf_c", np.zeros((1, 4)), np.zeros((1, 4)), DistanceParams())


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(24)
    return tuple(random_component_rows(rng, 10_000) for _ in range(3))


class TestMetricAxioms:
    """Vectorized sweep over at least 10^4 random valid triples."""

    @pytest.mark.parametrize("p", [1, 2, 3, 0])
    def test_minkowski_axioms(self, rows, p):
        a, b, c = rows
        for kernel in (backends.cfim_pairwise, backends.legacy_pairwise):
            assert np.all(kernel(a, a, p) == 0.0)
            assert np.array_equal(kernel(a, b, p), kernel(b, a, p))
            ab, bc, ac = kernel(a, b, p), kernel(b, c, p), kernel(a, c, p)
            assert np.all(ab + bc >= ac - 1e-12)

    def test_hausdorff_axioms(self, rows):
        a, b, c = rows
        assert np.all(backends.cfh_pairwise(a, a) == 0.0)
        assert np.array_equal(backends.cfh_pairwise(a, b), backends.cfh_pairwise(b, a))
        ab = backends.cfh_pairwise(a, b)
        bc = backends.cfh_pairwise(b, c)
        ac = backends.cfh_pairwise(a, c)
        assert np.all(ab + bc >= ac - 1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_combined_axioms(self, rows, p, lam):
        a, b, c = rows

        def combined(x, y):
            return lam * backends.cfim_pairwise(x, y, p) + (1.0 - lam) * backends.cfh_pairwise(x, y)

        assert np.all(combined(a, a) == 0.0)
        assert np.array_equal(combined(a, b), combined(b, a))
        assert np.all(combined(a, b) + combined(b, c) >= combined(a, c) - 1e-12)


class TestOrdering:
    """cf_im >= cf_c >= cf_h, proved at p=1 and forced by norm dominance beyond."""

    @pytest.mark.parametrize("p", list(range(1, 11)))
    def test_dominance_chain(self, p):
        rng = np.random.default_rng(25)
        a = random_component_rows(rng, 2000)
        b = random_component_rows(rng, 2000)
        d_m = backends.cfim_pairwise(a, b, p)
        d_h = backends.cfh_pairwise(a, b)
        assert np.all(d_m >= d_h - 1e-12)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            d_c = lam * d_m + (1.0 - lam) * d_h
            assert np.all(d_m >= d_c - 1e-12)
            assert np.all(d_c >= d_h - 1e-12)


class TestParams:
    def test_defaults(self):
        params = DistanceParams()
        assert params.p == 2
        assert params.lam == 0.5

    @pytest.mark.parametrize("p", [0, -1, 65, 1.5, "2", True, math.nan])
    def test_bad_order(self, p):
        with pytest.raises(OutOfRangeError):
            DistanceParams(p=p)

    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_bad_lambda(self, lam):
        with pytest.raises(OutOfRangeError):
            DistanceParams(lam=lam)

    def test_order_code(self):
        assert order_code(CHEBYSHEV) == 0
        assert order_code(1) == 1
        assert order_code(np.int64(7)) == 7
        assert order_code(64) == 64
