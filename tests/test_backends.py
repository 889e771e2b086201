import numpy as np
import pytest

from cfkit import DistanceParams, cf_c, cf_h, cf_im, legacy_minkowski, score
from cfkit import backends
from cfkit.distance import component_rows, order_code

from helpers import random_cfns, random_component_rows

NEAR_ANCHORS = [[1e-6, 1.0 - 1e-6, 0.0, 0.0], [1.0 - 1e-7, 0.0, 1e-7, 0.0]]
WORST_ROW = [0.0, 1.0, 0.0, 0.0]
BEST_ROW = [1.0, 0.0, 0.0, 0.0]


class TestScalarMatchesBatch:
    def test_distances(self):
        rng = np.random.default_rng(12)
        fs = random_cfns(rng, 200)
        gs = random_cfns(rng, 200)
        a = component_rows(fs)
        b = component_rows(gs)
        for p in (1, 2, 3, 10):
            batch = backends.cfim_pairwise(a, b, order_code(p))
            legacy = backends.legacy_pairwise(a, b, order_code(p))
            for i, (f, g) in enumerate(zip(fs, gs)):
                assert cf_im(f, g, p) == batch[i]
                assert legacy_minkowski(f, g, p) == legacy[i]
        hausdorff = backends.cfh_pairwise(a, b)
        for i, (f, g) in enumerate(zip(fs, gs)):
            assert cf_h(f, g) == hausdorff[i]

    def test_score(self):
        rng = np.random.default_rng(13)
        fs = random_cfns(rng, 200)
        rows = component_rows(fs)
        for p in (1, 2, 3):
            for lam in (0.0, 0.4, 1.0):
                batch = backends.score_many(rows, order_code(p), lam)
                params = DistanceParams(p=p, lam=lam)
                for i, f in enumerate(fs):
                    assert score(f, params).s == batch[i]

    def test_cfc_matches_score_composition(self):
        # cf_c through the scalar path combines exactly like the score kernel
        rng = np.random.default_rng(14)
        fs = random_cfns(rng, 50)
        params = DistanceParams(p=3, lam=0.35)
        for f in fs:
            expected = params.lam * cf_im(f, fs[0], 3) + (1.0 - params.lam) * cf_h(f, fs[0])
            assert cf_c(f, fs[0], params) == expected


class TestLegacyAsBlindScore:
    @pytest.mark.parametrize("p_code", range(0, 65))
    def test_score_without_hesitancy_is_legacy_score(self, p_code):
        # the pain solver's legacy sweep scores through score_many this way
        rows = np.vstack([random_component_rows(np.random.default_rng(15), 500), NEAR_ANCHORS])
        rows[:, 3] = 0.0
        worst = np.tile(WORST_ROW, (len(rows), 1))
        best = np.tile(BEST_ROW, (len(rows), 1))
        d_w = backends.legacy_pairwise(rows, worst, p_code)
        d_b = backends.legacy_pairwise(rows, best, p_code)
        assert np.array_equal(backends.score_many(rows, p_code, 1.0), d_w / (d_w + d_b))


class TestAnchorParts:
    @pytest.mark.parametrize("p_code", range(0, 65))
    def test_combine_is_combined_distance_to_each_anchor(self, p_code):
        rng = np.random.default_rng(16)
        rows = np.vstack([random_component_rows(rng, 300), NEAR_ANCHORS, WORST_ROW, BEST_ROW])
        parts = backends.anchor_parts(rows, p_code)
        for lam in (0.0, 0.35, 1.0, rng.uniform(0.0, 1.0, len(rows))):
            got = backends.combine(parts, lam)
            for d, anchor in zip(got, (WORST_ROW, BEST_ROW)):
                anchors = np.tile(anchor, (len(rows), 1))
                expected = lam * backends.cfim_pairwise(rows, anchors, p_code) + (
                    1.0 - lam
                ) * backends.cfh_pairwise(rows, anchors)
                assert d.tobytes() == expected.tobytes()
            assert np.array_equal(
                backends.score_many(rows, p_code, lam), got[0] / (got[0] + got[1])
            )


def _naive_pow(x, p):
    out = x
    for _ in range(p - 1):
        out = out * x
    return out


def _ones_chain(x, p):
    # square-and-multiply from 1.0, squaring once past the top bit
    out, base = np.ones_like(x), x.copy()
    while p:
        if p & 1:
            out = out * base
        base = base * base
        p >>= 1
    return out


class TestIpow:
    # Values whose every power rounds the same in any multiplication order.
    EXACT = np.array(
        [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 0.5, 1.0, 2.0, 1e160, 1e200, 1.7e308, np.inf]
    )

    @pytest.mark.parametrize("p", range(1, 65))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_repeated_multiplication(self, p):
        assert backends._ipow(self.EXACT, p).tobytes() == _naive_pow(self.EXACT, p).tobytes()

    @pytest.mark.parametrize("p", range(1, 65))
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_matches_chain_from_one(self, p):
        # dropping the multiplication by 1.0 and the last square keeps the bits
        x = np.concatenate([self.EXACT, np.random.default_rng(p).uniform(0.0, 1.5, 200)])
        assert backends._ipow(x, p).tobytes() == _ones_chain(x, p).tobytes()


class TestSelection:
    def test_rows_shape_check(self):
        with pytest.raises(ValueError):
            backends.cfh_pairwise(np.zeros((3, 2)), np.zeros((3, 2)))
