import numpy as np
import pytest

from cfkit import DistanceParams, cf_c, cf_h, cf_im, joint_bounds, legacy_minkowski, score
from cfkit import backends
from cfkit.distance import component_rows, order_code

from helpers import random_cfns, random_component_rows, solver_rows

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
                parts = backends.anchor_parts(rows, order_code(p))
                batch = backends.ratio(backends.combine(parts, lam))
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


def _legacy_score(rows, p_code):
    worst = np.tile(WORST_ROW, (len(rows), 1))
    best = np.tile(BEST_ROW, (len(rows), 1))
    d_w = backends.legacy_pairwise(rows, worst, p_code)
    d_b = backends.legacy_pairwise(rows, best, p_code)
    return d_w / (d_w + d_b)


class TestLegacyAsBlindScore:
    @pytest.mark.parametrize("p_code", range(0, 65))
    def test_score_without_hesitancy_is_legacy_score(self, p_code):
        rows = np.vstack([random_component_rows(np.random.default_rng(15), 500), NEAR_ANCHORS])
        rows[:, 3] = 0.0
        s = backends.ratio(backends.combine(backends.anchor_parts(rows, p_code), 1.0))
        assert np.array_equal(s, _legacy_score(rows, p_code))

    @pytest.mark.parametrize("p_code", range(0, 65))
    def test_blind_line_score_is_legacy_score(self, p_code):
        # the pain solver's legacy sweep scores every point of its root find this way
        rng = np.random.default_rng(18)
        # (1e-6, 1 - 1e-6) puts every row within 2e-6 of the worst anchor, and
        # (1, 1e-7) within 2e-7 of the best one; (0, 1) and (1, 0) are the anchors
        pairs = [(1e-6, 1.0 - 1e-6), (1.0, 1e-7), (0.0, 1.0), (1.0, 0.0), (0.3, 0.4)]
        for u, v in pairs + [tuple(rng.random(2).tolist()) for _ in range(5)]:
            j = np.linspace(*joint_bounds(u, v), 101)
            terms = backends.line_terms(u, v, j, True)
            s = backends.ratio(backends.combine(backends.terms_parts(terms, p_code), 1.0))
            assert np.array_equal(s, _legacy_score(solver_rows(u, v, j, True), p_code))

    def test_legacy_leaves_its_rows_unchanged(self):
        # legacy_pairwise zeroes the hesitancy of copies of its rows
        rng = np.random.default_rng(19)
        a, b = random_component_rows(rng, 50), random_component_rows(rng, 50)
        want = a.copy(), b.copy()
        backends.legacy_pairwise(a, b, 3)
        assert np.array_equal(a, want[0]) and np.array_equal(b, want[1])


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
            assert np.array_equal(backends.ratio(got), got[0] / (got[0] + got[1]))

    @pytest.mark.parametrize("blind", [False, True])
    def test_line_terms_are_the_anchor_terms_of_the_rows(self, blind):
        rng = np.random.default_rng(17)
        pairs = [(0.3, 0.4), (0.0, 1.0), (1.0, 0.0), (0.7, 0.7), (0.0, 0.0)]
        for u, v in pairs + [tuple(rng.random(2).tolist()) for _ in range(20)]:
            j = np.linspace(*joint_bounds(u, v), 101)
            rows = solver_rows(u, v, j, blind)
            want = np.abs(rows.T[backends._ANCHOR_COLUMNS] - backends._ANCHOR_VALUES)
            got = backends.line_terms(u, v, j, blind)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blind", [False, True])
    def test_line_terms_keep_the_shape_of_j(self, blind):
        rng = np.random.default_rng(20)
        for u, v in [(0.3, 0.4), (1.0, 0.0)] + [tuple(rng.random(2).tolist()) for _ in range(5)]:
            j = rng.uniform(*joint_bounds(u, v), size=(7, 13))
            got = backends.line_terms(u, v, j, blind)
            want = np.stack([backends.line_terms(u, v, row, blind) for row in j], axis=1)
            assert got.shape == (6, 7, 13)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p_code", [0, 1, 2, 3, 64])
    def test_terms_parts_finishes_both_anchors_in_one_call(self, p_code, monkeypatch):
        shapes = []
        finish = backends._finish

        def count(s, terms, p):
            shapes.append(s.shape)
            return finish(s, terms, p)

        monkeypatch.setattr(backends, "_finish", count)
        # (1 - 3e-6, 2e-6) sits by the best anchor, where p=64 takes the rescue
        for u, v in [(0.3, 0.4), (1.0 - 3e-6, 2e-6)]:
            shapes.clear()
            j = np.linspace(*joint_bounds(u, v), 101)[None]
            norm, cheb = backends.terms_parts(backends.line_terms(u, v, j, False), p_code)
            assert shapes == [(2, 1, 101)]
            assert norm.shape == cheb.shape == (2, 1, 101)
            assert np.all(norm > 0.0)

    # 300 rows under 21 lambdas mix in one array, 1,000 rows one anchor at a
    # time; one lambda per row mixes both anchors at once at either size.
    @pytest.mark.parametrize("n", [300, 1000])
    def test_combine_is_mix_of_each_anchor(self, n):
        rng = np.random.default_rng(21)
        norm, cheb = backends.anchor_parts(random_component_rows(rng, n), 3)
        for lam in (0.35, rng.uniform(0.0, 1.0, n)):
            got = backends.combine((norm, cheb), lam)
            assert isinstance(got, np.ndarray) and got.shape == (2, n)
            for a in (0, 1):
                assert got[a].tobytes() == backends.mix(lam, norm[a], cheb[a]).tobytes()
        # A column of lambdas against (2, 1, n) parts; with 2 lambdas a
        # (2, 1) column against (2, n) parts would broadcast without error.
        for count in (2, 21):
            column = rng.uniform(0.0, 1.0, (count, 1))
            got = backends.combine((norm[:, None], cheb[:, None]), column)
            assert isinstance(got, np.ndarray) == (2 * count * n <= backends._MIX_MAX)
            for a in (0, 1):
                want = backends.mix(column, norm[a], cheb[a])
                assert want.shape == got[a].shape == (count, n)
                assert got[a].tobytes() == want.tobytes()


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
