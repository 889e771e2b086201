import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfkit import CFN, CognitiveFuzzyNumber, IntervalForm, joint_bounds
from cfkit.cfn import validate_rows
from cfkit.distance import component_row
from cfkit.errors import JointBoundViolationError, OutOfRangeError

from helpers import cfns, raw_triples


class TestConstruction:
    def test_reference_triple_valid(self):
        f = CFN(0.8, 0.4, 0.32)
        assert (f.u, f.v, f.j) == (0.8, 0.4, 0.32)

    def test_best_anchor(self):
        f = CFN(1, 0, 0)
        assert f.u_star == 1.0
        assert f.v_star == 0.0
        assert f.hesitancy == 0.0

    def test_joint_bound_violation_reports_interval(self):
        with pytest.raises(JointBoundViolationError) as exc:
            CFN(0.5, 0.6, 0.05)
        assert "0.1" in str(exc.value)

    @pytest.mark.parametrize(
        "u,v,j",
        [(1.2, 0.5, 0.1), (-0.2, 0.5, 0.1), (0.5, 1.5, 0.2), (0.5, 0.5, -0.3),
         (math.nan, 0.5, 0.1), (0.5, math.inf, 0.1)],
    )
    def test_component_out_of_range(self, u, v, j):
        with pytest.raises(OutOfRangeError):
            CFN(u, v, j)

    def test_clamps_tiny_violations(self):
        assert CFN(1 + 5e-10, 0.2, 0.2).u == 1.0
        assert CFN(-5e-10, 0.0, 0.0).u == 0.0
        lo = joint_bounds(0.5, 0.6)[0]
        assert CFN(0.5, 0.6, lo - 5e-10).j == lo

    def test_rejects_larger_violations(self):
        with pytest.raises(OutOfRangeError):
            CFN(1 + 1e-8, 0.2, 0.2)
        with pytest.raises(JointBoundViolationError):
            CFN(0.5, 0.6, 0.1 - 1e-7)

    @given(st.lists(raw_triples(), min_size=1, max_size=16))
    def test_validate_rows_agrees_with_constructor(self, triples):
        bad, rows = validate_rows(np.array(triples))
        for triple, is_bad, row in zip(triples, bad, rows):
            try:
                f = CFN(*triple)
            except (OutOfRangeError, JointBoundViolationError):
                assert is_bad
            else:
                assert not is_bad
                assert row.tobytes() == component_row(f).tobytes()

    def test_immutable_and_unhashable(self):
        f = CFN(0.3, 0.2, 0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.u = 0.5
        with pytest.raises(TypeError):
            hash(f)


class TestJointBounds:
    def test_case_study_pair(self):
        lo, hi = joint_bounds(0.4, 0.7)
        assert lo == pytest.approx(0.1, abs=1e-12)
        assert hi == 0.4

    def test_degenerate(self):
        assert joint_bounds(0, 0) == (0.0, 0.0)

    def test_overlapping_pair(self):
        lo, hi = joint_bounds(0.9, 0.8)
        assert lo == pytest.approx(0.7, abs=1e-12)
        assert hi == 0.8

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            joint_bounds(1.5, 0.5)

    def test_never_empty_despite_rounding(self):
        # u + v - 1 can round above min(u, v) when max(u, v) is near 1
        lo, hi = joint_bounds(0.3, 1.0)
        assert lo <= hi

    def test_construction_succeeds_iff_within_bounds(self):
        grid = np.linspace(0.0, 1.0, 21)
        for u in grid:
            for v in grid:
                lo, hi = joint_bounds(u, v)
                for j in grid:
                    admissible = lo - 1e-9 <= j <= hi + 1e-9
                    if admissible:
                        CFN(u, v, j)
                    else:
                        with pytest.raises(JointBoundViolationError):
                            CFN(u, v, j)


class TestDerived:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((0.4, 0.3, 0.1), (0.3, 0.2, 0.4)),
            ((1, 0, 0), (1.0, 0.0, 0.0)),
            ((0.8, 0.4, 0.32), (0.48, 0.08, 0.12)),
        ],
    )
    def test_examples(self, triple, expected):
        got = CFN(*triple).derived()
        assert got == pytest.approx(expected, abs=1e-12)

    @given(cfns())
    def test_partition_of_unity(self, f):
        u_star, v_star, h = f.derived()
        assert abs(u_star + v_star + f.j + h - 1.0) <= 1e-12
        for x in (u_star, v_star, h):
            assert -1e-12 <= x <= 1.0 + 1e-12


class TestIntervalForm:
    @pytest.mark.parametrize(
        "triple,expected",
        [
            ((1, 0, 0), (1.0, 1.0)),
            ((0.8, 0.4, 0.32), (0.48, 0.92)),
            ((0.1, 0.9, 0.09), (0.01, 0.19)),
        ],
    )
    def test_examples(self, triple, expected):
        iv = CFN(*triple).to_interval()
        assert (iv.lo, iv.hi) == pytest.approx(expected, abs=1e-12)

    @given(cfns())
    def test_width_is_joint_plus_hesitancy(self, f):
        iv = f.to_interval()
        assert abs(iv.width - (f.j + f.hesitancy)) <= 1e-12

    def test_zero_width_iff_no_joint_or_hesitancy(self):
        assert CFN(1, 0, 0).to_interval().width == 0.0
        assert CFN(0.6, 0.4, 0.0).to_interval().width == 0.0  # j=0, h=0
        assert CFN(0.5, 0.4, 0.1).to_interval().width > 0.0

    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            IntervalForm(0.8, 0.2)
        with pytest.raises(OutOfRangeError):
            IntervalForm(-0.5, 0.2)
        assert IntervalForm(0.2, 0.2).width == 0.0


class TestTextForms:
    def test_parse_variants(self):
        expected = CFN(0.8, 0.4, 0.32)
        for text in (
            "⟨0.8,0.4,0.32⟩",
            "<0.8,0.4,0.32>",
            "(0.8, 0.4, 0.32)",
            "[0.8,0.4,0.32]",
            "0.8,0.4,0.32",
            '{"u": 0.8, "v": 0.4, "j": 0.32}',
        ):
            assert CognitiveFuzzyNumber.parse(text) == expected

    @pytest.mark.parametrize("text", ["0.8,0.4", "a,b,c", "", "0.8;0.4;0.32"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            CognitiveFuzzyNumber.parse(text)

    @pytest.mark.parametrize(
        "triple", [(0.8, 0.4, 0.32), (1, 0, 0), (0.123456, 0.4, 0.05), (0, 0, 0)]
    )
    def test_str_round_trip(self, triple):
        f = CFN(*triple)
        assert CognitiveFuzzyNumber.parse(str(f)) == f

    def test_dict_round_trip(self):
        f = CFN(0.4, 0.7, 0.25)
        assert CognitiveFuzzyNumber.from_dict(f.to_dict()) == f

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError):
            CognitiveFuzzyNumber.from_dict({"u": 0.5, "v": 0.5})


class TestEquality:
    def test_within_tolerance(self):
        assert CFN(0.1, 0.2, 0.05) == CFN(0.1 + 1e-13, 0.2, 0.05)

    def test_beyond_tolerance(self):
        assert CFN(0.1, 0.2, 0.05) != CFN(0.1 + 1e-9, 0.2, 0.05)

    def test_other_types(self):
        assert CFN(0.1, 0.2, 0.05) != "not a cfn"
