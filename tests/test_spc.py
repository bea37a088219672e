import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from prodflow import (
    SpecLimits,
    classify_variability,
    coefficient_of_variation,
    process_capability_index,
    process_performance,
    sample_metrics,
)
from prodflow.spc import METRIC_COLUMNS


class TestCpk:
    def test_symmetric_three_sigma(self):
        # sample {-1, 0, 1}: mean 0, sample std exactly 1
        assert process_capability_index([-1.0, 0.0, 1.0], SpecLimits(3.0, -3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetric_limits_take_minimum(self):
        # sample {95, 100, 105}: mean 100, sample std exactly 5
        cpk = process_capability_index([95.0, 100.0, 105.0], SpecLimits(115.0, 94.0))
        assert cpk == pytest.approx(0.4, abs=1e-12)

    def test_zero_spread_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            process_capability_index([5.0, 5.0, 5.0], SpecLimits(6.0, 4.0))


class TestPp:
    def test_width_equal_six_sigma(self):
        assert process_performance([-1.0, 0.0, 1.0], SpecLimits(3.0, -3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_default_limits_two_percent(self):
        # sample {98, 100, 102}: mean 100, sample std exactly 2
        assert process_performance([98.0, 100.0, 102.0]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_default_limits_need_nonzero_mean(self):
        with pytest.raises(ValueError, match="degenerate"):
            process_performance([-1.0, 0.0, 1.0])


class TestCv:
    def test_reported_case_values(self):
        assert coefficient_of_variation(95.22, 3481.40) == pytest.approx(0.0273, abs=1e-4)
        assert coefficient_of_variation(278.44, 458.68) == pytest.approx(0.6070, abs=1e-4)

    def test_no_variation(self):
        assert coefficient_of_variation(0.0, 3.0) == 0.0

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(1.0, 0.0)


class TestClassify:
    @pytest.mark.parametrize(
        "cv,expected",
        [
            (0.0273, "low"),
            (0.4634, "low"),
            (0.6070, "low"),
            (0.6176, "low"),
            (0.7824, "moderate"),
            (1.5, "high"),
            (0.75, "moderate"),
            (1.33, "moderate"),
            (0.0, "low"),
        ],
    )
    def test_thresholds(self, cv, expected):
        assert classify_variability(cv) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            classify_variability(-0.1)

    @given(st.floats(0, 10), st.floats(0, 10))
    def test_monotone(self, a, b):
        order = ["low", "moderate", "high"]
        lo, hi = sorted((a, b))
        assert order.index(classify_variability(lo)) <= order.index(classify_variability(hi))


class TestSampleMetrics:
    def test_metric_columns_are_the_five_statistics_in_file_order(self):
        # the metrics-file header, the report columns and the metrics printout all follow this order
        assert METRIC_COLUMNS == ("cpk", "pp", "sigma_d", "rate_d", "cv")

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_metrics([4.0, 4.0, 4.0])

    def test_hand_computed_bundle(self):
        m = sample_metrics([9.0, 10.0, 11.0], SpecLimits(12.0, 8.0))
        assert m.cpk == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.sigma_d == pytest.approx(1.0, abs=1e-12)
        assert m.rate_d == pytest.approx(10.0, abs=1e-12)
        assert m.cv == pytest.approx(0.1, abs=1e-12)
        assert m.variability_class == "low"

    def test_cv_field_is_consistent(self):
        m = sample_metrics([3.0, 5.0, 9.0, 2.0], SpecLimits(10.0, 1.0))
        assert m.cv == coefficient_of_variation(m.sigma_d, m.rate_d)

    def test_capability_fields_equal_standalone_functions(self):
        v, lims = [3.0, 5.0, 9.0, 2.0, 7.1], SpecLimits(10.0, 1.0)
        m = sample_metrics(v, lims)
        assert m.cpk == process_capability_index(v, lims)
        assert m.pp == process_performance(v, lims)

    @pytest.mark.parametrize("limits", [None, SpecLimits(-8.0, -14.0)])
    def test_negative_mean_rejected(self, limits):
        with pytest.raises(ValueError, match="sample mean is negative.*CV is undefined"):
            sample_metrics([-10.0, -11.0, -12.0], limits)

    @given(
        st.lists(st.floats(0.1, 100), min_size=3, max_size=20).filter(lambda v: max(v) > min(v)),
        st.floats(0.01, 100),
    )
    @example(values=[0.1, 0.1, 0.10000000000000002], k=0.01)
    @example(values=[0.1, 0.1, 0.10000000000000002], k=0.01171875)
    def test_scale_invariance(self, values, k):
        v = np.asarray(values)
        lims = SpecLimits(float(v.max()) + 1.0, float(v.min()) - 1.0)
        lims_k = SpecLimits(k * lims.usl, k * lims.lsl)
        try:
            base = sample_metrics(v, lims)
        except ValueError as exc:
            # a spread at rounding level has no scale-invariant Cpk: rejected at every scale
            assert "rounding level" in str(exc)
            with pytest.raises(ValueError, match="rounding level|is zero"):
                sample_metrics(k * v, lims_k)
            return
        scaled = sample_metrics(k * v, lims_k)
        assert scaled.cv == pytest.approx(base.cv, rel=1e-9)
        assert scaled.cpk == pytest.approx(base.cpk, rel=1e-9)
        assert scaled.pp == pytest.approx(base.pp, rel=1e-9)

    def test_cpk_at_most_pp_for_symmetric_limits(self):
        v = [3.0, 5.0, 9.0, 2.0, 7.0]
        mean = float(np.mean(v))
        lims = SpecLimits(mean + 4.0, mean - 4.0)
        cpk = process_capability_index(v, lims)
        pp = process_performance(v, lims)
        assert cpk == pytest.approx(pp, rel=1e-12)
        off = SpecLimits(mean + 5.0, mean - 4.0)
        assert process_capability_index(v, off) <= process_performance(v, off)


class TestSpecLimits:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpecLimits(1.0, 2.0)
        with pytest.raises(ValueError):
            SpecLimits(1.0, 1.0)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            process_capability_index([1.0], SpecLimits(2.0, 0.0))
        with pytest.raises(ValueError):
            process_capability_index([1.0, float("nan")], SpecLimits(2.0, 0.0))
