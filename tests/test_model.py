import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from prodflow import (
    ExponentialMode,
    ModelFormatError,
    ProductivityFunction,
    TimeSeries,
    format_model,
    is_stable,
    parse_model,
    steady_state_gain,
)
from expected import P1, P2_GROWING, P3, SS_P1, SS_P3


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonzero = finite.filter(lambda x: x != 0.0)
modes_st = st.lists(st.builds(ExponentialMode, gain=finite, decay_rate=nonzero), max_size=4)


@st.composite
def models(draw):
    ms = draw(modes_st)
    impulse = draw(nonzero) if not ms else draw(finite)
    return ProductivityFunction(impulse, tuple(ms))


class TestParse:
    def test_single_mode(self):
        pf = parse_model("exp 0.8417 0.8369")
        assert pf == P1

    def test_impulse_only(self):
        pf = parse_model("impulse 1.0")
        assert pf.impulse_gain == 1.0 and pf.modes == ()

    def test_growing_mode_with_impulse(self):
        pf = parse_model("impulse 1.699\nexp -0.04910796 -0.07004")
        assert pf == P2_GROWING

    def test_comments_and_blank_lines(self):
        pf = parse_model("# header\n\nimpulse 1.455  # feedthrough\nexp 1.635385 2.153\n")
        assert pf == P3

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("exp 1.0 0.0", "nonzero", 1),
            ("impulse 1\nexp 2 nan", "non-finite", 2),
            ("impulse 1\nimpulse 2", "duplicate", 2),
            ("exp 1.0", "gain and a decay rate", 1),
            ("wibble 3", "unknown directive", 1),
            ("exp one 2", "not a number", 1),
            ("", "empty model", None),
            ("# only a comment", "empty model", None),
        ],
    )
    def test_rejects(self, text, fragment, line):
        with pytest.raises(ModelFormatError) as exc:
            parse_model(text)
        assert fragment in str(exc.value)
        assert exc.value.line == line

    def test_zero_impulse_alone_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_model("impulse 0.0")


class TestFormat:
    def test_fixture_text_round_trips(self):
        text = "impulse 19.74\nexp 7.142275814 3.444656802\nexp -54.39107581 33.6753432\n"
        assert format_model(parse_model(text)) == text

    @given(models())
    def test_round_trip_any_model(self, pf):
        assert parse_model(format_model(pf)) == pf

    def test_numpy_scalars_round_trip(self):
        pf = ProductivityFunction(np.float64(1.5), (ExponentialMode(np.float64(-0.25), np.float64(0.5)),))
        text = format_model(pf)
        assert text == "impulse 1.5\nexp -0.25 0.5\n"
        assert parse_model(text) == pf
        assert type(pf.impulse_gain) is float and type(pf.modes[0].decay_rate) is float


class TestSteadyStateGain:
    def test_p1_matches_quadrature(self):
        # oracle: integrate the kernel to +inf
        oracle, _ = quad(lambda t: 0.8417 * math.exp(-0.8369 * t), 0, math.inf)
        assert steady_state_gain(P1) == pytest.approx(oracle, rel=1e-9)
        assert steady_state_gain(P1) == pytest.approx(SS_P1, rel=1e-12)

    def test_impulse_only_identity(self):
        assert steady_state_gain(ProductivityFunction(1.0)) == 1.0

    def test_p3_matches_quadrature(self):
        oracle, _ = quad(lambda t: 1.635385 * math.exp(-2.153 * t), 0, math.inf)
        assert steady_state_gain(P3) == pytest.approx(1.455 + oracle, rel=1e-9)
        assert steady_state_gain(P3) == pytest.approx(SS_P3, rel=1e-12)

    def test_growing_model_undefined(self):
        assert steady_state_gain(P2_GROWING) is None

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0.01, 100)), min_size=1, max_size=4
        ),
        st.floats(0.01, 100),
    )
    def test_linear_in_gains(self, pairs, k):
        pf = ProductivityFunction(1.0, tuple(ExponentialMode(g, r) for g, r in pairs))
        scaled = ProductivityFunction(k * 1.0, tuple(ExponentialMode(k * g, r) for g, r in pairs))
        assert steady_state_gain(scaled) == pytest.approx(k * steady_state_gain(pf), rel=1e-9, abs=1e-12)


class TestStability:
    def test_examples(self):
        assert is_stable(P1)
        assert not is_stable(P2_GROWING)
        assert is_stable(ProductivityFunction(1.0))

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e100, 1e100),
                st.floats(-1e6, 1e6).filter(lambda r: r != 0.0),
            ),
            min_size=1,
            max_size=4,
        ),
        st.floats(1e-6, 1e6),
    )
    def test_invariant_under_positive_gain_scaling(self, pairs, k):
        pf = ProductivityFunction(1.0, tuple(ExponentialMode(g, r) for g, r in pairs))
        scaled = ProductivityFunction(k, tuple(ExponentialMode(k * g, r) for g, r in pairs))
        assert is_stable(scaled) == is_stable(pf)


class TestTypeInvariants:
    def test_mode_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            ExponentialMode(1.0, 0.0)

    def test_mode_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ExponentialMode(math.inf, 1.0)

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ProductivityFunction(0.0, ())

    def test_timeseries_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_timeseries_rejects_short(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0], [1.0])

    def test_timeseries_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0, math.nan])

    def test_timeseries_is_immutable(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 9.0
