import math

import pytest
from hypothesis import given, strategies as st

from prodflow import ChainNode, propagate_chain, propagate_one

cvs = st.floats(0.0, 2.0)
utils = st.floats(0.0, 1.0)


class TestPropagateOne:
    def test_busy_limit(self):
        assert propagate_one(0.4, ChainNode(1.0, 0.6)) == pytest.approx(0.6, rel=1e-14)

    def test_idle_limit(self):
        assert propagate_one(0.4, ChainNode(0.0, 0.6)) == pytest.approx(0.4, rel=1e-14)

    def test_idle_station_ignores_huge_ce(self):
        assert propagate_one(0.4, ChainNode(0.0, 1e308)) == 0.4

    @pytest.mark.parametrize("ca,node", [(1.0, ChainNode(0.5, 1e308)), (1e200, ChainNode(0.5, 1.0))])
    def test_overflow_rejected(self, ca, node):
        with pytest.raises(ValueError, match="not finite"):
            propagate_one(ca, node)

    def test_midpoint_hand_value(self):
        # sqrt(0.25*0.36 + 0.75*0.16) = sqrt(0.21)
        assert propagate_one(0.4, ChainNode(0.5, 0.6)) == pytest.approx(math.sqrt(0.21), rel=1e-14)
        assert propagate_one(0.4, ChainNode(0.5, 0.6)) == pytest.approx(0.45825756949558405, rel=1e-12)

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            propagate_one(-0.1, ChainNode(0.5, 0.5))

    @given(cvs, cvs, utils)
    def test_bounded_by_inputs(self, ca, ce, u):
        cd = propagate_one(ca, ChainNode(u, ce))
        assert min(ca, ce) - 1e-12 <= cd <= max(ca, ce) + 1e-12

    @given(cvs, utils)
    def test_fixed_point(self, c, u):
        assert propagate_one(c, ChainNode(u, c)) == pytest.approx(c, rel=1e-12, abs=1e-15)

    @given(cvs, cvs, utils)
    def test_squared_form(self, ca, ce, u):
        cd = propagate_one(ca, ChainNode(u, ce))
        rhs = u * u * ce * ce + (1 - u * u) * ca * ca
        assert cd * cd == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    @given(cvs, cvs, cvs, utils)
    def test_monotone_in_arrival(self, ca1, ca2, ce, u):
        lo, hi = sorted((ca1, ca2))
        node = ChainNode(u, ce)
        assert propagate_one(lo, node) <= propagate_one(hi, node) + 1e-12


class TestPropagateChain:
    def test_single_busy_node(self):
        result = propagate_chain(0.4, [ChainNode(1.0, 0.6)])
        assert result.departures == (propagate_one(0.4, ChainNode(1.0, 0.6)),)

    def test_idle_chain_passes_arrival_through(self):
        nodes = [ChainNode(0.0, 0.6), ChainNode(0.0, 0.6)]
        result = propagate_chain(0.25, nodes)
        assert result.departures == pytest.approx((0.25, 0.25), rel=1e-14)

    def test_two_station_hand_evaluation(self):
        # propagation step applied twice by hand: see the frozen values
        result = propagate_chain(0.0273, [ChainNode(0.8, 0.6), ChainNode(0.5, 0.6)])
        assert result.departures == pytest.approx((0.480279402431543, 0.5128364537549959), rel=1e-12)

    def test_conservation_of_material(self):
        nodes = [ChainNode(0.3, 0.5), ChainNode(0.9, 1.2), ChainNode(0.5, 0.1)]
        result = propagate_chain(0.7, nodes)
        assert result.arrivals[0] == 0.7
        assert result.arrivals[1:] == result.departures[:-1]
        assert len(result.arrivals) == len(result.departures) == 3

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            propagate_chain(0.5, [])


class TestChainNode:
    def test_utilization_range(self):
        with pytest.raises(ValueError):
            ChainNode(1.2, 0.5)
        with pytest.raises(ValueError):
            ChainNode(-0.1, 0.5)

    def test_cv_nonnegative(self):
        with pytest.raises(ValueError):
            ChainNode(0.5, -0.5)
