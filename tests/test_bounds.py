import math
import tracemalloc

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framepaver.bounds import (
    Interval,
    hurwitz_zeta,
    require_exponent,
    shifted_power_sum,
)
from framepaver.errors import InvalidExponent


def brute_shifted_sum(step, s, terms=1_000_000):
    """Independent oracle: compensated head plus integral tail bracket."""
    head = math.fsum((1.0 + k * step) ** (-s) for k in range(1, terms + 1))
    lo = head + (1.0 + (terms + 1) * step) ** (1.0 - s) / (step * (s - 1.0))
    hi = head + (1.0 + terms * step) ** (1.0 - s) / (step * (s - 1.0))
    return lo, hi


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(1.0, 2.0)
        assert iv.width == 1.0
        assert iv.midpoint == 1.5
        assert iv.contains(1.0) and iv.contains(2.0) and not iv.contains(2.1)
        assert iv.encloses(Interval(1.25, 1.75))
        assert not iv.encloses(Interval(0.5, 1.5))
        assert iv.as_pair() == [1.0, 2.0]

    def test_rejects_inverted_and_nan(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_point_interval(self):
        assert Interval(0.25, 0.25).width == 0.0


class TestRequireExponent:
    @pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, math.nan, math.inf])
    def test_rejects(self, bad):
        with pytest.raises(InvalidExponent):
            require_exponent(bad)

    def test_accepts(self):
        assert require_exponent(1.0000001) == 1.0000001


GRID_S = (1.01, 1.05, 1.1, 1.5, 2.0, 3.0, 6.0, 12.0)


def _contains(enc, value):
    return mpmath.mpf(enc.lo) <= value <= mpmath.mpf(enc.hi)


class TestHurwitzZeta:
    @pytest.mark.parametrize("s", GRID_S)
    def test_contains_mpmath_on_grid(self, s):
        with mpmath.workdps(40):
            for step in range(1, 65):
                a = 1.0 + 1.0 / step
                assert _contains(hurwitz_zeta(s, a), mpmath.zeta(s, a)), (s, step)
            assert _contains(hurwitz_zeta(s, 1.0), mpmath.zeta(s))

    def test_far_tail_underflow_is_a_valid_interval(self):
        enc = hurwitz_zeta(6.0, 1e73)
        assert enc.lo >= 0.0 and enc.hi > 0.0
        with mpmath.workdps(40):
            assert _contains(enc, mpmath.zeta(6, mpmath.mpf(1e73)))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidExponent):
            hurwitz_zeta(1.0, 1.0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                hurwitz_zeta(2.0, bad)
        with pytest.raises(ValueError):
            hurwitz_zeta(2.0, 1e-200)  # the first term overflows


class TestShiftedPowerSum:
    @pytest.mark.parametrize("step,s", [(1, 2.0), (3, 2.0), (2, 1.5), (5, 3.0)])
    def test_contains_oracle(self, step, s):
        lo, hi = brute_shifted_sum(step, s)
        enc = shifted_power_sum(step, s)
        # Both are enclosures of the same series; they must overlap, and the
        # library one must contain the oracle's midpoint.
        assert enc.lo <= hi and lo <= enc.hi
        assert enc.contains((lo + hi) / 2.0)
        assert enc.width <= 1e-9

    def test_residue_three_value(self):
        # sum_{k>=1} (1+3k)^-2 = 0.121733... ; twice it is the 0.2435 mass
        # appearing in the separation check.
        enc = shifted_power_sum(3, 2.0)
        assert 2.0 * enc.midpoint == pytest.approx(0.2434660, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidExponent):
            shifted_power_sum(1, 1.0)
        with pytest.raises(ValueError):
            shifted_power_sum(0, 2.0)

    @pytest.mark.parametrize("s", GRID_S)
    def test_contains_mpmath_on_grid(self, s):
        with mpmath.workdps(40):
            for step in range(1, 65):
                exact = mpmath.mpf(step) ** (-s) * mpmath.zeta(s, 1 + mpmath.mpf(1) / step)
                assert _contains(shifted_power_sum(step, s), exact), (s, step)

    def test_peak_memory_is_small(self):
        tracemalloc.start()
        try:
            shifted_power_sum(31, 1.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(step=st.integers(min_value=1, max_value=50),
           s=st.floats(min_value=1.2, max_value=6.0))
    def test_positive_and_decreasing_in_step(self, step, s):
        enc = shifted_power_sum(step, s)
        assert enc.lo > 0.0
        wider = shifted_power_sum(step + 1, s)
        assert wider.hi <= enc.hi + 1e-15
