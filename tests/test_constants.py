import math
import statistics
import time

import mpmath
import pytest

from framepaver import (
    InvalidExponent,
    LocalizationConstants,
    choose_modulus,
    separation_constant,
    sup_decay_sum,
    verify_separation_bound,
    zeta,
)

ZETA_3 = float(mpmath.zeta(3))  # independent high-precision reference


class TestZeta:
    def test_zeta_two_against_closed_form(self):
        enc = zeta(2.0, 1e-9)
        assert enc.contains(math.pi**2 / 6.0)
        assert enc.width <= 1e-9

    def test_zeta_four_against_closed_form(self):
        enc = zeta(4.0, 1e-9)
        assert enc.contains(math.pi**4 / 90.0)
        assert enc.width <= 1e-9

    def test_zeta_ten_against_direct_summation(self):
        # Oracle: compensated direct sum; 10^4 terms leave a tail below 1e-37.
        oracle = math.fsum(k ** (-10.0) for k in range(1, 10_001))
        enc = zeta(10.0, 1e-9)
        assert enc.contains(oracle)
        assert oracle == pytest.approx(1.000994575127818, abs=1e-12)

    def test_zeta_three_against_mpmath(self):
        assert zeta(3.0, 1e-10).contains(ZETA_3)

    @pytest.mark.parametrize("s,tol", [(1.5, 1e-8), (2.0, 1e-9), (3.0, 1e-12)])
    def test_width_promise(self, s, tol):
        assert zeta(s, tol).width <= tol

    @pytest.mark.parametrize("s,tol", [(2.0, 1e-6), (1.7, 1e-7)])
    def test_nested_tolerances_nest(self, s, tol):
        assert zeta(s, tol).encloses(zeta(s, tol / 10.0))

    def test_tight_tolerance_near_one_is_met(self):
        enc = zeta(1.05, 1e-12)
        assert enc.width <= 1e-12
        with mpmath.workdps(40):
            assert enc.lo <= mpmath.zeta(1.05) <= enc.hi

    def test_tolerance_below_float64_resolution_raises(self):
        with pytest.raises(ValueError):
            zeta(2.0, 1e-18)

    @pytest.mark.parametrize("s", [1.01, 1.05, 1.1, 1.5, 2.0, 3.0, 6.0, 12.0])
    def test_width_promise_down_to_1e_12(self, s):
        enc = zeta(s, 1e-12)
        assert enc.width <= 1e-12
        with mpmath.workdps(40):
            assert enc.lo <= mpmath.zeta(s) <= enc.hi

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidExponent):
            zeta(1.0, 1e-9)
        with pytest.raises(ValueError):
            zeta(2.0, 0.0)


class TestSupDecaySum:
    def test_s2_encloses_closed_form(self):
        true = 2.0 * math.pi**2 / 6.0 - 1.0
        enc = sup_decay_sum(2.0)
        assert enc.contains(true)
        assert enc.width <= 1e-6

    def test_s3_encloses_closed_form(self):
        enc = sup_decay_sum(3.0)
        assert enc.contains(2.0 * ZETA_3 - 1.0)

    @pytest.mark.parametrize("s", [1.5, 2.0, 5.0])
    def test_lower_endpoint_at_least_one(self, s):
        assert sup_decay_sum(s).lo >= 1.0

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 6.0])
    def test_upper_endpoint_within_analytic_bound(self, s):
        tol = 1e-6
        enc = sup_decay_sum(s)
        analytic = 1.0 + 2.0 * (float(mpmath.zeta(s)) - 1.0)
        assert enc.hi <= analytic + tol

    def test_monotone_nonincreasing_on_grid(self):
        encs = [sup_decay_sum(s) for s in (1.5, 2.0, 3.0, 4.0, 6.0)]
        for a, b in zip(encs, encs[1:]):
            assert a.lo >= b.hi  # strictly separated intervals

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidExponent):
            sup_decay_sum(0.9)


class TestSeparationConstant:
    def test_s2_value(self):
        c = separation_constant(2.0)
        true = math.pi**2 / 3.0
        assert true <= c <= true + 1e-9  # admissible and tight

    def test_s3_value(self):
        c = separation_constant(3.0)
        assert 2.0 * ZETA_3 <= c <= 2.0 * ZETA_3 + 1e-9

    def test_monotone_spot_check(self):
        assert separation_constant(5.0) < separation_constant(2.0)

    def test_monotone_nonincreasing_on_grid(self):
        values = [separation_constant(s) for s in (1.5, 2.0, 3.0, 4.0, 6.0)]
        assert values == sorted(values, reverse=True)

    def test_at_least_two(self):
        for s in (1.5, 2.0, 4.0, 8.0):
            assert separation_constant(s) >= 2.0


class TestVerifySeparationBound:
    def test_delta_three_example(self):
        verdict = verify_separation_bound(2.0, 3)
        d3 = verdict.checks[2]
        assert d3.delta == 3
        # Oracle: 2 * sum (1+3k)^-2 with compensated summation + tail.
        oracle = 2.0 * (math.fsum((1.0 + 3.0 * k) ** (-2.0)
                                  for k in range(1, 1_000_001))
                        + (1.0 + 3.0e6) ** (-1.0) / 3.0)
        assert d3.measured == pytest.approx(oracle, abs=1e-6)
        assert d3.measured == pytest.approx(0.2434660, abs=1e-4)
        assert d3.bound == pytest.approx(3.289868134 / 9.0, abs=1e-6)
        assert d3.measured <= d3.bound

    def test_delta_one_closed_form(self):
        verdict = verify_separation_bound(2.0, 1)
        d1 = verdict.checks[0]
        assert d1.measured == pytest.approx(2.0 * (math.pi**2 / 6.0 - 1.0), abs=1e-5)
        assert d1.bound == pytest.approx(math.pi**2 / 3.0, abs=1e-9)
        assert verdict.passed

    @pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
    def test_measured_is_the_lattice_sum(self, s):
        # 2 * sum_{k>=1} (1 + k*delta)**-s = 2 * delta**-s * zeta(s, 1 + 1/delta)
        with mpmath.workdps(40):
            for check in verify_separation_bound(s, 12).checks:
                delta = mpmath.mpf(check.delta)
                exact = 2 * delta ** -s * mpmath.zeta(s, 1 + 1 / delta)
                assert abs(check.measured - exact) <= 1e-14 * exact, (s, check.delta)

    def test_small_truncation_still_passes(self):
        # The bound is proven; a ratio above 1 would flag an implementation bug.
        for s in (1.5, 2.0, 3.0):
            verdict = verify_separation_bound(s, 1)
            assert verdict.passed
            assert verdict.worst_ratio <= 1.0

    def test_wide_sweep_passes(self):
        for s in (1.5, 2.0, 3.0):
            verdict = verify_separation_bound(s, 20)
            assert verdict.passed
            assert verdict.worst_ratio <= 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_separation_bound(2.0, 0)
        with pytest.raises(InvalidExponent):
            verify_separation_bound(1.0, 1)


class TestLocalizationConstants:
    def test_bundle_is_consistent(self):
        c = LocalizationConstants.compute(2.0)
        assert c.zeta.contains(math.pi**2 / 6.0)
        assert c.sup_sum.contains(2.0 * math.pi**2 / 6.0 - 1.0)
        assert c.separation == separation_constant(2.0)


@pytest.mark.parametrize("s", [1.05, 1.1, 1.5, 2.0, 3.0])
def test_choose_modulus_is_fast_cold(s):
    times = []
    for _ in range(20):
        start = time.perf_counter()
        choose_modulus(1.0, s, 1.0)
        times.append(time.perf_counter() - start)
    assert statistics.median(times) < 1e-3
