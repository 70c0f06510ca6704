import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framepaver import (
    DecayEnvelope,
    DimensionMismatch,
    FrameSystem,
    GramSystem,
    InvalidExponent,
    WindowTooLong,
    certified_min_amplitude,
    frame_operator_check,
    power_law_gram,
    translate_frame_gram,
    verify_envelope,
)


def translate_gram_oracle(window, period):
    """Independent hand computation: entry(n, m) = sum_k w(k-n) w(k-m)."""
    w = [0.0] * period
    for i, v in enumerate(window):
        w[i] = float(v)
    out = np.zeros((period, period))
    for n in range(period):
        for m in range(period):
            out[n, m] = math.fsum(w[(k - n) % period] * w[(k - m) % period]
                                  for k in range(period))
    return out


class TestPowerLawGram:
    def test_size_one(self):
        g = power_law_gram(1.0, 2.0, 0.75, 1)
        assert g.dense().tolist() == [[0.75]]

    def test_size_three_entries(self):
        g = power_law_gram(1.0, 2.0, 1.0, 3)
        expected = np.array([[1.0, 0.25, 1.0 / 9.0],
                             [0.25, 1.0, 0.25],
                             [1.0 / 9.0, 0.25, 1.0]])
        assert np.allclose(g.dense(), expected, rtol=1e-15, atol=0.0)
        assert g.entry(1, 2) == 0.25

    def test_envelope_attained_at_distance_one(self):
        for size in (2, 5, 40):
            g = power_law_gram(1.0, 2.0, 1.0, size)
            assert certified_min_amplitude(g, 2.0) == 1.0

    def test_envelope_and_floor_are_global(self):
        g = power_law_gram(2.0, 1.5, 0.5, 6)
        assert g.envelope == DecayEnvelope(2.0, 1.5)
        assert g.diag_floor == 0.5

    def test_passes_own_envelope_at_zero_tolerance(self):
        for a, s in [(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)]:
            g = power_law_gram(a, s, 1.0, 20)
            assert verify_envelope(g, DecayEnvelope(a, s)).passed

    def test_zero_amplitude_has_no_envelope(self):
        g = power_law_gram(0.0, 2.0, 1.0, 4)
        assert g.envelope is None
        assert np.array_equal(g.dense(), np.eye(4))

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidExponent):
            power_law_gram(1.0, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            power_law_gram(-1.0, 2.0, 1.0, 4)
        with pytest.raises(ValueError):
            power_law_gram(1.0, 2.0, 0.0, 4)
        with pytest.raises(ValueError):
            power_law_gram(1.0, 2.0, 1.0, 0)


class TestTranslateFrameGram:
    def test_unit_window_gives_identity(self):
        g = translate_frame_gram([1.0], 5)
        assert np.array_equal(g.dense(), np.eye(5))

    def test_two_ones_window(self):
        g = translate_frame_gram([1.0, 1.0], 4)
        expected = np.array([[2.0, 1.0, 0.0, 1.0],
                             [1.0, 2.0, 1.0, 0.0],
                             [0.0, 1.0, 2.0, 1.0],
                             [1.0, 0.0, 1.0, 2.0]])
        assert np.array_equal(g.dense(), expected)

    def test_geometric_window_hand_values(self):
        g = translate_frame_gram([1.0, 0.5, 0.25], 8)
        assert g.entry(1, 1) == 1.3125  # 1 + 1/4 + 1/16
        assert g.entry(1, 2) == 0.625   # 1*(1/2) + (1/2)*(1/4)
        assert g.entry(1, 3) == 0.25    # 1*(1/4)

    @pytest.mark.parametrize("window,period", [
        ([1.0], 5), ([1.0, 1.0], 4), ([1.0, 0.5, 0.25], 8), ([0.3, 0.7], 7),
    ])
    def test_matches_convolution_oracle(self, window, period):
        g = translate_frame_gram(window, period)
        assert np.allclose(g.dense(), translate_gram_oracle(window, period),
                           rtol=1e-15, atol=1e-15)

    def test_circulant_shift_invariance(self):
        g = translate_frame_gram([1.0, 0.5, 0.25], 7)
        dense = g.dense()
        for n in range(7):
            for m in range(7):
                assert dense[n, m] == dense[(n + 1) % 7, (m + 1) % 7]

    @pytest.mark.parametrize("period", [1, 2, 3, 5, 8, 13, 40])
    def test_profile_matches_autocorrelation_at_every_lag(self, period):
        # Only the lags where the window meets its shift are computed; the
        # others must still come out as the +0.0 the full formula gives.
        rng = np.random.default_rng(period)
        for length in range(1, min(period, 6) + 1):
            w = rng.uniform(0.0, 1.0, length) * (rng.uniform(size=length) < 0.8)
            padded = np.zeros(period)
            padded[:length] = w
            every_lag = [float(padded @ np.roll(padded, -d)) for d in range(period // 2 + 1)]
            expected = GramSystem.from_cyclic_profile(every_lag, period)
            assert translate_frame_gram(w, period).dense().tobytes() \
                == expected.dense().tobytes()

    def test_window_too_long(self):
        with pytest.raises(WindowTooLong):
            translate_frame_gram([1.0, 1.0, 1.0], 2)

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            translate_frame_gram([1.0, -0.5], 4)


class TestFrameOperatorCheck:
    def test_orthonormal_basis_identity(self):
        fs = FrameSystem.self_dual(np.eye(3))
        report = frame_operator_check(fs)
        assert report.singular_values == (1.0, 1.0, 1.0)
        assert report.invertible
        assert report.self_dual

    def test_mercedes_frame_is_tight(self):
        r3 = math.sqrt(3.0) / 2.0
        fs = FrameSystem.self_dual([[1.0, 0.0], [-0.5, r3], [-0.5, -r3]])
        report = frame_operator_check(fs)
        assert report.min_singular == pytest.approx(1.5, abs=1e-12)
        assert report.max_singular == pytest.approx(1.5, abs=1e-12)
        assert report.invertible

    def test_repeated_vector_is_singular(self):
        fs = FrameSystem.self_dual([[1.0, 0.0], [1.0, 0.0]])
        report = frame_operator_check(fs)
        assert report.min_singular == pytest.approx(0.0, abs=1e-12)
        assert not report.invertible

    def test_fewer_vectors_than_dimensions(self):
        fs = FrameSystem.self_dual([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        report = frame_operator_check(fs)
        assert not report.invertible

    def test_biorthogonal_pair(self):
        vectors = np.array([[2.0, 0.0], [0.0, 4.0]])
        functionals = np.array([[0.5, 0.0], [0.0, 0.25]])
        report = frame_operator_check(FrameSystem(vectors=vectors,
                                                  functionals=functionals))
        assert report.invertible
        assert not report.self_dual
        assert report.eigenvalues is None
        assert report.min_singular == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            FrameSystem(vectors=[[1.0, 0.0]], functionals=[[1.0, 0.0, 0.0]])

    @given(vectors=arrays(np.float64, (5, 3),
                          elements=st.floats(min_value=-2.0, max_value=2.0)))
    def test_self_dual_operator_is_positive_semidefinite(self, vectors):
        report = frame_operator_check(FrameSystem.self_dual(vectors))
        assert report.eigenvalues is not None
        assert all(v >= -1e-12 for v in report.eigenvalues)


class TestStorageInterplay:
    def test_translate_systems_expose_cyclic_profile_storage(self):
        g = translate_frame_gram([1.0, 0.5], 6)
        sub = g.submatrix([1, 3, 5])
        dense = g.dense()
        assert np.array_equal(sub, dense[np.ix_([0, 2, 4], [0, 2, 4])])

    def test_power_law_large_size_is_cheap(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10_000)
        assert g.size == 10_000
        assert g.entry(1, 10_000) == pytest.approx(1.0 / 10_000.0**2, rel=1e-12)

    def test_bandwidth_detection(self):
        g = translate_frame_gram([1.0, 1.0], 4)
        assert g.bandwidth() == 3  # wrap-around pairs carry mass
        tri = GramSystem.from_entries(
            np.diag(np.full(5, 1.0)) + np.diag(np.full(4, 0.2), 1)
            + np.diag(np.full(4, 0.2), -1))
        assert tri.bandwidth() == 1
