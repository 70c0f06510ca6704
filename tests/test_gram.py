import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framepaver import (
    DecayEnvelope,
    DiagonalBound,
    GramSystem,
    IndexBeyondTruncation,
    InvalidExponent,
    InvalidGramData,
    SCOPE_GLOBAL,
    SCOPE_TRUNCATION,
    certified_min_amplitude,
    diag_lower_bound,
    entry_bound,
    fit_envelope,
    gram_dumps,
    gram_from_json_dict,
    gram_loads,
    gram_to_json_dict,
    power_law_gram,
    verify_envelope,
)

small_gram = arrays(
    np.float64, (4, 4),
    elements=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)


class TestDecayEnvelope:
    def test_rejects_nonpositive_amplitude(self):
        with pytest.raises(ValueError):
            DecayEnvelope(0.0, 2.0)
        with pytest.raises(ValueError):
            DecayEnvelope(-1.0, 2.0)

    def test_rejects_exponent_at_most_one(self):
        with pytest.raises(InvalidExponent):
            DecayEnvelope(1.0, 1.0)
        with pytest.raises(InvalidExponent):
            DecayEnvelope(1.0, 0.5)

    def test_bound_values(self):
        e = DecayEnvelope(2.0, 2.0)
        assert e.bound(1) == 0.5
        assert e.bound(2) == pytest.approx(2.0 / 9.0, rel=1e-15)


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries([[1.0, -0.1], [0.1, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries([[math.nan]])
        corner = np.eye(4)
        corner[0, 3] = math.nan  # the widest offset, otherwise empty
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries(corner)
        with pytest.raises(InvalidGramData):
            gram_from_json_dict({"size": 4, "entries": np.where(
                np.isnan(corner), -1.0, corner).tolist()})

    def test_rejects_envelope_violation(self):
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries([[1.0, 0.9], [0.9, 1.0]],
                                    envelope=DecayEnvelope(1.0, 2.0))

    def test_rejects_entries_within_old_absolute_slack(self):
        # 0.9e-9 over the envelope at every distance: an absolute 1e-9 slack
        # accepted this and certified margins above the exact worst case.
        d = np.arange(20_000, dtype=np.float64)
        profile = 1.0 / (1.0 + d) ** 3
        profile[0] = 1.0
        profile[1:] += 0.9e-9
        with pytest.raises(InvalidGramData, match="19999 violating distances"):
            GramSystem.from_distance_profile(profile, envelope=DecayEnvelope(1.0, 3.0),
                                             diag_floor=1.0)

    def test_rejects_diagonal_below_floor(self):
        with pytest.raises(InvalidGramData):
            GramSystem.from_entries([[0.5]], diag_floor=1.0)

    def test_floor_tolerance_headroom(self):
        g = GramSystem.from_entries([[1.0 - 1e-12]], diag_floor=1.0)
        assert g.diag_floor == 1.0

    def test_profile_modes_agree_with_dense(self):
        prof = np.array([2.0, 1.0, 0.25, 0.1])
        toe = GramSystem.from_distance_profile(prof)
        expected = np.array([[prof[abs(i - j)] for j in range(4)] for i in range(4)])
        assert np.array_equal(toe.dense(), expected)
        circ = GramSystem.from_cyclic_profile([2.0, 1.0, 0.25], 5)
        expected = np.array(
            [[[2.0, 1.0, 0.25][min(abs(i - j), 5 - abs(i - j))] for j in range(5)]
             for i in range(5)])
        assert np.array_equal(circ.dense(), expected)

    def test_entries_store_bands_up_to_the_last_nonzero_offset(self):
        size = 10
        e = np.diag(np.full(size, 2.0)) + np.diag(np.full(size - 2, 0.5), 2) \
            + np.diag(np.full(size - 1, 0.25), -1)
        for g in (GramSystem.from_entries(e),
                  gram_from_json_dict({"size": size, "entries": e.tolist()})):
            # every offset -2..2 is constant (-2 and 1 hold zeros), so each
            # keeps one value
            assert g.bandwidth() == 2 and g._data.size == 5
            assert g._step.tolist() == [0, 0, 0, 0, 0]
            assert np.array_equal(g.dense(), e)

    def test_narrow_band_entries_load_without_square_temporaries(self):
        size = 3000
        e = np.diag(np.full(size, 2.0)) + np.diag(np.full(size - 1, 0.5), 1) \
            + np.diag(np.full(size - 1, 0.25), -1)
        tracemalloc.start()
        g = GramSystem.from_entries(e)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert g.bandwidth() == 1 and g.entry(size, size - 1) == 0.25
        assert peak < 2_000_000

    def test_submatrix_matches_dense(self):
        g = power_law_gram(1.0, 2.0, 1.0, 12)
        idx = [2, 5, 11]
        sub = g.submatrix(idx)
        dense = g.dense()
        expected = dense[np.ix_([1, 4, 10], [1, 4, 10])]
        assert np.array_equal(sub, expected)

    def test_entry_is_one_based(self):
        g = GramSystem.from_entries([[1.0, 0.5], [0.25, 2.0]])
        assert g.entry(1, 2) == 0.5
        assert g.entry(2, 1) == 0.25
        with pytest.raises(IndexBeyondTruncation):
            g.entry(0, 1)
        with pytest.raises(IndexBeyondTruncation):
            g.entry(1, 3)

    def test_system_is_immutable(self):
        source = np.eye(3)
        g = GramSystem.from_entries(source)
        source[0, 0] = 99.0  # construction copies
        assert g.entry(1, 1) == 1.0
        g.dense()[0, 0] = 99.0  # materialization copies too
        assert g.entry(1, 1) == 1.0


class TestEntryBound:
    def test_within_truncation_point_interval(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        iv = entry_bound(g, 1, 2)
        assert iv.lo == iv.hi == 0.25  # 1/(1+1)^2 evaluated directly
        iv = entry_bound(g, 5, 5)
        assert iv.lo == iv.hi == g.entry(5, 5)

    def test_beyond_truncation_uses_envelope(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        iv = entry_bound(g, 1, 101)
        assert iv.lo == 0.0
        assert iv.hi == pytest.approx(1.0 / 101.0**2, rel=1e-15)
        iv = entry_bound(g, 1, 100)
        assert iv.hi == pytest.approx(1.0 / 100.0**2, rel=1e-15)

    def test_beyond_truncation_without_envelope_raises(self):
        g = GramSystem.from_entries([[1.0]])
        with pytest.raises(IndexBeyondTruncation):
            entry_bound(g, 1, 2)

    def test_beyond_truncation_diagonal_raises(self):
        # The envelope speaks only off the diagonal; an unobserved diagonal
        # entry has no upper bound.
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        with pytest.raises(IndexBeyondTruncation):
            entry_bound(g, 12, 12)

    @given(n=st.integers(min_value=1, max_value=30),
           m=st.integers(min_value=1, max_value=30))
    def test_contains_generator_value(self, n, m):
        g = power_law_gram(1.3, 1.7, 0.9, 8)
        if n == m and n > 8:
            return
        iv = entry_bound(g, n, m)
        true = 0.9 if n == m else 1.3 / (1.0 + abs(n - m)) ** 1.7
        assert iv.lo <= true * (1 + 1e-15)
        assert true * (1 - 1e-15) <= iv.hi


sized_gram = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, max_value=3.0, allow_nan=False))))


@given(entries=sized_gram, s=st.floats(min_value=1.1, max_value=5.0))
def test_distance_views_match_brute_force_on_dense(entries, s):
    g = GramSystem.from_entries(entries)
    size = len(entries)
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    assert g.bandwidth() == max((abs(i - j) for i, j in pairs if entries[i, j]),
                                default=0)
    idx = np.arange(size)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    ratios = entries * (1.0 + dist) ** s
    assert certified_min_amplitude(g, s) == max((ratios[i, j] for i, j in pairs),
                                                default=0.0)


class TestCertifiedMinAmplitude:
    def test_diagonal_system_gives_zero(self):
        g = GramSystem.from_entries(np.diag([1.0, 2.0, 3.0]))
        assert certified_min_amplitude(g, 2.0) == 0.0

    def test_exact_power_law_recovers_amplitude(self):
        g = power_law_gram(2.0, 2.0, 1.0, 8)
        assert certified_min_amplitude(g, 2.0) == 2.0

    def test_exponential_decay_scan(self):
        # Oracle: exhaustive scan of (1+d)^2 / 2^d over all distances.
        size = 8
        prof = np.array([1.0] + [2.0 ** (-d) for d in range(1, size)])
        g = GramSystem.from_distance_profile(prof)
        oracle = max((1.0 + d) ** 2 * 2.0 ** (-d) for d in range(1, size))
        result = certified_min_amplitude(g, 2.0)
        assert result == oracle == 2.25  # attained at distance 2

    def test_rejects_bad_exponent(self):
        g = GramSystem.from_entries([[1.0]])
        with pytest.raises(InvalidExponent):
            certified_min_amplitude(g, 1.0)

    def test_size_one_gives_zero(self):
        assert certified_min_amplitude(GramSystem.from_entries([[5.0]]), 3.0) == 0.0

    @given(entries=small_gram)
    def test_monotone_in_exponent(self, entries):
        g = GramSystem.from_entries(entries)
        values = [certified_min_amplitude(g, s) for s in (1.5, 2.0, 3.0, 4.0)]
        for a, b in zip(values, values[1:]):
            assert b >= a * (1 - 1e-12)


class TestVerifyEnvelope:
    def test_generator_passes_its_own_envelope(self):
        g = power_law_gram(2.0, 2.0, 1.0, 10)
        assert verify_envelope(g, DecayEnvelope(2.0, 2.0)).passed

    def test_tighter_envelope_fails_with_all_pairs(self):
        g = power_law_gram(2.0, 2.0, 1.0, 4)
        verdict = verify_envelope(g, DecayEnvelope(1.0, 2.0))
        assert not verdict.passed
        assert verdict.violations[0] == (1, 2, 0.25)  # 0.5 stored vs 0.25 bound
        # every distance violates here; one violation is reported per distance
        assert [v[:2] for v in verdict.violations] == [(1, 2), (1, 3), (1, 4)]

    def test_dense_reports_largest_pair_per_distance(self):
        # distance 1: (1, 2) and (2, 1) tie, the smaller row wins; distance 2:
        # the lower entry (3, 1) is the larger one.
        e = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.1], [0.3, 0.1, 1.0]])
        verdict = verify_envelope(GramSystem.from_entries(e), DecayEnvelope(0.4, 2.0))
        assert [v[:2] for v in verdict.violations] == [(1, 2), (3, 1)]
        assert verdict.violations[1].excess == 0.3 - 0.4 / 9.0

    def test_profile_rejection_is_small_and_fast(self):
        g = power_law_gram(1.0, 2.0, 1.0, 2000)
        tracemalloc.start()
        start = time.perf_counter()
        verdict = verify_envelope(g, DecayEnvelope(0.99, 2.0))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert not verdict.passed and len(verdict.violations) == 1999
        assert elapsed < 0.5
        assert peak < 1_000_000

    def test_dense_check_makes_no_square_temporary(self):
        size = 1000
        g = GramSystem.from_entries(power_law_gram(1.0, 2.0, 1.0, size).dense())
        tracemalloc.start()
        verdict = verify_envelope(g, DecayEnvelope(1.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert verdict.passed
        assert peak < size * size  # below even one boolean size x size array

    def test_diagonal_system_passes_any_envelope(self):
        g = GramSystem.from_entries(np.diag([1.0, 1.0, 1.0]))
        assert verify_envelope(g, DecayEnvelope(1e-6, 1.5)).passed

    @given(entries=small_gram, s=st.floats(min_value=1.1, max_value=5.0))
    def test_min_amplitude_envelope_always_passes(self, entries, s):
        g = GramSystem.from_entries(entries)
        amplitude = certified_min_amplitude(g, s)
        assume(amplitude > 0.0)
        assert verify_envelope(g, DecayEnvelope(amplitude, s)).passed


def test_one_value_bands_validate_in_stored_cost():
    # Size 10**12 with three stored values: envelope check, floor check,
    # diagonal bound and amplitude fit read what is stored, not the size.
    values = np.array([0.1, 2.0, 0.1])
    tracemalloc.start()
    start = time.perf_counter()
    g = GramSystem._from_bands(values, [1, 1, 1], 10**12, DecayEnvelope(0.5, 2.0), 1.5)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.01 and peak < 1_000_000
    assert diag_lower_bound(g) == DiagonalBound(1.5, SCOPE_GLOBAL)
    assert certified_min_amplitude(g, 2.0) == 0.1 * 4.0
    verdict = verify_envelope(g, DecayEnvelope(0.2, 2.0))
    assert verdict.violations == ((1, 2, 0.1 - 0.2 / 4.0),)
    with pytest.raises(InvalidGramData, match="dips to 2.0"):
        GramSystem._from_bands(values, [1, 1, 1], 10**12, None, 3.0)


class TestDiagLowerBound:
    def test_identity_gram(self):
        g = GramSystem.from_entries(np.eye(5))
        bound = diag_lower_bound(g)
        assert bound.value == 1.0
        assert bound.scope == SCOPE_TRUNCATION

    def test_observed_minimum_without_floor(self):
        g = GramSystem.from_entries(np.diag([2.0, 3.0, 1.5, 2.0]))
        bound = diag_lower_bound(g)
        assert bound.value == 1.5
        assert bound.scope == SCOPE_TRUNCATION

    def test_asserted_floor_goes_global(self):
        g = GramSystem.from_entries(np.diag([2.0, 3.0, 1.5, 2.0]), diag_floor=1.2)
        bound = diag_lower_bound(g)
        assert bound.value == 1.2
        assert bound.scope == SCOPE_GLOBAL

    @given(entries=small_gram)
    def test_never_exceeds_any_diagonal_entry(self, entries):
        g = GramSystem.from_entries(entries)
        bound = diag_lower_bound(g)
        for n in range(1, 5):
            assert bound.value <= g.entry(n, n)


class TestFitEnvelope:
    def test_fit_reverifies_on_the_system(self):
        g = power_law_gram(1.5, 2.0, 1.0, 12)
        fit = fit_envelope(g)
        assert verify_envelope(g, fit.envelope).passed
        assert fit.objective > 0.0

    def test_diagonal_system_gets_token_envelope(self):
        g = GramSystem.from_entries(np.eye(4))
        fit = fit_envelope(g)
        assert fit.envelope.amplitude > 0.0
        assert verify_envelope(g, fit.envelope).passed


# Values whose text the writer must reproduce: signed zero, subnormals, huge.
wire_values = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                               0.1, 1.0 / 3.0]) | st.floats(0.0, 10.0)


def _system(bands, size, with_envelope, with_floor):
    """Band storage of ``bands`` (offsets -b..b, a list of one value kept as
    one value), optionally under a valid envelope and at its diagonal floor."""
    values = np.array([v for band in bands for v in band], dtype=np.float64)
    lengths = [len(band) for band in bands]
    g = GramSystem._from_bands(values, lengths, size, None, None)
    envelope = DecayEnvelope(2.0 * certified_min_amplitude(g, 2.0) or 1.0, 2.0) \
        if with_envelope else None
    floor = float(g.diag().min()) if with_floor else None
    return GramSystem._from_bands(values, lengths, size, envelope, floor)


@st.composite
def stored_systems(draw):
    size = draw(st.integers(1, 12))
    limit = draw(st.integers(0, size - 1))
    bands = [draw(st.lists(wire_values, min_size=n, max_size=n))
             for n in (1 if draw(st.booleans()) else size - abs(o)
                       for o in range(-limit, limit + 1))]
    return _system(bands, size, draw(st.booleans()), draw(st.booleans()))


@st.composite
def band_cases(draw):
    """Band systems whose offsets are zero past a drawn one and otherwise
    one value, constant arrays, mixes of 0.0 and -0.0, or any values."""
    size = draw(st.integers(1, 10))
    limit = draw(st.integers(0, size - 1))
    zero_from = draw(st.integers(1, limit + 1))
    signed_zeros = st.sampled_from([0.0, -0.0])
    bands = []
    for o in range(-limit, limit + 1):
        n = size - abs(o)
        kind = "zeros" if abs(o) >= zero_from else \
            draw(st.sampled_from(["one", "constant", "zeros", "any"]))
        if kind == "one":
            bands.append([draw(wire_values)])
        elif kind == "constant":
            bands.append([draw(wire_values)] * n)
        else:
            values = signed_zeros if kind == "zeros" else wire_values | signed_zeros
            bands.append(draw(st.lists(values, min_size=n, max_size=n)))
    return _system(bands, size, draw(st.booleans()), draw(st.booleans()))


def _layout(g):
    return g._data.view(np.int64).tolist(), g._start.tolist(), g._step.tolist()


class TestSerialization:
    @given(band_cases())
    @example(gram_from_json_dict({"size": 5, "entries": {"banded": {"bandwidth": 2, "bands": [
        [0.0] * 3, [0.5] * 4, [1.0, 2.0, 3.0, 4.0, 5.0], [0.25, 0.5, 0.5, 0.5], [0.0] * 3]}}}))
    @example(_system([[0.0, -0.0], [1.0, 1.0, 1.0], [-0.0, -0.0]], 3, False, False))
    def test_storage_depends_only_on_the_entries(self, g):
        dense = g.dense()
        rows, cols = np.nonzero(dense)
        assert g.bandwidth() == max(np.abs(rows - cols).tolist(), default=0)
        for again in (gram_loads(gram_dumps(g)), GramSystem.from_entries(dense)):
            assert _layout(again) == _layout(g)

    @given(stored_systems())
    @example(_system([[3.0]], 1, True, True))
    @example(_system([[-0.0], [2.0, 5e-324, 1e300, 2.0, 2.0, 2.0], [0.1]], 6, True, False))
    @example(_system([[0.5], [-0.0, 1e300], [2.0, 5e-324, 1.0], [0.1, 0.0], [0.5]], 3, False, True))
    def test_writer_matches_the_json_encoder(self, g):
        expected = json.dumps(gram_to_json_dict(g), indent=2, allow_nan=False) + "\n"
        assert gram_dumps(g) == expected

    def test_writer_peak_stays_under_three_texts(self):
        made = power_law_gram(1.0, 2.0, 1.0, 1000)
        loaded = gram_loads(gram_dumps(made))  # the text `gen power-law` writes
        assert loaded._data.size == made._data.size == 1999
        for g in (made, loaded):
            tracemalloc.start()
            text = gram_dumps(g)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 3 * len(text)

    def test_dense_round_trip_bit_identical(self):
        g = power_law_gram(1.0, 2.0, 1.0, 6)
        text = gram_dumps(g)
        again = gram_dumps(gram_loads(text))
        assert text == again

    def test_banded_chosen_for_sparse_band(self):
        tri = np.diag(np.full(6, 2.0)) + np.diag(np.full(5, 0.5), 1) \
            + np.diag(np.full(5, 0.5), -1)
        g = GramSystem.from_entries(tri)
        payload = gram_to_json_dict(g)
        assert payload["entries"]["banded"]["bandwidth"] == 1
        loaded = gram_from_json_dict(payload)
        assert np.array_equal(loaded.dense(), tri)
        assert gram_dumps(loaded) == gram_dumps(g)

    def test_identity_serializes_banded(self):
        g = GramSystem.from_entries(np.eye(5))
        payload = gram_to_json_dict(g)
        assert payload["entries"]["banded"]["bandwidth"] == 0
        assert gram_from_json_dict(payload).entry(3, 3) == 1.0

    def test_dense_and_banded_forms_agree(self):
        tri = np.diag(np.full(4, 1.0)) + np.diag(np.full(3, 0.25), 1) \
            + np.diag(np.full(3, 0.25), -1)
        dense_payload = {"size": 4, "entries": tri.tolist(),
                         "envelope": None, "diag_floor": None}
        banded_payload = gram_to_json_dict(GramSystem.from_entries(tri))
        a = gram_from_json_dict(dense_payload)
        b = gram_from_json_dict(banded_payload)
        assert np.array_equal(a.dense(), b.dense())

    def test_envelope_and_floor_round_trip(self):
        g = power_law_gram(1.25, 2.5, 0.75, 5)
        loaded = gram_loads(gram_dumps(g))
        assert loaded.envelope == DecayEnvelope(1.25, 2.5)
        assert loaded.diag_floor == 0.75

    @pytest.mark.parametrize("payload", [
        "not json at all",
        "[1, 2, 3]",
        '{"size": 2}',
        '{"size": -1, "entries": []}',
        '{"size": 2, "entries": [[1.0, 0.0], [0.0]]}',
        '{"size": 1, "entries": [[NaN]]}',
        '{"size": 1, "entries": [["x"]]}',
        '{"size": 1, "entries": [[-1.0]]}',
        '{"size": 1, "entries": [[1.0]], "envelope": {"A": 1.0, "s": 0.5}}',
        '{"size": 1, "entries": [[1.0]], "envelope": {"A": -1.0, "s": 2.0}}',
        '{"size": 1, "entries": [[1.0]], "diag_floor": "big"}',
        '{"size": 2, "entries": {"banded": {"bandwidth": 5, "bands": []}}}',
        '{"size": 1, "entries": [[true]]}',
        '{"size": 1, "entries": [[[1.0]]]}',
        pytest.param('{"size": 1, "entries": [[1%s]]}' % ("0" * 400),
                     id="dense-int-too-large"),
        pytest.param('{"size": 2, "entries": {"banded": {"bandwidth": 0, '
                     '"bands": [[1.0, 1%s]]}}}' % ("0" * 400), id="band-int-too-large"),
        pytest.param('{"size": 1, "entries": [[1.0]], "diag_floor": 1%s}' % ("0" * 400),
                     id="floor-int-too-large"),
        pytest.param('{"size": 1, "entries": [[1.0]], '
                     '"envelope": {"A": 1%s, "s": 2.0}}' % ("0" * 400),
                     id="amplitude-int-too-large"),
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(InvalidGramData):
            gram_loads(payload)

    @pytest.mark.parametrize("text", [
        pytest.param('{"size": 1, "entries": ' + "[" * 200_000 + "]" * 200_000 + "}",
                     id="deep-nesting"),
        pytest.param('{"size": 1, "entries": [[%s]]}' % ("1" * 5000), id="5000-digits"),
    ])
    def test_hostile_text_is_invalid_data(self, text):
        with pytest.raises(InvalidGramData, match="nested too deeply|more than"):
            gram_loads(text)

    def test_banded_writer_reads_the_bands(self):
        g = power_law_gram(0.0, 2.0, 1.0, 3000)
        tracemalloc.start()
        payload = gram_to_json_dict(g)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert payload["entries"]["banded"] == {"bandwidth": 0, "bands": [[1.0] * 3000]}
        assert peak < 5_000_000

    def test_banded_input_loads_as_bands(self):
        size, width = 4000, 8
        rng = np.random.default_rng(7)
        bands = [rng.uniform(0.0, 1.0, size - abs(o)).tolist()
                 for o in range(-width, width + 1)]
        payload = {"size": size, "entries": {"banded": {"bandwidth": width, "bands": bands}}}
        tracemalloc.start()
        g = gram_from_json_dict(payload)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 10_000_000
        assert g.entry(1, 9) == bands[16][0] and g.entry(4000, 3992) == bands[0][-1]
        assert g.entry(1, 10) == 0.0 and g.bandwidth() == width
        assert gram_to_json_dict(g)["entries"]["banded"]["bands"] == bands

    def test_band_views_match_dense(self):
        # Offsets -2 and 1 hold arrays, 0 and 2 one value each, -1 is zero.
        values = np.array([0.1, 0.2, 0.3, 0.0, 2.0, 0.5, 0.6, 0.7, 0.8, 0.25])
        g = GramSystem._from_bands(values, [3, 1, 1, 4, 1], 5, None, 1.0)
        expected = np.diag(np.full(5, 2.0)) + np.diag([0.5, 0.6, 0.7, 0.8], 1) \
            + np.diag(np.full(3, 0.25), 2) + np.diag([0.1, 0.2, 0.3], -2)
        assert np.array_equal(g.dense(), expected)
        idx = [5, 1, 3, 4]
        assert np.array_equal(g.submatrix(idx), expected[np.ix_([4, 0, 2, 3], [4, 0, 2, 3])])
        assert [g.entry(n, m) for n, m in ((3, 1), (4, 5), (1, 3), (2, 1))] == [0.1, 0.8, 0.25, 0.0]
        assert g.bandwidth() == 2 and np.array_equal(g.diag(), np.full(5, 2.0))
        dense = GramSystem.from_entries(expected, diag_floor=1.0)
        assert gram_dumps(g) == gram_dumps(dense)
        env = DecayEnvelope(0.6, 2.0)
        assert verify_envelope(g, env) == verify_envelope(dense, env)

    def test_with_envelope_keeps_storage_and_reverifies(self):
        g = power_law_gram(1.0, 2.0, 1.0, 50_000)
        fitted = g.with_envelope(DecayEnvelope(1.0, 2.0))
        assert fitted._data is g._data and fitted.diag_floor == 1.0
        with pytest.raises(InvalidGramData):
            g.with_envelope(DecayEnvelope(0.5, 2.0))

    def test_json_never_emits_nonfinite(self):
        g = power_law_gram(1.0, 2.0, 1.0, 4)
        parsed = json.loads(gram_dumps(g))
        assert parsed["size"] == 4
