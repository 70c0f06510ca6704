import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from framepaver import (
    DecayEnvelope,
    GramSystem,
    InvalidGramData,
    MissingEnvelope,
    Paving,
    PavingCoverageError,
    ResidueClass,
    SCOPE_GLOBAL,
    SCOPE_TRUNCATION,
    certificate_from_json_dict,
    certificate_to_json_dict,
    certify,
    choose_modulus,
    class_margin_lower_bound,
    exact_margin,
    fit_envelope,
    paving_from_json_dict,
    paving_to_json_dict,
    power_law_gram,
    residue_partition,
    separation_constant,
)
from framepaver.bounds import shifted_power_sum
from framepaver.gram import _ENVELOPE_UP
from framepaver import partition

GRID = [(a, s, c) for a in (0.5, 1.0, 2.0) for s in (1.5, 2.0, 3.0)
        for c in (0.5, 1.0, 4.0)]


def margin_oracle(amplitude, s, diag, modulus, terms=1_000_000):
    """Independent certified bracket of diag - 2*A*sum_{k>=1}(1+kM)^-s."""
    head = math.fsum((1.0 + k * modulus) ** (-s) for k in range(1, terms + 1))
    tail_lo = (1.0 + (terms + 1) * modulus) ** (1.0 - s) / (modulus * (s - 1.0))
    tail_hi = (1.0 + terms * modulus) ** (1.0 - s) / (modulus * (s - 1.0))
    return (diag - 2.0 * amplitude * (head + tail_hi),
            diag - 2.0 * amplitude * (head + tail_lo))


class TestChooseModulus:
    def test_unit_case_needs_three(self):
        assert choose_modulus(1.0, 2.0, 1.0) == 3
        # direct re-check: M = 2 fails, M = 3 satisfies
        kappa = separation_constant(2.0)
        assert kappa / 4.0 > 0.5
        assert kappa / 9.0 <= 0.5

    def test_large_floor_needs_two(self):
        assert choose_modulus(1.0, 2.0, 4.0) == 2
        kappa = separation_constant(2.0)
        assert kappa / 1.0 > 2.0
        assert kappa / 4.0 <= 2.0

    def test_zero_amplitude_gives_one(self):
        assert choose_modulus(0.0, 2.0, 1.0) == 1
        assert choose_modulus(0.0, 1.5, 123.0) == 1

    @pytest.mark.parametrize("a,s,c", GRID)
    def test_minimality_on_grid(self, a, s, c):
        m = choose_modulus(a, s, c)
        kappa = separation_constant(s)
        assert a * kappa / float(m) ** s <= c / 2.0
        if m >= 2:
            assert a * kappa / float(m - 1) ** s > c / 2.0

    # The closed form ceil((2*A*kappa/C)**(1/s)) misses by one here, below the
    # answer and above it, so each of the two correction loops runs.
    @pytest.mark.parametrize("a,s,c,closed,answer", [
        (33084.279005661156, 1.68, 1.0, 1737, 1738),
        (2692.311557803378, 2.0, 0.3, 244, 243),
    ])
    def test_correction_loops_fix_the_closed_form(self, a, s, c, closed, answer):
        kappa = separation_constant(s)
        radicand = math.nextafter(2.0 * a * kappa / c, math.inf)
        assert math.ceil(radicand ** (1.0 / s)) == closed
        assert choose_modulus(a, s, c) == answer
        assert a * kappa / float(answer) ** s <= c / 2.0
        assert a * kappa / float(answer - 1) ** s > c / 2.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_modulus(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            choose_modulus(1.0, 2.0, 0.0)


class TestResiduePartition:
    def test_mod_three_over_ten(self):
        p = residue_partition(3, 10)
        assert p.classes == ((1, 4, 7, 10), (2, 5, 8), (3, 6, 9))
        assert p.modulus == 3
        assert p.min_separation == 3.0

    def test_single_class(self):
        p = residue_partition(1, 5)
        assert p.classes == ((1, 2, 3, 4, 5),)

    def test_naturals_paving_is_symbolic(self):
        p = residue_partition(4)
        assert p.range_end is None
        assert p.classes is None
        assert p.n_classes == 4
        assert p.residue_classes() == tuple(ResidueClass(j, 4) for j in (1, 2, 3, 4))

    def test_modulus_beyond_range_gives_empty_classes(self):
        p = residue_partition(13, 12)
        assert p.n_classes == 13
        assert p.classes[-1] == ()

    @given(m=st.integers(min_value=1, max_value=9),
           t=st.integers(min_value=1, max_value=40))
    def test_exact_partition(self, m, t):
        p = residue_partition(m, t)
        flat = sorted(i for cls in p.classes for i in cls)
        assert flat == list(range(1, t + 1))
        for cls in p.classes:
            for a, b in zip(cls, cls[1:]):
                assert b - a == m


class TestPavingValidation:
    def test_missing_index_named(self):
        with pytest.raises(PavingCoverageError) as err:
            Paving(classes=((1, 2, 3), (5,)), modulus=None, range_end=5)
        assert err.value.missing == (4,)
        assert "4" in str(err.value)

    def test_duplicate_index_named(self):
        with pytest.raises(PavingCoverageError) as err:
            Paving(classes=((1, 2), (2, 3)), modulus=None, range_end=3)
        assert err.value.duplicated == (2,)

    def test_extra_index_named(self):
        with pytest.raises(PavingCoverageError) as err:
            Paving(classes=((1, 2, 7),), modulus=None, range_end=2)
        assert err.value.extra == (7,)

    def test_huge_range_is_rejected_quickly(self):
        start = time.perf_counter()
        with pytest.raises(PavingCoverageError) as err:
            paving_from_json_dict({"range": 10**9, "classes": [[1]]})
        assert time.perf_counter() - start < 0.1
        assert err.value.missing == tuple(range(2, 12))
        assert err.value.n_missing == 10**9 - 1
        assert len(str(err.value)) < 200

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Paving(classes=((1, 2), (3, 4)), modulus=2, range_end=4)

    def test_huge_modulus_is_rejected_quickly(self):
        start = time.perf_counter()
        with pytest.raises(InvalidGramData):
            paving_from_json_dict({"range": 10, "modulus": 10**9,
                                   "classes": [list(range(1, 11))]})
        assert time.perf_counter() - start < 0.1

    def test_naturals_requires_modulus(self):
        with pytest.raises(ValueError):
            Paving(classes=None, modulus=None, range_end=None)


class TestClassMargin:
    def test_diagonal_system_margin_is_diagonal(self):
        g = GramSystem.from_entries(np.diag([2.0, 2.0, 2.0, 2.0, 2.0]))
        assert class_margin_lower_bound(g, [1, 3, 5]) == 2.0

    def test_residue_class_sharp_value(self):
        g = power_law_gram(1.0, 2.0, 1.0, 100)
        margin = class_margin_lower_bound(g, ResidueClass(1, 3))
        lo, hi = margin_oracle(1.0, 2.0, 1.0, 3)
        assert margin == pytest.approx((lo + hi) / 2.0, abs=1e-3)
        assert margin == pytest.approx(0.7565339, abs=1e-3)
        assert margin <= hi  # a certified lower bound never exceeds the truth

    def test_residue_margin_beats_crude_bound(self):
        g = power_law_gram(1.0, 2.0, 1.0, 100)
        margin = class_margin_lower_bound(g, ResidueClass(1, 3))
        crude = 1.0 - separation_constant(2.0) / 9.0
        assert crude == pytest.approx(0.6344591, abs=1e-6)
        assert margin >= crude

    def test_residue_class_without_envelope_raises(self):
        # The second system's row margin is 0.1: no global margin is
        # certified for it from a tail model it does not carry.
        for g, cls in ((GramSystem.from_entries(np.eye(3), diag_floor=1.0), ResidueClass(1, 2)),
                       (GramSystem.from_entries([[1.0, 0.9], [0.9, 1.0]]), ResidueClass(1, 1))):
            with pytest.raises(MissingEnvelope, match="needs an envelope"):
                class_margin_lower_bound(g, cls)

    def test_residue_class_without_floor_raises(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        g = GramSystem.from_entries(g.dense(), g.envelope)
        with pytest.raises(MissingEnvelope, match="needs a global diagonal floor"):
            class_margin_lower_bound(g, ResidueClass(1, 2))

    def test_empty_class_is_vacuous(self):
        g = GramSystem.from_entries(np.eye(3))
        assert class_margin_lower_bound(g, []) == math.inf

    def test_class_beyond_truncation_uses_envelope(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        members = [1, 4, 7, 10, 13]
        margin = class_margin_lower_bound(g, members)
        # hand bound: the observed part is exact, index 13 contributes
        # through the envelope both ways
        assert margin < 1.0
        with pytest.raises(MissingEnvelope, match="index 13 .* needs an envelope"):
            class_margin_lower_bound(g.with_envelope(None), members)
        with pytest.raises(MissingEnvelope, match="index 13 .* needs a global diagonal floor"):
            class_margin_lower_bound(GramSystem.from_entries(g.dense(), g.envelope), members)

    def test_certified_bound_monotone_in_truncation(self):
        members = list(range(1, 29, 3))  # {1, 4, ..., 28}
        margins = []
        for size in (10, 20, 30):
            g = power_law_gram(1.0, 2.0, 1.0, size)
            margins.append(class_margin_lower_bound(g, members))
        assert margins[0] <= margins[1] <= margins[2]

    def test_deeper_truncation_never_raises_exact_margin(self):
        # Observed-entry margins only shrink as more entries appear.
        members = [1, 4, 7, 10]
        exact = []
        for size in (10, 25, 60):
            g = power_law_gram(1.0, 2.0, 1.0, size)
            exact.append(class_margin_lower_bound(g, members))
        assert exact[0] >= exact[1] >= exact[2]


# Off-diagonal moduli spread over many binades, so that row sums round.
_MODULUS = st.floats(min_value=1e-6, max_value=1.0)


@given(data=st.data())
def test_margins_are_lower_bounds_when_rows_cancel(data):
    # Each diagonal is the rounded sum of its row, so the exact margin is
    # zero or a rounding error of either sign.
    t = data.draw(st.integers(min_value=2, max_value=5))
    e = np.array(data.draw(st.lists(st.lists(_MODULUS, min_size=t, max_size=t),
                                    min_size=t, max_size=t)))
    for i in range(t):
        e[i, i] = math.fsum(e[i, j] for j in range(t) if j != i)
    exact = min(Fraction(float(e[i, i]))
                - sum(Fraction(float(e[i, j])) for j in range(t) if j != i)
                for i in range(t))
    g = GramSystem.from_entries(e)
    members = tuple(range(1, t + 1))
    # Both margins are the exact one rounded down: the largest float at or
    # below it.
    for m in (class_margin_lower_bound(g, members), exact_margin(g, members)):
        assert Fraction(m) <= exact < Fraction(math.nextafter(m, math.inf))
    cert = certify(g, Paving(classes=(members,), modulus=None, range_end=t), 0.0)
    assert all(m <= exact for m in cert.per_class_margin)
    if exact < 0:
        assert not cert.passed


def test_margin_that_rounds_up_is_nudged_below():
    # 1 - x lies just below 1 and rounds to 1; the bound must not.
    x = 2.0 ** -54 * (1.0 - 2.0 ** -10)
    g = GramSystem.from_entries([[1.0, x], [x, 1.0]])
    assert Fraction(class_margin_lower_bound(g, [1, 2])) <= 1 - Fraction(x)
    assert not certify(g, residue_partition(1, 2), 1.0).passed


@st.composite
def band_systems(draw):
    """A band system whose offsets hold arrays or one value each, plus one
    sorted class, a progression members[0] + step*i or any subset, with some
    of its rows made to cancel."""
    size = draw(st.integers(min_value=1, max_value=40))
    b = draw(st.integers(min_value=0, max_value=min(size - 1, 6)))
    if draw(st.booleans()):
        step = draw(st.integers(min_value=1, max_value=b + 2))
        start = draw(st.integers(min_value=1, max_value=min(step, size)))
        count = draw(st.integers(min_value=1, max_value=len(range(start, size + 1, step))))
        members = list(range(start, start + step * count, step))
    else:
        members = sorted(draw(st.sets(st.integers(min_value=1, max_value=size), min_size=1)))
    bands = []
    for o in range(-b, b + 1):
        n = draw(st.sampled_from([1, size - abs(o)]))
        bands.append(draw(st.lists(_MODULUS, min_size=n, max_size=n)))
    if len(bands[b]) == size:
        g = GramSystem._from_bands(np.array(sum(bands, [])), [len(v) for v in bands],
                                   size, None, None)
        for i in draw(st.lists(st.sampled_from(members), max_size=3)):
            bands[b][i - 1] = math.fsum(g.entry(i, j) for j in members if j != i)
    g = GramSystem._from_bands(np.array(sum(bands, [])), [len(v) for v in bands],
                               size, None, None)
    return g, members


def _floor_margin(block) -> float:
    """Largest float at or below the exact smallest row margin of a square
    block, from Fraction arithmetic; +inf when empty."""
    if not len(block):
        return math.inf
    exact = min(Fraction(float(row[i])) - sum(Fraction(float(v)) for j, v in enumerate(row)
                                              if j != i)
                for i, row in enumerate(block))
    margin = float(exact)  # correctly rounded
    return math.nextafter(margin, -math.inf) if Fraction(margin) > exact else margin


def _envelope_block(g, members, envelope, diag_floor):
    """The k x k block of a class reaching past the truncation: stored entries
    where both indices are stored, the envelope bound times _ENVELOPE_UP at
    every other off-diagonal, the floor on diagonals past the truncation."""
    pos = np.asarray(members, dtype=np.int64)
    dist = np.abs(pos[:, None] - pos[None, :])
    distances = np.unique(dist)
    bounds = np.array([envelope.bound(int(d)) * _ENVELOPE_UP for d in distances])
    block = bounds[np.searchsorted(distances, dist)]
    observed = int(np.count_nonzero(pos <= g.size))
    block[:observed, :observed] = g.submatrix(members[:observed])
    np.fill_diagonal(block[observed:, observed:], float(diag_floor))
    return block


@given(band_systems())
def test_strided_kernel_matches_class_margin(system):
    g, members = system
    ix = np.ix_([i - 1 for i in members], [i - 1 for i in members])
    expected = _floor_margin(g.dense()[ix])
    assert class_margin_lower_bound(g, members).hex() == expected.hex()


def test_in_window_classes_take_the_band_step(monkeypatch):
    g = power_law_gram(1.0, 2.0, 1.0, 30)
    classes = ([1, 2, 4, 8, 16], [3, 6, 9, 12, 15, 18])
    expected = [_floor_margin(g.dense()[np.ix_([i - 1 for i in c], [i - 1 for i in c])])
                for c in classes]

    def forbidden(*args):
        raise AssertionError("an in-window class must not build its k x k block")

    monkeypatch.setattr(GramSystem, "submatrix", forbidden)
    assert [class_margin_lower_bound(g, c) for c in classes] == expected


def test_uneven_class_on_bands_is_small():
    size, width = 6000, 8
    rng = np.random.default_rng(11)
    bands = [rng.uniform(0.0, 0.05, size - abs(o)) for o in range(-width, width + 1)]
    bands[width] = rng.uniform(1.0, 2.0, size)
    g = GramSystem._from_bands(np.concatenate(bands), [len(v) for v in bands],
                               size, None, None)
    members = np.sort(rng.choice(np.arange(1, size + 1), 2000, replace=False)).tolist()
    expected = partition._min_margin(
        (row.tolist(), i) for i, row in enumerate(g.submatrix(members)))
    tracemalloc.start()
    got = class_margin_lower_bound(g, members)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.hex() == expected.hex()
    assert peak < 2_000_000


def test_strided_kernel_is_fast_on_a_wide_profile():
    g = power_law_gram(1.0, 2.0, 1.0, 6000)
    paving = residue_partition(3, 6000)
    start = time.perf_counter()
    cert = certify(g, paving)
    elapsed = time.perf_counter() - start
    assert cert.per_class_margin == (0.7567561203371437,) * 3
    assert elapsed < 0.2


def _pushed_profile(A, s, size):
    """Off-diagonals at the envelope times _ENVELOPE_UP, the most it admits."""
    env = DecayEnvelope(A, s)
    return env, env.bound(np.arange(1, size, dtype=np.float64)) * _ENVELOPE_UP


def _worst_row(profile, env, C, offset, modulus):
    """Smallest exact margin over the class's rows inside the window (mpmath):
    stored entries inside, the envelope itself beyond."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    size, A, s, M = len(profile) + 1, env.amplitude, env.exponent, modulus
    worst = None
    for n in range(offset, size + 1, M):
        left = sum(mpmath.mpf(float(profile[q * M - 1])) for q in range(1, (n - 1) // M + 1))
        right_in = (size - n) // M
        right = sum(mpmath.mpf(float(profile[q * M - 1])) for q in range(1, right_in + 1))
        beyond = A * mpmath.mpf(M) ** -s * mpmath.zeta(s, right_in + 1 + mpmath.mpf(1) / M)
        margin = mpmath.mpf(C) - left - right - beyond
        worst = margin if worst is None else min(worst, margin)
    return worst


def test_residue_margin_charges_the_envelope_allowance():
    # A floor one ulp above the tail charged at the bare envelope certified
    # PASS at margin 1.08e-19; the worst row's exact margin is -7.3e-20.
    env, off = _pushed_profile(1.0, 12.0, 100)
    C = math.nextafter(2.0 * shifted_power_sum(1, 12.0).hi, math.inf)
    g = GramSystem.from_distance_profile(np.concatenate(([C], off)), env, C)
    cert = certify(g, residue_partition(1), 0.0)
    exact = _worst_row(off, env, C, 1, 1)
    assert exact < 0
    assert cert.per_class_margin[0] <= exact
    assert not cert.passed


@given(A=st.floats(min_value=0.1, max_value=4.0), s=st.floats(min_value=1.5, max_value=14.0),
       modulus=st.integers(min_value=1, max_value=5), size=st.integers(min_value=2, max_value=40),
       ulps=st.integers(min_value=0, max_value=64), data=st.data())
def test_residue_margin_stays_below_pushed_rows(A, s, modulus, size, ulps, data):
    env, off = _pushed_profile(A, s, size)
    C = 2.0 * A * shifted_power_sum(modulus, s).hi
    for _ in range(ulps):
        C = math.nextafter(C, math.inf)
    g = GramSystem.from_distance_profile(np.concatenate(([C], off)), env, C)
    offset = data.draw(st.integers(min_value=1, max_value=min(modulus, size)))
    margin = class_margin_lower_bound(g, ResidueClass(offset, modulus))
    assert margin <= _worst_row(off, env, C, offset, modulus)


@st.composite
def beyond_window_systems(draw):
    """A power-law system, or entries under an envelope with some at its
    allowance, with a class that reaches past the truncation: evenly spaced
    or any set of indices."""
    size = draw(st.integers(min_value=1, max_value=25))
    A = draw(st.floats(min_value=0.1, max_value=4.0))
    s = draw(st.floats(min_value=1.1, max_value=8.0))
    floor = draw(st.floats(min_value=0.5, max_value=4.0))
    if draw(st.booleans()):
        g = power_law_gram(A, s, floor, size)
    else:
        env, line = _pushed_profile(A, s, size)
        d = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
        scale = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                              min_size=size * size, max_size=size * size))
        e = np.concatenate(([0.0], line))[d] * np.reshape(scale, (size, size))
        np.fill_diagonal(e, floor + np.arange(size) % 3)
        g = GramSystem.from_entries(e, env, floor)
    reach = size + draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        step = draw(st.integers(min_value=1, max_value=9))
        start = draw(st.integers(min_value=1, max_value=step))
        members = list(range(start, reach + 1, step))
        assume(members[-1] > size)
    else:
        members = sorted(draw(st.sets(st.integers(min_value=1, max_value=reach), min_size=1))
                         | {reach})
    return g, members


@given(beyond_window_systems())
def test_beyond_window_classes_match_the_envelope_block(system):
    g, members = system
    expected = _floor_margin(_envelope_block(g, members, g.envelope, g.diag_floor))
    assert class_margin_lower_bound(g, members).hex() == expected.hex()


@st.composite
def tail_systems(draw):
    """A power-law system, or a band system under its fitted envelope with a
    floor up to the headroom above its smallest diagonal; a modulus; and a
    range end at or past the truncation."""
    if draw(st.booleans()):
        g = power_law_gram(draw(st.floats(min_value=0.1, max_value=4.0)),
                           draw(st.floats(min_value=1.1, max_value=8.0)),
                           draw(st.floats(min_value=0.5, max_value=4.0)),
                           draw(st.integers(min_value=1, max_value=30)))
    else:
        h = draw(band_systems())[0]
        floor = draw(st.floats(min_value=0.0, max_value=float(h.diag().min()) + 1e-9))
        g = GramSystem.from_entries(h.dense(), fit_envelope(h).envelope, floor)
    modulus = draw(st.integers(min_value=1, max_value=6))
    return g, modulus, g.size + draw(st.sampled_from([0, 0, 1, 7, 20]))


@given(tail_systems(), st.data())
def test_class_margin_is_the_certified_margin(system, data):
    g, modulus, range_end = system
    residues = certify(g, residue_partition(modulus), 0.0).per_class_margin
    assert [m.hex() for m in residues] == [
        class_margin_lower_bound(g, ResidueClass(j, modulus)).hex()
        for j in range(1, modulus + 1)]
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=modulus - 1),
                                min_size=range_end, max_size=range_end))
    classes = tuple(tuple(i for i, c in enumerate(labels, start=1) if c == k)
                    for k in range(modulus))
    for paving in (residue_partition(modulus, range_end),
                   Paving(classes=classes, modulus=None, range_end=range_end)):
        margins = certify(g, paving, 0.0).per_class_margin
        assert [m.hex() for m in margins] == \
            [class_margin_lower_bound(g, cls).hex() for cls in paving.classes]


def test_beyond_window_residue_class_is_small():
    # One class of residue_partition(3, 6000) on 40 stored indices took a
    # 96 MB k x k block.
    g = power_law_gram(1.0, 2.0, 1.0, 40)
    members = residue_partition(3, 6000).classes[0]
    tracemalloc.start()
    got = class_margin_lower_bound(g, members)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got.hex() == "0x1.837589c7caaf9p-1"
    assert peak < 2_000_000


class TestCertify:
    def test_identity_single_class(self):
        g = GramSystem.from_entries(np.eye(6))
        cert = certify(g, residue_partition(1, 6), 0.9)
        assert cert.passed
        assert cert.per_class_margin == (1.0,)
        assert cert.scope == SCOPE_TRUNCATION

    def test_off_diagonal_point_nine_passes_at_zero(self):
        g = GramSystem.from_entries([[1.0, 0.9], [0.9, 1.0]])
        cert = certify(g, residue_partition(1, 2), 0.0)
        assert cert.passed
        assert cert.per_class_margin[0] == pytest.approx(0.1, abs=1e-15)

    def test_off_diagonal_one_fails_at_positive_epsilon(self):
        g = GramSystem.from_entries([[1.0, 1.0], [1.0, 1.0]])
        cert = certify(g, residue_partition(1, 2), 0.0)
        assert cert.passed  # margin is exactly zero
        # ... and serializes as 0.0, not -0.0
        assert math.copysign(1.0, cert.per_class_margin[0]) == 1.0
        cert = certify(g, residue_partition(1, 2), 1e-9)
        assert not cert.passed

    def test_end_to_end_guarantee_on_grid(self):
        for a, s, c in GRID:
            g = power_law_gram(a, s, c, 200)
            m = choose_modulus(a, s, c)
            cert = certify(g, residue_partition(m), c / 2.0 - 1e-9)
            assert cert.passed, (a, s, c)
            assert cert.scope == SCOPE_GLOBAL
            assert all(margin >= c / 2.0 - 1e-9 for margin in cert.per_class_margin)

    def test_default_epsilon_is_half_the_floor(self):
        g = power_law_gram(1.0, 2.0, 1.0, 50)
        cert = certify(g, residue_partition(3))
        assert cert.epsilon == 0.5
        assert cert.passed

    def test_naturals_paving_needs_tail_model(self):
        g = GramSystem.from_entries(np.eye(4))
        with pytest.raises(MissingEnvelope):
            certify(g, residue_partition(2), 0.1)

    def test_finite_paving_on_asserted_system_stays_truncation_scope(self):
        g = power_law_gram(1.0, 2.0, 1.0, 9)
        cert = certify(g, residue_partition(3, 9), 0.4)
        assert cert.scope == SCOPE_TRUNCATION
        assert cert.passed

    def test_paving_too_short_names_missing_indices(self):
        g = GramSystem.from_entries(np.eye(10))
        with pytest.raises(PavingCoverageError) as err:
            certify(g, residue_partition(2, 7), 0.1)
        assert 8 in err.value.missing and 10 in err.value.missing

    def test_certificate_is_deterministic(self):
        g = power_law_gram(1.0, 2.0, 1.0, 30)
        a = certify(g, residue_partition(3, 30), 0.2)
        b = certify(g, residue_partition(3, 30), 0.2)
        assert a == b

    def test_paving_wider_than_truncation_uses_envelope(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        cert = certify(g, residue_partition(3, 12), 0.4)
        assert cert.passed

    def test_empty_classes_pass_vacuously(self):
        g = GramSystem.from_entries(np.eye(3))
        cert = certify(g, residue_partition(5, 3), 0.5)
        assert cert.passed
        assert cert.per_class_margin[3] == math.inf


class TestGershgorinCrossCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_margin_bounds_minimum_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(4, 33))
        e = rng.uniform(0.0, 0.5, size=(t, t))
        e = (e + e.T) / 2.0
        np.fill_diagonal(e, rng.uniform(1.0, 3.0, size=t))
        g = GramSystem.from_entries(e)
        for m in (1, 2, 3):
            for cls in residue_partition(m, t).classes:
                if not cls:
                    continue
                margin = class_margin_lower_bound(g, cls)
                if margin > 0.0:
                    eig = np.linalg.eigvalsh(g.submatrix(cls)).min()
                    assert eig >= margin - 1e-10


# Certificates by scope and verdict, and one whose empty class has an
# infinite margin, written as null.
ROUND_TRIP = {
    "global-PASS": lambda: certify(power_law_gram(1.0, 2.0, 1.0, 12), residue_partition(3), 0.3),
    "global-FAIL": lambda: certify(power_law_gram(1.0, 2.0, 1.0, 12), residue_partition(3), 0.8),
    "truncation-only-PASS": lambda: certify(power_law_gram(1.0, 2.0, 1.0, 12),
                                            residue_partition(3, 12), 0.3),
    "truncation-only-FAIL": lambda: certify(power_law_gram(1.0, 2.0, 1.0, 12),
                                            residue_partition(3, 12), 0.9),
    "empty-class": lambda: certify(GramSystem.from_entries(np.eye(3)),
                                   residue_partition(5, 3), 0.5),
}


class TestPavingSerialization:
    def test_round_trip_explicit(self):
        p = residue_partition(3, 10)
        again = paving_from_json_dict(paving_to_json_dict(p))
        assert again == p

    def test_round_trip_naturals(self):
        p = residue_partition(4)
        again = paving_from_json_dict(paving_to_json_dict(p))
        assert again == p

    @pytest.mark.parametrize("case", ROUND_TRIP, ids=ROUND_TRIP)
    def test_certificate_round_trip(self, case):
        cert = ROUND_TRIP[case]()
        assert f"{cert.scope}-{cert.verdict}" == case or case == "empty-class"
        text = json.dumps(certificate_to_json_dict(cert), allow_nan=False)
        assert certificate_from_json_dict(json.loads(text)) == cert

    @pytest.mark.parametrize("case", ROUND_TRIP, ids=ROUND_TRIP)
    def test_certificate_rejects_flipped_verdict(self, case):
        payload = certificate_to_json_dict(ROUND_TRIP[case]())
        payload["verdict"] = {"PASS": "FAIL", "FAIL": "PASS"}[payload["verdict"]]
        with pytest.raises(InvalidGramData, match="verdict"):
            certificate_from_json_dict(payload)

    def test_naturals_certificate_cannot_claim_truncation_scope(self):
        payload = certificate_to_json_dict(ROUND_TRIP["global-PASS"]())
        payload["scope"] = SCOPE_TRUNCATION
        with pytest.raises(InvalidGramData, match="scope"):
            certificate_from_json_dict(payload)

    @pytest.mark.parametrize("member", [1.9, True, "1"])
    def test_certificate_rejects_non_integer_member(self, member):
        payload = certificate_to_json_dict(
            certify(GramSystem.from_entries(np.eye(6)), residue_partition(3, 6), 0.5))
        payload["classes"]["classes"][0][0] = member
        with pytest.raises(InvalidGramData):
            certificate_from_json_dict(payload)

    def test_certificate_needs_one_margin_per_class(self):
        payload = certificate_to_json_dict(
            certify(GramSystem.from_entries(np.eye(6)), residue_partition(3, 6), 0.5))
        payload["margins"] = []
        with pytest.raises(InvalidGramData):
            certificate_from_json_dict(payload)

    @pytest.mark.parametrize("key,value", [
        ("margins", [True, 0.5, 0.5]),
        ("margins", ["nan", 0.5, 0.5]),
        ("margins", ["inf", 0.5, 0.5]),
        ("margins", ["0.5", 0.5, 0.5]),
        ("margins", [None, 0.5, 0.5]),  # null stands only for an empty class
        ("epsilon", True),
        ("epsilon", "0.5"),
        ("epsilon", None),
    ])
    def test_certificate_needs_json_numbers(self, key, value):
        payload = certificate_to_json_dict(
            certify(GramSystem.from_entries(np.eye(6)), residue_partition(3, 6), 0.5))
        payload[key] = value
        with pytest.raises(InvalidGramData):
            certificate_from_json_dict(payload)

    def test_finite_certificate_cannot_claim_global_scope(self):
        payload = certificate_to_json_dict(
            certify(GramSystem.from_entries(np.eye(6)), residue_partition(3, 6), 0.5))
        payload["scope"] = SCOPE_GLOBAL
        with pytest.raises(InvalidGramData):
            certificate_from_json_dict(payload)
