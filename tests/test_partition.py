import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framepaver import (
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
    paving_from_json_dict,
    paving_to_json_dict,
    power_law_gram,
    residue_partition,
    separation_constant,
)

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

    def test_naturals_requires_modulus(self):
        with pytest.raises(ValueError):
            Paving(classes=None, modulus=None, range_end=None)


class TestClassMargin:
    def test_diagonal_system_margin_is_diagonal(self):
        g = GramSystem.from_entries(np.diag([2.0, 2.0, 2.0, 2.0, 2.0]))
        assert class_margin_lower_bound(g, [1, 3, 5]) == 2.0

    def test_residue_class_sharp_value(self):
        g = power_law_gram(1.0, 2.0, 1.0, 100)
        margin = class_margin_lower_bound(g, ResidueClass(1, 3), g.envelope, 1.0)
        lo, hi = margin_oracle(1.0, 2.0, 1.0, 3)
        assert margin == pytest.approx((lo + hi) / 2.0, abs=1e-3)
        assert margin == pytest.approx(0.7565339, abs=1e-3)
        assert margin <= hi  # a certified lower bound never exceeds the truth

    def test_residue_margin_beats_crude_bound(self):
        g = power_law_gram(1.0, 2.0, 1.0, 100)
        margin = class_margin_lower_bound(g, ResidueClass(1, 3), g.envelope, 1.0)
        crude = 1.0 - separation_constant(2.0) / 9.0
        assert crude == pytest.approx(0.6344591, abs=1e-6)
        assert margin >= crude

    def test_residue_class_without_envelope_raises(self):
        g = GramSystem.from_entries(np.eye(3))
        with pytest.raises(MissingEnvelope):
            class_margin_lower_bound(g, ResidueClass(1, 2), None, 1.0)

    def test_residue_class_without_floor_raises(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        with pytest.raises(MissingEnvelope):
            class_margin_lower_bound(g, ResidueClass(1, 2), g.envelope, None)

    def test_empty_class_is_vacuous(self):
        g = GramSystem.from_entries(np.eye(3))
        assert class_margin_lower_bound(g, []) == math.inf

    def test_class_beyond_truncation_uses_envelope(self):
        g = power_law_gram(1.0, 2.0, 1.0, 10)
        members = [1, 4, 7, 10, 13]
        margin = class_margin_lower_bound(g, members, g.envelope, 1.0)
        # hand bound: the observed part is exact, index 13 contributes
        # through the envelope both ways
        assert margin < 1.0
        with pytest.raises(MissingEnvelope):
            class_margin_lower_bound(g, members, None, 1.0)
        with pytest.raises(MissingEnvelope):
            class_margin_lower_bound(g, members, g.envelope, None)

    def test_certified_bound_monotone_in_truncation(self):
        members = list(range(1, 29, 3))  # {1, 4, ..., 28}
        margins = []
        for size in (10, 20, 30):
            g = power_law_gram(1.0, 2.0, 1.0, size)
            margins.append(class_margin_lower_bound(g, members, g.envelope, 1.0))
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


class TestPavingSerialization:
    def test_round_trip_explicit(self):
        p = residue_partition(3, 10)
        again = paving_from_json_dict(paving_to_json_dict(p))
        assert again == p

    def test_round_trip_naturals(self):
        p = residue_partition(4)
        again = paving_from_json_dict(paving_to_json_dict(p))
        assert again == p

    def test_certificate_round_trip(self):
        g = power_law_gram(1.0, 2.0, 1.0, 12)
        cert = certify(g, residue_partition(3, 12), 0.3)
        again = certificate_from_json_dict(certificate_to_json_dict(cert))
        assert again == cert

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

    def test_finite_certificate_cannot_claim_global_scope(self):
        payload = certificate_to_json_dict(
            certify(GramSystem.from_entries(np.eye(6)), residue_partition(3, 6), 0.5))
        payload["scope"] = SCOPE_GLOBAL
        with pytest.raises(InvalidGramData):
            certificate_from_json_dict(payload)

    def test_certificate_round_trip_with_empty_class(self):
        g = GramSystem.from_entries(np.eye(3))
        cert = certify(g, residue_partition(5, 3), 0.5)
        payload = certificate_to_json_dict(cert)
        assert payload["margins"][4] is None  # inf is not valid JSON
        assert certificate_from_json_dict(payload) == cert
