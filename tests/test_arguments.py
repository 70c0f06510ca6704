"""The integer rule and the real-number rule at every library entry point.

An integer argument must be a Python or numpy integer, never a bool; a real
one a finite Python or numpy real, never a bool or a string.  Both come back
as Python ``int`` or ``float``, and a rejection raises ``InvalidGramData``
(a ``ValueError``) naming the argument.
"""

import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import framepaver as fp
from framepaver import bounds
from framepaver.errors import IndexBeyondTruncation, InvalidExponent, InvalidGramData

G = fp.power_law_gram(1.0, 2.0, 1.0, 6)
SMALL = fp.GramSystem.from_entries(np.eye(3))
CERT = fp.certify(G, fp.residue_partition(3, 6), 0.25)


class Site(NamedTuple):
    call: Callable  # the entry point, given the argument under test
    good: object  # a value in range
    below: object  # the value just below the range
    stored: Callable | None = None  # the argument as kept in the result, if it is
    error: type = InvalidGramData  # raised for a value of the wrong type
    below_error: type | None = None  # raised for ``below``, if not ``error``


INTEGER_SITES = {
    "power_law_gram size": Site(lambda v: fp.power_law_gram(1.0, 2.0, 1.0, v), 3, 0,
                                lambda g: g.size),
    "translate_frame_gram period": Site(lambda v: fp.translate_frame_gram([1.0], v), 3, 0,
                                        lambda g: g.size),
    "from_cyclic_profile size": Site(
        lambda v: fp.GramSystem.from_cyclic_profile([1.0, 0.5], v), 3, 0, lambda g: g.size),
    "entry_bound n": Site(lambda v: fp.entry_bound(G, v, 2), 1, 0),
    "entry_bound m": Site(lambda v: fp.entry_bound(G, 2, v), 1, 0),
    "GramSystem.entry n": Site(lambda v: G.entry(v, 2), 1, 0,
                               below_error=IndexBeyondTruncation),
    "GramSystem.entry m": Site(lambda v: G.entry(2, v), 1, 0,
                               below_error=IndexBeyondTruncation),
    "GramSystem.submatrix": Site(lambda v: G.submatrix([2, v]), 1, 0,
                                 below_error=IndexBeyondTruncation),
    "ResidueClass offset": Site(lambda v: fp.ResidueClass(v, 3), 1, 0, lambda c: c.offset),
    "ResidueClass modulus": Site(lambda v: fp.ResidueClass(1, v), 3, 0, lambda c: c.modulus),
    "Paving modulus": Site(lambda v: fp.Paving(None, v, None), 3, 0, lambda p: p.modulus),
    "Paving range_end": Site(lambda v: fp.Paving(((1,),), None, v), 1, 0,
                             lambda p: p.range_end),
    "residue_partition modulus": Site(lambda v: fp.residue_partition(v, 6), 3, 0,
                                      lambda p: p.modulus),
    "residue_partition range_end": Site(lambda v: fp.residue_partition(3, v), 6, 0,
                                        lambda p: p.range_end),
    "verify_separation_bound delta_max": Site(
        lambda v: fp.verify_separation_bound(2.0, v), 2, 0),
    "min_partition cap": Site(lambda v: fp.min_partition(SMALL, cap=v), 3, 0),
}

REAL_SITES = {
    "power_law_gram amplitude": Site(lambda v: fp.power_law_gram(v, 2.0, 1.0, 4), 0.5, -0.5,
                                     lambda g: g.envelope.amplitude),
    "power_law_gram diag": Site(lambda v: fp.power_law_gram(1.0, 2.0, v, 4), 1.5, 0.0,
                                lambda g: g.diag_floor),
    "DecayEnvelope amplitude": Site(lambda v: fp.DecayEnvelope(v, 2.0), 1.5, 0.0,
                                    lambda e: e.amplitude),
    "DecayEnvelope exponent": Site(lambda v: fp.DecayEnvelope(1.0, v), 2.5, 1.0,
                                   lambda e: e.exponent, error=InvalidExponent),
    "GramSystem diag_floor": Site(lambda v: fp.GramSystem.from_entries([[1.0]], diag_floor=v),
                                  0.5, -0.5, lambda g: g.diag_floor),
    "choose_modulus amplitude": Site(lambda v: fp.choose_modulus(v, 2.0, 1.0), 1.0, -1.0),
    "choose_modulus diag_floor": Site(lambda v: fp.choose_modulus(1.0, 2.0, v), 1.0, 0.0),
    "certify epsilon": Site(lambda v: fp.certify(G, fp.residue_partition(3, 6), v), 0.25,
                            -0.25, lambda c: c.epsilon),
    "ARSCertificate epsilon": Site(
        lambda v: fp.ARSCertificate(CERT.paving, CERT.per_class_margin, v), 0.25, -0.25,
        lambda c: c.epsilon),
    "min_partition epsilon": Site(lambda v: fp.min_partition(SMALL, v), 0.5, -0.5),
    "hurwitz_zeta a": Site(lambda v: bounds.hurwitz_zeta(2.0, v), 1.5, 0.0),
    "shifted_power_sum step": Site(lambda v: bounds.shifted_power_sum(v, 2.0), 2.0, 0.5),
    "zeta tol": Site(lambda v: fp.zeta(2.0, v), 1e-9, 0.0),
}


def _table(sites):
    return pytest.mark.parametrize("site", list(sites.values()), ids=list(sites))


@_table(INTEGER_SITES)
@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_integer_site_rejects_non_integers(site, bad):
    with pytest.raises(site.error):
        site.call(bad)


@_table(INTEGER_SITES)
def test_integer_site_rejects_value_below_range(site):
    with pytest.raises(site.below_error or site.error):
        site.call(site.below)


@_table(INTEGER_SITES)
def test_integer_site_accepts_numpy_and_stores_int(site):
    result = site.call(np.int64(site.good))
    if site.stored is not None:
        value = site.stored(result)
        assert type(value) is int and value == site.good


@_table(REAL_SITES)
@pytest.mark.parametrize("bad", ["0.5", True, math.nan, math.inf])
def test_real_site_rejects_non_reals(site, bad):
    with pytest.raises(site.error):
        site.call(bad)


@_table(REAL_SITES)
def test_real_site_rejects_value_below_range(site):
    with pytest.raises(site.below_error or site.error):
        site.call(site.below)


@_table(REAL_SITES)
def test_real_site_accepts_numpy_and_stores_float(site):
    result = site.call(np.float64(site.good))
    if site.stored is not None:
        value = site.stored(result)
        assert type(value) is float and value == site.good


def test_rejections_are_value_errors_naming_the_argument():
    with pytest.raises(ValueError, match="epsilon must be a finite real number >= 0"):
        fp.certify(G, fp.residue_partition(3, 6), "0.5")
    with pytest.raises(ValueError, match="modulus must be an integer >= 1, got 2.5"):
        fp.residue_partition(2.5, 10)


def test_integer_too_long_to_print_is_named_by_its_size():
    with pytest.raises(InvalidGramData, match="modulus must be an integer >= 1, got an "
                                              "integer of about 5001 digits"):
        fp.residue_partition(-10**5000)


@pytest.mark.parametrize("value,shown", [
    (Fraction(10**5000, 3), "numerator has about 5001 digits and denominator about 1"),
    (Fraction(1, 10**5000), "numerator has about 1 digits and denominator about 5001"),
])
def test_rational_too_long_to_print_is_named_by_its_size(value, shown):
    with pytest.raises(InvalidGramData, match=f"modulus must be an integer >= 1, got a "
                                              f"rational whose {shown}"):
        fp.residue_partition(value)


def test_real_too_large_for_float64_is_named_by_its_size():
    with pytest.raises(InvalidGramData, match="epsilon must be a finite real number >= 0, got a "
                       "rational whose numerator has about 5001 digits and denominator about 1"):
        fp.certify(G, fp.residue_partition(3, 6), Fraction(-10**5000, 3))
    with pytest.raises(InvalidGramData, match="diag_floor must be a finite real number >= 0, "
                                              "got an integer of about 401 digits"):
        fp.gram_loads('{"size": 1, "entries": [[1.0]], "diag_floor": 1%s}' % ("0" * 400))


def test_index_past_int64_is_beyond_the_truncation():
    for index in (2**70, -2**70):
        with pytest.raises(IndexBeyondTruncation):
            fp.GramSystem.from_entries([[1.0]]).submatrix([index])


def test_numpy_modulus_certificate_serializes():
    cert = fp.certify(G, fp.Paving(None, np.int64(3), None))
    assert json.loads(json.dumps(fp.certificate_to_json_dict(cert)))["modulus"] == 3


def test_float32_amplitude_is_written_as_a_python_float():
    text = fp.gram_dumps(G.with_envelope(fp.DecayEnvelope(np.float32(1), 2)))
    assert '"A": 1.0,' in text and '"s": 2.0' in text
