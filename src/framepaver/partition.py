"""Residue-class pavings and certified diagonal-dominance margins.

The pipeline realizes a constructive guarantee: given a system whose
off-diagonal moduli obey ``amplitude/(1+|n-m|)**exponent`` and whose
diagonal is at least ``diag_floor``, choosing the smallest modulus M with

    amplitude * separation_constant(exponent) / M**exponent <= diag_floor / 2

and splitting the indices into residue classes mod M makes every class
diagonally dominant with margin at least ``diag_floor / 2``.  The
certificates here bound each class margin

    inf over n in class of (|f_n(tau_n)| - sum_{m in class, m != n} |f_n(tau_m)|)

from below, exactly on observed entries and through the envelope beyond the
truncation, and record honestly whether the verdict speaks for all of the
naturals or only for the stored window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import _U, require_exponent, shifted_power_sum
from .constants import separation_constant
from .errors import (
    InvalidGramData,
    MissingEnvelope,
    PavingCoverageError,
    is_integer,
    require_int,
    require_keys,
    require_real,
)
from .gram import (
    _ENVELOPE_UP,
    DecayEnvelope,
    GramSystem,
    _require_numbers,
    diag_lower_bound,
)

SCOPE_GLOBAL = "global"
SCOPE_TRUNCATION = "truncation-only"


def _class_members(members) -> tuple[int, ...]:
    """The members of one class as a sorted tuple of Python ints.

    Every member must obey the integer rule (:func:`errors.is_integer`) and
    none may repeat; a float, bool, string or repeated member raises
    ``InvalidGramData`` naming it.  Range checks are the caller's.
    """
    members = tuple(members)
    if not set(map(type, members)) <= {int}:  # one C-speed pass over plain ints
        for i in members:
            if not is_integer(i):
                raise InvalidGramData(f"class member {i!r} is not an integer")
        members = tuple(map(int, members))
    out = tuple(sorted(members))
    if len(set(out)) < len(out):
        repeated = next(a for a, b in zip(out, out[1:]) if a == b)
        raise InvalidGramData(f"class member {repeated} is repeated")
    return out


@dataclass(frozen=True)
class ResidueClass:
    """The index set {offset + k*modulus : k >= 0} inside the naturals."""

    offset: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "modulus", require_int(self.modulus, "modulus", 1))
        object.__setattr__(self, "offset", require_int(self.offset, "offset", 1, self.modulus))


@dataclass(frozen=True)
class Paving:
    """A partition of an index range into classes.

    ``range_end=None`` declares a paving of all the naturals, which is only
    representable through residue classes (``modulus`` required, ``classes``
    symbolic).  A finite paving stores explicit sorted classes whose
    disjoint union must be exactly ``1..range_end``; empty classes are legal
    (a residue paving with modulus beyond the range produces them).
    """

    classes: tuple[tuple[int, ...], ...] | None
    modulus: int | None
    range_end: int | None

    def __post_init__(self):
        if self.modulus is not None:
            object.__setattr__(self, "modulus", require_int(self.modulus, "modulus", 1))
        if self.range_end is None:
            if self.modulus is None:
                raise ValueError("a paving of the naturals needs a modulus")
            if self.classes is not None:
                raise ValueError("a paving of the naturals keeps classes symbolic")
            return
        object.__setattr__(self, "range_end", require_int(self.range_end, "range end", 1))
        if self.classes is None:
            raise ValueError("a finite paving needs explicit classes")
        normalized = tuple(map(_class_members, self.classes))
        object.__setattr__(self, "classes", normalized)
        seen: set[int] = set()
        duplicated: set[int] = set()
        for cls in normalized:  # members of one class are distinct
            duplicated |= seen.intersection(cls)
            seen.update(cls)
        # Work stays proportional to the members supplied, not to range_end.
        extra = {i for i in seen if not 1 <= i <= self.range_end}
        n_missing = self.range_end - (len(seen) - len(extra))
        missing = (i for i in range(1, self.range_end + 1) if i not in seen)
        if n_missing or extra or duplicated:
            raise PavingCoverageError(missing=missing, extra=extra, duplicated=duplicated,
                                      n_missing=n_missing)
        # The class count is checked first, so a huge modulus costs nothing.
        if self.modulus is not None and (len(normalized) != self.modulus or any(
                cls != tuple(range(j, self.range_end + 1, self.modulus))
                for j, cls in enumerate(normalized, start=1))):
            raise ValueError(f"classes do not match the residue classes mod {self.modulus}")

    @property
    def n_classes(self) -> int:
        if self.range_end is None:
            return self.modulus
        return len(self.classes)

    @property
    def min_separation(self) -> float:
        """Smallest gap between consecutive members of any class."""
        if self.range_end is None:
            return float(self.modulus)
        gaps = [b - a for cls in self.classes for a, b in zip(cls, cls[1:])]
        return float(min(gaps)) if gaps else math.inf

    def residue_classes(self) -> tuple[ResidueClass, ...]:
        if self.modulus is None:
            raise ValueError("paving has no residue structure")
        return tuple(ResidueClass(j, self.modulus) for j in range(1, self.modulus + 1))


def residue_partition(modulus: int, range_end: int | None = None) -> Paving:
    """Canonical minimal-separation paving: residue classes mod ``modulus``.

    With ``range_end=None`` the paving covers all the naturals symbolically;
    otherwise classes are materialized over ``1..range_end``.  Within every
    class consecutive members differ by exactly the modulus.
    """
    modulus = require_int(modulus, "modulus", 1)
    if range_end is None:
        return Paving(classes=None, modulus=modulus, range_end=None)
    range_end = require_int(range_end, "range end", 1)
    classes = tuple(tuple(range(j, range_end + 1, modulus))
                    for j in range(1, modulus + 1))
    return Paving(classes=classes, modulus=modulus, range_end=range_end)


def choose_modulus(amplitude: float, exponent: float, diag_floor: float) -> int:
    """Smallest modulus M with amplitude*kappa_s/M**s <= diag_floor/2.

    The closed-form candidate ``ceil((2*amplitude*kappa_s/diag_floor)**(1/s))``
    is computed with the radicand nudged up one ulp, then the inequality is
    re-checked directly so the returned M is exact regardless of rounding;
    equality counts as satisfied.
    """
    s = require_exponent(exponent)
    amplitude = require_real(amplitude, "amplitude", 0)
    diag_floor = require_real(diag_floor, "diagonal floor", 0, strict=True)
    if amplitude == 0.0:
        return 1
    kappa = separation_constant(s)
    target = diag_floor / 2.0
    radicand = math.nextafter(2.0 * amplitude * kappa / diag_floor, math.inf)
    m = max(1, math.ceil(radicand ** (1.0 / s)))
    while amplitude * kappa / float(m) ** s > target:
        m += 1
    while m > 1 and amplitude * kappa / float(m - 1) ** s <= target:
        m -= 1
    return m


def _min_margin(rows) -> float:
    """Largest float at or below the smallest row margin; ``rows`` yields
    (row as a list, position i of its diagonal).

    A row with its diagonal negated sums exactly to minus its margin, and
    fsum rounds that sum correctly.  A rounded margin above the running
    minimum cannot lower it and is skipped.  Otherwise a second fsum with
    the rounded margin appended gives the sign of the rounding error: when
    positive the rounded margin overstates, and the float below it is at or
    below the exact margin.
    """
    out = math.inf
    for row, i in rows:
        row[i] = -row[i]
        margin = 0.0 - math.fsum(row)  # an exact zero margin is +0.0
        if margin > out:
            continue
        row.append(margin)
        if math.fsum(row) > 0.0:
            margin = math.nextafter(margin, -math.inf)
        out = margin
    return out


def _strided_candidates(g: GramSystem, members: Sequence[int], step: int) -> np.ndarray:
    """Positions of the rows of a class ``step`` apart that can hold its
    smallest margin, in time O(len(members) * bandwidth / step).

    Row sums run in float, one offset at a time.  A sum of n terms errs by at
    most gamma_n = n*u/(1 - n*u) times the sum of their moduli (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4); twice
    that covers the other roundings.  Rows whose lower bound is above the
    smallest upper bound cannot hold the minimum; the rest (all, on
    overflow) are kept.
    """
    k, first = len(members), members[0] - 1
    reach = min(g.bandwidth() // step, k - 1)
    total = np.zeros(k)
    for q in range(-reach, reach + 1):
        lo, hi = max(0, -q), min(k, k - q)  # rows whose neighbour q lies in the class
        if q:  # row lo's entry is element first + lo*step + min(0, q*step) of its diagonal
            run = g._diagonal(q * step)[first + lo * step + min(0, q * step)::step]
            total[lo:hi] += run[:hi - lo]
    diag = g._diagonal(0)[first::step][:k]
    nu = (2 * reach + 2) * _U
    with np.errstate(over="ignore", invalid="ignore"):
        margin, err = diag - total, 2.0 * nu / (1.0 - nu) * (diag + total)
        return np.flatnonzero(~(margin - err > (margin + err).min()))


class _EnvelopeCharges(dict):
    """``envelope.bound(d) * _ENVELOPE_UP`` by distance d, as a Python float."""

    def __init__(self, envelope: DecayEnvelope | None):
        super().__init__()
        self.envelope = envelope

    def __missing__(self, d: int) -> float:
        self[d] = charge = self.envelope.bound(d) * _ENVELOPE_UP
        return charge


def _tail(g: GramSystem, reach: str) -> DecayEnvelope:
    """The envelope of ``g`` if it also has a floor, else ``MissingEnvelope``:
    ``reach`` past the truncation needs whichever of the two is absent."""
    if g.envelope is None or g.diag_floor is None:
        missing = "an envelope" if g.envelope is None else "a global diagonal floor"
        raise MissingEnvelope(f"{reach} needs {missing}")
    return g.envelope


def _explicit_margin(g: GramSystem, members: Sequence[int]) -> float:
    """Largest float at or below the margin of an explicit class, given as
    sorted distinct indices >= 1.

    Each row passes to :func:`_min_margin` the stored entries of the members
    within the stored bandwidth b of it, read by :func:`_stored_windows`,
    where both indices are stored; ``g.envelope.bound(d) * _ENVELOPE_UP`` at
    distance d where either is not; and ``g.diag_floor`` on a diagonal past
    the truncation.  Entries beyond the band are zero and leave an exact sum
    unchanged.  A class of k members inside the truncation costs
    O(k * (b + log k)), and an evenly spaced one only passes the rows
    :func:`_strided_candidates` keeps.  A class reaching past the
    truncation costs O(k^2) time and, as the bounds kept are cleared past 2k
    distances, O(k) memory.
    """
    if not members:
        return math.inf
    k, observed = len(members), bisect.bisect_right(members, g.size)
    gaps = {b - a for a, b in zip(members, members[1:])}
    rows = range(k)
    if observed == k and len(gaps) == 1:
        rows = _strided_candidates(g, members, gaps.pop()).tolist()
    elif observed < k:
        _tail(g, f"a class reaching index {members[-1]} beyond the truncation 1..{g.size}")
    pos = np.asarray(members, dtype=np.int64)
    charges = _EnvelopeCharges(g.envelope)
    windows = _stored_windows(g, pos[:observed], rows[:bisect.bisect_left(rows, observed)])

    def terms(i):  # rows ascend, so the stored ones come first
        if len(charges) > 2 * k:
            charges.clear()
        if i >= observed:
            row = list(map(charges.__getitem__, np.abs(pos - pos[i]).tolist()))
            row[i] = g.diag_floor
            return row, i
        row, at = next(windows)
        if observed < k:
            row += map(charges.__getitem__, (pos[observed:] - pos[i]).tolist())
        return row, at

    return _min_margin(map(terms, rows))


# Most entries _stored_windows gathers at once (one row may hold more).
_GATHER = 1 << 14


def _stored_windows(g: GramSystem, inside: np.ndarray, rows: Sequence[int]):
    """For each of ``rows`` (positions in the sorted stored members
    ``inside``), its stored entries at the members within the stored
    bandwidth b of it, found by bisection, and the position of its diagonal
    among them.  The offsets lie within the band by construction, so one
    gather over the windows of a chunk of rows reads them all.
    """
    b = g.bandwidth()
    lo = np.searchsorted(inside, inside - b)
    width = np.searchsorted(inside, inside + b, side="right") - lo
    chunk = max(1, _GATHER // max(1, min(inside.size, 2 * b + 1)))
    for first in range(0, len(rows), chunk):
        sel = np.asarray(rows[first:first + chunk], dtype=np.int64)
        n = width[sel]
        ends = n.cumsum()
        cols = inside[np.arange(ends[-1]) + (lo[sel] - ends + n).repeat(n)] - 1
        vals = g._data[g._positions((inside[sel] - 1).repeat(n), cols)].tolist()
        yield from ((vals[e - m:e], d) for e, m, d in
                    zip(ends.tolist(), n.tolist(), (sel - lo[sel]).tolist()))


def _residue_margin(g: GramSystem, modulus: int) -> float:
    """The certified margin of every residue class mod ``modulus``."""
    envelope = _tail(g, "certifying a residue class over all the naturals")
    # Distances within the class are multiples of the modulus, each hit at
    # most twice (one neighbor on each side), uniformly in the base index.
    # Entries may reach bound * _ENVELOPE_UP; each rounding is nudged safe.
    tail = shifted_power_sum(modulus, envelope.exponent)
    amplitude = math.nextafter(envelope.amplitude * _ENVELOPE_UP, math.inf)
    off_hi = math.nextafter(2.0 * amplitude * tail.hi, math.inf)
    return math.nextafter(diag_lower_bound(g) - off_hi, -math.inf)


def class_margin_lower_bound(g: GramSystem, cls) -> float:
    """Certified lower bound on the margin of one class.

    ``cls`` is either an explicit sequence of distinct integers >= 1 or a
    :class:`ResidueClass` over all the naturals.  Past the truncation only
    the envelope and floor ``g`` has verified speak (``g.with_envelope``
    attaches another), and a class reaching there without both raises
    ``MissingEnvelope``.  An explicit class takes one row step: stored
    entries count exactly, an entry past the truncation as its envelope
    bound times (1 + 8 eps), and a diagonal past it as ``g.diag_floor``;
    the result is the largest float at or below the margin of those terms.
    For a residue class the bound, uniform over the class, is

        diag_lower_bound(g) - 2*amplitude*(1 + 8 eps)*sum_{k>=1} (1 + k*modulus)**(-exponent)

    with the series enclosed by :func:`shifted_power_sum`.  Either way it is
    the margin :func:`certify` reports for the class.  Negative results are
    legal (they simply fail certification).
    """
    if isinstance(cls, ResidueClass):
        return _residue_margin(g, cls.modulus)
    members = _class_members(cls)
    if members and members[0] < 1:
        raise ValueError(f"indices are 1-based, got {members[0]}")
    return _explicit_margin(g, members)


@dataclass(frozen=True)
class ARSCertificate:
    """Per-class certified margins of a paving against ``epsilon``.

    Only the measured values are stored; the verdict and its scope follow
    from them.  The verdict is PASS when every margin is at least epsilon.
    Its scope is "global" exactly when the paving covers the naturals
    (certifying one needs the system's envelope and diagonal floor), else
    "truncation-only": nothing is said beyond the stored window.
    """

    paving: Paving
    per_class_margin: tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", require_real(self.epsilon, "epsilon", 0))
        if len(self.per_class_margin) != self.paving.n_classes:
            raise ValueError(f"{len(self.per_class_margin)} margins for "
                             f"{self.paving.n_classes} classes")

    @property
    def passed(self) -> bool:
        return all(m >= self.epsilon for m in self.per_class_margin)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    @property
    def scope(self) -> str:
        return SCOPE_GLOBAL if self.paving.range_end is None else SCOPE_TRUNCATION


def certify(g: GramSystem, paving: Paving, epsilon: float | None = None) -> ARSCertificate:
    """Certify every class of a paving against a margin threshold.

    ``epsilon`` defaults to half the certified diagonal lower bound, the
    margin the residue construction guarantees.  The paving must cover the
    system's index range; a paving of the naturals needs the system's
    envelope and diagonal floor (``MissingEnvelope`` otherwise).
    """
    epsilon = require_real(diag_lower_bound(g) / 2.0 if epsilon is None else epsilon,
                           "epsilon", 0)
    if paving.range_end is None:
        margins = (_residue_margin(g, paving.modulus),) * paving.modulus
    else:
        if paving.range_end < g.size:
            raise PavingCoverageError(
                missing=range(paving.range_end + 1, g.size + 1))
        margins = tuple(_explicit_margin(g, cls) for cls in paving.classes)
    return ARSCertificate(paving=paving, per_class_margin=margins, epsilon=epsilon)


# -- serialization ----------------------------------------------------------


def paving_to_json_dict(p: Paving) -> dict:
    return {
        "range": "naturals" if p.range_end is None else p.range_end,
        "modulus": p.modulus,
        "classes": None if p.classes is None else [list(c) for c in p.classes],
    }


def paving_from_json_dict(payload) -> Paving:
    """The paving of ``{"range": n | "naturals", "modulus": M | null, "classes":
    [[...], ...] | null}``, where ``modulus`` and ``classes`` may be left out."""
    payload = require_keys(payload, "paving", ("range",), ("modulus", "classes"))
    rng, classes = payload["range"], payload.get("classes")
    range_end = None if rng == "naturals" else require_int(rng, "range other than 'naturals'", 1)
    if classes is not None:
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise InvalidGramData("classes must be a list of index lists")
    try:
        return Paving(classes=classes, modulus=payload.get("modulus"), range_end=range_end)
    except ValueError as exc:
        raise InvalidGramData(f"invalid paving: {exc}") from None


def certificate_to_json_dict(cert: ARSCertificate) -> dict:
    p = cert.paving
    if p.range_end is None:
        classes = {"kind": "residues", "modulus": p.modulus}
    else:
        classes = {"kind": "explicit", "classes": [list(c) for c in p.classes]}
    return {
        "modulus": p.modulus,
        "range": "naturals" if p.range_end is None else p.range_end,
        "classes": classes,
        "margins": [None if math.isinf(m) else m for m in cert.per_class_margin],
        "epsilon": cert.epsilon,
        "scope": cert.scope,
        "verdict": cert.verdict,
    }


def certificate_from_json_dict(payload) -> ARSCertificate:
    """The certificate of a payload exactly as :func:`certificate_to_json_dict`
    writes it (a missing top-level ``modulus`` reads as null), built from its
    ``range``, ``modulus``, class lists, ``margins`` and ``epsilon``."""
    payload = require_keys(payload, "certificate", ("range", "classes", "margins", "epsilon",
                                                    "scope", "verdict"), ("modulus",))
    classes = require_keys(payload["classes"], "certificate classes", ("kind",),
                           ("modulus", "classes"))
    paving = paving_from_json_dict({"range": payload["range"], "modulus": payload.get("modulus"),
                                    "classes": classes.get("classes")})
    margins = payload["margins"]
    if not isinstance(margins, list):
        raise InvalidGramData("margins must be a list")
    numbers = _require_numbers([0 if m is None else m for m in margins],
                               paving.n_classes, "margins").tolist()
    if any(m is None and (paving.classes is None or paving.classes[j])
           for j, m in enumerate(margins)):
        raise InvalidGramData("only the margin of an empty class may be null")
    loaded = tuple(math.inf if m is None else x for m, x in zip(margins, numbers))
    cert = ARSCertificate(paving=paving, per_class_margin=loaded, epsilon=payload["epsilon"])
    written = certificate_to_json_dict(cert)
    differs = [k for k in written if written[k] != payload.get(k)]
    if differs:
        raise InvalidGramData(f"invalid certificate: keys {differs} differ from those its "
                              "range, modulus, class lists, margins and epsilon give")
    return cert
