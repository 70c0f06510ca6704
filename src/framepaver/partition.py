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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import require_exponent, shifted_power_sum
from .constants import separation_constant
from .errors import (
    InvalidGramData,
    MissingEnvelope,
    PavingCoverageError,
)
from .gram import (
    _ENVELOPE_UP,
    SCOPE_GLOBAL,
    SCOPE_TRUNCATION,
    DecayEnvelope,
    GramSystem,
    diag_lower_bound,
)


@dataclass(frozen=True)
class ResidueClass:
    """The index set {offset + k*modulus : k >= 0} inside the naturals."""

    offset: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1 or not 1 <= self.offset <= self.modulus:
            raise ValueError(
                f"need 1 <= offset <= modulus, got offset={self.offset}, "
                f"modulus={self.modulus}")

    def members_up_to(self, end: int) -> tuple[int, ...]:
        return tuple(range(self.offset, end + 1, self.modulus))


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
        if self.modulus is not None and self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if self.range_end is None:
            if self.modulus is None:
                raise ValueError("a paving of the naturals needs a modulus")
            if self.classes is not None:
                raise ValueError("a paving of the naturals keeps classes symbolic")
            return
        if self.range_end < 1:
            raise ValueError(f"range end must be positive, got {self.range_end}")
        if self.classes is None:
            raise ValueError("a finite paving needs explicit classes")
        normalized = tuple(tuple(sorted(int(i) for i in cls)) for cls in self.classes)
        object.__setattr__(self, "classes", normalized)
        seen: set[int] = set()
        duplicated: set[int] = set()
        for cls in normalized:
            for i in cls:
                if i in seen:
                    duplicated.add(i)
                seen.add(i)
        # Work stays proportional to the members supplied, not to range_end.
        extra = {i for i in seen if not 1 <= i <= self.range_end}
        n_missing = self.range_end - (len(seen) - len(extra))
        missing = (i for i in range(1, self.range_end + 1) if i not in seen)
        if n_missing or extra or duplicated:
            raise PavingCoverageError(missing=missing, extra=extra, duplicated=duplicated,
                                      n_missing=n_missing)
        if self.modulus is not None:
            expected = tuple(tuple(range(j, self.range_end + 1, self.modulus))
                             for j in range(1, self.modulus + 1))
            if normalized != expected:
                raise ValueError(
                    f"classes do not match the residue classes mod {self.modulus}")

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
    modulus = int(modulus)
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if range_end is None:
        return Paving(classes=None, modulus=modulus, range_end=None)
    range_end = int(range_end)
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
    amplitude = float(amplitude)
    diag_floor = float(diag_floor)
    if amplitude < 0.0 or not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite nonnegative, got {amplitude}")
    if diag_floor <= 0.0 or not math.isfinite(diag_floor):
        raise ValueError(f"diagonal floor must be positive, got {diag_floor}")
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


def _class_margin(block) -> float:
    """Largest float at or below min_i (block[i,i] - sum_{j != i} block[i,j]).

    ``block`` is a square float array; an empty one has margin +inf.  Each
    row, with its diagonal negated, sums exactly to minus the row margin,
    and fsum rounds that sum correctly.  A rounded margin above the running
    minimum cannot lower it and is skipped.  Otherwise a second fsum with
    the rounded margin appended gives the sign of the rounding error: when
    positive the rounded margin overstates, and the largest float below it
    is at or below the exact margin.  Rows are converted one at a time, so
    no Python copy of the whole block is made.
    """
    out = math.inf
    for i in range(len(block)):
        row = block[i].tolist()
        row[i] = -row[i]
        margin = 0.0 - math.fsum(row)  # an exact zero margin is +0.0
        if margin > out:
            continue
        row.append(margin)
        if math.fsum(row) > 0.0:
            margin = math.nextafter(margin, -math.inf)
        out = margin
    return out


def _explicit_margin(g: GramSystem, members: Sequence[int],
                     envelope: DecayEnvelope | None,
                     diag_floor: float | None) -> float:
    members = sorted(set(int(i) for i in members))
    if not members:
        return math.inf
    if members[0] < 1:
        raise ValueError(f"indices are 1-based, got {members[0]}")
    if members[-1] <= g.size:
        return _class_margin(g.submatrix(members))
    # Some members lie beyond the truncation: exact entries where observed,
    # envelope bounds elsewhere, asserted floor for unobserved diagonals.
    if envelope is None:
        raise MissingEnvelope(
            f"class reaches index {members[-1]} beyond the truncation "
            f"1..{g.size} and no envelope is available")
    if diag_floor is None:
        raise MissingEnvelope(
            f"class reaches index {members[-1]} beyond the truncation "
            f"1..{g.size} and no global diagonal floor is asserted")
    pos = np.asarray(members, dtype=np.int64)
    dist = np.abs(pos[:, None] - pos[None, :])
    distances = np.unique(dist)
    bounds = np.array([envelope.bound(int(d)) * _ENVELOPE_UP for d in distances])
    block = bounds[np.searchsorted(distances, dist)]
    observed = int(np.count_nonzero(pos <= g.size))
    block[:observed, :observed] = g.submatrix(members[:observed])
    np.fill_diagonal(block[observed:, observed:], float(diag_floor))
    return _class_margin(block)


def _residue_margin(cls: ResidueClass, envelope: DecayEnvelope | None,
                    diag_floor: float | None) -> float:
    if envelope is None:
        raise MissingEnvelope(
            "certifying a residue class over all the naturals needs an envelope")
    if diag_floor is None:
        raise MissingEnvelope(
            "certifying a residue class over all the naturals needs a global "
            "diagonal floor")
    # Distances within the class are multiples of the modulus, each hit at
    # most twice (one neighbor on each side), uniformly in the base index.
    tail = shifted_power_sum(cls.modulus, envelope.exponent)
    off_hi = 2.0 * envelope.amplitude * tail.hi
    # Two roundings (multiply, subtract); nudge down one ulp for each.
    out = float(diag_floor) - off_hi
    return math.nextafter(math.nextafter(out, -math.inf), -math.inf)


def class_margin_lower_bound(g: GramSystem, cls,
                             envelope: DecayEnvelope | None = None,
                             diag_floor: float | None = None) -> float:
    """Certified lower bound on the margin of one class.

    ``cls`` is either an explicit index sequence or a :class:`ResidueClass`
    over all the naturals.  Observed entries contribute exactly, so a class
    inside the truncation gets the largest float at or below its exact
    margin; members beyond the truncation contribute through the envelope
    (and the asserted floor for their diagonals).  For a residue class the
    bound is

        diag_floor - 2*amplitude*sum_{k>=1} (1 + k*modulus)**(-exponent)

    with the series enclosed by :func:`shifted_power_sum`; the bound
    is uniform over the class.  Negative results are legal (they simply fail
    certification).
    """
    if isinstance(cls, ResidueClass):
        return _residue_margin(cls, envelope, diag_floor)
    return _explicit_margin(g, cls, envelope, diag_floor)


@dataclass(frozen=True)
class ARSCertificate:
    """Per-class certified margins plus the global verdict.

    ``scope`` records what the verdict speaks for: "global" only when the
    paving covers the naturals and both tail assertions (envelope and
    diagonal floor) were available; anything else is truncation-only and
    says nothing beyond the stored window.
    """

    paving: Paving
    per_class_margin: tuple[float, ...]
    epsilon: float
    scope: str
    verdict: str

    def __post_init__(self):
        expected = "PASS" if all(m >= self.epsilon for m in self.per_class_margin) \
            else "FAIL"
        if self.verdict != expected:
            raise ValueError(f"verdict {self.verdict!r} contradicts margins")
        if len(self.per_class_margin) != self.paving.n_classes:
            raise ValueError(f"{len(self.per_class_margin)} margins for "
                             f"{self.paving.n_classes} classes")
        if self.scope not in (SCOPE_GLOBAL, SCOPE_TRUNCATION):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.scope == SCOPE_GLOBAL and self.paving.range_end is not None:
            raise ValueError("a finite paving cannot carry a global scope")

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def certify(g: GramSystem, paving: Paving, epsilon: float | None = None) -> ARSCertificate:
    """Certify every class of a paving against a margin threshold.

    ``epsilon`` defaults to half the certified diagonal lower bound, the
    margin the residue construction guarantees.  The paving must cover the
    system's index range.  Scope is "global" exactly when the paving covers
    the naturals and the system carries both an envelope and a diagonal
    floor; a finite paving certifies the truncation only.
    """
    bound = diag_lower_bound(g)
    if epsilon is None:
        epsilon = bound.value / 2.0
    epsilon = float(epsilon)
    if epsilon < 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite nonnegative, got {epsilon}")

    if paving.range_end is None:
        if g.envelope is None or g.diag_floor is None:
            raise MissingEnvelope(
                "a paving of the naturals can only be certified when the system "
                "asserts both an envelope and a global diagonal floor")
        margin = _residue_margin(ResidueClass(1, paving.modulus), g.envelope,
                                 bound.value)
        margins = (margin,) * paving.modulus
        scope = SCOPE_GLOBAL
    else:
        if paving.range_end < g.size:
            raise PavingCoverageError(
                missing=range(paving.range_end + 1, g.size + 1))
        margins = tuple(_explicit_margin(g, cls, g.envelope, g.diag_floor)
                        for cls in paving.classes)
        scope = SCOPE_TRUNCATION

    verdict = "PASS" if all(m >= epsilon for m in margins) else "FAIL"
    return ARSCertificate(paving=paving, per_class_margin=margins,
                          epsilon=epsilon, scope=scope, verdict=verdict)


# -- serialization ----------------------------------------------------------


def paving_to_json_dict(p: Paving) -> dict:
    return {
        "range": "naturals" if p.range_end is None else p.range_end,
        "modulus": p.modulus,
        "classes": None if p.classes is None else [list(c) for c in p.classes],
    }


def paving_from_json_dict(payload) -> Paving:
    if not isinstance(payload, dict):
        raise InvalidGramData("paving payload must be an object")
    rng = payload.get("range")
    modulus = payload.get("modulus")
    classes = payload.get("classes")
    if modulus is not None and (isinstance(modulus, bool) or not isinstance(modulus, int)):
        raise InvalidGramData(f"modulus must be an integer, got {modulus!r}")
    if rng == "naturals":
        range_end = None
    elif isinstance(rng, int) and not isinstance(rng, bool):
        range_end = rng
    else:
        raise InvalidGramData(f"range must be a positive integer or 'naturals', got {rng!r}")
    if classes is not None:
        if not isinstance(classes, list) or not all(isinstance(c, list) for c in classes):
            raise InvalidGramData("classes must be a list of index lists")
        for c in classes:
            for i in c:
                if isinstance(i, bool) or not isinstance(i, int):
                    raise InvalidGramData(f"class member {i!r} is not an integer")
        classes = tuple(tuple(c) for c in classes)
    try:
        return Paving(classes=classes, modulus=modulus, range_end=range_end)
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
    if not isinstance(payload, dict):
        raise InvalidGramData("certificate payload must be an object")
    try:
        classes = payload["classes"]
        rng = payload["range"]
        margins = payload["margins"]
        epsilon = payload["epsilon"]
        scope = payload["scope"]
        verdict = payload["verdict"]
    except (KeyError, TypeError) as exc:
        raise InvalidGramData(f"certificate payload lacks a required key: {exc!r}") from None
    if not isinstance(classes, dict) or "kind" not in classes:
        raise InvalidGramData("certificate classes must carry a 'kind'")
    kind = classes["kind"]
    if kind == "residues":
        members, modulus = None, classes.get("modulus")
    elif kind == "explicit" and isinstance(classes.get("classes"), list):
        members, modulus = classes["classes"], payload.get("modulus")
    else:
        raise InvalidGramData(
            f"certificate classes must be residues or explicit lists, got kind {kind!r}")
    paving = paving_from_json_dict({"range": rng, "modulus": modulus, "classes": members})
    if not isinstance(margins, list):
        raise InvalidGramData("margins must be a list")
    loaded = tuple(math.inf if m is None else float(m) for m in margins)
    try:
        return ARSCertificate(paving=paving, per_class_margin=loaded,
                              epsilon=float(epsilon), scope=str(scope),
                              verdict=str(verdict))
    except (ValueError, TypeError) as exc:
        raise InvalidGramData(f"invalid certificate: {exc}") from None
