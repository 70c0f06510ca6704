"""Certified constants for power-law localization bounds.

Three quantities drive every certificate, and each reduces to Hurwitz zeta
values enclosed by :func:`framepaver.bounds.hurwitz_zeta` (Euler–Maclaurin
with a rigorous remainder bound and a float64 rounding allowance):

* ``zeta(s)``: the Riemann zeta value, ``hurwitz_zeta(s, 1)``, a few ulps
  wide.
* ``sup_decay_sum(s)``: the supremum over real x of
  ``sum_{n>=1} (1 + |n - x|)**(-s)``, the uniform one-row mass of a
  unit-spaced index set, which is exactly ``2*zeta(s) - 1``.
* ``separation_constant(s)``: an admissible constant kappa such that every
  index set with pairwise gaps >= delta has one-row mass at most
  ``kappa / delta**s``.  A delta-separated set has k-th neighbor at distance
  >= k*delta on each side, so ``2*zeta(s)`` is admissible; minimality is not
  claimed.  :func:`verify_separation_bound` stress-tests the claim against
  worst-case arithmetic progressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import (
    Interval,
    hurwitz_zeta,
    require_exponent,
    shifted_power_sum,
)

# The largest instance the exact oracle searches unless told otherwise; the
# search is exponential in the size.  It lives here, apart from the
# numpy-backed oracle, so the CLI parser reads it without importing numpy.
DEFAULT_SIZE_CAP = 16


def zeta(s: float, tol: float = 1e-9) -> Interval:
    """Enclosure of the Riemann zeta function with width <= tol.

    The enclosure is ``hurwitz_zeta(s, 1)``, a few float64 ulps of the value
    wide (under 1e-12 for every s >= 1.01).  Raises ``ValueError`` when tol
    is below that resolution.
    """
    s = require_exponent(s)
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    enc = hurwitz_zeta(s, 1.0)
    if enc.width > tol:
        raise ValueError(
            f"zeta tolerance {tol} is below float64 resolution at s={s} "
            f"(enclosure width {enc.width:.3g})")
    return enc


def separation_constant(s: float) -> float:
    """Admissible constant in the separated-row-mass bound, here 2*zeta(s).

    Uses the upper end of the zeta enclosure so the result errs upward;
    anything >= 2*zeta(s) keeps every downstream certificate valid.
    """
    return 2.0 * hurwitz_zeta(s, 1.0).hi


def sup_decay_sum(s: float) -> Interval:
    """Enclosure of sup over real x of sum_{n>=1} (1 + |n - x|)**(-s).

    The supremum is exactly ``2*zeta(s) - 1``, and the enclosure is
    ``[2*zeta.lo - 1, 2*zeta.hi - 1]`` rounded outward, about twice the
    zeta enclosure wide.  Proof: the one-sided sum is at most the sum over
    all integers n, which has period 1 in x.  For x = m + t with t in
    [0, 1] that sum is ``zeta(s, 1 + t) + zeta(s, 2 - t)``, convex in t
    (every term is) and symmetric about t = 1/2, so its largest value is at
    t = 0 and t = 1, where it equals ``zeta(s) + zeta(s, 2) = 2*zeta(s) - 1``.
    At an integer x = m the one-sided sum is exactly
    ``2*zeta(s) - 1 - zeta(s, m + 1)``, which rises to that bound as m grows.
    """
    s = require_exponent(s)
    z = hurwitz_zeta(s, 1.0)
    lower = math.nextafter(2.0 * z.lo - 1.0, -math.inf)
    upper = math.nextafter(2.0 * z.hi - 1.0, math.inf)
    # The term at n = x alone gives 1.
    return Interval(max(lower, 1.0), upper)


class SeparationCheck(NamedTuple):
    delta: int
    measured: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class SeparationVerdict:
    passed: bool
    worst_ratio: float
    checks: tuple[SeparationCheck, ...]


def verify_separation_bound(s: float, delta_max: int, trunc: int) -> SeparationVerdict:
    """Stress-test the separated-row-mass bound on worst-case progressions.

    For each gap delta, the extremal delta-separated set is an arithmetic
    progression of step delta; the supremal one-row off-diagonal mass over
    its bi-infinite extension is ``2 * sum_{k>=1} (1 + k*delta)**(-s)``,
    measured as twice the upper end of :func:`shifted_power_sum` and compared
    against ``separation_constant(s) / delta**s``.  ``trunc`` is validated
    only; the enclosure needs no truncation.
    """
    s = require_exponent(s)
    delta_max = int(delta_max)
    trunc = int(trunc)
    if delta_max < 1:
        raise ValueError(f"delta_max must be >= 1, got {delta_max}")
    if trunc < 10 * delta_max:
        raise ValueError(f"truncation {trunc} is too short for delta_max {delta_max}; "
                         f"need at least {10 * delta_max}")
    kappa = separation_constant(s)

    def check(delta: int) -> SeparationCheck:
        measured = 2.0 * shifted_power_sum(delta, s).hi
        bound = kappa / float(delta) ** s
        return SeparationCheck(delta, measured, bound, measured * float(delta) ** s / kappa)

    checks = tuple(check(d) for d in range(1, delta_max + 1))
    worst = max(c.ratio for c in checks)
    return SeparationVerdict(passed=all(c.measured <= c.bound for c in checks),
                             worst_ratio=worst, checks=checks)


@dataclass(frozen=True)
class LocalizationConstants:
    """Bundle of the certified constants at one exponent."""

    s: float
    zeta: Interval
    sup_sum: Interval
    separation: float

    def __post_init__(self):
        if self.sup_sum.lo < 1.0:
            raise ValueError("sup of the decay sum is at least 1 (take x at an index)")
        if self.separation < 2.0:
            raise ValueError("separation constant is at least 2 (zeta exceeds 1)")

    @classmethod
    def compute(cls, s: float) -> "LocalizationConstants":
        s = require_exponent(s)
        return cls(s=s, zeta=hurwitz_zeta(s, 1.0), sup_sum=sup_decay_sum(s),
                   separation=separation_constant(s))
