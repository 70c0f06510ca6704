"""Certified enclosures for the monotone power sums the certificates rest on.

Every constant here is a value of the Hurwitz zeta function, or a lattice
sum ``sum_{k>=0} (c + k*h)**(-s)`` of the same kind, and each is enclosed by
one routine: the Euler–Maclaurin formula with a rigorous remainder bound
(F. Johansson, "Rigorous high-precision computation of the Hurwitz zeta
function and its derivatives", Numer. Algorithms 69, 2015).  With
``f(t) = (c + t*h)**(-s)`` and ``y = c + N*h``,

    sum_{k>=0} f(k) = sum_{k<N} f(k) + y**(1-s) / (h*(s-1)) + f(N)/2
                      + sum_{j=1}^{M} B_{2j}/(2j)! * (s)_{2j-1} h**(2j-1) y**(-s-2j+1)
                      + R,

    |R| <= 4 / (2*pi)**(2M) * (s)_{2M-1} h**(2M-1) y**(-s-2M+1),

where ``(s)_n`` is the rising factorial.  The bound on R holds because the
periodic Bernoulli function satisfies ``|B_{2M}(t)| / (2M)! <= 4/(2*pi)**(2M)``
and ``f^(2M)`` has constant sign.  N = 10 head terms and M = 8 corrections
leave R far below float64 resolution for moderate s, in about ten
microseconds.  Where the corrections would grow (s large against
``2*pi*y/h``) the formula is cut at M = 0, whose remainder is at most
``f(N)/2``; there the head alone carries the value.

An explicit allowance covers float64 rounding: each part's relative error
is bounded (``pow`` within 2 ulp, one rounding per other operation), the
bounds are summed, doubled for second-order terms, and an absolute floor of
2**-1000 covers underflow.  No general interval arithmetic is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import sys

from .errors import InvalidExponent, InvalidGramData, require_real

_EPS = sys.float_info.epsilon  # float64's, without importing numpy
_U = _EPS / 2.0  # unit roundoff

_HEAD_TERMS = 10
# Integers below this are exact in float64, and so are their sums with the
# few head offsets.
_EXACT_LIMIT = 2.0 ** 53
# B_{2j} / (2j)! for j = 1..8.
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000)
_TWO_PI = 2.0 * math.pi
_REMAINDER_SCALE = 4.0 / _TWO_PI ** (2 * len(_BERNOULLI))
# Absolute allowance for underflow: every operation that underflows errs by
# at most 2**-1074, later factors grow that by at most (2*pi)**15 < 2**40,
# and there are fewer than 2**7 operations.
_UNDERFLOW = 2.0 ** -1000
# Rounded bases cost a relative 3*s*u per term while s*u stays tiny.
_MAX_INEXACT_EXPONENT = 2.0 ** 40


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; the certified enclosure currency."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"not an interval: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def as_pair(self) -> list[float]:
        return [self.lo, self.hi]


def require_exponent(s: float) -> float:
    """``s`` as a Python float under the real-number rule, with s > 1;
    otherwise ``InvalidExponent``."""
    try:
        return require_real(s, "decay exponent s", 1, strict=True)
    except InvalidGramData as exc:
        raise InvalidExponent(str(exc)) from None


def _power_series(s: float, c: float, h: float) -> Interval:
    """Euler–Maclaurin enclosure of sum_{k>=0} (c + k*h)**(-s).

    Needs s > 1, an exact base c > 0 and a spacing h >= 1 (the underflow
    floor relies on it).  A base at or beyond 2**53 takes no head terms, so
    no base is ever rounded there; below it, bases ``c + k*h`` are exact
    when c and h are integers, and otherwise each costs a relative
    ``3*s*u`` through ``(1 - 2u)**(-s)``.
    """
    n = _HEAD_TERMS if c < _EXACT_LIMIT else 0
    try:
        head = [(c + k * h) ** -s for k in range(n)]
        y = c + n * h
        integral = y ** (1.0 - s) / (h * (s - 1.0))
        p = y ** -s
    except OverflowError:
        raise ValueError(f"power series at s={s}, base {c} exceeds float64") from None
    z = h / y
    corrections = []
    if (s + 2 * len(_BERNOULLI) - 1) * z <= _TWO_PI:
        # Every factor (s + i)*z below is at most 2*pi: no overflow, and the
        # remainder's factors (s + i)*z/(2*pi) are at most 1.
        q = p * s * z
        for j, b in enumerate(_BERNOULLI):
            if j:
                q *= (s + 2 * j - 1) * z
                q *= (s + 2 * j) * z
            corrections.append(b * q)
        remainder = _REMAINDER_SCALE * q
    else:
        remainder = 0.5 * p
    value = math.fsum(head + [integral, 0.5 * p] + corrections)
    head_sum = math.fsum(head)
    correction_mass = sum(abs(t) for t in corrections)
    # Relative error bounds in units of u: pow 4 (2 ulp); the integral adds a
    # product and a division (1 - s and s - 1 are exact below 2**53, and
    # beyond it the tail underflows); a correction carries p, 15 factors of
    # 4 each and the literal; the final fsum rounds once.
    err = _U * (4.0 * head_sum + 6.0 * integral + 2.0 * p
                + 66.0 * correction_mass + abs(value))
    if n and not (c.is_integer() and h.is_integer() and y < _EXACT_LIMIT):
        if s > _MAX_INEXACT_EXPONENT:
            raise ValueError(
                f"exponent {s} is too large to certify a sum whose bases round")
        tail = integral + 0.5 * p + correction_mass + remainder
        err += 3.0 * s * _U * (head_sum + tail)
    # Doubling covers second-order terms and the roundings of this sum; the
    # remainder bound is doubled for the roundings in computing it.
    slack = 2.0 * (err + remainder) + _UNDERFLOW
    hi = math.nextafter(value + slack, math.inf)
    if not math.isfinite(hi):
        raise ValueError(f"power series at s={s}, base {c} exceeds float64")
    return Interval(max(0.0, math.nextafter(value - slack, -math.inf)), hi)


def hurwitz_zeta(s: float, a: float) -> Interval:
    """Certified enclosure of the Hurwitz zeta value sum_{k>=0} (a + k)**(-s).

    Real s > 1 and a > 0.  The width is a few float64 ulps of the value;
    values below 2**-1000 come back as ``[0, 2**-1000]`` or so.  Raises
    ``ValueError`` when the value overflows float64, and for a non-integer
    a below 2**53 with s > 2**40 (its rounded bases cannot be bounded).
    """
    s = require_exponent(s)
    a = require_real(a, "Hurwitz zeta a", 0, strict=True)
    return _power_series(s, a, 1.0)


def shifted_power_sum(step: float, s: float) -> Interval:
    """Certified enclosure of sum_{k>=1} (1 + k*step)**(-s).

    This is the per-class tail mass of an index set with consecutive gaps
    >= step under a power-law envelope, ``step**(-s) * zeta(s, 1 + 1/step)``,
    summed directly over the exact bases ``1 + step + k*step``.  Needs
    ``step >= 1`` with ``1 + step`` exact in float64 (every integer step
    below 2**53).  The width is a few ulps of the value.
    """
    s = require_exponent(s)
    step = require_real(step, "separation step", 1)
    if math.fsum((1.0, step, -(1.0 + step))) != 0.0:
        raise ValueError(f"separation step {step} is too fine: 1 + step rounds")
    return _power_series(s, 1.0 + step, step)
