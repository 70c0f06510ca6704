"""Exception types shared across the package, and the JSON reader that
turns every fault of bad text into one of them."""

import itertools
import json
import math
import numbers
import reprlib
import sys


class FramePaverError(Exception):
    """Base class for all framepaver errors."""


class InvalidExponent(FramePaverError):
    """A decay exponent was <= 1; every bound in the library needs s > 1."""


class IndexBeyondTruncation(FramePaverError):
    """An entry outside the stored truncation was requested and no envelope covers it."""


class MissingEnvelope(FramePaverError):
    """A bound over indices beyond the truncation was requested without a tail model."""


class IndexOutOfRange(FramePaverError):
    """A class referenced indices outside the stored truncation."""


class Infeasible(FramePaverError):
    """No partition can reach the requested margin threshold."""


class WindowTooLong(FramePaverError):
    """A translation window longer than the cyclic period was supplied."""


class DimensionMismatch(FramePaverError):
    """Frame vectors and functionals do not share a common dimension."""


class InvalidGramData(FramePaverError, ValueError):
    """A serialized payload or an argument failed schema or invariant
    validation.  It is a ``ValueError`` too, as ``json.JSONDecodeError`` is."""


class PavingCoverageError(FramePaverError):
    """A paving does not exactly cover the declared index range.

    ``missing``, ``extra`` and ``duplicated`` hold the smallest indices of
    each kind, at most ``SHOWN`` of them, and ``n_missing``, ``n_extra`` and
    ``n_duplicated`` count them all.  Missing indices are passed in
    increasing order, with their count when they come as an iterator.
    """

    SHOWN = 10

    def __init__(self, missing=(), extra=(), duplicated=(), *, n_missing=None):
        self.n_missing = len(missing) if n_missing is None else n_missing
        self.n_extra, self.n_duplicated = len(extra), len(duplicated)
        self.missing = tuple(itertools.islice(missing, self.SHOWN))
        self.extra = tuple(sorted(extra)[:self.SHOWN])
        self.duplicated = tuple(sorted(duplicated)[:self.SHOWN])
        parts = []
        for label, shown, count in (("missing indices", self.missing, self.n_missing),
                                    ("indices outside the range", self.extra, self.n_extra),
                                    ("duplicated indices", self.duplicated, self.n_duplicated)):
            if count:
                more = f" and {count - len(shown)} more" if count > len(shown) else ""
                parts.append(f"{label} {list(shown)}{more}")
        super().__init__("paving does not cover the range: " + "; ".join(parts))


def is_integer(value) -> bool:
    """The integer rule: a Python or numpy integer, never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _shown(value) -> str:
    """A number's text, any other value's type name.  An integer or a
    rational with a numerator or denominator of more than 1024 bits, whose
    text is slow and past 4300 digits raises, is described by its size."""
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        bits = [int(part).bit_length() for part in (value.numerator, value.denominator)]
        if max(bits) > 1024:
            num, den = (int(b * math.log10(2)) + 1 for b in bits)
            return f"an integer of about {num} digits" if is_integer(value) else \
                f"a rational whose numerator has about {num} digits and denominator about {den}"
    return str(value) if isinstance(value, numbers.Number) and not isinstance(value, bool) \
        else type(value).__name__


def require_int(value, what: str, low: int | None, high: int | None = None) -> int:
    """``value`` as a Python int when it obeys the integer rule and lies in
    ``low..high`` (no upper limit when ``high`` is None, no range at all when
    ``low`` is None); otherwise ``InvalidGramData`` naming ``what``."""
    if is_integer(value):
        value = int(value)
        if low is None or (value >= low and (high is None or value <= high)):
            return value
    wanted = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise InvalidGramData(f"{what} must be an integer{wanted}, got {_shown(value)}")


def require_real(value, what: str, low: float, *, strict: bool = False) -> float:
    """``value`` as a Python float when it is a finite real, Python or numpy
    but never a bool or a string, at least ``low`` (above it when
    ``strict``); otherwise ``InvalidGramData`` naming ``what``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # described by its size below
            out = math.inf
        if math.isfinite(out) and (out > low if strict else out >= low):
            return out
    raise InvalidGramData(f"{what} must be a finite real number {'>' if strict else '>='} "
                          f"{low}, got {_shown(value)}")


def require_keys(payload, what: str, required, optional=()) -> dict:
    """``payload`` when it is a JSON object holding every key of ``required``
    and none outside ``required`` and ``optional``; otherwise
    ``InvalidGramData`` naming ``what`` and at most ten keys, never a value."""
    if not isinstance(payload, dict):
        raise InvalidGramData(f"{what} must be an object, got {type(payload).__name__}")
    missing = [k for k in required if k not in payload]
    unknown = [k for k in payload if k not in required and k not in optional]
    if missing or unknown:
        faults = [f"lacks {k!r}" for k in missing] + \
            [f"has unknown {reprlib.repr(k)}" for k in unknown[:10]]
        more = len(missing) + len(unknown) - 10
        raise InvalidGramData(f"{what} {', '.join(faults[:10])}"
                              + (f" and {more} more" if more > 0 else "")
                              + f"; it takes keys {list(required)}"
                              + (f" and optionally {list(optional)}" if optional else ""))
    return payload


def parse_json(text: str, label: str | None = None):
    """``json.loads(text)``, raising ``InvalidGramData`` for every fault of
    the text: bad syntax, nesting deeper than the interpreter's recursion
    limit, or an integer longer than its digit limit.  ``label`` (a file
    name) starts the message."""
    where = f"{label}: " if label else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGramData(f"{where}not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidGramData(f"{where}JSON nested too deeply to read") from None
    except ValueError:  # the only other fault json.loads raises on a str
        raise InvalidGramData(f"{where}an integer has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
