"""Exception types shared across the package, and the JSON reader that
turns every fault of bad text into one of them."""

import itertools
import json
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


class InvalidGramData(FramePaverError):
    """A serialized payload failed schema or invariant validation."""


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
