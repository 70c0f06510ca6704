"""Exception types shared across the package."""

import itertools


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
