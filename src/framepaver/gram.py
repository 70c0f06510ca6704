"""Cross-Gram systems: a finite truncation plus an optional power-law tail model.

The central object is :class:`GramSystem`, the matrix of pairing moduli
``|f_n(tau_m)|`` for a biorthogonal-like system, stored for indices
``1..size``.  Everything downstream consumes moduli only, so entries are
nonnegative reals.  Two optional assertions extend a truncation to all of
the naturals:

* a :class:`DecayEnvelope` ``(amplitude, exponent)`` asserting
  ``|f_n(tau_m)| <= amplitude / (1 + |n-m|)**exponent`` for every n != m, and
* a ``diag_floor`` asserting ``inf_n |f_n(tau_n)| >= diag_floor``.

Entries within the truncation are exact data; entries beyond it are known
only through those assertions, which is what :func:`entry_bound` encodes.

A system is stored as bands by one rule, which every constructor and both
wire forms go through (:meth:`GramSystem._from_bands`): offsets (column -
row) run up to the last one holding a nonzero entry, and an offset whose
entries are bitwise equal keeps one value, any other an array.  Storage
thus depends only on the entries, memory is O(size * bandwidth), and a
system survives a round trip through the wire format unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .bounds import _EPS, Interval, hurwitz_zeta, require_exponent
from .errors import (
    IndexBeyondTruncation,
    InvalidExponent,
    InvalidGramData,
    parse_json,
    require_int,
    require_keys,
    require_real,
)

# envelope.bound is a pow (within 2 ulp) and a division: relative error at
# most 5u.  Scaling by 1 + 8 eps and rounding leaves at least 1 + 14u, so a
# stored entry equal to the bound passes, and an unobserved entry charged
# at bound * _ENVELOPE_UP is never undercharged.
_ENVELOPE_UP = 1.0 + 8.0 * _EPS

# A diagonal may dip this far below its asserted floor; sound because
# diag_lower_bound reports min(observed, floor).
_FLOOR_HEADROOM = 1e-9


@dataclass(frozen=True)
class DecayEnvelope:
    """Power-law off-diagonal bound amplitude/(1+distance)**exponent."""

    amplitude: float
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", require_exponent(self.exponent))
        object.__setattr__(self, "amplitude",
                           require_real(self.amplitude, "envelope amplitude", 0, strict=True))

    def bound(self, distance) -> float:
        """Envelope value at an index distance >= 1 (vectorizes over arrays)."""
        return self.amplitude / (1.0 + distance) ** self.exponent


class Violation(NamedTuple):
    n: int
    m: int
    excess: float


@dataclass(frozen=True)
class EnvelopeVerdict:
    passed: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class EnvelopeFit:
    envelope: DecayEnvelope
    objective: float


def _bands_of_square(arr: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Bands -b..b end to end and their lengths, for
    :meth:`GramSystem._from_bands`, of a square array, where b is the last
    offset holding a nonzero entry (NaN counts).

    Diagonals are read as views from the widest offset inward, so a narrow
    square is not copied whole; storage is decided by ``_from_bands``.
    """
    size = arr.shape[0]
    b = size - 1
    while b and not (np.diagonal(arr, b).any() or np.diagonal(arr, -b).any()):
        b -= 1
    offsets = range(-b, b + 1)
    return (np.concatenate([np.diagonal(arr, o) for o in offsets]),
            [size - abs(o) for o in offsets])


class GramSystem:
    """Immutable nonnegative cross-Gram truncation with optional tail model.

    Indices are 1-based throughout the public interface.  ``_data`` holds
    the bands -b..b end to end, 0-based entry (r, r + o) at
    ``_data[_start[o + b] + _step[o + b] * min(r, r + o)]`` (step 0 for a
    band of one value); entries beyond the band are zero.  Construction
    validates every stored invariant: finite nonnegative entries, every
    off-diagonal entry under the envelope, and the diagonal at the asserted
    floor.
    """

    __slots__ = ("_data", "_start", "_step", "_size", "envelope", "diag_floor")

    def __init__(self, *, data, size, envelope, diag_floor, start, step):
        self._data = data
        self._start = start
        self._step = step
        self._size = size
        self.envelope = envelope
        self.diag_floor = diag_floor if diag_floor is None \
            else require_real(diag_floor, "diag_floor", 0)
        self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, entries, envelope: DecayEnvelope | None = None,
                     diag_floor: float | None = None) -> "GramSystem":
        """Construction from a square array of moduli."""
        arr = _library_floats(entries, "entries", 2)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidGramData(f"entries must be a square matrix, got shape {arr.shape}")
        size = int(arr.shape[0])
        return cls._from_bands(*_bands_of_square(arr), size, envelope, diag_floor)

    @classmethod
    def from_distance_profile(cls, profile, envelope: DecayEnvelope | None = None,
                              diag_floor: float | None = None) -> "GramSystem":
        """Toeplitz construction: entry(n, m) = profile[|n - m|].

        ``profile`` has length size; profile[0] is the diagonal value.
        """
        prof = _library_floats(profile, "distance profile", 1)
        if prof.ndim != 1 or prof.size < 1:
            raise InvalidGramData("distance profile must be a nonempty vector")
        return cls._from_bands(np.concatenate((prof[:0:-1], prof)),
                               np.ones(2 * prof.size - 1, dtype=np.int64), int(prof.size),
                               envelope, diag_floor)

    @classmethod
    def from_cyclic_profile(cls, profile, size: int,
                            envelope: DecayEnvelope | None = None,
                            diag_floor: float | None = None) -> "GramSystem":
        """Circulant construction: entry(n, m) = profile[min(d, size - d)], d = |n - m|.

        ``profile`` has length size//2 + 1, indexed by cyclic distance; the
        system stores the distance profile it implies.
        """
        prof = _library_floats(profile, "cyclic profile", 1)
        size = require_int(size, "size", 1)
        if prof.ndim != 1 or prof.size != size // 2 + 1:
            raise InvalidGramData(
                f"cyclic profile must have length {size // 2 + 1} for size {size}")
        d = np.arange(size)
        return cls.from_distance_profile(prof[np.minimum(d, size - d)], envelope, diag_floor)

    @classmethod
    def _from_bands(cls, values, lengths, size, envelope, diag_floor) -> "GramSystem":
        """Band storage of the offsets -b..b given end to end in ``values``
        (length 1 for one value); the one place storage is decided.

        Outer offsets whose +-pair holds no nonzero entry are dropped (NaN
        counts as nonzero, so validation sees it), and an offset whose
        entries are bitwise equal keeps one value, so 0.0 and -0.0 stay
        apart.  Each test is one reduction per offset over the whole array,
        and temporaries are no larger than what is kept.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        start = np.cumsum(lengths) - lengths
        bits = values.view(np.int64)
        same = np.maximum.reduceat(bits, start) == np.minimum.reduceat(bits, start)
        nonzero = (np.maximum.reduceat(values, start) != 0.0) \
            | (np.minimum.reduceat(values, start) != 0.0)
        offsets = np.abs(np.arange(len(lengths)) - len(lengths) // 2)
        keep = offsets <= offsets[nonzero].max(initial=0)
        lengths, start = np.where(same, 1, lengths)[keep], start[keep]
        end = np.cumsum(lengths)
        if end[-1] < values.size:
            values = values[np.arange(end[-1]) + (start - end + lengths).repeat(lengths)]
        values.setflags(write=False)
        return cls(data=values, size=size, envelope=envelope, diag_floor=diag_floor,
                   start=end - lengths, step=np.minimum(lengths - 1, 1))

    # -- invariants ---------------------------------------------------------

    def _validate(self) -> None:
        # min and max propagate NaN, which fails both comparisons
        if not (self._data.min() >= 0.0 and self._data.max() < math.inf):
            raise InvalidGramData("entries must be finite nonnegative moduli")
        if self.envelope is not None and not isinstance(self.envelope, DecayEnvelope):
            raise InvalidGramData("envelope must be a DecayEnvelope")
        if self.diag_floor is not None:
            low = float(self._stored(0).min())
            if low < self.diag_floor - _FLOOR_HEADROOM:
                raise InvalidGramData(
                    f"diagonal dips to {low} below asserted floor {self.diag_floor}")
        if self.envelope is not None:
            verdict = verify_envelope(self, self.envelope)
            if not verdict.passed:
                n, m, excess = verdict.violations[0]
                raise InvalidGramData(
                    f"entries exceed the asserted envelope at ({n}, {m}) by {excess} "
                    f"({len(verdict.violations)} violating distances)")

    # -- accessors -----------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def entry(self, n: int, m: int) -> float:
        """Stored modulus at 1-based indices within the truncation."""
        n, m = require_int(n, "index n", None), require_int(m, "index m", None)
        if not (1 <= n <= self._size and 1 <= m <= self._size):
            raise IndexBeyondTruncation(
                f"entry ({n}, {m}) is outside the stored truncation 1..{self._size}")
        return float(self._block([n], [m])[0, 0])

    def diag(self) -> np.ndarray:
        return self._diagonal(0)

    def with_envelope(self, envelope: DecayEnvelope | None) -> "GramSystem":
        """The same stored entries and floor under another envelope, re-verified."""
        return GramSystem(data=self._data, size=self._size, envelope=envelope,
                          diag_floor=self.diag_floor, start=self._start, step=self._step)

    def dense(self) -> np.ndarray:
        """Materialize the full matrix; O(size^2) memory."""
        n = self._size
        out = np.zeros((n, n))
        flat = out.reshape(-1)  # diagonal o starts at flat index max(o, -o*n), stride n + 1
        b = self.bandwidth()
        for o in range(-b, b + 1):
            flat[max(o, -o * n):max(o, -o * n) + (n - abs(o)) * (n + 1):n + 1] = self._diagonal(o)
        return out

    def submatrix(self, indices: Iterable[int]) -> np.ndarray:
        """Principal submatrix at the given 1-based indices (given order)."""
        pos = [require_int(i, "index", None) for i in indices]
        if pos and (min(pos) < 1 or max(pos) > self._size):
            raise IndexBeyondTruncation(
                f"indices must lie in 1..{self._size}")
        return self._block(pos, pos)

    def bandwidth(self) -> int:
        """Largest |n - m| carrying a nonzero entry (0 for diagonal systems),
        which is the stored b."""
        return len(self._start) // 2

    def __repr__(self) -> str:
        return (f"GramSystem(size={self._size}, "
                f"envelope={self.envelope}, diag_floor={self.diag_floor})")

    def _block(self, rows, cols) -> np.ndarray:
        """Entries at 1-based rows x cols, checked by the caller.

        Bands fill one row at a time, so temporaries stay O(len(cols)).
        """
        r = np.asarray(rows, dtype=np.int64) - 1
        c = np.asarray(cols, dtype=np.int64) - 1
        out = np.empty((r.size, c.size))
        for i, row in enumerate(r.tolist()):
            at = self._positions(row, c)  # the out-of-band position clips in range, then gets 0
            out[i] = np.where(at < self._data.size, self._data.take(at, mode="clip"), 0.0)
        return out

    def _positions(self, r, c) -> np.ndarray:
        """Positions in ``_data`` of the 0-based entries (r, c), broadcast
        together; ``_data.size`` where c - r lies beyond the stored band."""
        b, o = self.bandwidth(), c - r
        at = o + b  # an out-of-band offset reads a clipped band, then is replaced
        pos = self._start.take(at, mode="clip") \
            + self._step.take(at, mode="clip") * np.minimum(r, c)
        return np.where(np.abs(o) <= b, pos, self._data.size)

    def _diagonal(self, o: int) -> np.ndarray:
        """Read-only view of the size - |o| entries (r, r + o); |o| within the stored band."""
        i = o + self.bandwidth()  # a step of 0 repeats one value along the view
        return np.ndarray((self._size - abs(o),), np.float64, self._data,
                          8 * self._start[i], (8 * self._step[i],))

    def _stored(self, o: int) -> np.ndarray:
        """The values band o stores: its one value at step 0, else its
        diagonal; a reduction over them costs what is stored, not the size."""
        i = o + self.bandwidth()
        at = self._start[i]
        return self._data[at:at + (self._size - abs(o) if self._step[i] else 1)]

    def _distance_values(self) -> np.ndarray:
        """Largest stored modulus at each distance d = 1..b, at index d - 1;
        each band reduces in one pass.  Entries past b are zero."""
        b, peak = self.bandwidth(), np.maximum.reduceat(self._data, self._start)
        return np.maximum(peak[b + 1:], peak[:b][::-1])

    def _peak_pair(self, d: int) -> tuple[int, int]:
        """Smallest 1-based (n, m) holding the largest entry at distance d."""
        upper, lower = self._stored(d), self._stored(-d)  # argmax of one value is row 1
        i, j = int(upper.argmax()), int(lower.argmax())  # rows i + 1 and j + 1 + d
        if upper[i] > lower[j] or (upper[i] == lower[j] and i < j + d):
            return i + 1, i + 1 + d
        return j + 1 + d, j + 1


def entry_bound(g: GramSystem, n: int, m: int) -> Interval:
    """Certified enclosure of |f_n(tau_m)|, inside or beyond the truncation.

    Within the truncation the stored value is exact, so the interval is a
    point.  Beyond it only the envelope speaks, and only off the diagonal:
    the tail model never bounds |f_n(tau_n)| from above.  The upper end,
    ``bound(d) * _ENVELOPE_UP``, is what construction admits and margins charge.
    """
    n, m = require_int(n, "index n", 1), require_int(m, "index m", 1)
    if n <= g.size and m <= g.size:
        v = g.entry(n, m)
        return Interval(v, v)
    if n == m:
        raise IndexBeyondTruncation(
            f"diagonal entry ({n}, {n}) is beyond the truncation; the envelope "
            "bounds off-diagonal entries only")
    if g.envelope is None:
        raise IndexBeyondTruncation(
            f"entry ({n}, {m}) is beyond the truncation and no envelope is attached")
    return Interval(0.0, g.envelope.bound(abs(n - m)) * _ENVELOPE_UP)


def certified_min_amplitude(g: GramSystem, exponent: float) -> float:
    """Smallest amplitude A making A/(1+|n-m|)**exponent cover the truncation.

    Exact for the stored entries (max of entry * (1+d)**exponent over all
    off-diagonal pairs); any globally valid amplitude is at least this.
    Distances past the bandwidth hold zeros and add nothing.
    """
    s = require_exponent(exponent)
    values = g._distance_values()
    if values.size == 0:
        return 0.0
    return float(np.max(values * (1.0 + np.arange(1, values.size + 1)) ** s))


def verify_envelope(g: GramSystem, envelope: DecayEnvelope) -> EnvelopeVerdict:
    """Check every stored off-diagonal entry against the envelope.

    An entry violates when it exceeds ``envelope.bound(d)`` by more than the
    float64 evaluation error of the bound itself (a few ulp), so a system
    whose entries equal the bound never fails on rounding noise.  On failure
    the verdict carries one violation per violating distance, in order of
    distance: the pair holding the largest entry at that distance (smallest
    row first on ties) and its excess over the bound.  Distances past the
    bandwidth hold zeros, which never violate.
    """
    values = g._distance_values()
    bound = envelope.bound(np.arange(1, values.size + 1, dtype=np.float64))
    violations = []
    for k in np.flatnonzero(values > bound * _ENVELOPE_UP):
        n, m = g._peak_pair(int(k) + 1)
        violations.append(Violation(n, m, float(values[k] - bound[k])))
    return EnvelopeVerdict(passed=not violations, violations=tuple(violations))


def diag_lower_bound(g: GramSystem) -> float:
    """Certified lower bound for the diagonal: the smallest stored diagonal
    entry, and with a floor asserted the smaller of it and the floor, which
    then bounds the diagonal over all of the naturals."""
    observed = float(g._stored(0).min())
    return observed if g.diag_floor is None else min(observed, g.diag_floor)


_FIT_GRID = tuple(round(1.1 + 0.1 * i, 1) for i in range(50))


def fit_envelope(g: GramSystem) -> EnvelopeFit:
    """Heuristic envelope fit: coarse grid over the exponent.

    For each grid exponent the amplitude is the certified minimum for the
    truncation, and the objective is the implied uniform bound on one row's
    off-diagonal mass over all of the naturals, 2*A*(zeta(s)-1).  The fit is
    a convenience for ingest; certificates must re-verify any envelope they
    rely on (attaching the fit to a GramSystem does exactly that).
    """
    fits = ((s, certified_min_amplitude(g, s)) for s in _FIT_GRID)
    # the smallest objective, the largest exponent on ties
    objective, neg_s, amplitude = min((2.0 * a * (hurwitz_zeta(s, 1.0).hi - 1.0), -s, a)
                                      for s, a in fits)
    if amplitude <= 0.0:
        # No off-diagonal mass: any envelope is valid; report a token one.
        amplitude = float(np.finfo(np.float64).tiny)
    return EnvelopeFit(DecayEnvelope(amplitude, -neg_s), objective)


# -- serialization ----------------------------------------------------------
#
# Wire schema:
#   {
#     "size": int,
#     "entries": [[...], ...]                      (dense, row-major)
#              | {"banded": {"bandwidth": b, "bands": [...]}}
#     "envelope": {"A": float, "s": float} | null,
#     "diag_floor": float | null
#   }
#
# In the banded form, bands run over offsets o = -b..+b (offset = column -
# row); band i holds the diagonal at offset i - b, length size - |offset|;
# entries beyond the band are implicitly zero.  Both forms load through
# GramSystem._from_bands, so the same entries get the same storage either
# way; each dense row, once checked, is scattered into the full-width bands
# of one size x size buffer, which _from_bands trims.  The writer picks
# whichever form stores fewer numbers, so serialization is
# content-deterministic, and lays the text out on one line as json.dumps
# does by default (", " and ": " separators, no indentation).  The reader
# takes any JSON layout, the older indented text included.


def gram_to_json_dict(g: GramSystem) -> dict:
    b = g.bandwidth()
    t = g.size
    banded_count = (2 * b + 1) * t - b * (b + 1)
    if banded_count < t * t:
        bands = [g._diagonal(off).tolist() for off in range(-b, b + 1)]
        entries = {"banded": {"bandwidth": b, "bands": bands}}
    else:
        entries = g.dense().tolist()
    envelope = None
    if g.envelope is not None:
        envelope = {"A": g.envelope.amplitude, "s": g.envelope.exponent}
    return {
        "size": t,
        "entries": entries,
        "envelope": envelope,
        "diag_floor": g.diag_floor,
    }


_NUMBER_TYPES = {int, float}


def _require_numbers(values, length: int, what: str) -> np.ndarray:
    """Float64 array of a JSON list of ``length`` finite numbers.

    The type test runs over the whole list at once; ``bool``, strings, null
    and nested lists are rejected.  Errors name ``what``.
    """
    if not isinstance(values, list) or len(values) != length:
        raise InvalidGramData(f"{what} must be a list of {length} numbers")
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise InvalidGramData(f"{what} must hold numbers only, got {type(bad).__name__}")
    try:
        out = np.array(values, dtype=np.float64)
    except OverflowError:
        raise InvalidGramData(f"{what} holds an integer too large for float64") from None
    # NaN fails both; the initial value only lets an empty list pass
    if not (out.min(initial=0.0) > -math.inf and out.max(initial=0.0) < math.inf):
        raise InvalidGramData(f"{what} must be finite")
    return out


def _library_floats(values, what: str, ndim: int) -> np.ndarray:
    """Float64 array of a library caller's vector (``ndim`` 1) or rows
    (``ndim`` 2), by the number rule of JSON input.

    A float64 ndarray is taken as it is, with no pass over its values.  Any
    other input, another ndarray included (through ``tolist``), must be a
    list of numbers, or a non-empty list of equally long, non-empty lists of
    numbers, and goes through ``_require_numbers`` once per row; errors name
    ``what``.  The caller checks the shape it needs.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return values
        values = values.tolist()
    if ndim == 1:
        if not isinstance(values, list):
            raise InvalidGramData(f"{what} must be a list of numbers or a float64 array")
        return _require_numbers(values, len(values), what)
    if not (isinstance(values, list) and values and isinstance(values[0], list) and values[0]):
        raise InvalidGramData(f"{what} must be a non-empty list of non-empty rows")
    return np.array([_require_numbers(row, len(values[0]), f"{what} row {r}")
                     for r, row in enumerate(values)])


def gram_from_json_dict(payload) -> GramSystem:
    """The system of ``{"size", "entries", "envelope", "diag_floor"}`` (the last
    two optional, no other key), ``entries`` dense rows or ``{"banded":
    {"bandwidth", "bands"}}`` and ``envelope`` null or ``{"A", "s"}``.

    Dense rows are checked to be ``size`` lists of ``size`` values before
    their one size x size buffer is allocated, so that buffer is never
    larger than the parsed payload.
    """
    payload = require_keys(payload, "gram payload", ("size", "entries"),
                           ("envelope", "diag_floor"))
    size = require_int(payload["size"], "size", 1)

    raw = payload["entries"]
    if isinstance(raw, dict):
        spec = require_keys(require_keys(raw, "entries", ("banded",))["banded"],
                            "banded entries", ("bandwidth", "bands"))
        bandwidth, bands = require_int(spec["bandwidth"], "bandwidth", 0, size - 1), spec["bands"]
        if not isinstance(bands, list) or len(bands) != 2 * bandwidth + 1:
            raise InvalidGramData(
                f"expected {2 * bandwidth + 1} bands for bandwidth {bandwidth}")
        lengths = [size - abs(off) for off in range(-bandwidth, bandwidth + 1)]
        values = np.concatenate([
            _require_numbers(band, n, f"band at offset {i - bandwidth}")
            for i, (band, n) in enumerate(zip(bands, lengths))])
    else:
        if not isinstance(raw, list) or len(raw) != size:
            raise InvalidGramData(f"entries must be {size} rows")
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != size:
                raise InvalidGramData(f"entries row {r} must be a list of {size} numbers")
        # The bands of every offset -(size - 1)..size - 1; row r's entry c
        # is element min(r, c) of band c - r.
        lengths = size - np.abs(np.arange(1 - size, size))
        start = np.cumsum(lengths) - lengths
        values, cols = np.empty(size * size), np.arange(size)
        for r, row in enumerate(raw):
            values[start[size - 1 - r:2 * size - 1 - r] + np.minimum(cols, r)] = \
                _require_numbers(row, size, f"entries row {r}")

    envelope = payload.get("envelope")
    if envelope is not None:
        require_keys(envelope, "envelope", ("A", "s"))
        try:
            envelope = DecayEnvelope(envelope["A"], envelope["s"])
        except InvalidExponent as exc:
            raise InvalidGramData(f"invalid envelope: {exc}") from None
    return GramSystem._from_bands(values, lengths, size, envelope, payload.get("diag_floor"))


def _wire_pieces(g: GramSystem) -> Iterator[str]:
    """The wire text of ``g`` in pieces: a header, one piece per dense row or
    band, and a trailer.

    Each stored value is formatted once, by the ``float.__repr__`` the JSON
    encoder uses, and each row or band is laid out by indexing those
    strings, so no size x size list of floats is built, and a writer that
    passes the pieces on holds one row of text at a time.
    """
    n, b = g.size, g.bandwidth()
    text = np.array(list(map(float.__repr__, g._data.tolist())), dtype=object)
    if (2 * b + 1) * n - b * (b + 1) < n * n:  # false only at b = n - 1: all stored
        yield f'{{"size": {n}, "entries": {{"banded": {{"bandwidth": {b}, "bands": ['
        rows = (g._positions(r, r + o) for o in range(-b, b + 1)
                for r in [np.arange(max(0, -o), n - max(0, o))])
        close = "]}}"
    else:
        yield f'{{"size": {n}, "entries": ['
        cols = np.arange(n)
        rows = (g._positions(r, cols) for r in range(n))
        close = "]"
    sep = "["
    for at in rows:
        yield "".join((sep, ", ".join(text[at].tolist()), "]"))
        sep = ", ["
    envelope = "null" if g.envelope is None else \
        f'{{"A": {g.envelope.amplitude!r}, "s": {g.envelope.exponent!r}}}'
    floor = "null" if g.diag_floor is None else repr(g.diag_floor)
    yield f'{close}, "envelope": {envelope}, "diag_floor": {floor}}}\n'


def gram_dumps(g: GramSystem) -> str:
    """The wire text of ``g``: the bytes of
    ``json.dumps(gram_to_json_dict(g), allow_nan=False) + "\n"``, that is
    json's default layout on one line, built by joining ``_wire_pieces``.

    A Toeplitz system still goes out as dense rows: a compact Toeplitz form
    waits on certbench, whose check of ``gen`` output reads dense rows.
    """
    return "".join(_wire_pieces(g))


def gram_loads(text: str) -> GramSystem:
    return gram_from_json_dict(parse_json(text))
