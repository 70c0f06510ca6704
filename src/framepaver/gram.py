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

A system is stored either as a dense matrix or, when its entries depend
only on the index distance, as a distance profile; the public contract is
identical, only memory and validation costs differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .bounds import Interval, require_exponent
from .errors import (
    IndexBeyondTruncation,
    InvalidExponent,
    InvalidGramData,
)

SCOPE_GLOBAL = "global"
SCOPE_TRUNCATION = "truncation-only"

# envelope.bound is a pow (within 2 ulp) and a division: relative error at
# most 5u.  Scaling by 1 + 8 eps and rounding leaves at least 1 + 14u, so a
# stored entry equal to the bound passes, and an unobserved entry charged
# at bound * _ENVELOPE_UP is never undercharged.
_ENVELOPE_UP = 1.0 + 8.0 * math.ulp(1.0)

# A diagonal may dip this far below its asserted floor; sound because
# diag_lower_bound reports min(observed, floor).
_FLOOR_HEADROOM = 1e-9

_DENSE = "dense"
_TOEPLITZ = "toeplitz"


@dataclass(frozen=True)
class DecayEnvelope:
    """Power-law off-diagonal bound amplitude/(1+distance)**exponent."""

    amplitude: float
    exponent: float

    def __post_init__(self):
        require_exponent(self.exponent)
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValueError(f"envelope amplitude must be positive, got {self.amplitude}")

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
class DiagonalBound:
    """Lower bound for the Gram diagonal together with its scope of validity."""

    value: float
    scope: str


@dataclass(frozen=True)
class EnvelopeFit:
    envelope: DecayEnvelope
    objective: float


class GramSystem:
    """Immutable nonnegative cross-Gram truncation with optional tail model.

    Indices are 1-based throughout the public interface.  Storage is a dense
    matrix or a distance profile.  Construction validates every stored
    invariant: finite nonnegative entries, every off-diagonal entry under
    the envelope, and the diagonal at the asserted floor.
    """

    __slots__ = ("_mode", "_data", "_size", "envelope", "diag_floor")

    def __init__(self, *, mode, data, size, envelope, diag_floor):
        self._mode = mode
        self._data = data
        self._size = size
        self.envelope = envelope
        self.diag_floor = diag_floor
        self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, entries, envelope: DecayEnvelope | None = None,
                     diag_floor: float | None = None) -> "GramSystem":
        """Dense construction from a square array of moduli.

        The entries are copied unless they are a read-only float64 array
        that owns its data; such an array is kept, and must stay read-only.
        """
        arr = _frozen(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidGramData(f"entries must be a square matrix, got shape {arr.shape}")
        return cls(mode=_DENSE, data=arr, size=int(arr.shape[0]), envelope=envelope,
                   diag_floor=diag_floor)

    @classmethod
    def from_distance_profile(cls, profile, envelope: DecayEnvelope | None = None,
                              diag_floor: float | None = None) -> "GramSystem":
        """Toeplitz construction: entry(n, m) = profile[|n - m|].

        ``profile`` has length size; profile[0] is the diagonal value.  It is
        copied on the terms of :meth:`from_entries`.
        """
        prof = _frozen(profile)
        if prof.ndim != 1 or prof.size < 1:
            raise InvalidGramData("distance profile must be a nonempty vector")
        return cls(mode=_TOEPLITZ, data=prof, size=int(prof.size), envelope=envelope,
                   diag_floor=diag_floor)

    @classmethod
    def from_cyclic_profile(cls, profile, size: int,
                            envelope: DecayEnvelope | None = None,
                            diag_floor: float | None = None) -> "GramSystem":
        """Circulant construction: entry(n, m) = profile[min(d, size - d)], d = |n - m|.

        ``profile`` has length size//2 + 1, indexed by cyclic distance; the
        system stores the distance profile it implies.
        """
        prof = np.asarray(profile, dtype=np.float64)
        size = int(size)
        if size < 1 or prof.ndim != 1 or prof.size != size // 2 + 1:
            raise InvalidGramData(
                f"cyclic profile must have length {size // 2 + 1} for size {size}")
        d = np.arange(size)
        line = prof[np.minimum(d, size - d)]
        line.setflags(write=False)
        return cls.from_distance_profile(line, envelope, diag_floor)

    # -- invariants ---------------------------------------------------------

    def _validate(self) -> None:
        # min and max propagate NaN, which fails both comparisons
        if not (self._data.min() >= 0.0 and self._data.max() < math.inf):
            raise InvalidGramData("entries must be finite nonnegative moduli")
        if self.envelope is not None and not isinstance(self.envelope, DecayEnvelope):
            raise InvalidGramData("envelope must be a DecayEnvelope")
        if self.diag_floor is not None:
            floor = float(self.diag_floor)
            if not (math.isfinite(floor) and floor >= 0.0):
                raise InvalidGramData(f"diag_floor must be finite nonnegative, got {floor}")
            low = float(self.diag().min())
            if low < floor - _FLOOR_HEADROOM:
                raise InvalidGramData(f"diagonal dips to {low} below asserted floor {floor}")
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
        if not (1 <= n <= self._size and 1 <= m <= self._size):
            raise IndexBeyondTruncation(
                f"entry ({n}, {m}) is outside the stored truncation 1..{self._size}")
        if self._mode == _DENSE:
            return float(self._data[n - 1, m - 1])
        return float(self._data[abs(n - m)])

    def diag(self) -> np.ndarray:
        if self._mode == _DENSE:
            return np.diagonal(self._data)
        return np.full(self._size, self._data[0])

    def dense(self) -> np.ndarray:
        """Materialize the full matrix; O(size^2) memory for profile storage."""
        if self._mode == _DENSE:
            return self._data.copy()
        return self.submatrix(range(1, self._size + 1))

    def submatrix(self, indices: Iterable[int]) -> np.ndarray:
        """Principal submatrix at the given 1-based indices (given order)."""
        pos = np.asarray(list(indices), dtype=np.int64)
        if pos.size and (pos.min() < 1 or pos.max() > self._size):
            raise IndexBeyondTruncation(
                f"indices must lie in 1..{self._size}")
        if self._mode == _DENSE:
            return self._data[np.ix_(pos - 1, pos - 1)]
        return self._data[np.abs(pos[:, None] - pos[None, :])]

    def bandwidth(self) -> int:
        """Largest |n - m| carrying a nonzero entry (0 for diagonal systems)."""
        nonzero = np.flatnonzero(self._distance_values())
        return int(nonzero[-1]) + 1 if nonzero.size else 0

    def __repr__(self) -> str:
        return (f"GramSystem(size={self._size}, storage={self._mode}, "
                f"envelope={self.envelope}, diag_floor={self.diag_floor})")

    def _distance_values(self) -> np.ndarray:
        """Largest stored modulus at each distance d = 1..size-1, at index d - 1.

        Dense storage reads the two diagonals at +d and -d as views, so no
        size x size temporary is made.
        """
        if self._mode == _TOEPLITZ:
            return self._data[1:]
        a = self._data
        return np.array([max(a.diagonal(d).max(), a.diagonal(-d).max())
                         for d in range(1, self._size)], dtype=np.float64)

    def _peak_pair(self, d: int) -> tuple[int, int]:
        """Smallest 1-based (n, m) holding the largest entry at distance d."""
        if self._mode == _TOEPLITZ:
            return 1, 1 + d
        upper, lower = self._data.diagonal(d), self._data.diagonal(-d)
        i, j = int(upper.argmax()), int(lower.argmax())  # rows i + 1 and j + 1 + d
        if upper[i] > lower[j] or (upper[i] == lower[j] and i < j + d):
            return i + 1, i + 1 + d
        return j + 1 + d, j + 1


def _frozen(values) -> np.ndarray:
    """Read-only float64 array of values; a copy unless read-only and owning its data."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def entry_bound(g: GramSystem, n: int, m: int) -> Interval:
    """Certified enclosure of |f_n(tau_m)|, inside or beyond the truncation.

    Within the truncation the stored value is exact, so the interval is a
    point.  Beyond it only the envelope speaks, and only off the diagonal:
    the tail model never bounds |f_n(tau_n)| from above.
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError(f"indices are 1-based, got ({n}, {m})")
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
    return Interval(0.0, g.envelope.bound(abs(n - m)))


def certified_min_amplitude(g: GramSystem, exponent: float) -> float:
    """Smallest amplitude A making A/(1+|n-m|)**exponent cover the truncation.

    Exact for the stored entries (max of entry * (1+d)**exponent over all
    off-diagonal pairs); any globally valid amplitude is at least this.
    """
    s = require_exponent(exponent)
    if g.size == 1:
        return 0.0
    dists = np.arange(1, g.size)
    return float(np.max(g._distance_values() * (1.0 + dists) ** s))


def verify_envelope(g: GramSystem, envelope: DecayEnvelope) -> EnvelopeVerdict:
    """Check every stored off-diagonal entry against the envelope.

    An entry violates when it exceeds ``envelope.bound(d)`` by more than the
    float64 evaluation error of the bound itself (a few ulp), so a system
    whose entries equal the bound never fails on rounding noise.  On failure
    the verdict carries one violation per violating distance, in order of
    distance: the pair holding the largest entry at that distance (smallest
    row first on ties) and its excess over the bound.
    """
    values = g._distance_values()
    bound = envelope.bound(np.arange(1, g.size, dtype=np.float64))
    violations = []
    for k in np.flatnonzero(values > bound * _ENVELOPE_UP):
        n, m = g._peak_pair(int(k) + 1)
        violations.append(Violation(n, m, float(values[k] - bound[k])))
    return EnvelopeVerdict(passed=not violations, violations=tuple(violations))


def diag_lower_bound(g: GramSystem) -> DiagonalBound:
    """Certified lower bound for the diagonal, global when a floor is asserted.

    With a floor the bound covers all of the naturals (observed entries for
    n <= size, the floor beyond); without one it speaks only for the
    truncation and downstream certificates must stay truncation-scoped.
    """
    observed = float(g.diag().min())
    if g.diag_floor is not None:
        return DiagonalBound(min(observed, float(g.diag_floor)), SCOPE_GLOBAL)
    return DiagonalBound(observed, SCOPE_TRUNCATION)


_FIT_GRID = tuple(round(1.1 + 0.1 * i, 1) for i in range(50))


def fit_envelope(g: GramSystem, s_grid: Iterable[float] = _FIT_GRID) -> EnvelopeFit:
    """Heuristic envelope fit: coarse grid over the exponent.

    For each grid exponent the amplitude is the certified minimum for the
    truncation, and the objective is the implied uniform bound on one row's
    off-diagonal mass over all of the naturals, 2*A*(zeta(s)-1).  The fit is
    a convenience for ingest; certificates must re-verify any envelope they
    rely on (attaching the fit to a GramSystem does exactly that).
    """
    from .constants import zeta  # local import; constants does not need gram

    best: tuple[float, float, float] | None = None  # (objective, -s, A)
    for s in s_grid:
        s = require_exponent(s)
        amplitude = certified_min_amplitude(g, s)
        objective = 2.0 * amplitude * (zeta(s, 1e-6).hi - 1.0)
        key = (objective, -s)
        if best is None or key < (best[0], best[1]):
            best = (objective, -s, amplitude)
    if best is None:
        raise ValueError("exponent grid must be nonempty")
    objective, neg_s, amplitude = best
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
# entries beyond the band are implicitly zero.  The writer picks whichever
# form stores fewer numbers, so serialization is content-deterministic.


def gram_to_json_dict(g: GramSystem) -> dict:
    b = g.bandwidth()
    t = g.size
    banded_count = (2 * b + 1) * t - b * (b + 1)
    if banded_count < t * t:
        dense = g.dense()
        bands = [np.diagonal(dense, off).tolist() for off in range(-b, b + 1)]
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
        "diag_floor": None if g.diag_floor is None else float(g.diag_floor),
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
    if not (out.min() > -math.inf and out.max() < math.inf):  # NaN fails both
        raise InvalidGramData(f"{what} must be finite")
    return out


def gram_from_json_dict(payload) -> GramSystem:
    if not isinstance(payload, dict):
        raise InvalidGramData(f"gram payload must be an object, got {type(payload).__name__}")
    missing = {"size", "entries"} - payload.keys()
    if missing:
        raise InvalidGramData(f"gram payload lacks required keys {sorted(missing)}")
    size = payload["size"]
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise InvalidGramData(f"size must be a positive integer, got {size!r}")

    raw = payload["entries"]
    if isinstance(raw, dict):
        try:
            spec = raw["banded"]
            bandwidth = spec["bandwidth"]
            bands = spec["bands"]
        except (KeyError, TypeError) as exc:
            raise InvalidGramData(f"malformed banded entries: {exc!r}") from None
        if isinstance(bandwidth, bool) or not isinstance(bandwidth, int) \
                or not 0 <= bandwidth < size:
            raise InvalidGramData(f"bandwidth must be an integer in 0..{size - 1}")
        if not isinstance(bands, list) or len(bands) != 2 * bandwidth + 1:
            raise InvalidGramData(
                f"expected {2 * bandwidth + 1} bands for bandwidth {bandwidth}")
        dense = np.zeros((size, size))
        for i, band in enumerate(bands):
            off = i - bandwidth
            vals = _require_numbers(band, size - abs(off), f"band at offset {off}")
            rows = np.arange(max(0, -off), max(0, -off) + len(vals))
            dense[rows, rows + off] = vals
    else:
        if not isinstance(raw, list) or len(raw) != size:
            raise InvalidGramData(f"entries must be {size} rows")
        dense = np.empty((size, size))
        for r, row in enumerate(raw):
            dense[r] = _require_numbers(row, size, f"entries row {r}")
    dense.setflags(write=False)  # from_entries keeps it without a copy

    envelope = None
    env_raw = payload.get("envelope")
    if env_raw is not None:
        if not isinstance(env_raw, dict) or set(env_raw) - {"A", "s"}:
            raise InvalidGramData(f"envelope must be {{'A':..., 's':...}}, got {env_raw!r}")
        amplitude, exponent = _require_numbers(
            [env_raw.get("A"), env_raw.get("s")], 2, "envelope A and s").tolist()
        try:
            envelope = DecayEnvelope(amplitude, exponent)
        except (ValueError, InvalidExponent) as exc:
            raise InvalidGramData(f"invalid envelope: {exc}") from None

    floor_raw = payload.get("diag_floor")
    floor = None if floor_raw is None \
        else _require_numbers([floor_raw], 1, "diag_floor").tolist()[0]
    return GramSystem.from_entries(dense, envelope=envelope, diag_floor=floor)


def gram_dumps(g: GramSystem) -> str:
    return json.dumps(gram_to_json_dict(g), indent=2, allow_nan=False) + "\n"


def gram_loads(text: str) -> GramSystem:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGramData(f"not valid JSON: {exc}") from None
    return gram_from_json_dict(payload)
