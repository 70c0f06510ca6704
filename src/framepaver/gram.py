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

Large generated systems whose entries depend only on the index distance are
stored as a distance profile instead of a dense matrix; the public contract
is identical, only memory and validation costs differ.
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

#: Default slack when checking stored entries against an asserted envelope
#: or diagonal floor; float64 headroom for sums of up to ~1e6 terms.
DEFAULT_ENVELOPE_TOL = 1e-9

_DENSE = "dense"
_TOEPLITZ = "toeplitz"
_CIRCULANT = "circulant"


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

    Indices are 1-based throughout the public interface.  Construction
    validates every stored invariant: nonnegative entries, consistency with
    the envelope on the truncation (within ``tol_env``), and consistency
    with the asserted diagonal floor.
    """

    __slots__ = ("_mode", "_data", "_size", "envelope", "diag_floor")

    def __init__(self, *, mode, data, size, envelope, diag_floor, tol_env):
        self._mode = mode
        self._data = data
        self._size = size
        self.envelope = envelope
        self.diag_floor = diag_floor
        self._validate(tol_env)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, entries, envelope: DecayEnvelope | None = None,
                     diag_floor: float | None = None, *,
                     tol_env: float = DEFAULT_ENVELOPE_TOL) -> "GramSystem":
        """Dense construction from a square array of moduli."""
        arr = np.asarray(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidGramData(f"entries must be a square matrix, got shape {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(mode=_DENSE, data=arr, size=int(arr.shape[0]), envelope=envelope,
                   diag_floor=diag_floor, tol_env=tol_env)

    @classmethod
    def from_distance_profile(cls, profile, envelope: DecayEnvelope | None = None,
                              diag_floor: float | None = None, *,
                              tol_env: float = DEFAULT_ENVELOPE_TOL) -> "GramSystem":
        """Toeplitz construction: entry(n, m) = profile[|n - m|].

        ``profile`` has length size; profile[0] is the diagonal value.
        """
        prof = np.asarray(profile, dtype=np.float64)
        if prof.ndim != 1 or prof.size < 1:
            raise InvalidGramData("distance profile must be a nonempty vector")
        prof = prof.copy()
        prof.setflags(write=False)
        return cls(mode=_TOEPLITZ, data=prof, size=int(prof.size), envelope=envelope,
                   diag_floor=diag_floor, tol_env=tol_env)

    @classmethod
    def from_cyclic_profile(cls, profile, size: int,
                            envelope: DecayEnvelope | None = None,
                            diag_floor: float | None = None, *,
                            tol_env: float = DEFAULT_ENVELOPE_TOL) -> "GramSystem":
        """Circulant construction: entry(n, m) = profile[min(d, size - d)], d = |n - m|.

        ``profile`` has length size//2 + 1, indexed by cyclic distance.
        """
        prof = np.asarray(profile, dtype=np.float64)
        size = int(size)
        if size < 1 or prof.ndim != 1 or prof.size != size // 2 + 1:
            raise InvalidGramData(
                f"cyclic profile must have length {size // 2 + 1} for size {size}")
        prof = prof.copy()
        prof.setflags(write=False)
        return cls(mode=_CIRCULANT, data=prof, size=size, envelope=envelope,
                   diag_floor=diag_floor, tol_env=tol_env)

    # -- invariants ---------------------------------------------------------

    def _validate(self, tol_env: float) -> None:
        if np.any(self._data < 0.0) or not np.all(np.isfinite(self._data)):
            raise InvalidGramData("entries must be finite nonnegative moduli")
        if self.envelope is not None and not isinstance(self.envelope, DecayEnvelope):
            raise InvalidGramData("envelope must be a DecayEnvelope")
        if self.diag_floor is not None:
            floor = float(self.diag_floor)
            if not (math.isfinite(floor) and floor >= 0.0):
                raise InvalidGramData(f"diag_floor must be finite nonnegative, got {floor}")
            if float(self.diag().min()) < floor - tol_env:
                raise InvalidGramData(
                    f"diagonal dips to {self.diag().min()} below asserted floor {floor}")
        if self.envelope is not None:
            verdict = verify_envelope(self, self.envelope, tol=tol_env)
            if not verdict.passed:
                n, m, excess = verdict.violations[0]
                raise InvalidGramData(
                    f"entries exceed the asserted envelope at ({n}, {m}) by {excess} "
                    f"({len(verdict.violations)} violating pairs)")

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
        d = abs(n - m)
        if self._mode == _CIRCULANT:
            d = min(d, self._size - d)
        return float(self._data[d])

    def diag(self) -> np.ndarray:
        if self._mode == _DENSE:
            return np.diagonal(self._data)
        return np.full(self._size, self._data[0])

    def dense(self) -> np.ndarray:
        """Materialize the full matrix; O(size^2) memory for profile modes."""
        if self._mode == _DENSE:
            return self._data.copy()
        idx = np.arange(self._size)
        d = np.abs(idx[:, None] - idx[None, :])
        if self._mode == _CIRCULANT:
            d = np.minimum(d, self._size - d)
        return self._data[d]

    def submatrix(self, indices: Iterable[int]) -> np.ndarray:
        """Principal submatrix at the given 1-based indices (given order)."""
        pos = np.asarray(list(indices), dtype=np.int64)
        if pos.size and (pos.min() < 1 or pos.max() > self._size):
            raise IndexBeyondTruncation(
                f"indices must lie in 1..{self._size}")
        if self._mode == _DENSE:
            return self._data[np.ix_(pos - 1, pos - 1)]
        d = np.abs(pos[:, None] - pos[None, :])
        if self._mode == _CIRCULANT:
            d = np.minimum(d, self._size - d)
        return self._data[d]

    def bandwidth(self) -> int:
        """Largest |n - m| carrying a nonzero entry (0 for diagonal systems)."""
        if self._mode == _DENSE:
            for off in range(self._size - 1, 0, -1):
                if np.any(self._data.diagonal(off)) or np.any(self._data.diagonal(-off)):
                    return off
            return 0
        for d in range(self._size - 1, 0, -1):
            c = min(d, self._size - d) if self._mode == _CIRCULANT else d
            if self._data[c] != 0.0:
                return d
        return 0

    def __repr__(self) -> str:
        return (f"GramSystem(size={self._size}, storage={self._mode}, "
                f"envelope={self.envelope}, diag_floor={self.diag_floor})")

    # internal: iterate (distance, value) pairs once per distinct distance
    def _distance_values(self):
        if self._mode == _TOEPLITZ:
            dists = np.arange(1, self._size)
            return dists, self._data[1:]
        if self._mode == _CIRCULANT:
            dists = np.arange(1, self._size)
            cyc = np.minimum(dists, self._size - dists)
            return dists, self._data[cyc]
        return None


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
    pairs = g._distance_values()
    if pairs is not None:
        dists, values = pairs
        return float(np.max(values * (1.0 + dists) ** s))
    dense = g.dense()
    idx = np.arange(g.size)
    dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    ratios = dense * (1.0 + dist) ** s
    np.fill_diagonal(ratios, 0.0)
    return float(ratios.max())


_EPS = float(np.finfo(np.float64).eps)


def verify_envelope(g: GramSystem, envelope: DecayEnvelope,
                    tol: float = 0.0) -> EnvelopeVerdict:
    """Check entries <= envelope bound + tol for every off-diagonal pair.

    A pair counts as violating only when its excess exceeds the float64
    evaluation error of the bound itself (a few ulp), so a system whose
    entries equal the bound never fails on rounding noise.  On failure the
    verdict carries every violating ordered pair (n, m) with its excess.
    """
    if tol < 0.0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    size = g.size
    violations: list[Violation] = []
    pairs = g._distance_values()
    if pairs is not None:
        dists, values = pairs
        bound = envelope.bound(dists.astype(np.float64))
        excess = values - bound
        for d in np.nonzero(excess > tol + 8.0 * _EPS * bound)[0]:
            dist = int(dists[d])
            e = float(excess[d])
            for n in range(1, size - dist + 1):
                violations.append(Violation(n, n + dist, e))
                violations.append(Violation(n + dist, n, e))
    else:
        dense = g.dense()
        idx = np.arange(size)
        dist = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
        np.fill_diagonal(dist, 1.0)  # placeholder; diagonal excluded below
        bound = envelope.bound(dist)
        excess = dense - bound
        np.fill_diagonal(excess, -np.inf)
        for i, j in np.argwhere(excess > tol + 8.0 * _EPS * bound):
            violations.append(Violation(int(i) + 1, int(j) + 1, float(excess[i, j])))
    violations.sort()
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


def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidGramData(f"{what} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise InvalidGramData(f"{what} must be finite, got {value!r}")
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
            if not isinstance(band, list) or len(band) != size - abs(off):
                raise InvalidGramData(
                    f"band at offset {off} must have length {size - abs(off)}")
            vals = [_require_number(v, f"band[{off}] value") for v in band]
            rows = np.arange(max(0, -off), max(0, -off) + len(vals))
            dense[rows, rows + off] = vals
    else:
        if not isinstance(raw, list) or len(raw) != size:
            raise InvalidGramData(f"entries must be {size} rows")
        for r, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != size:
                raise InvalidGramData(f"entries row {r} must have length {size}")
            for v in row:
                _require_number(v, f"entries[{r}] value")
        dense = np.asarray(raw, dtype=np.float64)

    envelope = None
    env_raw = payload.get("envelope")
    if env_raw is not None:
        if not isinstance(env_raw, dict) or set(env_raw) - {"A", "s"}:
            raise InvalidGramData(f"envelope must be {{'A':..., 's':...}}, got {env_raw!r}")
        try:
            envelope = DecayEnvelope(_require_number(env_raw.get("A"), "envelope A"),
                                     _require_number(env_raw.get("s"), "envelope s"))
        except (ValueError, InvalidExponent) as exc:
            raise InvalidGramData(f"invalid envelope: {exc}") from None

    floor_raw = payload.get("diag_floor")
    floor = None if floor_raw is None else _require_number(floor_raw, "diag_floor")
    return GramSystem.from_entries(dense, envelope=envelope, diag_floor=floor)


def gram_dumps(g: GramSystem) -> str:
    return json.dumps(gram_to_json_dict(g), indent=2, allow_nan=False) + "\n"


def gram_loads(text: str) -> GramSystem:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGramData(f"not valid JSON: {exc}") from None
    return gram_from_json_dict(payload)
