"""Test-system generators with known ground truth.

Two Gram generators (an exact power-law system and cyclic-translate frames)
plus a finite-dimensional frame-operator spectrum check.  The generators
exist so that every certified bound in the library can be exercised against
systems whose structure is known in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import require_exponent
from .errors import DimensionMismatch, InvalidGramData, WindowTooLong, require_int, require_real
from .gram import DecayEnvelope, GramSystem, _library_floats


def power_law_gram(amplitude: float, exponent: float, diag: float,
                   size: int) -> GramSystem:
    """Exact power-law system: diagonal ``diag``, off-diagonal
    ``amplitude/(1+d)**exponent`` at distance d.

    The envelope (amplitude, exponent) and the diagonal floor are attained
    by construction and attached as global assertions, so certificates over
    the whole index set are honest for this family.
    """
    s = require_exponent(exponent)
    amplitude = require_real(amplitude, "amplitude", 0)
    diag = require_real(diag, "diagonal value", 0, strict=True)
    size = require_int(size, "size", 1)
    profile = np.empty(size)
    profile[0] = diag
    if size > 1:
        d = np.arange(1, size, dtype=np.float64)
        profile[1:] = amplitude / (1.0 + d) ** s
    envelope = DecayEnvelope(amplitude, s) if amplitude > 0.0 else None
    return GramSystem.from_distance_profile(profile, envelope=envelope, diag_floor=diag)


def translate_frame_gram(window, period: int) -> GramSystem:
    """Gram matrix of the cyclic translates of a nonnegative window.

    entry(n, m) = sum_k w(k-n) w(k-m) with indices mod ``period``, which is
    the circular autocorrelation of the zero-padded window at the cyclic
    distance of (n, m).  The system carries no envelope: translate frames
    wrap around, so line-distance decay fails near the corners and callers
    fit their own model if they want one.
    """
    w = _library_floats(window, "window", 1)
    period = require_int(period, "period", 1)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("window must be a nonempty vector")
    if w.size > period:
        raise WindowTooLong(
            f"window of length {w.size} does not fit period {period}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("window values must be finite and nonnegative")
    padded = np.zeros(period)
    padded[: w.size] = w
    # The window meets its shift by d only at d < len(w) or d > period - len(w);
    # elsewhere every product is 0*x with x >= 0, so the profile is exactly +0.0.
    profile = np.zeros(period // 2 + 1)
    for d in {*range(min(w.size, profile.size)), *range(period - w.size + 1, profile.size)}:
        profile[d] = padded @ np.roll(padded, -d)
    return GramSystem.from_cyclic_profile(profile, period)


@dataclass(frozen=True)
class FrameSystem:
    """T vectors and T functionals in d-dimensional real space, paired by dot
    product.

    Each is a float64 array, or rows of numbers read by the number rule of
    JSON input, so a bool or a string is an ``InvalidGramData``.
    """

    vectors: np.ndarray
    functionals: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(_library_floats(self.vectors, "vectors", 2))
        f = np.atleast_2d(_library_floats(self.functionals, "functionals", 2))
        if v.shape != f.shape:
            raise DimensionMismatch(
                f"vectors have shape {v.shape} but functionals {f.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatch(f"need at least one vector, got shape {v.shape}")
        v = v.copy()
        f = f.copy()
        v.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "functionals", f)

    @classmethod
    def self_dual(cls, vectors) -> "FrameSystem":
        v = _library_floats(vectors, "vectors", 2)
        return cls(vectors=v, functionals=v)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def count(self) -> int:
        return int(self.vectors.shape[0])


_INVERTIBILITY_CUTOFF = 1e-10


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of the reconstruction operator x -> sum f_n(x) tau_n."""

    dim: int
    count: int
    singular_values: tuple[float, ...]
    min_singular: float
    max_singular: float
    invertible: bool
    self_dual: bool
    eigenvalues: tuple[float, ...] | None


def frame_operator_check(fs: FrameSystem) -> SpectrumReport:
    """Assemble S = sum_n tau_n f_n^T and report its spectrum.

    The verdict is invertible iff the smallest singular value clears 1e-10;
    fewer vectors than dimensions leaves S rank-deficient, which the same
    cutoff reports as non-invertible.  When the functionals are the vectors
    themselves S is symmetric positive semidefinite and its eigenvalues are
    reported alongside.  An S whose entries, or those of S + S^T, overflow
    float64 raises ``InvalidGramData``.
    """
    with np.errstate(over="ignore"):
        S = fs.vectors.T @ fs.functionals
        if not np.isfinite(S + S.T).all():
            raise InvalidGramData("the frame operator overflows float64")
    svals = np.linalg.svd(S, compute_uv=False)
    self_dual = bool(np.array_equal(fs.vectors, fs.functionals))
    eigenvalues = None
    if self_dual:
        eigenvalues = tuple(float(v) for v in np.linalg.eigvalsh((S + S.T) / 2.0))
    return SpectrumReport(
        dim=fs.dim,
        count=fs.count,
        singular_values=tuple(float(v) for v in svals),
        min_singular=float(svals.min()),
        max_singular=float(svals.max()),
        invertible=bool(svals.min() > _INVERTIBILITY_CUTOFF),
        self_dual=self_dual,
        eigenvalues=eigenvalues,
    )
