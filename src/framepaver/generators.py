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
from .errors import DimensionMismatch, WindowTooLong
from .gram import DecayEnvelope, GramSystem


def power_law_gram(amplitude: float, exponent: float, diag: float,
                   size: int) -> GramSystem:
    """Exact power-law system: diagonal ``diag``, off-diagonal
    ``amplitude/(1+d)**exponent`` at distance d.

    The envelope (amplitude, exponent) and the diagonal floor are attained
    by construction and attached as global assertions, so certificates over
    the whole index set are honest for this family.
    """
    s = require_exponent(exponent)
    amplitude = float(amplitude)
    diag = float(diag)
    size = int(size)
    if amplitude < 0.0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    if diag <= 0.0:
        raise ValueError(f"diagonal value must be positive, got {diag}")
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
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
    w = np.asarray(window, dtype=np.float64)
    period = int(period)
    if period < 1:
        raise ValueError(f"period must be positive, got {period}")
    if w.ndim != 1 or w.size < 1:
        raise ValueError("window must be a nonempty vector")
    if w.size > period:
        raise WindowTooLong(
            f"window of length {w.size} does not fit period {period}")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise ValueError("window values must be finite and nonnegative")
    padded = np.zeros(period)
    padded[: w.size] = w
    profile = np.array([float(padded @ np.roll(padded, -d))
                        for d in range(period // 2 + 1)])
    return GramSystem.from_cyclic_profile(profile, period)


@dataclass(frozen=True)
class FrameSystem:
    """T vectors and T functionals in d-dimensional real space, paired by dot
    product."""

    vectors: np.ndarray
    functionals: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        f = np.atleast_2d(np.asarray(self.functionals, dtype=np.float64))
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
        v = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
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
    reported alongside.
    """
    S = fs.vectors.T @ fs.functionals
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
