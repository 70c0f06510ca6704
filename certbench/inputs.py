"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and json; framepaver is never imported, so
the inputs and the checks built on them stay independent of the program.
Each generator takes the run seed and returns the same bytes for the same
seed.
"""

from __future__ import annotations

import json

import numpy as np

# wire-pipeline: the op runs `gen` itself with these fixed parameters.
WIRE_A, WIRE_S, WIRE_C, WIRE_SIZE = 1.0, 2.0, 1.0, 1000

# constants-cold: two power-law systems of this size, one per exponent.
COLD_SIZE = 64
COLD_EXPONENTS = (1.1, 1.5)
COLD_CONSTANTS_S = 1.5

# window-certify: banded system certified against residue classes mod 3.
BAND_SIZE = 4000
BAND_WIDTH = 8
BAND_MODULUS = 3

# oracle-search: dense symmetric instances at the oracle's default size cap.
ORACLE_SIZE = 16
ORACLE_INSTANCES = 60
ORACLE_EPSILON = 1e-12


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag])


def power_law_payload(A: float, s: float, C: float, size: int) -> dict:
    """Dense wire form of the exact power-law system, envelope and floor attached."""
    d = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :]).astype(np.float64)
    entries = A / (1.0 + d) ** s
    np.fill_diagonal(entries, C)
    return {"size": size, "entries": entries.tolist(),
            "envelope": {"A": A, "s": s}, "diag_floor": C}


def cold_systems(seed: int) -> list[tuple[float, float, float]]:
    """(A, s, C) per exponent.  The seed draws C; A = C keeps the modulus,
    and with it the amount of work, the same for every seed."""
    rng = _rng(seed, 1)
    out = []
    for s in COLD_EXPONENTS:
        C = float(rng.uniform(1.0, 2.0))
        out.append((C, s, C))
    return out


def band_system(seed: int, size: int = BAND_SIZE) -> tuple[np.ndarray, dict]:
    """Diagonal and off-diagonal bands (offsets -w..-1, 1..w) of the window system."""
    rng = _rng(seed, 2)
    diag = rng.uniform(1.0, 1.5, size)
    bands = {}
    for off in range(-BAND_WIDTH, BAND_WIDTH + 1):
        if off == 0:
            continue
        d = abs(off)
        bands[off] = rng.uniform(0.0, 0.5 / (1.0 + d) ** 2, size - d)
    return diag, bands


def band_payload(diag: np.ndarray, bands: dict) -> dict:
    ordered = [diag.tolist() if off == 0 else bands[off].tolist()
               for off in range(-BAND_WIDTH, BAND_WIDTH + 1)]
    return {"size": len(diag),
            "entries": {"banded": {"bandwidth": BAND_WIDTH, "bands": ordered}},
            "envelope": None, "diag_floor": None}


def residue_classes(size: int, modulus: int) -> list[list[int]]:
    return [list(range(j, size + 1, modulus)) for j in range(1, modulus + 1)]


def paving_payload(size: int = BAND_SIZE) -> dict:
    return {"range": size, "modulus": BAND_MODULUS,
            "classes": residue_classes(size, BAND_MODULUS)}


def oracle_corpus(seed: int) -> np.ndarray:
    """Stack of symmetric instances: diagonal in [1, 2.5], off-diagonal in [0, 1].

    The instances come from one fixed draw, and the seed scales each of them
    by a factor in [0.5, 2].  A positive scale leaves every feasible class,
    and so the oracle's whole search, unchanged, while the search cost of a
    fresh draw varies by a third between corpora.  Every seed thus costs the
    same work.
    """
    rng = _rng(0, 3)
    n = ORACLE_SIZE
    out = np.empty((ORACLE_INSTANCES, n, n))
    for k in range(ORACLE_INSTANCES):
        upper = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1)
        g = upper + upper.T
        np.fill_diagonal(g, rng.uniform(1.0, 2.5, n))
        out[k] = g
    return out * _rng(seed, 3).uniform(0.5, 2.0, ORACLE_INSTANCES)[:, None, None]


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, allow_nan=False)


def entry_values(payload: dict) -> int:
    """How many entry numbers a gram wire payload carries."""
    raw = payload["entries"]
    if isinstance(raw, dict):
        return sum(len(band) for band in raw["banded"]["bands"])
    return sum(len(row) for row in raw)
