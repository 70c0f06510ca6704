"""Independent checks of framepaver's outputs.

Every reference value here is computed apart from the program: mpmath for
zeta and Hurwitz zeta values, ``fractions.Fraction`` for exact margins, and
an inclusion-exclusion count over all subsets for the oracle's minimum.
A check raises :class:`CheckError` with the reason when an output is wrong.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np


class CheckError(Exception):
    """An output disagrees with the independent reference."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# -- residue certificates and constants (mpmath) ------------------------------


def expected_modulus(A: float, s: float, C: float) -> int:
    """Smallest M with 2*A*zeta(s)/M**s <= C/2."""
    with mpmath.workdps(40):
        lhs = 2 * mpmath.mpf(A) * mpmath.zeta(s)
        target = mpmath.mpf(C) / 2
        m = 1
        while lhs / mpmath.mpf(m) ** s > target:
            m += 1
        return m


def residue_margin(A: float, s: float, C: float, M: int):
    """C - 2*A*M**(-s)*zeta(s, 1 + 1/M): the exact margin of every class mod M."""
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return mpmath.mpf(C) - 2 * mpmath.mpf(A) * mpmath.mpf(M) ** (-s) \
            * mpmath.zeta(s, 1 + mpmath.mpf(1) / M)


class ResidueReference:
    """Expected modulus and exact class margin of one power-law system."""

    def __init__(self, A: float, s: float, C: float):
        self.A, self.s, self.C = A, s, C
        self.modulus = expected_modulus(A, s, C)
        self.margin = residue_margin(A, s, C, self.modulus)


def check_residue_certificate(cert: dict, ref: ResidueReference) -> None:
    M = ref.modulus
    _require(cert.get("modulus") == M,
             f"modulus {cert.get('modulus')} != smallest admissible {M}")
    _require(cert.get("range") == "naturals", f"range {cert.get('range')!r}")
    _require(cert.get("classes") == {"kind": "residues", "modulus": M},
             f"classes {cert.get('classes')!r}")
    _require(cert.get("scope") == "global", f"scope {cert.get('scope')!r}")
    _require(cert.get("verdict") == "PASS", f"verdict {cert.get('verdict')!r}")
    _require(cert.get("epsilon") == ref.C / 2.0, f"epsilon {cert.get('epsilon')!r}")
    margins = cert.get("margins")
    _require(isinstance(margins, list) and len(margins) == M,
             f"expected {M} margins, got {margins!r}")
    for j, m in enumerate(margins):
        _require(isinstance(m, float), f"margin {j} is {m!r}")
        gap = ref.margin - mpmath.mpf(m)
        _require(gap >= 0, f"margin {j} = {m!r} exceeds the exact {ref.margin}")
        _require(gap <= 1e-9, f"margin {j} = {m!r} is {float(gap):.3g} below the exact")


def _ulps(x: float, ref: float) -> float:
    return abs(x - ref) / math.ulp(ref)


def check_power_law_entries(payload: dict, A: float, s: float, C: float,
                            size: int, rng: np.random.Generator,
                            samples: int = 256) -> None:
    """Sampled dense entries equal A/(1+d)**s to within 4 ulp; diagonal is C."""
    _require(payload.get("size") == size, f"size {payload.get('size')!r}")
    _require(payload.get("envelope") == {"A": A, "s": s},
             f"envelope {payload.get('envelope')!r}")
    _require(payload.get("diag_floor") == C, f"diag_floor {payload.get('diag_floor')!r}")
    entries = payload.get("entries")
    _require(isinstance(entries, list) and len(entries) == size,
             "entries are not the dense row-major form")
    rows = rng.integers(0, size, samples)
    cols = rng.integers(0, size, samples)
    with mpmath.workdps(40):
        for r, c in zip(rows.tolist(), cols.tolist()):
            got = entries[r][c]
            if r == c:
                _require(got == C, f"diagonal ({r + 1}) is {got!r}, not {C!r}")
                continue
            ref = float(mpmath.mpf(A) / (1 + abs(r - c)) ** mpmath.mpf(s))
            _require(_ulps(got, ref) <= 4.0,
                     f"entry ({r + 1}, {c + 1}) = {got!r} is {_ulps(got, ref):.1f} ulp "
                     f"from {ref!r}")


def check_constants(out: dict, s: float) -> None:
    """The zeta and decay-sum enclosures contain the mpmath values."""
    with mpmath.workdps(40):
        z = mpmath.zeta(s)
        sup = 2 * z - 1
        _require(out.get("s") == s, f"s {out.get('s')!r}")
        zlo, zhi = out["zeta"]
        _require(zlo <= z <= zhi, f"zeta enclosure [{zlo}, {zhi}] misses {z}")
        dlo, dhi = out["d_s"]
        _require(dlo <= sup <= dhi, f"decay-sum enclosure [{dlo}, {dhi}] misses {sup}")
        _require(out["c_s"] >= 2 * z, f"separation constant {out['c_s']} < 2*zeta(s)")


# -- explicit classes on a banded system (Fraction) ----------------------------


class BandReference:
    """Exact class margins of a banded system under explicit classes.

    ``bands`` maps an offset (column - row) to its diagonal, indexed by the
    smaller of the two 0-based indices, as in the banded wire form.
    """

    def __init__(self, diag: np.ndarray, bands: dict, classes: list[list[int]]):
        self.size = len(diag)
        self.classes = [list(c) for c in classes]
        self.epsilon = float(diag.min()) / 2.0
        width = max(abs(o) for o in bands) if bands else 0
        self.margins = []
        self.scales = []
        for cls in self.classes:
            worst, scale = None, 0.0
            for n in cls:
                r = n - 1
                terms = [float(bands[m - n][min(r, m - 1)]) for m in cls
                         if m != n and abs(m - n) <= width]
                exact = Fraction(float(diag[r])) - sum(map(Fraction, terms), Fraction(0))
                worst = exact if worst is None else min(worst, exact)
                scale = max(scale, float(diag[r]) + sum(terms))
            self.margins.append(worst)
            self.scales.append(scale)

    @property
    def class_pairs(self) -> int:
        return sum(len(c) * (len(c) - 1) for c in self.classes)


def check_window_certificate(cert: dict, ref: BandReference) -> None:
    _require(cert.get("range") == ref.size, f"range {cert.get('range')!r}")
    classes = cert.get("classes", {})
    _require(classes.get("kind") == "explicit", f"classes kind {classes.get('kind')!r}")
    _require(classes.get("classes") == ref.classes,
             "certificate classes differ from the paving")
    _require(cert.get("scope") == "truncation-only", f"scope {cert.get('scope')!r}")
    _require(cert.get("epsilon") == ref.epsilon,
             f"epsilon {cert.get('epsilon')!r} != half the smallest diagonal")
    margins = cert.get("margins")
    _require(isinstance(margins, list) and len(margins) == len(ref.margins),
             f"expected {len(ref.margins)} margins")
    for j, (m, exact, scale) in enumerate(zip(margins, ref.margins, ref.scales)):
        _require(isinstance(m, float), f"margin {j} is {m!r}")
        err = abs(Fraction(m) - exact)
        _require(err <= Fraction(1e-12) * Fraction(scale),
                 f"margin {j} = {m!r} is {float(err):.3g} from the exact {float(exact)!r}")
    expected = "PASS" if all(e >= Fraction(ref.epsilon) for e in ref.margins) else "FAIL"
    _require(cert.get("verdict") == expected,
             f"verdict {cert.get('verdict')!r}, exact margins say {expected}")


# -- oracle (inclusion-exclusion over all subsets) -----------------------------


def _exact_margin(G: np.ndarray, members) -> Fraction:
    idx = list(members)
    return min(Fraction(float(G[i, i]))
               - sum((Fraction(float(G[i, j])) for j in idx if j != i), Fraction(0))
               for i in idx)


@functools.cache
def _subset_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Membership table of all 2**n subsets and the inclusion-exclusion sign
    (-1)**(n - |X|) of each, as Python ints."""
    member = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    sign = np.where((n - member.sum(axis=1)) % 2 == 0, 1, -1).astype(object)
    return member, sign


def _feasible_subsets(G: np.ndarray, eps: float) -> np.ndarray:
    """Boolean table over all 2**n subsets: every exact member margin >= eps.

    Margins are computed in float64 with the row sums built one index at a
    time; subsets within 1e-9 of the threshold are decided with Fractions.
    """
    n = G.shape[0]
    rowsum = np.zeros((1 << n, n))
    for b in range(n):
        rowsum[1 << b: 1 << (b + 1)] = rowsum[: 1 << b] + G[:, b]
    member = _subset_tables(n)[0]
    slack = np.where(member, 2.0 * np.diag(G) - rowsum - eps, np.inf)
    worst = slack.min(axis=1)
    feasible = worst >= 0.0
    for mask in np.nonzero(np.abs(worst) <= 1e-9)[0].tolist():
        members = [i for i in range(n) if mask >> i & 1]
        feasible[mask] = _exact_margin(G, members) >= Fraction(eps)
    return feasible


def min_classes(G: np.ndarray, eps: float) -> int:
    """Fewest feasible classes covering all indices, by inclusion-exclusion.

    With f(X) the number of feasible subsets of X, the number of k-tuples of
    feasible sets whose union is everything is
    sum_X (-1)**(n - |X|) * f(X)**k.  Feasibility is closed under taking
    subsets, so the smallest k with a nonzero count is the minimum paving.
    """
    n = G.shape[0]
    f = _feasible_subsets(G, eps).astype(np.int64)
    for b in range(n):
        view = f.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    sign = _subset_tables(n)[1]
    base = f.astype(object)
    power = base.copy()
    for k in range(1, n + 1):
        if (sign * power).sum() > 0:
            return k
        power = power * base
    raise CheckError("no cover by feasible classes exists")


def check_oracle_answer(G: np.ndarray, eps: float, ref_n: int, answer: dict) -> None:
    n_found = answer.get("N")
    classes = answer.get("classes")
    margins = answer.get("margins")
    _require(n_found == ref_n, f"oracle minimum {n_found!r} != inclusion-exclusion {ref_n}")
    _require(isinstance(classes, list) and len(classes) == ref_n,
             f"{len(classes) if isinstance(classes, list) else classes!r} classes "
             f"for a minimum of {ref_n}")
    size = G.shape[0]
    _require(sorted(i for c in classes for i in c) == list(range(1, size + 1)),
             "oracle classes do not cover 1..size exactly once")
    _require(isinstance(margins, list) and len(margins) == len(classes),
             "one margin per class expected")
    for cls, m in zip(classes, margins):
        idx = [i - 1 for i in cls]
        exact = _exact_margin(G, idx)
        _require(exact >= Fraction(eps),
                 f"class {cls} has exact margin {float(exact)!r} below {eps}")
        scale = max(float(G[i, i]) + float(G[i, idx].sum()) for i in idx)
        _require(abs(Fraction(m) - exact) <= Fraction(1e-12) * Fraction(scale),
                 f"class {cls} margin {m!r} is off the exact {float(exact)!r}")
