"""Exact finite-instance reference: true margins and minimum paving size.

Everything here works on the stored truncation only; no envelope or tail
reasoning is involved.  The searches are exponential by design (they exist
to validate the certified pipeline on desk-scale instances, not to run in
production), so instance size is capped.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import Infeasible, IndexOutOfRange
from .gram import GramSystem
from .partition import Paving, _class_margin

_EPS = float(np.finfo(np.float64).eps)

DEFAULT_SIZE_CAP = 16


def exact_margin(g: GramSystem, members: Sequence[int]) -> float:
    """min over n in the class of entry(n,n) - sum_{m in class, m != n} entry(n,m).

    The result is the exact margin rounded down: the largest float at or
    below it, so ``exact_margin(g, cls) >= epsilon`` holds exactly when the
    exact margin is at least epsilon.  Negative margins are legal outputs;
    an empty class has margin +inf (vacuous).
    """
    cls = sorted(set(int(i) for i in members))
    if not cls:
        return math.inf
    if cls[0] < 1 or cls[-1] > g.size:
        raise IndexOutOfRange(
            f"class members must lie within the truncation 1..{g.size}")
    return _class_margin(g.submatrix(cls))


def _dfs(rows: list[list[float]], n_limit: int, epsilon: float, slack: float,
         classes: list[list[int]], margins: list[list[float]], start: int):
    """Depth-first assignment of indices start..T-1; returns class lists or None.

    Classes only open in index order and a new index may only join a class
    whose running margins all stay above epsilon - slack: entries are
    nonnegative, so margins only decrease as a class grows and such branches
    can never recover.  Complete assignments are re-checked with the exact
    class margin before acceptance, making the slack purely protective.
    """
    size = len(rows)
    if start == size:
        for cls in classes:
            if _class_margin(np.array([[rows[i][j] for j in cls] for i in cls])) < epsilon:
                return None
        return [list(c) for c in classes]
    row = rows[start]
    limit = min(len(classes) + 1, n_limit)
    for c in range(limit):
        if c == len(classes):
            if row[start] < epsilon - slack:
                continue
            classes.append([start])
            margins.append([row[start]])
            hit = _dfs(rows, n_limit, epsilon, slack, classes, margins, start + 1)
            classes.pop()
            margins.pop()
            if hit is not None:
                return hit
            continue
        mem = classes[c]
        new_margin = row[start] - sum(row[j] for j in mem)
        if new_margin < epsilon - slack:
            continue
        updated = [margins[c][k] - rows[j][start] for k, j in enumerate(mem)]
        if any(m < epsilon - slack for m in updated):
            continue
        saved = margins[c]
        margins[c] = updated + [new_margin]
        mem.append(start)
        hit = _dfs(rows, n_limit, epsilon, slack, classes, margins, start + 1)
        mem.pop()
        margins[c] = saved
        if hit is not None:
            return hit
    return None


def min_partition(g: GramSystem, epsilon: float = 1e-12,
                  cap: int = DEFAULT_SIZE_CAP) -> tuple[int, Paving]:
    """Smallest number of classes paving 1..size with every exact margin >= epsilon.

    Exhaustive backtracking with symmetry breaking: index 1 is pinned to
    class 1 and a new class may only be opened in index order, which
    enumerates each set partition exactly once.  Iterative deepening over
    the class count keeps the first witness found lexicographically minimal
    among minimum-size pavings, so identical inputs give identical output.
    """
    size = g.size
    if size > cap:
        raise ValueError(f"instance size {size} exceeds the search cap {cap}")
    if epsilon < 0.0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite nonnegative, got {epsilon}")
    G = g.dense()
    low_diag = [n + 1 for n in range(size) if G[n, n] < epsilon]
    if low_diag:
        raise Infeasible(
            f"indices {low_diag} have diagonal below epsilon={epsilon}; "
            "no paving can certify them even as singletons")
    mass = float(G.sum(axis=1).max()) + float(G.diagonal().max())
    slack = 64.0 * _EPS * (mass + 1.0) * size
    rows = G.tolist()

    for n_limit in range(1, size + 1):
        hit = _dfs(rows, n_limit, epsilon, slack, [], [], 0)
        if hit is not None:
            classes = tuple(tuple(i + 1 for i in cls) for cls in hit)
            return n_limit, Paving(classes=classes, modulus=None, range_end=size)
    raise Infeasible("no paving found at any class count")  # pragma: no cover
