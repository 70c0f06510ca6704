"""Exact finite-instance reference: true margins and minimum paving size.

Everything here works on the stored truncation only; no envelope or tail
reasoning is involved.  The searches are exponential by design (they exist
to validate the certified pipeline on desk-scale instances, not to run in
production), so instance size is capped.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

from .constants import DEFAULT_SIZE_CAP
from .errors import Infeasible, IndexOutOfRange, InvalidGramData
from .gram import GramSystem
from .partition import Paving, _explicit_margin

_EPS = float(np.finfo(np.float64).eps)


def exact_margin(g: GramSystem, members: Sequence[int]) -> float:
    """min over n in the class of entry(n,n) - sum_{m in class, m != n} entry(n,m).

    The result is the exact margin rounded down: the largest float at or
    below it, so ``exact_margin(g, cls) >= epsilon`` holds exactly when the
    exact margin is at least epsilon.  Negative margins are legal outputs;
    an empty class has margin +inf (vacuous).  Members must be integers
    (Python or numpy); a float or a bool raises ``InvalidGramData``, as in a
    paving payload, rather than being truncated to an index.
    """
    members = tuple(members)
    for i in members:
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise InvalidGramData(f"class member {i!r} is not an integer")
    cls = sorted(set(int(i) for i in members))
    if cls and (cls[0] < 1 or cls[-1] > g.size):
        raise IndexOutOfRange(
            f"class members must lie within the truncation 1..{g.size}")
    return _explicit_margin(g, cls, None, None)


def _dfs(g: GramSystem, rows: list[list[float]], labels: list[int], n_limit: int,
         epsilon: float, floor: float, classes: list[list[int]],
         margins: list[list[float]], start: int):
    """Depth-first assignment of positions start..T-1; returns position classes or None.

    Position p stands for the 1-based index ``labels[p]``, and ``rows`` is
    G with its rows and columns in that order.  Classes only open in
    position order, so each set partition is enumerated once, and a
    position may only join a class whose running margins all stay at or
    above ``floor``, epsilon less a rounding allowance: entries are
    nonnegative, so margins only fall as a class grows and such branches
    can never recover.  That pruning holds whatever order the positions
    come in, so the search is exhaustive in any order.  A complete
    assignment maps its positions back to labels and is re-checked with the
    exact class margin, so a returned assignment is an exactly feasible
    paving and the allowance only keeps rounding from pruning one.
    """
    size = len(rows)
    if start == size:
        for cls in classes:
            if _explicit_margin(g, [labels[i] for i in cls], None, None) < epsilon:
                return None
        return [list(c) for c in classes]
    row = rows[start]
    diag = row[start]
    for c, mem in enumerate(classes):
        mass = 0.0
        for j in mem:
            mass += row[j]
        new_margin = diag - mass
        if new_margin < floor:
            continue
        saved = margins[c]
        updated = [m - rows[j][start] for m, j in zip(saved, mem)]
        if min(updated) < floor:
            continue
        updated.append(new_margin)
        margins[c] = updated
        mem.append(start)
        hit = _dfs(g, rows, labels, n_limit, epsilon, floor, classes, margins, start + 1)
        mem.pop()
        margins[c] = saved
        if hit is not None:
            return hit
    if len(classes) == n_limit or diag < floor:
        return None
    classes.append([start])
    margins.append([diag])
    hit = _dfs(g, rows, labels, n_limit, epsilon, floor, classes, margins, start + 1)
    classes.pop()
    margins.pop()
    return hit


def min_partition(g: GramSystem, epsilon: float = 1e-12,
                  cap: int = DEFAULT_SIZE_CAP) -> tuple[int, Paving]:
    """Smallest number of classes paving 1..size with every exact margin >= epsilon.

    Exhaustive backtracking with symmetry breaking: the first position is
    pinned to class 1 and a new class may only be opened in position order,
    which enumerates each set partition exactly once.  Two passes:

    * **Count.**  Iterative deepening over the class count runs on the
      indices sorted by ascending slack ``G[n][n] - (row sum - G[n][n])``,
      ties by index, so the most constrained indices are placed first
      (DSATUR's rule).  The minimum count does not depend on how the
      indices are labelled, and :func:`_dfs` is exhaustive in any order, so
      a count that fails proves that no paving of that size exists, and the
      first count that succeeds has an exactly feasible paving.
    * **Witness.**  One search in index order at that count, the last
      iteration of an index-order deepening, returns the lexicographically
      minimal witness among minimum-size pavings, so identical inputs give
      identical output and the answer does not depend on the count pass.

    Placing the tight indices first prunes the failing counts early, which
    is where an index-order deepening spends most of its time.
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
    floor = epsilon - 64.0 * _EPS * (mass + 1.0) * size
    rows = G.tolist()

    slack = [row[n] - (sum(row) - row[n]) for n, row in enumerate(rows)]
    order = sorted(range(size), key=slack.__getitem__)
    tight = [[rows[p][q] for q in order] for p in order]
    tight_labels = [p + 1 for p in order]
    for n_limit in range(1, size + 1):
        if _dfs(g, tight, tight_labels, n_limit, epsilon, floor, [], [], 0) is not None:
            break
    hit = _dfs(g, rows, list(range(1, size + 1)), n_limit, epsilon, floor, [], [], 0)
    if hit is None:
        raise Infeasible(  # pragma: no cover
            f"no index-order paving at the proven count {n_limit}")
    classes = tuple(tuple(i + 1 for i in cls) for cls in hit)
    return n_limit, Paving(classes=classes, modulus=None, range_end=size)
