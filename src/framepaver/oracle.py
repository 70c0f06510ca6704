"""Exact finite-instance reference: true margins and minimum paving size.

Everything here works on the stored truncation only; no envelope or tail
reasoning is involved.  The searches are exponential by design (they exist
to validate the certified pipeline on desk-scale instances, not to run in
production), so instance size is capped.
"""

from __future__ import annotations

from typing import Sequence

from .bounds import _EPS
from .constants import DEFAULT_SIZE_CAP
from .errors import Infeasible, IndexOutOfRange, InvalidGramData, require_int, require_real
from .gram import GramSystem
from .partition import Paving, _class_members, _explicit_margin, _min_margin


def exact_margin(g: GramSystem, members: Sequence[int]) -> float:
    """min over n in the class of entry(n,n) - sum_{m in class, m != n} entry(n,m).

    The result is the exact margin rounded down: the largest float at or
    below it, so ``exact_margin(g, cls) >= epsilon`` holds exactly when the
    exact margin is at least epsilon.  Negative margins are legal outputs;
    an empty class has margin +inf (vacuous).  Members must be distinct
    integers (Python or numpy); any other member raises ``InvalidGramData``.
    """
    cls = _class_members(members)
    if cls and (cls[0] < 1 or cls[-1] > g.size):
        raise IndexOutOfRange(
            f"class members must lie within the truncation 1..{g.size}")
    return _explicit_margin(g, cls)


def _dfs(rows: list[list[float]], n_limit: int, epsilon: float, floor: float,
         classes: list[list[int]], margins: list[list[float]], start: int):
    """Depth-first assignment of positions start..T-1; returns position classes or None.

    ``rows`` is G with its rows and columns in position order.  Classes only
    open in position order, so each set partition is enumerated once, and a
    position may only join a class whose running margins all stay at or
    above ``floor``, epsilon less a rounding allowance: entries are
    nonnegative, so margins only fall as a class grows and such branches
    never recover, in any order of the positions: the search is exhaustive.
    One pass over a class lowers its margins, stops at the first below
    ``floor`` and sums the new row's mass.  A complete assignment re-checks
    each class with :func:`_min_margin` on the held rows, the exact margin
    rounded down in any order, so a returned assignment is an exactly
    feasible paving and the allowance only keeps rounding from pruning one.
    """
    size = len(rows)
    if start == size:
        for cls in classes:
            if _min_margin(([rows[n][m] for m in cls], i)
                           for i, n in enumerate(cls)) < epsilon:
                return None
        return [list(c) for c in classes]
    row = rows[start]
    diag = row[start]
    for c, mem in enumerate(classes):
        saved = margins[c]
        updated, mass = [], 0.0
        for m, j in zip(saved, mem):
            m -= rows[j][start]
            if m < floor:
                break
            updated.append(m)
            mass += row[j]
        else:
            new_margin = diag - mass
            if new_margin < floor:
                continue
            updated.append(new_margin)
            margins[c] = updated
            mem.append(start)
            hit = _dfs(rows, n_limit, epsilon, floor, classes, margins, start + 1)
            mem.pop()
            margins[c] = saved
            if hit is not None:
                return hit
    if len(classes) == n_limit or diag < floor:
        return None
    classes.append([start])
    margins.append([diag])
    hit = _dfs(rows, n_limit, epsilon, floor, classes, margins, start + 1)
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
    if size > require_int(cap, "cap", 1):
        raise InvalidGramData(f"instance size {size} exceeds the search cap {cap}")
    epsilon = require_real(epsilon, "epsilon", 0)
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
    for n_limit in range(1, size + 1):
        if _dfs(tight, n_limit, epsilon, floor, [], [], 0) is not None:
            break
    hit = _dfs(rows, n_limit, epsilon, floor, [], [], 0)
    if hit is None:
        raise Infeasible(  # pragma: no cover
            f"no index-order paving at the proven count {n_limit}")
    classes = tuple(tuple(i + 1 for i in cls) for cls in hit)
    return n_limit, Paving(classes=classes, modulus=None, range_end=size)
