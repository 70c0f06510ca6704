import math
from fractions import Fraction

import numpy as np
import pytest

from framepaver import (
    GramSystem,
    Infeasible,
    IndexOutOfRange,
    exact_margin,
    min_partition,
    power_law_gram,
)


def constant_offdiag(size, off, diag=1.0):
    e = np.full((size, size), off)
    np.fill_diagonal(e, diag)
    return GramSystem.from_entries(e)


def all_partitions(n):
    """Every set partition of range(n) via restricted growth strings."""
    def rec(i, maxed, current):
        if i == n:
            yield [list(c) for c in current]
            return
        for c in range(maxed + 1):
            if c == len(current):
                current.append([])
            current[c].append(i)
            yield from rec(i + 1, max(maxed, c + 1), current)
            current[c].pop()
            if not current[c]:
                current.pop()
    yield from rec(0, 0, [])


def fraction_margin(G, cls):
    """Exact rational margin of a class of 0-based indices."""
    return min(Fraction(float(G[i, i]))
               - sum(Fraction(float(G[i, j])) for j in cls if j != i)
               for i in cls)


def brute_force_min(g, epsilon):
    """Unpruned reference: scan every set partition, track the smallest
    class count whose classes all have exact rational margin >= epsilon."""
    G = g.dense()
    feasible = {}
    best = None
    for partition in all_partitions(g.size):
        for cls in partition:
            key = tuple(cls)
            if key not in feasible:
                feasible[key] = fraction_margin(G, cls) >= epsilon
        if all(feasible[tuple(cls)] for cls in partition):
            if best is None or len(partition) < best:
                best = len(partition)
    return best


class TestExactMargin:
    def test_hand_case_point_three(self):
        g = constant_offdiag(5, 0.3)
        assert exact_margin(g, [1, 2, 3, 4]) == pytest.approx(0.1, abs=1e-15)

    def test_singleton_is_diagonal(self):
        g = constant_offdiag(5, 0.3, diag=1.25)
        assert exact_margin(g, [4]) == 1.25

    def test_negative_margin_is_legal(self):
        g = constant_offdiag(5, 0.6)
        assert exact_margin(g, [1, 2, 3]) == pytest.approx(-0.2, abs=1e-15)

    def test_empty_class_is_vacuous(self):
        assert exact_margin(constant_offdiag(3, 0.1), []) == math.inf

    def test_out_of_range_rejected(self):
        g = constant_offdiag(3, 0.1)
        with pytest.raises(IndexOutOfRange):
            exact_margin(g, [1, 4])
        with pytest.raises(IndexOutOfRange):
            exact_margin(g, [0, 1])

    def test_asymmetric_rows(self):
        e = np.array([[1.0, 0.8], [0.1, 1.0]])
        g = GramSystem.from_entries(e)
        # margin is row-based: row 1 loses 0.8, row 2 loses 0.1
        assert exact_margin(g, [1, 2]) == pytest.approx(0.2, abs=1e-15)

    def test_cancelling_row_below_zero_is_rejected(self):
        # Row 1 of the full class has exact margin 1 - 1 - 2**-60; rounding
        # the row sum to 1 before subtracting would report 0 and accept it.
        g = GramSystem.from_entries([[1.0, 1.0, 2.0**-60],
                                     [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]])
        assert exact_margin(g, [1, 2, 3]) == -2.0**-60
        n, paving = min_partition(g, epsilon=0.0)
        assert n == 2
        assert paving.classes == ((1, 2), (3,))


class TestMinPartition:
    def test_hand_case_point_three_needs_two(self):
        n, paving = min_partition(constant_offdiag(5, 0.3), 1e-12)
        assert n == 2
        assert paving.classes == ((1, 2, 3, 4), (5,))

    def test_hand_case_point_six_needs_three(self):
        n, paving = min_partition(constant_offdiag(5, 0.6), 1e-12)
        assert n == 3
        assert paving.classes == ((1, 2), (3, 4), (5,))

    def test_diagonal_system_single_class(self):
        g = GramSystem.from_entries(np.diag([1.0, 0.5, 2.0]))
        n, paving = min_partition(g, 0.25)
        assert n == 1
        assert paving.classes == ((1, 2, 3),)

    def test_witness_recertifies(self):
        g = constant_offdiag(6, 0.4)
        n, paving = min_partition(g, 1e-12)
        for cls in paving.classes:
            assert exact_margin(g, cls) >= 1e-12

    def test_infeasible_low_diagonal(self):
        g = GramSystem.from_entries(np.diag([1.0, 0.5, 2.0]))
        with pytest.raises(Infeasible):
            min_partition(g, 0.75)

    def test_cap_enforced_and_overridable(self):
        g = GramSystem.from_entries(np.eye(17))
        with pytest.raises(ValueError):
            min_partition(g, 1e-12)
        n, _ = min_partition(g, 1e-12, cap=17)
        assert n == 1

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        e = rng.uniform(0.0, 0.6, size=(7, 7))
        e = (e + e.T) / 2.0
        np.fill_diagonal(e, 1.0)
        g = GramSystem.from_entries(e)
        first = min_partition(g, 1e-12)
        second = min_partition(g, 1e-12)
        assert first == second

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_unpruned_enumerator(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 8))
        e = rng.uniform(0.0, 0.7, size=(t, t))
        e = (e + e.T) / 2.0
        np.fill_diagonal(e, 1.0)
        g = GramSystem.from_entries(e)
        n, paving = min_partition(g, 1e-12)
        assert brute_force_min(g, 1e-12) == n
        for cls in paving.classes:
            assert exact_margin(g, cls) >= 1e-12

    def test_power_law_truncation_vs_theory(self):
        g = power_law_gram(1.0, 2.0, 1.0, 12)
        n, _ = min_partition(g, 1e-12)
        assert n <= 3  # the certified construction uses modulus 3

    def test_epsilon_validation(self):
        g = GramSystem.from_entries(np.eye(3))
        with pytest.raises(ValueError):
            min_partition(g, -1.0)
        with pytest.raises(ValueError):
            min_partition(g, math.nan)
