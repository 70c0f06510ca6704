import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framepaver import (
    GramSystem,
    Infeasible,
    IndexOutOfRange,
    InvalidGramData,
    Paving,
    class_margin_lower_bound,
    exact_margin,
    min_partition,
    power_law_gram,
)
from framepaver import oracle
from framepaver.partition import _explicit_margin


def constant_offdiag(size, off, diag=1.0):
    e = np.full((size, size), off)
    np.fill_diagonal(e, diag)
    return GramSystem.from_entries(e)


def each_class_caller(members):
    """Calls that put ``members`` through the class rule: exact_margin,
    class_margin_lower_bound and a Paving of 1..3."""
    g = constant_offdiag(3, 0.1)
    return (lambda: exact_margin(g, members),
            lambda: class_margin_lower_bound(g, members),
            lambda: Paving(classes=(members,), modulus=None, range_end=3))


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


def brute_force_first_witness(g, epsilon, n):
    """The first paving with n classes, in the restricted-growth order of
    all_partitions, whose classes all have exact rational margin >= epsilon."""
    G = g.dense()
    for partition in all_partitions(g.size):
        if len(partition) == n and all(fraction_margin(G, cls) >= epsilon
                                       for cls in partition):
            return tuple(tuple(i + 1 for i in cls) for cls in partition)
    return None


def index_order_deepening(g, epsilon):
    """Reference: iterative deepening over class counts from 1, every count
    searched in index order, as min_partition searched before it proved the
    count on the most constrained indices first."""
    G = g.dense()
    mass = float(G.sum(axis=1).max()) + float(G.diagonal().max())
    floor = epsilon - 64.0 * oracle._EPS * (mass + 1.0) * g.size
    rows = G.tolist()
    for n in range(1, g.size + 1):
        hit = oracle._dfs(rows, n, epsilon, floor, [], [], 0)
        if hit is not None:
            return n, tuple(tuple(i + 1 for i in cls) for cls in hit)
    return None


@st.composite
def oracle_instances(draw):
    """Instances of size 2-7 with diagonal in [0.5, 1.5] and off-diagonal
    entries in [0, 0.7], symmetric or not, and an epsilon below the diagonal."""
    t = draw(st.integers(min_value=2, max_value=7))
    off = st.floats(min_value=0.0, max_value=0.7)
    e = np.array(draw(st.lists(st.lists(off, min_size=t, max_size=t),
                               min_size=t, max_size=t)))
    if draw(st.booleans()):
        e = np.triu(e, 1) + np.triu(e, 1).T
    np.fill_diagonal(e, draw(st.lists(st.floats(min_value=0.5, max_value=1.5),
                                      min_size=t, max_size=t)))
    return GramSystem.from_entries(e), draw(st.sampled_from([0.0, 1e-12, 0.25, 0.5]))


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

    @pytest.mark.parametrize("members", [[1.9, 2], [1, True], [2.0], [np.float64(1.0)],
                                         ["1"]])
    def test_non_integer_members_rejected(self, members):
        # 1.9 used to be truncated to index 1 and True read as index 1
        for call in each_class_caller(members):
            with pytest.raises(InvalidGramData, match="is not an integer"):
                call()

    @pytest.mark.parametrize("members", [[2, 2], [3, 1, 3], [np.int64(1), 1]])
    def test_repeated_members_rejected(self, members):
        # exact_margin and class_margin_lower_bound used to collapse repeats
        for call in each_class_caller(members):
            with pytest.raises(InvalidGramData, match="is repeated"):
                call()

    def test_numpy_integer_members_accepted(self):
        g = constant_offdiag(3, 0.1)
        assert exact_margin(g, np.array([1, 3])) == exact_margin(g, [1, 3])
        assert class_margin_lower_bound(g, np.array([3, 1])) == exact_margin(g, [1, 3])
        p = Paving(classes=(np.array([3, 1]), [np.int64(2)]), modulus=None, range_end=3)
        assert p.classes == ((1, 3), (2,))
        assert {type(i) for cls in p.classes for i in cls} == {int}

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
        with pytest.raises(InvalidGramData, match="instance size 17 exceeds the search cap 16"):
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

    def test_pinned_witness_when_index_one_is_least_constrained(self):
        # Slack (diagonal minus off-diagonal row mass) orders the indices
        # 4, 3, 2, 5, 6, 1, so the count is proved on a permuted order; the
        # witness is still the first paving in index order.
        e = [[1.0, 0.1, 0.2, 0.3, 0.1, 0.0],
             [0.1, 1.0, 0.4, 0.5, 0.2, 0.1],
             [0.2, 0.4, 1.0, 0.6, 0.3, 0.2],
             [0.3, 0.5, 0.6, 1.0, 0.4, 0.3],
             [0.1, 0.2, 0.3, 0.4, 1.0, 0.2],
             [0.0, 0.1, 0.2, 0.3, 0.2, 1.0]]
        slack = [row[n] - (sum(row) - row[n]) for n, row in enumerate(e)]
        assert sorted(range(1, 7), key=lambda n: slack[n - 1]) == [4, 3, 2, 5, 6, 1]
        g = GramSystem.from_entries(e)
        expected = {
            1e-12: ((1, 2, 3, 5), (4, 6)),
            0.25: ((1, 2, 3), (4, 5, 6)),
            0.5: ((1, 2, 5), (3, 6), (4,)),
        }
        margins = {
            1e-12: [0.09999999999999998, 0.7],
            0.25: [0.39999999999999997, 0.3],
            0.5: [0.7, 0.7999999999999999, 1.0],
        }
        for epsilon, classes in expected.items():
            n, paving = min_partition(g, epsilon)
            assert (n, paving.classes) == (len(classes), classes)
            assert [exact_margin(g, c) for c in classes] == margins[epsilon]

    @settings(max_examples=100)
    @given(oracle_instances())
    def test_permuted_count_keeps_the_index_order_answer(self, instance):
        g, epsilon = instance
        n, paving = min_partition(g, epsilon)
        assert n == brute_force_min(g, epsilon)
        assert (n, paving.classes) == index_order_deepening(g, epsilon)
        assert paving.classes == brute_force_first_witness(g, epsilon, n)


@st.composite
def held_classes(draw):
    """A dense system of size 1-7, symmetric or not, one class of it, and an
    order of its indices.  Each row of the class keeps a drawn diagonal, or
    gets one equal to the float sum of its off-diagonal class entries, or
    one ulp either side of that sum plus 0.25."""
    t = draw(st.integers(min_value=1, max_value=7))
    off = st.floats(min_value=0.0, max_value=1.0)
    e = np.array(draw(st.lists(st.lists(off, min_size=t, max_size=t),
                               min_size=t, max_size=t)))
    if draw(st.booleans()):
        e = np.triu(e, 1) + np.triu(e, 1).T
    cls = sorted(draw(st.sets(st.integers(0, t - 1), min_size=1)))
    for n in range(t):
        mass = math.fsum(e[n, m] for m in cls if m != n)
        e[n, n] = draw(st.sampled_from([
            float(e[n, n]) + 0.5, mass, math.nextafter(mass + 0.25, -math.inf),
            math.nextafter(mass + 0.25, math.inf)]))
    return e, cls, draw(st.permutations(range(t)))


@settings(max_examples=300)
@given(held_classes())
def test_leaf_recheck_is_the_explicit_margin_bit_for_bit(instance):
    """A complete assignment holding one class accepts it at epsilon exactly
    when the class's _explicit_margin is at least epsilon, on rows in any
    order: at the margin itself, one ulp above it and at 0.25 and its
    neighbours, which the drawn diagonals put on either side of a row margin."""
    e, cls, order = instance
    margin = _explicit_margin(GramSystem.from_entries(e), [n + 1 for n in cls])
    rows = [[float(e[p, q]) for q in order] for p in order]
    held = sorted(order.index(n) for n in cls)
    for epsilon in (margin, math.nextafter(margin, math.inf), 0.0, 0.25,
                    math.nextafter(0.25, -math.inf), math.nextafter(0.25, math.inf)):
        hit = oracle._dfs(rows, 1, epsilon, -math.inf, [held], [], len(rows))
        assert (hit is not None) == (margin >= epsilon), epsilon
