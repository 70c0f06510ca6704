"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test name carries its criterion number; the conftest terminal-summary
hook prints one pass/fail line per criterion after the run.
"""

import json
import math
import random
import time

import mpmath
import numpy as np
import pytest

from framepaver import (
    GramSystem,
    certify,
    choose_modulus,
    class_margin_lower_bound,
    exact_margin,
    gram_dumps,
    gram_loads,
    min_partition,
    power_law_gram,
    residue_partition,
    separation_constant,
    sup_decay_sum,
    verify_separation_bound,
    zeta,
    ResidueClass,
    SCOPE_GLOBAL,
)
from framepaver.cli import dispatch
from framepaver.errors import InvalidGramData

GRID = [(a, s, c) for a in (0.5, 1.0, 2.0) for s in (1.5, 2.0, 3.0)
        for c in (0.5, 1.0, 4.0)]


def test_criterion_1_end_to_end_theorem_on_grid():
    start = time.perf_counter()
    for a, s, c in GRID:
        g = power_law_gram(a, s, c, 10_000)
        modulus = choose_modulus(a, s, c)
        cert = certify(g, residue_partition(modulus), c / 2.0 - 1e-9)
        assert cert.verdict == "PASS", (a, s, c)
        assert cert.scope == SCOPE_GLOBAL, (a, s, c)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"grid pipeline took {elapsed:.2f}s"


def test_criterion_2_certified_constants():
    c2 = separation_constant(2.0)
    assert math.pi**2 / 3.0 <= c2 <= math.pi**2 / 3.0 + 1e-9

    d2 = sup_decay_sum(2.0)
    true_d2 = 2.0 * math.pi**2 / 6.0 - 1.0
    assert d2.contains(true_d2)
    assert true_d2 - 1e-6 <= d2.lo and d2.hi <= true_d2 + 1e-6

    z4 = zeta(4.0, 1e-9)
    assert z4.contains(math.pi**4 / 90.0)
    assert z4.width <= 1e-9

    for s in (1.5, 2.0, 3.0):
        verdict = verify_separation_bound(s, 50)
        assert verdict.passed, s
        assert verdict.worst_ratio <= 1.0, s


def test_criterion_3_specific_modulus_values():
    # Independent constant from high-precision zeta.
    for a, s, c, expected in [(1.0, 2.0, 1.0, 3), (1.0, 2.0, 4.0, 2)]:
        m = choose_modulus(a, s, c)
        assert m == expected
        kappa = 2.0 * float(mpmath.zeta(s))
        assert a * kappa / float(m) ** s <= c / 2.0 + 1e-15
        assert a * kappa / float(m - 1) ** s > c / 2.0


def test_criterion_4_sharp_margin_for_residue_one_mod_three():
    g = power_law_gram(1.0, 2.0, 1.0, 10_000)
    margin = class_margin_lower_bound(g, ResidueClass(1, 3))

    # Independent oracle: compensated sum of 10^6 terms plus integral tail.
    head = math.fsum((1.0 + 3.0 * k) ** (-2.0) for k in range(1, 1_000_001))
    tail_lo = (1.0 + 3.0 * 1_000_001.0) ** (-1.0) / 3.0
    tail_hi = (1.0 + 3.0 * 1_000_000.0) ** (-1.0) / 3.0
    oracle_lo = 1.0 - 2.0 * (head + tail_hi)
    oracle_hi = 1.0 - 2.0 * (head + tail_lo)
    assert oracle_lo == pytest.approx(0.7565339, abs=1e-5)

    assert abs(margin - (oracle_lo + oracle_hi) / 2.0) <= 1e-3
    assert margin <= oracle_hi  # certified lower bounds never exceed the truth

    crude = 1.0 - 2.0 * float(mpmath.zeta(2)) / 9.0
    assert crude == pytest.approx(0.6344591, abs=1e-6)
    assert margin >= crude


def _all_partitions(n):
    def rec(i, current):
        if i == n:
            yield [list(c) for c in current]
            return
        for c in range(len(current) + 1):
            if c == len(current):
                current.append([])
            current[c].append(i)
            yield from rec(i + 1, current)
            current[c].pop()
            if not current[c]:
                current.pop()
    yield from rec(0, [])


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 9))
    e = rng.uniform(0.0, 0.7, size=(t, t))
    e = (e + e.T) / 2.0
    np.fill_diagonal(e, 1.0)
    return GramSystem.from_entries(e)


def test_criterion_5_oracle_soundness_and_minimality():
    epsilon = 1e-12
    for seed in range(50):
        g = _random_instance(seed)
        n, paving = min_partition(g, epsilon)
        for cls in paving.classes:
            assert exact_margin(g, cls) >= epsilon, seed
        if n >= 2:
            for partition in _all_partitions(g.size):
                if len(partition) != n - 1:
                    continue
                classes = [[i + 1 for i in cls] for cls in partition]
                assert not all(exact_margin(g, cls) >= epsilon
                               for cls in classes), (seed, classes)

    for off, expected in [(0.3, 2), (0.6, 3)]:
        e = np.full((5, 5), off)
        np.fill_diagonal(e, 1.0)
        n, _ = min_partition(GramSystem.from_entries(e), epsilon)
        assert n == expected


def test_criterion_6_oracle_never_beats_theory():
    for a, s, c in GRID:
        g = power_law_gram(a, s, c, 12)
        n, _ = min_partition(g, 1e-12)
        m = choose_modulus(a, s, c)
        assert n <= m, (a, s, c, n, m)


def test_criterion_7_gershgorin_cross_check():
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        t = int(rng.integers(4, 65))
        # Off-diagonal mass scaled by size so positive margins actually occur.
        e = rng.uniform(0.0, 2.0 / t, size=(t, t))
        e = (e + e.T) / 2.0
        np.fill_diagonal(e, rng.uniform(0.5, 4.0, size=t))
        g = GramSystem.from_entries(e)
        modulus = int(rng.integers(1, 7))
        for cls in residue_partition(modulus, t).classes:
            if not cls:
                continue
            margin = class_margin_lower_bound(g, cls)
            if margin > 0.0:
                eig = float(np.linalg.eigvalsh(g.submatrix(cls)).min())
                assert eig >= margin - 1e-10, (seed, cls)
                checked += 1
    assert checked >= 50  # the sweep actually exercised positive margins


_BAD_TEMPLATES = [
    "",
    "null",
    "true",
    "42",
    '"gram"',
    "[]",
    "[[1.0]]",
    "{}",
    '{"size": 1}',
    '{"entries": [[1.0]]}',
    '{"size": 0, "entries": []}',
    '{"size": -3, "entries": []}',
    '{"size": "one", "entries": [[1.0]]}',
    '{"size": 1.5, "entries": [[1.0]]}',
    '{"size": true, "entries": [[1.0]]}',
    '{"size": 2, "entries": [[1.0, 0.0]]}',
    '{"size": 2, "entries": [[1.0, 0.0], [0.0]]}',
    '{"size": 1, "entries": [[-1.0]]}',
    '{"size": 1, "entries": [[NaN]]}',
    '{"size": 1, "entries": [[Infinity]]}',
    '{"size": 1, "entries": [["1.0"]]}',
    '{"size": 1, "entries": [[null]]}',
    '{"size": 1, "entries": 7}',
    '{"size": 1, "entries": [[1.0]], "envelope": 3}',
    '{"size": 1, "entries": [[1.0]], "envelope": {"A": 1.0}}',
    '{"size": 1, "entries": [[1.0]], "envelope": {"A": 1.0, "s": 1.0}}',
    '{"size": 1, "entries": [[1.0]], "envelope": {"A": 0.0, "s": 2.0}}',
    '{"size": 1, "entries": [[1.0]], "envelope": {"A": "x", "s": 2.0}}',
    '{"size": 1, "entries": [[1.0]], "diag_floor": -1.0}',
    '{"size": 1, "entries": [[1.0]], "diag_floor": "low"}',
    '{"size": 1, "entries": [[0.5]], "diag_floor": 2.0}',
    '{"size": 2, "entries": [[1.0, 0.9], [0.9, 1.0]], '
    '"envelope": {"A": 0.1, "s": 2.0}}',
    '{"size": 2, "entries": {"banded": {"bandwidth": 0}}}',
    '{"size": 2, "entries": {"banded": {"bandwidth": 3, "bands": []}}}',
    '{"size": 2, "entries": {"banded": {"bandwidth": 0, "bands": [[1.0]]}}}',
    '{"size": 2, "entries": {"banded": {"bandwidth": -1, "bands": []}}}',
    '{"size": 1, "entries": [[true]]}',
    '{"size": 1, "entries": [[1' + '0' * 400 + ']]}',
    '{"size": 2, "entries": {"banded": {"bandwidth": 0, "bands": [[1.0, false]]}}}',
]


def _fuzz_corpus(min_size=100):
    base = gram_dumps(power_law_gram(1.0, 2.0, 1.0, 4))
    rng = random.Random(0x5EED)
    corpus = list(_BAD_TEMPLATES)
    while len(corpus) < min_size + 40:
        roll = rng.randrange(3)
        if roll == 0:
            text = base[: rng.randrange(1, len(base) - 1)]
        elif roll == 1:
            pos = rng.randrange(len(base))
            text = base[:pos] + rng.choice("}{[]:,x~") + base[pos + 1:]
        else:
            text = base.replace('"size": 4', f'"size": {rng.randrange(5, 99)}', 1)
        corpus.append(text)
    verified = []
    for text in corpus:
        try:
            gram_loads(text)
        except InvalidGramData:
            verified.append(text)
    return verified


def test_criterion_8_cli_round_trip_and_fuzz(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "gen.json"
    argv = ["gen", "power-law", "--A", "1", "--s", "2", "--C", "1",
            "--size", "8", "--out", str(out_file)]
    assert dispatch(argv) == 0
    first = out_file.read_text(encoding="utf-8")
    assert gram_dumps(gram_loads(first)) == first  # load/serialize stability
    assert dispatch(argv) == 0
    assert out_file.read_text(encoding="utf-8") == first  # run-to-run stability

    corpus = _fuzz_corpus()
    assert len(corpus) >= 100
    for i, text in enumerate(corpus):
        path = tmp_path / f"fuzz_{i}.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["partition", "--input", str(path)],
                     ["oracle", "--input", str(path)]):
            code = dispatch(argv)  # must not raise
            assert code == 1, (argv, text[:60])
    capsys.readouterr()  # swallow the accumulated diagnostics

    # Valid inputs still map to the documented success codes.
    assert dispatch(["partition", "--input", str(out_file),
                     "--out", str(tmp_path / "cert.json")]) == 0
    payload = json.loads((tmp_path / "cert.json").read_text(encoding="utf-8"))
    assert payload["verdict"] == "PASS"
    capsys.readouterr()
