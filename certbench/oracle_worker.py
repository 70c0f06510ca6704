"""Warm process for the oracle-search workload.

Usage: python3 oracle_worker.py CORPUS.npz   (with framepaver's src on PYTHONPATH)

Imports framepaver, builds one GramSystem per stored instance, prints
``ready``, then answers each ``op`` line on stdin with one JSON line: the
op's wall and CPU time, the process's peak RSS so far in MB and the oracle's
answer for every instance.  Exits on ``quit`` or end of input.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def build_systems(path: str):
    from framepaver import gram

    with np.load(path) as data:
        corpus, eps = data["corpus"], float(data["epsilon"])
    return [gram.GramSystem.from_entries(g) for g in corpus], eps


def run_op(systems, eps: float) -> list[dict]:
    """One op: the minimum paving and the exact margin of each of its classes."""
    from framepaver import oracle

    answers = []
    for g in systems:
        n, paving = oracle.min_partition(g, eps)
        margins = [oracle.exact_margin(g, c) for c in paving.classes]
        answers.append({"N": n, "classes": [list(c) for c in paving.classes],
                        "margins": margins})
    return answers


def peak_rss_mb() -> float:
    """This process's own high-water RSS (getrusage would include the
    parent's, inherited across vfork and exec)."""
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return int(kb) / 1024.0


def timed_op(systems, eps: float) -> dict:
    wall, cpu = time.perf_counter(), time.process_time()
    answers = run_op(systems, eps)
    return {"op_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu,
            "peak_mb": peak_rss_mb(), "answers": answers}


def main(argv) -> int:
    systems, eps = build_systems(argv[1])
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "op":
            break
        print(json.dumps(timed_op(systems, eps)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
