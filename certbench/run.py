#!/usr/bin/env python3
"""Benchmark of framepaver's certify pipelines.

Usage, from the root of a checkout:

  python3 certbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: wire-pipeline, constants-cold, window-certify, oracle-search
(see README.md).  The benchmark writes every input from the seed, runs
whole ops until S seconds of op time are spent, checks every op's output
against references computed apart from the program, and prints one JSON
line last: correct, attempted, failed and the metrics.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced replay of the same ops.

framepaver is driven from outside, with ``src`` on PYTHONPATH: CLI ops call
``framepaver.cli.main`` in a fresh interpreter, one process at a time, with
files in place of pipes; per-process wall time comes from the parent, CPU
time from the child's ``wait4`` rusage, peak RSS from the child's own
``VmHWM``.  Run outputs go to ``.certbench/`` at the root; the last trace of
each workload stays there.

The end-to-end op time, ``op_ref_p50``, is counted in reference units: each
op's wall time divided by the mean time of a fixed computation (see
:class:`Reference`) run in blocks just before and just after it.  On a
shared host the machine's own speed moves by a fifth within seconds and
drifts over minutes; the ratio cancels most of that, the raw seconds do not
(they are the per-layer ``op.wall_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".certbench")

# Runs ``framepaver ARGS``; the first argument names a file that gets the
# process's own peak RSS in kB.  wait4's ru_maxrss cannot give it: a child
# starts from its parent's high-water RSS, carried across vfork and exec.
CLI_MAIN = """\
import sys
from framepaver.cli import main
peak_path = sys.argv.pop(1)
sys.argv[0] = "framepaver"
try:
    main()
finally:
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""
SETUP_SAMPLES = 5
# Reference units run after each op for at least this share of its wall time;
# the first block, before any op, runs this long.
REF_SHARE = 0.1
REF_FIRST_S = 0.25
CHILD_TIMEOUT_S = 150.0
MB = float(1 << 20)

PER_LAYER = {
    "cli.self_s": "s",
    "generators.power_law_gram_s": "s",
    "gram.to_json_dict_s": "s",
    "gram.from_json_dict_s": "s",
    "gram.construct_s": "s",
    "gram.verify_envelope_s": "s",
    "gram.json_mb": "MB",
    "gram.values": "count",
    "constants.choose_modulus_s": "s",
    "constants.localization_s": "s",
    "bounds.shifted_power_sum_s": "s",
    "partition.certify_s": "s",
    "partition.paving_from_json_dict_s": "s",
    "partition.certificate_to_json_dict_s": "s",
    "partition.class_pairs": "count",
    "oracle.min_partition_s": "s",
    "oracle.exact_margin_s": "s",
    "oracle.instances": "count",
    "oracle.classes_found": "count",
    "op.wall_s": "s",
    "op.cpu_s": "s",
    "trace.overhead_s": "s",
}


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("FRAMEPAVER_THREADS", None)  # measure the default worker count
    return env


class Proc(NamedTuple):
    """Outcome of one child: exit code, wall and CPU seconds, and peak RSS in
    MB where the child reports it (0 where it does not)."""

    code: int
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], log_path: str, stdin=None) -> subprocess.Popen:
    with open(log_path, "ab") as log:
        return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdin=stdin, stdout=subprocess.PIPE if stdin else log,
                                stderr=log)


def reap(proc: subprocess.Popen, started: float, peak_path: str | None = None) -> Proc:
    """Wait for the child with wait4, killing it if it outlives the timeout;
    read its peak RSS from ``peak_path`` if given."""
    done = threading.Event()

    def watchdog():
        if not done.wait(CHILD_TIMEOUT_S):
            proc.kill()

    timer = threading.Thread(target=watchdog, daemon=True)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        timer.join()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = 0.0
    if peak_path is not None and os.path.exists(peak_path):
        with open(peak_path, encoding="ascii") as fh:
            rss_mb = int(fh.read()) / 1024.0
        os.remove(peak_path)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, rss_mb)


def run_child(argv: list[str], log_path: str, peak_path: str | None = None) -> Proc:
    started = time.perf_counter()
    return reap(spawn(argv, log_path), started, peak_path)


def cli(args: list[str], peak_path: str) -> list[str]:
    return ["-c", CLI_MAIN, peak_path, *args]


def reference_loop_s(iterations: int = 2_000_000) -> float:
    """A fixed pure-Python loop that does not touch framepaver: tells a slow
    machine apart from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


class Reference:
    """A fixed computation that does not use framepaver, timed between ops.

    One unit runs a pure-Python loop, sums a 64 MB array and fills a 32 MB
    one: interpreter work, memory reads and memory writes, the three kinds
    of work framepaver's ops mix.  A shared host slows each of them apart,
    so one alone follows the ops' speed less closely.  The arrays are made
    and faulted in once, so a unit takes no page faults.
    """

    def __init__(self):
        self.read = np.ones(8_000_000)
        self.write = np.ones(4_000_000)

    def unit_s(self) -> float:
        start = time.perf_counter()
        reference_loop_s(250_000)
        self.read.sum()
        self.write.fill(2.0)
        return time.perf_counter() - start

    def block_s(self, seconds: float) -> float:
        """Mean unit time over whole units run for at least ``seconds``."""
        units = [self.unit_s()]
        while sum(units) < seconds:
            units.append(self.unit_s())
        return statistics.fmean(units)


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# -- workloads ------------------------------------------------------------------


class CliWorkload:
    """An op is a fixed list of CLI calls; ``check`` verifies its outputs."""

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.log = os.path.join(work, "stderr.log")

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def setup_sample(self) -> float:
        return run_child(cli(["--help"], self.path("peak")), self.log).wall

    def run_op(self, trace_path: str | None) -> tuple[list[Proc], list[dict]]:
        procs, traces = [], []
        for k, args in enumerate(self.calls()):
            if trace_path is None:
                peak = self.path("peak")
                procs.append(run_child(cli(args, peak), self.log, peak))
            else:
                spans = f"{trace_path}.{k}"
                procs.append(run_child(
                    [os.path.join(HERE, "trace_op.py"), spans, "cli", *args], self.log))
                if os.path.exists(spans):
                    traces.append(load_json(spans))
                    os.remove(spans)
        return procs, traces


class WirePipeline(CliWorkload):
    """gen power-law | partition at N = 1000, through a file."""

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.ref = checks.ResidueReference(inputs.WIRE_A, inputs.WIRE_S, inputs.WIRE_C)
        self.checked_gen: set[str] = set()
        self.wire = None  # (bytes, values) of one gen output

    def calls(self):
        A, s, C, size = inputs.WIRE_A, inputs.WIRE_S, inputs.WIRE_C, inputs.WIRE_SIZE
        return [["gen", "power-law", "--A", repr(A), "--s", repr(s), "--C", repr(C),
                 "--size", str(size), "--out", self.path("gram.json")],
                ["partition", "--input", self.path("gram.json"),
                 "--out", self.path("cert.json")]]

    def check(self):
        gram = self.path("gram.json")
        digest = file_digest(gram)
        if digest not in self.checked_gen:  # gen is deterministic; check each distinct output
            payload = load_json(gram)
            checks.check_power_law_entries(
                payload, inputs.WIRE_A, inputs.WIRE_S, inputs.WIRE_C, inputs.WIRE_SIZE,
                np.random.default_rng([self.seed, 10]))
            self.checked_gen.add(digest)
            # written once by gen and read once by partition
            self.wire = (2 * os.path.getsize(gram), 2 * inputs.entry_values(payload))
        checks.check_residue_certificate(load_json(self.path("cert.json")), self.ref)

    def counts(self) -> dict:
        return {"gram.json_mb": self.wire[0] / MB, "gram.values": self.wire[1]}


class ConstantsCold(CliWorkload):
    """constants at s = 1.5, then partition on 64-index systems at s = 1.1 and 1.5."""

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.systems = inputs.cold_systems(seed)
        self.refs = [checks.ResidueReference(*abc) for abc in self.systems]
        size_total = values = 0
        for k, (A, s, C) in enumerate(self.systems):
            payload = inputs.power_law_payload(A, s, C, inputs.COLD_SIZE)
            inputs.write_json(self.path(f"gram{k}.json"), payload)
            size_total += os.path.getsize(self.path(f"gram{k}.json"))
            values += inputs.entry_values(payload)
        self.wire = (size_total, values)

    def calls(self):
        out = [["constants", "--s", repr(inputs.COLD_CONSTANTS_S),
                "--out", self.path("constants.json")]]
        for k in range(len(self.systems)):
            out.append(["partition", "--input", self.path(f"gram{k}.json"),
                        "--out", self.path(f"cert{k}.json")])
        return out

    def check(self):
        checks.check_constants(load_json(self.path("constants.json")),
                               inputs.COLD_CONSTANTS_S)
        for k, ref in enumerate(self.refs):
            checks.check_residue_certificate(load_json(self.path(f"cert{k}.json")), ref)

    def counts(self) -> dict:
        return {"gram.json_mb": self.wire[0] / MB, "gram.values": self.wire[1]}


class WindowCertify(CliWorkload):
    """certify a 4000-index banded system against explicit residue classes mod 3."""

    def __init__(self, work, seed):
        super().__init__(work, seed)
        diag, bands = inputs.band_system(seed)
        payload = inputs.band_payload(diag, bands)
        inputs.write_json(self.path("band.json"), payload)
        paving = inputs.paving_payload()
        inputs.write_json(self.path("residues.json"), paving)
        self.ref = checks.BandReference(diag, bands, paving["classes"])
        self.wire = (os.path.getsize(self.path("band.json")), inputs.entry_values(payload))

    def calls(self):
        return [["certify", "--input", self.path("band.json"),
                 "--paving", self.path("residues.json"), "--out", self.path("cert.json")]]

    def check(self):
        checks.check_window_certificate(load_json(self.path("cert.json")), self.ref)

    def counts(self) -> dict:
        return {"gram.json_mb": self.wire[0] / MB, "gram.values": self.wire[1],
                "partition.class_pairs": self.ref.class_pairs}


class OracleSearch:
    """min_partition plus exact_margin of each class over a seeded corpus, in
    one warm process."""

    def __init__(self, work, seed):
        self.work = work
        self.log = os.path.join(work, "stderr.log")
        self.corpus = inputs.oracle_corpus(seed)
        self.eps = inputs.ORACLE_EPSILON
        self.corpus_path = os.path.join(work, "corpus.npz")
        np.savez(self.corpus_path, corpus=self.corpus, epsilon=self.eps)
        self.ref = [checks.min_classes(g, self.eps) for g in self.corpus]
        self.worker = None
        self.worker_started = 0.0

    def _start(self) -> float:
        """Start a worker as ``self.worker``; return seconds until it is ready."""
        self.worker_started = time.perf_counter()
        self.worker = spawn([os.path.join(HERE, "oracle_worker.py"), self.corpus_path],
                            self.log, stdin=subprocess.PIPE)
        line = self.worker.stdout.readline()
        ready = time.perf_counter() - self.worker_started
        if line.strip() != b"ready":
            self.stop()
            raise RuntimeError("oracle worker failed to start; see " + self.log)
        return ready

    def stop(self) -> Proc | None:
        if self.worker is None:
            return None
        worker, self.worker = self.worker, None
        worker.stdin.close()
        worker.stdout.close()
        return reap(worker, self.worker_started)

    def setup_sample(self) -> float:
        """Start and stop a fresh worker beside the warm one the ops use."""
        warm, warm_started = self.worker, self.worker_started
        try:
            return self._start()
        finally:
            self.stop()
            self.worker, self.worker_started = warm, warm_started

    def run_op(self, trace_path: str | None):
        if trace_path is None:
            if self.worker is None:
                self._start()
            self.worker.stdin.write(b"op\n")
            self.worker.stdin.flush()
            line = self.worker.stdout.readline()
            if not line:  # the worker died; the next op starts a fresh one
                return [self.stop()], []
            result = json.loads(line)
            self.answers = result["answers"]
            return [Proc(0, result["op_s"], result["cpu_s"], result["peak_mb"])], []
        proc = run_child([os.path.join(HERE, "trace_op.py"), trace_path, "oracle",
                          self.corpus_path], self.log)
        traces = []
        if os.path.exists(trace_path):
            trace = load_json(trace_path)
            os.remove(trace_path)
            self.answers = trace.pop("answers")
            proc = Proc(proc.code, trace["op_s"], trace["cpu_s"], 0.0)
            traces.append(trace)
        return [proc], traces

    def check(self):
        if len(self.answers) != len(self.corpus):
            raise checks.CheckError("one answer per instance expected")
        for g, ref_n, answer in zip(self.corpus, self.ref, self.answers):
            checks.check_oracle_answer(g, self.eps, ref_n, answer)

    def counts(self) -> dict:
        return {"oracle.instances": len(self.corpus),
                "oracle.classes_found": sum(a["N"] for a in self.answers)}


WORKLOADS = {
    "wire-pipeline": WirePipeline,
    "constants-cold": ConstantsCold,
    "window-certify": WindowCertify,
    "oracle-search": OracleSearch,
}


# -- trace aggregation ------------------------------------------------------------


def self_times(trace: dict) -> dict:
    """Per span name, summed self time of the spans inside the op.

    Self time is a span's duration minus its children's durations; the
    children of one span ran one after another in its thread.  In an oracle
    replay only spans under the ``op`` span count: the instance systems are
    built before it.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start

    def root(i):
        while spans[i][3] is not None:
            i = spans[i][3]
        return spans[i][0]

    has_op = any(name == "op" for name, *_ in spans)
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if name == "op" or (has_op and root(i) != "op"):
            continue
        out[name] = out.get(name, 0.0) + (end - start - child_time[i])
    return out


# -- main -----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT)
    workload = None
    try:
        workload = WORKLOADS[name](work, seed)
        setup: list[float] = []
        attempted = failed = 0
        correct = True
        spent = 0.0
        op_walls, op_refs, op_cpus, traced_walls, peak = [], [], [], [], 0.0
        layer_samples: dict[str, list[float]] = {k: [] for k in PER_LAYER}
        missing: set[str] = set()
        kept_traces: list[dict] = []
        kinds = [None, "traced"] if trace else [None]
        if not trace:
            reference = Reference()
            ref_before = reference.block_s(REF_FIRST_S)
        while spent < seconds:
            for kind in kinds:
                attempted += 1
                trace_path = os.path.join(work, f"trace{attempted}.json") if kind else None
                if not trace:
                    setup.append(workload.setup_sample())
                procs, traces = workload.run_op(trace_path)
                wall = sum(p.wall for p in procs)
                if not trace:  # the op's time against the blocks on both sides of it
                    ref_after = reference.block_s(REF_SHARE * wall)
                    ref, ref_before = (ref_before + ref_after) / 2, ref_after
                spent += wall
                peak = max([peak] + [p.rss_mb for p in procs])
                if any(p.code not in (0, 2) for p in procs) or (kind and not traces):
                    failed += 1
                    continue
                try:
                    workload.check()
                except checks.CheckError as exc:
                    print(f"check failed on op {attempted}: {exc}", file=sys.stderr)
                    correct = False
                if kind is None:
                    op_walls.append(wall)
                    if not trace:
                        op_refs.append(wall / ref)
                    op_cpus.append(sum(p.cpu for p in procs))
                    continue
                traced_walls.append(wall)
                per_op: dict[str, float] = {}
                for t in traces:
                    missing.update(t["missing"])
                    for span, v in self_times(t).items():
                        per_op[span] = per_op.get(span, 0.0) + v
                for key in PER_LAYER:
                    if key.endswith("_s") and key[:-2] in per_op:
                        layer_samples[key].append(per_op[key[:-2]])
                layer_samples["cli.self_s"].append(per_op.get("cli", 0.0))
                for key, v in workload.counts().items():
                    layer_samples[key].append(v)
                kept_traces.append({"op": attempted, "processes": traces})
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(workload.setup_sample())
    finally:
        if isinstance(workload, OracleSearch):
            workload.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"ops: {len(op_walls)} untraced, {len(traced_walls)} traced; "
          f"op_s {[round(w, 4) for w in op_walls]}", flush=True)
    if trace:
        with open(os.path.join(OUT, f"trace-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "ops": kept_traces}, fh)
        if missing:
            print(f"trace: missing wrapped names {sorted(missing)}", flush=True)
        values = {k: median(v) for k, v in layer_samples.items()}
        values["op.wall_s"] = median(op_walls)
        values["op.cpu_s"] = median(op_cpus)
        values["trace.overhead_s"] = median(traced_walls) - median(op_walls)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        print(f"setup_s samples {[round(s, 4) for s in setup]}", flush=True)
        metrics = {
            "op_ref_p50": {"value": median(op_refs), "unit": "ref_units"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    return {"correct": correct and bool(op_walls), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "framepaver", "cli.py")):
        print(f"error: framepaver sources not found under {SRC}", file=sys.stderr)
        return 2
    print(f"reference loop: {reference_loop_s():.4f} s (pure Python, no framepaver)",
          flush=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
