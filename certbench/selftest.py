#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Usage, from the root of a checkout:  python3 certbench/selftest.py

Each check first gets a genuine framepaver output on a small input and must
accept it, then gets a corrupted copy and must reject it:

* a residue margin nudged up, and the modulus off by one (partition);
* a window margin nudged up, and a paving missing an index (certify);
* an oracle answer with one class too many (min_partition);
* a constants enclosure shifted off zeta, and gen entries scaled by 1e-14.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

import numpy as np

import checks
import inputs
import run


def expect(label: str, check, good, corrupt) -> bool:
    ok = True
    try:
        check(good)
    except checks.CheckError as exc:
        print(f"FAIL {label}: genuine output rejected: {exc}")
        ok = False
    bad = copy.deepcopy(good)
    corrupt(bad)
    try:
        check(bad)
        print(f"FAIL {label}: corrupted output accepted")
        return False
    except checks.CheckError as exc:
        print(f"ok   {label}: rejected ({exc})")
    return ok


def cli_output(work: str, args: list[str], out_name: str):
    out = os.path.join(work, out_name)
    proc = run.run_child(run.cli([*args, "--out", out], os.path.join(work, "peak")),
                         os.path.join(work, "stderr.log"))
    if proc.code not in (0, 2):
        raise RuntimeError(f"framepaver {' '.join(args)} exited {proc.code}")
    return run.load_json(out)


def nudge_first_margin(cert: dict) -> None:
    cert["margins"][0] += 1e-9


def drop_one_index(cert: dict) -> None:
    cert["classes"]["classes"][0].pop()


def one_class_too_many(answer: dict) -> None:
    big = max(answer["classes"], key=len)
    answer["classes"].append([big.pop()])
    answer["margins"].append(answer["margins"][-1])
    answer["N"] += 1


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as work:
        # partition on a small power-law system: a global residue certificate
        A, s, C = 1.0, 2.0, 1.0
        gram = os.path.join(work, "gram.json")
        inputs.write_json(gram, inputs.power_law_payload(A, s, C, 50))
        cert = cli_output(work, ["partition", "--input", gram], "cert.json")
        ref = checks.ResidueReference(A, s, C)
        check = lambda c: checks.check_residue_certificate(c, ref)
        results.append(expect("residue margin nudged up", check, cert, nudge_first_margin))
        results.append(expect("modulus off by one", check, cert,
                              lambda c: c.update(modulus=c["modulus"] + 1)))

        # certify on a small banded system with explicit residue classes
        diag, bands = inputs.band_system(0, size=300)
        band, paving = os.path.join(work, "band.json"), os.path.join(work, "paving.json")
        inputs.write_json(band, inputs.band_payload(diag, bands))
        pav = inputs.paving_payload(300)
        inputs.write_json(paving, pav)
        cert = cli_output(work, ["certify", "--input", band, "--paving", paving], "wcert.json")
        ref_band = checks.BandReference(diag, bands, pav["classes"])
        check = lambda c: checks.check_window_certificate(c, ref_band)
        results.append(expect("window margin nudged up", check, cert, nudge_first_margin))
        results.append(expect("paving missing an index", check, cert, drop_one_index))

        # constants and gen output
        out = cli_output(work, ["constants", "--s", "2.0"], "constants.json")
        results.append(expect("zeta enclosure shifted", lambda o: checks.check_constants(o, 2.0),
                              out, lambda o: o.update(zeta=[o["zeta"][1], o["zeta"][1] + 1e-9])))
        out = cli_output(work, ["gen", "power-law", "--A", "1.0", "--s", "2.0", "--C", "1.0",
                                "--size", "40"], "gen.json")
        rng_seed = [0, 10]
        results.append(expect(
            "gen entries scaled", lambda o: checks.check_power_law_entries(
                o, A, s, C, 40, np.random.default_rng(rng_seed)),
            out, lambda o: o.update(entries=[[v * (1 + 1e-14) for v in row]
                                             for row in o["entries"]])))

    # the oracle, in process, on three instances of the benchmark corpus
    sys.path.insert(0, run.SRC)
    from framepaver import GramSystem, exact_margin, min_partition

    for k, g in enumerate(inputs.oracle_corpus(0)[:3]):
        sys_g = GramSystem.from_entries(g)
        n, p = min_partition(sys_g, inputs.ORACLE_EPSILON)
        answer = {"N": n, "classes": [list(c) for c in p.classes],
                  "margins": [exact_margin(sys_g, c) for c in p.classes]}
        ref_n = checks.min_classes(g, inputs.ORACLE_EPSILON)
        results.append(expect(
            f"oracle instance {k} with one class too many",
            lambda a: checks.check_oracle_answer(g, inputs.ORACLE_EPSILON, ref_n, a),
            answer, one_class_too_many))

    print(f"{sum(results)}/{len(results)} checks behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
