"""Traced replay of one benchmark op in a fresh process.

Usage (with framepaver's src on PYTHONPATH):
  python3 trace_op.py SPANS.json cli ARGS...        one CLI call through cli.dispatch
  python3 trace_op.py SPANS.json oracle CORPUS.npz  one oracle-search op

Before the op runs, wrappers replace the public functions at the module
attributes where framepaver looks them up.  Each call records a span
(name, start, end, parent span); spans stay in memory and are written to
SPANS.json when the op ends, with the names that could not be wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# (span name, module, attribute path) for every wrapped function.
TARGETS = (
    ("cli", "framepaver.cli", "dispatch"),
    ("generators.power_law_gram", "framepaver.cli", "power_law_gram"),
    ("gram.to_json_dict", "framepaver.cli", "gram_to_json_dict"),
    ("gram.from_json_dict", "framepaver.cli", "gram_from_json_dict"),
    ("gram.construct", "framepaver.gram", "GramSystem.from_entries"),
    ("gram.construct", "framepaver.gram", "GramSystem.from_distance_profile"),
    ("gram.construct", "framepaver.gram", "GramSystem.from_cyclic_profile"),
    ("gram.verify_envelope", "framepaver.gram", "verify_envelope"),
    ("constants.choose_modulus", "framepaver.cli", "choose_modulus"),
    ("constants.localization", "framepaver.cli", "LocalizationConstants.compute"),
    ("bounds.shifted_power_sum", "framepaver.partition", "shifted_power_sum"),
    ("partition.certify", "framepaver.cli", "certify"),
    ("partition.paving_from_json_dict", "framepaver.cli", "paving_from_json_dict"),
    ("partition.certificate_to_json_dict", "framepaver.cli", "certificate_to_json_dict"),
    ("oracle.min_partition", "framepaver.oracle", "min_partition"),
    ("oracle.exact_margin", "framepaver.oracle", "exact_margin"),
)


class Recorder:
    """In-memory span list; the parent of a span is the innermost open span
    of the same thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self, name: str, module: str, path: str) -> bool:
        """Wrap module.path in place; False when the name no longer exists."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, self.wrap(name, raw))
        return True


def main(argv) -> int:
    spans_path, mode, *rest = argv[1:]
    rec = Recorder()
    missing = [f"{module}.{path}" for name, module, path in TARGETS
               if not rec.install(name, module, path)]
    out = {"missing": missing}
    if mode == "cli":
        from framepaver import cli

        code = cli.dispatch(rest)
    else:
        from oracle_worker import build_systems, timed_op

        systems, eps = build_systems(rest[0])
        out.update(rec.wrap("op", timed_op)(systems, eps))
        code = 0
    out["spans"] = rec.spans
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
