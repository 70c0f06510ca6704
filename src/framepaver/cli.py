"""Command-line front end wiring the library into reproducible batch runs.

Subcommands: constants | gen | fit | partition | certify | oracle | report.
Every run is deterministic given identical inputs and flags.  JSON goes to
stdout unless --out is given; exit codes are 0 for success/PASS, 2 for a
FAIL verdict (or a mathematically infeasible oracle instance), 1 for usage
or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .constants import DEFAULT_SIZE_CAP, LocalizationConstants
from .errors import FramePaverError, Infeasible, InvalidGramData, parse_json

# The array-backed names the subcommands call.  Each is bound here on first
# use (``__getattr__`` below), so ``--help`` and ``constants`` never load numpy.
_LAZY = frozenset({
    "FrameSystem", "frame_operator_check", "power_law_gram", "translate_frame_gram",
    "diag_lower_bound", "fit_envelope", "gram_dumps", "gram_from_json_dict",
    "exact_margin", "min_partition",
    "certificate_from_json_dict", "certificate_to_json_dict", "certify",
    "choose_modulus", "paving_from_json_dict", "residue_partition",
})


def __getattr__(name):
    """Bind a name of ``_LAZY`` here, from the package, which imports its module."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


# This module as an object.  The subcommands read array-backed names through
# it, so the first read imports the home module, and a name rebound on the
# module (a wrapper, say) is the one called.
_here = sys.modules[__name__]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framepaver",
        description="Certified Riesz-sequence paving of localized Gram systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="certified zeta / decay-sum / separation constants")
    p.add_argument("--s", type=float, required=True, help="decay exponent, s > 1")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("gen", help="generate test systems")
    gensub = p.add_subparsers(dest="generator", required=True)

    q = gensub.add_parser("power-law", help="exact power-law Gram system")
    q.add_argument("--A", type=float, required=True, help="envelope amplitude")
    q.add_argument("--s", type=float, required=True, help="decay exponent")
    q.add_argument("--C", type=float, required=True, help="diagonal value")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_gen_power_law)

    q = gensub.add_parser("translates", help="cyclic-translate Gram system")
    q.add_argument("--window", required=True, help="comma-separated nonnegative values")
    q.add_argument("--period", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_gen_translates)

    q = gensub.add_parser("frame-check", help="finite frame-operator spectrum check")
    q.add_argument("--vectors", required=True,
                   help="JSON file with 'vectors' and optional 'functionals'")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_frame_check)

    p = sub.add_parser("fit", help="fit a decay envelope to a stored system")
    p.add_argument("--input", help="gram JSON (default: stdin)")
    p.add_argument("--apply", help="write the system with the fitted envelope here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("partition", help="choose a modulus, pave, and certify")
    p.add_argument("--input", help="gram JSON (default: stdin)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="margin threshold (default: half the diagonal bound)")
    p.add_argument("--modulus", type=int, default=None,
                   help="override the chosen modulus")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("certify", help="certify a supplied paving")
    p.add_argument("--input", help="gram JSON (default: stdin)")
    p.add_argument("--paving", required=True, help="paving JSON file")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="exact minimum paving on a finite instance")
    p.add_argument("--input", help="gram JSON (default: stdin)")
    p.add_argument("--epsilon", type=float, default=1e-12)
    p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("report", help="render a certificate as plain text")
    p.add_argument("--input", help="certificate JSON (default: stdin)")
    p.add_argument("--oracle", help="oracle JSON for the theory-vs-oracle gap")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


# -- I/O helpers -------------------------------------------------------------


def _read_text(path: str | None) -> tuple[str, str]:
    if path is None or path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read(), path


def _load_json(path: str | None):
    text, label = _read_text(path)
    return parse_json(text, label), label


def _load_gram(path: str | None):
    payload, label = _load_json(path)
    try:
        return _here.gram_from_json_dict(payload), label
    except FramePaverError as exc:
        raise InvalidGramData(f"{label}: {exc}") from None


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- subcommands --------------------------------------------------------------


def _cmd_constants(args) -> int:
    c = LocalizationConstants.compute(args.s)
    _emit({"s": c.s, "zeta": c.zeta.as_pair(), "d_s": c.sup_sum.as_pair(),
           "c_s": c.separation}, args.out)
    return 0


def _cmd_gen_power_law(args) -> int:
    g = _here.power_law_gram(args.A, args.s, args.C, args.size)
    _write(_here.gram_dumps(g), args.out)
    return 0


def _cmd_gen_translates(args) -> int:
    try:
        window = [float(v) for v in args.window.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"--window must be comma-separated numbers, got {args.window!r}")
    _write(_here.gram_dumps(_here.translate_frame_gram(window, args.period)), args.out)
    return 0


def _cmd_frame_check(args) -> int:
    payload, label = _load_json(args.vectors)
    if not isinstance(payload, dict) or "vectors" not in payload:
        raise InvalidGramData(f"{label}: expected an object with 'vectors'")
    vectors = payload["vectors"]
    functionals = payload.get("functionals")
    fs = _here.FrameSystem.self_dual(vectors) if functionals is None \
        else _here.FrameSystem(vectors=vectors, functionals=functionals)
    report = _here.frame_operator_check(fs)
    _emit({
        "dim": report.dim,
        "count": report.count,
        "singular_values": list(report.singular_values),
        "min_singular": report.min_singular,
        "max_singular": report.max_singular,
        "invertible": report.invertible,
        "self_dual": report.self_dual,
        "eigenvalues": None if report.eigenvalues is None else list(report.eigenvalues),
    }, args.out)
    return 0 if report.invertible else 2


def _cmd_fit(args) -> int:
    g, _ = _load_gram(args.input)
    fit = _here.fit_envelope(g)
    if args.apply:
        _write(_here.gram_dumps(g.with_envelope(fit.envelope)), args.apply)
    _emit({"envelope": {"A": fit.envelope.amplitude, "s": fit.envelope.exponent},
           "objective": fit.objective}, args.out)
    return 0


def _cmd_partition(args) -> int:
    g, label = _load_gram(args.input)
    bound = _here.diag_lower_bound(g)
    if args.modulus is not None:
        modulus = args.modulus
    elif g.envelope is not None:
        modulus = _here.choose_modulus(g.envelope.amplitude, g.envelope.exponent,
                                       bound.value)
    else:
        raise InvalidGramData(
            f"{label}: no envelope attached; supply --modulus or run fit first")
    covers_naturals = g.envelope is not None and g.diag_floor is not None
    paving = _here.residue_partition(modulus, None if covers_naturals else g.size)
    cert = _here.certify(g, paving, args.epsilon)
    _emit(_here.certificate_to_json_dict(cert), args.out)
    return 0 if cert.passed else 2


def _cmd_certify(args) -> int:
    g, _ = _load_gram(args.input)
    payload, label = _load_json(args.paving)
    try:
        paving = _here.paving_from_json_dict(payload)
    except FramePaverError as exc:
        raise InvalidGramData(f"{label}: {exc}") from None
    cert = _here.certify(g, paving, args.epsilon)
    _emit(_here.certificate_to_json_dict(cert), args.out)
    return 0 if cert.passed else 2


def _cmd_oracle(args) -> int:
    g, _ = _load_gram(args.input)
    n, paving = _here.min_partition(g, epsilon=args.epsilon, cap=args.cap)
    compared = None
    if g.envelope is not None and g.diag_floor is not None:
        compared = _here.choose_modulus(g.envelope.amplitude, g.envelope.exponent,
                                        _here.diag_lower_bound(g).value)
    _emit({
        "N": n,
        "classes": [list(c) for c in paving.classes],
        "margins": [_here.exact_margin(g, c) for c in paving.classes],
        "compared_modulus": compared,
    }, args.out)
    return 0


def _cmd_report(args) -> int:
    payload, label = _load_json(args.input)
    try:
        cert = _here.certificate_from_json_dict(payload)
    except FramePaverError as exc:
        raise InvalidGramData(f"{label}: {exc}") from None
    lines = ["paving certificate"]
    p = cert.paving
    if p.range_end is None:
        lines.append(f"  range:      naturals (residue classes mod {p.modulus})")
    else:
        lines.append(f"  range:      1..{p.range_end}")
    lines.append(f"  classes:    {p.n_classes}")
    lines.append(f"  epsilon:    {cert.epsilon:.9g}")
    lines.append(f"  scope:      {cert.scope}")
    lines.append(f"  verdict:    {cert.verdict}")
    lines.append("  margins:")
    for j, margin in enumerate(cert.per_class_margin, start=1):
        shown = "inf (empty class)" if math.isinf(margin) else f"{margin:.9g}"
        flag = "" if margin >= cert.epsilon else "   <-- below epsilon"
        lines.append(f"    class {j:>3}: {shown}{flag}")
    finite = [m for m in cert.per_class_margin if not math.isinf(m)]
    if finite:
        lines.append(f"  min margin: {min(finite):.9g}")
    if args.oracle:
        opayload, olabel = _load_json(args.oracle)
        if not isinstance(opayload, dict) or "N" not in opayload:
            raise InvalidGramData(f"{olabel}: expected oracle output with 'N'")
        n = opayload["N"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            shown = repr(n) if isinstance(n, (int, float)) else type(n).__name__
            raise InvalidGramData(f"{olabel}: oracle 'N' must be an integer >= 1, "
                                  f"got {shown}")
        lines.append("theory vs oracle:")
        lines.append(f"  certified modulus: {p.modulus}")
        lines.append(f"  oracle minimum:    {n}")
        if p.modulus is not None:
            lines.append(f"  gap:               {p.modulus - n}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# -- dispatch -----------------------------------------------------------------


def dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code (0 / 1 / 2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (FramePaverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
