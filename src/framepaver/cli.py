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
from .errors import (FramePaverError, Infeasible, InvalidGramData, parse_json, require_int,
                     require_keys, require_real)

# The array-backed names the subcommands call are the package's public names
# (``framepaver._HOMES``).  Each is bound here on first use (``__getattr__``
# below), so ``--help`` and ``constants`` never load numpy.
def __getattr__(name):
    """Bind a public name of the package here, which imports its home module."""
    package = sys.modules[__package__]
    if name not in package._HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(package, name))


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


def _load(path: str | None, reader: str):
    """The public function named ``reader`` applied to the JSON at ``path``,
    and the file's label, which starts the message of any
    ``FramePaverError`` the reader raises.

    The name is looked up on this module, so a wrapper bound here is called,
    and only after the parse, so numpy is imported once the text is freed
    (imported first, it raises the peak RSS of ``partition`` on the 22.7 MB
    text of a 1000-index power law by 13 MB).
    """
    payload, label = _load_json(path)
    try:
        return getattr(_here, reader)(payload), label
    except FramePaverError as exc:
        raise InvalidGramData(f"{label}: {exc}") from None


def _emit(payload, out: str | None) -> None:
    _write([json.dumps(payload, indent=2, allow_nan=False) + "\n"], out)


def _write(pieces, out: str | None) -> None:
    """Write the text ``pieces``, in order and as they come, to the file
    ``out`` or to stdout, so a generator of pieces is never joined."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _write_gram(g, out: str | None) -> None:
    """Write the wire text of ``g`` (what ``gram_dumps`` returns) piece by
    piece, so the whole text is never held."""
    from .gram import _wire_pieces

    _write(_wire_pieces(g), out)


# -- subcommands --------------------------------------------------------------


def _cmd_constants(args) -> int:
    c = LocalizationConstants.compute(args.s)
    _emit({"s": c.s, "zeta": c.zeta.as_pair(), "d_s": c.sup_sum.as_pair(),
           "c_s": c.separation}, args.out)
    return 0


def _cmd_gen_power_law(args) -> int:
    _write_gram(_here.power_law_gram(args.A, args.s, args.C, args.size), args.out)
    return 0


def _cmd_gen_translates(args) -> int:
    try:
        window = [float(v) for v in args.window.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"--window must be comma-separated numbers, got {args.window!r}")
    _write_gram(_here.translate_frame_gram(window, args.period), args.out)
    return 0


def _cmd_frame_check(args) -> int:
    payload, label = _load_json(args.vectors)
    try:
        require_keys(payload, "frame input", ("vectors",), ("functionals",))
        vectors, functionals = payload["vectors"], payload.get("functionals")
        fs = _here.FrameSystem.self_dual(vectors) if functionals is None else \
            _here.FrameSystem(vectors=vectors, functionals=functionals)
        report = _here.frame_operator_check(fs)
    except FramePaverError as exc:
        raise InvalidGramData(f"{label}: {exc}") from None
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
    g, _ = _load(args.input, "gram_from_json_dict")
    fit = _here.fit_envelope(g)
    if args.apply:
        _write_gram(g.with_envelope(fit.envelope), args.apply)
    _emit({"envelope": {"A": fit.envelope.amplitude, "s": fit.envelope.exponent},
           "objective": fit.objective}, args.out)
    return 0


def _cmd_partition(args) -> int:
    g, label = _load(args.input, "gram_from_json_dict")
    if args.modulus is not None:
        modulus = args.modulus
    elif g.envelope is not None:
        modulus = _here.choose_modulus(g.envelope.amplitude, g.envelope.exponent,
                                       _here.diag_lower_bound(g))
    else:
        raise InvalidGramData(
            f"{label}: no envelope attached; supply --modulus or run fit first")
    covers_naturals = g.envelope is not None and g.diag_floor is not None
    paving = _here.residue_partition(modulus, None if covers_naturals else g.size)
    cert = _here.certify(g, paving, args.epsilon)
    _emit(_here.certificate_to_json_dict(cert), args.out)
    return 0 if cert.passed else 2


def _cmd_certify(args) -> int:
    g, _ = _load(args.input, "gram_from_json_dict")
    paving, _ = _load(args.paving, "paving_from_json_dict")
    cert = _here.certify(g, paving, args.epsilon)
    _emit(_here.certificate_to_json_dict(cert), args.out)
    return 0 if cert.passed else 2


def _cmd_oracle(args) -> int:
    cap, epsilon = require_int(args.cap, "cap", 1), require_real(args.epsilon, "epsilon", 0)
    g, label = _load(args.input, "gram_from_json_dict")
    try:
        n, paving = _here.min_partition(g, epsilon=epsilon, cap=cap)
    except InvalidGramData as exc:  # arguments are checked, so the instance exceeds the cap
        raise InvalidGramData(f"{label}: {exc}") from None
    compared = None
    if g.envelope is not None and g.diag_floor is not None:
        compared = _here.choose_modulus(g.envelope.amplitude, g.envelope.exponent,
                                        _here.diag_lower_bound(g))
    _emit({
        "N": n,
        "classes": [list(c) for c in paving.classes],
        "margins": [_here.exact_margin(g, c) for c in paving.classes],
        "compared_modulus": compared,
    }, args.out)
    return 0


def _cmd_report(args) -> int:
    cert, _ = _load(args.input, "certificate_from_json_dict")
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
        require_keys(opayload, f"{olabel}: oracle output", ("N",),
                     ("classes", "margins", "compared_modulus"))
        n = require_int(opayload["N"], f"{olabel}: oracle 'N'", 1)
        lines.append("theory vs oracle:")
        lines.append(f"  certified modulus: {p.modulus}")
        lines.append(f"  oracle minimum:    {n}")
        if p.modulus is not None:
            lines.append(f"  gap:               {p.modulus - n}")
    _write(["\n".join(lines) + "\n"], args.out)
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
