"""Certified Riesz-sequence paving of localized cross-Gram systems.

The library certifies, with explicit numerical margins, that a
bounded-below system with power-law off-diagonal decay splits into finitely
many residue classes, each diagonally dominant; an exact brute-force oracle
measures on finite instances how far that construction is from optimal.
"""

import importlib

__version__ = "0.1.0"

# The public names by home module.  Each is imported on first use
# (``__getattr__`` below, PEP 562), so ``import framepaver.cli`` loads only
# what a subcommand calls.
_HOMES = {name: home for home, names in (
    ("bounds", ("Interval",)),
    ("constants", ("LocalizationConstants", "SeparationVerdict", "separation_constant",
                   "sup_decay_sum", "verify_separation_bound", "zeta")),
    ("errors", ("DimensionMismatch", "FramePaverError", "IndexBeyondTruncation",
                "IndexOutOfRange", "Infeasible", "InvalidExponent", "InvalidGramData",
                "MissingEnvelope", "PavingCoverageError", "WindowTooLong")),
    ("generators", ("FrameSystem", "SpectrumReport", "frame_operator_check",
                    "power_law_gram", "translate_frame_gram")),
    ("gram", ("DecayEnvelope", "EnvelopeVerdict", "GramSystem", "certified_min_amplitude",
              "diag_lower_bound", "entry_bound", "fit_envelope", "gram_dumps",
              "gram_from_json_dict", "gram_loads", "gram_to_json_dict", "verify_envelope")),
    ("oracle", ("exact_margin", "min_partition")),
    ("partition", ("SCOPE_GLOBAL", "SCOPE_TRUNCATION", "ARSCertificate", "Paving",
                   "ResidueClass", "certificate_from_json_dict", "certificate_to_json_dict",
                   "certify", "choose_modulus", "class_margin_lower_bound",
                   "paving_from_json_dict", "paving_to_json_dict", "residue_partition")),
) for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
