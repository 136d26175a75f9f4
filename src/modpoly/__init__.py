"""Modular quotients of string Coxeter groups.

Parse linear diagrams, build exact integer reflection representations,
reduce them mod d, and answer order/membership/intersection questions with
element lists of small groups and deterministic stabilizer chains; verify
string C-group structure, classify spherical and Euclidean windows, and
compute toroid type vectors.

The public names load their submodule on first use (PEP 562), so importing
the package alone, as a replayed command-line run does, loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in (
    ("diagram", "Branch Diagram ParseError parse_diagram parse_file"),
    ("matrep", "ModularRep gram_matrix radical_vector reduce_mod reflection_matrices"),
    ("engine", "BoundExceeded Listed OrbitGuardExceeded OrderGuardExceeded PointSpace "
               "PointSpaceOverflow StabChain element_period enumerate_small "
               "intersection_order"),
    ("polytopality", "VerificationReport Verifier verify_diagram verify_words word_matrices"),
    ("toroids", "QuotientResult SectionClass TranslationSubgroup classify "
                "classify_euclidean classify_spherical predicted_type_vector "
                "quotient_criterion translation_generators type_vector"),
    ("registry", "GoldenCase"),
) for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _SUBMODULE[name], __name__), name)
