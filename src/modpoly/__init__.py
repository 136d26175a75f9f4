"""Modular quotients of string Coxeter groups.

Parse linear diagrams, build exact integer reflection representations,
reduce them mod d, and answer order/membership/intersection questions with
element lists of small groups and deterministic stabilizer chains; verify
string C-group structure, classify spherical and Euclidean windows, and
compute toroid type vectors.
"""

from .diagram import Branch, Diagram, ParseError, parse_diagram, parse_file
from .matrep import (
    ModularRep,
    gram_matrix,
    is_transvection,
    radical_vector,
    reduce_mod,
    reflection_matrices,
)
from .engine import (
    BoundExceeded,
    Listed,
    OrbitGuardExceeded,
    OrderGuardExceeded,
    PointSpace,
    PointSpaceOverflow,
    StabChain,
    element_period,
    enumerate_small,
    intersection_order,
)
from .polytopality import (
    VerificationReport,
    Verifier,
    verify_diagram,
    verify_words,
    word_matrices,
)
from .toroids import (
    QuotientResult,
    SectionClass,
    TranslationSubgroup,
    TypeVector,
    check_translation_splitting,
    classify,
    classify_euclidean,
    classify_spherical,
    predicted_type_vector,
    quotient_criterion,
    translation_generators,
    type_vector,
)
from .registry import GoldenCase, get_case, registry

__version__ = "0.1.0"
