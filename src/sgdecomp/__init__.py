"""Additive decompositions of multiplicative subgroups of finite fields.

The package answers three kinds of question about S_d, the subgroup of
d-th powers of F_q^*:

* certify upper bounds |A||B| <= (q-1)/d + |A intersect -B| for pairs with
  A + B inside S_d union {0}, via an explicit auxiliary polynomial whose
  hyper-derivatives are checked pointwise (``stepanov``);
* decide which (d, q) pairs satisfy digit criteria that force structural
  conclusions, and report every applicable verdict (``classifier``);
* settle small fields exhaustively and exhibit explicit decomposition
  families in the regimes where they exist (``search``, ``constructions``).

Everything runs on exact integer arithmetic; floating point appears only
in character-sum magnitudes.
"""

from .characters import (
    Character,
    DoubleSumReport,
    character,
    double_char_sum,
    product_bound_check,
    subgroup,
)
from .classifier import PairClass, TheoremVerdict, classify_pair, delta_good_grid_sup
from .constructions import (A_PLUS_A, TERNARY, Construction, SubfieldSd, build,
                            subfield_S_d)
from .errors import (
    HypothesisViolated,
    InternalProofFailure,
    SgdecompError,
)
from .field import (
    DLOG_UNDEFINED,
    Q_CAP,
    FieldCtx,
    PExpansion,
    base_p_digits,
    divisors,
    lucas_binom_nonzero,
    make_field,
    make_field_q,
)
from .poly import FqPolynomial, hyper_derivative, shifted_power
from .reports import TOOL_VERSION as __version__
from .search import (
    DecompWitness,
    SearchResult,
    SearchTask,
    search_binary,
    search_ternary,
    verify_witness,
)
from .stepanov import (
    DichotomyResult,
    StepanovCertificate,
    build_certificate,
    grow_hypothesis_pair,
    solve_coefficient_system,
    zero_polynomial_dichotomy,
)
from .structure import (
    StructureReport,
    complete_homogeneous,
    generalized_vandermonde_det,
    power_sum_identity_check,
    structure_check,
)
from .subsets import (
    FqSubset,
    RuzsaReport,
    cauchy_davenport_lb,
    dilate,
    intersect,
    negate,
    ruzsa_check,
    sumset,
    sumset_many,
    translate,
)

__all__ = [
    "A_PLUS_A",
    "Character",
    "Construction",
    "DecompWitness",
    "DichotomyResult",
    "DLOG_UNDEFINED",
    "DoubleSumReport",
    "FieldCtx",
    "FqPolynomial",
    "FqSubset",
    "HypothesisViolated",
    "InternalProofFailure",
    "PairClass",
    "PExpansion",
    "Q_CAP",
    "RuzsaReport",
    "SearchResult",
    "SearchTask",
    "SgdecompError",
    "StepanovCertificate",
    "StructureReport",
    "SubfieldSd",
    "TERNARY",
    "TheoremVerdict",
    "base_p_digits",
    "build",
    "build_certificate",
    "cauchy_davenport_lb",
    "character",
    "classify_pair",
    "complete_homogeneous",
    "delta_good_grid_sup",
    "dilate",
    "divisors",
    "double_char_sum",
    "generalized_vandermonde_det",
    "grow_hypothesis_pair",
    "hyper_derivative",
    "intersect",
    "lucas_binom_nonzero",
    "make_field",
    "make_field_q",
    "negate",
    "power_sum_identity_check",
    "product_bound_check",
    "ruzsa_check",
    "search_binary",
    "search_ternary",
    "shifted_power",
    "solve_coefficient_system",
    "structure_check",
    "subfield_S_d",
    "subgroup",
    "sumset",
    "sumset_many",
    "translate",
    "verify_witness",
    "zero_polynomial_dichotomy",
]
