"""Exact computer algebra for Nichols algebras of diagonal type.

Builds generalized Dynkin graphs from braiding matrices, evaluates
braided and classical Lie brackets in the free algebra, decides
zeroness in the Nichols algebra B(V) through skew derivations, computes
per-degree spans of the Nichols (braided) Lie algebra, and machine
checks the connectivity/membership correspondences between the two.

All arithmetic is exact, over the cyclotomic field Q(zeta_N).
"""

from .braiding import BraidingMatrix, InvalidMatrixError
from .freealg import (
    BRAIDED,
    MINUS,
    FreeElement,
    NonHomogeneousError,
    apply_bracketing,
    braided_bracket,
    enumerate_bracketings,
    minus_bracket,
)
from .graphs import (
    AUGMENTED,
    PURE,
    DynkinGraph,
    abstract_graph_from_json,
    build_graph,
    components,
    generated_subgraph,
    is_connected_monomial,
    monomials_connected,
    realize_graph,
    support,
)
from .lie import (
    MEMBER,
    NOT_MEMBER,
    ZERO_IN_NICHOLS,
    LieSpan,
    MembershipReport,
    lie_span,
    max_supports,
    monomial_membership,
)
from .nichols import (
    GuardrailExceeded,
    NicholsVector,
    basis_of_degree,
    is_zero_in_nichols,
    pairing_vector,
    skew_derivation,
    symmetrizer_rank_oracle,
)
from .scalar import FieldMismatchError, Scalar, ScalarParseError, cyclotomic_polynomial, parse_scalar
from .verify import (
    CONFIRMED,
    COUNTEREXAMPLE,
    INCONCLUSIVE,
    PRECONDITION_NOT_MET,
    VerificationReport,
    check_prop_all_bracketings,
    check_prop_disconnected_pair,
    check_theorem_equivalences,
    check_theorem_max_support,
)

__version__ = "0.1.0"
