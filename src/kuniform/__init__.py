"""Exact bounds on k-uniform multipartite states.

Everything is computed in exact rational arithmetic: weight and shadow
enumerators, the invariant-basis sign test behind the homogeneous bound
tables, the generalized subset inequality and shadow certificates for
heterogeneous AME non-existence, and a brute-force oracle on explicit
states that cross-validates the algebra.
"""

from .bounds import (
    BoundVerdict,
    alpha_closed_form,
    alpha_oracle,
    alpha_oracle_vector,
    alpha_vector,
    conjecture_scan,
    k_upper_bound,
    rains_bound,
    range_formula_d3,
    recurrence_specs,
    verify_recurrence,
)
from .enumerators import (
    InvariantBasisCoeffs,
    ShadowCompressed,
    ShadowEnumerator,
    WeightEnumerator,
    a_to_c,
    b_to_c,
    c_to_a,
    c_to_b,
    macwilliams_transform,
    shadow_transform,
    validate_state_constraints,
)
from .errors import BudgetExceededError, CapacityError, NotApplicableError
from .exact import GaussianRational, binom, elem_sym, falling_binom
from .hetero import (
    AmeVerdict,
    DimensionProfile,
    HeteroShadow,
    ScottWitness,
    ame_verdict,
    hetero_shadow,
    scott_check,
    scott_pair_threshold,
    scott_search,
)
from .oracle import (
    PureState,
    ame_shadow_oracle,
    bundled_corpus,
    direct_enumerator,
    direct_shadow,
    is_k_uniform,
    purity,
)

__version__ = "0.1.0"
