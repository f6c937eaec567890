"""Exact bounds on k-uniform multipartite states.

Everything is computed in exact rational arithmetic: weight and shadow
enumerators, the invariant-basis sign test behind the homogeneous bound
tables, the generalized subset inequality and shadow certificates for
heterogeneous AME non-existence, and a brute-force oracle on explicit
states that cross-validates the algebra.

The package is the one lazy namespace (PEP 562): `import kuniform`
imports no submodule, `kuniform.hetero` imports that module the first
time it is read, and `kuniform.ame_verdict` imports `kuniform.hetero` and
binds the name.  `_EXPORTS` is the one list of the names; `__all__` and
`dir(kuniform)` come from it, and a name or a submodule is in
`vars(kuniform)` only once it has been read.
"""

import sys

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "BoundVerdict",
            "alpha_closed_form",
            "alpha_oracle",
            "alpha_oracle_vector",
            "alpha_vector",
            "k_upper_bound",
            "rains_bound",
            "range_formula_d3",
            "recurrence_specs",
            "verify_recurrence",
        ),
        "bounds",
    ),
    **dict.fromkeys(
        (
            "InvariantBasisCoeffs",
            "ShadowCompressed",
            "ShadowEnumerator",
            "WeightEnumerator",
            "a_to_c",
            "b_to_c",
            "c_to_a",
            "c_to_b",
            "macwilliams_transform",
            "shadow_transform",
            "validate_state_constraints",
        ),
        "enumerators",
    ),
    **dict.fromkeys(("CapacityError", "NotApplicableError"), "errors"),
    **dict.fromkeys(("GaussianRational", "binom", "falling_binom"), "exact"),
    **dict.fromkeys(
        (
            "AmeVerdict",
            "DimensionProfile",
            "HeteroShadow",
            "ScottWitness",
            "ame_verdict",
            "hetero_shadow",
            "scott_check",
            "scott_pair_threshold",
            "scott_search",
        ),
        "hetero",
    ),
    **dict.fromkeys(
        (
            "PureState",
            "ame_shadow_oracle",
            "direct_enumerator",
            "direct_shadow",
            "is_k_uniform",
            "purity",
        ),
        "oracle",
    ),
}

# every submodule: the ones that define a name, and two that define none
_MODULES = frozenset((*_EXPORTS.values(), "cli", "tables"))

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # binds the submodule here, so its later reads skip this
    value = sys.modules[qualified]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
