"""Exact configuration spaces of k-dimensional subspaces of C^n.

The package computes, over the Gaussian rationals, the stratification of
ordered configurations of subspaces by the dimension of their sum, the
three fibrations of the strata (sum, forget-last, intersection) with
exact local trivializations, and the symbolic homotopy groups of the
strata with replayable derivation traces.

The public names are resolved on first use (PEP 562), so importing the
package, or one of its submodules, loads no other submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "DirectSumError", "DuplicatePointsError", "EmptyStratumError", "FullSpaceError",
        "GrassconfError", "InconsistentSystemError", "MixedAmbientError",
        "NotComplementaryError", "NotDirectSumError", "OutOfRangeError", "OutOfScopeError",
        "OutsideChartError", "UnreachableError", "WireFormatError", "WrongArityError",
        "ZeroSubspaceError",
    ),
    "fibrations": (
        "ChartPoint", "Trivialization", "chart_coordinates", "chart_point", "eta",
        "eta_fiber_lift", "eta_fiber_point", "extend_isomorphism", "gamma_trivialize",
        "gamma_untrivialize", "pr_forget_last", "pr_trivialize", "pr_untrivialize",
    ),
    "grassmann": (
        "Configuration", "StratumId", "Subspace", "canonicalize", "complement",
        "configuration_from_json", "configuration_to_json", "intersection_dim",
        "is_stratum_nonempty", "projection_along", "sample_configuration", "sample_subspace",
        "strata_list", "stratum_closure", "stratum_dimension", "stratum_of",
        "subspace_from_json", "subspace_intersection", "subspace_sum", "subspace_to_json",
    ),
    "homotopy": (
        "DerivationTrace", "FreeAbelian", "GroupExpr", "Product", "PureSphereBraid",
        "Symmetric", "Unknown", "Zero", "config_pi1", "config_pi2", "config_unordered_pi1",
        "derive", "free_abelian", "grassmann_pi", "product", "stiefel_pi",
    ),
    "linalg": ("GaussianRational", "Matrix", "gq", "kernel", "rank", "rref", "solve"),
    "verify": (
        "VerificationReport", "check_adjacency", "check_dimension", "configuration_distance",
        "run_roundtrip_suite", "subspace_distance",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules and the names they define, sorted
__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule also binds it as an attribute of the package
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
