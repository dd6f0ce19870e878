"""Exact configuration spaces of k-dimensional subspaces of C^n.

The package computes, over the Gaussian rationals, the stratification of
ordered configurations of subspaces by the dimension of their sum, the
three fibrations of the strata (sum, forget-last, intersection) with
exact local trivializations, and the symbolic homotopy groups of the
strata with replayable derivation traces.
"""

from .errors import (
    DirectSumError,
    DuplicatePointsError,
    EmptyStratumError,
    FullSpaceError,
    GrassconfError,
    InconsistentSystemError,
    MixedAmbientError,
    NotComplementaryError,
    NotDirectSumError,
    OutOfRangeError,
    OutOfScopeError,
    OutsideChartError,
    UnreachableError,
    WireFormatError,
    WrongArityError,
    ZeroSubspaceError,
)
from .fibrations import (
    ChartPoint,
    Trivialization,
    chart_coordinates,
    chart_point,
    eta,
    eta_fiber_lift,
    eta_fiber_point,
    extend_isomorphism,
    gamma_trivialize,
    gamma_untrivialize,
    pr_forget_last,
    pr_trivialize,
    pr_untrivialize,
)
from .grassmann import (
    Configuration,
    StratumId,
    Subspace,
    canonicalize,
    complement,
    configuration_from_json,
    configuration_to_json,
    intersection_dim,
    is_stratum_nonempty,
    projection_along,
    sample_configuration,
    sample_subspace,
    strata_list,
    stratum_closure,
    stratum_dimension,
    stratum_of,
    subspace_from_json,
    subspace_intersection,
    subspace_sum,
    subspace_to_json,
)
from .homotopy import (
    DerivationTrace,
    FreeAbelian,
    GroupExpr,
    Product,
    PureSphereBraid,
    Symmetric,
    Unknown,
    Zero,
    config_pi1,
    config_pi2,
    config_unordered_pi1,
    derive,
    free_abelian,
    grassmann_pi,
    product,
    stiefel_pi,
)
from .linalg import GaussianRational, Matrix, gq, kernel, rank, rref, solve
from .verify import (
    VerificationReport,
    check_adjacency,
    check_dimension,
    configuration_distance,
    run_roundtrip_suite,
    subspace_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
