"""The package namespace: the public names, resolved on first use."""

import importlib
import subprocess
import sys
import types

import pytest

import grassconf

# grassconf.__all__ as it stood when the package imported every submodule
# eagerly and listed the public names of its namespace
PUBLIC_NAMES = [
    "ChartPoint", "Configuration", "DerivationTrace", "DirectSumError",
    "DuplicatePointsError", "EmptyStratumError", "FreeAbelian", "FullSpaceError",
    "GaussianRational", "GrassconfError", "GroupExpr", "InconsistentSystemError", "Matrix",
    "MixedAmbientError", "NotComplementaryError", "NotDirectSumError", "OutOfRangeError",
    "OutOfScopeError", "OutsideChartError", "Product", "PureSphereBraid", "StratumId",
    "Subspace", "Symmetric", "Trivialization", "Unknown", "UnreachableError",
    "VerificationReport", "WireFormatError", "WrongArityError", "Zero", "ZeroSubspaceError",
    "canonicalize", "chart_coordinates", "chart_point", "check_adjacency", "check_dimension",
    "complement", "config_pi1", "config_pi2", "config_unordered_pi1",
    "configuration_distance", "configuration_from_json", "configuration_to_json", "derive",
    "errors", "eta", "eta_fiber_lift", "eta_fiber_point", "extend_isomorphism", "fibrations",
    "free_abelian", "gamma_trivialize", "gamma_untrivialize", "gq", "grassmann",
    "grassmann_pi", "homotopy", "intersection_dim", "is_stratum_nonempty", "kernel",
    "linalg", "pr_forget_last", "pr_trivialize", "pr_untrivialize", "product",
    "projection_along", "rank", "rref", "run_roundtrip_suite", "sample_configuration",
    "sample_subspace", "solve", "stiefel_pi", "strata_list", "stratum_closure",
    "stratum_dimension", "stratum_of", "subspace_distance", "subspace_from_json",
    "subspace_intersection", "subspace_sum", "subspace_to_json", "verify",
]
SUBMODULES = ("errors", "fibrations", "grassmann", "homotopy", "linalg", "verify")


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 84
    assert grassconf.__all__ == PUBLIC_NAMES


def test_matrix_surface_is_pinned():
    # Matrix keeps the operations the package calls; the tests' reshapes
    # and zero tests live in tests/oracles.py
    from grassconf import linalg

    attributes = vars(linalg.Matrix)
    assert sorted(name for name in attributes if not name.startswith("_")) == [
        "cols", "columns", "entries", "from_rows", "identity", "rows", "stack",
        "transpose", "unit_rows", "zeros", "zrows",
    ]
    assert sorted(
        name for name, value in attributes.items()
        if name.startswith("__") and name.endswith("__") and callable(value)
    ) == [
        "__add__", "__delattr__", "__eq__", "__hash__", "__init__", "__matmul__",
        "__reduce__", "__repr__", "__setattr__", "__str__", "__sub__",
    ]
    for name in ("ONE", "stack_all", "_check_count"):
        assert not hasattr(linalg, name), name


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_object_of_its_defining_module(name):
    obj = getattr(grassconf, name)
    if name in SUBMODULES:
        assert isinstance(obj, types.ModuleType)
        assert obj is importlib.import_module(f"grassconf.{name}")
    else:
        assert obj.__module__.startswith("grassconf.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from grassconf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(grassconf, name) for name in PUBLIC_NAMES)


def test_dir_lists_public_names_and_unknown_names_raise():
    assert set(PUBLIC_NAMES) <= set(dir(grassconf))
    assert "__version__" in dir(grassconf)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        grassconf.no_such_name
    assert not hasattr(grassconf, "numpy")


def test_importing_the_package_loads_no_submodule():
    script = (
        "import sys\n"
        "import grassconf\n"
        "print(sorted(m for m in sys.modules if m.startswith('grassconf')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['grassconf']\n"
