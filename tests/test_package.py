"""The package namespace: the public names, resolved on first use."""

import ast
import importlib
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

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
# the package's module files, read by the lints at the end of this file
MODULE_PATHS = sorted(Path(grassconf.__file__).parent.glob("*.py"))


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


def _unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, as "name (line n)";
    from __future__ imports and those on a "# noqa: F401" line (the
    re-exports) are left out."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = _names_in(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def _names_in(tree: ast.AST, attributes: bool = False) -> Counter:
    """How often each name occurs in tree as a bare name and, with
    attributes=True, also as an attribute (linalg._modular_rank)."""
    kinds = (ast.Name, ast.Attribute) if attributes else ast.Name
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, kinds))


def _dead_private_names(sources: dict[str, str]) -> tuple[int, list[str]]:
    """(the count of module-level private functions, classes and constants
    that the modules define, those of them that no module names outside
    their own definition, as "module.name").  Dunder names are left out."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((_names_in(tree, attributes=True) for tree in trees.values()), Counter())
    defined, dead = 0, []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _names_in(node, attributes=True)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined += 1
                    if named[name] == own[name]:
                        dead.append(f"{module}.{name}")
    return defined, dead


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports("from functools import cache, reduce\nreduce(max, [1])\n") == [
        "cache (line 1)"
    ]
    # the package's modules and the test modules, this file included
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert MODULE_PATHS and Path(__file__) in tests
    unused = {f"{path.parent.name}/{path.name}": _unused_imports(path.read_text())
              for path in MODULE_PATHS + tests}
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_private_name_of_the_package_is_used():
    # a private function that only calls itself, and a constant that is
    # only assigned, are leftovers; a name read as a module attribute is not
    assert _dead_private_names({
        "a": "def _helper(n):\n    return _helper(n - 1)\n_SEEN = 1\n_LEFT: int = 2\n",
        "b": "import a\nprint(a._SEEN)\n",
    }) == (3, ["a._helper", "a._LEFT"])
    # the tests may read a private name, but a name that only the tests
    # read is dead code of the package
    defined, dead = _dead_private_names({path.stem: path.read_text() for path in MODULE_PATHS})
    assert defined > 0 and dead == []
