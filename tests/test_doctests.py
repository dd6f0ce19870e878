import doctest
from pathlib import Path

import pytest

from grassconf import _strata, fibrations, grassmann, homotopy, linalg, verify


@pytest.mark.parametrize(
    "module", [linalg, _strata, grassmann, fibrations, homotopy, verify], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_session():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
