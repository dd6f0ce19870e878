import doctest

import pytest

from grassconf import homotopy, linalg


@pytest.mark.parametrize("module", [linalg, homotopy], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
