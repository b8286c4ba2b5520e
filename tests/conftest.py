import pytest
from helpers import load_diabetes

from larinfer.path import StandardizedData, standardize


@pytest.fixture(scope="session")
def diabetes() -> tuple[list[str], StandardizedData]:
    names, X, y = load_diabetes()
    return names, standardize(X, y, center=True)
