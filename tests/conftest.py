import pathlib

import pytest

from oswec import reference_model
from oswec.config import (
    REFERENCE_ADDED_INERTIA,
    REFERENCE_DAMPING,
)
from oswec.hydro import AnalyticCoefficientSource

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def data_dir():
    return REPO / "data"


@pytest.fixture(scope="session")
def configs_dir():
    return REPO / "configs"


@pytest.fixture(scope="session")
def reference():
    """The shipped reference model (weak coupling, alpha=0.05)."""
    return reference_model()


@pytest.fixture(scope="session")
def strong_coupling():
    """Reference model with the strong kernel gain used in coupling studies."""
    from dataclasses import replace

    m = reference_model()
    return replace(
        m,
        coefficients=AnalyticCoefficientSource(
            REFERENCE_ADDED_INERTIA, REFERENCE_DAMPING, alpha=0.3
        ),
    )
