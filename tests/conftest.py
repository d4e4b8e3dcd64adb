import numpy as np
import pytest

from hopftwist import ScalarContext, _linalg

SEED = 7


@pytest.fixture(scope="session")
def ctx():
    return ScalarContext(tolerance=1e-9, seed=SEED)


@pytest.fixture(autouse=True)
def cold_derived_values(monkeypatch):
    """Each test starts with nothing derived from a frozen tensor held
    (_linalg.derived), so what a test counts or times does not depend on
    which tests ran before it."""
    monkeypatch.setattr(_linalg, "_DERIVED", {})


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture()
def svd_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd during the test."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls
