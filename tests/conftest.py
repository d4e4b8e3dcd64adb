import numpy as np
import pytest

from hopftwist import ScalarContext

SEED = 7


@pytest.fixture(scope="session")
def ctx():
    return ScalarContext(tolerance=1e-9, seed=SEED)


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
