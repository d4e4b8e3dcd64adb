import tracemalloc

import numpy as np
import pytest

from hopftwist import (
    ScalarContext,
    catalog,
    cyclic_group,
    dihedral_group,
    direct_product,
    from_bicharacter,
    function_algebra,
    group_algebra,
    induce,
    klein_four_group,
)

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


def traced_peak(fn):
    """fn() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def klein_induction(m, ctx, fourier=None):
    """A cocycle on C(Z2 x Z2) and the restriction of a fresh C(D_m) to its
    host along the Klein subgroup {e, r^(m/2), s, r^(m/2) s} (index k + m*f
    is r^k s^f); induce(fourier, mor, ctx) is the Klein-induced cocycle on
    C(D_m).  By default the cocycle is the Fourier transport of the Klein
    bicharacter to a fresh C(Z2 x Z2)."""
    if fourier is None:
        klein = klein_four_group()
        table = catalog.bicharacter_table(klein)
        fourier = catalog.fourier_transport(klein, table, function_algebra(klein), ctx)
    group = dihedral_group(m)
    mor = catalog.restriction_morphism(
        group, (0, m // 2, m, m + m // 2), ctx, source=function_algebra(group), target=fourier.host
    )
    return fourier, mor


def twist_ladder(ctx):
    """{name: (host, cocycle)} for the rungs of the twist ladder, each on a
    fresh host: C(D_m) for m = 4, 8, 16 with the Klein-induced cocycle,
    G(Z4 x Z4) with the bicharacter and C(Z4 x Z4) with its Fourier
    transport."""
    ladder, fourier = {}, None
    for m in (4, 8, 16):
        fourier, mor = klein_induction(m, ctx, fourier)
        ladder[f"c-d{m}"] = mor.source, induce(fourier, mor, ctx)
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    table = catalog.bicharacter_table(z4z4)
    host = group_algebra(z4z4)
    ladder["g-z4z4"] = host, from_bicharacter(z4z4, table, ctx, host=host)
    host = function_algebra(z4z4)
    ladder["c-z4z4"] = host, catalog.fourier_transport(z4z4, table, host, ctx)
    return ladder
