import numpy as np
import pytest

import hopftwist.corep as corep_module
from hopftwist import (
    ScalarContext,
    catalog,
    verify_cocycle,
    verify_corep,
    verify_hopf_axioms,
)
from hopftwist.errors import InvalidMorphism, TheoremViolation, UnknownCatalogName

HOSTS = catalog.host_names()
COCYCLES = catalog.cocycle_names()
TRIPLES = catalog.triple_names()


def test_listings_are_stable():
    assert HOSTS == (
        "c-1",
        "c-z2",
        "g-z2",
        "c-z3",
        "c-z4",
        "c-z2z2",
        "g-z2z2",
        "c-s3",
        "c-d4",
        "g-d4",
        "g-z4z4",
    )
    assert set(COCYCLES) == {
        "klein-bicharacter",
        "order4-bicharacter",
        "klein-fourier",
        "klein-induced",
        "trivial-s3",
    }
    assert set(TRIPLES) == {"trivial-4", "z2z2-torus", "d4-regular", "z4z4-torus"}


def test_every_host_passes_the_axioms(ctx):
    for name in HOSTS:
        host = catalog.algebra(name)
        report = verify_hopf_axioms(host, ctx, subject=name)
        assert report.passed, (name, report.failing())


def test_hosts_are_memoized():
    for name in HOSTS:
        assert catalog.algebra(name) is catalog.algebra(name)


def test_cocycles_are_memoized_and_valid(ctx):
    for name in COCYCLES:
        sigma = catalog.cocycle(name, ctx)
        assert sigma is catalog.cocycle(name, ctx)
        assert verify_cocycle(sigma, ctx).passed
        assert sigma.host is catalog.algebra(catalog.cocycle_host_name(name))


def test_cocycle_pairs_cover_the_catalog(ctx):
    pairs = catalog.cocycle_pairs()
    assert len(pairs) == 5
    for host_name, cocycle_name in pairs:
        assert host_name in HOSTS
        assert catalog.cocycle_host_name(cocycle_name) == host_name


def test_scenes_are_memoized_and_verified(ctx):
    for name in TRIPLES:
        scene = catalog.triple_scene(name, ctx)
        assert scene is catalog.triple_scene(name, ctx)
        assert verify_corep(scene["corep"], ctx).passed
        assert scene["corep"].host is scene["host"]
        assert scene["triple"].hdim == scene["corep"].hdim
        assert scene["volume"].hdim == scene["corep"].hdim
        assert scene["cocycle"].host is scene["host"]


def test_scene_builds_solve_each_haar_state_once(monkeypatch, ctx):
    # each scene's regular corep solves its host's Haar state once, and
    # d4-regular's isotypic Dirac matrix solves c-d4's once more
    monkeypatch.setattr(catalog, "_cocycles", {})
    monkeypatch.setattr(catalog, "_scenes", {})
    solved = []
    for module in (catalog, corep_module):
        solve = module.haar_state
        monkeypatch.setattr(
            module, "haar_state", lambda host, ctx, solve=solve: solved.append(host) or solve(host, ctx)
        )
    for name in TRIPLES:
        catalog.triple_scene(name, ctx)
    assert len(solved) == len(TRIPLES) + 1
    assert sum(host is catalog.algebra("c-d4") for host in solved) == 2


def test_cocycle_verdict_does_not_depend_on_call_order(monkeypatch):
    # the Klein tables are exact, so even a 1e-18 request passes; whichever
    # context is built first, each request gets a cocycle checked in its own
    tiny = ScalarContext(tolerance=1e-18)
    for warm_default_first in (False, True):
        monkeypatch.setattr(catalog, "_cocycles", {})
        if warm_default_first:
            assert catalog.cocycle("klein-induced").ctx.tolerance == 1e-9
        assert catalog.cocycle("klein-induced", tiny).ctx == tiny
        assert catalog.cocycle("klein-induced").ctx == ScalarContext()


def test_memos_are_keyed_by_name_and_context(monkeypatch, ctx):
    monkeypatch.setattr(catalog, "_cocycles", {})
    monkeypatch.setattr(catalog, "_scenes", {})
    equal = ScalarContext(tolerance=ctx.tolerance, seed=ctx.seed)
    other = ScalarContext(tolerance=ctx.tolerance, seed=ctx.seed + 1)
    sigma = catalog.cocycle("klein-induced", ctx)
    assert catalog.cocycle("klein-induced", equal) is sigma
    assert catalog.cocycle("klein-induced", other).ctx == other
    scene = catalog.triple_scene("z2z2-torus", ctx)
    assert catalog.triple_scene("z2z2-torus", equal) is scene
    rebuilt = catalog.triple_scene("z2z2-torus", other)
    assert rebuilt is not scene
    assert rebuilt["cocycle"].ctx == other
    assert rebuilt["host"] is scene["host"]


def test_unknown_names_raise():
    with pytest.raises(UnknownCatalogName):
        catalog.algebra("c-z9")
    with pytest.raises(UnknownCatalogName):
        catalog.cocycle("no-such-cocycle")
    with pytest.raises(UnknownCatalogName):
        catalog.triple_scene("no-such-scene")
    with pytest.raises(UnknownCatalogName):
        catalog.group_data("z9")


def test_fourier_matrix_is_a_scaled_unitary():
    group = catalog.group_data("z2z2")
    f = catalog.fourier_matrix(group)
    n = group.order
    assert np.abs(f @ f.conj().T - n * np.eye(n)).max() <= 1e-12
    # row of the identity element is the trivial character
    assert np.abs(f[0] - 1.0).max() <= 1e-12


def test_fourier_tables_of_2_groups_are_exact():
    for name in ("z2z2", "z4z4"):
        group = catalog.group_data(name)
        f = catalog.fourier_matrix(group)
        n = group.order
        assert np.isin(f, (1, -1, 1j, -1j)).all(), name
        assert np.array_equal(f @ f.conj().T, n * np.eye(n)), name
    # other phases still come from exp
    z3 = catalog.fourier_matrix(catalog.group_data("z3"))
    assert np.abs(z3[1, 1] - np.exp(2j * np.pi / 3)) <= 1e-15


def test_fourier_matrix_needs_cyclic_factors():
    with pytest.raises(InvalidMorphism):
        catalog.fourier_matrix(catalog.group_data("s3"))


def test_bicharacter_tables_match_their_formula_bit_for_bit():
    # 1j ** 3 is (-0-1j), and canonical JSON keeps the sign of a zero
    for name, zeta in (("z2z2", -1.0 + 0j), ("z4z4", 1j)):
        group = catalog.group_data(name)
        pairs = [divmod(g, group.cyclic_factors[1]) for g in range(group.order)]
        want = np.array([[zeta ** (g[1] * h[0]) for h in pairs] for g in pairs])
        assert catalog.bicharacter_table(group).tobytes() == want.tobytes(), name
    for name in ("z4", "s3"):
        with pytest.raises(InvalidMorphism):
            catalog.bicharacter_table(catalog.group_data(name))
