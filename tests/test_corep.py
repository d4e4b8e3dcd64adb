import numpy as np
import pytest

from hopftwist import (
    DualFunctional,
    catalog,
    decompose,
    decompose_corep,
    direct_sum,
    dual,
    haar_state,
    pi_u,
    regular_corep,
    spectral_projection,
    trivial_corep,
    verify_corep,
)
from hopftwist.corep import UnitaryCorep, ad_v, ad_v_tensor, e_map_matrix
from hopftwist.errors import DimensionMismatch, HostMismatch

HOSTS = catalog.host_names()


@pytest.mark.parametrize("name", HOSTS)
def test_regular_corep_is_unitary(name, ctx):
    host = catalog.algebra(name)
    corep = regular_corep(host, ctx)
    report = verify_corep(corep, ctx)
    assert report.passed, report.failing()


@pytest.mark.parametrize("value", (np.inf, np.nan))
def test_corep_residuals_fail_on_a_non_finite_entry(value, ctx):
    corep = regular_corep(catalog.algebra("c-d4"), ctx)
    u = np.array(corep.u)
    u[-1, 0, 1] = value
    report = verify_corep(UnitaryCorep(corep.host, corep.hdim, u), ctx)
    assert not report.passed
    for check in ("corep-law", "unitarity-right", "unitarity-left"):
        residual = report.residual(check)
        assert not np.isfinite(residual) or residual > ctx.tolerance, check


def test_trivial_corep_and_direct_sum(ctx):
    host = catalog.algebra("c-s3")
    t = trivial_corep(host, 2)
    assert verify_corep(t, ctx).passed
    both = direct_sum(t, regular_corep(host, ctx))
    assert both.hdim == 2 + host.dim
    assert verify_corep(both, ctx).passed


def test_direct_sum_requires_common_host(ctx):
    a = trivial_corep(catalog.algebra("c-s3"), 1)
    b = trivial_corep(catalog.algebra("c-z2"), 1)
    with pytest.raises(HostMismatch):
        direct_sum(a, b)


def test_pi_u_respects_convolution(ctx, rng):
    host = catalog.algebra("g-d4")
    corep = regular_corep(host, ctx)
    a = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    b = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    lhs = pi_u(corep, dual(host).product(a.coeffs, b.coeffs))
    rhs = pi_u(corep, a) @ pi_u(corep, b)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_pi_u_respects_the_dual_star(ctx, rng):
    host = catalog.algebra("c-s3")
    corep = regular_corep(host, ctx)
    phi = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    lhs = pi_u(corep, dual(host).star_of(phi.coeffs))
    rhs = pi_u(corep, phi).conj().T
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_counit_leg_of_the_corep_is_identity(ctx):
    host = catalog.algebra("c-d4")
    corep = regular_corep(host, ctx)
    counit_leg = pi_u(corep, DualFunctional(host, host.counit))
    assert np.abs(counit_leg - np.eye(corep.hdim)).max() <= 1e-10


def test_adjoint_action_is_multiplicative(ctx, rng):
    host = catalog.algebra("c-s3")
    corep = regular_corep(host, ctx)
    n = corep.hdim
    s = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    lhs = ad_v(corep, s @ t)
    mid = np.einsum(
        "ikc,kjd,cdt->ijt", ad_v(corep, s), ad_v(corep, t), host.mul, optimize=True
    )
    assert np.abs(lhs - mid).max() <= 1e-9


def test_adjoint_action_of_identity_is_unit(ctx):
    host = catalog.algebra("g-z2z2")
    corep = regular_corep(host, ctx)
    image = ad_v(corep, np.eye(corep.hdim))
    want = np.einsum("ij,c->ijc", np.eye(corep.hdim), host.unit)
    assert np.abs(image - want).max() <= 1e-10


def test_ad_v_tensor_matches_per_element_ad(ctx, rng):
    host = catalog.algebra("c-z4")
    corep = regular_corep(host, ctx)
    tensor = ad_v_tensor(corep)
    mat = rng.normal(size=(corep.hdim, corep.hdim))
    direct = ad_v(corep, mat)
    via = np.einsum("ijklc,kl->ijc", tensor, mat)
    assert np.abs(direct - via).max() <= 1e-10


def test_spectral_projections_are_complete_and_idempotent(ctx):
    host = catalog.algebra("c-s3")
    pw = decompose(host, haar_state(host, ctx), ctx)
    corep = regular_corep(host, ctx)
    n2 = corep.hdim * corep.hdim
    total = np.zeros((n2, n2), dtype=np.complex128)
    for k in range(len(pw.blocks)):
        p = spectral_projection(corep, pw, k)["p"]
        assert np.abs(p @ p - p).max() <= 1e-9
        total += p
    assert np.abs(total - np.eye(n2)).max() <= 1e-9


@pytest.mark.parametrize("name", catalog.triple_names())
def test_spectral_projection_is_the_sum_of_the_diagonal_e_maps(name, ctx):
    # P is one contraction against sum_s rho[s, s]; the sum of the d maps
    # E(rho[s, s]) is the same map by linearity
    scene = catalog.triple_scene(name, ctx)
    host, corep = scene["host"], scene["corep"]
    pw = decompose(host, haar_state(host, ctx), ctx)
    for k, b in enumerate(pw.blocks):
        p = spectral_projection(corep, pw, k)["p"]
        want = sum(e_map_matrix(corep, b.matrix_units[s, s]) for s in range(b.dimension))
        assert np.abs(p - want).max() <= 1e-12 * np.abs(want).max()


def test_e_map_of_haar_state_projects_onto_invariants(ctx):
    host = catalog.algebra("g-d4")
    corep = regular_corep(host, ctx)
    h = haar_state(host, ctx)
    e = e_map_matrix(corep, h.coeffs)
    assert np.abs(e @ e - e).max() <= 1e-9


@pytest.mark.parametrize("name", ("c-s3", "c-d4", "g-d4"))
def test_adapted_bases_reconstruct_the_corep(name, ctx):
    host = catalog.algebra(name)
    pw = decompose(host, haar_state(host, ctx), ctx)
    corep = regular_corep(host, ctx)
    sd = decompose_corep(corep, pw, ctx)
    assert sd.residual <= 1e-9
    total = sum(e["multiplicity"] * e["basis"].shape[1] for e in sd.entries)
    assert total == corep.hdim
    # each adapted vector transforms with the block's coefficients
    for entry in sd.entries:
        b = pw.blocks[entry["block"]]
        basis = entry["basis"]
        for i in range(entry["multiplicity"]):
            for j in range(b.dimension):
                coact = np.einsum("xjc,j->xc", corep.u, basis[i, j])
                want = np.einsum("kx,kc->xc", basis[i], b.q[:, j])
                assert np.abs(coact - want).max() <= 1e-8


def test_decompose_corep_rejects_foreign_peter_weyl(ctx):
    host_a = catalog.algebra("c-s3")
    host_b = catalog.algebra("c-z2")
    pw_b = decompose(host_b, haar_state(host_b, ctx), ctx)
    corep = regular_corep(host_a, ctx)
    with pytest.raises(HostMismatch):
        decompose_corep(corep, pw_b, ctx)


def test_corep_shape_validation(ctx):
    host = catalog.algebra("c-z2")
    with pytest.raises(Exception):
        UnitaryCorep(host, 2, np.zeros((2, 3, host.dim)))


@pytest.mark.parametrize(
    "call",
    (
        lambda corep, bad: pi_u(corep, np.ones(bad)),
        lambda corep, bad: ad_v(corep, np.ones((bad, bad))),
        lambda corep, bad: ad_v(corep, np.ones((2, corep.hdim, bad))),
        lambda corep, bad: ad_v(corep, np.ones(corep.hdim)),
        lambda corep, bad: e_map_matrix(corep, np.ones(bad)),
    ),
    ids=("pi_u", "ad_v", "ad_v-stack", "ad_v-vector", "e_map_matrix"),
)
def test_operands_of_the_wrong_shape_raise_dimension_mismatch(call, ctx):
    # N = 6 and n = 6: a trailing length of 2 broadcasts against neither, and
    # of 1 against both
    corep = regular_corep(catalog.algebra("c-s3"), ctx)
    for bad in (1, 2, corep.hdim + 1):
        with pytest.raises(DimensionMismatch):
            call(corep, bad)
