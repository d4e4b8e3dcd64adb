import numpy as np
import pytest

import hopftwist.cocycle as cocycle_module
import hopftwist.twist as twist_module
from hopftwist import (
    DualCocycle,
    catalog,
    decompose,
    f_matrix_relation,
    haar_state,
    regular_corep,
    roundtrip,
    twist_algebra,
    twist_corep,
    v_functional,
    verify_hopf_axioms,
)
from hopftwist.errors import HostMismatch
from hopftwist.peterweyl import HaarState, haar_invariance_residual

PAIRS = catalog.cocycle_pairs()


def _noncommutativity_witness(algebra):
    gap = 0.0
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            gap = max(gap, np.abs(algebra.mul[i, j] - algebra.mul[j, i]).max())
    return gap


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_twisted_algebra_satisfies_every_axiom(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    sigma = catalog.cocycle(cocycle_name, ctx)
    tw = twist_algebra(host, sigma, ctx)
    assert tw.transcript.passed, tw.transcript.failing()
    independent = verify_hopf_axioms(tw.twisted, ctx)
    assert independent.passed
    assert independent.max_residual <= 1e-9


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_twist_keeps_the_coalgebra_bit_identical(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    tw = twist_algebra(host, catalog.cocycle(cocycle_name, ctx), ctx)
    assert np.array_equal(tw.twisted.comul, host.comul)
    assert np.array_equal(tw.twisted.counit, host.counit)
    assert np.array_equal(tw.twisted.unit, host.unit)


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_roundtrip_returns_to_the_original(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    sigma = catalog.cocycle(cocycle_name, ctx)
    result = roundtrip(host, sigma, ctx)
    assert result["passed"]
    assert result["residual"] <= 1e-9
    assert result["coalgebra_identical"]
    # the back twist it returns is the twist by sigma^{-1}
    assert np.array_equal(result["back"].cocycle.sigma, sigma.sigma_inv)
    # a forward twist the caller already holds gives the same result
    again = roundtrip(host, sigma, ctx, tw=twist_algebra(host, sigma, ctx))
    fields = ("residual", "coalgebra_identical", "inverse_cocycle_residual", "passed")
    assert all(again[k] == result[k] for k in fields)


def test_roundtrip_rejects_the_twist_of_another_pair(ctx):
    (host_name, cocycle_name), (_, other_name) = PAIRS[0], PAIRS[1]
    host, sigma = catalog.algebra(host_name), catalog.cocycle(cocycle_name, ctx)
    other = catalog.cocycle(other_name, ctx)
    with pytest.raises(HostMismatch):
        roundtrip(host, sigma, ctx, tw=twist_algebra(other.host, other, ctx))


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_haar_state_survives_the_twist(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    tw = twist_algebra(host, catalog.cocycle(cocycle_name, ctx), ctx)
    # a dual-cocycle twist keeps the coproduct and the unit, which determine
    # the unique Haar state: the original coefficients stay invariant
    h_twisted = HaarState(tw.twisted, haar_state(host, ctx).coeffs)
    assert haar_invariance_residual(h_twisted) <= 1e-9
    # the solved twisted Haar state has the original coefficients
    assert np.abs(haar_state(tw.twisted, ctx).coeffs - h_twisted.coeffs).max() <= 1e-12


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_f_matrix_scaling_per_block(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    tw = twist_algebra(host, catalog.cocycle(cocycle_name, ctx), ctx)
    pw = decompose(host, haar_state(host, ctx), ctx)
    pw_sigma = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
    rows = f_matrix_relation(tw, pw, pw_sigma, ctx)
    assert len(rows) == len(pw.blocks)
    for row in rows:
        assert row["passed"]
        assert row["residual"] <= 1e-8
        assert row["c"] > 0
        a = row["a_matrix"]
        rebuilt = row["c"] * a.conj().T @ np.eye(a.shape[0]) @ a
        assert np.abs(row["f_twisted"] - rebuilt).max() <= 1e-8


@pytest.mark.parametrize("host_name,cocycle_name", PAIRS)
def test_regular_corep_stays_unitary_after_twisting(ctx, host_name, cocycle_name):
    host = catalog.algebra(host_name)
    tw = twist_algebra(host, catalog.cocycle(cocycle_name, ctx), ctx)
    u_sigma, report = twist_corep(regular_corep(host), tw, ctx)
    assert report.passed, report.failing()
    assert report.max_residual <= 1e-9
    assert u_sigma.host is tw.twisted


def test_twist_corep_rejects_a_corep_of_another_host(ctx):
    # both hosts have dimension 4, so the corep's shape fits the twisted host
    corep = regular_corep(catalog.algebra("g-z2z2"), ctx)
    tw = twist_algebra(catalog.algebra("c-z2z2"), catalog.cocycle("klein-fourier", ctx), ctx)
    with pytest.raises(HostMismatch):
        twist_corep(corep, tw, ctx)


def test_group_algebra_twists_leave_the_tensors_unchanged(ctx):
    # grouplike basis elements make the sandwiched product collapse exactly
    for host_name, cocycle_name in (
        ("g-z2z2", "klein-bicharacter"),
        ("g-z4z4", "order4-bicharacter"),
    ):
        host = catalog.algebra(host_name)
        tw = twist_algebra(host, catalog.cocycle(cocycle_name, ctx), ctx)
        assert np.array_equal(tw.twisted.mul, host.mul)
        assert np.array_equal(tw.twisted.star, host.star)
        assert np.array_equal(tw.twisted.antipode, host.antipode)


def test_twisting_functions_on_d4_deforms_but_stays_commutative(ctx):
    # regression pin: the product genuinely moves, yet no noncommutativity
    # appears at this dimension for any unitary dual cocycle
    host = catalog.algebra("c-d4")
    tw = twist_algebra(host, catalog.cocycle("klein-induced", ctx), ctx)
    assert np.abs(tw.twisted.mul - host.mul).max() > 0.1
    assert np.abs(tw.twisted.star - host.star).max() > 0.1
    assert _noncommutativity_witness(tw.twisted) <= 1e-12


def test_trivial_cocycle_twist_is_the_identity(ctx):
    from hopftwist import trivial_cocycle

    host = catalog.algebra("c-s3")
    tw = twist_algebra(host, trivial_cocycle(host), ctx)
    assert np.abs(tw.twisted.mul - host.mul).max() <= 1e-12
    assert np.abs(tw.twisted.star - host.star).max() <= 1e-12
    assert np.abs(tw.twisted.antipode - host.antipode).max() <= 1e-12


def test_twist_rejects_cocycle_from_another_host(ctx):
    host = catalog.algebra("c-s3")
    sigma = catalog.cocycle("klein-bicharacter", ctx)
    with pytest.raises(HostMismatch):
        twist_algebra(host, sigma, ctx)


def test_double_twist_by_sigma_inverse_composes_to_identity(ctx):
    host = catalog.algebra("g-z4z4")
    sigma = catalog.cocycle("order4-bicharacter", ctx)
    tw = twist_algebra(host, sigma, ctx)
    back = twist_algebra(
        tw.twisted, DualCocycle(tw.twisted, sigma.sigma_inv, ctx=ctx), ctx
    )
    assert np.abs(back.twisted.mul - host.mul).max() <= 1e-9
    assert np.abs(back.twisted.star - host.star).max() <= 1e-9


def test_twist_computes_w_once_and_v_as_v_functional_does(ctx, monkeypatch):
    sigma = catalog.cocycle("klein-induced", ctx)
    calls = []
    w_functional = cocycle_module.w_functional

    def counting(*args, **kwargs):
        calls.append(args)
        return w_functional(*args, **kwargs)

    monkeypatch.setattr(cocycle_module, "w_functional", counting)
    monkeypatch.setattr(twist_module, "w_functional", counting)
    tw = twist_algebra(sigma.host, sigma, ctx)
    assert len(calls) == 1
    v, v_inv = v_functional(sigma, ctx)
    assert np.array_equal(tw.v.coeffs, v.coeffs)
    assert np.array_equal(tw.v_inv.coeffs, v_inv.coeffs)
