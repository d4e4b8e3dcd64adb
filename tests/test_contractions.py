"""The corep and deform contractions against their docstring formulas.

Each reference is the formula written as one literal ``np.einsum`` with
``optimize=False``.  The inputs have carrier dimension N different from the
host dimension n, so a contraction over a swapped axis cannot agree by
accident: seeded random tensors, over random structure tensors where no
cocycle is involved, and direct sums of a regular corep with a trivial one.
"""

import numpy as np
import pytest

from hopftwist import (
    DualCocycle,
    RTwistedVolume,
    catalog,
    check_volume_preservation,
    cyclic_group,
    direct_product,
    direct_sum,
    group_algebra,
    regular_corep,
    rho_sigma,
    trivial_corep,
    twisted_operator_product,
    verify_corep,
)
from hopftwist.core import FiniteHopfStarAlgebra
from hopftwist.corep import UnitaryCorep, ad_v, ad_v_tensor

REL = 1e-12

# (host, cocycle): c-d4 carries a nontrivial cocycle, c-s3 only the trivial one
PAIRS = (("c-d4", "klein-induced"), ("c-s3", "trivial-s3"))
HOSTS = ("c-d4", "c-s3", "g-d4")


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _ref_star(corep):
    return np.einsum("cb,ijb->ijc", corep.host.star, corep.u.conj(), optimize=False)


def _ref_ad(corep, t):
    # ad(T)[i, j] = sum_kl v_ik T_kl (v_jl)*
    return np.einsum(
        "ika,kl,jlb,abc->ijc", corep.u, t, _ref_star(corep), corep.host.mul,
        optimize=False,
    )


def _ref_ad_tensor(corep):
    return np.einsum(
        "ika,jlb,abc->ijklc", corep.u, _ref_star(corep), corep.host.mul, optimize=False
    )


def _random_host(rng, n):
    """Random structure tensors: the contraction formulas hold for any tensors.

    Nothing about them is symmetric, so a product taken in the wrong order
    or a conjugate on the wrong factor changes every residual.
    """
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(f"e{i}" for i in range(n)),
        mul=_complex(rng, n, n, n),
        unit=_complex(rng, n),
        comul=_complex(rng, n, n, n),
        counit=_complex(rng, n),
        antipode=_complex(rng, n, n),
        antipode_inv=_complex(rng, n, n),
        star=_complex(rng, n, n),
    )


def _random_corep(host, rng):
    hdim = host.dim - 3
    return UnitaryCorep(host, hdim, _complex(rng, hdim, hdim, host.dim))


def _coreps(name, rng):
    """A random tensor over a random host of the same dimension, and a corep."""
    host = catalog.algebra(name)
    summed = direct_sum(regular_corep(host), trivial_corep(host, 2))
    return _random_corep(_random_host(rng, host.dim), rng), summed


@pytest.mark.parametrize("name", HOSTS)
def test_adjoint_action_matches_its_formula(name, rng):
    for corep in _coreps(name, rng):
        assert corep.hdim != corep.host.dim
        t = _complex(rng, corep.hdim, corep.hdim)
        assert _relative_error(ad_v(corep, t), _ref_ad(corep, t)) <= REL
        assert _relative_error(ad_v_tensor(corep), _ref_ad_tensor(corep)) <= REL


@pytest.mark.parametrize("name,sigma_name", PAIRS)
def test_deformed_image_and_product_match_their_formulas(name, sigma_name, rng):
    sigma = catalog.cocycle(sigma_name)
    host = catalog.algebra(name)
    summed = direct_sum(regular_corep(host), trivial_corep(host, 2))
    for corep in (_random_corep(host, rng), summed):
        a = _complex(rng, corep.hdim, corep.hdim)
        b = _complex(rng, corep.hdim, corep.hdim)
        ad_a, ad_b = _ref_ad(corep, a), _ref_ad(corep, b)
        want = np.einsum("ikc,kjq,cq->ij", ad_a, corep.u, sigma.sigma_inv, optimize=False)
        assert _relative_error(rho_sigma(corep, sigma, a), want) <= REL
        want = np.einsum("ijc,jkd,cd->ik", ad_a, ad_b, sigma.sigma_inv, optimize=False)
        assert _relative_error(twisted_operator_product(corep, sigma, a, b), want) <= REL


@pytest.mark.parametrize("name", HOSTS)
def test_volume_preservation_residual_matches_its_formula(name, rng):
    random, summed = _coreps(name, rng)
    for corep in (random, summed):
        root = _complex(rng, corep.hdim, corep.hdim)
        rv = RTwistedVolume(root @ root.conj().T + np.eye(corep.hdim))
        # (tau_R (x) id) ad_V(E_kl) - tau_R(E_kl) 1
        contracted = np.einsum("ji,ijklc->klc", rv.r, _ref_ad_tensor(corep), optimize=False)
        expected = np.einsum("lk,c->klc", rv.r, corep.host.unit, optimize=False)
        want = np.abs(contracted - expected).max()
        got = check_volume_preservation(corep, rv)["residual"]
        assert abs(got - want) <= REL * want
    identity = RTwistedVolume(np.eye(summed.hdim, dtype=np.complex128))
    verdict = check_volume_preservation(summed, identity)
    assert verdict["passed"] and verdict["residual"] <= 1e-12


@pytest.mark.parametrize("name", HOSTS)
def test_corep_residuals_match_their_formulas(name, rng):
    random, summed = _coreps(name, rng)
    assert verify_corep(summed).passed
    host, u = random.host, random.u
    ustar = _ref_star(random)
    target = np.einsum("ij,c->ijc", np.eye(random.hdim), host.unit)
    law = np.einsum("ijc,cab->ijab", u, host.comul) - np.einsum(
        "ika,kjb->ijab", u, u, optimize=False
    )
    right = np.einsum("ika,jkb,abc->ijc", u, ustar, host.mul, optimize=False) - target
    left = np.einsum("kia,kjb,abc->ijc", ustar, u, host.mul, optimize=False) - target
    report = verify_corep(random)
    for check, diff in (("corep-law", law), ("unitarity-right", right), ("unitarity-left", left)):
        want = np.abs(diff).max()
        assert abs(report.residual(check) - want) <= REL * want


def _rebased(host, p):
    """The same Hopf *-algebra in the basis e'_i = sum_a p[a, i] e_a."""
    q = np.linalg.inv(p)
    return FiniteHopfStarAlgebra(
        dim=host.dim,
        basis_labels=host.basis_labels,
        mul=np.einsum("ai,bj,abc,kc->ijk", p, p, host.mul, q),
        unit=q @ host.unit,
        comul=np.einsum("ck,cab,ia,jb->kij", p, host.comul, q, q),
        counit=host.counit @ p,
        antipode=q @ host.antipode @ p,
        antipode_inv=q @ host.antipode_inv @ p,
        star=q @ host.star @ p.conj(),
    )


def test_regular_corep_moves_a_non_orthonormal_basis_to_an_orthonormal_one(ctx):
    # a rescaled basis makes the Haar Gram matrix non-scalar, so the regular
    # corep is conjugated by its square root before it can be unitary
    host = _rebased(catalog.algebra("c-s3"), np.diag(np.arange(1.0, 7.0)))
    corep = regular_corep(host, ctx)
    assert not np.allclose(corep.u, host.comul.transpose(1, 0, 2))
    report = verify_corep(corep, ctx)
    assert report.passed, report.failing()


def test_corep_layer_at_dimension_32(ctx):
    group = direct_product(cyclic_group(4), cyclic_group(8))
    host = group_algebra(group)
    assert host.dim == 32
    corep = regular_corep(host, ctx)
    report = verify_corep(corep, ctx)
    assert report.passed, report.failing()
    identity = np.eye(corep.hdim, dtype=np.complex128)
    verdict = check_volume_preservation(corep, RTwistedVolume(identity), ctx)
    assert verdict["passed"] and verdict["residual"] <= ctx.tolerance
    # the bicharacter exp(2 pi i (g1 mod 4) h0 / 4); group index is 8 * g0 + g1
    g = np.arange(32)
    beta = np.exp(2j * np.pi * np.outer(g % 8 % 4, g // 8) / 4)
    sigma = DualCocycle(host, beta, ctx=ctx)
    # a normalized cocycle has sigma^-1(1, .) = counit, so rho_sigma(1) = 1
    assert np.abs(rho_sigma(corep, sigma, identity) - identity).max() <= ctx.tolerance
