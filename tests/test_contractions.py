"""Every pairwise contraction in the library against its formula.

Each reference is the formula written as one literal ``np.einsum`` with
``optimize=False``.  The inputs are chosen so that a contraction over a
swapped axis cannot agree by accident: seeded random tensors, over random
structure tensors where no cocycle is involved; coreps whose carrier
dimension N differs from the host dimension n; perturbed catalog hosts; and
random unitaries that are not cocycles on a commutative and a cocommutative
host.
"""

import collections
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hopftwist
from hopftwist import (
    DualCocycle,
    HaarState,
    QuotientMorphism,
    RTwistedVolume,
    ScalarContext,
    catalog,
    check_volume_preservation,
    cyclic_group,
    dihedral_group,
    direct_product,
    direct_sum,
    dual,
    function_algebra,
    group_algebra,
    induce,
    intertwine_check,
    pi_u,
    regular_corep,
    rho_sigma,
    trivial_corep,
    twist_algebra,
    twisted_operator_product,
    twisted_operator_star,
    v_functional,
    verify_cocycle,
    verify_corep,
    verify_hopf_axioms,
    verify_morphism,
    w_functional,
)
import hopftwist._linalg as linalg
from hopftwist._linalg import Join, Terms, max_gap
from hopftwist.cocycle import convolve2, dual_star2, identity2
from hopftwist.core import FiniteHopfStarAlgebra
from hopftwist.corep import UnitaryCorep, ad_v, ad_v_tensor, e_map_matrix
from hopftwist.errors import TheoremViolation
from hopftwist.peterweyl import _rho_data, gram_matrix, haar_pairing, haar_state

REL = 1e-12

# (host, cocycle): c-d4 carries a nontrivial cocycle, c-s3 only the trivial one
PAIRS = (("c-d4", "klein-induced"), ("c-s3", "trivial-s3"))
HOSTS = ("c-d4", "c-s3", "g-d4")
# the coreps of the four triple scenes, and d4-regular's read over its twisted host
SCENE_COREPS = catalog.triple_names() + ("d4-regular^sigma",)


def _relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unitary2(host, rng, scale=0.3):
    """exp(iK) for a random self-adjoint K in the convolution algebra of the
    tensor square, summed as a power series: a unitary that is not a
    cocycle.  sigma^-1 = sigma* accepts it, so DualCocycle does."""
    z = scale * _complex(rng, host.dim, host.dim)
    ik = 0.5j * (z + dual_star2(host, z))
    term = total = identity2(host)
    for m in range(1, 40):
        term = convolve2(host, term, ik) / m
        total = total + term
    return total


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


def _scene_corep(name, ctx):
    """A scene's corep and cocycle.  The ^sigma form reads the corep over the
    twisted host, where sigma^-1 is the cocycle."""
    scene = catalog.triple_scene(name.removesuffix("^sigma"), ctx)
    corep, sigma = scene["corep"], scene["cocycle"]
    if name.endswith("^sigma"):
        tw = twist_algebra(sigma.host, sigma, ctx)
        corep = UnitaryCorep(tw.twisted, corep.hdim, corep.u)
        sigma = DualCocycle(tw.twisted, sigma.sigma_inv, ctx=ctx)
    return corep, sigma


def _assert_stack_matches_elements(fn, stack):
    """fn of a (2, 3, ...) stack is fn of each element, stacked."""
    got = fn(stack)
    for idx in np.ndindex(2, 3):
        assert _relative_error(got[idx], fn(stack[idx])) <= REL


# the scene coreps are checked on stacks only: the literal einsum takes
# seconds at N = n = 16
@pytest.mark.parametrize("name", HOSTS + SCENE_COREPS)
def test_adjoint_action_matches_its_formula(name, rng, ctx):
    if name in HOSTS:
        coreps = _coreps(name, rng)
        for corep in coreps:
            assert corep.hdim != corep.host.dim
            t = _complex(rng, corep.hdim, corep.hdim)
            assert _relative_error(ad_v(corep, t), _ref_ad(corep, t)) <= REL
            assert _relative_error(ad_v_tensor(corep), _ref_ad_tensor(corep)) <= REL
            omega = _complex(rng, corep.host.dim)
            want = np.einsum("ijc,c->ij", corep.u, omega, optimize=False)
            assert _relative_error(pi_u(corep, omega), want) <= REL
    else:
        coreps = (_scene_corep(name, ctx)[0],)
    for corep in coreps:
        stack = _complex(rng, 2, 3, corep.hdim, corep.hdim)
        _assert_stack_matches_elements(lambda x: ad_v(corep, x), stack)
        stack = _complex(rng, 2, 3, corep.host.dim)
        _assert_stack_matches_elements(lambda x: pi_u(corep, x), stack)


@pytest.mark.parametrize(
    "name,sigma_name", PAIRS + tuple((name, None) for name in SCENE_COREPS)
)
def test_deformed_image_and_product_match_their_formulas(name, sigma_name, rng, ctx):
    if sigma_name is None:
        corep, sigma = _scene_corep(name, ctx)
        coreps = (corep,)
    else:
        sigma = catalog.cocycle(sigma_name)
        host = catalog.algebra(name)
        summed = direct_sum(regular_corep(host), trivial_corep(host, 2))
        coreps = (_random_corep(host, rng), summed)
        for corep in coreps:
            a = _complex(rng, corep.hdim, corep.hdim)
            b = _complex(rng, corep.hdim, corep.hdim)
            ad_a, ad_b = _ref_ad(corep, a), _ref_ad(corep, b)
            want = np.einsum("ikc,kjq,cq->ij", ad_a, corep.u, sigma.sigma_inv, optimize=False)
            assert _relative_error(rho_sigma(corep, sigma, a), want) <= REL
            want = np.einsum("ijc,jkd,cd->ik", ad_a, ad_b, sigma.sigma_inv, optimize=False)
            assert _relative_error(twisted_operator_product(corep, sigma, a, b), want) <= REL
    for corep in coreps:
        stack = _complex(rng, 2, 3, corep.hdim, corep.hdim)
        _assert_stack_matches_elements(lambda x: rho_sigma(corep, sigma, x), stack)
        _assert_stack_matches_elements(
            lambda x: twisted_operator_star(corep, sigma, x, ctx), stack
        )


@pytest.mark.parametrize(
    "name,sigma_name", PAIRS + tuple((name, None) for name in SCENE_COREPS)
)
def test_stacked_twisted_products_match_the_pairwise_ones(name, sigma_name, rng, ctx):
    if sigma_name is None:
        corep, sigma = _scene_corep(name, ctx)
    else:
        corep, sigma = _random_corep(catalog.algebra(name), rng), catalog.cocycle(sigma_name)
    stack = _complex(rng, 3, corep.hdim, corep.hdim)
    got = twisted_operator_product(corep, sigma, stack[:, None], stack[None])
    assert got.shape == (3, 3, corep.hdim, corep.hdim)
    for i, j in np.ndindex(3, 3):
        want = twisted_operator_product(corep, sigma, stack[i], stack[j])
        assert _relative_error(got[i, j], want) <= REL


@pytest.mark.parametrize("name,sigma_name", PAIRS)
def test_intertwine_residual_matches_its_formula(name, sigma_name, rng, ctx):
    host, sigma = catalog.algebra(name), catalog.cocycle(sigma_name)
    tw = twist_algebra(host, sigma, ctx)
    corep = _random_corep(host, rng)
    corep_sigma = UnitaryCorep(tw.twisted, corep.hdim, corep.u)

    def rho(t):
        return np.einsum(
            "ikc,kjq,cq->ij", _ref_ad(corep, t), corep.u, sigma.sigma_inv, optimize=False
        )

    stack = _complex(rng, 2, corep.hdim, corep.hdim)
    want = 0.0
    for t in stack:
        lhs = _ref_ad(corep_sigma, rho(t))
        legs = _ref_ad(corep, t)
        rhs = np.stack([rho(legs[:, :, c]) for c in range(host.dim)], axis=-1)
        want = max(want, np.abs(lhs - rhs).max())
    assert abs(intertwine_check(corep, tw, stack, ctx) - want) <= REL * want


@pytest.mark.parametrize("name", HOSTS)
def test_e_map_matrix_matches_its_formula(name, rng):
    for corep in _coreps(name, rng):
        n_h = corep.hdim
        rho = _complex(rng, corep.host.dim)
        want = np.einsum("ijklc,c->ijkl", _ref_ad_tensor(corep), rho, optimize=False)
        want = want.reshape(n_h * n_h, n_h * n_h)
        assert _relative_error(e_map_matrix(corep, rho), want) <= REL


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


def _traced(fn):
    """fn() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_corep_layer_at_dimension_32(ctx, rng):
    """N = n = 32, where an (N, N, n, n) array has 2^20 entries (16 MiB):
    every call agrees with a pairwise reference and peaks under 8 MiB."""
    group = direct_product(cyclic_group(4), cyclic_group(8))
    host = group_algebra(group)
    assert host.dim == 32
    corep = regular_corep(host, ctx)
    identity = np.eye(corep.hdim, dtype=np.complex128)
    # the bicharacter exp(2 pi i (g1 mod 4) h0 / 4); group index is 8 * g0 + g1
    g = np.arange(32)
    beta = np.exp(2j * np.pi * np.outer(g % 8 % 4, g // 8) / 4)
    sigma = DualCocycle(host, beta, ctx=ctx)
    a, b = _complex(rng, 2, corep.hdim, corep.hdim)
    calls = {
        "verify_corep": lambda: verify_corep(corep, ctx),
        "check_volume_preservation": lambda: check_volume_preservation(
            corep, RTwistedVolume(identity), ctx
        ),
        "ad_v": lambda: ad_v(corep, a),
        "rho_sigma": lambda: rho_sigma(corep, sigma, identity),
        "twisted_operator_product": lambda: twisted_operator_product(corep, sigma, a, b),
    }
    got = {}
    for name, call in calls.items():
        got[name], peak = _traced(call)
        assert peak <= 8 * 2**20, (name, peak)
    assert got["verify_corep"].passed, got["verify_corep"].failing()
    verdict = got["check_volume_preservation"]
    assert verdict["passed"] and verdict["residual"] <= ctx.tolerance
    # a normalized cocycle has sigma^-1(1, .) = counit, so rho_sigma(1) = 1
    assert np.abs(got["rho_sigma"] - identity).max() <= ctx.tolerance

    def ref_ad(t):
        # ad(T)[i, j, c] = sum u[i, k, a] T[k, l] u*[j, l, b] mul[a, b, c], pairwise
        x = np.einsum("ika,kl->ial", corep.u, t, optimize=False)
        y = np.einsum("ial,jlb->iajb", x, _ref_star(corep), optimize=False)
        return np.einsum("iajb,abc->ijc", y, host.mul, optimize=False)

    ad_a, ad_b = ref_ad(a), ref_ad(b)
    w = np.einsum("ijc,cd->ijd", ad_a, sigma.sigma_inv, optimize=False)
    assert _relative_error(got["ad_v"], ad_a) <= REL
    want = np.einsum("ijd,jkd->ik", w, ad_b, optimize=False)
    assert _relative_error(got["twisted_operator_product"], want) <= REL


# ------------------------------------------------ the corep layer on u's entries


def _dense_basis(corep, rng):
    """The same corep in a random unitary basis W of the carrier space,
    u'_c = W u_c W^H, where no entry of u' is zero."""
    w, _ = np.linalg.qr(_complex(rng, corep.hdim, corep.hdim))
    u = np.einsum("ik,klc,jl->ijc", w, corep.u, w.conj(), optimize=False)
    return UnitaryCorep(corep.host, corep.hdim, u)


# the scene coreps, d4-regular's read over its twisted host, and the coreps
# of d4-regular (a function algebra) and z4z4-torus (a group algebra) in a
# random unitary basis
ENTRY_COREPS = SCENE_COREPS + ("d4-regular~dense", "z4z4-torus~dense")


def _entry_case(name, ctx, rng):
    """A corep of ENTRY_COREPS and its scene's cocycle."""
    corep, sigma = _scene_corep(name.removesuffix("~dense"), ctx)
    if name.endswith("~dense"):
        corep = _dense_basis(corep, rng)
        assert np.count_nonzero(corep.u) == corep.u.size
    return corep, sigma


def _ref_ad_pairwise(corep):
    """_ref_ad_tensor as two literal einsums, u* meeting mul first: the
    three-operand one takes seconds at N = n = 16."""
    star_mul = np.einsum("jlb,abc->jlac", _ref_star(corep), corep.host.mul, optimize=False)
    return np.einsum("ika,jlac->ijklc", corep.u, star_mul, optimize=False)


@pytest.mark.parametrize("name", ENTRY_COREPS)
def test_corep_layer_matches_its_formulas_on_every_corep(name, rng, ctx):
    corep, sigma = _entry_case(name, ctx, rng)
    host, n_h, n = corep.host, corep.hdim, corep.host.dim
    tensor = _ref_ad_pairwise(corep)
    stack = _complex(rng, 3, n_h, n_h)
    ad = np.einsum("ijklc,skl->sijc", tensor, stack, optimize=False)
    adjoint = np.einsum("ijklc,slk->sijc", tensor, stack.conj(), optimize=False)
    legs = np.einsum("ijq,cq->cij", corep.u, sigma.sigma_inv, optimize=False)
    leg = w_functional(sigma, ctx)[0].coeffs @ host.antipode_inv
    rho, omega = _complex(rng, n), _complex(rng, 2, n)
    cases = (
        (ad_v(corep, stack), ad),
        (ad_v_tensor(corep), tensor),
        (
            e_map_matrix(corep, rho),
            np.einsum("ijklc,c->ijkl", tensor, rho, optimize=False).reshape(n_h**2, n_h**2),
        ),
        (pi_u(corep, omega), np.einsum("ijc,sc->sij", corep.u, omega, optimize=False)),
        (rho_sigma(corep, sigma, stack), np.einsum("sikc,ckj->sij", ad, legs, optimize=False)),
        (
            twisted_operator_product(corep, sigma, stack[:, None], stack[None]),
            np.einsum("sijc,tjkd,cd->stik", ad, ad, sigma.sigma_inv, optimize=False),
        ),
        (
            twisted_operator_star(corep, sigma, stack, ctx),
            np.einsum("sijc,c->sij", adjoint, leg, optimize=False),
        ),
    )
    for got, want in cases:
        assert _relative_error(got, want) <= REL

    # a volume that is not preserved, so the residual is far from rounding
    root = _complex(rng, n_h, n_h)
    rv = RTwistedVolume(root @ root.conj().T + np.eye(n_h))
    contracted = np.einsum("ji,ijklc->klc", rv.r, tensor, optimize=False)
    want = np.abs(contracted - np.einsum("lk,c->klc", rv.r, host.unit)).max()
    assert want > 1e-3
    assert abs(check_volume_preservation(corep, rv)["residual"] - want) <= REL * want

    # a valid corep reads rounding on every check: the formulas agree to it
    ustar, u = _ref_star(corep), corep.u
    target = np.einsum("ij,c->ijc", np.eye(n_h), host.unit)
    law = np.einsum("ijc,cab->ijab", u, host.comul) - np.einsum(
        "ika,kjb->ijab", u, u, optimize=False
    )
    right = np.einsum("ika,jkb,abc->ijc", u, ustar, host.mul, optimize=False) - target
    left = np.einsum("kia,kjb,abc->ijc", ustar, u, host.mul, optimize=False) - target
    report = verify_corep(corep, ctx)
    assert report.passed
    for check, diff in (("corep-law", law), ("unitarity-right", right), ("unitarity-left", left)):
        assert abs(report.residual(check) - np.abs(diff).max()) <= 1e-13


@pytest.mark.parametrize("name", ENTRY_COREPS)
def test_intertwine_residual_matches_its_formula_on_every_corep(name, rng, ctx):
    # a random unitary sigma^-1 breaks the intertwining on the dihedral host,
    # so the residual is far from rounding there; on the abelian group
    # algebras both sides vanish for any matrix.  The formula holds for any
    # matrix
    corep, sigma = _entry_case(name, ctx, rng)
    host = corep.host
    tw = twist_algebra(host, sigma, ctx)
    off = DualCocycle(host, _unitary2(host, rng), ctx=ctx)
    tw = dataclasses.replace(tw, cocycle=off)
    corep_sigma = UnitaryCorep(tw.twisted, corep.hdim, corep.u)
    tensor, tensor_sigma = _ref_ad_pairwise(corep), _ref_ad_pairwise(corep_sigma)
    legs = np.einsum("ijq,cq->cij", corep.u, off.sigma_inv, optimize=False)
    # rho as a map (i, m) <- (k, l): sum_jd ad(E_kl)[i, j, d] legs[d, j, m]
    rho = np.einsum("ijkld,djm->imkl", tensor, legs, optimize=False)
    stack = _complex(rng, 2, corep.hdim, corep.hdim)
    lhs = np.einsum("ijklc,skl->sijc", tensor_sigma, np.einsum("imkl,skl->sim", rho, stack))
    rhs = np.einsum(
        "imkl,sklc->simc", rho, np.einsum("ijklc,skl->sijc", tensor, stack), optimize=False
    )
    want = np.abs(lhs - rhs).max()
    assert want > 1e-3 or not name.startswith("d4")
    assert abs(intertwine_check(corep, tw, stack, ctx) - want) <= REL * max(want, 1.0)


@pytest.mark.parametrize("name", ENTRY_COREPS)
def test_corep_layer_agrees_under_any_budget(name, rng, ctx, monkeypatch):
    """_linalg.runs alone picks each run's form.  Under the default budget
    these stacks are written out densely.  Under half of N^2 n a run of one
    operator no longer fits, so the sparse coreps are joined; under 8 almost
    every join is refused, so nearly every run is written out one slice a
    at a time.  The results agree."""
    corep, sigma = _entry_case(name, ctx, rng)
    tw = twist_algebra(corep.host, sigma, ctx)
    stack = _complex(rng, 2, corep.hdim, corep.hdim)
    # a volume that is not preserved, so the residual is far from rounding
    root = _complex(rng, corep.hdim, corep.hdim)
    rv = RTwistedVolume(root @ root.conj().T + np.eye(corep.hdim))

    def results():
        return (
            ad_v(corep, stack),
            rho_sigma(corep, sigma, stack),
            twisted_operator_product(corep, sigma, stack[:, None], stack[None]),
            intertwine_check(corep, tw, stack, ctx),
            check_volume_preservation(corep, rv, ctx)["residual"],
            np.array([r for _, r in verify_corep(corep, ctx).checks]),
        )

    want = results()
    for budget in (corep.hdim**2 * corep.host.dim // 2, 8):
        monkeypatch.setattr(linalg, "BUDGET", budget)
        for got, ref in zip(results(), want):
            assert np.abs(got - ref).max() <= REL * max(np.abs(ref).max(), 1.0)


# ------------------------------------------------ core, cocycle, twist, peterweyl


def _perturbed(host, rng, size=0.1):
    """A catalog host with every tensor moved off the Hopf axioms."""
    n = host.dim

    def nudge(t):
        return t + size * _complex(rng, *t.shape)

    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=host.basis_labels,
        mul=nudge(host.mul),
        unit=nudge(host.unit),
        comul=nudge(host.comul),
        counit=nudge(host.counit),
        antipode=nudge(host.antipode),
        antipode_inv=nudge(host.antipode_inv),
        star=nudge(host.star),
    )


def _ref_axiom_residuals(a):
    """The einsum-built axiom residuals, written as literal formulas.

    The four-operand formula follows numpy's own contraction path: summed
    term by term it takes about 50 s at n = 16.
    """

    def gap(x, y):
        return np.abs(x - y).max()

    mul, comul, s, star = a.mul, a.comul, a.antipode, a.star
    target = np.outer(a.counit, a.unit)
    return {
        "associativity": gap(
            np.einsum("ijp,pkl->ijkl", mul, mul), np.einsum("jkq,iql->ijkl", mul, mul)
        ),
        "coassociativity": gap(
            np.einsum("ipc,pab->iabc", comul, comul),
            np.einsum("iap,pbc->iabc", comul, comul),
        ),
        "coproduct-multiplicative": gap(
            np.einsum("ijc,cab->ijab", mul, comul),
            np.einsum("ipq,jrs,pra,qsb->ijab", comul, comul, mul, mul, optimize=True),
        ),
        "coproduct-star": gap(
            np.einsum("ji,jab->iab", star, comul),
            np.einsum("ijk,aj,bk->iab", comul.conj(), star, star, optimize=False),
        ),
        "antipode-law": max(
            gap(np.einsum("ijk,pj,pkl->il", comul, s, mul, optimize=False), target),
            gap(np.einsum("ijk,pk,jpl->il", comul, s, mul, optimize=False), target),
        ),
        "antipode-antimultiplicative": gap(
            np.einsum("ijk,lk->ijl", mul, s),
            np.einsum("pj,qi,pql->ijl", s, s, mul, optimize=False),
        ),
        "star-antimultiplicative": gap(
            np.einsum("ijk,lk->ijl", mul.conj(), star),
            np.einsum("pj,qi,pql->ijl", star, star, mul, optimize=False),
        ),
    }


def _one_entry_off(host, tensor, rng):
    """host with 1 + 0.5i added to one entry of mul or comul, at a position
    where that tensor is zero when it has one.

    The new entry gives one basis element a support its neighbours lack.
    """
    t = np.array(getattr(host, tensor))
    zeros = np.argwhere(t == 0)
    pos = zeros[rng.integers(len(zeros))] if len(zeros) else rng.integers(host.dim, size=3)
    t[tuple(pos)] += 1.0 + 0.5j
    return dataclasses.replace(host, **{tensor: t})


def _c_d8_klein_twist(host, ctx):
    """C(D8) twisted by the cocycle induced from the Klein subgroup {e, r4, s, r4 s}."""
    mor = catalog.restriction_morphism(
        dihedral_group(8), (0, 4, 8, 12), ctx, source=host, target=catalog.algebra("c-z2z2")
    )
    return twist_algebra(host, induce(catalog.cocycle("klein-fourier", ctx), mor, ctx), ctx).twisted


def _c_z4z4_fourier_twist(ctx):
    """C(Z4 x Z4) twisted by the Fourier transport of the bicharacter i^(g1 h0).

    The transported cocycle is exact, so its mul keeps 16 nonzero entries,
    and its comul is that of a group."""
    group = direct_product(cyclic_group(4), cyclic_group(4))
    pairs = [(a, b) for a in range(4) for b in range(4)]
    beta = np.array([[1j ** (g[1] * h[0]) for h in pairs] for g in pairs])
    host = function_algebra(group)
    return twist_algebra(host, catalog.fourier_transport(group, beta, host, ctx), ctx).twisted


def _random_sparse_host(rng, n=16, density=0.04):
    """Random structure tensors with about density of their entries nonzero:
    sparse enough for every term join, and nothing cancels by symmetry."""
    host = _random_host(rng, n)
    keep = {t: rng.random((n, n, n)) < density for t in ("mul", "comul")}
    return dataclasses.replace(host, mul=host.mul * keep["mul"], comul=host.comul * keep["comul"])


def _axiom_case(name, rng, ctx):
    """A catalog name gives that host perturbed everywhere; random-sparse a
    sparse random host.  Otherwise the name is host+tensor: one entry of mul
    or comul set off C(D8) (n = 16), its Klein-induced twist, C(D8) in a
    random dense basis, or the Fourier twist of C(Z4 x Z4) in a random
    dense basis."""
    if name == "random-sparse":
        return _random_sparse_host(rng)
    if "+" not in name:
        return _perturbed(catalog.algebra(name), rng)
    host_name, tensor = name.split("+")
    if host_name == "c-z4z4^fourier":
        host = _c_z4z4_fourier_twist(ctx)
    else:
        host = function_algebra(dihedral_group(8))
    if host_name == "c-d8^klein":
        host = _c_d8_klein_twist(host, ctx)
    elif host_name in ("c-d8-dense", "c-z4z4^fourier"):
        host = _rebased(host, np.eye(host.dim) + 0.1 * _complex(rng, host.dim, host.dim))
        assert np.count_nonzero(host.mul) == host.mul.size
    return _one_entry_off(host, tensor, rng)


# the n^4-entry checks each case must move
_MOVED = {
    "mul": ("associativity", "coproduct-multiplicative"),
    "comul": ("coassociativity", "coproduct-multiplicative"),
}
_N4_CHECKS = ("associativity", "coassociativity", "coproduct-multiplicative")
# the length of the runs in which each case writes its n^4-entry identities
# out densely (_linalg.runs); an identity it leaves out is a term join.  A
# run is dense when every partial result of both sides has at most 2^14
# entries: a side of associativity or coassociativity has n^3 entries per
# basis element, and the middle step of coproduct-multiplicativity n^4.  So
# at n = 6 and n = 8 the run is the whole range, or half of it at n = 8 for
# coproduct-multiplicativity (4 * 8^4 entries).  At n = 16 a sparse host's
# joins fit the budget of terms; a host dense everywhere has its joins
# refused and halved down to runs of 4 elements (4 * 16^3 entries), and to
# single elements for coproduct-multiplicativity, whose one element is over
# the budget alone.  Every case writes its five n^3-entry identities out
# whole, as n^3 <= 2^14
_DENSE = {
    "c-d4": {"associativity": 8, "coassociativity": 8, "coproduct-multiplicative": 4},
    "c-s3": dict.fromkeys(_N4_CHECKS, 6),
    "g-d4": {"associativity": 8, "coassociativity": 8, "coproduct-multiplicative": 4},
    "c-d8": {},
    "c-d8^klein": {},
    "c-d8-dense": {"associativity": 4, "coassociativity": 4, "coproduct-multiplicative": 1},
    "c-z4z4^fourier": {"associativity": 4, "coassociativity": 4, "coproduct-multiplicative": 1},
    "random-sparse": {},
}
SUPPORT_CASES = tuple(
    f"{host}+{tensor}"
    for host in ("c-d8", "c-d8^klein", "c-d8-dense", "c-z4z4^fourier")
    for tensor in _MOVED
) + ("random-sparse",)


@pytest.mark.parametrize("name", HOSTS + SUPPORT_CASES)
def test_axiom_residuals_match_their_formulas(name, rng, ctx, monkeypatch):
    host = _axiom_case(name, rng, ctx)
    slices = []
    dense = linalg.Chain.dense
    monkeypatch.setattr(
        linalg.Chain, "dense", lambda side, lead: slices.append(lead) or dense(side, lead)
    )
    report = verify_hopf_axioms(host)
    # both sides of each dense identity, run by run: the five n^3-entry
    # identities whole, and the n^4-entry ones in runs of their length
    n = host.dim
    want = collections.Counter({n: 2 * 5})
    for length in _DENSE[name.split("+")[0]].values():
        want[length] += 2 * n // length
    assert collections.Counter(lead.stop - lead.start for lead in slices) == want
    _check_axiom_residuals(name, host, report)


# the cases whose chains fit the budget of dense entries, taken again as
# term joins
PATH_CASES = ("c-d4", "g-d4", "c-d8^klein+comul", "random-sparse")


def _force_path(monkeypatch, path):
    """Send every chain to its term joins, as if no run of it fit the budget
    of dense entries ("joins"); "slices" also cuts the budget to 7 terms, so
    that a run holds one element or a few and most elements fall back to
    dense slices.  Returns the joins made from then on, counted in a list.

    A host keeps its coalgebra residuals while it lives, so each test takes
    a host made after the path is forced, or one whose residuals were never
    read."""
    monkeypatch.setattr(linalg.Chain, "fits", lambda chain, lead: False)
    if path == "slices":
        monkeypatch.setattr(linalg, "BUDGET", 7)
    joins = []
    call = linalg.Join.__call__
    monkeypatch.setattr(
        linalg.Join, "__call__", lambda join, x, limit: joins.append(1) or call(join, x, limit)
    )
    return joins


@pytest.mark.parametrize("path", ("joins", "slices"))
@pytest.mark.parametrize("name", PATH_CASES)
def test_axiom_residuals_match_their_formulas_over_nonzero_entries(
    name, path, rng, ctx, monkeypatch
):
    host = _axiom_case(name, rng, ctx)
    joins = _force_path(monkeypatch, path)
    _check_axiom_residuals(name, host, verify_hopf_axioms(host))
    assert joins


def _check_axiom_residuals(name, host, report):
    assert not report.passed
    moved = _MOVED[name.split("+")[1]] if "+" in name else None
    for check, want in _ref_axiom_residuals(host).items():
        if moved is None or check in moved:
            assert want > 1e-3, check
        if want > 1e-3:
            assert abs(report.residual(check) - want) <= REL * want, check
        else:
            # an identity the one entry leaves intact: both read rounding
            assert abs(report.residual(check) - want) <= REL, check


def test_exact_fourier_twist_takes_the_term_joins(ctx, rng, monkeypatch):
    # the Fourier transport is exact, so the twisted mul has only the 16
    # nonzero entries of a twisted group algebra, not n^3 rounding residues
    twisted = _c_z4z4_fourier_twist(ctx)
    assert np.count_nonzero(twisted.mul) == twisted.dim
    slices = []
    dense = linalg.Chain.dense
    monkeypatch.setattr(
        linalg.Chain, "dense", lambda side, lead: slices.append(lead) or dense(side, lead)
    )
    assert verify_hopf_axioms(twisted).passed
    for tensor in _MOVED:
        assert not verify_hopf_axioms(_one_entry_off(twisted, tensor, rng)).passed
    # the n^4-entry identities are joined; only the five n^3-entry ones,
    # which fit the budget whole, are written out, and no basis element alone
    assert slices == [slice(0, twisted.dim)] * 2 * 5 * 3


def test_tensor_square_convolution_matches_its_formula(rng):
    _check_convolutions(rng)


@pytest.mark.parametrize("path", ("joins", "slices"))
def test_tensor_square_convolution_over_nonzero_entries_matches_its_formula(
    path, rng, monkeypatch
):
    joins = _force_path(monkeypatch, path)
    _check_convolutions(rng)
    _check_convolution_supports(rng)
    assert joins


def _check_convolutions(rng):
    host = _random_host(rng, 5)
    comul = host.comul
    x, y = _complex(rng, 5, 5), _complex(rng, 5, 5)
    xt, yt = _complex(rng, 5, 5, 3), _complex(rng, 5, 5, 3)
    want = np.einsum("iab,jcd,ac,bd->ij", comul, comul, x, y, optimize=False)
    assert _relative_error(convolve2(host, x, y), want) <= REL
    # a trailing axis on either factor is carried to the end of the result
    want = np.einsum("iab,jcd,act,bd->ijt", comul, comul, xt, y, optimize=False)
    assert _relative_error(convolve2(host, xt, y), want) <= REL
    want = np.einsum("iab,jcd,ac,bdt->ijt", comul, comul, x, yt, optimize=False)
    assert _relative_error(convolve2(host, x, yt), want) <= REL


def test_tensor_square_convolution_skips_zero_rows_and_columns(rng):
    _check_convolution_supports(rng)


def _check_convolution_supports(rng):
    host = _random_host(rng, 6)
    comul = host.comul
    for rows, cols in (((1, 4), (0, 2, 5)), ((), (3,)), ((0, 1, 2, 3, 4), ())):
        x, xt = _complex(rng, 6, 6), _complex(rng, 6, 6, 3)
        y, yt = _complex(rng, 6, 6), _complex(rng, 6, 6, 3)
        for f in (x, xt):
            f[list(rows)] = 0.0
            f[:, list(cols)] = 0.0
        y[list(cols)] = yt[:, list(rows)] = 0.0
        want = np.einsum("iab,jcd,ac,bd->ij", comul, comul, x, y, optimize=False)
        assert _relative_error(convolve2(host, x, y), want) <= REL
        want = np.einsum("iab,jcd,act,bd->ijt", comul, comul, xt, y, optimize=False)
        assert _relative_error(convolve2(host, xt, y), want) <= REL
        want = np.einsum("iab,jcd,ac,bdt->ijt", comul, comul, x, yt, optimize=False)
        assert _relative_error(convolve2(host, x, yt), want) <= REL


@pytest.mark.parametrize("name", ("c-d4", "g-d4"))
def test_cocycle_residuals_match_their_formulas_off_a_cocycle(name, rng, ctx):
    _check_cocycle_residuals(name, rng, ctx)


@pytest.mark.parametrize("path", ("joins", "slices"))
@pytest.mark.parametrize("name", ("c-d4", "g-d4"))
def test_cocycle_residuals_match_their_formulas_over_nonzero_entries(
    name, path, rng, ctx, monkeypatch
):
    joins = _force_path(monkeypatch, path)
    _check_cocycle_residuals(name, rng, ctx)
    assert joins


def _check_cocycle_residuals(name, rng, ctx):
    # c-d4 has a commutative product, g-d4 a cocommutative coproduct, so a
    # swapped leg or input shows on one of them; a fresh host over the
    # catalog's tensors holds nothing read on another path
    host = dataclasses.replace(catalog.algebra(name))
    cocycle = DualCocycle(host, _unitary2(host, rng), ctx=ctx)
    comul, mul, sig, inv = host.comul, host.mul, cocycle.sigma, cocycle.sigma_inv
    report = verify_cocycle(cocycle, ctx)
    lhs = np.einsum("jpq,krs,pr,qst,it->ijk", comul, comul, sig, mul, sig, optimize=False)
    rhs = np.einsum("ipq,jrs,pr,qst,tk->ijk", comul, comul, sig, mul, sig, optimize=False)
    want = np.abs(lhs - rhs).max()
    assert want > 1e-3
    assert abs(report.residual("cocycle-identity") - want) <= REL * want
    eye2 = np.outer(host.counit, host.counit)
    two_sided = max(
        np.abs(np.einsum("iab,jcd,ac,bd->ij", comul, comul, a, b, optimize=False) - eye2).max()
        for a, b in ((sig, inv), (inv, sig))
    )
    assert report.residual("inverse-two-sided") <= ctx.tolerance
    assert abs(report.residual("inverse-two-sided") - two_sided) <= 1e-14


def _complex_basis(host, sigma, rng):
    """The same host and cocycle in a complex, non-unitary basis.

    Catalog tensors are real and their antipodes symmetric; in this basis a
    missing conjugate or transpose changes the result.
    """
    p = np.eye(host.dim) + 0.1 * _complex(rng, host.dim, host.dim)
    rebased = _rebased(host, p)
    return rebased, DualCocycle(rebased, p.T @ sigma @ p)


def _ref_twist(host, cocycle, w, w_inv):
    d3 = np.einsum("iap,pbc->iabc", host.comul, host.comul)
    # sum d3[i,a,b,c] d3[j,d,e,f] sig[a,d] mul[b,e,t] sig_inv[c,f], one
    # pair of operands at a time: over (a, c), then (d, f), then (b, e)
    sandwich = np.multiply.outer(cocycle.sigma, cocycle.sigma_inv)  # [a, d, c, f]
    left = np.tensordot(d3, sandwich, axes=([1, 3], [0, 2]))  # [i, b, d, f]
    both = np.tensordot(left, d3, axes=([2, 3], [1, 3]))  # [i, b, j, e]
    mul = np.tensordot(both, host.mul, axes=([1, 3], [0, 1]))  # [i, j, t]
    w_ds, w_inv_ds = dual(host).star_of(np.stack([w.coeffs, w_inv.coeffs]))
    middle = np.einsum("ipqr,p,r->qi", d3, w_inv_ds, w_ds, optimize=False)
    wrapped = np.einsum("ipqr,p,r->qi", d3, w.coeffs, w_inv.coeffs, optimize=False)
    return mul, host.star @ middle.conj(), host.antipode @ wrapped


@pytest.mark.parametrize(
    "name,sigma_name", (("c-d4", "klein-induced"), ("c-z2z2", "klein-fourier"))
)
def test_twisted_structure_matches_its_formula(name, sigma_name, rng, ctx):
    sigma = catalog.cocycle(sigma_name, ctx).sigma
    host, cocycle = _complex_basis(catalog.algebra(name), sigma, rng)
    tw = twist_algebra(host, cocycle, ctx)
    mul, star, antipode = _ref_twist(host, cocycle, tw.w, tw.w_inv)
    assert _relative_error(tw.twisted.mul, mul) <= REL
    assert _relative_error(tw.twisted.star, star) <= REL
    assert _relative_error(tw.twisted.antipode, antipode) <= REL


def test_w_and_v_match_their_formulas(rng, ctx):
    # any unitary sigma with w(1) = 1 will do, since w is linear in sigma;
    # off a cocycle w is unitary, as w_functional asks, for a product a (x) b
    # of unitaries, where w = a S(b).  x -> x(., 1) takes the unitaries of
    # the tensor square to those of the dual, and w(1) = a(1) b(1) is a phase
    c_d4 = catalog.algebra("c-d4")
    a, b = (_unitary2(c_d4, rng) @ c_d4.unit for _ in range(2))
    host, cocycle = _complex_basis(c_d4, np.outer(a, b), rng)
    raw = np.einsum("ijk,pk,jp->i", host.comul, host.antipode, cocycle.sigma, optimize=False)
    cocycle = DualCocycle(host, cocycle.sigma / (raw @ host.unit))
    w, w_inv = w_functional(cocycle, ctx)
    want = np.einsum("ijk,pk,jp->i", host.comul, host.antipode, cocycle.sigma, optimize=False)
    assert _relative_error(w.coeffs, want) <= REL
    v, _ = v_functional(cocycle, ctx)
    want = np.einsum(
        "ijk,j,pk,p->i", host.comul, w_inv.coeffs, host.antipode_inv, w.coeffs,
        optimize=False,
    )
    assert _relative_error(v.coeffs, want) <= REL


def test_a_held_twist_is_judged_at_each_callers_tolerance(rng, ctx, monkeypatch):
    # a unitary that is not a cocycle, with w(1) = 1 as above: w passes,
    # and the twisted algebra fails its axioms far above rounding
    c_d4 = catalog.algebra("c-d4")
    a, b = (_unitary2(c_d4, rng) @ c_d4.unit for _ in range(2))
    host, cocycle = _complex_basis(c_d4, np.outer(a, b), rng)
    raw = np.einsum("ijk,pk,jp->i", host.comul, host.antipode, cocycle.sigma, optimize=False)
    cocycle = DualCocycle(host, cocycle.sigma / (raw @ host.unit))
    loose = ScalarContext(tolerance=10.0, seed=ctx.seed)
    first = twist_algebra(host, cocycle, loose)
    failing = [name for name, r in first.transcript.checks if not r <= ctx.tolerance]
    assert "associativity" in failing
    calls = []
    for module, name in ((hopftwist.twist, "twisted_product"), (hopftwist.core, "identity_gap")):
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
        )
    # the held residuals are judged at each caller's tolerance
    for _ in range(2):
        with pytest.raises(TheoremViolation, match=f"twisted algebra fails: {', '.join(failing)}$"):
            twist_algebra(host, cocycle, ctx)
        again = twist_algebra(host, cocycle, loose)
        assert again.twisted is first.twisted
        assert again.transcript.checks == first.transcript.checks
    assert calls == []
    # a fresh cocycle by the same sigma is twisted afresh
    with pytest.raises(TheoremViolation):
        twist_algebra(host, DualCocycle(host, cocycle.sigma), ctx)
    assert calls.count("twisted_product") == 1 and "identity_gap" in calls


def test_morphism_residuals_match_their_formulas(rng):
    # a max-norm residual can land on an entry a swapped axis leaves fixed,
    # so several draws are compared
    for _ in range(4):
        source, target = _random_host(rng, 7), _random_host(rng, 5)
        p = _complex(rng, 5, 7)
        report = verify_morphism(QuotientMorphism(source, target, p))
        prod = np.einsum("ijk,pk->ijp", source.mul, p) - np.einsum(
            "pi,qj,pqr->ijr", p, p, target.mul, optimize=False
        )
        coprod = np.einsum("ki,kpq->ipq", p, target.comul) - np.einsum(
            "iab,pa,qb->ipq", source.comul, p, p, optimize=False
        )
        for check, diff in (("multiplicative", prod), ("comultiplicative", coprod)):
            want = np.abs(diff).max()
            assert abs(report.residual(check) - want) <= REL * want


def test_state_form_and_translation_match_their_formulas(rng):
    host = _random_host(rng, 6)
    h = HaarState(host, _complex(rng, 6))
    want = np.einsum("pi,pjw,w->ij", host.star, host.mul, h.coeffs, optimize=False)
    assert _relative_error(gram_matrix(host, h), want) <= REL
    phi = _complex(rng, 6)
    # the dual acting on the algebra by right translation
    translation = dual(host).product(np.eye(6), phi).T
    assert _relative_error(translation, np.einsum("kjm,m->jk", host.comul, phi)) <= REL
    # a Haar state is tracial, so only a non-Hopf input tells h(x y) from h(y x)
    q, f = _complex(rng, 2, 2, 6), _complex(rng, 2, 2)
    # one block, as a stack of one
    x_elems, rho = (x[0] for x in _rho_data(host, h, q[None], f[None], np.array([1.5])))
    want = 1.5 * np.einsum("ks,xy,kmy->smx", f, host.star, q.conj(), optimize=False)
    assert _relative_error(x_elems, want) <= REL
    want = np.einsum("smt,tcw,w->smc", want, host.mul, h.coeffs, optimize=False)
    assert _relative_error(rho, want) <= REL


@pytest.mark.parametrize(
    "name,cocycle", [(name, None) for name in HOSTS + ("random",)] + [("c-d4", "klein-induced")]
)
def test_haar_pairing_matches_the_pairwise_loop(name, cocycle, ctx, rng):
    if name == "random":
        # Haar states of the catalog are tracial; a random state is not, so
        # h(x y) and h(y x) differ here
        host = _random_host(rng, 6)
        h = HaarState(host, _complex(rng, 6))
    else:
        host = catalog.algebra(name)
        if cocycle is not None:
            host = twist_algebra(host, catalog.cocycle(cocycle, ctx), ctx).twisted
        h = haar_state(host, ctx)
    x, y = _complex(rng, 2, 3, host.dim), _complex(rng, 4, host.dim)
    got = haar_pairing(host, h, x, host.star_of(y))
    want = np.zeros((2, 3, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                want[i, j, k] = h(host.product(x[i, j], host.star_of(y[k])))
    assert _relative_error(got, want) <= REL


def test_library_sources_fix_every_contraction_path():
    # optimize=True searches a path per call and may pick an O(n^6) or an
    # n^5-entry one; every contraction is written out pairwise instead
    src = Path(hopftwist.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if "optimize=True" in p.read_text()]
    assert offenders == []


# ------------------------------------------------------------------ term joins

# joins on one shared letter and on two
JOIN_SPECS = ("ijp,pkl->ijkl", "ika,abf->fikb", "fijk,fjm->imk", "qrix,qrjy->ijxy", "ij,jk->ik")


def _sparse(rng, shape, density=0.3):
    return _complex(rng, *shape) * (rng.random(shape) < density)


def _term_count(spec, x, y):
    return int(np.einsum(spec, (x != 0).astype(int), (y != 0).astype(int), optimize=False).sum())


def _join_operands(spec, rng):
    (xs, ys), sizes = spec.split("->")[0].split(","), {}
    for c in xs + ys:
        sizes.setdefault(c, 3 + len(sizes) % 3)
    return [_sparse(rng, tuple(sizes[c] for c in s)) for s in (xs, ys)]


@pytest.mark.parametrize("spec", JOIN_SPECS)
def test_join_matches_einsum_on_sparse_tensors(spec, rng):
    x, y = _join_operands(spec, rng)
    want = np.einsum(spec, x, y, optimize=False)
    terms = Join(spec, y)(x, x.size * y.size)
    # a pair of entries per term, summed by index only on request
    assert terms.values.size == _term_count(spec, x, y)
    summed = terms.summed()
    assert np.all(np.diff(summed.keys) > 0)
    assert _relative_error(summed.dense(), want) <= REL
    # summed terms are operands too, and a map from their trailing axes
    out = spec.split("->")[1]
    chain = f"{out},{out[-1]}z->{out[:-1]}z"
    v = _sparse(rng, (want.shape[-1], 2))
    chained = Join(chain, v)(summed, want.size * v.size).summed().dense()
    assert _relative_error(chained, np.einsum(chain, want, v, optimize=False)) <= REL
    assert np.array_equal(summed[1:2].dense(), summed.dense()[1:2])


def test_join_sums_repeated_indices_only_when_asked(rng):
    x, y = _sparse(rng, (4, 5), 1.0), _sparse(rng, (5, 3), 1.0)
    terms = Join("ij,jk->ik", y)(x, 60)
    assert terms.values.size == 60
    assert np.unique(terms.keys).size == 12
    summed = terms.summed()
    assert np.array_equal(summed.keys, np.arange(12))
    assert _relative_error(summed.dense(), x @ y) <= REL
    # two sums of terms over one shape are compared index by index
    assert max_gap(terms, Terms.of(x @ y)) <= 1e-14


def test_join_keeps_nan_and_inf_entries():
    x = np.array([[np.nan, 0.0], [0.0, np.inf]])
    assert Terms.of(x).values.size == 2
    got = Join("ij,jk->ik", np.diag([1.0, 2.0]))(x, 4).summed().dense()
    assert np.isnan(got[0, 0]) and got[1, 1] == np.inf
    assert np.count_nonzero(got) == 2
    assert np.isnan(max_gap(Terms.of(x), Terms.of(np.zeros((2, 2)))))


def test_join_of_an_empty_operand_has_no_terms(rng):
    x, y = np.zeros((3, 4)), _sparse(rng, (4, 2))
    terms = Join("ij,jk->ik", y)(x, 0)
    assert terms.values.size == 0
    assert np.array_equal(terms.summed().dense(), np.zeros((3, 2)))
    assert max_gap(terms, terms) == 0.0


@pytest.mark.parametrize("spec", JOIN_SPECS)
def test_join_over_the_limit_forms_no_pair(spec, rng, monkeypatch):
    x, y = _join_operands(spec, rng)
    count = _term_count(spec, x, y)

    def refuse(*args):
        raise AssertionError("pairs were formed over the limit")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "pairs_by_count", refuse)
        assert Join(spec, y)(x, count - 1) is None
        # the count is exact: at the limit the pairs are formed
        with pytest.raises(AssertionError, match="over the limit"):
            Join(spec, y)(x, count)
    assert Join(spec, y)(x, count).values.size == count


def test_max_gap_merges_disjoint_and_repeated_keys():
    # key 0 repeats on the left (1 + 0.5); the right has none of its keys
    left = Terms((4,), np.array([0, 2, 0]), np.array([1.0, 2.0, 0.5]))
    right = Terms((4,), np.array([3, 1]), np.array([0.25, -4.0]))
    assert max_gap(left, right) == max_gap(right, left) == 4.0
    # the same tensor as terms that repeat in another order
    same = Terms((4,), np.array([2, 0, 2, 0]), np.array([1.0, 1.25, 1.0, 0.25]))
    assert max_gap(left, same) == max_gap(same, left) == 0.0
    assert max_gap(left, Terms((4,), np.array([0]), np.array([1.0]))) == 2.0


def test_max_gap_keeps_a_nan_from_either_side():
    one = Terms((3,), np.array([0, 2]), np.array([1.0 + 0j, 1.0 + 0j]))
    for key in (0, 1, 2):  # on a shared key and on a key of its own
        nan = Terms((3,), np.array([key]), np.array([complex(np.nan, 0.0)]))
        assert np.isnan(max_gap(nan, one)) and np.isnan(max_gap(one, nan)), key


def test_max_gap_keeps_an_inf_whose_partner_is_zero():
    # the summed inf keeps its zero imaginary part, so |inf - 0| stays inf
    inf = Terms((2,), np.array([1, 0, 1]), np.array([complex(np.inf, 0.0), 1.0, 0.0]))
    zero = Terms((2,), np.array([1]), np.array([0j]))
    first = Terms((2,), np.array([0]), np.array([1.0]))
    for got in (max_gap(inf, zero), max_gap(zero, inf), max_gap(inf, first)):
        assert got == np.inf


def test_slices_keep_each_leading_index_whole(monkeypatch):
    # entries per leading index 2, 6, 1 and 3, each joined with one entry:
    # under a budget of 7 the running count passes it inside index 1's run
    a = np.zeros((4, 3, 3))
    for i, count in enumerate((2, 6, 1, 3)):
        a[i].flat[:count] = np.arange(1, count + 1)
    side = linalg.Chain(Terms.of(a), ("ijk,kl->ijl", np.eye(3)))
    monkeypatch.setattr(linalg, "BUDGET", 7)
    runs = list(linalg.runs((side,), side.terms))
    assert [(lead.start, lead.stop) for lead, _ in runs] == [(0, 1), (1, 2), (2, 4)]
    got = np.concatenate([t.summed().dense() for _, t in runs])
    assert np.array_equal(got, a)
    # an index over the budget alone is refused, for a dense slice
    monkeypatch.setattr(linalg, "BUDGET", 5)
    runs = list(linalg.runs((side,), side.terms))
    assert [(lead.start, lead.stop, t is None) for lead, t in runs] == [
        (0, 1, False), (1, 2, True), (2, 4, False)
    ]
    assert np.array_equal(side.dense(slice(1, 2)), a[1:2])


def test_dense_slice_reads_each_operand_from_its_array(rng, monkeypatch):
    a, y = _sparse(rng, (4, 3, 3)), _sparse(rng, (3, 2))
    side = linalg.Chain(Terms.of(a), ("ijk,kl->ijl", y))
    assert side.joins[0].y.array is y
    written = []
    dense = Terms.dense
    monkeypatch.setattr(Terms, "dense", lambda t: written.append(t.shape) or dense(t))
    assert _relative_error(side.dense(slice(1, 3)), (a @ y)[1:3]) <= REL
    # the leading operand's slice is read from its array too, and so is a
    # conjugate's, conjugated
    conj = linalg.Chain(Terms.of(a).conj(), ("ijk,kl->ijl", y))
    assert _relative_error(conj.dense(slice(1, 3)), (a.conj() @ y)[1:3]) <= REL
    assert written == []
    assert np.array_equal(Terms.of(a).conj().dense(), a.conj())
    # terms that were not read from an array carry none
    assert Terms.of(a)[0:2].array is None


@pytest.mark.parametrize(
    "rows,cols,dense", ((4, 4096, True), (5, 3277, False)), ids=("fits", "over")
)
def test_a_chain_is_dense_exactly_when_its_partials_fit_the_budget(
    rows, cols, dense, rng, monkeypatch
):
    # the product has BUDGET entries, or one more
    assert rows * cols == linalg.BUDGET + (not dense)
    x, y = _sparse(rng, (rows, 2), 1.0), _sparse(rng, (2, cols), 0.01)
    chain = linalg.Chain(Terms.of(x), ("ij,jk->ik", y))
    leads, prepared = [], []
    dense_of, join_init = linalg.Chain.dense, linalg.Join.__init__
    monkeypatch.setattr(
        linalg.Chain, "dense", lambda side, lead: leads.append(lead) or dense_of(side, lead)
    )
    monkeypatch.setattr(
        linalg.Join, "__init__", lambda j, *args: prepared.append(j) or join_init(j, *args)
    )
    assert _relative_error(chain.whole().dense(), x @ y) <= REL
    if dense:
        # one dense call over the whole range, and no operand keyed or sorted
        assert leads == [slice(0, rows)] and prepared == []
    else:
        assert leads == [] and len(prepared) == 1


def test_only_linalg_knows_the_term_keys():
    # nor the budget, nor the choice between the dense and the join form
    src = Path(hopftwist.__file__).parent
    names = ("pairs_by_count", "sum_by_key", "term_count", "term_gap", "BUDGET", ".fits(", "runs(")
    offenders = [
        (p.name, name)
        for p in sorted(src.glob("*.py"))
        if p.name != "_linalg.py"
        for name in names
        if name in p.read_text()
    ]
    assert offenders == []
