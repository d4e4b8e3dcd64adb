import tracemalloc

import numpy as np
import pytest

from hopftwist import (
    QuotientMorphism,
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
    roundtrip,
    trivial_cocycle,
    twist_algebra,
    v_functional,
    verify_cocycle,
    verify_hopf_axioms,
    verify_morphism,
    w_functional,
)
from hopftwist.cocycle import (
    DualCocycle,
    convolve2,
    dual_star2,
    identity2,
    invert2,
)
from hopftwist.core import DualFunctional, dual
from hopftwist.errors import (
    HostMismatch,
    InvalidBicharacter,
    InvalidInverse,
    InvalidMorphism,
)

KLEIN_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _klein_beta():
    return np.array(
        [[(-1.0) ** (g[1] * h[0]) for h in KLEIN_BITS] for g in KLEIN_BITS]
    )


def test_trivial_cocycle_is_valid(ctx):
    host = catalog.algebra("c-s3")
    sigma = trivial_cocycle(host)
    report = verify_cocycle(sigma, ctx)
    assert report.passed, report.failing()


def test_bicharacter_gives_valid_cocycle(ctx):
    sigma = from_bicharacter(klein_four_group(), _klein_beta(), ctx)
    report = verify_cocycle(sigma, ctx)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_from_bicharacter_accepts_shared_host(ctx):
    host = catalog.algebra("g-z2z2")
    sigma = from_bicharacter(klein_four_group(), _klein_beta(), ctx, host=host)
    assert sigma.host is host


def test_from_bicharacter_rejects_nonbicharacter(ctx):
    beta = _klein_beta().copy()
    beta[1, 2] = 3.0
    with pytest.raises(InvalidBicharacter):
        from_bicharacter(klein_four_group(), beta, ctx)


def test_from_bicharacter_rejects_a_nan_entry(ctx):
    # every comparison with a NaN is False, so the table must fail a
    # "not <= tol" test rather than slip through to invert2
    beta = _klein_beta().astype(np.complex128)
    beta[1, 2] = np.nan
    with pytest.raises(InvalidBicharacter, match="unimodular"):
        from_bicharacter(klein_four_group(), beta, ctx)


@pytest.mark.parametrize("value", (-1.0, 1j))
def test_from_bicharacter_names_a_finite_break_as_before(ctx, value):
    beta = _klein_beta().astype(np.complex128)
    beta[1, 2] = value * beta[1, 2]
    with pytest.raises(InvalidBicharacter) as exc:
        from_bicharacter(klein_four_group(), beta, ctx)
    assert str(exc.value) == "not multiplicative in the second slot at (1,1,2)"


def _first_nonmultiplicative(group, beta, tol):
    """The rejection message of the triple loop that from_bicharacter ran
    before it compared whole tables, or None for a bicharacter."""
    t, n = group.table, group.order
    for g in range(n):
        for h in range(n):
            for k in range(n):
                if abs(beta[g, t[h, k]] - beta[g, h] * beta[g, k]) > tol:
                    return f"not multiplicative in the second slot at ({g},{h},{k})"
                if abs(beta[t[g, h], k] - beta[g, k] * beta[h, k]) > tol:
                    return f"not multiplicative in the first slot at ({g},{h},{k})"
    return None


@pytest.mark.parametrize("broken", ((1, 2), (0, 3), (3, 0), (2, 2), (5, 6)))
def test_from_bicharacter_names_the_first_nonmultiplicative_triple(ctx, broken):
    group = direct_product(cyclic_group(2), cyclic_group(4))
    pairs = [(a, b) for a in range(2) for b in range(4)]
    beta = np.array([[(-1.0 + 0j) ** (g[1] * h[0]) for h in pairs] for g in pairs])
    assert _first_nonmultiplicative(group, beta, ctx.tolerance) is None
    beta[broken] *= 1j
    want = _first_nonmultiplicative(group, beta, ctx.tolerance)
    assert want is not None
    with pytest.raises(InvalidBicharacter) as exc:
        from_bicharacter(group, beta, ctx)
    assert str(exc.value) == want


def test_from_bicharacter_rejects_wrong_host(ctx):
    with pytest.raises(InvalidBicharacter):
        from_bicharacter(
            klein_four_group(), _klein_beta(), ctx, host=catalog.algebra("c-s3")
        )


def test_two_leg_convolution_algebra(ctx, rng):
    host = catalog.algebra("g-z2z2")
    x = rng.normal(size=(host.dim, host.dim)) + 1j * rng.normal(size=(host.dim, host.dim))
    e2 = identity2(host)
    assert np.abs(convolve2(host, e2, x) - x).max() <= 1e-10
    assert np.abs(convolve2(host, x, e2) - x).max() <= 1e-10
    # the dual of a group algebra is a function algebra, so convolution on
    # the tensor square is entrywise and a table of phases is unitary
    u = np.exp(2j * np.pi * rng.random((host.dim, host.dim)))
    inv, _ = invert2(host, u, ctx)
    assert np.abs(convolve2(host, u, inv) - e2).max() <= 1e-9
    assert np.abs(convolve2(host, inv, u) - e2).max() <= 1e-9
    twice = dual_star2(host, dual_star2(host, x))
    assert np.abs(twice - x).max() <= 1e-10


def test_quotient_morphism_to_klein_subgroup(ctx):
    mor = catalog.d4_klein_restriction(ctx)
    report = verify_morphism(mor, ctx)
    assert report.passed, report.failing()


def test_morphism_shape_validation():
    cd4 = catalog.algebra("c-d4")
    ck4 = catalog.algebra("c-z2z2")
    with pytest.raises(InvalidMorphism):
        QuotientMorphism(source=cd4, target=ck4, pi=np.zeros((3, 8)))


def test_morphism_detects_non_homomorphism(ctx):
    cd4 = catalog.algebra("c-d4")
    ck4 = catalog.algebra("c-z2z2")
    pi = np.zeros((4, 8))
    # an arbitrary index map that is not a subgroup restriction
    for t_idx, s_idx in enumerate((0, 1, 2, 3)):
        pi[t_idx, s_idx] = 1.0
    mor = QuotientMorphism(source=cd4, target=ck4, pi=pi)
    report = verify_morphism(mor, ctx)
    assert not report.passed


def test_induced_cocycle_is_valid_and_supported_on_the_image(ctx):
    sigma8 = catalog.cocycle("klein-induced", ctx)
    report = verify_cocycle(sigma8, ctx)
    assert report.passed
    # entries away from the embedded subgroup follow the pullback pattern
    mor = catalog.d4_klein_restriction(ctx)
    sigma4 = catalog.cocycle("klein-fourier", ctx)
    pullback = mor.pi.T @ sigma4.sigma @ mor.pi
    assert np.abs(sigma8.sigma - pullback).max() <= 1e-12


def test_restriction_rejects_non_closed_subset(ctx):
    # {e, r} inside the dihedral group: r*r falls outside the pair
    with pytest.raises(InvalidMorphism):
        catalog.restriction_morphism(catalog.group_data("d4"), (0, 1), ctx)


def test_induce_requires_matching_target(ctx):
    sigma = catalog.cocycle("klein-bicharacter", ctx)
    mor = catalog.d4_klein_restriction(ctx)
    with pytest.raises(HostMismatch):
        induce(sigma, mor, ctx)


def test_w_and_v_functionals_invert_in_convolution(ctx):
    for cname in ("klein-bicharacter", "klein-induced", "order4-bicharacter"):
        sigma = catalog.cocycle(cname, ctx)
        host = sigma.host
        hat = dual(host)
        w, w_inv = w_functional(sigma, ctx)
        v, v_inv = v_functional(sigma, ctx)
        for a, b in ((w, w_inv), (v, v_inv)):
            left = hat.product(a.coeffs, b.coeffs)
            right = hat.product(b.coeffs, a.coeffs)
            assert np.abs(left - host.counit).max() <= 1e-9
            assert np.abs(right - host.counit).max() <= 1e-9


def test_v_composes_w_inverse_with_w_through_the_inverse_antipode(ctx):
    sigma = catalog.cocycle("klein-induced", ctx)
    host = sigma.host
    w, w_inv = w_functional(sigma, ctx)
    v, _ = v_functional(sigma, ctx)
    w_kappa = DualFunctional(host, host.antipode_inv.T @ w.coeffs)
    composed = dual(host).product(w_inv.coeffs, w_kappa.coeffs)
    assert np.abs(v.coeffs - composed).max() <= 1e-9


# --- the closed-form inverse sigma^-1 = sigma* ----------------------------------

TOLERANCES = (1e-3, 1e-9, 1e-12)


def test_dual_cocycle_rejects_a_sigma_that_is_not_unitary(ctx):
    sigma = catalog.cocycle("klein-bicharacter", ctx)
    bad = np.array(sigma.sigma)
    bad[1, 1] = 2.0
    with pytest.raises(InvalidInverse, match="not unitary"):
        DualCocycle(sigma.host, bad, ctx=ctx)


def _catalog_sigmas(ctx):
    out = [(name, catalog.cocycle(name, ctx)) for name in catalog.cocycle_names()]
    out += [(name, catalog.triple_scene(name, ctx)["cocycle"]) for name in catalog.triple_names()]
    return out


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_certifies_catalog_cocycles_without_svd(ctx, tol, svd_calls):
    """The inverse is the dual star, accepted by its two-sided residual at
    every tolerance, with no SVD."""
    strict = ScalarContext(tolerance=tol, seed=ctx.seed)
    cases = []
    for name, sigma in _catalog_sigmas(ctx):
        cases.append((name, sigma.host, sigma.sigma, sigma.sigma_inv))
        # the inverse cocycle on the twisted algebra, as roundtrip builds it
        twisted = twist_algebra(sigma.host, sigma, ctx).twisted
        cases.append((f"{name}^-1", twisted, sigma.sigma_inv, sigma.sigma))
    del svd_calls[:]
    for name, host, x, want in cases:
        inv, _ = invert2(host, x, strict)
        assert np.abs(inv - want).max() <= 1e-12, name
    assert not svd_calls


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_rejects_exactly_singular_operands(tol, rng):
    ctx = ScalarContext(tolerance=tol)
    host = group_algebra(dihedral_group(4))
    # on a group algebra the convolution is entrywise, so a zero entry
    # makes the operand singular
    x = np.exp(2j * np.pi * rng.random((host.dim, host.dim)))
    x[1, 2] = 0.0
    for h, operand in ((host, x), (catalog.algebra("c-s3"), np.zeros((6, 6)))):
        with pytest.raises(InvalidInverse, match="not unitary"):
            invert2(h, operand, ctx)


def _bicharacter_z4z4():
    pairs = [(a, b) for a in range(4) for b in range(4)]
    return np.array([[1j ** (g[1] * h[0]) for h in pairs] for g in pairs])


def _ladder_cocycles(ctx):
    """The twist ladder's five hosts and cocycles, up to C(D16) at n = 32."""
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    klein_fourier = catalog.fourier_transport(klein, _klein_beta(), c_klein, ctx)
    for m in (4, 8, 16):
        group = dihedral_group(m)
        # the Klein subgroup {e, r^(m/2), s, r^(m/2) s}; index k + m*f is r^k s^f
        mor = catalog.restriction_morphism(
            group, (0, m // 2, m, m + m // 2), ctx, target=c_klein
        )
        yield f"C(D{m})", induce(klein_fourier, mor, ctx)
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    yield "G(Z4xZ4)", from_bicharacter(z4z4, _bicharacter_z4z4(), ctx)
    yield "C(Z4xZ4)", catalog.fourier_transport(
        z4z4, _bicharacter_z4z4(), function_algebra(z4z4), ctx
    )


def _convolution_operator(host, x):
    """The n^2 x n^2 matrix of y -> x * y on the tensor square, written out:
    entry [(i, j), (b, d)] is sum comul[i, a, b] x[a, c] comul[j, c, d],
    summed over a, then over c, as two products of a pair each."""
    n = host.dim
    left = np.tensordot(host.comul, x, axes=([1], [0]))  # [i, b, c]
    out = np.tensordot(left, host.comul, axes=([2], [1]))  # [i, b, j, d]
    return out.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def test_invert2_matches_a_dense_solve_on_the_twist_ladder(ctx):
    for name, sigma in _ladder_cocycles(ctx):
        host = sigma.host
        twisted = twist_algebra(host, sigma, ctx).twisted
        for label, h, x in ((name, host, sigma.sigma), (f"{name}^-1", twisted, sigma.sigma_inv)):
            n = h.dim
            dense = np.linalg.solve(_convolution_operator(h, x), identity2(h).reshape(-1))
            assert np.abs(invert2(h, x, ctx)[0] - dense.reshape(n, n)).max() <= 1e-12, label


def test_fourier_based_twists_carry_no_rounding_residue(ctx):
    # every entry is a Gaussian rational with a small power-of-2
    # denominator, computed exactly: nothing lies strictly between 0 and 1e-12
    fourier = [(name, catalog.cocycle(name, ctx)) for name in ("klein-fourier", "klein-induced")]
    for name, sigma in [*_ladder_cocycles(ctx), *fourier]:
        twisted = twist_algebra(sigma.host, sigma, ctx).twisted
        tensors = {
            "sigma": sigma.sigma,
            "sigma_inv": sigma.sigma_inv,
            "mul": twisted.mul,
            "star": twisted.star,
            "antipode": twisted.antipode,
        }
        for label, t in tensors.items():
            size = np.abs(t)
            assert not ((size > 0) & (size < 1e-12)).any(), (name, label)


def test_invert2_on_c_d16_builds_no_dense_operator(ctx):
    sigma = dict(_ladder_cocycles(ctx))["C(D16)"]
    twisted = twist_algebra(sigma.host, sigma, ctx).twisted
    n = sigma.host.dim
    operators = (
        (sigma.host, sigma.sigma, sigma.sigma_inv),
        (twisted, sigma.sigma_inv, sigma.sigma),
    )
    for h, x, want in operators:
        tracemalloc.start()
        try:
            inv, _ = invert2(h, x, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one n^2 x n^2 complex array takes 16 n^4 bytes, 16 MiB; the
        # whole call stays under an eighth of that
        assert peak < 16 * n**4 / 8
        assert np.array_equal(inv, want)


def _klein_coboundary_beta():
    """The symmetric Klein table (-1)^(g0 h1 + g1 h0), a coboundary."""
    return np.array(
        [[(-1.0) ** (g[0] * h[1] + g[1] * h[0]) for h in KLEIN_BITS] for g in KLEIN_BITS]
    )


def _peak(fn):
    """fn() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bicharacter_cocycle_on_g_z4z4_stays_under_1_mib(ctx):
    """n = 16: the convolution of the table with the vector-valued mul would
    form [i, c, d, t] partial results of n^4 entries, 1 MiB each, if it were
    written out densely.  Its joins keep from_bicharacter at about 0.6 MiB
    and twist_algebra at about 0.7 MiB."""
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    sigma, built = _peak(lambda: from_bicharacter(z4z4, _bicharacter_z4z4(), ctx))
    _, twisted = _peak(lambda: twist_algebra(sigma.host, sigma, ctx))
    assert max(built, twisted) < 2**20, (built, twisted)


def _klein_induced_steps(m, beta, ctx, axioms=False):
    """The tracemalloc peak of each twist step on C(D_m) with the Klein table
    beta induced to it: induce, the axiom check when asked, twist_algebra
    and roundtrip with the forward twist."""
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    fourier = catalog.fourier_transport(klein, beta, c_klein, ctx)
    group = dihedral_group(m)
    host = function_algebra(group)
    # the Klein subgroup {e, r^(m/2), s, r^(m/2) s}; index k + m*f is r^k s^f
    mor = catalog.restriction_morphism(
        group, (0, m // 2, m, m + m // 2), ctx, source=host, target=c_klein
    )
    steps = {}
    sigma, steps["induce"] = _peak(lambda: induce(fourier, mor, ctx))
    if axioms:
        report, steps["verify_hopf_axioms"] = _peak(lambda: verify_hopf_axioms(host, ctx))
        assert report.passed
    tw, steps["twist_algebra"] = _peak(lambda: twist_algebra(host, sigma, ctx))
    result, steps["roundtrip"] = _peak(lambda: roundtrip(host, sigma, ctx, tw=tw))
    assert result["passed"] and result["residual"] <= ctx.tolerance
    return steps


@pytest.mark.parametrize(
    "beta", (_klein_beta(), _klein_coboundary_beta()), ids=("klein", "coboundary")
)
def test_twist_steps_on_c_d32_stay_under_16_mib(beta, ctx):
    """n = 64: one n^2 x n^2 complex operator alone would take 256 MiB, and
    one dense n^3 tensor 4 MiB.  The steps peak at about 10.2 MiB."""
    steps = _klein_induced_steps(32, beta, ctx)
    assert max(steps.values()) < 16 * 2**20, steps


def test_twist_steps_on_c_d64_stay_under_128_mib(ctx):
    """n = 128, with the antisymmetric Klein table: one dense n^3 tensor
    takes 32 MiB and one n^4-entry side of an axiom 4 GiB.  The axiom check
    peaks at about 6 MiB, induce at about 3, twist_algebra and roundtrip at
    about 38 and 39 MiB."""
    steps = _klein_induced_steps(64, _klein_beta(), ctx, axioms=True)
    assert max(steps.values()) < 128 * 2**20, steps
    # the back twist is compared with the host over nonzero entries
    assert steps["roundtrip"] < 64 * 2**20, steps