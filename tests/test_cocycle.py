import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from hopftwist import (
    QuotientMorphism,
    FiniteHopfStarAlgebra,
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
    verify_morphism,
    w_functional,
)
from hopftwist import cocycle as cocycle_module
from hopftwist._linalg import gather, square_components
from hopftwist.cocycle import (
    convolution_entries2,
    convolution_matrix2,
    convolve2,
    dual_star2,
    identity2,
    invert2,
)
from hopftwist.core import DualFunctional, convolve
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
    # "not <= tol" test rather than slip through to invert2's SVD
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
    inv, _ = invert2(host, x + 3.0 * e2, ctx)
    assert np.abs(convolve2(host, x + 3.0 * e2, inv) - e2).max() <= 1e-9
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
        w, w_inv = w_functional(sigma, ctx)
        v, v_inv = v_functional(sigma, ctx)
        for a, b in ((w, w_inv), (v, v_inv)):
            left = convolve(a, b).coeffs
            right = convolve(b, a).coeffs
            assert np.abs(left - host.counit).max() <= 1e-9
            assert np.abs(right - host.counit).max() <= 1e-9


def test_v_composes_w_inverse_with_w_through_the_inverse_antipode(ctx):
    sigma = catalog.cocycle("klein-induced", ctx)
    host = sigma.host
    w, w_inv = w_functional(sigma, ctx)
    v, _ = v_functional(sigma, ctx)
    w_kappa = DualFunctional(host, host.antipode_inv.T @ w.coeffs)
    composed = convolve(w_inv, w_kappa).coeffs
    assert np.abs(v.coeffs - composed).max() <= 1e-9


# --- the condition check of invert2 against the literal SVD rule ---------------

TOLERANCES = (1e-3, 1e-9, 1e-12)


def _svd_rule(lmat, tol):
    s = np.linalg.svd(lmat, compute_uv=False)
    return bool(s[-1] > 0 and s[0] / s[-1] <= 1.0 / tol)


def _invert2_accepts(host, x, ctx):
    """False exactly when invert2's condition check rejects the operator; a
    later residual failure means the check itself accepted."""
    try:
        invert2(host, x, ctx)
    except InvalidInverse as exc:
        if "singular" in str(exc) or "condition number" in str(exc):
            return False
    return True


def _largest_svd_side(svd_calls):
    return max((max(shape[-2:]) for shape in svd_calls), default=0)


def _diagonal_operand(host, rng, smallest, complex_phases):
    """x on a group algebra, where the operator is diag(x): all |x| = 1 but
    one entry of modulus smallest, so cond2 = 1/smallest exactly."""
    mod = np.ones((host.dim, host.dim))
    mod[1, 2] = smallest
    if not complex_phases:
        return mod * rng.choice([-1.0, 1.0], size=mod.shape)
    return mod * np.exp(2j * np.pi * rng.random(mod.shape))


def _catalog_sigmas(ctx):
    out = [(name, catalog.cocycle(name, ctx)) for name in catalog.cocycle_names()]
    out += [(name, catalog.triple_scene(name, ctx)["cocycle"]) for name in catalog.triple_names()]
    return out


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_certifies_catalog_cocycles_without_svd(ctx, tol, svd_calls):
    """The singular values of blocks no larger than 16 x 16 decide, never an
    SVD of the whole operator."""
    strict = ScalarContext(tolerance=tol, seed=ctx.seed)
    cases = []
    for name, sigma in _catalog_sigmas(ctx):
        cases.append((name, sigma.host, sigma.sigma, sigma.sigma_inv))
        # the inverse cocycle on the twisted algebra, as roundtrip builds it
        twisted = twist_algebra(sigma.host, sigma, ctx).twisted
        cases.append((f"{name}^-1", twisted, sigma.sigma_inv, sigma.sigma))
    for name, host, x, _ in cases:
        assert _svd_rule(convolution_matrix2(host, x), tol), name
    for name, host, x, want in cases:
        del svd_calls[:]
        inv, _ = invert2(host, x, strict)
        assert np.abs(inv - want).max() <= 1e-12, name
        assert 0 < _largest_svd_side(svd_calls) <= 16, (name, svd_calls)


def _one_component_operand(host, cond, phase):
    """x on C(D4) with the operator I + b P + c J: P is translation by the
    central (r^2, e) and J the all-ones matrix, so the pattern is one dense
    component and the operator is normal with eigenvalues 1 + b, 1 - b and
    1 (on constants), which make cond2 = cond."""
    n = host.dim
    b = (cond - 1.0) / (cond + 1.0)
    x = np.full((n, n), -b / n**2, dtype=np.complex128)
    x[0, 0] += 1.0
    x[2, 0] += b  # r^2 is basis element 2 of dihedral_group(4)
    return phase * x


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("complex_phases", (False, True))
def test_invert2_falls_back_to_svd_below_the_limit(tol, complex_phases, rng, svd_calls):
    host = group_algebra(dihedral_group(4))
    n2 = host.dim**2
    x = _diagonal_operand(host, rng, 2.0 * tol, complex_phases)
    cond = 0.5 / tol
    assert (1.0 / tol) / n2 < cond < 1.0 / tol
    ctx = ScalarContext(tolerance=tol)
    # the operator is diagonal, so the SVDs of its 1x1 blocks decide
    inv, _ = invert2(host, x, ctx)
    assert _largest_svd_side(svd_calls) == 1
    assert _svd_rule(convolution_matrix2(host, x), tol)
    assert np.abs(inv * x - 1.0).max() <= 1e-12
    # one dense component: the SVD of the whole operator decides
    dense_host = function_algebra(dihedral_group(4))
    phase = np.exp(2j * np.pi * rng.random()) if complex_phases else -1.0
    x = _one_component_operand(dense_host, cond, phase)
    lmat = convolution_matrix2(dense_host, x)
    assert len(square_components(*np.nonzero(lmat), n2)) == 1
    assert np.isclose(np.linalg.cond(lmat), cond, rtol=1e-3)
    del svd_calls[:]
    assert _invert2_accepts(dense_host, x, ctx)
    assert (n2, n2) in svd_calls
    assert _svd_rule(lmat, tol)


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("complex_phases", (False, True))
def test_invert2_rejects_above_the_limit(tol, complex_phases, rng):
    host = group_algebra(dihedral_group(4))
    x = _diagonal_operand(host, rng, 0.5 * tol, complex_phases)
    assert not _svd_rule(convolution_matrix2(host, x), tol)
    # the message names the measured cond2 = 2 / tol and the limit 1 / tol
    match = re.escape(f"condition number {2.0 / tol:.3g} above {1.0 / tol:.3g}") + "$"
    with pytest.raises(InvalidInverse, match=match):
        invert2(host, x, ScalarContext(tolerance=tol))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_verdict_at_the_edge_of_the_limit(tol, rng):
    host = group_algebra(dihedral_group(4))
    x = _diagonal_operand(host, rng, 0.5 * tol, True)
    cond = 1.0 / abs(x[1, 2])
    for edge in (1.0 - 1e-6, 1.0 + 1e-6):
        ctx = ScalarContext(tolerance=edge / cond)
        lmat = convolution_matrix2(host, x)
        assert _invert2_accepts(host, x, ctx) == _svd_rule(lmat, ctx.tolerance) == (edge < 1)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_rejects_exactly_singular_operands(tol, rng):
    ctx = ScalarContext(tolerance=tol)
    host = group_algebra(dihedral_group(4))
    x = _diagonal_operand(host, rng, 0.0, True)
    for h, operand in ((host, x), (catalog.algebra("c-s3"), np.zeros((6, 6)))):
        assert not _svd_rule(convolution_matrix2(h, operand), tol)
        with pytest.raises(InvalidInverse, match="is singular$"):
            invert2(h, operand, ctx)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_invert2_sends_a_non_square_component_to_the_svd(tol, rng, svd_calls):
    host = group_algebra(dihedral_group(4))
    x = _diagonal_operand(host, rng, 1.0, True)
    x[3, 5] = 0.0
    lmat = convolution_matrix2(host, x)
    # row (3, 5) is all zero: a component with one row and no column
    assert not lmat[3 * host.dim + 5].any()
    assert square_components(*np.nonzero(lmat), host.dim**2) is None
    with pytest.raises(InvalidInverse, match="singular"):
        invert2(host, x, ScalarContext(tolerance=tol))
    assert (host.dim**2, host.dim**2) in svd_calls


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


def test_invert2_matches_a_dense_solve_on_the_twist_ladder(ctx, svd_calls):
    for name, sigma in _ladder_cocycles(ctx):
        host = sigma.host
        twisted = twist_algebra(host, sigma, ctx).twisted
        for label, h, x in ((name, host, sigma.sigma), (f"{name}^-1", twisted, sigma.sigma_inv)):
            n = h.dim
            dense = np.linalg.solve(convolution_matrix2(h, x), identity2(h).reshape(-1))
            del svd_calls[:]
            assert np.abs(invert2(h, x, ctx)[0] - dense.reshape(n, n)).max() <= 1e-12, label
            assert 0 < _largest_svd_side(svd_calls) <= 16, (label, svd_calls)


def test_invert2_on_c_d16_solves_and_decomposes_only_small_blocks(ctx, svd_calls, monkeypatch):
    sigma = dict(_ladder_cocycles(ctx))["C(D16)"]
    n2 = sigma.host.dim ** 2
    solves = []
    solve = np.linalg.solve

    def counting(a, b):
        solves.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    invert2(sigma.host, sigma.sigma, ctx)
    assert solves and all(shape[-1] < n2 for shape in solves)
    assert all(shape[-1] < n2 for shape in svd_calls)


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


def _assert_gathers_match(h, x, y, exact):
    """L_b of x and M_b of y gathered from their entries against the same
    blocks of the dense convolution matrices; exact also asks for the
    entries of x to be those of the dense matrix, bit for bit."""
    m = h.dim**2
    lmat, mmat = convolution_matrix2(h, x), convolution_matrix2(h, y)
    entries = convolution_entries2(h, x)
    if exact:
        assert np.array_equal(entries[0], np.flatnonzero(lmat))
    parts = square_components(*np.divmod(entries[0], m), m)
    assert parts is not None
    for rows, cols in parts:
        blocks = (
            (gather(entries, rows, cols, m), lmat[rows[:, :, None], cols[:, None, :]]),
            (
                gather(convolution_entries2(h, y), cols, rows, m),
                mmat[cols[:, :, None], rows[:, None, :]],
            ),
        )
        for sparse, dense in blocks:
            if exact:
                assert np.array_equal(sparse, dense)
            else:
                assert np.abs(sparse - dense).max() <= 1e-12
    return parts


def test_sparse_gathered_blocks_match_the_dense_operator_on_the_ladder(ctx):
    for name, sigma in _ladder_cocycles(ctx):
        host = sigma.host
        twisted = twist_algebra(host, sigma, ctx).twisted
        operators = ((host, sigma.sigma, sigma.sigma_inv), (twisted, sigma.sigma_inv, sigma.sigma))
        for h, x, y in operators:
            # on C(G) and G(G) every entry is one product: the join is bit-exact
            parts = _assert_gathers_match(h, x, y, exact=True)
            # C(Z4 x Z4) included, every operator splits into small blocks
            assert max(rows.shape[1] for rows, _ in parts) <= 16, name


def test_convolution_entries_join_sparse_random_hosts(rng, monkeypatch):
    n = 6
    for _ in range(4):
        host = _random_host(rng, n)
        host = dataclasses.replace(host, comul=host.comul * (rng.random((n, n, n)) < 0.15))
        x = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
        y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lmat = convolution_matrix2(host, x).reshape(-1)
        with monkeypatch.context() as patch:
            # the terms fit under n^4, so the dense matrix is never built
            patch.setattr(cocycle_module, "convolution_matrix2", _no_dense)
            keys, values = convolution_entries2(host, x)
        assert np.abs(values - lmat[keys]).max() <= 1e-12
        assert np.abs(np.delete(lmat, keys)).max(initial=0.0) <= 1e-12
        if square_components(*np.divmod(keys, n * n), n * n) is not None:
            _assert_gathers_match(host, x, y, exact=False)
    # a dense host and operand would form more terms than the matrix has
    # entries, so the matrix is built densely
    host = _random_host(rng, 3)
    x = rng.normal(size=(3, 3))
    _assert_gathers_match(host, x, np.linalg.inv(x), exact=True)


def _no_dense(*args):
    raise AssertionError("the dense n^2 x n^2 operator was built")


def test_invert2_on_c_d16_builds_no_dense_operator(ctx, monkeypatch):
    sigma = dict(_ladder_cocycles(ctx))["C(D16)"]
    twisted = twist_algebra(sigma.host, sigma, ctx).twisted
    n = sigma.host.dim
    monkeypatch.setattr(cocycle_module, "convolution_matrix2", _no_dense)
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


def test_twist_steps_on_c_d32_stay_under_96_mib(ctx):
    """n = 64: one n^2 x n^2 complex operator alone would take 256 MiB."""
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    klein_fourier = catalog.fourier_transport(klein, _klein_beta(), c_klein, ctx)
    group = dihedral_group(32)
    host = function_algebra(group)
    mor = catalog.restriction_morphism(group, (0, 16, 32, 48), ctx, source=host, target=c_klein)
    steps = {}

    def peak(step, fn):
        tracemalloc.start()
        try:
            out = fn()
            steps[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    sigma = peak("induce", lambda: induce(klein_fourier, mor, ctx))
    tw = peak("twist_algebra", lambda: twist_algebra(host, sigma, ctx))
    result = peak("roundtrip", lambda: roundtrip(host, sigma, ctx, tw=tw))
    assert result["residual"] <= ctx.tolerance
    assert max(steps.values()) < 96 * 2**20, steps


def _random_host(rng, n):
    """Random structure tensors: no Hopf axiom holds, not even coassociativity."""

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(str(i) for i in range(n)),
        mul=cplx(n, n, n),
        unit=cplx(n),
        comul=cplx(n, n, n),
        counit=cplx(n),
        antipode=cplx(n, n),
        antipode_inv=cplx(n, n),
        star=cplx(n, n),
    )


def test_invert2_verdict_matches_the_svd_rule_on_random_hosts(rng):
    for _ in range(6):
        host = _random_host(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lmat = convolution_matrix2(host, x)
        s = np.linalg.svd(lmat, compute_uv=False)
        cond = s[0] / s[-1]
        tols = TOLERANCES + ((1.0 - 1e-6) / cond, (1.0 + 1e-6) / cond)
        for tol in tols:
            ctx = ScalarContext(tolerance=tol)
            assert _invert2_accepts(host, x, ctx) == _svd_rule(lmat, tol), (cond, tol)
