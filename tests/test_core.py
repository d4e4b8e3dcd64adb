import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import (
    DualFunctional,
    FiniteHopfStarAlgebra,
    catalog,
    convolution_inverse,
    convolve,
    cyclic_group,
    dihedral_group,
    dual_star,
    function_algebra,
    group_algebra,
    iterated_coproduct,
    klein_four_group,
    symmetric_group_3,
    v_functional,
    verify_hopf_axioms,
    w_functional,
)
from hopftwist._linalg import (
    block_condition_bound,
    condition_bound,
    solve_by_components,
    square_components,
)
from hopftwist.core import ScalarContext, convolution_matrix, freeze
from hopftwist.errors import DimensionMismatch, NotConvolutionInvertible


def _hosts():
    s3 = symmetric_group_3()
    k4 = klein_four_group()
    return [function_algebra(s3), group_algebra(s3), function_algebra(k4), group_algebra(k4)]


def test_axioms_pass_on_group_constructions(ctx):
    for host in _hosts():
        report = verify_hopf_axioms(host, ctx)
        assert report.passed, report.failing()
        assert report.max_residual <= 1e-12


def test_axiom_report_names_are_unique(ctx):
    report = verify_hopf_axioms(_hosts()[0], ctx)
    names = [name for name, _ in report.checks]
    assert len(names) == len(set(names))
    assert "associativity" in names
    assert "antipode-law" in names


def test_axiom_check_at_dimension_32_holds_under_two_n4_arrays(ctx):
    host = function_algebra(dihedral_group(16))
    n = host.dim
    assert n == 32
    tracemalloc.start()
    try:
        report = verify_hopf_axioms(host, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 * n**4 * 16  # 32 MB of complex128


def test_axiom_check_at_dimension_64_holds_under_64_mib(ctx):
    # the three n^4-entry identities are summed over nonzero terms, so no
    # n^4-entry array (256 MiB of complex128 here) is ever formed
    host = function_algebra(dihedral_group(32))
    assert host.dim == 64
    tracemalloc.start()
    try:
        report = verify_hopf_axioms(host, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 2**20


def test_axiom_residuals_keep_a_nan_on_the_last_basis_element(ctx):
    host = function_algebra(dihedral_group(4))
    mul, comul = np.array(host.mul), np.array(host.comul)
    mul[-1, 0, 1] = comul[-1, 0, 1] = np.nan
    report = verify_hopf_axioms(dataclasses.replace(host, mul=mul, comul=comul), ctx)
    assert not report.passed
    for check in ("associativity", "coassociativity", "coproduct-multiplicative"):
        assert np.isnan(report.residual(check)), check


def test_axiom_residuals_fail_on_an_inf_on_the_last_basis_element(ctx):
    host = function_algebra(dihedral_group(4))
    mul, comul = np.array(host.mul), np.array(host.comul)
    mul[-1, 0, 1] = comul[-1, 0, 1] = np.inf
    report = verify_hopf_axioms(dataclasses.replace(host, mul=mul, comul=comul), ctx)
    assert not report.passed
    for check in ("associativity", "coassociativity", "coproduct-multiplicative"):
        residual = report.residual(check)
        assert not np.isfinite(residual) or residual > ctx.tolerance, check


def test_failing_names_the_checks_a_nan_keeps_from_passing(ctx):
    host = group_algebra(cyclic_group(4))
    mul = np.array(host.mul)
    mul[1, 0, 0] = np.nan
    report = verify_hopf_axioms(dataclasses.replace(host, mul=mul), ctx)
    assert not report.passed
    failing = report.failing()
    assert "associativity" in failing
    for name, residual in report.checks:
        assert (name in failing) == (not residual <= report.tolerance), name


def test_tensors_are_frozen():
    host = function_algebra(symmetric_group_3())
    with pytest.raises(ValueError):
        host.mul[0, 0, 0] = 5.0


def test_freeze_rejects_nothing_but_writes():
    arr = freeze(np.eye(2))
    assert arr.dtype == np.complex128
    with pytest.raises(ValueError):
        arr[0, 0] = 2.0


def test_product_and_coproduct_helpers():
    host = group_algebra(klein_four_group())
    x = np.zeros(4, dtype=np.complex128)
    x[1] = 1.0
    y = np.zeros(4, dtype=np.complex128)
    y[2] = 1.0
    prod = host.product(x, y)
    # group elements multiply to group elements
    assert np.abs(prod.sum() - 1.0) < 1e-12
    assert np.abs(prod.imag).max() < 1e-12
    two = iterated_coproduct(host, 2)
    direct = np.einsum("iab,bcd->iacd", host.comul, host.comul)
    assert np.abs(two - direct).max() < 1e-12


def test_iterated_coproduct_rejects_zero():
    host = group_algebra(klein_four_group())
    with pytest.raises(DimensionMismatch):
        iterated_coproduct(host, 0)


def test_counit_is_convolution_identity(ctx):
    for host in _hosts():
        eps = DualFunctional(host, host.counit)
        for k in range(host.dim):
            phi = DualFunctional(host, np.eye(host.dim)[k])
            left = convolve(eps, phi).coeffs
            right = convolve(phi, eps).coeffs
            assert np.abs(left - phi.coeffs).max() < 1e-12
            assert np.abs(right - phi.coeffs).max() < 1e-12


def test_dual_star_is_involutive(rng):
    for host in _hosts():
        coeffs = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
        phi = DualFunctional(host, coeffs)
        twice = dual_star(dual_star(phi)).coeffs
        assert np.abs(twice - phi.coeffs).max() < 1e-10


def test_dual_star_is_convolution_antihomomorphism(rng):
    for host in _hosts():
        a = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
        b = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
        lhs = dual_star(convolve(a, b)).coeffs
        rhs = convolve(dual_star(b), dual_star(a)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10


def test_convolution_inverse_of_counit_perturbation(ctx, rng):
    host = function_algebra(symmetric_group_3())
    phi = DualFunctional(host, host.counit + 0.2 * rng.normal(size=host.dim))
    inv = convolution_inverse(phi, ctx)
    unit = convolve(phi, inv).coeffs
    assert np.abs(unit - host.counit).max() < 1e-9


def test_convolution_inverse_rejects_singular(ctx):
    host = function_algebra(symmetric_group_3())
    with pytest.raises(NotConvolutionInvertible):
        convolution_inverse(DualFunctional(host, np.zeros(host.dim)), ctx)


def test_convolution_matrix_agrees_with_convolve(rng):
    host = group_algebra(symmetric_group_3())
    a = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
    b = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
    via_matrix = convolution_matrix(host, a) @ b
    direct = convolve(DualFunctional(host, a), DualFunctional(host, b)).coeffs
    assert np.abs(via_matrix - direct).max() < 1e-12


def test_scalar_context_validation():
    for tolerance in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(DimensionMismatch):
            ScalarContext(tolerance=tolerance)
    ctx = ScalarContext(tolerance=1e-9, seed=3)
    r1 = ctx.rng().normal(size=4)
    r2 = ctx.rng().normal(size=4)
    assert np.array_equal(r1, r2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_convolution_is_associative_on_basis_functionals(i, j):
    host = group_algebra(symmetric_group_3())
    eye = np.eye(host.dim)
    a = DualFunctional(host, eye[i])
    b = DualFunctional(host, eye[j])
    c = DualFunctional(host, eye[(i + j) % host.dim])
    lhs = convolve(convolve(a, b), c).coeffs
    rhs = convolve(a, convolve(b, c)).coeffs
    assert np.abs(lhs - rhs).max() < 1e-12


# --- the condition check of convolution_inverse against the literal SVD rule ---

TOLERANCES = (1e-3, 1e-9, 1e-12)


def _svd_rule(lmat, tol):
    s = np.linalg.svd(lmat, compute_uv=False)
    return bool(s[-1] > 0 and s[0] / s[-1] <= 1.0 / tol)


def _inverse_accepts(phi, ctx):
    """False exactly when the condition check rejects the operator; a later
    residual failure means the check itself accepted."""
    try:
        convolution_inverse(phi, ctx)
    except NotConvolutionInvertible as exc:
        if "condition number" in str(exc):
            return False
    return True


def _no_svd(*args, **kwargs):
    raise AssertionError("the exact SVD rule ran")


def _diagonal_functional(host, rng, smallest):
    """phi on a group algebra, where the operator is diag(phi): all |phi| = 1
    but one entry of modulus smallest, so cond2 = 1/smallest exactly."""
    mod = np.ones(host.dim)
    mod[3] = smallest
    return DualFunctional(host, mod * np.exp(2j * np.pi * rng.random(host.dim)))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_certifies_catalog_functionals_without_svd(ctx, tol, monkeypatch):
    strict = ScalarContext(tolerance=tol, seed=ctx.seed)
    pairs = []
    for name in catalog.cocycle_names():
        sigma = catalog.cocycle(name, ctx)
        pairs += [w_functional(sigma, ctx), v_functional(sigma, ctx)]
    for phi, _ in pairs:
        assert _svd_rule(convolution_matrix(phi.host, phi.coeffs), tol)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    for phi, want in pairs:
        assert np.abs(convolution_inverse(phi, strict).coeffs - want.coeffs).max() <= 1e-12


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_falls_back_to_svd_below_the_limit(tol, rng, svd_calls):
    host = group_algebra(dihedral_group(4))
    phi = _diagonal_functional(host, rng, 2.0 * tol)
    assert (1.0 / tol) / host.dim < 0.5 / tol < 1.0 / tol
    inv = convolution_inverse(phi, ScalarContext(tolerance=tol))
    assert (host.dim, host.dim) in svd_calls
    assert _svd_rule(convolution_matrix(host, phi.coeffs), tol)
    assert np.abs(inv.coeffs * phi.coeffs - 1.0).max() <= 1e-12


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_rejects_above_the_limit(tol, rng):
    host = group_algebra(dihedral_group(4))
    phi = _diagonal_functional(host, rng, 0.5 * tol)
    assert not _svd_rule(convolution_matrix(host, phi.coeffs), tol)
    with pytest.raises(NotConvolutionInvertible, match="condition number"):
        convolution_inverse(phi, ScalarContext(tolerance=tol))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_rejects_exactly_singular_functionals(tol, rng):
    ctx = ScalarContext(tolerance=tol)
    singular = (
        _diagonal_functional(group_algebra(dihedral_group(4)), rng, 0.0),
        DualFunctional(function_algebra(symmetric_group_3()), np.zeros(6)),
    )
    for phi in singular:
        assert not _svd_rule(convolution_matrix(phi.host, phi.coeffs), tol)
        with pytest.raises(NotConvolutionInvertible, match="condition number"):
            convolution_inverse(phi, ctx)


def test_convolution_inverse_verdict_matches_the_svd_rule_on_random_hosts(rng):
    n = 5
    for _ in range(6):
        comul = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        host = FiniteHopfStarAlgebra(
            dim=n,
            basis_labels=tuple(str(i) for i in range(n)),
            mul=comul.transpose(1, 2, 0),
            unit=rng.normal(size=n),
            comul=comul,
            counit=rng.normal(size=n) + 1j * rng.normal(size=n),
            antipode=np.eye(n),
            antipode_inv=np.eye(n),
            star=np.eye(n),
        )
        phi = DualFunctional(host, rng.normal(size=n) + 1j * rng.normal(size=n))
        lmat = convolution_matrix(host, phi.coeffs)
        s = np.linalg.svd(lmat, compute_uv=False)
        cond = s[0] / s[-1]
        for tol in TOLERANCES + ((1.0 - 1e-6) / cond, (1.0 + 1e-6) / cond):
            ctx = ScalarContext(tolerance=tol)
            assert _inverse_accepts(phi, ctx) == _svd_rule(lmat, tol), (cond, tol)


@pytest.mark.parametrize("width", (1, 3, 16))
@pytest.mark.parametrize("imag_scale", (1.0, 1e-17, 0.0))
def test_condition_bound_never_undercuts_the_condition_number(rng, width, imag_scale):
    m = 16
    for _ in range(5):
        lmat = rng.normal(size=(m, m)) + imag_scale * 1j * rng.normal(size=(m, m))
        approx = np.linalg.inv(lmat) * (1.0 + 1e-6 * rng.normal(size=(m, m)))
        blocks = [approx[:, c:c + width] for c in range(0, m, width)]
        bound = condition_bound(lmat, blocks)
        cond = np.linalg.cond(lmat)
        assert cond <= bound < m * cond
        assert np.isclose(bound, condition_bound(lmat, [approx]), rtol=1e-9)
    assert condition_bound(lmat, [np.zeros((m, m))]) == np.inf
    with pytest.raises(ValueError):
        condition_bound(lmat, [approx[:, :-1]])


def test_condition_bound_widens_by_the_residual_and_gives_up_at_one_half():
    lmat = np.diag([1.0, 1e-3]).astype(np.complex128)
    inv = np.diag([1.0, 1e3])
    # M = t lmat^-1 leaves E = (t - 1) I, so ||E||_F = |t - 1| sqrt(2)
    assert condition_bound(lmat, [0.7 * inv]) >= 1e3
    assert condition_bound(lmat, [0.6 * inv]) == np.inf


def _permuted_blocks(rng, sizes, scale=1.0):
    """A random operator that is a row and column permutation of a
    block-diagonal matrix with complex blocks of the given sizes; the last
    block is scaled by scale."""
    m = sum(sizes)
    dense = np.zeros((m, m), dtype=np.complex128)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        dense[block, block] = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        start += size
    dense[block, block] *= scale
    return dense[rng.permutation(m)][:, rng.permutation(m)]


def _components(lmat):
    return square_components(*np.nonzero(lmat), lmat.shape[0])


def _entries(lmat):
    """(keys, values) of the nonzero entries of a dense matrix."""
    keys = np.flatnonzero(lmat)
    return keys, lmat.reshape(-1)[keys]


def test_square_components_recover_a_permuted_block_diagonal(rng):
    sizes = (1, 3, 3, 5, 1, 3)
    lmat = _permuted_blocks(rng, sizes)
    groups = _components(lmat)
    assert [(rows.shape, cols.shape) for rows, cols in groups] == [
        ((2, 1), (2, 1)), ((3, 3), (3, 3)), ((1, 5), (1, 5))
    ]
    seen_rows = np.concatenate([rows.ravel() for rows, _ in groups])
    seen_cols = np.concatenate([cols.ravel() for _, cols in groups])
    assert sorted(seen_rows) == sorted(seen_cols) == list(range(lmat.shape[0]))
    for rows, cols in groups:
        for r, c in zip(rows, cols):
            inside = lmat[np.ix_(r, c)]
            assert np.all(inside != 0)
            assert not np.delete(lmat[r], c, axis=1).any()
    # a dense matrix is one component; a zero row or a 2x1 component is not square
    assert len(_components(np.ones((4, 4)))) == 1
    assert _components(np.diag([1.0, 0.0, 2.0])) is None
    assert _components(np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 1.0]])) is None


def test_block_condition_bound_never_undercuts_the_condition_number(rng):
    for scale in (1.0, 1e-4):
        lmat = _permuted_blocks(rng, (2, 2, 4, 1), scale)
        m = lmat.shape[0]
        blocks = [(r, c, lmat[r[:, :, None], c[:, None, :]]) for r, c in _components(lmat)]
        approx = np.linalg.inv(lmat) * (1.0 + 1e-6 * rng.normal(size=(m, m)))
        # M_b = M[cols][:, rows] for each block
        inverse_blocks = [approx[c[:, :, None], r[:, None, :]] for r, c, _ in blocks]
        bound = block_condition_bound(blocks, inverse_blocks)
        cond = np.linalg.cond(lmat)
        assert cond <= bound < m * cond
    assert block_condition_bound(blocks, [np.zeros_like(mb) for mb in inverse_blocks]) == np.inf
    with pytest.raises(ValueError):
        block_condition_bound(blocks, [mb[:, :, :-1] for mb in inverse_blocks])


def test_split_solve_verdict_matches_the_svd_rule(rng, svd_calls):
    for _ in range(4):
        lmat = _permuted_blocks(rng, (3, 1, 3, 2), 1e-3)
        m = lmat.shape[0]
        rhs = np.zeros(m, dtype=np.complex128)
        rhs[rng.integers(m)] = 1.0
        s = np.linalg.svd(lmat, compute_uv=False)
        cond = s[0] / s[-1]
        # an exact inverse, as the convolution of the solution is on a coassociative host
        inverse = np.linalg.inv(lmat)
        for limit in (10.0 * cond, (1.0 + 1e-6) * cond, (1.0 - 1e-6) * cond, 0.1 * cond):
            del svd_calls[:]
            y = solve_by_components(
                _entries(lmat), rhs, limit, lambda y: _entries(inverse), lambda: lmat
            )
            assert (y is not None) == (cond <= limit), (cond, limit)
            if y is not None:
                assert np.abs(lmat @ y - rhs).max() <= 1e-9
            if limit == 10.0 * cond:
                # blocks of size <= 3 keep the bound within 3 cond: no SVD
                assert svd_calls == []
