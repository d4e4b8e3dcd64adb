import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopftwist import (
    DualFunctional,
    catalog,
    convolution_inverse,
    cyclic_group,
    dihedral_group,
    dual,
    function_algebra,
    group_algebra,
    klein_four_group,
    symmetric_group_3,
    twist_algebra,
    v_functional,
    verify_hopf_axioms,
    w_functional,
)
from hopftwist._linalg import Terms
from hopftwist.core import AxiomReport, ScalarContext, freeze
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


def _checked_with_peak(host, ctx):
    tracemalloc.start()
    try:
        report = verify_hopf_axioms(host, ctx)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_axiom_check_at_dimension_32_holds_under_two_n4_arrays(ctx):
    host = function_algebra(dihedral_group(16))
    n = host.dim
    assert n == 32
    report, peak = _checked_with_peak(host, ctx)
    assert report.passed
    assert peak < 2 * n**4 * 16  # 32 MB of complex128


def test_axiom_check_at_dimension_64_holds_under_4_mib(ctx):
    # every identity with n^3 or n^4 entries is summed over nonzero terms, a
    # run of leading indices at a time under one budget of terms, so neither
    # an n^4-entry array (256 MiB of complex128 here) nor an n^3-entry one
    # (4 MiB) is formed; the check peaks at about 2.4 MiB
    host = function_algebra(dihedral_group(32))
    assert host.dim == 64
    report, peak = _checked_with_peak(host, ctx)
    assert report.passed
    assert peak < 4 * 2**20


def test_axiom_check_reads_a_duals_transposed_tensors_in_place(ctx, monkeypatch):
    # dual(H)'s tensors are transposed views of H's; a.take(keys) copied each
    # whole to read its terms, so at n = 64 the check on dual(C(D32)) peaked
    # at 4.1 MiB against 2.6 MiB for the C-ordered G(D32)
    host = dual(function_algebra(dihedral_group(32)))
    assert host.dim == 64 and not host.mul.flags.c_contiguous
    report, peak = _checked_with_peak(host, ctx)
    _, group_peak = _checked_with_peak(group_algebra(dihedral_group(32)), ctx)
    assert report.passed
    assert peak <= 1.25 * group_peak, (peak, group_peak)

    def taking(cls, a):  # the reader that copies a strided array
        keys = np.flatnonzero(a != 0)
        return cls(a.shape, keys, a.take(keys), a)

    rng = np.random.default_rng(7)
    strided = (rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8)))
    strided = strided.transpose(1, 2, 0)[:, ::2]
    assert np.array_equal(Terms.of(strided).values, taking(Terms, strided).values)
    monkeypatch.setattr(Terms, "of", classmethod(taking))
    assert verify_hopf_axioms(host, ctx).checks == report.checks


def test_freeze_shares_a_frozen_array_and_copies_a_writeable_one():
    mine = np.arange(4, dtype=np.complex128)
    frozen = freeze(mine)
    assert frozen is not mine and not frozen.flags.writeable
    mine[0] = 9.0  # the caller's own array changes, the frozen copy does not
    assert frozen[0] == 0
    assert freeze(frozen) is frozen
    # a read-only view of a writeable array can still change, so it is copied
    view = mine[:]
    view.flags.writeable = False
    assert freeze(view) is not view
    # so are real arrays, and a copy is C-contiguous
    assert freeze(np.arange(4.0)).dtype == np.complex128
    assert freeze(np.arange(8, dtype=np.complex128)[::2]).flags.c_contiguous
    # a read-only view of frozen memory is shared even where it is not
    # C-contiguous, as the transposes that make up a dual are
    strided = freeze(np.arange(8, dtype=np.complex128))[::2]
    assert freeze(strided) is strided


def test_a_twisted_algebra_shares_its_hosts_coalgebra(ctx):
    host = catalog.algebra("c-d4")
    tw = twist_algebra(host, catalog.cocycle("klein-induced", ctx), ctx).twisted
    assert tw.comul is host.comul and tw.unit is host.unit and tw.counit is host.counit
    assert tw.antipode_inv is tw.antipode


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


def test_require_returns_a_passing_report_and_raises_on_a_failing_one():
    passing = AxiomReport("ok", (("a", 0.0), ("b", 1e-12)), tolerance=1e-9)
    assert passing.require(NotConvolutionInvertible, "never raised") is passing
    failing = AxiomReport(
        "bad", (("first", 1.0), ("fine", 0.0), ("nan", math.nan), ("last", 2e-9)), tolerance=1e-9
    )
    with pytest.raises(DimensionMismatch) as raised:
        failing.require(DimensionMismatch, "host fails checks")
    assert str(raised.value) == "host fails checks: first, nan, last"


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


def test_counit_is_convolution_identity(ctx):
    for host in _hosts():
        hat = dual(host)
        eps = DualFunctional(host, host.counit)
        for k in range(host.dim):
            phi = DualFunctional(host, np.eye(host.dim)[k])
            left = hat.product(eps.coeffs, phi.coeffs)
            right = hat.product(phi.coeffs, eps.coeffs)
            assert np.abs(left - phi.coeffs).max() < 1e-12
            assert np.abs(right - phi.coeffs).max() < 1e-12


def test_dual_star_is_involutive(rng):
    for host in _hosts():
        coeffs = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
        phi = DualFunctional(host, coeffs)
        hat = dual(host)
        twice = hat.star_of(hat.star_of(phi.coeffs))
        assert np.abs(twice - phi.coeffs).max() < 1e-10


def test_dual_star_is_convolution_antihomomorphism(rng):
    for host in _hosts():
        hat = dual(host)
        a = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
        b = rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim)
        lhs = hat.star_of(hat.product(a, b))
        rhs = hat.product(hat.star_of(b), hat.star_of(a))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_convolution_inverse_of_counit_perturbation(ctx, rng):
    # exp(iK) for a small self-adjoint K in the convolution algebra, whose
    # unit is the counit, summed as a power series: a unitary functional
    host = function_algebra(symmetric_group_3())
    hat = dual(host)
    z = 0.2 * (rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    ik = 0.5j * (z + hat.star_of(z))
    term = phi = hat.unit
    for m in range(1, 30):
        term = hat.product(term, ik) / m
        phi = phi + term
    inv = convolution_inverse(DualFunctional(host, phi), ctx)
    unit = hat.product(phi, inv.coeffs)
    assert np.abs(unit - host.counit).max() < 1e-9


def test_convolution_inverse_rejects_singular(ctx):
    host = function_algebra(symmetric_group_3())
    with pytest.raises(NotConvolutionInvertible):
        convolution_inverse(DualFunctional(host, np.zeros(host.dim)), ctx)


def test_scalar_context_validation():
    for tolerance in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(DimensionMismatch):
            ScalarContext(tolerance=tolerance)
    # random.Random would take a negative seed as its absolute value
    with pytest.raises(DimensionMismatch, match="seed"):
        ScalarContext(seed=-1)
    # Python's random() stream for a given seed is fixed across versions
    assert ScalarContext(seed=0).rng().random() == random.Random(0).random() == 0.8444218515250481
    ctx = ScalarContext(tolerance=1e-9, seed=3)
    r1, r2 = ctx.rng(), ctx.rng()
    assert [r1.random() for _ in range(4)] == [r2.random() for _ in range(4)]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_convolution_is_associative_on_basis_functionals(i, j):
    hat = dual(group_algebra(symmetric_group_3()))
    eye = np.eye(hat.dim)
    a, b, c = eye[i], eye[j], eye[(i + j) % hat.dim]
    lhs = hat.product(hat.product(a, b), c)
    rhs = hat.product(a, hat.product(b, c))
    assert np.abs(lhs - rhs).max() < 1e-12


# --- the closed-form inverse phi^-1 = phi* ----------------------------------------

TOLERANCES = (1e-3, 1e-9, 1e-12)


def test_convolution_inverse_rejects_a_functional_that_is_not_unitary(ctx):
    # phi = 2 counit is invertible, with inverse counit / 2, but not unitary
    host = function_algebra(symmetric_group_3())
    with pytest.raises(NotConvolutionInvertible, match="not unitary"):
        convolution_inverse(DualFunctional(host, 2.0 * host.counit), ctx)


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_certifies_catalog_functionals_without_svd(ctx, tol, svd_calls):
    """The inverse is the dual star, accepted by its two-sided residual at
    every tolerance, with no SVD."""
    strict = ScalarContext(tolerance=tol, seed=ctx.seed)
    pairs = []
    for name in catalog.cocycle_names():
        sigma = catalog.cocycle(name, ctx)
        pairs += [w_functional(sigma, ctx), v_functional(sigma, ctx)]
    del svd_calls[:]
    for phi, want in pairs:
        assert np.abs(convolution_inverse(phi, strict).coeffs - want.coeffs).max() <= 1e-12
    assert not svd_calls


@pytest.mark.parametrize("tol", TOLERANCES)
def test_convolution_inverse_rejects_exactly_singular_functionals(tol, rng):
    ctx = ScalarContext(tolerance=tol)
    # on a group algebra the convolution is entrywise, so a zero entry
    # makes the functional singular
    phases = np.exp(2j * np.pi * rng.random(8))
    phases[3] = 0.0
    singular = (
        DualFunctional(group_algebra(dihedral_group(4)), phases),
        DualFunctional(function_algebra(symmetric_group_3()), np.zeros(6)),
    )
    for phi in singular:
        with pytest.raises(NotConvolutionInvertible, match="not unitary"):
            convolution_inverse(phi, ctx)


# --- the dual Hopf *-algebra ------------------------------------------------------

FIELDS = ("mul", "unit", "comul", "counit", "antipode", "antipode_inv", "star")


def _same_bits(x, y):
    """Equal shapes and equal bytes in C order, so a -0.0 differs from 0.0."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _twisted_algebras(ctx):
    for host, name in catalog.cocycle_pairs():
        yield twist_algebra(catalog.algebra(host), catalog.cocycle(name, ctx), ctx).twisted


@pytest.mark.parametrize("name", catalog.host_names())
def test_the_dual_of_the_dual_is_the_algebra(name):
    host = catalog.algebra(name)
    again = dual(dual(host))
    assert again.basis_labels == host.basis_labels
    for field in FIELDS:
        assert _same_bits(getattr(again, field), getattr(host, field)), field


@pytest.mark.parametrize("group", ("1", "z2", "z3", "z4", "z2z2", "s3", "d4", "z4z4"))
def test_the_dual_of_a_function_algebra_is_the_group_algebra(group):
    data = catalog.group_data(group)
    got, want = dual(function_algebra(data)), group_algebra(data)
    for field in FIELDS:
        assert _same_bits(getattr(got, field), getattr(want, field)), field


def test_the_dual_passes_every_axiom_exactly(ctx):
    algebras = [catalog.algebra(name) for name in catalog.host_names()]
    for algebra in algebras + list(_twisted_algebras(ctx)):
        report = verify_hopf_axioms(dual(algebra), ctx)
        assert report.max_residual == 0.0, report.checks


def test_the_dual_product_and_star_match_their_formulas(ctx, rng):
    for algebra in (catalog.algebra("c-s3"), catalog.algebra("g-d4"), *_twisted_algebras(ctx)):
        hat, n = dual(algebra), algebra.dim
        phi, psi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        # (phi psi)(a) = phi(a_(1)) psi(a_(2)) and phi*(a) = conj(phi(kappa(a)*))
        want = np.einsum("ijk,j,k->i", algebra.comul, phi, psi)
        assert np.abs(hat.product(phi, psi) - want).max() <= 1e-12
        kappa_star = algebra.star @ np.conj(algebra.antipode)
        want_star = np.conj(np.einsum("ji,j->i", kappa_star, phi))
        assert np.abs(hat.star_of(phi) - want_star).max() <= 1e-12
        # stacks: the star of each row, and the products of the columns of x with psi
        stack = np.stack([phi, psi])
        assert np.abs(hat.star_of(stack)[0] - want_star).max() <= 1e-12
        assert np.abs(hat.product(stack.T, psi)[:, 0] - want).max() <= 1e-12


def test_the_dual_forms_no_n3_array():
    host = function_algebra(dihedral_group(64))
    tracemalloc.start()
    try:
        hat = dual(host)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.shares_memory(hat.mul, host.comul) and np.shares_memory(hat.comul, host.mul)
