import dataclasses

import numpy as np
import pytest

from hopftwist import (
    ScalarContext,
    catalog,
    cyclic_group,
    decompose,
    dihedral_group,
    direct_product,
    from_bicharacter,
    function_algebra,
    group_algebra,
    haar_state,
    induce,
    klein_four_group,
    twist_algebra,
)
from hopftwist._linalg import nullspace
from hopftwist.core import DualFunctional, convolve, convolve_coeffs, dual_star_matrix_apply
from hopftwist.errors import DecompositionError, NotErgodic
from hopftwist.peterweyl import (
    PeterWeylData,
    _eigen_split,
    _matrix_unit_residual,
    _validate,
    gram_matrix,
    haar_invariance_residual,
)

HOSTS = catalog.host_names()


@pytest.mark.parametrize("name", HOSTS)
def test_haar_state_is_invariant_and_unital(name, ctx):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    assert haar_invariance_residual(h) <= 1e-10
    assert abs(h(host.unit) - 1.0) <= 1e-10


@pytest.mark.parametrize("name", HOSTS)
def test_haar_state_is_positive_and_faithful(name, ctx):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    gram = gram_matrix(host, h)
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    assert eigs[0] > 1e-10


@pytest.mark.parametrize("name", HOSTS)
def test_haar_state_is_idempotent_under_convolution(name, ctx):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    assert isinstance(h, DualFunctional)
    again = convolve(h, h).coeffs
    assert np.abs(again - h.coeffs).max() <= 1e-10


@pytest.mark.parametrize("name", HOSTS)
def test_haar_absorbs_any_functional(name, ctx, rng):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    phi = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    scale = complex(np.dot(phi.coeffs, host.unit))
    left = convolve(phi, h).coeffs
    right = convolve(h, phi).coeffs
    assert np.abs(left - scale * h.coeffs).max() <= 1e-9
    assert np.abs(right - scale * h.coeffs).max() <= 1e-9


def _reference_haar_coeffs(a):
    """The Haar state as the kernel of the two-sided invariance system,
    built entry by entry, normalized at the unit."""
    n = a.dim
    m1 = a.comul.reshape(n * n, n).copy()
    m2 = a.comul.transpose(0, 2, 1).reshape(n * n, n).copy()
    for i in range(n):
        for j in range(n):
            m1[i * n + j, i] -= a.unit[j]
            m2[i * n + j, i] -= a.unit[j]
    h = nullspace(np.vstack([m1, m2]))[:, 0]
    return h / complex(np.dot(h, a.unit))


@pytest.mark.parametrize("name", ("c-s3", "c-d4", "g-d4", "g-z4z4"))
def test_haar_state_equals_the_entrywise_system_solve(name, ctx):
    # the trace Tr(L_a) / n and the kernel from an SVD agree up to rounding:
    # a few units of u = 2^-53 ~ 1.1e-16 on entries of size at most 1
    host = catalog.algebra(name)
    got = haar_state(host, ctx).coeffs
    assert np.abs(got - _reference_haar_coeffs(host)).max() <= 1e-15


def test_eigen_split_cuts_at_the_widest_gaps_or_into_equal_runs():
    m = np.diag([3.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 3.0, 3.0]).astype(complex)
    assert [g.shape[1] for g in _eigen_split(m, 3)] == [2, 4, 3]
    assert [g.shape[1] for g in _eigen_split(np.diag([2.0, 0.0, 0.0, 2.0]), 2, 2)] == [2, 2]
    groups = _eigen_split(m, 3)
    assert np.allclose(sum(g @ g.conj().T for g in groups), np.eye(9))


def test_eigen_split_rejects_a_cut_not_clear_of_the_groups():
    # a cut inside rounding of the spectrum
    with pytest.raises(DecompositionError, match="does not split"):
        _eigen_split(np.diag([0.0, 1e-12, 1.0, 2.0]), 4)
    # runs of two whose spread is not small against the cut between them
    with pytest.raises(DecompositionError, match="does not split"):
        _eigen_split(np.diag([0.0, 1e-3, 1.0, 1.0]), 2, 2)
    with pytest.raises(DecompositionError, match="not Hermitian"):
        _eigen_split(np.array([[0.0, 1.0], [0.0, 1.0]]), 2)


def test_s3_function_algebra_block_pattern(ctx):
    host = catalog.algebra("c-s3")
    pw = decompose(host, haar_state(host, ctx), ctx)
    assert sorted(pw.dimensions) == [1, 1, 2]
    assert sum(d * d for d in pw.dimensions) == host.dim


def test_function_algebra_blocks_match_irreps_of_the_group(ctx):
    host = catalog.algebra("c-d4")
    pw = decompose(host, haar_state(host, ctx), ctx)
    assert sorted(pw.dimensions) == [1, 1, 1, 1, 2]


def test_group_algebra_blocks_are_lines(ctx):
    for name in ("g-z2", "g-z2z2", "g-d4", "g-z4z4"):
        host = catalog.algebra(name)
        pw = decompose(host, haar_state(host, ctx), ctx)
        assert pw.dimensions == (1,) * host.dim


@pytest.mark.parametrize("name", ("c-s3", "c-d4", "g-d4"))
def test_dual_matrix_units_multiply_under_convolution(name, ctx):
    host = catalog.algebra(name)
    pw = decompose(host, haar_state(host, ctx), ctx)
    for b in pw.blocks:
        d = b.dimension
        units = [
            [DualFunctional(host, b.matrix_units[i, j]) for j in range(d)]
            for i in range(d)
        ]
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        prod = convolve(units[i][j], units[k][l]).coeffs
                        want = b.matrix_units[i, l] if j == k else 0.0
                        assert np.abs(prod - want).max() <= 1e-9


@pytest.mark.parametrize("name", ("c-s3", "g-d4"))
def test_central_idempotents_sum_to_the_dual_unit(name, ctx):
    host = catalog.algebra(name)
    pw = decompose(host, haar_state(host, ctx), ctx)
    total = sum(b.central_idempotent for b in pw.blocks)
    assert np.abs(total - host.counit).max() <= 1e-9


@pytest.mark.parametrize("name", ("c-s3", "c-d4"))
def test_kac_orthogonality_pattern(name, ctx):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    pw = decompose(host, h, ctx)
    for b in pw.blocks:
        d = b.dimension
        assert np.abs(b.f_matrix - np.eye(d)).max() <= 1e-9
        assert abs(b.m_value - d) <= 1e-9
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        val = h(host.product(b.q[i, j], host.star_of(b.q[k, l])))
                        want = (1.0 if (i == k and j == l) else 0.0) / d
                        assert abs(val - want) <= 1e-9


def test_validation_rejects_coefficients_shared_across_blocks(ctx):
    host = catalog.algebra("c-s3")
    pw = decompose(host, haar_state(host, ctx), ctx)
    _validate(pw, ctx)
    # leak a little of the last block's first coefficient into the first block
    first, last = pw.blocks[0], pw.blocks[-1]
    leaked = dataclasses.replace(first, q=first.q + 1e-6 * last.q[0, 0])
    bad = PeterWeylData(host=host, haar=pw.haar, blocks=(leaked,) + pw.blocks[1:])
    with pytest.raises(DecompositionError, match="orthogonality validation"):
        _validate(bad, ctx)


@pytest.mark.parametrize("name", ("c-s3", "g-d4"))
def test_rho_functionals_are_biorthogonal(name, ctx):
    host = catalog.algebra(name)
    pw = decompose(host, haar_state(host, ctx), ctx)
    # rho[p, r] of a block, its matrix unit, is 1 on the block's own q[p, r]
    # and 0 on every other coefficient of every block
    rho = np.concatenate([b.matrix_units.reshape(-1, host.dim) for b in pw.blocks])
    q = np.concatenate([b.q.reshape(-1, host.dim) for b in pw.blocks])
    assert np.abs(rho @ q.T - np.eye(host.dim)).max() <= ctx.tolerance


def test_exactly_one_trivial_block(ctx):
    for name in HOSTS:
        host = catalog.algebra(name)
        pw = decompose(host, haar_state(host, ctx), ctx)
        assert sum(1 for b in pw.blocks if b.is_trivial) == 1


def test_haar_rejects_unitless_tensors(ctx):
    host = catalog.algebra("c-s3")
    broken = type(host)(
        dim=host.dim,
        basis_labels=host.basis_labels,
        mul=host.mul,
        unit=np.zeros(host.dim),
        comul=host.comul,
        counit=host.counit,
        antipode=host.antipode,
        antipode_inv=host.antipode_inv,
        star=host.star,
    )
    with pytest.raises(NotErgodic):
        haar_state(broken, ctx)


def _reference_matrix_unit_residual(host, units):
    d = units.shape[0]
    resid = 0.0
    for p in range(d):
        for q in range(d):
            star = dual_star_matrix_apply(host, units[p, q])
            resid = max(resid, np.abs(star - units[q, p]).max())
            for r in range(d):
                for s in range(d):
                    prod = convolve_coeffs(host, units[p, q], units[r, s])
                    want = units[p, s] if q == r else 0.0
                    resid = max(resid, np.abs(prod - want).max())
    return resid


@pytest.mark.parametrize("name", ("c-s3", "c-d4"))
def test_stacked_matrix_unit_residual_equals_the_pairwise_loop(name, ctx, rng):
    host = catalog.algebra(name)
    for b in decompose(host, haar_state(host, ctx), ctx).blocks:
        noisy = b.matrix_units + 1e-3 * rng.normal(size=b.matrix_units.shape)
        for units in (b.matrix_units, noisy):
            want = _reference_matrix_unit_residual(host, units)
            assert abs(_matrix_unit_residual(host, units) - want) <= 1e-15 + 1e-12 * want


# ------------------------------------------------------------- seed sweep
# Block dimensions from the group alone: the irreducible dimensions of G for
# C(G), all ones for G(G), and for a dual-cocycle twist those of the
# untwisted host, since the twist keeps the coproduct.


def _z2_power(k):
    group = cyclic_group(2)
    for _ in range(k - 1):
        group = direct_product(group, cyclic_group(2))
    return group


def _dihedral_irrep_dims(m):
    ones = 4 if m % 2 == 0 else 2
    return [1] * ones + [2] * ((2 * m - ones) // 4)


def _klein_induced(m):
    """C(D_m) twisted by the Klein bicharacter pulled back along the
    restriction to {e, r^(m/2), s, r^(m/2) s}."""
    group, klein = dihedral_group(m), klein_four_group()
    host, c_klein = function_algebra(group), function_algebra(klein)
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    table = np.array([[(-1.0 + 0j) ** (g[1] * h[0]) for h in bits] for g in bits])
    sigma = catalog.fourier_transport(klein, table, c_klein)
    mor = catalog.restriction_morphism(
        group, (0, m // 2, m, m + m // 2), source=host, target=c_klein
    )
    return twist_algebra(host, induce(sigma, mor)).twisted


def _z4z4_twisted(kind):
    group = direct_product(cyclic_group(4), cyclic_group(4))
    pairs = [(a, b) for a in range(4) for b in range(4)]
    table = np.array([[1j ** (g[1] * h[0]) for h in pairs] for g in pairs])
    if kind == "function":
        host = function_algebra(group)
        sigma = catalog.fourier_transport(group, table, host)
    else:
        host = group_algebra(group)
        sigma = from_bicharacter(group, table, host=host)
    return twist_algebra(host, sigma).twisted


def _sweep_hosts():
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    hosts = {}
    for n in (4, 8, 16, 32):
        hosts[f"C(Z{n})"] = (lambda n=n: function_algebra(cyclic_group(n)), [1] * n)
        hosts[f"G(Z{n})"] = (lambda n=n: group_algebra(cyclic_group(n)), [1] * n)
    hosts["C(Z2^5)"] = (lambda: function_algebra(_z2_power(5)), [1] * 32)
    hosts["C(Z4xZ4)"] = (lambda: function_algebra(z4z4), [1] * 16)
    hosts["G(Z4xZ4)"] = (lambda: group_algebra(z4z4), [1] * 16)
    for m in (3, 4, 5, 6, 8, 12, 16):
        group = dihedral_group(m)
        hosts[f"C(D{m})"] = (lambda g=group: function_algebra(g), _dihedral_irrep_dims(m))
        hosts[f"G(D{m})"] = (lambda g=group: group_algebra(g), [1] * (2 * m))
    for m in (4, 8, 16):
        hosts[f"C(D{m}) twisted"] = (lambda m=m: _klein_induced(m), _dihedral_irrep_dims(m))
    hosts["C(Z4xZ4) twisted"] = (lambda: _z4z4_twisted("function"), [1] * 16)
    hosts["G(Z4xZ4) twisted"] = (lambda: _z4z4_twisted("group"), [1] * 16)
    return hosts


SWEEP_HOSTS = _sweep_hosts()
SWEEP_SEEDS = range(20)


@pytest.mark.parametrize("name", SWEEP_HOSTS)
def test_every_host_decomposes_on_every_seed_into_its_group_blocks(name):
    build, want = SWEEP_HOSTS[name]
    host = build()
    h = haar_state(host)
    for seed in SWEEP_SEEDS:
        pw = decompose(host, h, ScalarContext(seed=seed))
        assert sorted(pw.dimensions) == sorted(want), (name, seed)


def test_dimension_64_host_decomposes():
    group = dihedral_group(32)
    host = function_algebra(group)
    pw = decompose(host, haar_state(host), ScalarContext(seed=3))
    assert sorted(pw.dimensions) == _dihedral_irrep_dims(32)
