import dataclasses
import math
import random
import tracemalloc

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
    peterweyl,
    symmetric_group_3,
    twist_algebra,
)
from hopftwist._linalg import nullspace, uniform
from hopftwist.core import DualFunctional, dual
from hopftwist.errors import DecompositionError, NotErgodic
from hopftwist.peterweyl import (
    PeterWeylData,
    _center,
    _eigen_split,
    _gns_frame,
    _matrix_unit_residual,
    _matrix_units,
    _split_center,
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
    again = dual(host).product(h.coeffs, h.coeffs)
    assert np.abs(again - h.coeffs).max() <= 1e-10


@pytest.mark.parametrize("name", HOSTS)
def test_haar_absorbs_any_functional(name, ctx, rng):
    host = catalog.algebra(name)
    h = haar_state(host, ctx)
    phi = DualFunctional(host, rng.normal(size=host.dim) + 1j * rng.normal(size=host.dim))
    scale = complex(np.dot(phi.coeffs, host.unit))
    hat = dual(host)
    left = hat.product(phi.coeffs, h.coeffs)
    right = hat.product(h.coeffs, phi.coeffs)
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
    vecs, bounds, errors = _eigen_split(m[None], 3)
    assert np.diff(bounds[0]).tolist() == [2, 4, 3] and errors == [None]
    assert np.allclose(vecs[0] @ vecs[0].conj().T, np.eye(9))
    _, bounds, _ = _eigen_split(np.diag([2.0, 0.0, 0.0, 2.0])[None], 2, 2)
    assert np.diff(bounds[0]).tolist() == [2, 2]


def test_eigen_split_rejects_a_cut_not_clear_of_the_groups():
    # a cut inside rounding of the spectrum
    _, _, errors = _eigen_split(np.diag([0.0, 1e-12, 1.0, 2.0])[None], 4)
    assert "does not split" in errors[0]
    # runs of two whose spread is not small against the cut between them,
    # in a stack with a matrix that splits
    stack = np.stack([np.diag([0.0, 1e-3, 1.0, 1.0]), np.diag([0.0, 0.0, 1.0, 1.0])])
    _, _, errors = _eigen_split(stack, 2, 2)
    assert "does not split" in errors[0] and errors[1] is None
    _, _, errors = _eigen_split(np.array([[[0.0, 1.0], [0.0, 1.0]]]), 2)
    assert "not Hermitian" in errors[0]


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
    hat = dual(host)
    pw = decompose(host, haar_state(host, ctx), ctx)
    for b in pw.blocks:
        d = b.dimension
        units = b.matrix_units
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        prod = hat.product(units[i, j], units[k, l])
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
    # phi*(e_i) = conj(phi(kappa(e_i)*)) and (phi psi)(e_i) = phi(e_i(1)) psi(e_i(2))
    d = units.shape[0]
    kappa_star = host.star @ np.conj(host.antipode)
    resid = 0.0
    for p in range(d):
        for q in range(d):
            star = np.conj(np.einsum("ji,j->i", kappa_star, units[p, q]))
            resid = max(resid, np.abs(star - units[q, p]).max())
            for r in range(d):
                for s in range(d):
                    prod = np.einsum("ijk,j,k->i", host.comul, units[p, q], units[r, s])
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
            got = _matrix_unit_residual(dual(host), units[None])[0]
            assert abs(got - want) <= 1e-15 + 1e-12 * want


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
    # two block dimensions above 1, so draws must keep the order of the
    # split across the stacks of each dimension
    s3 = symmetric_group_3()
    hosts["C(S3xS3)"] = (lambda: function_algebra(direct_product(s3, s3)), [1] * 4 + [2] * 4 + [4])
    hosts["C(D4xS3)"] = (
        lambda: function_algebra(direct_product(dihedral_group(4), s3)),
        [1] * 8 + [2] * 6 + [4],
    )
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


def test_warm_decomposition_at_dimension_128_peaks_under_8_mib():
    # each stack of blocks is sized by _linalg.batches, so at n = 128 a
    # batch holds one block
    host = function_algebra(dihedral_group(64))
    h = haar_state(host)
    decompose(host, h)  # finds the center of the dual, once per coproduct
    tracemalloc.start()
    try:
        pw = decompose(host, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(pw.dimensions) == _dihedral_irrep_dims(64)
    assert peak < 8 * 2**20


# ------------------------------------------------- block-at-a-time reference


def _reference_block_units(hat, frame, e_alpha, basis, rng):
    """The matrix units of one block, refined on their own from one draw of
    rng, with the phase of each isometry at the first entry whose modulus
    is within a relative 1e-8 of the largest."""
    n, d = hat.dim, math.isqrt(basis.shape[1])
    if d == 1:
        return e_alpha.reshape(1, 1, n)
    s, s_inv = frame
    r = uniform(rng, (n,), np.complex128)
    z = 0.5 * (r + hat.star_of(r))
    m = basis.conj().T @ (s @ hat.product(np.eye(n), z).T @ s_inv) @ basis
    _, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    projections = []
    for j in range(d):
        v = basis @ vecs[:, j * d : (j + 1) * d]
        projections.append((hat.unit @ s_inv @ v) @ (v.conj().T @ s))
    p0 = projections[0]
    isometries = [p0]
    for p in projections[1:]:
        w = hat.product(p0, hat.product(r, p))
        scale = np.vdot(p0, hat.product(w, hat.star_of(w))) / np.vdot(p0, p0)
        v = w / np.sqrt(scale.real)
        size = np.abs(v)
        pivot = int(np.argmax(size >= (1 - 1e-8) * size.max()))
        isometries.append(v * abs(v[pivot]) / v[pivot])
    return np.array([[hat.product(hat.star_of(a), b) for b in isometries] for a in isometries])


def _split(host, seed):
    ctx = ScalarContext(seed=seed)
    hat = dual(host)
    frame = _gns_frame(host, haar_state(host, ctx), ctx)
    rng = ctx.rng()
    return ctx, hat, frame, _split_center(hat, _center(host), frame, ctx, rng), rng


@pytest.mark.parametrize("seed", (7, 31, 3))
@pytest.mark.parametrize("name", ("C(D8)", "C(S3xS3)", "c-s3"))
def test_stacked_refinement_equals_the_block_at_a_time_reference(name, seed):
    host = catalog.algebra(name) if name == "c-s3" else SWEEP_HOSTS[name][0]()
    ctx, hat, frame, split, rng = _split(host, seed)
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    got = _matrix_units(hat, frame, split, ctx, rng)
    dims, idems, groups = split
    for d, e_alpha, basis, units in zip(dims, idems, groups, got):
        want = _reference_block_units(hat, frame, e_alpha, basis, ref_rng)
        assert units.shape == (d, d, host.dim)
        assert np.abs(units - want).max() <= 1e-12
    # one draw per block of dimension above 1, in the order of the split
    assert rng.getstate() == ref_rng.getstate()


def test_a_rejected_block_alone_draws_again(monkeypatch):
    host = SWEEP_HOSTS["C(D8)"][0]()  # three blocks of dimension 2
    ctx, hat, frame, split, rng = _split(host, 7)
    state = rng.getstate()
    plain = _matrix_units(hat, frame, split, ctx, rng)
    shapes = []

    def zero_second_draw(rng, shape, dtype=np.float64):
        draws = uniform(rng, shape, dtype)
        shapes.append(shape)
        if len(shapes) == 1:
            draws[1] = 0  # a zero element does not split its block
        return draws

    monkeypatch.setattr(peterweyl, "uniform", zero_second_draw)
    rng.setstate(state)
    got = _matrix_units(hat, frame, split, ctx, rng)
    assert shapes == [(3, host.dim), (1, host.dim)]
    second = [b for b, d in enumerate(split[0]) if d > 1][1]
    for b, (units, before) in enumerate(zip(got, plain)):
        assert np.array_equal(units, before) == (b != second)
    assert _matrix_unit_residual(hat, got[second][None])[0] <= ctx.loose_tolerance
