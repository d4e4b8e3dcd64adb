import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import twist_ladder

from hopftwist import (
    ScalarContext,
    catalog,
    cyclic_group,
    decompose,
    dihedral_group,
    direct_product,
    function_algebra,
    group_algebra,
    haar_state,
    peterweyl,
    symmetric_group_3,
    twist_algebra,
    verify_cocycle,
)
from hopftwist._linalg import uniform
from hopftwist.cocycle import DualCocycle
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
from hopftwist.serialize import canonical_dumps, peterweyl_to_doc

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
    h = _kernel(np.vstack([m1, m2]))[:, 0]
    return h / complex(np.dot(h, a.unit))


def _kernel(m):
    """Orthonormal columns spanning the kernel of a tall m, from its SVD at
    a relative cutoff of 1e-10 on the singular values."""
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return vh[int(np.sum(s > 1e-10 * s[0])):].conj().T


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


def _ladder_twist(name):
    """The twisted algebra of a fresh rung of the twist ladder."""
    host, sigma = twist_ladder(ScalarContext())[name]
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
        hosts[f"C(D{m}) twisted"] = (lambda m=m: _ladder_twist(f"c-d{m}"), _dihedral_irrep_dims(m))
    # two block dimensions above 1, so draws must keep the order of the
    # split across the stacks of each dimension
    s3 = symmetric_group_3()
    hosts["C(S3xS3)"] = (lambda: function_algebra(direct_product(s3, s3)), [1] * 4 + [2] * 4 + [4])
    hosts["C(D4xS3)"] = (
        lambda: function_algebra(direct_product(dihedral_group(4), s3)),
        [1] * 8 + [2] * 6 + [4],
    )
    hosts["C(Z4xZ4) twisted"] = (lambda: _ladder_twist("c-z4z4"), [1] * 16)
    hosts["G(Z4xZ4) twisted"] = (lambda: _ladder_twist("g-z4z4"), [1] * 16)
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


# ------------------------------------------------------ central projection

PROJECTION_HOSTS = ("c-s3", "g-d4", "c-d4", "C(D16)", "C(S3xS3)", "C(D8) twisted")


def _host(name):
    return catalog.algebra(name) if name in HOSTS else SWEEP_HOSTS[name][0]()


@pytest.mark.parametrize("name", PROJECTION_HOSTS)
def test_the_central_projection_projects_onto_the_commutator_kernel(name, ctx):
    host = _host(name)
    hat, p = dual(host), _center(host)
    n = host.dim
    blocks = len(decompose(host, haar_state(host, ctx), ctx).blocks)
    assert np.abs(p @ p - p).max() <= 1e-13
    assert abs(np.trace(p) - blocks) <= 1e-12
    # z e_j - e_j z for each image z of P and each dual basis element e_j
    commutator = hat.mul - hat.mul.transpose(1, 0, 2)  # [i, j, m]
    assert np.abs(np.tensordot(p, commutator, axes=([0], [0]))).max() <= 1e-13
    # the kernel of the commutator system, as the center was once found
    kernel = _kernel(commutator.transpose(2, 1, 0).reshape(n * n, n))
    assert kernel.shape[1] == blocks
    assert np.abs(p @ kernel - kernel).max() <= 1e-13
    assert np.abs(p - kernel @ (kernel.conj().T @ p)).max() <= 1e-13


def test_a_twist_forms_the_central_projection_of_its_host(ctx):
    # the dual's center, and its projection, depend on the dual's product
    # alone; a twist reads its host's, and an algebra over the twisted
    # tensors that holds a record of its own forms the same to rounding
    twisted = _host("C(D8) twisted")
    own = dataclasses.replace(twisted)
    assert own._coalgebra is not twisted._coalgebra
    assert np.abs(_center(own) - _center(twisted)).max() <= 1e-14


def _gauged(sigma, ctx):
    """sigma^gamma = (gamma x gamma) sigma Delta(gamma^-1), a dense cocycle
    cohomologous to sigma on C(D4), for gamma the product of the dual's
    unitaries (1 + i g) / sqrt(2) over the involutions g of D4, scaled to
    gamma(1) = 1."""
    host = sigma.host
    hat, comul = dual(host), host.comul
    gamma = hat.unit
    for g in (2, 4, 5, 6, 7):
        gamma = hat.product(gamma, (hat.unit + 1j * np.eye(host.dim)[g]) / np.sqrt(2))
    gamma = gamma / np.dot(gamma, host.unit)

    def convolve(x, y):  # of functionals on H (x) H
        return np.einsum("ipq,jrs,pr,qs->ij", comul, comul, x, y)

    dense = convolve(convolve(np.outer(gamma, gamma), sigma.sigma), host.mul @ hat.star_of(gamma))
    return DualCocycle(host, dense, ctx)


def test_a_twist_decomposes_to_the_same_bytes_whether_or_not_its_host_went_first(ctx):
    # a dense cocycle moves the twisted product by rounding, so a projection
    # formed from the twisted product would differ from the host's in the
    # last bits; the shared record forms it from the host's either way
    got = []
    for host_first in (True, False):
        sigma = _gauged(twist_ladder(ctx)["c-d4"][1], ctx)
        assert verify_cocycle(sigma, ctx).passed
        host, twisted = sigma.host, twist_algebra(sigma.host, sigma, ctx).twisted
        if host_first:
            decompose(host, haar_state(host, ctx), ctx)
        pw = decompose(twisted, haar_state(twisted, ctx), ctx)
        got.append(canonical_dumps(peterweyl_to_doc(pw)))
    assert got[0] == got[1]


def test_a_trace_that_counts_no_blocks_is_rejected(ctx):
    host = catalog.algebra("c-s3")
    hat, p = dual(host), _center(host)
    frame = _gns_frame(host, haar_state(host, ctx), ctx)
    for bad in (0.5 * p, 0 * p, p + 1e-3 * np.eye(host.dim)):
        with pytest.raises(DecompositionError, match="central projection has trace"):
            _split_center(hat, bad, frame, ctx, ctx.rng())


def test_decompose_after_a_state_that_is_not_invariant_equals_a_fresh_hosts(ctx):
    def build():
        return function_algebra(symmetric_group_3())

    host = build()
    h = haar_state(host, ctx)
    # phi(x) = h(b* x b) for an invertible b: faithful, and not invariant
    b = host.unit + 0.3 * np.arange(host.dim) / host.dim
    phi = peterweyl.HaarState(host, np.array(
        [h(host.product(host.product(host.star_of(b), e), b)) for e in np.eye(host.dim)]
    ))
    phi = peterweyl.HaarState(host, phi.coeffs / phi(host.unit))
    assert haar_invariance_residual(phi) > 1e-3
    try:
        decompose(host, phi, ctx)
    except DecompositionError:
        pass
    assert host._coalgebra.center is not None
    fresh = build()
    got, want = (
        canonical_dumps(peterweyl_to_doc(decompose(a, haar_state(a, ctx), ctx)))
        for a in (host, fresh)
    )
    assert got == want


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
