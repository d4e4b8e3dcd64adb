"""What is derived from a tensor is held by the object that owns it, and
the Peter-Weyl blocks taken as stacks.

An algebra holds the terms of its tensors and a coalgebra record (the
coproduct's terms, the coalgebra residuals and the dual's central
projection), a corep
the terms of its matrix, and a cocycle its twist and the terms of sigma and
its inverse; each goes with its owner.  A twisted corep holds its source's
terms of u, and the inverse cocycle of a round trip its source's terms of
sigma_inv, the same arrays.
The twist ladder's hosts keep their coproduct, unit and counit through
every twist, and a twisted algebra is handed its host's coalgebra record,
so the coalgebra identities are checked once per host and the projection
onto the dual's center is formed once.  The stacked F-matrices and rho functionals of decompose and
f_matrix_relation are compared, byte for byte, with the block-by-block
computation they replaced, kept below.
"""

import dataclasses
import gc
import subprocess
import sys
import weakref

import numpy as np
import pytest

from hopftwist import (
    ScalarContext,
    catalog,
    cli,
    core,
    cyclic_group,
    decompose,
    dihedral_group,
    direct_product,
    f_matrix_relation,
    from_bicharacter,
    function_algebra,
    group_algebra,
    haar_state,
    induce,
    klein_four_group,
    regular_corep,
    roundtrip,
    twist,
    twist_algebra,
    twist_corep,
    verify_hopf_axioms,
)
from hopftwist import _linalg as linalg
from hopftwist._linalg import Terms
from hopftwist.core import FiniteHopfStarAlgebra
from hopftwist.corep import UnitaryCorep
from hopftwist.errors import BlockMismatch
from hopftwist.peterweyl import _center

COALGEBRA_CHECKS = ("coassociativity", "counit-law", "coproduct-unital")
COASSOCIATIVITY = "ipc,pab->iabc"


def _read_only(a):
    a = np.array(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


def _copy(host):
    """The same algebra over fresh copies of its tensors."""
    fields = ("mul", "unit", "comul", "counit", "antipode", "antipode_inv", "star")
    return FiniteHopfStarAlgebra(
        host.dim, host.basis_labels, **{f: _read_only(getattr(host, f)) for f in fields}
    )


def test_the_terms_of_a_writeable_array_are_read_afresh():
    mine = np.arange(4.0)
    mine[:] = 0.0
    assert Terms.of(mine).keys.size == 0
    mine[1] = 2.0
    assert Terms.of(mine).keys.tolist() == [1]


def test_conjugate_terms_share_their_source_keys_and_tables():
    a = _read_only([[0.0, 1.0 + 2.0j], [3.0j, 0.0]])
    plain = Terms.of(a)
    conj = plain.conj()
    assert conj.keys is plain.keys and conj._prepared is plain._prepared
    assert conj.values.tolist() == [1.0 - 2.0j, -3.0j]
    assert conj.conj().values.tolist() == plain.values.tolist()


def _coalgebra_sides(monkeypatch):
    """The coassociativity checks made from then on, counted in a list that
    holds none of their chains."""
    sides = []
    gap = linalg.identity_gap

    def counting(left, right):
        if left.steps and left.steps[0][0] == COASSOCIATIVITY:
            sides.append(1)
        return gap(left, right)

    monkeypatch.setattr(core, "identity_gap", counting)
    return sides


def test_coalgebra_residuals_are_the_same_cold_warm_and_after_a_drop(monkeypatch):
    cold = verify_hopf_axioms(function_algebra(dihedral_group(8)))
    sides = _coalgebra_sides(monkeypatch)
    host = function_algebra(dihedral_group(8))
    first = verify_hopf_axioms(host)
    warm = verify_hopf_axioms(host)
    assert len(sides) == 1
    # another algebra over the same arrays holds its own record
    shared = dataclasses.replace(host)
    again = verify_hopf_axioms(shared)
    copied = verify_hopf_axioms(_copy(host))
    assert len(sides) == 3
    held = [weakref.ref(x) for x in (host, host._coalgebra, host._coalgebra.comul.keys)]
    held.append(weakref.ref(host._terms["mul"].keys))
    assert all(ref() is not None for ref in held)
    del host, shared
    gc.collect()
    assert all(ref() is None for ref in held)
    dropped = verify_hopf_axioms(function_algebra(dihedral_group(8)))
    for report in (first, warm, again, copied, dropped):
        assert report.checks == cold.checks
    assert all(cold.residual(name) <= 1e-12 for name in COALGEBRA_CHECKS)


def test_paper_suite_bytes_are_the_same_cold_warm_and_after_a_drop(capsys, monkeypatch):
    def suite():
        assert cli.run(["verify", "--suite", "paper", "--seed", "7"]) == 0
        return capsys.readouterr().out

    memos = ("_groups", "_algebras", "_cocycles", "_scenes")
    for memo in memos:
        monkeypatch.setattr(catalog, memo, {})
    cold = suite()
    record = weakref.ref(catalog.algebra("c-d4")._coalgebra)
    sides = _coalgebra_sides(monkeypatch)
    warm = suite()
    # the catalog's hosts and their twists check no coalgebra identity again
    assert sides == []
    # the memos are this test's own, so nothing else holds what they held
    for memo in memos:
        getattr(catalog, memo).clear()
    gc.collect()
    assert record() is None
    dropped = suite()
    assert sides
    assert cold == warm == dropped


def _klein_table():
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    return np.array([[(-1.0 + 0j) ** (g[1] * h[0]) for h in bits] for g in bits])


def _z4z4_bicharacter():
    pairs = [(a, b) for a in range(4) for b in range(4)]
    return np.array([[1j ** (g[1] * h[0]) for h in pairs] for g in pairs])


def test_a_ladder_host_checks_its_coassociativity_once(ctx, monkeypatch):
    # host check, twist and the round trip's back twist (its forward twist
    # is the one already made): three checks of one comul, each chain formed
    # in the first only
    group = direct_product(cyclic_group(4), cyclic_group(4))
    host = group_algebra(group)
    sigma = from_bicharacter(group, _z4z4_bicharacter(), ctx, host=host)
    sides = []
    gap = linalg.identity_gap

    def counting(left, right):
        if left.steps and left.steps[0][0] == COASSOCIATIVITY:
            sides.append(left)
        return gap(left, right)

    monkeypatch.setattr(core, "identity_gap", counting)
    assert verify_hopf_axioms(host, ctx).passed
    tw = twist_algebra(host, sigma, ctx)
    assert tw.twisted.comul is host.comul
    result = roundtrip(host, sigma, ctx)
    assert result["passed"] and result["back"].twisted.comul is host.comul
    assert len(sides) == 1
    for name in COALGEBRA_CHECKS:
        assert result["back"].transcript.residual(name) == tw.transcript.residual(name)


def _counted(monkeypatch, module, name):
    """The calls made from then on to module.name, counted in a list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def test_a_live_cocycle_twists_once_and_the_twist_is_dropped_with_it(ctx, monkeypatch):
    group = direct_product(cyclic_group(4), cyclic_group(4))
    host = group_algebra(group)
    sigma = from_bicharacter(group, _z4z4_bicharacter(), ctx, host=host)
    first = twist_algebra(host, sigma, ctx)
    products = _counted(monkeypatch, twist, "twisted_product")
    gaps = _counted(monkeypatch, core, "identity_gap")
    loose = ScalarContext(tolerance=1e-6, seed=ctx.seed)
    for again in (twist_algebra(host, sigma, ctx), twist_algebra(host, sigma, loose)):
        assert again.twisted is first.twisted
        assert again.transcript.checks == first.transcript.checks
    assert again.transcript.tolerance == 1e-6
    assert products == [] and gaps == []
    # without tw=, roundtrip reads the forward twist and makes the back twist
    assert roundtrip(host, sigma, ctx)["passed"]
    assert len(products) == 1
    twisted = weakref.ref(first.twisted)
    del sigma, first, again
    gc.collect()
    assert twisted() is None


def _over(record):
    """The live algebras that hold record as their coalgebra record."""
    return [
        a for a in gc.get_objects()
        if isinstance(a, FiniteHopfStarAlgebra) and a.__dict__.get("_coalgebra") is record
    ]


def test_twists_by_fresh_cocycles_of_one_host_leave_nothing_held(ctx):
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    group = dihedral_group(8)
    host = function_algebra(group)
    klein_fourier = catalog.fourier_transport(klein, _klein_table(), c_klein, ctx)
    mor = catalog.restriction_morphism(group, (0, 4, 8, 12), ctx, source=host, target=c_klein)
    # a cocycle that lives on, as a catalog one does: its back twists are
    # made by a fresh inverse cocycle each time
    kept = induce(klein_fourier, mor, ctx)
    held = []
    for _ in range(6):
        sigma = induce(klein_fourier, mor, ctx)
        twist_algebra(host, sigma, ctx)
        assert roundtrip(host, sigma, ctx)["passed"]
        assert roundtrip(host, kept, ctx)["passed"]
        del sigma
        gc.collect()
        held.append(_over(host._coalgebra))
    # of every algebra over the host's coalgebra, only the host and the kept
    # cocycle's twist are alive
    (kept_twist, _) = kept._twist
    assert all(len(alive) == 2 for alive in held)
    assert all({id(a) for a in alive} == {id(host), id(kept_twist)} for alive in held)


def test_a_twisted_corep_holds_the_terms_of_its_source_u(ctx):
    host = catalog.algebra("c-d4")
    tw = twist_algebra(host, catalog.cocycle("klein-induced", ctx), ctx)
    corep = regular_corep(host, ctx)
    first, second = twist._corep_sigma(corep, tw), twist._corep_sigma(corep, tw)
    assert first.host is second.host is tw.twisted
    assert first.u is corep.u and first._u_terms is second._u_terms is corep._u_terms
    # u_star is taken with the twisted star, so its terms are each corep's own
    assert first._u_star_terms is not corep._u_star_terms
    assert first._u_star_terms is not second._u_star_terms
    assert np.array_equal(first.u_star, UnitaryCorep(tw.twisted, corep.hdim, corep.u).u_star)
    assert twist_corep(corep, tw, ctx)[1].passed


def test_the_inverse_cocycle_holds_the_terms_of_sigma_inv(ctx):
    group = direct_product(cyclic_group(4), cyclic_group(4))
    host = group_algebra(group)
    sigma = from_bicharacter(group, _z4z4_bicharacter(), ctx, host=host)
    result = roundtrip(host, sigma, ctx)
    inverse = result["back"].cocycle
    assert result["passed"] and inverse.host is twist_algebra(host, sigma, ctx).twisted
    assert inverse.sigma is sigma.sigma_inv
    assert inverse._sigma_terms is sigma._sigma_inv_terms
    # its own inverse is found on the twisted algebra, so its terms are its own
    assert inverse._sigma_inv_terms is not sigma._sigma_terms


def test_the_paper_suite_reads_each_held_tensor_once():
    # Terms reads the nonzero entries of an array by one np.flatnonzero; a
    # fresh process, so that no catalog object is warm.  A twisted corep
    # that reads the terms of u afresh, or an inverse cocycle those of its
    # sigma, makes more than 490
    script = (
        "import contextlib, io\n"
        "import numpy as np\n"
        "calls, read = [], np.flatnonzero\n"
        "np.flatnonzero = lambda *a, **k: calls.append(1) or read(*a, **k)\n"
        "from hopftwist.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['verify', '--suite', 'paper', '--seed', '7'])\n"
        "print(code, len(calls))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    code, reads = map(int, proc.stdout.split())
    assert code == 0 and reads <= 490, proc.stderr


def test_a_twist_reads_the_center_of_the_dual_its_host_found(ctx, svd_calls):
    _, host, sigma = next(_ladder(ctx))
    tw = twist_algebra(host, sigma, ctx)
    assert tw.twisted._coalgebra is host._coalgebra
    n = host.dim
    decompose(host, haar_state(host, ctx), ctx)
    projection = host._coalgebra.center
    assert projection is not None
    twisted = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
    assert _center(tw.twisted) is host._coalgebra.center is projection
    # the center is read off the projection, with no SVD of the n^2 x n
    # commutator system
    assert not [shape for shape in svd_calls if shape[0] == n * n]
    assert twisted.dimensions == (1, 1, 1, 1, 2)


# ---------------------------------------------------------------------------
# the block-by-block F-matrices and rho functionals, as they were computed
# before the blocks of one dimension were stacked


def _reference_f_matrix(algebra, h, q):
    d = q.shape[0]
    form = algebra.mul @ h.coeffs
    gram = np.tensordot(q @ form, algebra.star_of(q), axes=([-1], [-1]))
    s = np.einsum("ijil->jl", gram) / d
    s = 0.5 * (s + s.conj().T)
    s_inv = np.linalg.inv(s)
    m_value = float(np.sqrt(np.trace(s_inv).real / np.trace(s).real))
    return m_value * s, m_value


def _reference_rho(algebra, h, q, f_matrix, m_value):
    x_elems = m_value * np.tensordot(f_matrix, algebra.star_of(q), axes=([0], [0]))
    return x_elems @ (algebra.mul @ h.coeffs)


def _q_as_decompose_reads_it(pw):
    """Each block's q as the view of the inverse of the stacked units that
    decompose reads it as: the same numbers, in that memory layout."""
    n = pw.host.dim
    q_cols = np.concatenate([b.q.reshape(-1, n) for b in pw.blocks]).T.copy()
    offset = 0
    for b in pw.blocks:
        size = b.dimension**2
        yield q_cols[:, offset : offset + size].T.reshape(b.q.shape)
        offset += size


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_blocks(pw):
    for b, q in zip(pw.blocks, _q_as_decompose_reads_it(pw)):
        f, m = _reference_f_matrix(pw.host, pw.haar, q)
        assert _same_bytes(b.f_matrix, f) and b.m_value == m
        assert _same_bytes(b.matrix_units, _reference_rho(pw.host, pw.haar, q, f, m))


@pytest.mark.parametrize("name", catalog.host_names())
def test_stacked_blocks_match_the_block_by_block_reference(name, ctx):
    host = catalog.algebra(name)
    _check_blocks(decompose(host, haar_state(host, ctx), ctx))


def _ladder(ctx):
    """The hosts of the twist ladder with their cocycles: C(D_m) for m = 4,
    8, 16 with the Klein-induced cocycle, G(Z4 x Z4) with a bicharacter and
    C(Z4 x Z4) with its Fourier transport."""
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    for m in (4, 8, 16):
        group = dihedral_group(m)
        host = function_algebra(group)
        sigma = catalog.fourier_transport(klein, _klein_table(), c_klein, ctx)
        mor = catalog.restriction_morphism(
            group, (0, m // 2, m, m + m // 2), ctx, source=host, target=c_klein
        )
        yield f"c-d{m}", host, induce(sigma, mor, ctx)
    z4z4 = direct_product(cyclic_group(4), cyclic_group(4))
    host = group_algebra(z4z4)
    yield "g-z4z4", host, from_bicharacter(z4z4, _z4z4_bicharacter(), ctx, host=host)
    host = function_algebra(z4z4)
    yield "c-z4z4", host, catalog.fourier_transport(z4z4, _z4z4_bicharacter(), host, ctx)


def test_stacked_blocks_match_the_reference_on_the_twist_ladder(ctx):
    names = []
    for name, host, sigma in _ladder(ctx):
        names.append(name)
        tw = twist_algebra(host, sigma, ctx)
        pw = decompose(host, haar_state(host, ctx), ctx)
        pw_tw = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
        _check_blocks(pw)
        _check_blocks(pw_tw)
        rows = f_matrix_relation(tw, pw, pw_tw, ctx)
        assert [row["block"] for row in rows] == list(range(len(pw.blocks)))
        for row, b in zip(rows, pw.blocks):
            f, m = _reference_f_matrix(tw.twisted, pw_tw.haar, b.q)
            assert _same_bytes(row["f_twisted"], f) and row["m_twisted"] == m
            assert row["passed"], (name, row["block"])
            partner = pw_tw.blocks[row["twisted_block"]]
            assert partner.dimension == b.dimension
    assert len(names) == 5


def test_a_block_whose_subspace_no_twisted_block_spans_is_rejected(ctx, rng):
    sigma = catalog.cocycle("klein-induced", ctx)
    host = sigma.host
    tw = twist_algebra(host, sigma, ctx)
    pw = decompose(host, haar_state(host, ctx), ctx)
    pw_tw = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
    # C(D4) has one block of dimension 2; its twisted partner gets random
    # coefficients, which span another subspace
    (k,) = [i for i, b in enumerate(pw_tw.blocks) if b.dimension == 2]
    (bi,) = [i for i, b in enumerate(pw.blocks) if b.dimension == 2]
    blocks = list(pw_tw.blocks)
    blocks[k] = dataclasses.replace(blocks[k], q=rng.standard_normal(blocks[k].q.shape))
    wrong = dataclasses.replace(pw_tw, blocks=tuple(blocks))
    with pytest.raises(BlockMismatch, match=f"subspace of block {bi}$"):
        f_matrix_relation(tw, pw, wrong, ctx)


def _spanning_pairs(pw, pw_tw):
    """For each block, the twisted block of its dimension whose coefficient
    span overlaps its own most, by orthonormal bases of the two spans: the
    pairing by principal angles that the central idempotents replaced."""
    def basis(b):
        return np.linalg.qr(b.q.reshape(b.dimension**2, -1).T)[0]

    return [
        max((k for k, c in enumerate(pw_tw.blocks) if c.dimension == b.dimension),
            key=lambda k: np.linalg.norm(basis(b).conj().T @ basis(pw_tw.blocks[k])))
        for b in pw.blocks
    ]


def _catalog_and_ladder(ctx):
    for host_name, cocycle_name in catalog.cocycle_pairs():
        yield cocycle_name, catalog.algebra(host_name), catalog.cocycle(cocycle_name, ctx)
    yield from _ladder(ctx)


def test_twisted_partners_are_found_by_central_idempotent_without_svd(ctx, svd_calls):
    for name, host, sigma in _catalog_and_ladder(ctx):
        tw = twist_algebra(host, sigma, ctx)
        pw = decompose(host, haar_state(host, ctx), ctx)
        pw_tw = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
        del svd_calls[:]
        rows = f_matrix_relation(tw, pw, pw_tw, ctx)
        assert not svd_calls, name
        partners = [row["twisted_block"] for row in rows]
        assert partners == _spanning_pairs(pw, pw_tw), name
        for b, k in zip(pw.blocks, partners):
            gap = np.abs(b.central_idempotent - pw_tw.blocks[k].central_idempotent).max()
            assert gap <= ctx.loose_tolerance, name


def _corrupt(blocks, k, how):
    """The twisted blocks with block k (of dimension 2) or, for swapped,
    the first two one-dimensional blocks after the trivial one altered."""
    blocks = list(blocks)
    b = blocks[k]
    if how == "zero":
        blocks[k] = dataclasses.replace(b, q=np.zeros_like(b.q))
    elif how == "rank-deficient":
        q = np.array(b.q)
        q[1, 1] = q[0, 0]
        blocks[k] = dataclasses.replace(b, q=q)
    elif how == "idempotent":
        blocks[k] = dataclasses.replace(b, central_idempotent=b.central_idempotent + 1e-3)
    else:
        i, j = [i for i, c in enumerate(blocks) if c.dimension == 1][1:3]
        blocks[i], blocks[j] = (dataclasses.replace(blocks[i], q=blocks[j].q),
                                dataclasses.replace(blocks[j], q=blocks[i].q))
    return tuple(blocks)


@pytest.mark.parametrize("how", ["zero", "rank-deficient", "swapped", "idempotent"])
def test_a_twisted_block_that_does_not_match_is_rejected(how, ctx):
    sigma = catalog.cocycle("klein-induced", ctx)
    host = sigma.host
    tw = twist_algebra(host, sigma, ctx)
    pw = decompose(host, haar_state(host, ctx), ctx)
    pw_tw = decompose(tw.twisted, haar_state(tw.twisted, ctx), ctx)
    (k,) = [i for i, b in enumerate(pw_tw.blocks) if b.dimension == 2]
    (bi,) = [i for i, b in enumerate(pw.blocks) if b.dimension == 2]
    wrong = dataclasses.replace(pw_tw, blocks=_corrupt(pw_tw.blocks, k, how))
    # a rank-deficient span lies inside the host block's, so only the
    # second containment sees it
    match = {
        "idempotent": f"central idempotent of block {bi}$",
        "swapped": r"subspace of block \d+$",
    }.get(how, f"subspace of block {bi}$")
    with pytest.raises(BlockMismatch, match=match):
        f_matrix_relation(tw, pw, wrong, ctx)
