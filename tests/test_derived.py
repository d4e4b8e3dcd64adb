"""What is derived from a frozen tensor once, and the Peter-Weyl blocks
taken as stacks.

_linalg.derived holds a value per frozen array only while the array lives,
and never for an array that something can still change.  The twist ladder's
hosts keep their coproduct, unit and counit through every twist, so the
coalgebra identities are checked once per host.  A twist is made once while
its cocycle lives, and dropped with it.  The stacked F-matrices and
rho functionals of decompose and f_matrix_relation are compared, byte for
byte, with the block-by-block computation they replaced, kept below.
"""

import dataclasses
import gc
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
    roundtrip,
    twist,
    twist_algebra,
    verify_hopf_axioms,
)
from hopftwist import _linalg as linalg
from hopftwist._linalg import Terms, derived, frozen
from hopftwist.core import FiniteHopfStarAlgebra
from hopftwist.errors import BlockMismatch

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


def test_a_value_is_computed_once_per_frozen_array_and_dropped_with_it():
    a = _read_only(np.arange(6).reshape(2, 3))
    calls = []
    for _ in range(2):
        assert derived((a,), "sum", lambda: calls.append(1) or float(a.real.sum())) == 15.0
    assert calls == [1]
    # a view of a frozen array is frozen too, but another array
    view = a.T
    assert frozen(view)
    derived((view,), "sum", lambda: calls.append(1) or 0.0)
    assert len(calls) == 2
    key = id(a)
    del a, view
    gc.collect()
    assert key not in linalg._DERIVED


def test_a_writeable_array_or_a_view_over_writeable_memory_is_never_held():
    mine = np.arange(4.0)
    view = mine[::2]
    view.flags.writeable = False
    over_bytes = np.frombuffer(b"\x00" * 32)
    assert not over_bytes.flags.writeable
    for a in (mine, view, over_bytes):
        assert not frozen(a)
        calls = []
        for _ in range(2):
            derived((a,), "count", lambda: calls.append(1))
        assert len(calls) == 2
    assert linalg._DERIVED == {}
    # the terms of a writeable array are read afresh: a change shows
    mine[:] = 0.0
    assert Terms.of(mine).keys.size == 0
    mine[1] = 2.0
    assert Terms.of(mine).keys.tolist() == [1]


def test_a_value_of_two_arrays_is_recomputed_when_the_second_is_replaced():
    a = _read_only(np.ones(3))
    calls = []

    def value(b):
        return derived((a, b), "dot", lambda: calls.append(1) or complex(a @ b))

    b = _read_only([1.0, 2.0, 3.0])
    assert value(b) == value(b) == 6.0
    del b
    # a new array may take the id of the dead one; its value is its own
    b = _read_only([0.0, 0.0, 1.0])
    assert value(b) == 1.0
    assert len(calls) == 2


def test_coalgebra_residuals_are_the_same_cold_warm_and_after_a_drop():
    cold = verify_hopf_axioms(function_algebra(dihedral_group(8)))
    host = function_algebra(dihedral_group(8))
    first = verify_hopf_axioms(host)
    assert id(host.comul) in linalg._DERIVED
    warm = verify_hopf_axioms(host)
    # another algebra over the same coalgebra reads the held residuals
    shared = FiniteHopfStarAlgebra(
        host.dim, host.basis_labels, host.mul, host.unit, host.comul, host.counit,
        host.antipode, host.antipode_inv, host.star,
    )
    again = verify_hopf_axioms(shared)
    copied = verify_hopf_axioms(_copy(host))
    comul = weakref.ref(host.comul)
    key = id(host.comul)
    del host, shared
    gc.collect()
    assert comul() is None and key not in linalg._DERIVED
    dropped = verify_hopf_axioms(function_algebra(dihedral_group(8)))
    for report in (first, warm, again, copied, dropped):
        assert report.checks == cold.checks
    assert all(cold.residual(name) <= 1e-12 for name in COALGEBRA_CHECKS)


def test_paper_suite_bytes_are_the_same_cold_warm_and_after_a_drop(capsys, monkeypatch):
    def suite():
        assert cli.run(["verify", "--suite", "paper", "--seed", "7"]) == 0
        return capsys.readouterr().out

    def forget_catalog():
        for memo in ("_groups", "_algebras", "_cocycles", "_scenes"):
            monkeypatch.setattr(catalog, memo, {})

    forget_catalog()
    cold = suite()
    held = len(linalg._DERIVED)
    assert held
    warm = suite()
    assert len(linalg._DERIVED) == held
    forget_catalog()
    gc.collect()
    dropped = suite()
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
    inverse = weakref.ref(sigma.sigma_inv)
    key = id(inverse())
    assert key in linalg._DERIVED
    del sigma, first, again
    gc.collect()
    assert inverse() is None and key not in linalg._DERIVED


def test_twists_by_fresh_cocycles_of_one_host_leave_nothing_held(ctx):
    klein = klein_four_group()
    c_klein = function_algebra(klein)
    group = dihedral_group(8)
    host = function_algebra(group)
    klein_fourier = catalog.fourier_transport(klein, _klein_table(), c_klein, ctx)
    mor = catalog.restriction_morphism(group, (0, 4, 8, 12), ctx, source=host, target=c_klein)
    # a cocycle that lives on, as a catalog one does: its back twists are
    # made by a fresh cocycle each time, which shares its sigma_inv
    kept = induce(klein_fourier, mor, ctx)
    held = []
    for _ in range(6):
        sigma = induce(klein_fourier, mor, ctx)
        twist_algebra(host, sigma, ctx)
        assert roundtrip(host, sigma, ctx)["passed"]
        assert roundtrip(host, kept, ctx)["passed"]
        del sigma
        gc.collect()
        held.append((len(linalg._DERIVED), sum(map(len, linalg._DERIVED.values()))))
    assert held == held[:1] * 6


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
