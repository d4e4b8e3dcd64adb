"""The paper suite's stacked helpers against their one-at-a-time originals.

Check 09 builds its random volume matrices and reads their block form as
one stack, the Schur check pairs every block's coefficients in one pass,
and the commutator witness of check 05 takes all basis pairs at once.  The
references below are the loops they replaced, kept verbatim.
"""

import sys

import numpy as np
import pytest

from hopftwist import RTwistedVolume, ScalarContext, catalog, extract_block_form
from hopftwist import deform as deform_module
from hopftwist import suite as suite_module
from hopftwist._linalg import max_abs
from hopftwist.corep import decompose_corep
from hopftwist.peterweyl import haar_pairing, haar_state
from hopftwist.suite import (
    _RANDOM_DRAWS,
    _form_r_residual,
    _noncommutativity_witness,
    _schur_residual,
    _Workspace,
)
from hopftwist.twist import twist_algebra


def _reference_equivariant_volume(sd, rng):
    hdim = sd.entries[0]["basis"].shape[2]
    r = np.zeros((hdim, hdim), dtype=np.complex128)
    chosen = {}
    for entry in sd.entries:
        basis = entry["basis"]
        m = entry["multiplicity"]
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        t = a @ a.conj().T + 0.25 * np.eye(m)
        chosen[entry["block"]] = t
        # r[x, y] += sum_sua t[s, u] basis[s, a, x] conj(basis[u, a, y])
        weighted = np.tensordot(t, np.conj(basis), axes=([1], [0]))  # [s, a, y]
        r += np.tensordot(basis, weighted, axes=([0, 1], [0, 1]))
    return 0.5 * (r + r.conj().T), chosen


def _reference_form_r_residual(scene, ws):
    ctx = ws.ctx
    corep = scene["corep"]
    pw = ws.peter_weyl(scene["host"])
    sd = decompose_corep(corep, pw, ctx)
    rng = ctx.rng()
    worst = 0.0
    agree = 0
    for _ in range(_RANDOM_DRAWS):
        r, chosen = _reference_equivariant_volume(sd, rng)
        rv = RTwistedVolume(r)
        form = extract_block_form(corep, rv, sd, ctx, pw=pw)
        if form["preserved"] == bool(form["passed"]):
            agree += 1
        worst = max(worst, float(form["reconstruction_residual"]))
        for blk in form["blocks"]:
            worst = max(worst, max_abs(blk["t"] - chosen[blk["block"]]))
    detail = f"verdicts agree in {agree}/{_RANDOM_DRAWS} draws"
    if agree != _RANDOM_DRAWS:
        worst = max(worst, 1.0)
    return worst, detail


def _reference_schur_residual(pw):
    host, h = pw.host, pw.haar
    worst = 0.0
    for ai, ba in enumerate(pw.blocks):
        worst = max(worst, max_abs(ba.f_matrix - np.eye(ba.dimension)))
        worst = max(worst, abs(ba.m_value - ba.dimension))
        for bi, bb in enumerate(pw.blocks):
            qa, qb = ba.q, bb.q
            vals1 = haar_pairing(host, h, qa, host.star_of(qb))
            vals2 = haar_pairing(host, h, host.star_of(qa), qb)
            if ai == bi:
                d = ba.dimension
                eye = np.eye(d)
                want = np.einsum("ik,jl->ijkl", eye, eye) / ba.m_value
            else:
                want = 0.0
            worst = max(worst, max_abs(vals1 - want), max_abs(vals2 - want))
    return worst


@pytest.mark.parametrize("seed", (7, 31, 3))
@pytest.mark.parametrize("name", ("z2z2-torus", "d4-regular"))
def test_stacked_form_r_residual_is_the_per_draw_loop_bit_for_bit(name, seed):
    ctx = ScalarContext(tolerance=1e-9, seed=seed)
    ws = _Workspace(ctx)
    scene = catalog.triple_scene(name, ctx)
    got = _form_r_residual(scene, ws)
    assert got[1] == f"verdicts agree in {_RANDOM_DRAWS}/{_RANDOM_DRAWS} draws"
    assert got == _reference_form_r_residual(scene, ws)


def test_form_r_residual_reads_all_draws_in_one_call(ctx, monkeypatch):
    calls = {"extract_block_form": 0, "check_volume_preservation": 0}
    for module, name in (
        (suite_module, "extract_block_form"),
        (deform_module, "check_volume_preservation"),
    ):
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    scene = catalog.triple_scene("d4-regular", ctx)
    _form_r_residual(scene, _Workspace(ctx))
    assert calls == {"extract_block_form": 1, "check_volume_preservation": 1}


@pytest.mark.parametrize("name", catalog.host_names())
def test_stacked_schur_residual_equals_the_pairwise_loop(name, ctx):
    pw = _Workspace(ctx).peter_weyl(catalog.algebra(name))
    assert abs(_schur_residual(pw) - _reference_schur_residual(pw)) <= 1e-15


def _reference_noncommutativity_witness(algebra):
    best = 0.0
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            comm = algebra.mul[i, j] - algebra.mul[j, i]
            best = max(best, float(np.linalg.norm(comm)))
    return best


def test_noncommutativity_witness_equals_the_pairwise_loop(ctx):
    hosts = [catalog.algebra(name) for name in catalog.host_names()]
    ws = _Workspace(ctx)
    hosts += [ws.twist(catalog.cocycle(name, ctx)).twisted for name in catalog.cocycle_names()]
    for algebra in hosts:
        want = _reference_noncommutativity_witness(algebra)
        assert abs(_noncommutativity_witness(algebra) - want) <= 1e-15 * max(1.0, want)


def test_paper_suite_solves_each_haar_state_and_twist_once(monkeypatch):
    """A twisted host reuses the Haar state of its original, and check 12
    reuses the back twists of check 06's roundtrips."""
    ctx = ScalarContext(seed=7)
    for name in catalog.host_names():
        catalog.algebra(name)
    for name in catalog.cocycle_names():
        catalog.cocycle(name, ctx)
    for name in catalog.triple_names():
        catalog.triple_scene(name, ctx)
    originals = {"haar_state": haar_state, "twist_algebra": twist_algebra}
    calls = dict.fromkeys(originals, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("hopftwist.")]
    for fname, original in originals.items():

        def counting(*args, _original=original, _name=fname, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, fname, None) is original:
                monkeypatch.setattr(module, fname, counting)
    suite_module.run_paper_suite(ctx)
    # Haar: 11 hosts in check 02 and two fresh workspaces in check 13; the
    # regular coreps of checks 03 and 08 take check 02's.  Twists: six
    # cocycles (the five catalog ones and the trivial-4 scene's), each
    # twisted forward and back once
    assert calls == {"haar_state": 13, "twist_algebra": 12}
