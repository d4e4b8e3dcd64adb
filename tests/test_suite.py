"""The paper suite's stacked helpers against their one-at-a-time originals.

Check 09 builds its random volume matrices and reads their block form as
one stack, the Schur check pairs every block's coefficients in one pass,
and the commutator witness of check 05 takes all basis pairs at once.  The
references below are the loops they replaced, kept verbatim.
"""

import dataclasses
import sys

import numpy as np
import pytest

from hopftwist import RTwistedVolume, ScalarContext, catalog, extract_block_form
from hopftwist import deform as deform_module
from hopftwist import suite as suite_module
from hopftwist._linalg import max_abs, uniform
from hopftwist.cocycle import convolve2, verify_cocycle
from hopftwist.corep import decompose_corep, regular_corep
from hopftwist.deform import operator_span_basis
from hopftwist.peterweyl import decompose, haar_pairing, haar_state
from hopftwist.suite import (
    _RANDOM_DRAWS,
    _Derived,
    _form_r_residual,
    _noncommutativity_witness,
    _peter_weyl,
    _schur_residual,
)
from hopftwist.twist import twist_algebra


def _reference_equivariant_volume(sd, rng):
    hdim = sd.entries[0]["basis"].shape[2]
    r = np.zeros((hdim, hdim), dtype=np.complex128)
    chosen = {}
    for entry in sd.entries:
        basis = entry["basis"]
        m = entry["multiplicity"]
        a = uniform(rng, (m, m), np.complex128)
        t = a @ a.conj().T + 0.25 * np.eye(m)
        chosen[entry["block"]] = t
        # r[x, y] += sum_sua t[s, u] basis[s, a, x] conj(basis[u, a, y])
        weighted = np.tensordot(t, np.conj(basis), axes=([1], [0]))  # [s, a, y]
        r += np.tensordot(basis, weighted, axes=([0, 1], [0, 1]))
    return 0.5 * (r + r.conj().T), chosen


def _reference_form_r_residual(scene, pw, ctx):
    corep = scene["corep"]
    sd = decompose_corep(corep, pw, ctx)
    rng = ctx.rng()
    worst = 0.0
    agree = 0
    for _ in range(_RANDOM_DRAWS):
        r, chosen = _reference_equivariant_volume(sd, rng)
        rv = RTwistedVolume(r)
        form = extract_block_form(rv, sd, ctx)
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
    scene = catalog.triple_scene(name, ctx)
    pw = _peter_weyl(scene["host"], ctx)
    got = _form_r_residual(scene, pw, ctx)
    assert got[1] == f"verdicts agree in {_RANDOM_DRAWS}/{_RANDOM_DRAWS} draws"
    assert got == _reference_form_r_residual(scene, pw, ctx)


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
    _form_r_residual(scene, _peter_weyl(scene["host"], ctx), ctx)
    assert calls == {"extract_block_form": 1, "check_volume_preservation": 1}


@pytest.mark.parametrize("name", catalog.host_names())
def test_stacked_schur_residual_equals_the_pairwise_loop(name, ctx):
    pw = _peter_weyl(catalog.algebra(name), ctx)
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
    derived = _Derived(ctx)
    hosts += [derived.twists[sigma].twisted for sigma in derived.cocycles.values()]
    for algebra in hosts:
        want = _reference_noncommutativity_witness(algebra)
        assert abs(_noncommutativity_witness(algebra) - want) <= 1e-15 * max(1.0, want)


def test_paper_suite_solves_each_haar_state_and_twist_once(monkeypatch):
    """A twisted host reuses the Haar state of its original, check 12
    reuses the back twists of check 06's roundtrips, and every derived
    object is built once per run; a regular corep computes the Haar state
    it needs."""
    ctx = ScalarContext(seed=7)
    # a fresh catalog: its cocycles hold their twists, and its hosts their
    # coalgebra records, for as long as the catalog holds them
    for memo in ("_groups", "_algebras", "_cocycles", "_scenes"):
        monkeypatch.setattr(catalog, memo, {})
    for name in catalog.host_names():
        catalog.algebra(name)
    for name in catalog.cocycle_names():
        catalog.cocycle(name, ctx)
    for name in catalog.triple_names():
        catalog.triple_scene(name, ctx)
    originals = {
        "haar_state": haar_state,
        "twist_algebra": twist_algebra,
        "decompose": decompose,
        "decompose_corep": decompose_corep,
        "regular_corep": regular_corep,
        "operator_span_basis": operator_span_basis,
        "verify_cocycle": verify_cocycle,
        "convolve2": convolve2,
    }
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
    # the hosts of check 03 and of the five catalog cocycles, c-s3 in both
    assert calls.pop("regular_corep") <= 7
    assert calls == {
        # 11 hosts, two fresh contexts in check 13, and one per regular
        # corep, each of which solves its own
        "haar_state": 19,
        # six cocycles (the five catalog ones and the trivial-4 scene's),
        # each twisted forward and back once
        "twist_algebra": 12,
        # 11 hosts, the five twisted catalog hosts, and check 13's two
        "decompose": 18,
        # checks 03, 09 and 13, two each
        "decompose_corep": 6,
        # each scene's spectral basis, which deform_triple takes, and its
        # image closure per scene
        "operator_span_basis": 8,
        # check 04's five, and the inverse cocycle of each of six roundtrips
        "verify_cocycle": 11,
        # two per invert2 of the six inverse cocycles, whose inverse residual
        # the cocycle keeps, and one per twist_algebra, whose half-twisted
        # product is convolve2_terms
        "convolve2": 24,
    }


def test_the_haar_check_reads_the_twisted_product(ctx):
    # check 07 takes the twisted algebra's own trace state; scaling the
    # twisted product scales that state, while the coproduct and unit, and
    # with them the original's invariance residual, are untouched
    d = _Derived(ctx)
    sigma = d.cocycles["klein-induced"]
    tw = d.twists[sigma]
    d.twists[sigma] = dataclasses.replace(
        tw, twisted=dataclasses.replace(tw.twisted, mul=2 * tw.twisted.mul)
    )
    (threshold,) = [t for prefix, _, t, _ in suite_module._CHECKS if prefix == "07.haar."]
    residuals = dict(suite_module._haar(d))
    assert residuals["klein-induced"] > threshold
    assert all(r <= threshold for name, r in residuals.items() if name != "klein-induced")
