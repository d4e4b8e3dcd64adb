import dataclasses
import tracemalloc

import numpy as np
import pytest

import hopftwist.corep as corep_module
import hopftwist.deform as deform_module
from hopftwist import (
    RTwistedVolume,
    SpectralTriple,
    UnitaryCorep,
    catalog,
    check_membership,
    check_volume_preservation,
    cyclic_group,
    decompose,
    decompose_corep,
    deform_triple,
    direct_product,
    equivariance_residual,
    extract_block_form,
    from_bicharacter,
    group_algebra,
    haar_state,
    intertwine_check,
    r_sigma,
    regular_corep,
    rho_sigma,
    spectral_projection,
    twist_algebra,
    twisted_operator_product,
    twisted_operator_star,
    trivial_cocycle,
)
from hopftwist._linalg import extend_rows
from hopftwist.deform import operator_span_basis
from hopftwist.errors import (
    DimensionMismatch,
    HostMismatch,
    InputError,
    NotEquivariant,
    NotInCategory,
)

SCENES = catalog.triple_names()


def _scene_pw(scene, ctx):
    host = scene["host"]
    return decompose(host, haar_state(host, ctx), ctx)


def test_spectral_triple_validation():
    eye = np.eye(3, dtype=np.complex128)
    herm = np.diag([0.0, 1.0, 2.0]).astype(np.complex128)
    SpectralTriple(3, (eye,), herm)
    with pytest.raises(InputError):
        SpectralTriple(3, (eye,), herm + 1j * np.eye(3))
    with pytest.raises(DimensionMismatch):
        SpectralTriple(3, (np.eye(2, dtype=np.complex128),), herm)
    with pytest.raises(InputError):
        SpectralTriple(3, (eye,), herm, labels=("a", "b"))
    shift = np.roll(eye, 1, axis=0)
    with pytest.raises(InputError):
        # a single cyclic shift alone is not closed under the adjoint
        SpectralTriple(3, (shift,), herm)
    SpectralTriple(3, (shift, shift.conj().T), herm)


@pytest.mark.parametrize("where", ("dirac", "generator"))
def test_spectral_triple_rejects_non_finite_entries(where, capfd):
    eye = np.eye(2, dtype=np.complex128)
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    gens, dirac = ((eye,), nan) if where == "dirac" else ((nan,), eye)
    with pytest.raises(InputError, match="finite"):
        SpectralTriple(2, gens, dirac)
    # rejected before LAPACK sees the NaN and writes to stderr
    assert capfd.readouterr().err == ""


def test_volume_matrix_validation():
    RTwistedVolume(np.diag([1.0, 2.0]).astype(np.complex128))
    with pytest.raises(InputError):
        RTwistedVolume(np.diag([1.0, -2.0]).astype(np.complex128))
    with pytest.raises(InputError):
        RTwistedVolume(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        RTwistedVolume(np.zeros((2, 3)))
    rv = RTwistedVolume(np.diag([2.0, 3.0]).astype(np.complex128))
    assert rv.hdim == 2
    x = np.array([[1.0, 5.0], [7.0, 1.0]])
    assert abs(rv.tau(x) - 5.0) < 1e-12


def test_identity_volume_is_preserved_on_every_scene(ctx):
    for name in SCENES:
        scene = catalog.triple_scene(name, ctx)
        verdict = check_volume_preservation(scene["corep"], scene["volume"], ctx)
        assert verdict["passed"]
        assert verdict["residual"] <= 1e-9


def test_preservation_requires_matching_dimension(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    small = RTwistedVolume(np.eye(2, dtype=np.complex128))
    with pytest.raises(DimensionMismatch):
        check_volume_preservation(scene["corep"], small, ctx)


def test_block_form_recovery_with_a_multiplicity_two_block(ctx, rng):
    # the d4 regular corep carries a two-dimensional block of multiplicity
    # two, so the irrep and multiplicity legs must not be mixed up
    scene = catalog.triple_scene("d4-regular", ctx)
    corep = scene["corep"]
    pw = _scene_pw(scene, ctx)
    sd = decompose_corep(corep, pw, ctx)
    assert max(e["basis"].shape[1] for e in sd.entries) == 2
    planted = {}
    r_total = np.zeros((corep.hdim, corep.hdim), dtype=np.complex128)
    for entry in sd.entries:
        mult = entry["basis"].shape[0]
        a = rng.normal(size=(mult, mult)) + 1j * rng.normal(size=(mult, mult))
        t_mat = a @ a.conj().T + 0.25 * np.eye(mult)
        planted[entry["block"]] = t_mat
        r_total += np.einsum(
            "st,sax,tay->xy", t_mat, entry["basis"], entry["basis"].conj()
        )
    rv = RTwistedVolume(0.5 * (r_total + r_total.conj().T))
    form = extract_block_form(corep, rv, sd, ctx)
    assert form["passed"]
    assert form["reconstruction_residual"] <= 1e-9
    for blk in form["blocks"]:
        assert np.abs(blk["t"] - planted[blk["block"]]).max() <= 1e-9


def test_non_equivariant_volume_is_rejected(ctx):
    scene = catalog.triple_scene("d4-regular", ctx)
    corep = scene["corep"]
    pw = _scene_pw(scene, ctx)
    sd = decompose_corep(corep, pw, ctx)
    r_bad = np.eye(corep.hdim, dtype=np.complex128)
    r_bad[0, 1] = r_bad[1, 0] = 0.3
    bad = RTwistedVolume(r_bad)
    if equivariance_residual(corep, r_bad) <= ctx.tolerance:
        pytest.skip("perturbation landed inside the commutant")
    with pytest.raises(NotEquivariant):
        extract_block_form(corep, bad, sd, ctx)


def test_volume_matrix_rejects_non_finite_entries():
    for bad in (
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.diag([np.inf, 1.0]),
        # one-sided: the self-adjointness drift is inf, not NaN
        np.array([[1.0, np.inf], [0.0, 1.0]]),
    ):
        with pytest.raises(InputError, match="^volume matrix has a non-finite entry$"):
            RTwistedVolume(bad)
    stack = np.stack([np.diag([1.0 + k, 2.0]) for k in range(5)]).astype(np.complex128)
    RTwistedVolume(stack)
    stack[2, 0, 1] = np.nan
    with pytest.raises(InputError, match=r"^volume matrix\[2\] has a non-finite entry$"):
        RTwistedVolume(stack)


def test_volume_matrix_validates_every_member_of_a_stack():
    good = np.stack([np.diag([1.0 + k, 2.0]) for k in range(4)]).astype(np.complex128)
    good = good.reshape(2, 2, 2, 2)
    rv = RTwistedVolume(good)
    assert rv.hdim == 2
    x = np.array([[1.0, 5.0], [7.0, 1.0]])
    want = [[RTwistedVolume(r).tau(x) for r in row] for row in good]
    assert np.abs(rv.tau(x) - np.array(want)).max() <= 1e-12
    skew = good.copy()
    skew[1, 0, 0, 1] = 1.0
    with pytest.raises(InputError, match=r"^volume matrix\[1\]\[0\] must be self-adjoint$"):
        RTwistedVolume(skew)
    negative = good.copy()
    negative[0, 1] = np.diag([1.0, -2.0])
    with pytest.raises(InputError, match=r"^volume matrix\[0\]\[1\] must be positive invertible"):
        RTwistedVolume(negative)
    for shape in ((4, 2, 3), (3,)):
        with pytest.raises(DimensionMismatch):
            RTwistedVolume(np.ones(shape))


def _equivariant_stack(sd, rng, draws):
    """draws random positive matrices commuting with the corep of sd."""
    hdim = sd.entries[0]["basis"].shape[2]
    r = np.zeros((draws, hdim, hdim), dtype=np.complex128)
    for entry in sd.entries:
        m = entry["multiplicity"]
        a = rng.normal(size=(draws, m, m)) + 1j * rng.normal(size=(draws, m, m))
        t = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.25 * np.eye(m)
        r += np.einsum("dst,sax,tay->dxy", t, entry["basis"], entry["basis"].conj())
    return 0.5 * (r + np.conj(np.swapaxes(r, -1, -2)))


@pytest.mark.parametrize("name", SCENES)
def test_stacked_volume_functions_equal_per_matrix_calls(name, ctx, rng):
    scene = catalog.triple_scene(name, ctx)
    corep = scene["corep"]
    n_h = corep.hdim
    pw = _scene_pw(scene, ctx)
    sd = decompose_corep(corep, pw, ctx)
    equivariant = _equivariant_stack(sd, rng, 6).reshape(2, 3, n_h, n_h)
    # positive but not equivariant, so the residuals are far from rounding
    a = rng.normal(size=(4, n_h, n_h)) + 1j * rng.normal(size=(4, n_h, n_h))
    generic = a @ np.conj(np.swapaxes(a, -1, -2)) + np.eye(n_h)
    for stack in (equivariant, generic):
        lead = stack.shape[:-2]
        singles = [RTwistedVolume(r) for r in stack.reshape(-1, n_h, n_h)]
        got = equivariance_residual(corep, stack)
        want = [equivariance_residual(corep, rv.r) for rv in singles]
        assert got.shape == lead
        assert np.abs(got.reshape(-1) - want).max() <= 1e-12
        got = check_volume_preservation(corep, RTwistedVolume(stack), ctx)
        want = [check_volume_preservation(corep, rv, ctx) for rv in singles]
        assert got["residual"].shape == got["passed"].shape == lead
        assert np.abs(got["residual"].reshape(-1) - [w["residual"] for w in want]).max() <= 1e-12
        assert got["passed"].reshape(-1).tolist() == [w["passed"] for w in want]
    assert not any(w["passed"] for w in want)

    form = extract_block_form(corep, RTwistedVolume(equivariant), sd, ctx, pw=pw)
    assert form["passed"].shape == (2, 3)
    for index in np.ndindex(2, 3):
        one = extract_block_form(corep, RTwistedVolume(equivariant[index]), sd, ctx, pw=pw)
        assert one["passed"] is True and one["preserved"] is True
        for key in ("preservation_residual", "equivariance", "reconstruction_residual"):
            assert isinstance(one[key], float)
            assert abs(form[key][index] - one[key]) <= 1e-12
        for key in ("preserved", "passed"):
            assert form[key][index] == one[key]
        for blk, single in zip(form["blocks"], one["blocks"]):
            assert blk["block"] == single["block"]
            assert blk["multiplicity"] == single["multiplicity"]
            assert blk["t"].shape == (2, 3) + single["t"].shape
            assert np.abs(blk["t"][index] - single["t"]).max() <= 1e-12


def test_stacked_block_form_names_the_first_non_equivariant_draw(ctx, rng):
    scene = catalog.triple_scene("d4-regular", ctx)
    corep = scene["corep"]
    sd = decompose_corep(corep, _scene_pw(scene, ctx), ctx)
    stack = _equivariant_stack(sd, rng, 6)
    # each draw is at least 0.25 * identity, so these bumps keep it positive
    bump = np.zeros((corep.hdim, corep.hdim))
    bump[0, 1] = bump[1, 0] = 0.1
    stack[3] += bump
    stack[5] += 2.0 * bump
    residuals = equivariance_residual(corep, stack)
    assert residuals[3] > ctx.tolerance and residuals[5] > residuals[3]
    assert (residuals[[0, 1, 2, 4]] <= ctx.tolerance).all()
    with pytest.raises(NotEquivariant) as exc:
        extract_block_form(corep, RTwistedVolume(stack), sd, ctx)
    assert str(exc.value) == (
        "volume matrix[3] does not commute with the corep "
        f"(residual {residuals[3]:.3g})"
    )


def test_commuting_translations_deform_to_an_anticommuting_pair(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    t_op, s_op = scene["triple"].generators[0], scene["triple"].generators[1]
    assert np.abs(t_op @ s_op - s_op @ t_op).max() <= 1e-12
    rho_t = rho_sigma(scene["corep"], scene["cocycle"], t_op)
    rho_s = rho_sigma(scene["corep"], scene["cocycle"], s_op)
    assert np.abs(rho_t @ rho_s + rho_s @ rho_t).max() <= 1e-9
    assert np.abs(rho_t @ rho_s).max() > 0.5


def test_deformation_is_an_algebra_map_on_operators(ctx, rng):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    corep, sigma = scene["corep"], scene["cocycle"]
    n = corep.hdim
    for _ in range(5):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = rho_sigma(corep, sigma, twisted_operator_product(corep, sigma, a, b))
        rhs = rho_sigma(corep, sigma, a) @ rho_sigma(corep, sigma, b)
        assert np.abs(lhs - rhs).max() <= 1e-9
        star = rho_sigma(corep, sigma, twisted_operator_star(corep, sigma, a, ctx))
        assert np.abs(star - rho_sigma(corep, sigma, a).conj().T).max() <= 1e-9


def test_deform_triple_keeps_the_dirac_matrix(ctx):
    for name in SCENES:
        scene = catalog.triple_scene(name, ctx)
        result = deform_triple(
            scene["triple"], scene["corep"], scene["cocycle"], ctx
        )
        assert result.dirac is scene["triple"].dirac
        assert result.transcript["commutator_identity"] <= 1e-9
        assert result.transcript["dirac_equivariance"] <= 1e-9
        assert result.transcript["spectral_dimension"] >= len(
            scene["triple"].generators
        )


@pytest.mark.parametrize("name", SCENES)
def test_deform_triple_splits_and_weighs_along_the_spectral_projections(name, ctx):
    scene = catalog.triple_scene(name, ctx)
    pw = _scene_pw(scene, ctx)
    st, corep = scene["triple"], scene["corep"]
    result = deform_triple(st, corep, scene["cocycle"], ctx, pw=pw)
    projections = [spectral_projection(corep, pw, k)["p"] for k in range(len(pw.blocks))]
    span = operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance)
    stack = np.stack([m.reshape(-1) for m in span], axis=1)
    want = sum(np.linalg.matrix_rank(p @ stack, tol=ctx.loose_tolerance) for p in projections)
    assert result.transcript["spectral_dimension"] == want
    # the projections are orthogonal and sum to the identity, so the block
    # weights of a generator add up to its Frobenius norm in squares
    for entry, gen in zip(result.transcript["generator_blocks"], st.generators):
        total = sum(w * w for _, w in entry["blocks"])
        assert abs(total - np.linalg.norm(gen) ** 2) <= 1e-9 * np.linalg.norm(gen) ** 2


def test_deform_triple_on_z4z4_torus_peaks_under_8_mib(ctx):
    """The projections act on ad_v's coaction leg: neither the N^4 n tensor
    (16 MiB at N = n = 16) nor any N^2 x N^2 projection is built."""
    scene = catalog.triple_scene("z4z4-torus", ctx)
    pw = _scene_pw(scene, ctx)
    tracemalloc.start()
    try:
        deform_triple(scene["triple"], scene["corep"], scene["cocycle"], ctx, pw=pw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _peak(fn) -> int:
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deform_and_intertwine_on_z4z4_torus_peak_under_3_mib(ctx):
    """deform_triple splits the span a few blocks at a time and
    intertwine_check compares a few coaction legs at a time, each through
    the nonzero entries of u: neither holds the coaction leg of its stack."""
    scene = catalog.triple_scene("z4z4-torus", ctx)
    pw = _scene_pw(scene, ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    st, corep = scene["triple"], scene["corep"]
    basis = np.stack(operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance))
    # a first call of each builds what numpy builds once per process
    calls = (
        lambda: deform_triple(st, corep, scene["cocycle"], ctx, pw=pw),
        lambda: intertwine_check(corep, tw, basis, ctx),
    )
    for call in calls:
        call()
        assert _peak(call) <= 3 * 2**20


def _torus_scene(m, ctx):
    """The quantum torus Z_m x Z_m, built like the catalog's z4z4-torus:
    G(Z_m^2) with its regular corep, the four unit translations, the degree
    Dirac matrix, and the bicharacter zeta_m^(g1 h0), read off the character
    table so that its quarter turns are exact."""
    group = direct_product(cyclic_group(m), cyclic_group(m))
    host = group_algebra(group)
    corep = regular_corep(host, ctx)
    a, b = np.divmod(np.arange(m * m), m)
    units = {(1, 0), (m - 1, 0), (0, 1), (0, m - 1)}
    picked = [g for g in range(m * m) if (a[g], b[g]) in units]
    gens = []
    for g in picked:
        t = np.zeros((m * m, m * m), dtype=np.complex128)
        t[[group.multiply(g, h) for h in range(m * m)], range(m * m)] = 1.0
        gens.append(t)
    labels = tuple(f"t[{group.labels[g]}]" for g in picked)
    degree = np.minimum(a, m - a) + np.minimum(b, m - b)
    st = SpectralTriple(m * m, tuple(gens), np.diag(degree).astype(np.complex128), labels)
    table = catalog.fourier_matrix(group)[np.ix_(b, a)]
    sigma = from_bicharacter(group, table, ctx, host=host)
    return st, corep, sigma, decompose(host, haar_state(host, ctx), ctx)


def test_torus_scene_at_m_4_reproduces_z4z4_torus(ctx):
    st, corep, sigma, pw = _torus_scene(4, ctx)
    scene = catalog.triple_scene("z4z4-torus", ctx)
    assert np.array_equal(corep.u, scene["corep"].u)
    assert np.array_equal(sigma.sigma, scene["cocycle"].sigma)
    got = deform_triple(st, corep, sigma, ctx, pw=pw)
    scene_pw = _scene_pw(scene, ctx)
    want = deform_triple(scene["triple"], scene["corep"], scene["cocycle"], ctx, pw=scene_pw)
    assert got.transcript == want.transcript


def test_deform_triple_on_the_z8z8_torus_in_bounded_memory(ctx):
    """N = n = 64: the span has 64 elements and so has the image algebra.
    Through a dense (N, N, n, n) corep product this took 17.5 s and
    1568 MiB."""
    st, corep, sigma, pw = _torus_scene(8, ctx)
    out = []
    peak = _peak(lambda: out.append(deform_triple(st, corep, sigma, ctx, pw=pw)))
    transcript = out[0].transcript
    assert peak < 256 * 2**20
    assert transcript["spectral_dimension"] == transcript["generated_dimension"] == 64
    assert transcript["commutator_identity"] <= ctx.tolerance


@pytest.mark.parametrize("name", ("z2z2-torus", "z4z4-torus"))
def test_commutator_identity_catches_a_wrong_deformed_image(name, ctx, monkeypatch):
    """The expansion sum_c [D, a_(0)^c] legs[c] is summed from the coaction
    legs, apart from the images.  Images that pair each leg c with the
    operator of leg c + 1 are still linear in the operators, and the
    residual shows them far above the tolerance."""
    scene = catalog.triple_scene(name, ctx)
    args = (scene["triple"], scene["corep"], scene["cocycle"], ctx)
    pw = _scene_pw(scene, ctx)
    assert deform_triple(*args, pw=pw).transcript["commutator_identity"] <= ctx.tolerance
    along = corep_module._FusedAdjoint.along

    def corrupted(self, ops):
        return along(self, np.roll(ops, 1, axis=0))

    monkeypatch.setattr(corep_module._FusedAdjoint, "along", corrupted)
    assert deform_triple(*args, pw=pw).transcript["commutator_identity"] > 1e3 * ctx.tolerance


@pytest.mark.parametrize("name", SCENES)
def test_deform_triple_does_not_depend_on_the_carrier_basis(name, ctx, rng):
    """The scene in a random unitary basis W of the carrier space, where no
    entry of the corep is zero: the deformed triple is W (.) W^H of the
    original, so dimensions, block weights and identities carry over."""
    scene = catalog.triple_scene(name, ctx)
    corep, st = scene["corep"], scene["triple"]
    w, _ = np.linalg.qr(rng.normal(size=(st.hdim,) * 2) + 1j * rng.normal(size=(st.hdim,) * 2))
    moved = UnitaryCorep(corep.host, corep.hdim, np.einsum("ik,klc,jl->ijc", w, corep.u, w.conj()))
    gens = tuple(w @ g @ w.conj().T for g in st.generators)
    moved_st = SpectralTriple(st.hdim, gens, w @ st.dirac @ w.conj().T, st.labels)
    pw = _scene_pw(scene, ctx)
    want = deform_triple(st, corep, scene["cocycle"], ctx, pw=pw).transcript
    got = deform_triple(moved_st, moved, scene["cocycle"], ctx, pw=pw).transcript
    for key in ("spectral_dimension", "generated_dimension"):
        assert got[key] == want[key]
    assert got["commutator_identity"] <= ctx.tolerance
    for mine, theirs in zip(got["generator_blocks"], want["generator_blocks"]):
        assert [k for k, _ in mine["blocks"]] == [k for k, _ in theirs["blocks"]]
        weights = [[weight for _, weight in entry["blocks"]] for entry in (mine, theirs)]
        assert np.allclose(*weights, atol=1e-9)


def test_deform_triple_on_a_noncommutative_z4z4_scene(ctx):
    """The translations of z4z4-torus with the clock operators diag(i^a) and
    diag(i^b) generate all of M_16, and so do their deformed images."""
    scene = catalog.triple_scene("z4z4-torus", ctx)
    a, b = np.divmod(np.arange(16), 4)
    clocks = [np.diag(1j**a), np.diag(1j**b)]
    gens = scene["triple"].generators + tuple(clocks) + tuple(c.conj().T for c in clocks)
    st = SpectralTriple(16, gens, np.zeros((16, 16), dtype=np.complex128))
    result = deform_triple(st, scene["corep"], scene["cocycle"], ctx, pw=_scene_pw(scene, ctx))
    assert result.transcript["spectral_dimension"] == 256
    assert result.transcript["generated_dimension"] == 256
    assert result.transcript["commutator_identity"] <= ctx.tolerance


def test_deform_triple_rejects_non_commuting_dirac(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    bad_dirac = np.diag([0.0, 1.0, 2.0, 3.0]).astype(np.complex128)
    bad_dirac[0, 1] = bad_dirac[1, 0] = 0.4
    triple = SpectralTriple(4, scene["triple"].generators, bad_dirac)
    if equivariance_residual(scene["corep"], bad_dirac) <= ctx.tolerance:
        pytest.skip("perturbation landed inside the commutant")
    with pytest.raises(NotInCategory):
        deform_triple(triple, scene["corep"], scene["cocycle"], ctx)


@pytest.mark.parametrize(
    "call",
    (
        lambda scene, tw, bad: rho_sigma(scene["corep"], scene["cocycle"], bad),
        lambda scene, tw, bad: twisted_operator_product(
            scene["corep"], scene["cocycle"], bad, np.eye(4)
        ),
        lambda scene, tw, bad: twisted_operator_product(
            scene["corep"], scene["cocycle"], np.eye(4), bad
        ),
        lambda scene, tw, bad: twisted_operator_star(scene["corep"], scene["cocycle"], bad),
        lambda scene, tw, bad: intertwine_check(scene["corep"], tw, bad),
    ),
    ids=("rho_sigma", "product-left", "product-right", "star", "intertwine_check"),
)
def test_operators_of_the_wrong_shape_raise_dimension_mismatch(call, ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    # a trailing length of 1 would broadcast against any axis
    for bad in (np.ones((1, 1)), np.ones((4, 1)), np.ones((3, 4, 5)), np.ones(4)):
        with pytest.raises(DimensionMismatch):
            call(scene, tw, bad)


def test_twisted_volume_stays_positive_and_central(ctx):
    for name in SCENES:
        scene = catalog.triple_scene(name, ctx)
        tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
        rv2 = r_sigma(scene["volume"], scene["corep"], tw.v, ctx)
        evals = np.linalg.eigvalsh(rv2.r)
        assert evals[0] > 0
        assert np.abs(rv2.r - rv2.r.conj().T).max() <= 1e-12
        dirac = scene["triple"].dirac
        assert np.abs(rv2.r @ dirac - dirac @ rv2.r).max() <= 1e-9


def test_intertwine_residual_is_small_on_generators(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    for gen in scene["triple"].generators:
        assert intertwine_check(scene["corep"], tw, gen, ctx) <= 1e-9


def test_intertwine_check_sees_a_wrong_cocycle(ctx):
    # on the two torus scenes the same swap still reads 0.0, so the guard
    # runs on the dihedral scene
    scene = catalog.triple_scene("d4-regular", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    wrong = dataclasses.replace(tw, cocycle=trivial_cocycle(scene["host"]))
    st = scene["triple"]
    basis = operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance)
    assert max(intertwine_check(scene["corep"], tw, t, ctx) for t in basis) <= 1e-9
    assert max(intertwine_check(scene["corep"], wrong, t, ctx) for t in basis) > 0.1


@pytest.mark.parametrize("name", SCENES)
def test_stacked_intertwine_check_is_the_worst_element(name, ctx):
    scene = catalog.triple_scene(name, ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    st = scene["triple"]
    basis = np.stack(operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance))
    per_element = max(intertwine_check(scene["corep"], tw, t, ctx) for t in basis)
    stacked = intertwine_check(scene["corep"], tw, basis, ctx)
    assert abs(stacked - per_element) <= 1e-14
    two_axes = basis[: 2 * (len(basis) // 2)].reshape(2, -1, st.hdim, st.hdim)
    assert intertwine_check(scene["corep"], tw, two_axes, ctx) <= per_element + 1e-14


def test_stacked_intertwine_check_sees_a_wrong_cocycle(ctx):
    scene = catalog.triple_scene("d4-regular", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    wrong = dataclasses.replace(tw, cocycle=trivial_cocycle(scene["host"]))
    st = scene["triple"]
    basis = np.stack(operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance))
    assert intertwine_check(scene["corep"], tw, basis, ctx) <= 1e-9
    worst = intertwine_check(scene["corep"], wrong, basis, ctx)
    assert worst > 0.1
    per_element = max(intertwine_check(scene["corep"], wrong, t, ctx) for t in basis)
    assert abs(worst - per_element) <= 1e-12 * per_element


def test_intertwine_requires_the_same_host(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    other = catalog.algebra("c-s3")
    tw = twist_algebra(other, catalog.cocycle("trivial-s3", ctx), ctx)
    with pytest.raises(HostMismatch):
        intertwine_check(scene["corep"], tw, scene["triple"].generators[0], ctx)


def test_membership_verdicts_on_catalog_scenes(ctx):
    for name in SCENES:
        scene = catalog.triple_scene(name, ctx)
        report = check_membership(
            scene["corep"], scene["triple"], scene["volume"], ctx
        )
        assert report.member
        for _, residual, ok in report.verdicts():
            assert ok
            assert residual <= 1e-9
        assert report.twisted is None


def test_membership_with_twist_attaches_the_deformed_verdicts(ctx):
    scene = catalog.triple_scene("z2z2-torus", ctx)
    tw = twist_algebra(scene["host"], scene["cocycle"], ctx)
    report = check_membership(
        scene["corep"], scene["triple"], scene["volume"], ctx, tw=tw
    )
    assert report.member
    assert report.twisted is not None
    assert report.twisted.member


def test_membership_flags_a_non_preserving_volume(ctx):
    # the abelian scenes preserve every volume (trivial adjoint coaction),
    # so the check needs the dihedral scene to have teeth
    scene = catalog.triple_scene("d4-regular", ctx)
    skew = RTwistedVolume(np.diag(np.arange(1.0, 9.0)).astype(np.complex128))
    report = check_membership(scene["corep"], scene["triple"], skew, ctx)
    assert not report.volume_preserved
    assert not report.member
    assert report.corep_valid


def test_double_deformation_returns_every_operator(ctx, rng):
    from hopftwist import DualCocycle

    scene = catalog.triple_scene("z2z2-torus", ctx)
    corep, sigma = scene["corep"], scene["cocycle"]
    tw = twist_algebra(scene["host"], sigma, ctx)
    corep_sigma = type(corep)(tw.twisted, corep.hdim, corep.u)
    sigma_inv = DualCocycle(tw.twisted, sigma.sigma_inv, ctx=ctx)
    n = corep.hdim
    for _ in range(3):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        once = rho_sigma(corep, sigma, a)
        back = rho_sigma(corep_sigma, sigma_inv, once)
        assert np.abs(back - a).max() <= 1e-9


def _gram_schmidt_step(v, basis, tol):
    """Orthonormalize v against basis; None when the residual is negligible."""
    w = np.asarray(v, dtype=np.complex128).copy()
    for _ in range(2):
        for b in basis:
            w -= b * np.vdot(b, w)
    norm = float(np.linalg.norm(w))
    if norm <= tol:
        return None
    return w / norm


def _unscreened_span_basis(mats, hdim, tol):
    """The closure loop with every product of two basis elements going
    through one Gram-Schmidt step at a time."""
    basis = []

    def absorb(m):
        nxt = _gram_schmidt_step(m.reshape(-1), basis, tol)
        if nxt is None:
            return False
        basis.append(nxt)
        return True

    absorb(np.eye(hdim, dtype=np.complex128))
    for m in mats:
        absorb(np.asarray(m, dtype=np.complex128))
        absorb(np.asarray(m, dtype=np.complex128).conj().T)
    changed = True
    while changed:
        changed = False
        current = [b.reshape(hdim, hdim) for b in basis]
        for x in current:
            if absorb(x.conj().T):
                changed = True
        for x in current:
            for y in current:
                if absorb(x @ y):
                    changed = True
    return [b.reshape(hdim, hdim) for b in basis]


def _assert_orthonormal_span(got, projector):
    """got is an orthonormal basis of the span whose orthogonal projector
    (over vectorized operators) is given, both within 1e-12."""
    rows = np.stack(got).reshape(len(got), -1)
    assert np.abs(rows.conj() @ rows.T - np.eye(len(rows))).max() <= 1e-12
    assert np.abs(rows.T @ rows.conj() - projector).max() <= 1e-12


def _assert_same_span_basis(mats, hdim, tol):
    got = operator_span_basis(mats, hdim, tol)
    want = np.stack(_unscreened_span_basis(mats, hdim, tol)).reshape(-1, hdim * hdim)
    assert len(got) == len(want)
    _assert_orthonormal_span(got, want.T @ want.conj())
    return len(got)


def test_extend_rows_on_nearly_dependent_candidates(rng):
    # rows live in the first 12 of 16 coordinates; two candidates differ by 1e-5
    def rand(k):
        x = np.zeros((k, 16), dtype=np.complex128)
        x[:, :12] = rng.normal(size=(k, 12)) + 1j * rng.normal(size=(k, 12))
        return x

    basis = np.linalg.qr(rand(3).T)[0].T
    v, u, w = rand(3)
    cands = np.stack([v, v + 1e-5 * u, w, v + w])
    got = extend_rows(basis, cands, 1e-6)
    want = list(basis)
    for c in cands:
        nxt = _gram_schmidt_step(c, want, 1e-6)
        if nxt is not None:
            want.append(nxt)
    assert len(got) == len(want) - len(basis) == 3
    both = np.concatenate([basis, got])
    assert np.abs(both.conj() @ both.T - np.eye(6)).max() <= 1e-14
    # a coordinate that is zero in every input stays exactly zero
    assert not got[:, 12:].any()
    # the direction of u is fixed only to about eps / 1e-5
    ref = np.stack(want)
    assert np.abs(both.T @ both.conj() - ref.T @ ref.conj()).max() <= 1e-9
    assert len(extend_rows(both, cands, 1e-6)) == 0


@pytest.mark.parametrize("name", SCENES)
def test_screened_closure_matches_the_unscreened_loop_on_scenes(name, ctx):
    scene = catalog.triple_scene(name, ctx)
    st = scene["triple"]
    _assert_same_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance)
    # the image closure of deform_triple, over the deformed operators
    span = np.stack(operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance))
    images = rho_sigma(scene["corep"], scene["cocycle"], span)
    _assert_same_span_basis(list(images), st.hdim, ctx.loose_tolerance)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_screened_closure_matches_the_unscreened_loop_on_matrix_algebras(n, ctx):
    diag = np.diag(np.arange(1.0, n + 1)).astype(np.complex128)
    shift = np.roll(np.eye(n, dtype=np.complex128), 1, axis=0)
    tol = ctx.loose_tolerance
    assert _assert_same_span_basis([diag], n, tol) == n
    assert _assert_same_span_basis([shift], n, tol) == n
    # diagonal plus shift generate all of M_n, with real or complex entries
    assert _assert_same_span_basis([diag, shift], n, tol) == n * n
    assert _assert_same_span_basis([diag, np.exp(0.3j) * shift], n, tol) == n * n


def test_frontier_closure_of_a_block_diagonal_algebra(ctx):
    # distinct diagonal entries and a cyclic shift inside each block generate
    # M_4 + M_4 + M_8 inside M_16, of dimension 16 + 16 + 64
    sizes = (4, 4, 8)
    diag = np.diag(np.arange(1.0, 17.0)).astype(np.complex128)
    shift = np.zeros((16, 16), dtype=np.complex128)
    mask = np.zeros((16, 16))
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        shift[block, block] = np.exp(0.3j) * np.roll(np.eye(size), 1, axis=0)
        mask[block, block] = 1.0
        start += size
    got = operator_span_basis([diag, shift], 16, ctx.loose_tolerance)
    assert len(got) == 96
    _assert_orthonormal_span(got, np.diag(mask.reshape(-1)))


def test_frontier_closure_multiplies_each_direction_once_per_letter(ctx, monkeypatch):
    rows = [0]

    def counting(basis, cands, tol, _original=deform_module.extend_rows):
        rows[0] += len(cands)
        return _original(basis, cands, tol)

    monkeypatch.setattr(deform_module, "extend_rows", counting)
    n = 6
    diag = np.diag(np.arange(1.0, n + 1)).astype(np.complex128)
    shift = np.exp(0.3j) * np.roll(np.eye(n, dtype=np.complex128), 1, axis=0)
    seeds = np.stack([diag, shift, diag.conj().T, shift.conj().T])
    letters = np.linalg.matrix_rank(seeds.reshape(4, -1))
    assert len(operator_span_basis([diag, shift], n, ctx.loose_tolerance)) == n * n
    # the seed rows go in twice (as candidates for the letters, then against
    # the identity); after that, one product per direction and letter
    assert rows[0] <= len(seeds) + letters + n * n * letters
