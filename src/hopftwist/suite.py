"""The built-in verification suite.

Every finitely checkable claim the library is built around is exercised on
the catalog and reported as one named check with a measured residual and a
threshold.  Check ids are stable and ordered; a rerun with the same seed
produces byte-identical canonical report bytes.  One table lists the check
families, and every family reads the objects that a run derives once.

One check is waived: on the eight-dimensional dihedral function algebra,
every dual 2-cocycle twist stays commutative, so the requested
noncommutativity witness cannot exist.  The check runs, reports the zero
witness honestly, and is marked expected-to-fail rather than silently
passing.
"""

from __future__ import annotations

import random
import time

import numpy as np

from . import catalog
from ._linalg import uniform
from .cocycle import verify_cocycle
from .core import (
    DEFAULT_CONTEXT,
    FiniteHopfStarAlgebra,
    ScalarContext,
    dual,
    max_abs,
    verify_hopf_axioms,
)
from .corep import decompose_corep, pi_u, regular_corep
from .deform import (
    RTwistedVolume,
    check_volume_preservation,
    deform_triple,
    extract_block_form,
    intertwine_check,
    operator_span_basis,
    r_sigma,
    rho_sigma,
    twisted_operator_product,
    twisted_operator_star,
)
from .peterweyl import HaarState, PeterWeylData, decompose, haar_pairing, haar_state
from .peterweyl import _trace_state, haar_invariance_residual
from .report import CheckRecord, VerificationReport
from .serialize import canonical_dumps
from .twist import _corep_sigma, f_matrix_relation, roundtrip, twist_algebra, twist_corep

Array = np.ndarray

PAPER_SUITE = "paper"

_STRICT = 1e-9
_BLOCK_TOL = 1e-8
_EXACT = 1e-12
_BOOL = 0.5
_RANDOM_DRAWS = 50
_MULT_REP_HOSTS = ("c-s3", "g-d4")


def _bool_residual(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _schur_residual(pw: PeterWeylData) -> float:
    """Orthogonality of matrix coefficients in both orders, against the
    identity-F, M = d pattern, across and inside blocks."""
    host, h = pw.host, pw.haar
    # every block's q as rows (block, i, j); h(q_ij q_kl*) is then
    # delta_ik delta_jl / M inside a block and 0 across blocks
    q = np.concatenate([b.q.reshape(-1, host.dim) for b in pw.blocks])
    want = np.diag(np.concatenate([np.full(b.dimension**2, 1.0 / b.m_value) for b in pw.blocks]))
    return max(
        max_abs(haar_pairing(host, h, q, host.star_of(q)) - want),
        max_abs(haar_pairing(host, h, host.star_of(q), q) - want),
        *(max_abs(b.f_matrix - np.eye(b.dimension)) for b in pw.blocks),
        *(abs(b.m_value - b.dimension) for b in pw.blocks),
    )


def _star_hom_gap(images: Array, stars: Array, products: Array) -> float:
    """How far a map is from a *-homomorphism on a basis: the images of the
    stars against the adjoints of the images, and the images of the pairwise
    products against the products of the images."""
    return max(
        max_abs(stars - np.conj(np.swapaxes(images, -1, -2))),
        max_abs(products - images[:, None] @ images[None]),
    )


def _equivariant_volumes(
    sd, rng: random.Random, draws: int
) -> tuple[Array, dict[int, Array]]:
    """A (draws, N, N) stack of random positive equivariant matrices
    assembled blockwise, plus the (draws, m, m) multiplicity matrices."""
    # draw by draw, entry by entry, a complex m x m matrix: the order in
    # which one matrix at a time consumes rng
    sizes = [entry["multiplicity"] ** 2 for entry in sd.entries]
    stacked = uniform(rng, (draws, sum(sizes)), np.complex128)
    r = 0.0
    chosen: dict[int, Array] = {}
    for entry, part in zip(sd.entries, np.split(stacked, np.cumsum(sizes)[:-1], axis=1)):
        basis = entry["basis"]
        m, d, hdim = basis.shape
        a = part.reshape(draws, m, m)
        t = a @ np.conj(np.swapaxes(a, -1, -2)) + 0.25 * np.eye(m)
        chosen[entry["block"]] = t
        # r[x, y] += sum_sua t[s, u] basis[s, a, x] conj(basis[u, a, y])
        weighted = t @ np.conj(basis).reshape(m, -1)  # [s, (a y)]
        r = r + basis.reshape(m * d, hdim).T @ weighted.reshape(draws, m * d, hdim)
    return 0.5 * (r + np.conj(np.swapaxes(r, -1, -2))), chosen


def _form_r_residual(scene: dict, pw: PeterWeylData, ctx: ScalarContext) -> tuple[float, str]:
    sd = decompose_corep(scene["corep"], pw, ctx)
    r, chosen = _equivariant_volumes(sd, ctx.rng(), _RANDOM_DRAWS)
    form = extract_block_form(RTwistedVolume(r), sd, ctx)
    agree = int(np.count_nonzero(form["preserved"] == form["passed"]))
    worst = max(
        max_abs(form["reconstruction_residual"]),
        *(max_abs(blk["t"] - chosen[blk["block"]]) for blk in form["blocks"]),
    )
    detail = f"verdicts agree in {agree}/{_RANDOM_DRAWS} draws"
    if agree != _RANDOM_DRAWS:
        worst = max(worst, 1.0)
    return worst, detail


def _noncommutativity_witness(algebra) -> float:
    # the largest norm of e_i e_j - e_j e_i over all basis pairs
    comm = algebra.mul - algebra.mul.transpose(1, 0, 2)
    return float(np.linalg.norm(comm, axis=-1).max())


def _peter_weyl(host: FiniteHopfStarAlgebra, ctx: ScalarContext) -> PeterWeylData:
    return decompose(host, haar_state(host, ctx), ctx)


class _Derived:
    """The objects that the checks of one run share, each built once, up
    front; hosts and cocycles key the maps by identity."""

    def __init__(self, ctx: ScalarContext):
        self.ctx = ctx
        self.hosts = {name: catalog.algebra(name) for name in catalog.host_names()}
        self.pw = {host: _peter_weyl(host, ctx) for host in self.hosts.values()}
        self.cocycles = {cname: catalog.cocycle(cname, ctx) for _, cname in catalog.cocycle_pairs()}
        self.scenes = {name: catalog.triple_scene(name, ctx) for name in catalog.triple_names()}
        # three scenes twist by catalog cocycles, trivial-4 by a cocycle of its own
        scene_cocycles = [scene["cocycle"] for scene in self.scenes.values()]
        distinct = dict.fromkeys([*self.cocycles.values(), *scene_cocycles])
        self.twists = {c: twist_algebra(c.host, c, ctx) for c in distinct}
        self.roundtrips = {c: roundtrip(c.host, c, ctx, tw=self.twists[c]) for c in distinct}
        self.flagship = self.twists[self.cocycles["klein-induced"]]
        # a dual-cocycle twist keeps the coproduct and the unit, and with them
        # the unique Haar state: the twisted algebra takes the original's
        self.pw_sigma = {}
        for c in self.cocycles.values():
            twisted = self.twists[c].twisted
            haar = HaarState(twisted, self.pw[c.host].haar.coeffs)
            self.pw_sigma[c] = decompose(twisted, haar, ctx)
        # regular coreps on check 03's hosts and the cocycles' hosts; c-s3 is both
        hosts = [self.hosts[name] for name in _MULT_REP_HOSTS]
        hosts += [c.host for c in self.cocycles.values() if c.host not in hosts]
        self.coreps = {host: regular_corep(host, ctx) for host in hosts}
        self.bases, self.volumes_sigma = {}, {}
        for name, scene in self.scenes.items():
            st, v = scene["triple"], self.twists[scene["cocycle"]].v
            basis = operator_span_basis(list(st.generators), st.hdim, ctx.loose_tolerance)
            self.bases[name] = np.stack(basis)
            self.volumes_sigma[name] = r_sigma(scene["volume"], scene["corep"], v, ctx)


# a family yields (id suffix, residual) or (id suffix, residual, detail)


def _axioms(d: _Derived):
    for name, host in d.hosts.items():
        yield name, verify_hopf_axioms(host, d.ctx, subject=name).max_residual


def _blocks(d: _Derived):
    dims = tuple(sorted(d.pw[d.hosts["c-s3"]].dimensions))
    ok = dims == (1, 1, 2) and sum(k * k for k in dims) == 6
    yield "", _bool_residual(ok), f"found dimensions {dims}"


def _orthogonality(d: _Derived):
    for name, host in d.hosts.items():
        yield f"{name}.orthogonality", _schur_residual(d.pw[host])


def _star_hom(d: _Derived):
    for name in _MULT_REP_HOSTS:
        corep, pw = d.coreps[d.hosts[name]], d.pw[d.hosts[name]]
        hat = dual(pw.host)
        units = np.concatenate([b.matrix_units.reshape(-1, pw.host.dim) for b in pw.blocks])
        residual = _star_hom_gap(
            pi_u(corep, units),
            pi_u(corep, np.stack([hat.star_of(u) for u in units])),
            pi_u(corep, np.stack([[hat.product(a, b) for b in units] for a in units])),
        )
        yield f"{name}.star-hom", residual


def _rank_one(d: _Derived):
    for name in _MULT_REP_HOSTS:
        corep, pw = d.coreps[d.hosts[name]], d.pw[d.hosts[name]]
        sd = decompose_corep(corep, pw, d.ctx)
        worst = float(sd.residual)
        for entry in sd.entries:
            basis = entry["basis"]
            images = pi_u(corep, pw.blocks[entry["block"]].matrix_units)
            want = np.einsum("ipx,iry->prxy", basis, np.conj(basis))
            worst = max(worst, max_abs(images - want))
        yield f"{name}.rank-one", worst


def _cocycles(d: _Derived):
    for cname, sigma in d.cocycles.items():
        yield cname, verify_cocycle(sigma, d.ctx, subject=cname).max_residual


def _twist_axioms(d: _Derived):
    yield "", d.flagship.transcript.max_residual


def _coalgebra(d: _Derived):
    twisted, original = d.flagship.twisted, d.flagship.original
    ok = (
        np.array_equal(twisted.comul, original.comul)
        and np.array_equal(twisted.unit, original.unit)
        and np.array_equal(twisted.counit, original.counit)
    )
    yield "", _bool_residual(ok)


def _noncommutativity(d: _Derived) -> CheckRecord:
    """The waived check, the one whose verdict is witness > threshold."""
    witness = _noncommutativity_witness(d.flagship.twisted)
    return CheckRecord(
        check_id="05.twist.c-d4.noncommutativity",
        anchor="some basis pair has commutator norm above 0.5",
        residual=witness,
        threshold=_BOOL,
        passed=bool(witness > _BOOL),
        waived=True,
        detail=(
            "largest commutator norm over all basis pairs is "
            f"{witness:.3e}; every dual 2-cocycle twist of this "
            "commutative eight-dimensional algebra is again commutative, "
            "so no witness can exist and the failure is expected"
        ),
    )


def _roundtrips(d: _Derived):
    for cname, sigma in d.cocycles.items():
        rt = d.roundtrips[sigma]
        residual = max(rt["residual"], rt["inverse_cocycle_residual"])
        if not rt["coalgebra_identical"]:
            residual = max(residual, 1.0)
        yield cname, residual


def _haar(d: _Derived):
    # the twisted algebra's own trace state, against the original's Haar state
    for cname, sigma in d.cocycles.items():
        twisted = d.twists[sigma].twisted
        h_sigma = HaarState(twisted, _trace_state(twisted.mul))
        gap = max_abs(h_sigma.coeffs - d.pw[sigma.host].haar.coeffs)
        yield cname, max(gap, haar_invariance_residual(h_sigma))


def _f_matrices(d: _Derived):
    for cname, sigma in d.cocycles.items():
        rows = f_matrix_relation(d.twists[sigma], d.pw[sigma.host], d.pw_sigma[sigma], d.ctx)
        residual = max(row["residual"] for row in rows)
        if not all(row["c"] > 0 for row in rows):
            residual = max(residual, 1.0)
        yield cname, residual


def _twisted_coreps(d: _Derived):
    for cname, sigma in d.cocycles.items():
        _, rep = twist_corep(d.coreps[sigma.host], d.twists[sigma], d.ctx)
        yield cname, rep.max_residual


def _form_r(d: _Derived):
    for sname in ("z2z2-torus", "d4-regular"):
        scene = d.scenes[sname]
        residual, detail = _form_r_residual(scene, d.pw[scene["host"]], d.ctx)
        yield sname, residual, detail


def _commuting_pair(d: _Derived):
    t_op, s_op = d.scenes["z2z2-torus"]["triple"].generators[:2]
    yield "", max_abs(t_op @ s_op - s_op @ t_op)


def _anticommuting_pair(d: _Derived):
    torus = d.scenes["z2z2-torus"]
    pair = np.stack(torus["triple"].generators[:2])
    rho_t, rho_s = rho_sigma(torus["corep"], torus["cocycle"], pair)
    yield "", max_abs(rho_t @ rho_s + rho_s @ rho_t)


def _hom_star(d: _Derived):
    for sname in ("z2z2-torus", "d4-regular"):
        scene, basis = d.scenes[sname], d.bases[sname]
        corep, sigma = scene["corep"], scene["cocycle"]
        starred = twisted_operator_star(corep, sigma, basis, d.ctx)
        products = twisted_operator_product(corep, sigma, basis[:, None], basis[None])
        residual = _star_hom_gap(
            rho_sigma(corep, sigma, basis),
            rho_sigma(corep, sigma, starred),
            rho_sigma(corep, sigma, products),
        )
        yield f"{sname}.hom-star", residual


def _triples(d: _Derived):
    for sname, scene in d.scenes.items():
        st = scene["triple"]
        result = deform_triple(
            st, scene["corep"], scene["cocycle"], d.ctx, pw=d.pw[scene["host"]], span=d.bases[sname]
        )
        residual = float(result.transcript["commutator_identity"])
        if result.dirac is not st.dirac:
            residual = max(residual, 1.0)
        yield sname, residual, f"spectral dimension {result.transcript['spectral_dimension']}"


def _intertwine(d: _Derived):
    for sname, scene in d.scenes.items():
        tw = d.twists[scene["cocycle"]]
        yield sname, intertwine_check(scene["corep"], tw, d.bases[sname], d.ctx)


def _r_sigma(d: _Derived):
    for sname, scene in d.scenes.items():
        corep_sigma = _corep_sigma(scene["corep"], d.twists[scene["cocycle"]])
        rv_sigma, dirac = d.volumes_sigma[sname], scene["triple"].dirac
        residual = max(
            max_abs(dirac @ rv_sigma.r - rv_sigma.r @ dirac),
            check_volume_preservation(corep_sigma, rv_sigma, d.ctx)["residual"],
        )
        yield sname, residual


def _double_twist(d: _Derived):
    for sname, scene in d.scenes.items():
        corep, sigma, basis = scene["corep"], scene["cocycle"], d.bases[sname]
        corep_sigma = _corep_sigma(corep, d.twists[sigma])
        back = d.roundtrips[sigma]["back"]
        rv_back = r_sigma(d.volumes_sigma[sname], corep_sigma, back.v, d.ctx)
        forward = rho_sigma(corep, sigma, basis)
        residual = max(
            max_abs(rv_back.r - scene["volume"].r),
            max_abs(rho_sigma(corep_sigma, back.cocycle, forward) - basis),
        )
        yield sname, residual


def _determinism(d: _Derived):
    """Seeded reruns, each in a fresh context with a fresh decomposition."""

    def draw(fresh: ScalarContext) -> str:
        scene = catalog.triple_scene("z2z2-torus", fresh)
        residual, detail = _form_r_residual(scene, _peter_weyl(scene["host"], fresh), fresh)
        return canonical_dumps({"residual": residual, "detail": detail})

    first = draw(ScalarContext(tolerance=d.ctx.tolerance, seed=d.ctx.seed))
    second = draw(ScalarContext(tolerance=d.ctx.tolerance, seed=d.ctx.seed))
    yield "", _bool_residual(first == second)


# (id prefix, anchor, threshold, family), in id order
_CHECKS = (
    ("01.axioms.", "all Hopf star-algebra axioms hold", _STRICT, _axioms),
    ("02.peter-weyl.c-s3.blocks", "block sizes {1,1,2} with squares summing to 6", _BOOL, _blocks),
    ("02.peter-weyl.", "Schur orthogonality with identity F and M = d", _STRICT, _orthogonality),
    ("03.mult-rep.", "dual matrix units represent as a star-homomorphism", _STRICT, _star_hom),
    ("03.mult-rep.", "dual matrix units act as rank-one maps on adapted bases", _STRICT, _rank_one),
    ("04.cocycle.", "dual 2-cocycle identity, normalization, unitarity", _STRICT, _cocycles),
    ("05.twist.c-d4.axioms",
     "twisted algebra passes all Hopf star-algebra axioms", _STRICT, _twist_axioms),
    ("05.twist.c-d4.coalgebra", "coproduct, unit, counit unchanged bitwise", _BOOL, _coalgebra),
    ("06.roundtrip.",
     "twist by sigma then by its inverse restores every tensor", _STRICT, _roundtrips),
    ("07.haar.", "Haar functional has the same coefficients after twisting", _STRICT, _haar),
    ("07.f-matrix.",
     "twisted F is a positive multiple of a-star-F-a per block", _BLOCK_TOL, _f_matrices),
    ("08.twisted-corep.",
     "twisted unitarity and antipode-star flip of every entry", _STRICT, _twisted_coreps),
    ("09.form-r.",
     "preservation verdict matches block-form recovery on random draws", _STRICT, _form_r),
    ("10.deform.z2z2-torus.commuting-pair",
     "chosen translation pair commutes before deformation", _EXACT, _commuting_pair),
    ("10.deform.z2z2-torus.anticommuting-pair",
     "deformed translation pair anticommutes", _STRICT, _anticommuting_pair),
    ("10.deform.",
     "deformation is multiplicative and star-preserving on the spectral basis", _STRICT, _hom_star),
    ("11.triple.",
     "Dirac matrix unchanged and commutators expand through the dual legs", _STRICT, _triples),
    ("12.intertwine.",
     "deformed operators intertwine the twisted adjoint action", _STRICT, _intertwine),
    ("12.r-sigma.",
     "twisted volume is positive, Dirac-compatible, and preserved", _STRICT, _r_sigma),
    ("12.double-twist.",
     "inverse cocycle undoes the deformation and the twisted volume", _STRICT, _double_twist),
    ("13.determinism.reports",
     "equal seeds reproduce byte-identical check payloads", _BOOL, _determinism),
)


def run_paper_suite(ctx: ScalarContext = DEFAULT_CONTEXT) -> VerificationReport:
    start = time.perf_counter()
    d = _Derived(ctx)
    records = [_noncommutativity(d)]
    for prefix, anchor, threshold, family in _CHECKS:
        for suffix, residual, *detail in family(d):
            records.append(
                CheckRecord(
                    check_id=prefix + suffix,
                    anchor=anchor,
                    residual=float(residual),
                    threshold=threshold,
                    passed=bool(residual <= threshold),
                    detail="".join(detail),
                )
            )
    records.sort(key=lambda rec: rec.check_id)
    wall = time.perf_counter() - start
    return VerificationReport(suite=PAPER_SUITE, records=tuple(records), wall_time=wall)
