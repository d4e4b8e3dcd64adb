"""Finite spectral triples and their cocycle deformations.

A triple is (generators, H, D) with H = C^N and D self-adjoint.  A corep V
of a host algebra on H carries three constructions:

  * the R-twisted volume tau_R(x) = Tr(Rx) and its preservation check
    under the adjoint coaction of V,
  * the deformed representation rho_sigma(T) = sum_i T_(0)^i Pi_V(sigma_i)
    with sigma_i = sigma^{-1}(T_(1)^i, .), which carries the original
    operator algebra to the deformed one,
  * the twisted volume operator R^sigma = Pi_V(v)* R Pi_V(v).

The deformed product and involution on operators are expressed through the
adjoint coaction, so images of rho_sigma multiply and star correctly when
the source carries the twisted structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import extend_rows, max_abs
from .cocycle import DualCocycle, _w_checked
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    ScalarContext,
    freeze,
)
from .corep import (
    SpectralDecomposition,
    UnitaryCorep,
    _adjoint,
    _operators,
    pi_u,
    verify_corep,
)
from .errors import (
    DimensionMismatch,
    HostMismatch,
    InputError,
    NotEquivariant,
    NotInCategory,
    TheoremViolation,
)
from .peterweyl import PeterWeylData, decompose, haar_state
from .twist import TwistResult, _corep_sigma

Array = np.ndarray

_STRUCTURE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectralTriple:
    """Operator-algebra generators with a self-adjoint Dirac matrix."""

    hdim: int
    generators: tuple[Array, ...]
    dirac: Array
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        gens = tuple(freeze(g) for g in self.generators)
        dirac = freeze(self.dirac)
        shape = (self.hdim, self.hdim)
        if dirac.shape != shape:
            raise DimensionMismatch(
                f"dirac matrix has shape {dirac.shape}, expected {shape}"
            )
        for g in gens:
            if g.shape != shape:
                raise DimensionMismatch(
                    f"generator has shape {g.shape}, expected {shape}"
                )
        # a NaN passes the self-adjointness test and fails inside lstsq
        if not all(np.isfinite(x).all() for x in (dirac, *gens)):
            raise InputError("dirac matrix and generators must have finite entries")
        scale = 1.0 + max_abs(dirac)
        if max_abs(dirac - dirac.conj().T) > _STRUCTURE_TOL * scale:
            raise InputError("dirac matrix must be self-adjoint")
        labels = tuple(self.labels) or tuple(f"a{i}" for i in range(len(gens)))
        if len(labels) != len(gens):
            raise InputError(
                f"{len(labels)} labels supplied for {len(gens)} generators"
            )
        if gens and not _adjoint_closed(gens):
            raise InputError("generator list must span a self-adjoint set")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "dirac", dirac)
        object.__setattr__(self, "labels", labels)


def _adjoint_closed(gens: tuple[Array, ...]) -> bool:
    # one least-squares solve with every adjoint as a right-hand side
    stack = np.stack(gens)
    flat = stack.reshape(len(gens), -1)
    adj = stack.conj().swapaxes(-1, -2).reshape(len(gens), -1)
    coeffs, *_ = np.linalg.lstsq(flat.T, adj.T, rcond=None)
    miss = max_abs(coeffs.T @ flat - adj, lead=(len(gens),))
    return not np.any(miss > _STRUCTURE_TOL * (1.0 + max_abs(flat, lead=(len(gens),))))


def _require(ok, error: type, message: str, values=None) -> None:
    """Raise error(message) for the first False verdict in stack order, with
    {at} its stack index (empty for one matrix) and {value} its entry of values."""
    # a single matrix's verdict is a scalar, truth-tested without a reduction
    if not (ok.all() if getattr(ok, "ndim", 0) else ok):
        index = np.unravel_index(np.argmin(ok), np.shape(ok))
        value = None if values is None else np.asarray(values)[index]
        raise error(message.format(at="".join(f"[{i}]" for i in index), value=value))


@dataclass(frozen=True, eq=False)
class RTwistedVolume:
    """Positive invertible matrices R defining the functionals x -> Tr(Rx).

    r has shape (..., N, N); every matrix of a stack is validated.
    """

    r: Array

    def __post_init__(self):
        r = freeze(self.r)
        if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
            raise DimensionMismatch(f"volume matrix has shape {r.shape}")
        lead = r.shape[:-2]
        size = max_abs(r, lead)
        # a NaN or inf entry would make every test below False
        _require(size < np.inf, InputError, "volume matrix{at} has a non-finite entry")
        adj = r.conj().swapaxes(-1, -2)
        ok = max_abs(r - adj, lead) <= _STRUCTURE_TOL * (1.0 + size)
        _require(ok, InputError, "volume matrix{at} must be self-adjoint")
        evals = np.linalg.eigvalsh(0.5 * (r + adj))
        _require(
            evals[..., 0] > _STRUCTURE_TOL * np.maximum(1.0, evals[..., -1]),
            InputError,
            "volume matrix{at} must be positive invertible; lowest eigenvalue {value:.3g}",
            evals[..., 0],
        )
        object.__setattr__(self, "r", r)

    @property
    def hdim(self) -> int:
        return self.r.shape[-1]

    def tau(self, x: Array) -> complex:
        vals = np.trace(self.r @ np.asarray(x, dtype=np.complex128), axis1=-2, axis2=-1)
        return complex(vals) if vals.ndim == 0 else vals


def equivariance_residual(corep: UnitaryCorep, mat: Array) -> float | Array:
    """How far mat (x) 1 is from commuting with the corep matrix.

    mat has shape (..., N, N); the residual has shape mat.shape[:-2].
    """
    # both sides as (..., c, i, j), one batched matmul each
    m = _operators(corep, mat)[..., None, :, :]
    u = corep.u.transpose(2, 0, 1)
    return max_abs(m @ u - u @ m, m.shape[:-3])


def check_volume_preservation(
    corep: UnitaryCorep, rv: RTwistedVolume, ctx: ScalarContext = DEFAULT_CONTEXT
) -> dict:
    """Exhaustive test of (tau_R (x) id) ad_V(x) = tau_R(x) 1 on matrix units.

    For a stack of R, "residual" and "passed" have shape rv.r.shape[:-2].
    """
    if rv.hdim != corep.hdim:
        raise DimensionMismatch(
            f"volume matrix is {rv.hdim}x{rv.hdim}, corep acts on dimension {corep.hdim}"
        )
    # sum_ij R_ji ad(E_kl)[i, j] is the transposed adjoint action at R^T,
    # as (..., c, k, l)
    rt = np.swapaxes(rv.r, -1, -2)
    lead = rt.shape[:-2]
    contracted = _adjoint(corep, transposed=True)(rt)
    expected = corep.host.unit[:, None, None] * rt[..., None, :, :]
    residual = max_abs(contracted - expected, lead)
    return {"residual": residual, "passed": residual <= ctx.tolerance}


def extract_block_form(
    rv: RTwistedVolume,
    sd: SpectralDecomposition,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> dict:
    """Multiplicity-space matrices T of a volume-preserving R, block by block.

    In the adapted basis of sd a preserving R acts as F (x) T on each
    isotypic block, with F and m the block's F-matrix and m-value in the
    Peter-Weyl data sd was cut from; T is recovered by averaging the
    diagonal of the irrep leg.

    For a stack of R of shape (..., N, N), residuals and verdicts have shape
    (...) and each block's "t" shape (..., m, m); an error names the first
    offending matrix in stack order.
    """
    corep = sd.corep
    r = rv.r
    lead = r.shape[:-2]
    commutation = equivariance_residual(corep, r)
    _require(
        commutation <= ctx.tolerance,
        NotEquivariant,
        "volume matrix{at} does not commute with the corep (residual {value:.3g})",
        commutation,
    )
    preservation = check_volume_preservation(corep, rv, ctx)
    # R in the adapted basis less F (x) T on each diagonal block.  Each block
    # pair is its own product: one product over all rows at once rounds
    # differently, and check 09 of the paper suite reports these residuals
    # to the last bit
    flats = [entry["basis"].reshape(-1, corep.hdim) for entry in sd.entries]
    rows = np.cumsum([0] + [len(flat) for flat in flats])
    gap = np.empty_like(r)
    blocks = []
    for entry, flat, i0, i1 in zip(sd.entries, flats, rows, rows[1:]):
        left = flat.conj() @ r
        for flat_j, j0, j1 in zip(flats, rows, rows[1:]):
            gap[..., i0:i1, j0:j1] = left @ flat_j.T
        mult, d, _ = entry["basis"].shape
        block = sd.pw.blocks[entry["block"]]
        # (..., s, a, t, b) with s, t the multiplicity legs
        rblk = gap[..., i0:i1, i0:i1].reshape(lead + (mult, d, mult, d))
        t_mat = np.trace(rblk, axis1=-3, axis2=-1) / block.m_value
        blocks.append({"block": entry["block"], "multiplicity": mult, "t": t_mat})
        fitted = t_mat[..., :, None, :, None] * block.f_matrix[:, None, :]
        gap[..., i0:i1, i0:i1] -= fitted.reshape(lead + (i1 - i0, i1 - i0))
    worst = max_abs(gap, lead)
    reconstructed = worst <= ctx.tolerance
    _require(
        reconstructed | ~np.asarray(preservation["passed"]),
        TheoremViolation,
        "volume{at} is preserved but R is not of block form (residual {value:.3g})",
        worst,
    )
    return {
        "preserved": preservation["passed"],
        "preservation_residual": preservation["residual"],
        "equivariance": commutation,
        "blocks": tuple(blocks),
        "reconstruction_residual": worst,
        "passed": preservation["passed"] & reconstructed,
    }


def rho_sigma(corep: UnitaryCorep, sigma: DualCocycle, t: Array) -> Array:
    """Deformed image of operators: sum of T_(0) Pi_V(sigma^{-1}(T_(1), .)).

    t has shape (..., N, N), and so has the result.  The adjoint action meets
    the operator-valued functional Pi_V(sigma^{-1}(e_c, .)) leg by leg inside
    one contraction, so no coaction leg of the stack is formed.
    """
    if sigma.host is not corep.host:
        raise HostMismatch("cocycle and corep live on different hosts")
    t = _operators(corep, t)
    return _adjoint(corep).along(pi_u(corep, sigma.sigma_inv))(t)


def twisted_operator_product(
    corep: UnitaryCorep, sigma: DualCocycle, a: Array, b: Array
) -> Array:
    """Deformed product a_(0) b_(0) sigma^{-1}(a_(1), b_(1)) on operators.

    a and b have shapes (..., N, N) that broadcast against each other, and
    the result has the broadcast shape: (S, 1, N, N) against (1, S, N, N)
    gives all S^2 products.
    """
    if sigma.host is not corep.host:
        raise HostMismatch("cocycle and corep live on different hosts")
    a, b = _operators(corep, a), _operators(corep, b)
    n_h, n = corep.hdim, corep.host.dim
    # (id (x) sigma^{-1}(., e_d)) ad(a) as (..., i, (d, j)), then one batched
    # matmul over (d, j) against ad(b) read as (..., (d, j), m)
    left = np.swapaxes(_adjoint(corep, sigma.sigma_inv)(a), -3, -2)
    right = _adjoint(corep)(b)
    return left.reshape(left.shape[:-3] + (n_h, n * n_h)) @ right.reshape(
        right.shape[:-3] + (n * n_h, n_h)
    )


def twisted_operator_star(
    corep: UnitaryCorep,
    sigma: DualCocycle,
    a: Array,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> Array:
    """Deformed involution on operators: contract ad(a+) against w o antipode^{-1}.

    The functional leg makes rho_sigma star-preserving: the deformed image of
    the twisted adjoint is the operator adjoint of the deformed image.  a has
    shape (..., N, N), and so has the result.
    """
    if sigma.host is not corep.host:
        raise HostMismatch("cocycle and corep live on different hosts")
    leg = _w_checked(sigma, ctx).coeffs @ corep.host.antipode_inv
    adj = np.conj(np.swapaxes(_operators(corep, a), -1, -2))
    return _adjoint(corep, leg[:, None])(adj)[..., 0, :, :]


# entries per chunk when a stack's images under several functionals are
# formed together: 2^14 complex128 entries, 256 KiB
_CHUNK = 1 << 14


def _chunks(count: int, size: int) -> list[slice]:
    """Consecutive slices of range(count), each of at most _CHUNK / size
    functionals and at least one, for images of a stack of size entries."""
    step = max(1, _CHUNK // max(size, 1))
    return [slice(s, min(s + step, count)) for s in range(0, count, step)]


def operator_span_basis(
    mats: list[Array], hdim: int, tol: float
) -> list[Array]:
    """Orthonormal basis (Frobenius) of the unital *-algebra generated by mats.

    Words in the letters mats and their adjoints span that algebra, and a
    span that holds the identity and is closed under right multiplication by
    each letter holds every word.  The letters become an orthonormal basis
    of their span; the basis starts as the identity plus the letters, and
    each round multiplies only the directions the last round added by each
    letter, one letter at a time.  The closure stops when a round adds
    nothing or the basis holds hdim^2 elements.
    """
    gens = np.asarray(mats, dtype=np.complex128).reshape(-1, hdim, hdim)
    eye = np.eye(hdim, dtype=np.complex128).reshape(1, -1) / np.sqrt(hdim)
    letters = extend_rows(eye[:0], np.concatenate([gens, gens.conj().swapaxes(-1, -2)]), tol)
    basis = np.concatenate([eye, extend_rows(eye, letters, tol)])
    # the basis rows [start, stop) are the frontier of a round and [0, count)
    # the rows so far, in a buffer of a power of two rows (at most hdim^2),
    # copied into the next power that fits when full
    start, count = 1, len(basis)
    while start < count < hdim * hdim:
        stop = count
        for letter in letters.reshape(-1, hdim, hdim):
            frontier = basis[start:stop].reshape(-1, hdim, hdim)
            added = extend_rows(basis[:count], frontier @ letter, tol)
            if count + len(added) > len(basis):
                rows = min(1 << (count + len(added) - 1).bit_length(), hdim * hdim)
                grown = np.empty((rows, hdim * hdim), dtype=np.complex128)
                grown[:count] = basis[:count]
                basis = grown
            basis[count : count + len(added)] = added
            count += len(added)
        start = stop
    basis = basis[:count]
    return list(basis.reshape(-1, hdim, hdim))


@dataclass(frozen=True, eq=False)
class DeformedAlgebra:
    """Images of a spectral basis under rho_sigma."""

    images: tuple[Array, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(freeze(m) for m in self.images))
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True, eq=False)
class DeformationResult:
    algebra: DeformedAlgebra
    dirac: Array
    transcript: dict = field(repr=False)


def deform_triple(
    st: SpectralTriple,
    corep: UnitaryCorep,
    sigma: DualCocycle,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    pw: PeterWeylData | None = None,
    span: Array | None = None,
) -> DeformationResult:
    """Deform the operator algebra of a triple; the Dirac matrix is untouched.

    The corep must commute with the Dirac matrix.  The generator span is
    closed into a *-algebra, refined along the spectral projections of the
    corep's blocks, and each refined basis element is carried through
    rho_sigma.  A caller that holds the closure already, as an orthonormal
    basis (k, N, N) from operator_span_basis at ctx.loose_tolerance, passes
    it as span, as pw passes the host's Peter-Weyl data.  Each projection is
    applied as a functional on the coaction leg of ad_v, so no N^2 x N^2
    projection matrix is built.  The transcript
    records the block content of every generator, the Dirac commutator
    identity residual, and the dimension of the generated image algebra.
    """
    if sigma.host is not corep.host:
        raise HostMismatch("cocycle and corep live on different hosts")
    if st.hdim != corep.hdim:
        raise DimensionMismatch(
            f"triple acts on dimension {st.hdim}, corep on {corep.hdim}"
        )
    dirac_residual = equivariance_residual(corep, st.dirac)
    if dirac_residual > ctx.tolerance:
        raise NotInCategory(
            f"dirac matrix does not commute with the corep (residual {dirac_residual:.3g})"
        )
    host = corep.host
    if pw is None:
        pw = decompose(host, haar_state(host, ctx), ctx)
    tol = ctx.loose_tolerance
    if span is None:
        span = operator_span_basis(list(st.generators), st.hdim, tol)
    # block k's projection is (id (x) rho_k) ad_v with rho_k the trace of its
    # matrix units: it splits the span and weighs every generator, a few
    # blocks at a time, as parts (span + generators, blocks, N^2)
    rho = np.stack([np.trace(b.matrix_units) for b in pw.blocks], axis=-1)
    stack = np.stack(list(span) + list(st.generators))
    project = _adjoint(corep, rho)
    refined: list[Array] = []
    labels: list[str] = []
    weights: list[Array] = []
    for blocks in _chunks(len(pw.blocks), stack.size):
        parts = project(stack, blocks).reshape(len(stack), -1, st.hdim * st.hdim)
        for k, part in enumerate(np.moveaxis(parts, 1, 0), start=blocks.start):
            collected = extend_rows(part[:0], part[: len(span)], tol)
            refined.extend(collected.reshape(-1, st.hdim, st.hdim))
            labels.extend(f"p{k}.{i}" for i in range(len(collected)))
            # a generator's weight in block k is the norm of its part there
            weights.append(np.linalg.norm(part[len(span) :], axis=-1))
    generator_blocks = [
        {"generator": name, "blocks": tuple((k, float(w)) for k, w in enumerate(row) if w > tol)}
        for name, row in zip(st.labels, np.transpose(weights))
    ]

    mats = np.stack(refined)
    ad = _adjoint(corep)
    legs = pi_u(corep, sigma.sigma_inv)
    images = ad.along(legs)(mats)
    # [D, rho(a)] against the leg-wise expansion sum_c [D, a_(0)^c] legs[c]
    # = D sum_c a_(0)^c legs[c] - sum_c a_(0)^c (D legs[c]), both sums taken
    # over the coaction legs themselves, a few legs c at a time, apart from
    # the images
    pair = np.concatenate([legs, st.dirac @ legs], axis=-1)  # (c, k, 2N)
    sums = np.zeros(images.shape[:-1] + (2 * st.hdim,), dtype=np.complex128)
    for chunk in _chunks(host.dim, mats.size):
        sums += np.tensordot(ad(mats, chunk), pair[chunk], axes=([-3, -1], [0, 1]))
    expanded = st.dirac @ sums[..., : st.hdim] - sums[..., st.hdim :]
    commutator = max_abs((st.dirac @ images - images @ st.dirac) - expanded)
    closure = operator_span_basis(list(images), st.hdim, ctx.loose_tolerance)
    transcript = {
        "dirac_equivariance": float(dirac_residual),
        "commutator_identity": float(commutator),
        "spectral_dimension": len(refined),
        "generated_dimension": len(closure),
        "generator_blocks": tuple(generator_blocks),
    }
    algebra = DeformedAlgebra(images=tuple(images), labels=tuple(labels))
    return DeformationResult(algebra=algebra, dirac=st.dirac, transcript=transcript)


def r_sigma(
    rv: RTwistedVolume,
    corep: UnitaryCorep,
    v: DualFunctional,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> RTwistedVolume:
    """Twisted volume matrix Pi_V(v)* R Pi_V(v); must stay positive invertible."""
    if v.host is not corep.host:
        raise HostMismatch("functional and corep live on different hosts")
    piv = pi_u(corep, v)
    cand = piv.conj().T @ rv.r @ piv
    drift = max_abs(cand - cand.conj().T)
    herm = 0.5 * (cand + cand.conj().T)
    evals = np.linalg.eigvalsh(herm)
    if drift > ctx.loose_tolerance or evals[0] <= ctx.loose_tolerance:
        raise TheoremViolation(
            "twisted volume matrix lost positivity "
            f"(self-adjointness drift {drift:.3g}, lowest eigenvalue {evals[0]:.3g}); "
            "the v-functional convention is inconsistent"
        )
    return RTwistedVolume(herm)


def intertwine_check(
    corep: UnitaryCorep,
    tw: TwistResult,
    t: Array,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> float:
    """Residual of ad over the twisted corep against rho_sigma on coaction legs.

    t has shape (..., N, N); the residual is the worst over the stack.
    """
    corep_sigma = _corep_sigma(corep, tw)
    t = _operators(corep, t)
    ad_sigma, ad = _adjoint(corep_sigma), _adjoint(corep)
    rho = ad.along(pi_u(corep, tw.cocycle.sigma_inv))
    images = rho(t)
    # a few coaction legs c at a time: ad over the twisted corep of rho(t)
    # against rho of ad(t), both as (..., c, i, j)
    worst = [
        max_abs(ad_sigma(images, legs) - rho(ad(t, legs)))
        for legs in _chunks(corep.host.dim, t.size)
    ]
    return float(np.max(worst))


def check_membership(
    corep: UnitaryCorep,
    st: SpectralTriple,
    rv: RTwistedVolume,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    tw: TwistResult | None = None,
    subject: str = "datum",
) -> tuple[AxiomReport, AxiomReport | None]:
    """Verdicts corep-valid, dirac-commutes and volume-preserved of a datum.

    With a twist transcript the deformed datum (twisted host, same corep
    matrix, same Dirac, twisted volume) is checked too, as the second report.
    """
    checks = (
        ("corep-valid", float(verify_corep(corep, ctx).max_residual)),
        ("dirac-commutes", float(equivariance_residual(corep, st.dirac))),
        ("volume-preserved", float(check_volume_preservation(corep, rv, ctx)["residual"])),
    )
    twisted = None
    if tw is not None:
        corep_sigma = _corep_sigma(corep, tw)
        rv_sigma = r_sigma(rv, corep, tw.v, ctx)
        twisted, _ = check_membership(corep_sigma, st, rv_sigma, ctx, subject=f"{subject}^sigma")
    return AxiomReport(subject=subject, checks=checks, tolerance=ctx.tolerance), twisted
