"""Unitary corepresentations on finite Hilbert spaces.

A corep is an N x N matrix of algebra elements u[i, j] (each an n-vector).
The module provides the dual representation pi_U, the adjoint action ad_V on
operators, spectral projections, and decomposition into irreducibles with
adapted orthonormal bases.

The adjoint action is one map, with a functional fused into it,
(id (x) rho) ad_u(T) = sum_ab (mul rho)[a, b] u_a T u*_b^T, so the coaction
leg is formed only when a caller asks for it.  The map is a _linalg.Chain
over the operator stack, u and z = (mul rho) u*, and _linalg.runs alone
picks each run's form: joins over the nonzero entries (a regular corep has
n of its N^2 n entries nonzero on a group algebra and n^2 on a function
algebra), or dense, one slice u_a at a time.  The corep law and unitarity
are chains compared run by run in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from ._linalg import Chain, Terms, batches, extend_rows, identity_gap, max_abs
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    freeze,
)
from .errors import DecompositionError, DimensionMismatch, HostMismatch
from .peterweyl import PeterWeylData, gram_matrix, haar_state

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class UnitaryCorep:
    host: FiniteHopfStarAlgebra
    hdim: int
    u: Array  # (N, N, n)

    u_star: Array = field(init=False, repr=False)  # (N, N, n), entrywise star

    def __post_init__(self):
        # C-ordered whatever the caller passes, as the corep layer is fastest
        # over C-ordered entries; a frozen C-ordered u is shared
        arr = freeze(np.ascontiguousarray(self.u))
        if arr.shape != (self.hdim, self.hdim, self.host.dim):
            raise DimensionMismatch(
                f"corep tensor has shape {arr.shape}, expected "
                f"{(self.hdim, self.hdim, self.host.dim)}"
            )
        object.__setattr__(self, "u", arr)
        # the star of a non-finite entry is non-finite, without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            star = np.conj(arr).reshape(-1, self.host.dim) @ self.host.star.T
        star.flags.writeable = False  # a fresh array, so frozen without a copy
        object.__setattr__(self, "u_star", star.reshape(arr.shape))

    @cached_property
    def _u_terms(self) -> Terms:
        """The terms of u, read on first use and held with the keyed tables
        of their joins while the corep lives; a corep made by _over holds
        its source's."""
        return Terms.of(self.u)

    @cached_property
    def _u_star_terms(self) -> Terms:
        """The terms of u_star, held as those of u are."""
        return Terms.of(self.u_star)

    def _over(self, host: FiniteHopfStarAlgebra) -> UnitaryCorep:
        """The same matrix of elements read over host, holding these terms
        of u; its u_star is taken with host's star, so its terms are its own."""
        other = UnitaryCorep(host, self.hdim, self.u)
        other.__dict__["_u_terms"] = self._u_terms
        return other


def _operators(corep: UnitaryCorep, t) -> Array:
    """t as a complex stack (..., N, N) of operators on the carrier space."""
    t = np.asarray(t, dtype=np.complex128)
    if t.shape[-2:] != (corep.hdim, corep.hdim):
        raise DimensionMismatch(
            f"operator stack has shape {t.shape}, expected (..., {corep.hdim}, {corep.hdim})"
        )
    return t


class _FusedAdjoint:
    """T -> sum_ab mr[a, b, f] u_a T u*_b^T on stacks of N x N operators,
    with u_a = u[:, :, a], u* the entrywise star and mr = mul rho for
    functionals rho of shape (n, F), one image per functional f: this is
    (id (x) rho_f) ad_u(T), and ad_u itself with rho None.  transposed gives
    the transpose of that map over vectorized operators, T -> sum_ab
    mr[a, b, f] u_a^T T u*_b: its image of R^T at [k, l] is sum_ij R_ji
    (id (x) rho_f) ad_u(E_kl)[i, j].

    Each is a chain (_linalg.Chain) with the stack first, T[s, k, l] ->
    u[i, k, a] -> z[a, l, f, j], where z[a, l, f, j] = sum_b mr[a, b, f]
    u*[j, l, b] (u*[l, j, b] when transposed) is formed once per map, as
    terms.  A run that runs writes out densely goes one slice a at a time
    (sliced), so no (N, N, n, n) array, no N^2 x N^2 matrix and no whole
    dense z is formed.
    """

    def __init__(self, corep: UnitaryCorep, rho: Array | None = None, transposed: bool = False):
        mul = corep.host._terms["mul"]
        if rho is not None and rho.shape[:1] != (corep.host.dim,):
            raise DimensionMismatch(
                f"functionals have shape {rho.shape}, expected ({corep.host.dim}, ...)"
            )
        self.u, self.transposed = corep._u_terms, transposed
        # u*[j, l, b] meets the image at l, or at j when transposed
        spec = "abf,ljb->alfj" if transposed else "abf,jlb->alfj"
        mr = mul if rho is None else mul.array @ rho
        self.z = Chain(mr, (spec, corep._u_star_terms)).whole()
        uk = "kia" if transposed else "ika"
        self.steps = ((f"skl,{uk}->sila", self.u), ("sila,alfj->sfij", self.z))

    def chain(self, t: Array, ops: Array | None = None) -> Chain:
        """The map at the stack t (S, N, N) as a chain, images [s, f, i, j];
        with ops (F, N, M), the images met with ops on (f, j), [s, i, m]."""
        more = () if ops is None else (("sfij,fjm->sim", ops),)
        return Chain(t, *self.steps, *more, dense=lambda lead: self.sliced(t[lead], ops))

    def sliced(self, t: Array, ops: Array | None = None) -> Array:
        """The chain at t written out one slice a at a time: u_a T on the
        rows where u_a is nonzero, times z[a] read as [l, (f, j)].  z is
        written out as many slices at a time as keep within the budget, and
        at least one (_linalg.batches), so the N^2 n F entries of the whole
        of it are never held; with ops, the images are then met with ops."""
        n, n_h, count = self.z.shape[:3]
        per = n_h * count * n_h
        left = self.u.array.transpose(1, 0, 2) if self.transposed else self.u.array  # [i, k, a]
        rows = left.any(axis=1)  # [i, a]
        out = np.zeros((len(t), n_h, count, n_h), dtype=np.complex128)  # [s, i, f, j]
        for batch in batches(n, per):
            z = self.z[batch].dense().reshape(-1, n_h, count * n_h)  # [a, l, (f, j)]
            for a, z_a in enumerate(z, batch.start):
                at = np.flatnonzero(rows[:, a])
                at = slice(None) if at.size == n_h else at
                image = (left[at, :, a] @ t).reshape(-1, n_h) @ z_a
                out[:, at] += image.reshape(len(t), -1, count, n_h)
        out = out.transpose(0, 2, 1, 3)
        return out if ops is None else np.tensordot(out, ops, axes=([1, 3], [0, 1]))

    def __call__(self, t: Array, ops: Array | None = None) -> Array:
        """Images (..., F, N, N) of t (..., N, N); with ops (F, N, M), the
        sum over f of image f times ops[f], (..., N, M)."""
        out = self.chain(t.reshape((-1,) + t.shape[-2:]), ops).array()
        return out.reshape(t.shape[:-2] + out.shape[1:])

    def along(self, ops: Array):
        """The map t -> sum_f (image f of t) ops[f] for a functional with
        values in operators, ops of shape (F, N, M), as a function on stacks."""
        return partial(self, ops=ops)


def trivial_corep(host: FiniteHopfStarAlgebra, hdim: int) -> UnitaryCorep:
    u = np.zeros((hdim, hdim, host.dim), dtype=np.complex128)
    for i in range(hdim):
        u[i, i] = host.unit
    return UnitaryCorep(host, hdim, u)


def direct_sum(a: UnitaryCorep, b: UnitaryCorep) -> UnitaryCorep:
    if a.host is not b.host:
        raise HostMismatch("direct sum requires a common host")
    n = a.host.dim
    u = np.zeros((a.hdim + b.hdim, a.hdim + b.hdim, n), dtype=np.complex128)
    u[: a.hdim, : a.hdim] = a.u
    u[a.hdim :, a.hdim :] = b.u
    return UnitaryCorep(a.host, a.hdim + b.hdim, u)


def regular_corep(
    host: FiniteHopfStarAlgebra,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> UnitaryCorep:
    """The coproduct viewed as a corep on the state space of the Haar state."""
    u = host.comul.transpose(1, 0, 2)
    gram = gram_matrix(host, haar_state(host, ctx))
    scale = np.trace(gram) / host.dim
    if max_abs(gram - scale * np.eye(host.dim)) > ctx.loose_tolerance:
        # move to an orthonormal basis of the state space
        evals, evecs = np.linalg.eigh(gram)
        root = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
        root_inv = np.linalg.inv(root)
        # root @ U_c @ root^-1 on every algebra leg c
        u = (root @ u.transpose(2, 0, 1) @ root_inv).transpose(1, 2, 0)
    return UnitaryCorep(host, host.dim, u)


@np.errstate(invalid="ignore", over="ignore")
def verify_corep(
    corep: UnitaryCorep, ctx: ScalarContext = DEFAULT_CONTEXT, subject: str = "corep"
) -> AxiomReport:
    """The corep law (id (x) Delta)(U) = U_12 U_13 over its entries [i, j, a,
    b], the counit law and unitarity on both sides, each side of an identity
    a chain compared one run of i at a time (_linalg.identity_gap).  A
    non-finite entry reads as a non-finite residual, without a warning."""
    a, m, c = corep.host, corep.host._terms["mul"], corep.host._coalgebra.comul
    u, ustar = corep._u_terms, corep._u_star_terms
    eye = np.eye(corep.hdim)
    # sum_k u_ik u*_jk = delta_ij 1 and sum_k u*_ki u_kj = delta_ij 1, each
    # side [i, j, c]
    target = Chain(np.einsum("ij,c->ijc", eye, a.unit))
    row = Chain(u, ("ika,jkb->ijab", ustar), ("ijab,abc->ijc", m))
    col = Chain(corep.u_star.transpose(1, 0, 2), ("ika,kjb->ijab", u), ("ijab,abc->ijc", m))
    law = identity_gap(Chain(u, ("ijc,cab->ijab", c)), Chain(u, ("ika,kjb->ijab", u)))
    checks = (
        ("corep-law", law),
        ("corep-counit", max_abs(np.einsum("ijc,c->ij", corep.u, a.counit) - eye)),
        ("unitarity-right", identity_gap(row, target)),
        ("unitarity-left", identity_gap(col, target)),
    )
    return AxiomReport(subject=subject, checks=checks, tolerance=ctx.tolerance)


def pi_u(corep: UnitaryCorep, omega: DualFunctional | Array) -> Array:
    """The dual acting on the carrier space: (id (x) omega)(U).

    omega is a functional or coefficients of shape (..., n); the result has
    shape (..., N, N), summed over the nonzero entries of u.
    """
    coeffs = omega.coeffs if isinstance(omega, DualFunctional) else np.asarray(omega)
    if coeffs.shape[-1:] != (corep.host.dim,):
        raise DimensionMismatch(
            f"functional coefficients have shape {coeffs.shape}, expected (..., {corep.host.dim})"
        )
    return corep._u_terms.apply(coeffs, 1)


def ad_v(corep: UnitaryCorep, t: Array) -> Array:
    """Adjoint action on operators: ad(T)[i, j] = sum_kl v_ik T_kl (v_jl)*.

    t has shape (..., N, N) and the result (..., N, N, n).  Products and
    stars are those of the corep's host, so the same function serves
    twisted hosts.
    """
    return np.moveaxis(_FusedAdjoint(corep)(_operators(corep, t)), -3, -1)


def _units(n_h: int) -> Array:
    """The N^2 matrix units E_kl as a stack (k l, N, N)."""
    return np.eye(n_h * n_h, dtype=np.complex128).reshape(-1, n_h, n_h)


def ad_v_tensor(corep: UnitaryCorep) -> Array:
    """All-matrix-units form of ad_v: AD[i, j, k, l] = ad(E_kl)[i, j]."""
    n_h = corep.hdim
    images = _FusedAdjoint(corep)(_units(n_h))  # (k l, c, i, j)
    return images.reshape((n_h, n_h, -1, n_h, n_h)).transpose(3, 4, 0, 1, 2)


def e_map_matrix(corep: UnitaryCorep, rho: Array) -> Array:
    """The map (id (x) rho) ad_v as an N^2 x N^2 matrix over vectorized operators."""
    n_h = corep.hdim
    images = _FusedAdjoint(corep, np.reshape(rho, (-1, 1)))(_units(n_h))  # (k l, 1, i, j)
    return images.reshape(n_h * n_h, n_h * n_h).T


def spectral_projection(corep: UnitaryCorep, pw: PeterWeylData, block: int) -> dict:
    """P of one block as a matrix over vec(T): the E-map of sum_s rho[s, s]."""
    if pw.host is not corep.host:
        raise HostMismatch("Peter-Weyl data belongs to a different host")
    return {"block": block, "p": e_map_matrix(corep, np.trace(pw.blocks[block].matrix_units))}


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    corep: UnitaryCorep
    pw: PeterWeylData  # the blocks that entries index
    entries: tuple[dict, ...]  # keys: block, multiplicity, basis (m, d, N)
    residual: float


def decompose_corep(
    corep: UnitaryCorep, pw: PeterWeylData, ctx: ScalarContext = DEFAULT_CONTEXT
) -> SpectralDecomposition:
    """Adapted orthonormal bases with U(e[i, j]) = sum_k e[i, k] (x) q[k, j]."""
    if pw.host is not corep.host:
        raise HostMismatch("Peter-Weyl data belongs to a different host")
    n_h = corep.hdim
    entries = []
    total = 0
    worst = 0.0
    for bi, b in enumerate(pw.blocks):
        d = b.dimension
        shifts = pi_u(corep, b.matrix_units[:, 0])  # Pi_U(e_j0), (d, N, N)
        # orthonormal f_i spanning the columns of Pi_U(e_00)
        collected = extend_rows(shifts[0][:0], shifts[0].T, ctx.loose_tolerance)
        mult = len(collected)
        if mult == 0:
            continue
        # basis[i, j] = Pi_U(e_j0) f_i
        basis = np.tensordot(collected, shifts, axes=([1], [2]))
        # adapted-law residual: U e[i, j] = sum_k e[i, k] (x) q[k, j], as (i, j, x, c)
        got = np.tensordot(basis, corep.u, axes=([2], [1]))
        want = np.tensordot(basis, b.q, axes=([1], [0])).transpose(0, 2, 1, 3)
        worst = max(worst, max_abs(got - want))
        total += mult * d
        entries.append({"block": bi, "multiplicity": mult, "basis": basis})
    if total != n_h:
        raise DecompositionError(
            f"adapted bases span {total} of {n_h} dimensions"
        )
    # orthonormality within and across blocks: the n_h adapted vectors
    flat = np.concatenate([e["basis"].reshape(-1, n_h) for e in entries])
    worst = max(worst, max_abs(flat.conj() @ flat.T - np.eye(n_h)))
    if not ctx.close(worst):
        raise DecompositionError(f"adapted basis residual {worst:.3g}")
    return SpectralDecomposition(corep=corep, pw=pw, entries=tuple(entries), residual=worst)
