"""Unitary corepresentations on finite Hilbert spaces.

A corep is an N x N matrix of algebra elements u[i, j] (each an n-vector).
The module provides the dual representation pi_U, the adjoint action ad_V on
operators, spectral projections, and decomposition into irreducibles with
adapted orthonormal bases.

The adjoint action and every map built from it are contracted over the
nonzero entries of u, its entrywise star and the host product: a regular
corep has n of its N^2 n entries nonzero on a group algebra and n^2 on a
function algebra.  A functional is fused into the action,
(id (x) rho) ad_u(T) = sum_ab (mul rho)[a, b] u_a T u*_b^T, so the
coaction leg is formed only when a caller asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._linalg import Chain, Terms, extend_rows, join, max_abs, max_gap
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    freeze,
    identity_gap,
)
from .errors import DecompositionError, DimensionMismatch, HostMismatch
from .peterweyl import PeterWeylData, gram_matrix, haar_state

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class UnitaryCorep:
    host: FiniteHopfStarAlgebra
    hdim: int
    u: Array  # (N, N, n)

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

    def entry_star(self) -> Array:
        """Entrywise star: (u*)[i, j] = u[i, j]*."""
        return np.conj(self.u) @ self.host.star.T


def _operators(corep: UnitaryCorep, t) -> Array:
    """t as a complex stack (..., N, N) of operators on the carrier space."""
    t = np.asarray(t, dtype=np.complex128)
    if t.shape[-2:] != (corep.hdim, corep.hdim):
        raise DimensionMismatch(
            f"operator stack has shape {t.shape}, expected (..., {corep.hdim}, {corep.hdim})"
        )
    return t


def _slices(left: Array, mr: Array) -> Array:
    """The a for which left_a and mr[a] are both nonzero."""
    return np.flatnonzero(left.any(axis=(0, 1)) & mr.any(axis=(1, 2)))


def _adjoint_entries(left: Array, right: Array, mr: Array) -> Terms | None:
    """The map T -> sum_ab mr[a, b, f] left_a T right_b^T as summed terms
    [f, i, j, k, l], the coefficient of T_kl in image f at [i, j]; None when
    a join would have more than N^2 n terms, as many as ad_u has entries at
    one operator, so that no array of terms nears the N^2 n^2 entries of an
    (N, N, n, n) one.

    The entries of left are joined with those of mr on a and summed per
    (f, i, k, b); those sums are joined with the entries of right on b and
    summed per entry of the map.
    """
    limit = left.shape[0] ** 2 * left.shape[2]
    half = join("ika,abf->fikb", left, mr, limit)
    terms = half and join("fikb,jlb->fijkl", half.summed(), right, limit)
    return terms and terms.summed()


def _adjoint_dense(left: Array, right: Array, mr: Array, t: Array) -> Array:
    """The map of _adjoint_entries, one slice a at a time: (left_a T) z_a^T
    with z_a[f] = sum_b mr[a, b, f] right_b, as (..., F, N, N)."""
    out = np.zeros(t.shape[:-2] + (mr.shape[2],) + t.shape[-2:], dtype=np.complex128)
    for a in _slices(left, mr):
        z = np.tensordot(mr[a], right, axes=([0], [2]))  # (f, j, l)
        out += (left[:, :, a] @ t)[..., None, :, :] @ np.swapaxes(z, -1, -2)
    return out


def _along_dense(left: Array, right: Array, mr: Array, ops: Array, t: Array) -> Array:
    """sum_f (image f of t) ops[f], one slice a at a time: (left_a T) y_a with
    y_a = sum_bj right[j, :, b] (sum_f mr[a, b, f] ops[f])[j]."""
    out = np.zeros(t.shape, dtype=np.complex128)
    for a in _slices(left, mr):
        q = np.tensordot(mr[a], ops, axes=([1], [0]))  # (b, j, m)
        out += (left[:, :, a] @ t) @ np.tensordot(right, q, axes=([0, 2], [1, 0]))
    return out


class _FusedAdjoint:
    """T -> sum_ab mr[a, b, f] left_a T right_b^T on stacks of N x N operators,
    with left_a = left[:, :, a], one image per functional f.

    With left = u, right = u* (entrywise) and mr = mul rho this is
    (id (x) rho_f) ad_u(T); the transposed factors give the transposed map.
    The map is held by its nonzero entries when the joins that build them
    are small enough (_adjoint_entries), and applied one slice a at a time
    otherwise; either way no (N^2, N^2) or (N, N, n, n) array is formed.
    """

    def __init__(self, left: Array, right: Array, mr: Array):
        self.left, self.right, self.mr = left, right, mr
        self.entries = _adjoint_entries(left, right, mr)

    def __call__(self, t: Array, legs: slice = slice(None)) -> Array:
        """Images (..., F, N, N) of t (..., N, N) under the functionals mr[:, :, legs]."""
        if self.entries is None:
            return _adjoint_dense(self.left, self.right, self.mr[:, :, legs], t)
        return self.entries[legs].apply(t, 2)

    def matrix(self) -> Array:
        """The map as (F, N^2, N^2) matrices over vectorized operators, with
        entry [f, i N + j, k N + l] the coefficient of T_kl in image f at [i, j].

        Held entries are scattered straight into the result; otherwise the
        N^2 matrix units go through the slice loop, whose images are the result.
        """
        n_h, count = self.left.shape[0], self.mr.shape[2]
        if self.entries is None:
            units = np.eye(n_h * n_h, dtype=np.complex128).reshape(-1, n_h, n_h)
            images = _adjoint_dense(self.left, self.right, self.mr, units)
            return images.reshape(n_h * n_h, count, n_h * n_h).transpose(1, 2, 0)
        return self.entries.dense().reshape(count, n_h * n_h, n_h * n_h)

    def along(self, ops: Array):
        """The map t -> sum_f (image f of t) ops[f] for a functional with
        values in operators, ops of shape (F, N, N), as a function on stacks.

        Its entries join this map's entries with those of ops on (f, j); with
        more than N^2 n terms, or no entries here, it runs slice by slice.
        """
        limit = self.left.shape[0] ** 2 * self.left.shape[2]
        terms = self.entries and join("fijkl,fjm->imkl", self.entries, ops, limit)
        if terms is not None:
            return partial(Terms.apply, terms.summed(), k=2)
        return partial(_along_dense, self.left, self.right, self.mr, ops)


def _adjoint(
    corep: UnitaryCorep, rho: Array | None = None, transposed: bool = False
) -> _FusedAdjoint:
    """(id (x) rho_f) ad_u for functionals rho of shape (n, F); with rho None
    the functionals are the n coefficients, so the images are ad_u itself.

    transposed gives the transpose of that map over vectorized operators,
    T -> sum_ab mr[a, b] u_a^T T u*_b: its image of R^T at [k, l] is
    sum_ij R_ji (id (x) rho) ad_u(E_kl)[i, j].
    """
    left, right = corep.u, corep.entry_star()
    if transposed:
        left, right = left.transpose(1, 0, 2), right.transpose(1, 0, 2)
    mul = corep.host.mul
    if rho is None:
        return _FusedAdjoint(left, right, mul)
    if rho.shape[:1] != (corep.host.dim,):
        raise DimensionMismatch(
            f"functionals have shape {rho.shape}, expected ({corep.host.dim}, ...)"
        )
    return _FusedAdjoint(left, right, mul @ rho)


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


def _corep_law(u: Array, comul: Array) -> float:
    """max |(id (x) Delta)(U) - U_12 U_13| over its N^2 n^2 entries [i, j, a, b].

    Both sides are joins of nonzero entries, reduced together; when a side
    would have more than N^2 n terms, the bound of _adjoint_entries, the
    sides are compared densely one row i at a time.
    """
    n_h, n = u.shape[0], u.shape[2]
    entries = Terms.of(u)
    left = join("ijc,cab->ijab", entries, comul, n_h * n_h * n)
    right = left and join("ika,kjb->ijab", entries, entries, n_h * n_h * n)
    if right is not None:
        return max_gap(left, right)
    del left  # no terms stay alive through the dense comparison
    # [j, a, b] against [a, j, b], one row alive at a time; np.max keeps a
    # NaN from any row
    rows = (
        np.tensordot(u[i], comul, axes=([1], [0]))
        - np.tensordot(u[i], u, axes=([0], [0])).transpose(1, 0, 2)
        for i in range(n_h)
    )
    return float(np.max([max_abs(row) for row in rows]))


def verify_corep(
    corep: UnitaryCorep, ctx: ScalarContext = DEFAULT_CONTEXT, subject: str = "corep"
) -> AxiomReport:
    a = corep.host
    u = corep.u
    n_h = corep.hdim
    checks: list[tuple[str, float]] = [("corep-law", _corep_law(u, a.comul))]

    counit_side = np.einsum("ijc,c->ij", u, a.counit) - np.eye(n_h)
    checks.append(("corep-counit", max_abs(counit_side)))

    # sum_k u_ik u*_jk = delta_ij 1 and sum_k u*_ki u_kj = delta_ij 1, each
    # side [i, j, c] summed over the nonzero entries of u, u* and mul
    entries, ustar, m = Terms.of(u), corep.entry_star(), Terms.of(a.mul)
    target = Chain(Terms.of(np.einsum("ij,c->ijc", np.eye(n_h), a.unit)))
    row = Chain(entries, ("ika,jkb->ijab", Terms.of(ustar)), ("ijab,abc->ijc", m))
    col = Chain(
        Terms.of(ustar.transpose(1, 0, 2)), ("ika,kjb->ijab", entries), ("ijab,abc->ijc", m)
    )
    checks.append(("unitarity-right", identity_gap(row, target)))
    checks.append(("unitarity-left", identity_gap(col, target)))

    return AxiomReport(subject=subject, checks=tuple(checks), tolerance=ctx.tolerance)


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
    return Terms.of(corep.u).apply(coeffs, 1)


def ad_v(corep: UnitaryCorep, t: Array) -> Array:
    """Adjoint action on operators: ad(T)[i, j] = sum_kl v_ik T_kl (v_jl)*.

    t has shape (..., N, N) and the result (..., N, N, n).  Products and
    stars are those of the corep's host, so the same function serves
    twisted hosts.
    """
    return np.moveaxis(_adjoint(corep)(_operators(corep, t)), -3, -1)


def ad_v_tensor(corep: UnitaryCorep) -> Array:
    """All-matrix-units form of ad_v: AD[i, j, k, l] = ad(E_kl)[i, j]."""
    n_h = corep.hdim
    mats = _adjoint(corep).matrix()  # (c, i j, k l)
    return mats.reshape((-1,) + (n_h,) * 4).transpose(1, 2, 3, 4, 0)


def e_map_matrix(corep: UnitaryCorep, rho: Array) -> Array:
    """The map (id (x) rho) ad_v as an N^2 x N^2 matrix over vectorized operators."""
    return _adjoint(corep, np.reshape(rho, (-1, 1))).matrix()[0]


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
