"""Unitary corepresentations on finite Hilbert spaces.

A corep is an N x N matrix of algebra elements u[i, j] (each an n-vector).
The module provides the dual representation pi_U, the adjoint action ad_V on
operators, spectral projections, and decomposition into irreducibles with
adapted orthonormal bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import extend_rows, max_abs
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

    def __post_init__(self):
        arr = freeze(self.u)
        if arr.shape != (self.hdim, self.hdim, self.host.dim):
            raise DimensionMismatch(
                f"corep tensor has shape {arr.shape}, expected "
                f"{(self.hdim, self.hdim, self.host.dim)}"
            )
        object.__setattr__(self, "u", arr)

    def entry_star(self) -> Array:
        """Entrywise star: (u*)[i, j] = u[i, j]*."""
        return np.einsum("cb,ijb->ijc", self.host.star, np.conj(self.u))

    def star_mul(self) -> Array:
        """(u*)[j, l, b] mul[a, b, c] as (j, l, a, c): u* as a right factor."""
        return np.tensordot(self.entry_star(), self.host.mul, axes=([2], [1]))

    def apply(self, vec: Array) -> Array:
        """Image of a vector under the corep, as an (N, n) tensor leg pair."""
        return np.einsum("ijc,j->ic", self.u, vec)


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
    host: FiniteHopfStarAlgebra, ctx: ScalarContext = DEFAULT_CONTEXT
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


def multiply_legs(host: FiniteHopfStarAlgebra, x: Array) -> Array:
    """Host product of legs 1 and 3: (i, a, j, b) -> (i, j, c) via mul[a, b, c]."""
    return np.tensordot(x, host.mul, axes=([1, 3], [0, 1]))


def verify_corep(
    corep: UnitaryCorep, ctx: ScalarContext = DEFAULT_CONTEXT, subject: str = "corep"
) -> AxiomReport:
    a = corep.host
    u = corep.u
    n_h = corep.hdim
    checks: list[tuple[str, float]] = []

    # (id (x) Delta)(U) - U_12 U_13, both as (i, j, a, b)
    law = np.tensordot(u, a.comul, axes=([2], [0])) - np.tensordot(
        u, u, axes=([1], [0])
    ).transpose(0, 2, 1, 3)
    checks.append(("corep-law", max_abs(law)))

    counit_side = np.einsum("ijc,c->ij", u, a.counit) - np.eye(n_h)
    checks.append(("corep-counit", max_abs(counit_side)))

    ustar = corep.entry_star()
    target = np.einsum("ij,c->ijc", np.eye(n_h), a.unit)
    row = multiply_legs(a, np.tensordot(u, ustar, axes=([1], [1]))) - target
    col = multiply_legs(a, np.tensordot(ustar, u, axes=([0], [0]))) - target
    checks.append(("unitarity-right", max_abs(row)))
    checks.append(("unitarity-left", max_abs(col)))

    return AxiomReport(subject=subject, checks=tuple(checks), tolerance=ctx.tolerance)


def pi_u(corep: UnitaryCorep, omega: DualFunctional | Array) -> Array:
    """The dual acting on the carrier space: (id (x) omega)(U).

    omega is a functional or coefficients of shape (..., n); the result has
    shape (..., N, N).
    """
    coeffs = omega.coeffs if isinstance(omega, DualFunctional) else np.asarray(omega)
    return np.einsum("ijc,...c->...ij", corep.u, coeffs)


def ad_v(corep: UnitaryCorep, t: Array) -> Array:
    """Adjoint action on operators: ad(T)[i, j] = sum_kl v_ik T_kl (v_jl)*.

    t has shape (..., N, N) and the result (..., N, N, n).  Products and
    stars are those of the corep's host, so the same function serves
    twisted hosts.
    """
    # star_mul is shared by the whole stack; T u -> (..., l, i, a); then
    # contract (a, l) -> (..., i, j, c)
    tu = np.tensordot(np.asarray(t, dtype=np.complex128), corep.u, axes=([-2], [1]))
    return np.tensordot(tu, corep.star_mul(), axes=([-3, -1], [1, 2]))


def ad_v_tensor(corep: UnitaryCorep) -> Array:
    """All-matrix-units form of ad_v: AD[i, j, k, l] = ad(E_kl)[i, j]."""
    # star_mul (j, l, a, c), then u over a -> (i, k, j, l, c)
    return np.tensordot(corep.u, corep.star_mul(), axes=([2], [2])).transpose(0, 2, 1, 3, 4)


def e_map_matrix(corep: UnitaryCorep, rho: Array) -> Array:
    """The map (id (x) rho) ad_v as an N^2 x N^2 matrix over vectorized operators."""
    n_h = corep.hdim
    # ad(E_kl)[i, j] = u[i, k, a] (u*)[j, l, b] mul[a, b, c]: rho meets the
    # product leg first, then u (mul rho) as ((i k), b) meets u* as ((j l), b)
    left = (corep.u @ (corep.host.mul @ rho)).reshape(n_h * n_h, -1)
    emap = left @ corep.entry_star().reshape(n_h * n_h, -1).T
    return emap.reshape((n_h,) * 4).transpose(0, 2, 1, 3).reshape(n_h * n_h, n_h * n_h)


def spectral_projection(corep: UnitaryCorep, pw: PeterWeylData, block: int) -> dict:
    """P of one block as a matrix over vec(T): the E-map of sum_s rho[s, s]."""
    if pw.host is not corep.host:
        raise HostMismatch("Peter-Weyl data belongs to a different host")
    return {"block": block, "p": e_map_matrix(corep, np.trace(pw.blocks[block].matrix_units))}


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    corep: UnitaryCorep
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
    return SpectralDecomposition(corep=corep, entries=tuple(entries), residual=worst)
