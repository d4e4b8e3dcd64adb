"""Haar state, block decomposition of the convolution dual, matrix
coefficients, F-matrices, and rho functionals.

The dual of a finite Hopf *-algebra is a direct sum of matrix blocks.  The
decomposition here is numerical Artin-Wedderburn: split the center with a
random self-adjoint central element, then refine each block to matrix units
with a second random element and partial isometries.  Randomness comes only
from the seeded context, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import cluster_values, max_abs, nullspace, orthonormal_columns
from .core import (
    DEFAULT_CONTEXT,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    convolution_matrix,
    convolve_coeffs,
    dual_star_matrix_apply,
    freeze,
)
from .errors import DecompositionError, NotErgodic, NotFaithful

Array = np.ndarray

# eigenvalues closer than this are treated as one cluster
CLUSTER_TOL = 1e-6
MAX_RETRIES = 5


@dataclass(frozen=True, eq=False)
class HaarState:
    """The unique bi-invariant state, stored by its values on the basis."""

    host: FiniteHopfStarAlgebra
    coeffs: Array

    def __post_init__(self):
        object.__setattr__(self, "coeffs", freeze(self.coeffs))

    def functional(self) -> DualFunctional:
        return DualFunctional(self.host, self.coeffs)

    def __call__(self, x: Array) -> complex:
        return complex(np.dot(self.coeffs, np.asarray(x, dtype=np.complex128)))


def haar_state(algebra: FiniteHopfStarAlgebra, ctx: ScalarContext = DEFAULT_CONTEXT) -> HaarState:
    """Solve the two-sided invariance system; the solution space must be a line."""
    a = algebra
    n = a.dim
    # (id (x) h) Delta = h(.) 1  and  (h (x) id) Delta = h(.) 1
    m1 = a.comul.reshape(n * n, n).copy()
    m2 = a.comul.transpose(0, 2, 1).reshape(n * n, n).copy()
    for i in range(n):
        for j in range(n):
            m1[i * n + j, i] -= a.unit[j]
            m2[i * n + j, i] -= a.unit[j]
    kernel = nullspace(np.vstack([m1, m2]))
    if kernel.shape[1] != 1:
        raise NotErgodic(
            f"invariance system has a {kernel.shape[1]}-dimensional solution space"
        )
    h = kernel[:, 0]
    scale = complex(np.dot(h, a.unit))
    if abs(scale) <= ctx.tolerance:
        raise NotErgodic("invariant functional vanishes on the unit")
    h = h / scale
    state = HaarState(a, h)
    resid = haar_invariance_residual(state)
    if not ctx.close(resid):
        raise NotErgodic(f"invariance residual {resid:.3g} after normalization")
    return state


def haar_invariance_residual(h: HaarState) -> float:
    a = h.host
    left = np.einsum("ijk,k->ij", a.comul, h.coeffs) - np.outer(h.coeffs, a.unit)
    right = np.einsum("ijk,j->ik", a.comul, h.coeffs) - np.outer(h.coeffs, a.unit)
    norm = abs(complex(np.dot(h.coeffs, a.unit)) - 1.0)
    return max(max_abs(left), max_abs(right), norm)


def gram_matrix(algebra: FiniteHopfStarAlgebra, h: HaarState) -> Array:
    """Sesquilinear form g[i, j] = h(e_i* e_j) of the state h."""
    return algebra.star.T @ (algebra.mul @ h.coeffs)


def haar_pairing(algebra: FiniteHopfStarAlgebra, h: HaarState, x: Array, y: Array) -> Array:
    """h(x_I y_J) for coefficient stacks x (..., n) and y (..., n).

    The result has shape x.shape[:-1] + y.shape[:-1]; pass star_of(y) for
    the inner products h(x_I y_J*).
    """
    form = algebra.mul @ h.coeffs  # form[a, b] = h(e_a e_b)
    return np.tensordot(x @ form, y, axes=([-1], [-1]))


@dataclass(frozen=True, eq=False)
class PeterWeylBlock:
    """One matrix block of the dual: matrix units, coefficients, F-matrix."""

    dimension: int
    # (d, d, n) functional coefficients of the matrix units, held as the
    # values rho[s, m](x) = h(x_elem[s, m] x) of the rho functionals
    matrix_units: Array
    q: Array  # (d, d, n) algebra elements, dual basis to the matrix units
    f_matrix: Array  # (d, d) positive
    m_value: float
    central_idempotent: Array  # (n,) functional coefficients
    is_trivial: bool

    def __post_init__(self):
        for name in ("matrix_units", "q", "f_matrix", "central_idempotent"):
            object.__setattr__(self, name, freeze(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class PeterWeylData:
    host: FiniteHopfStarAlgebra
    haar: HaarState
    blocks: tuple[PeterWeylBlock, ...]

    @property
    def dimensions(self) -> tuple[int, ...]:
        return tuple(b.dimension for b in self.blocks)


def _dual_center(host: FiniteHopfStarAlgebra) -> Array:
    n = host.dim
    m = (host.comul - host.comul.transpose(0, 2, 1)).transpose(0, 2, 1).reshape(n * n, n)
    return nullspace(m)


def _random_self_adjoint(
    host: FiniteHopfStarAlgebra, basis: Array, rng: np.random.Generator
) -> Array:
    k = basis.shape[1]
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    z = basis @ coeffs
    return 0.5 * (z + dual_star_matrix_apply(host, z))


def _act(host: FiniteHopfStarAlgebra, phi: Array) -> Array:
    """Right-translation action of a dual element on the coefficient space."""
    return (host.comul @ phi).T


def _gns_frame(
    algebra: FiniteHopfStarAlgebra, h: HaarState, ctx: ScalarContext
) -> tuple[Array, Array]:
    """Hermitian square root of the Haar gram matrix, with its inverse.

    Conjugating _act by this root turns every self-adjoint dual element into
    an exactly Hermitian matrix, so eigh applies; for a standard orthonormal
    frame that holds only when the gram matrix is a multiple of the identity.
    """
    gram = gram_matrix(algebra, h)
    gram = 0.5 * (gram + gram.conj().T)
    vals, vecs = np.linalg.eigh(gram)
    if vals[0] <= ctx.loose_tolerance:
        raise NotFaithful(
            f"state gram matrix has eigenvalue {vals[0]:.3g}; need a faithful state"
        )
    root = np.sqrt(vals)
    s = (vecs * root) @ vecs.conj().T
    s_inv = (vecs / root) @ vecs.conj().T
    return s, s_inv


def _lagrange_idempotents(
    host: FiniteHopfStarAlgebra, z: Array, values: list[float]
) -> list[Array]:
    """Spectral idempotents of a dual element with known distinct eigenvalues."""
    idems = []
    for alpha, lam in enumerate(values):
        e = host.counit.astype(np.complex128)
        for beta, mu in enumerate(values):
            if beta == alpha:
                continue
            e = (convolve_coeffs(host, z, e) - mu * e) / (lam - mu)
        idems.append(e)
    return idems


def _split_center(
    host: FiniteHopfStarAlgebra,
    frame: tuple[Array, Array],
    ctx: ScalarContext,
    rng: np.random.Generator,
) -> list[tuple[int, Array]]:
    """Central idempotents with block dimensions, via a random central element."""
    n = host.dim
    s, s_inv = frame
    center = _dual_center(host)
    num_blocks = center.shape[1]
    last_error = "no attempt made"
    for _ in range(MAX_RETRIES):
        z = _random_self_adjoint(host, center, rng)
        m = s @ _act(host, z) @ s_inv
        if max_abs(m - m.conj().T) > 1e-7 * (1.0 + max_abs(m)):
            last_error = "central element not Hermitian in the state frame"
            continue
        eigvals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        clusters = cluster_values(eigvals, CLUSTER_TOL)
        if len(clusters) != num_blocks:
            last_error = f"{len(clusters)} clusters for {num_blocks} central dimensions"
            continue
        dims = []
        ok = True
        for _, members in clusters:
            d = np.sqrt(len(members))
            if abs(d - round(d)) > 1e-9:
                ok = False
                break
            dims.append(int(round(d)))
        if not ok or sum(d * d for d in dims) != n:
            last_error = "eigenvalue multiplicities are not perfect squares summing to dim"
            continue
        values = [float(c) for c, _ in clusters]
        idems = _lagrange_idempotents(host, z, values)
        resid = 0.0
        for e in idems:
            resid = max(resid, max_abs(convolve_coeffs(host, e, e) - e))
        resid = max(resid, max_abs(sum(idems) - host.counit))
        if resid > ctx.loose_tolerance:
            last_error = f"central idempotent residual {resid:.3g}"
            continue
        return list(zip(dims, idems))
    raise DecompositionError(f"central splitting failed: {last_error}")


def _block_matrix_units(
    host: FiniteHopfStarAlgebra,
    frame: tuple[Array, Array],
    e_alpha: Array,
    d: int,
    ctx: ScalarContext,
    rng: np.random.Generator,
) -> Array:
    """Matrix units (d, d, n) of the block cut out by a central idempotent."""
    n = host.dim
    if d == 1:
        return e_alpha.reshape(1, 1, n)
    s, s_inv = frame
    # the idempotent acts as an orthogonal projection in the state frame;
    # its column space is the d^2-dimensional isotypic component
    dual_basis = orthonormal_columns(convolution_matrix(host, e_alpha))
    if dual_basis.shape[1] != d * d:
        raise DecompositionError(
            f"block rank {dual_basis.shape[1]} differs from {d * d}"
        )
    proj = s @ _act(host, e_alpha) @ s_inv
    block_basis = orthonormal_columns(proj)
    if block_basis.shape[1] != d * d:
        raise DecompositionError(
            f"isotypic rank {block_basis.shape[1]} differs from {d * d}"
        )
    last_error = "no attempt made"
    for _ in range(MAX_RETRIES):
        y = convolve_coeffs(host, e_alpha, _random_self_adjoint(host, dual_basis, rng))
        y = 0.5 * (y + dual_star_matrix_apply(host, y))
        lmat = block_basis.conj().T @ (s @ _act(host, y) @ s_inv) @ block_basis
        if max_abs(lmat - lmat.conj().T) > 1e-7 * (1.0 + max_abs(lmat)):
            last_error = "block element not Hermitian in the state frame"
            continue
        eigvals = np.linalg.eigvalsh(0.5 * (lmat + lmat.conj().T))
        clusters = cluster_values(eigvals, CLUSTER_TOL)
        if len(clusters) != d or any(len(m) != d for _, m in clusters):
            last_error = f"block spectrum does not split into {d} simple eigenvalues"
            continue
        values = [float(c) for c, _ in clusters]
        projections = _lagrange_idempotents(host, y, values)
        # lagrange starts from the counit; cut down to the block
        projections = [convolve_coeffs(host, e_alpha, p) for p in projections]
        isometries = [projections[0]]
        ok = True
        for q_idx in range(1, d):
            best, best_norm = None, 0.0
            for b in range(n):
                probe = np.zeros(n, dtype=np.complex128)
                probe[b] = 1.0
                w = convolve_coeffs(
                    host, projections[0], convolve_coeffs(host, probe, projections[q_idx])
                )
                wn = float(np.linalg.norm(w))
                if wn > best_norm:
                    best, best_norm = w, wn
            if best is None or best_norm <= ctx.loose_tolerance:
                ok = False
                last_error = "no partial isometry candidate found"
                break
            w = best
            ww = convolve_coeffs(host, w, dual_star_matrix_apply(host, w))
            scale = complex(np.vdot(projections[0], ww)) / complex(
                np.vdot(projections[0], projections[0])
            )
            if scale.real <= 0 or abs(scale.imag) > 1e-6 * abs(scale.real):
                ok = False
                last_error = f"isometry normalizer {scale:.3g} not positive"
                break
            v = w / np.sqrt(scale.real)
            pivot = int(np.argmax(np.abs(v)))
            phase = v[pivot] / abs(v[pivot])
            isometries.append(v / phase)
        if not ok:
            continue
        units = np.zeros((d, d, n), dtype=np.complex128)
        for p in range(d):
            for q in range(d):
                units[p, q] = convolve_coeffs(
                    host, dual_star_matrix_apply(host, isometries[p]), isometries[q]
                )
        resid = _matrix_unit_residual(host, units)
        if resid > ctx.loose_tolerance:
            last_error = f"matrix-unit residual {resid:.3g}"
            continue
        return units
    raise DecompositionError(f"block refinement failed: {last_error}")


def _matrix_unit_residual(host: FiniteHopfStarAlgebra, units: Array) -> float:
    # e[p, q]* = e[q, p]; e[p, q] e[r, s] = delta_qr e[p, s], all pairs as ((p q), i, (r s))
    d, flat = len(units), units.reshape(-1, host.dim)
    stars = dual_star_matrix_apply(host, flat.T).T.reshape(units.shape)
    prods = np.tensordot(flat, host.comul @ flat.T, axes=([1], [1]))
    want = np.einsum("qr,psi->pqirs", np.eye(d), units).reshape(d * d, host.dim, d * d)
    return max(max_abs(stars - units.transpose(1, 0, 2)), max_abs(prods - want))


def decompose(
    algebra: FiniteHopfStarAlgebra,
    h: HaarState,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> PeterWeylData:
    """Full Peter-Weyl data: blocks, matrix coefficients, F-matrices, rho."""
    n = algebra.dim
    rng = ctx.rng()
    frame = _gns_frame(algebra, h, ctx)
    raw_blocks = _split_center(algebra, frame, ctx, rng)
    if sum(d * d for d, _ in raw_blocks) != n:
        raise DecompositionError("block dimensions do not account for the algebra")

    staged = []
    for d, e_alpha in raw_blocks:
        units = _block_matrix_units(algebra, frame, e_alpha, d, ctx, rng)
        staged.append((d, e_alpha, units))

    # deterministic order: by dimension, then by the idempotent's rounded vector
    def sort_key(item):
        d, e_alpha, _ = item
        return (
            d,
            tuple(np.round(e_alpha.real, 6)),
            tuple(np.round(e_alpha.imag, 6)),
        )

    staged.sort(key=sort_key)

    # dual basis: q elements are read off from the inverse of the stacked units
    stack = np.vstack([units.reshape(d * d, n) for d, _, units in staged])
    if stack.shape != (n, n):
        raise DecompositionError("matrix units do not fill the dual")
    q_cols = np.linalg.inv(stack)

    blocks: list[PeterWeylBlock] = []
    offset = 0
    trivial_found = False
    for d, e_alpha, units in staged:
        q = q_cols[:, offset : offset + d * d].T.reshape(d, d, n)
        offset += d * d
        f_matrix, m_value = _f_matrix(algebra, h, q, ctx)
        _, rho = _rho_data(algebra, h, q, f_matrix, m_value)
        resid = max_abs(rho - units)
        if not ctx.close(resid):
            raise DecompositionError(
                f"rho functionals disagree with matrix units, residual {resid:.3g}"
            )
        is_trivial = d == 1 and max_abs(q[0, 0] - algebra.unit) <= ctx.loose_tolerance
        trivial_found = trivial_found or is_trivial
        blocks.append(
            PeterWeylBlock(
                dimension=d,
                matrix_units=rho,
                q=q,
                f_matrix=f_matrix,
                m_value=m_value,
                central_idempotent=e_alpha,
                is_trivial=is_trivial,
            )
        )
    if not trivial_found:
        raise DecompositionError("no block carries the unit as its coefficient")
    blocks.sort(key=lambda b: (not b.is_trivial, b.dimension,
                               tuple(np.round(b.central_idempotent.real, 6)),
                               tuple(np.round(b.central_idempotent.imag, 6))))
    data = PeterWeylData(host=algebra, haar=h, blocks=tuple(blocks))
    _validate(data, ctx)
    return data


def _f_matrix(
    algebra: FiniteHopfStarAlgebra,
    h: HaarState,
    q: Array,
    ctx: ScalarContext,
) -> tuple[Array, float]:
    """F and its trace from the invariant h(q_ij q_kl*) = (1/M) delta_ik F[j, l]."""
    d = q.shape[0]
    gram = haar_pairing(algebra, h, q, algebra.star_of(q))
    s = np.einsum("ijil->jl", gram) / d
    off = gram - np.einsum("jl,ik->ijkl", s, np.eye(d))
    if max_abs(off) > ctx.loose_tolerance:
        raise DecompositionError(
            f"orthogonality pattern violated inside a block, residual {max_abs(off):.3g}"
        )
    s = 0.5 * (s + s.conj().T)
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] <= ctx.tolerance:
        raise DecompositionError("block form of the Haar state is not positive")
    s_inv = np.linalg.inv(s)
    m_value = float(np.sqrt(np.trace(s_inv).real / np.trace(s).real))
    return m_value * s, m_value


def _rho_data(
    algebra: FiniteHopfStarAlgebra,
    h: HaarState,
    q: Array,
    f_matrix: Array,
    m_value: float,
) -> tuple[Array, Array]:
    """x elements and the functionals rho[s, m](x) = h(x_elem[s, m] x)."""
    # x_elems[s, m] = M sum_k F[k, s] q[k, m]*
    x_elems = m_value * np.tensordot(f_matrix, algebra.star_of(q), axes=([0], [0]))
    # rho[s, m][c] = sum_tw x_elems[s, m][t] mul[t, c, w] h[w]
    return x_elems, x_elems @ (algebra.mul @ h.coeffs)


def _validate(data: PeterWeylData, ctx: ScalarContext) -> None:
    algebra, h = data.host, data.haar
    resid = 0.0
    for b in data.blocks:
        f = b.f_matrix
        f_inv = np.linalg.inv(f)
        resid = max(resid, abs(np.trace(f).real - np.trace(f_inv).real))
        resid = max(resid, abs(np.trace(f).real - b.m_value))
    # cross-block orthogonality of coefficients under h( . (.)* ), every
    # block's q as rows (block, i, j) of one pairing
    q = np.concatenate([b.q.reshape(-1, algebra.dim) for b in data.blocks])
    label = np.repeat(np.arange(len(data.blocks)), [b.dimension**2 for b in data.blocks])
    pairing = haar_pairing(algebra, h, q, algebra.star_of(q))
    resid = max(resid, max_abs(pairing[label[:, None] != label[None, :]]))
    if not ctx.close(resid):
        raise DecompositionError(f"orthogonality validation failed, residual {resid:.3g}")


def rho_functionals(
    data: PeterWeylData, ctx: ScalarContext = DEFAULT_CONTEXT
) -> list[dict]:
    """Per-block rho families with the biorthogonality residual recorded."""
    n = data.host.dim
    # rows: every q[i, j] of every block, in block order
    q_all = np.vstack([b.q.reshape(-1, n) for b in data.blocks])
    out = []
    offset = 0
    for idx, b in enumerate(data.blocks):
        d = b.dimension
        # rho[p, r](q[i, j]) is 1 exactly at the block's own (p, r) = (i, j)
        want = np.zeros((d * d, n))
        want[:, offset:offset + d * d] = np.eye(d * d)
        offset += d * d
        resid = max_abs(b.matrix_units.reshape(d * d, n) @ q_all.T - want)
        sum_diag = np.trace(b.matrix_units)
        out.append(
            {
                "block": idx,
                "dimension": d,
                "rho": np.array(b.matrix_units),
                "rho_pi": DualFunctional(data.host, sum_diag),
                "biorthogonality_residual": resid,
                "passed": bool(resid <= ctx.tolerance),
            }
        )
    return out
