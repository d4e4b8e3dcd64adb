"""Haar state, block decomposition of the convolution dual, matrix
coefficients, F-matrices, and rho functionals.

The dual of a finite Hopf *-algebra is a direct sum of matrix blocks.  The
decomposition is numerical Artin-Wedderburn by eigenvectors (Murota, Kanno,
Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010): in the frame where
the Haar state's Gram matrix is the identity, a random self-adjoint central
element is a Hermitian matrix whose eigenspaces are the isotypic components,
and a random self-adjoint element cut down to one component has eigenspaces
that give its minimal projections.  Each projection is read back as a dual
element by the counit law, so no solve or polynomial in the random element
enters.  Randomness comes only from the seeded context, so results are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import max_abs, nullspace
from .core import (
    DEFAULT_CONTEXT,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    convolve_coeffs,
    dual_star_matrix_apply,
    freeze,
)
from .errors import DecompositionError, NotErgodic, NotFaithful

Array = np.ndarray

# a cut between two eigenvalue groups must be this many times wider than
# the widest group
SPLIT_MARGIN = 1e6
MAX_RETRIES = 5


class HaarState(DualFunctional):
    """The unique bi-invariant state, stored by its values on the basis."""


def haar_state(algebra: FiniteHopfStarAlgebra, ctx: ScalarContext = DEFAULT_CONTEXT) -> HaarState:
    """h(a) = Tr(L_a) / n, the normalized trace of the left regular
    representation.  A finite compact quantum group is of Kac type, and this
    trace is its Haar state (R. G. Larson, "Characters of Hopf algebras",
    J. Algebra 17, 1971); the invariance residual accepts it."""
    state = HaarState(algebra, np.einsum("ijj->i", algebra.mul) / algebra.dim)
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


def _eigen_split(m: Array, parts: int, size: int = 0) -> list[Array]:
    """Eigenvector groups of the Hermitian matrix m, each a run of its sorted spectrum.

    The spectrum is cut at its parts - 1 widest gaps or, given size, into
    parts runs of size eigenvalues each.  The split is rejected unless the
    narrowest cut is SPLIT_MARGIN times wider than the widest run, counted
    at least rounding wide.  This is the eigenvalue step of Murota, Kanno,
    Kojima & Kojima, "A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27 (2010).
    """
    if max_abs(m - m.conj().T) > 1e-7 * (1.0 + max_abs(m)):
        raise DecompositionError("element not Hermitian in the state frame")
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    gaps = np.diff(vals)
    if size:
        cuts = np.arange(size, vals.size, size)
    else:
        cuts = np.sort(np.argsort(gaps)[::-1][: parts - 1]) + 1
    bounds = list(zip([0, *cuts], [*cuts, vals.size]))
    spread = max(vals[hi - 1] - vals[lo] for lo, hi in bounds)
    spread = max(spread, vals.size * np.finfo(float).eps * np.abs(vals).max())
    if cuts.size and gaps[cuts - 1].min() <= SPLIT_MARGIN * spread:
        raise DecompositionError(
            f"spectrum does not split into {parts} groups: narrowest cut "
            f"{gaps[cuts - 1].min():.3g}, widest group {spread:.3g}"
        )
    return [vecs[:, lo:hi] for lo, hi in bounds]


def _projection_element(host: FiniteHopfStarAlgebra, frame: tuple[Array, Array], v: Array) -> Array:
    """The dual element e whose action is the orthogonal projection v v^H in
    the state frame, for orthonormal columns v: e = counit act(e) by the
    counit law, so no solve enters."""
    s, s_inv = frame
    return (host.counit @ s_inv @ v) @ (v.conj().T @ s)


def _retrying(what: str, attempt):
    """attempt(), repeated up to MAX_RETRIES times while it raises DecompositionError."""
    for _ in range(MAX_RETRIES):
        try:
            return attempt()
        except DecompositionError as exc:
            last_error = exc
    raise DecompositionError(f"{what} failed: {last_error}")


def _split_center(
    host: FiniteHopfStarAlgebra,
    frame: tuple[Array, Array],
    ctx: ScalarContext,
    rng: np.random.Generator,
) -> list[tuple[int, Array, Array]]:
    """(block dimension, central idempotent, isotypic basis in the state
    frame) per block, from the eigenvectors of a random central element."""
    s, s_inv = frame
    center = _dual_center(host)

    def attempt():
        z = _random_self_adjoint(host, center, rng)
        groups = _eigen_split(s @ _act(host, z) @ s_inv, center.shape[1])
        dims = [math.isqrt(g.shape[1]) for g in groups]
        if any(d * d != g.shape[1] for d, g in zip(dims, groups)):
            raise DecompositionError("eigenvalue multiplicities are not perfect squares")
        idems = [_projection_element(host, frame, g) for g in groups]
        resid = max(max_abs(convolve_coeffs(host, e, e) - e) for e in idems)
        resid = max(resid, max_abs(sum(idems) - host.counit))
        if resid > ctx.loose_tolerance:
            raise DecompositionError(f"central idempotent residual {resid:.3g}")
        return list(zip(dims, idems, groups))

    return _retrying("central splitting", attempt)


def _block_matrix_units(
    host: FiniteHopfStarAlgebra,
    frame: tuple[Array, Array],
    e_alpha: Array,
    basis: Array,
    ctx: ScalarContext,
    rng: np.random.Generator,
) -> Array:
    """Matrix units (d, d, n) of the block with central idempotent e_alpha,
    whose d^2-dimensional isotypic component has basis in the state frame.

    A random element r has self-adjoint part z; z cut down to the block has
    d eigenvalues, each d times over, whose eigenvector groups give the
    minimal projections p_0, ..., p_{d-1}.  The partial isometry from p_q to
    p_0 is p_0 r p_q, normalized.
    """
    n, d = host.dim, math.isqrt(basis.shape[1])
    if d == 1:
        return e_alpha.reshape(1, 1, n)
    s, s_inv = frame

    def attempt():
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = 0.5 * (r + dual_star_matrix_apply(host, r))
        groups = _eigen_split(basis.conj().T @ (s @ _act(host, z) @ s_inv) @ basis, d, d)
        projections = [_projection_element(host, frame, basis @ g) for g in groups]
        p0 = projections[0]
        isometries = [p0]
        for p in projections[1:]:
            w = convolve_coeffs(host, p0, convolve_coeffs(host, r, p))
            ww = convolve_coeffs(host, w, dual_star_matrix_apply(host, w))
            scale = complex(np.vdot(p0, ww)) / complex(np.vdot(p0, p0))
            if scale.real <= 0 or abs(scale.imag) > 1e-6 * abs(scale.real):
                raise DecompositionError(f"isometry normalizer {scale:.3g} not positive")
            v = w / np.sqrt(scale.real)
            pivot = int(np.argmax(np.abs(v)))
            phase = v[pivot] / abs(v[pivot])
            isometries.append(v / phase)
        stars = [dual_star_matrix_apply(host, v) for v in isometries]
        units = np.array([[convolve_coeffs(host, a, b) for b in isometries] for a in stars])
        resid = _matrix_unit_residual(host, units)
        if resid > ctx.loose_tolerance:
            raise DecompositionError(f"matrix-unit residual {resid:.3g}")
        return units

    return _retrying("block refinement", attempt)


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
    staged = [
        (d, e_alpha, _block_matrix_units(algebra, frame, e_alpha, basis, ctx, rng))
        for d, e_alpha, basis in _split_center(algebra, frame, ctx, rng)
    ]

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
