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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import derived, max_abs, nullspace
from .core import (
    DEFAULT_CONTEXT,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    dual,
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


def _center(algebra: FiniteHopfStarAlgebra) -> Array:
    """Orthonormal columns spanning the z of the dual with z e_k = e_k z for
    every k.  The dual's product is algebra's coproduct, which a twist
    keeps, so it is found once per frozen coproduct (_linalg.derived)."""

    def compute() -> Array:
        hat = dual(algebra)
        n = hat.dim
        commutator = hat.mul - hat.mul.transpose(1, 0, 2)  # [j, k, i]
        center = nullspace(commutator.transpose(2, 1, 0).reshape(n * n, n))
        center.flags.writeable = False
        return center

    return derived((algebra.comul,), "center of the dual", compute)


def _in_frame(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], z: Array) -> Array:
    """z acting on the algebra, a -> a_(1) z(a_(2)), in the state frame: the
    transpose of right multiplication by z in the dual."""
    s, s_inv = frame
    return s @ hat.product(np.eye(hat.dim), z).T @ s_inv


def _gns_frame(
    algebra: FiniteHopfStarAlgebra, h: HaarState, ctx: ScalarContext
) -> tuple[Array, Array]:
    """Hermitian square root of the Haar gram matrix, with its inverse.

    Conjugating the action of the dual by this root (_in_frame) turns every
    self-adjoint dual element into an exactly Hermitian matrix, so eigh
    applies; for a standard orthonormal frame that holds only when the gram
    matrix is a multiple of the identity.
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


def _projection_element(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], v: Array) -> Array:
    """The dual element e whose action is the orthogonal projection v v^H in
    the state frame, for orthonormal columns v: e = 1 e, with 1 the dual's
    unit, is read off that action, so no solve enters."""
    s, s_inv = frame
    return (hat.unit @ s_inv @ v) @ (v.conj().T @ s)


def _retrying(what: str, attempt):
    """attempt(), repeated up to MAX_RETRIES times while it raises DecompositionError."""
    for _ in range(MAX_RETRIES):
        try:
            return attempt()
        except DecompositionError as exc:
            last_error = exc
    raise DecompositionError(f"{what} failed: {last_error}")


def _split_center(
    hat: FiniteHopfStarAlgebra,
    center: Array,
    frame: tuple[Array, Array],
    ctx: ScalarContext,
    rng: np.random.Generator,
) -> list[tuple[int, Array, Array]]:
    """(block dimension, central idempotent, isotypic basis in the state
    frame) per block, from the eigenvectors of a random central element
    of hat, whose center has the orthonormal columns center."""
    k = center.shape[1]

    def attempt():
        # a random self-adjoint central element
        z = center @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
        z = 0.5 * (z + hat.star_of(z))
        groups = _eigen_split(_in_frame(hat, frame, z), k)
        dims = [math.isqrt(g.shape[1]) for g in groups]
        if any(d * d != g.shape[1] for d, g in zip(dims, groups)):
            raise DecompositionError("eigenvalue multiplicities are not perfect squares")
        idems = [_projection_element(hat, frame, g) for g in groups]
        resid = max(max_abs(hat.product(e, e) - e) for e in idems)
        resid = max(resid, max_abs(sum(idems) - hat.unit))
        if resid > ctx.loose_tolerance:
            raise DecompositionError(f"central idempotent residual {resid:.3g}")
        return list(zip(dims, idems, groups))

    return _retrying("central splitting", attempt)


def _block_matrix_units(
    hat: FiniteHopfStarAlgebra,
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
    n, d = hat.dim, math.isqrt(basis.shape[1])
    if d == 1:
        return e_alpha.reshape(1, 1, n)

    def attempt():
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = 0.5 * (r + hat.star_of(r))
        groups = _eigen_split(basis.conj().T @ _in_frame(hat, frame, z) @ basis, d, d)
        projections = [_projection_element(hat, frame, basis @ g) for g in groups]
        p0 = projections[0]
        isometries = [p0]
        for p in projections[1:]:
            w = hat.product(p0, hat.product(r, p))
            ww = hat.product(w, hat.star_of(w))
            scale = complex(np.vdot(p0, ww)) / complex(np.vdot(p0, p0))
            if scale.real <= 0 or abs(scale.imag) > 1e-6 * abs(scale.real):
                raise DecompositionError(f"isometry normalizer {scale:.3g} not positive")
            v = w / np.sqrt(scale.real)
            pivot = int(np.argmax(np.abs(v)))
            phase = v[pivot] / abs(v[pivot])
            isometries.append(v / phase)
        stars = [hat.star_of(v) for v in isometries]
        units = np.array([[hat.product(a, b) for b in isometries] for a in stars])
        resid = _matrix_unit_residual(hat, units)
        if resid > ctx.loose_tolerance:
            raise DecompositionError(f"matrix-unit residual {resid:.3g}")
        return units

    return _retrying("block refinement", attempt)


def _matrix_unit_residual(hat: FiniteHopfStarAlgebra, units: Array) -> float:
    # e[p, q]* = e[q, p]; e[p, q] e[r, s] = delta_qr e[p, s], all pairs as ((p q), i, (r s))
    d, flat = len(units), units.reshape(-1, hat.dim)
    stars = hat.star_of(flat).reshape(units.shape)
    prods = np.stack([hat.product(flat.T, y) for y in flat], axis=-1).transpose(1, 0, 2)
    want = np.einsum("qr,psi->pqirs", np.eye(d), units).reshape(d * d, hat.dim, d * d)
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
    hat = dual(algebra)
    staged = [
        (d, e_alpha, _block_matrix_units(hat, frame, e_alpha, basis, ctx, rng))
        for d, e_alpha, basis in _split_center(hat, _center(algebra), frame, ctx, rng)
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
    # the blocks of one dimension are consecutive, and each run of them is
    # taken at once, as stacks
    for d, run in itertools.groupby(staged, key=lambda item: item[0]):
        run = list(run)
        k = len(run)
        q = q_cols[:, offset : offset + k * d * d].T.reshape(k, d, d, n)
        offset += k * d * d
        f_matrix, m_value, errors = _f_matrices(algebra, h, q, ctx)
        _, rho = _rho_data(algebra, h, q, f_matrix, m_value)
        resid = max_abs(rho - np.stack([units for _, _, units in run]), lead=(k,))
        trivial = max_abs(q[:, 0, 0] - algebra.unit, lead=(k,)) <= ctx.loose_tolerance
        for b, (_, e_alpha, _) in enumerate(run):
            if errors[b] is None and not ctx.close(resid[b]):
                errors[b] = f"rho functionals disagree with matrix units, residual {resid[b]:.3g}"
            if errors[b] is not None:
                raise DecompositionError(errors[b])
            blocks.append(
                PeterWeylBlock(
                    dimension=d,
                    matrix_units=rho[b],
                    q=q[b],
                    f_matrix=f_matrix[b],
                    m_value=float(m_value[b]),
                    central_idempotent=e_alpha,
                    is_trivial=bool(d == 1 and trivial[b]),
                )
            )
    if not any(b.is_trivial for b in blocks):
        raise DecompositionError("no block carries the unit as its coefficient")
    blocks.sort(key=lambda b: (not b.is_trivial, b.dimension,
                               tuple(np.round(b.central_idempotent.real, 6)),
                               tuple(np.round(b.central_idempotent.imag, 6))))
    data = PeterWeylData(host=algebra, haar=h, blocks=tuple(blocks))
    _validate(data, ctx)
    return data


def _f_matrices(
    algebra: FiniteHopfStarAlgebra,
    h: HaarState,
    q: Array,
    ctx: ScalarContext,
) -> tuple[Array, Array, list[str | None]]:
    """F and its trace from the invariant h(q_ij q_kl*) = (1/M) delta_ik F[j, l],
    for a stack q (k, d, d, n) of the coefficients of k blocks of dimension
    d; with, per block, the error that rejects it, or None.  A block whose
    form is not positive has the identity in place of its F."""
    k, d = q.shape[:2]
    # h(x y*) for every pair of coefficients of a block, block by block:
    # haar_pairing's products, each of the shape it has for one block
    xf = q @ (algebra.mul @ h.coeffs)
    gram = xf.reshape(k, d * d, -1) @ algebra.star_of(q).reshape(k, d * d, -1).swapaxes(1, 2)
    gram = gram.reshape(k, d, d, d, d)
    s = np.einsum("bijil->bjl", gram) / d
    off = max_abs(gram - np.einsum("bjl,ik->bijkl", s, np.eye(d)), lead=(k,))
    s = 0.5 * (s + s.conj().swapaxes(1, 2))
    # a NaN passes both tests, as it did block by block
    positive = ~(np.linalg.eigvalsh(s)[:, 0] <= ctx.tolerance)
    errors = [
        f"orthogonality pattern violated inside a block, residual {o:.3g}"
        if o > ctx.loose_tolerance
        else None if ok else "block form of the Haar state is not positive"
        for o, ok in zip(off, positive)
    ]
    s = np.where(positive[:, None, None], s, np.eye(d))
    s_inv = np.linalg.inv(s)
    m_value = np.sqrt(np.trace(s_inv, axis1=1, axis2=2).real / np.trace(s, axis1=1, axis2=2).real)
    return m_value[:, None, None] * s, m_value, errors


def _rho_data(
    algebra: FiniteHopfStarAlgebra,
    h: HaarState,
    q: Array,
    f_matrix: Array,
    m_value: Array,
) -> tuple[Array, Array]:
    """x elements and the functionals rho[s, m](x) = h(x_elem[s, m] x) of
    each block of the stacks q (k, d, d, n), F (k, d, d) and M (k,)."""
    k, d, _, n = q.shape
    # x_elems[s, m] = M sum_k F[k, s] q[k, m]*
    star_q = algebra.star_of(q).reshape(k, d, d * n)
    x_elems = m_value[:, None, None, None] * (f_matrix.swapaxes(1, 2) @ star_q).reshape(k, d, d, n)
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
