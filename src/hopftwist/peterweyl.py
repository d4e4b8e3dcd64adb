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
enters.  The central element is a random element projected onto the center
by the adjoint action of the Haar state, the dual's integral (_center).
Randomness comes only from the seeded context, so results are reproducible.
The blocks of one dimension are refined and checked as stacks, each product
shaped as for one block, so that a block is the same bytes in any stack.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from ._linalg import Chain, batches, max_abs, uniform, worst
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
    state = HaarState(algebra, _trace_state(algebra.mul))
    resid = haar_invariance_residual(state)
    if not ctx.close(resid):
        raise NotErgodic(f"invariance residual {resid:.3g} after normalization")
    return state


def _trace_state(mul: Array) -> Array:
    """Tr(L_a) / n on each basis element a, for the product tensor mul."""
    return np.einsum("ijj->i", mul) / len(mul)


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
    """P[m, k], the projection x -> h_(1) x S(h_(2)) of the dual onto its
    center at the k-th dual basis element x, for h the trace state, the
    dual's normalized integral (Larson & Radford, Amer. J. Math. 110, 1988);
    trace(P) counts the blocks.  Formed once per coalgebra record, which a
    twist shares with its host (core._Coalgebra)."""
    record = algebra._coalgebra
    if record.center is None:
        hat = dual(algebra).mul
        form = record.mul @ _trace_state(record.mul)  # h(e_i e_j), the dual's coproduct of h
        record.center = Chain(hat.transpose(1, 0, 2), ("kip,ij->kjp", form),
                              ("kjp,qj->kpq", record.antipode.T), ("kpq,pqm->km", hat)).array().T
        record.center.flags.writeable = False
    return record.center


def _product(hat: FiniteHopfStarAlgebra, x: Array | None, y: Array) -> Array:
    """x y in hat for stacks x and y (..., n), or for x None the matrices of
    right multiplication by y, each the same bytes as in hat.product(x, y)."""
    right = (hat.mul.transpose(2, 0, 1) @ y[..., None, :, None])[..., 0]
    return right if x is None else (right @ x[..., None])[..., 0]


def _in_frame(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], z: Array) -> Array:
    """z (..., n) acting on the algebra, a -> a_(1) z(a_(2)), in the state
    frame: the transpose of right multiplication by z in the dual."""
    s, s_inv = frame
    return s @ _product(hat, None, z).swapaxes(-1, -2) @ s_inv


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


def _eigen_split(m: Array, parts: int, size: int = 0) -> tuple[Array, Array, list[str | None]]:
    """Eigenvectors of each Hermitian matrix of the stack m (k, N, N) by its
    sorted spectrum, the bounds (k, parts + 1) of the runs of it that are
    its groups, and per matrix the error that rejects the split, or None.
    The spectrum is cut at its parts - 1 widest gaps or, given size, into
    parts runs of size eigenvalues each.  The split is rejected unless the
    narrowest cut is SPLIT_MARGIN times wider than the widest run, counted
    at least rounding wide.  This is the eigenvalue step of Murota, Kanno,
    Kojima & Kojima, "A numerical algorithm for block-diagonal decomposition
    of matrix *-algebras", Japan J. Indust. Appl. Math. 27 (2010).
    """
    k, big_n = m.shape[:2]
    m_h = m.conj().swapaxes(1, 2)
    skew = max_abs(m - m_h, lead=(k,)) > 1e-7 * (1.0 + max_abs(m, lead=(k,)))
    vals, vecs = np.linalg.eigh(0.5 * (m + m_h))
    gaps = np.diff(vals)
    bounds = np.full((k, parts + 1), big_n)
    bounds[:, 0] = 0
    bounds[:, 1:-1] = np.arange(size, big_n, size) if size else np.sort(
        np.argsort(gaps)[:, ::-1][:, : parts - 1]) + 1
    rows = np.arange(k)[:, None]
    spread = (vals[rows, bounds[:, 1:] - 1] - vals[rows, bounds[:, :-1]]).max(1)
    spread = np.maximum(spread, big_n * np.finfo(float).eps * np.abs(vals).max(1))
    cut = gaps[rows, bounds[:, 1:-1] - 1].min(1, initial=np.inf)
    return vecs, bounds, [
        "element not Hermitian in the state frame" if bad
        else f"spectrum does not split into {parts} groups: narrowest cut {c:.3g}, "
        f"widest group {w:.3g}" if c <= SPLIT_MARGIN * w else None
        for bad, c, w in zip(skew, cut, spread)
    ]


def _projection_element(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], v: Array) -> Array:
    """The dual element e whose action is the orthogonal projection v v^H in
    the state frame, for orthonormal columns v (..., n, c): e = 1 e, with 1
    the dual's unit, is read off that action, so no solve enters."""
    s, s_inv = frame
    return (((hat.unit @ s_inv) @ v)[..., None, :] @ (v.conj().swapaxes(-1, -2) @ s))[..., 0, :]


def _split_center(hat: FiniteHopfStarAlgebra, center: Array, frame: tuple[Array, Array],
                  ctx: ScalarContext, rng: random.Random) -> tuple[list[int], Array, list[Array]]:
    """The dimension, central idempotent (a row of a (K, n) stack) and
    isotypic basis in the state frame of each block, from the eigenvectors
    of a random central element of hat, the projection center (_center) of
    a random element; drawn again up to MAX_RETRIES times."""
    n, count = hat.dim, complex(np.trace(center))
    k = int(np.rint(count.real)) if abs(count - np.rint(count.real)) <= ctx.loose_tolerance else 0
    if k < 1:
        raise DecompositionError(f"central projection has trace {count:.6g}, not a block count")
    for _ in range(MAX_RETRIES):
        # a random self-adjoint central element
        z = center @ uniform(rng, (n,), np.complex128)
        z = 0.5 * (z + hat.star_of(z))
        vecs, bounds, (error,) = _eigen_split(_in_frame(hat, frame, z)[None], k)
        groups = [vecs[0][:, lo:hi] for lo, hi in zip(bounds[0], bounds[0][1:])]
        dims = [math.isqrt(g.shape[1]) for g in groups]
        if not error and any(d * d != g.shape[1] for d, g in zip(dims, groups)):
            error = "eigenvalue multiplicities are not perfect squares"
        if not error:
            idems = np.empty((k, n), dtype=np.complex128)
            for d in set(dims):
                which = [b for b, e in enumerate(dims) if e == d]
                idems[which] = _projection_element(hat, frame, np.stack([groups[b] for b in which]))
            # each idempotent is a 1 x 1 matrix unit: e* = e = e e
            square = _matrix_unit_residual(hat, idems[:, None, None])
            resid = worst([max_abs(idems.sum(0) - hat.unit), *square])
            if resid <= ctx.loose_tolerance:
                idems.flags.writeable = False  # so the blocks hold views of it
                return dims, idems, groups
            error = f"central idempotent residual {resid:.3g}"
    raise DecompositionError(f"central splitting failed: {error}")


def _matrix_units(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], split: tuple,
                  ctx: ScalarContext, rng: random.Random) -> list[Array]:
    """Matrix units (d, d, n) of each block of the split (_split_center): its
    idempotent where d = 1; else refined with the others of its dimension in
    the batches of _linalg.batches (_refine), from one random element drawn
    in the order of the split.  Rejected blocks draw again, MAX_RETRIES times."""
    (dims, idems, groups), n = split, hat.dim
    units = [e.reshape(1, 1, n) if d == 1 else None for d, e in zip(dims, idems)]
    todo = [b for b, d in enumerate(dims) if d > 1]
    for _ in range(MAX_RETRIES):
        draws = dict(zip(todo, uniform(rng, (len(todo), n), np.complex128)))
        errors = {}
        for d in sorted({dims[b] for b in todo}):
            run = [b for b in todo if dims[b] == d]
            for stack in (run[part] for part in batches(len(run), n * n)):
                basis, r = np.stack([groups[b] for b in stack]), np.stack([draws[b] for b in stack])
                for b, u, error in zip(stack, *_refine(hat, frame, basis, r, ctx)):
                    units[b], errors[b] = u, error
        todo = [b for b in todo if errors[b]]
        if not todo:
            return units
    raise DecompositionError(f"block refinement failed: {errors[todo[0]]}")


# what a rejected block computes is dropped, so it raises no warning
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _refine(hat: FiniteHopfStarAlgebra, frame: tuple[Array, Array], basis: Array, r: Array,
            ctx: ScalarContext) -> tuple[Array, list[str | None]]:
    """Matrix units (k, d, d, n) of k blocks from their isotypic bases (k, n,
    d^2) in the state frame and random elements r (k, n), with per block the
    error that rejects them, or None.  r cut down to a block has d runs of d
    eigenvalues, which give minimal projections p_0, ..., p_{d-1}; the
    partial isometry from p_q to p_0 is p_0 r p_q, normalized.  Each product
    and star takes its operands as vectors ([..., None, :]), as for one
    block alone, so a block's units are the same bytes in any stack."""
    k, _, dd = basis.shape
    d = math.isqrt(dd)
    z = 0.5 * (r + hat.star_of(r[:, None])[:, 0])
    cut = basis.conj().swapaxes(1, 2) @ _in_frame(hat, frame, z) @ basis
    vecs, _, errors = _eigen_split(cut, d, d)
    p = _projection_element(hat, frame, basis[:, None] @ vecs.reshape(k, dd, d, d).swapaxes(1, 2))
    w = _product(hat, p[:, :1], _product(hat, r[:, None], p[:, 1:]))
    ww = _product(hat, w, hat.star_of(w[..., None, :])[..., 0, :])
    # <p_0, ww> / <p_0, p_0>, each part over the real divisor, as Python divides
    num = (p[:, :1, None].conj() @ ww[..., None])[..., 0, 0]
    den = (p[:, :1, None].conj() @ p[:, :1, :, None])[..., 0, 0].real
    re, im = num.real / den, num.imag / den
    positive = (re > 0) & ~(np.abs(im) > 1e-6 * np.abs(re))
    v = w / np.sqrt(np.where(positive, re, 1.0))[..., None]
    # the phase at the first entry within a relative 1e-8 of the largest modulus
    size = np.abs(v)
    first = (size >= (1 - 1e-8) * size.max(-1, keepdims=True)).argmax(-1)
    pivot = np.take_along_axis(v, first[..., None], -1)
    # |pivot| by hypot, as abs() takes it of one entry; np.abs may round otherwise
    iso = np.concatenate([p[:, :1], v / (pivot / np.hypot(pivot.real, pivot.imag))], axis=1)
    units = _product(hat, hat.star_of(iso[..., None, :])[:, :, None, 0], iso[:, None])
    resid = _matrix_unit_residual(hat, units)
    for b, q in enumerate(np.argmin(positive, 1)):
        if not errors[b] and not positive[b, q]:
            errors[b] = f"isometry normalizer {complex(re[b, q], im[b, q]):.3g} not positive"
        elif not errors[b] and not resid[b] <= ctx.loose_tolerance:
            errors[b] = f"matrix-unit residual {resid[b]:.3g}"
    return units, errors


def _matrix_unit_residual(hat: FiniteHopfStarAlgebra, units: Array) -> Array:
    """Per block of the stack units (k, d, d, n), the largest entry of
    e[p, q]* - e[q, p] and of e[p, q] e[r, s] - delta_qr e[p, s]."""
    k, d, _, n = units.shape
    flat, tensor = units.reshape(k, d * d, n), hat.mul.transpose(2, 0, 1).reshape(n * n, n)
    # x -> x y for every unit y of a batch, in one pass over the product tensor
    prods = np.concatenate([
        flat[s, None] @ (tensor @ flat[s].reshape(-1, n).T)
        .reshape(n, n, -1, d * d).transpose(2, 0, 1, 3)
        for s in batches(k, d * d * n * n)
    ])
    prods = prods.reshape(k, n, d, d, d, d)  # [b, i, p, q, r, s], less delta_qr e[p, s]
    prods[:, :, :, range(d), range(d)] -= units.transpose(0, 3, 1, 2)[:, :, :, None]
    star = max_abs(hat.star_of(units) - units.swapaxes(1, 2), lead=(k,))
    return np.maximum(star, max_abs(prods, lead=(k,)))


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
    dims, idems, _ = split = _split_center(hat, _center(algebra), frame, ctx, rng)
    units = _matrix_units(hat, frame, split, ctx, rng)
    # deterministic order: by dimension, then by the idempotent, rounded as one array
    rounded = np.round(np.concatenate([idems.real, idems.imag], axis=1), 6).tolist()
    staged = sorted(zip(dims, rounded, idems, units), key=lambda item: item[:2])

    # dual basis: q elements are read off from the inverse of the stacked units
    stack = np.vstack([units.reshape(-1, n) for *_, units in staged])
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
        resid = max_abs(rho - np.stack([units for *_, units in run]), lead=(k,))
        trivial = max_abs(q[:, 0, 0] - algebra.unit, lead=(k,)) <= ctx.loose_tolerance
        rho.flags.writeable = f_matrix.flags.writeable = False  # blocks hold views (core.freeze)
        for error, r in zip(errors, resid.tolist()):
            if error is None and not ctx.close(r):
                error = f"rho functionals disagree with matrix units, residual {r:.3g}"
            if error is not None:
                raise DecompositionError(error)
        blocks += [
            PeterWeylBlock(dimension=d, matrix_units=u, q=x, f_matrix=f, m_value=m,
                           central_idempotent=e_alpha, is_trivial=d == 1 and t)
            for (*_, e_alpha, _), u, x, f, m, t
            in zip(run, rho, q, f_matrix, m_value.tolist(), trivial.tolist())
        ]
    if not any(b.is_trivial for b in blocks):
        raise DecompositionError("no block carries the unit as its coefficient")
    # the trivial block first; a stable sort keeps the others in key order
    blocks.sort(key=lambda b: not b.is_trivial)
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
    # Tr F = Tr F^-1 = M, the blocks of one dimension as one stack
    resid = 0.0
    for _, run in itertools.groupby(data.blocks, key=lambda b: b.dimension):
        f, m_value = map(np.array, zip(*[(b.f_matrix, b.m_value) for b in run]))
        trace, trace_inv = (np.trace(a, axis1=1, axis2=2).real for a in (f, np.linalg.inv(f)))
        resid = worst((resid, max_abs(trace - trace_inv), max_abs(trace - m_value)))
    # cross-block orthogonality of coefficients under h( . (.)* ), every
    # block's q as rows (block, i, j) of one pairing
    q = np.concatenate([b.q.reshape(-1, algebra.dim) for b in data.blocks])
    label = np.repeat(np.arange(len(data.blocks)), [b.dimension**2 for b in data.blocks])
    pairing = haar_pairing(algebra, h, q, algebra.star_of(q))
    resid = max(resid, max_abs(pairing[label[:, None] != label[None, :]]))
    if not ctx.close(resid):
        raise DecompositionError(f"orthogonality validation failed, residual {resid:.3g}")
