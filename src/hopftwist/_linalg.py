"""Small dense linear-algebra helpers used across modules."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


def max_abs(x, lead: tuple[int, ...] = ()) -> float | np.ndarray:
    """max |x| as a float; with a leading stack shape lead, an array of that
    shape holding the max over the remaining axes."""
    a = np.abs(x)
    if not lead:
        return float(a.max(initial=0.0))
    return a.max(axis=tuple(range(len(lead), a.ndim)), initial=0.0)


def nullspace(m: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of m."""
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128))
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    # a tall or square m has all cols right singular vectors in the thin SVD;
    # only a wide m needs the full vh to reach its kernel
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def solve_within_condition(
    lmat: np.ndarray,
    rhs: np.ndarray,
    limit: float,
    approx_inverse: Callable[[np.ndarray], Iterable[np.ndarray]],
    *,
    split: bool = False,
) -> np.ndarray | None:
    """Solve lmat @ y = rhs when cond2(lmat) <= limit; None when it is not.

    The verdict is the exact rule s[-1] > 0 and s[0] / s[-1] <= limit on the
    singular values s of lmat, but the SVD runs only when the certified bound
    is inconclusive.  approx_inverse(y) yields, left to right, the column
    blocks of a matrix meant to approximate lmat^-1.

    With split, lmat is first cut into the connected components of its
    nonzero pattern (square_components).  Given several, only the blocks
    that rhs touches are solved, batched by size, and the bound is taken
    block by block (block_condition_bound); one component is solved and
    bounded whole, as without split.  A component that is not square makes
    lmat singular, and is left to the SVD.
    """
    parts = square_components(lmat) if split else None
    whole = not split or parts is not None and parts[0][0].shape[1] == lmat.shape[0]
    blocks = None
    if not whole and parts is not None:
        blocks = [(rows, cols, lmat[rows[:, :, None], cols[:, None, :]]) for rows, cols in parts]
    y = None
    try:
        if whole:
            y = np.linalg.solve(lmat, rhs)
        elif blocks is not None:
            y = _solve_blocks(rhs, blocks)
    except np.linalg.LinAlgError:
        pass
    if y is not None:
        columns = approx_inverse(y)
        bound = condition_bound(lmat, columns) if whole else block_condition_bound(blocks, columns)
        if bound <= limit:
            return y
    s = np.linalg.svd(lmat, compute_uv=False)
    if not (s[-1] > 0 and s[0] / s[-1] <= limit):
        return None
    return y if y is not None else np.linalg.solve(lmat, rhs)


def square_components(lmat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """lmat split into the connected components of its nonzero pattern.

    The pattern is read as a bipartite graph with an edge from row r to
    column c wherever lmat[r, c] != 0, so lmat[rows][:, cols] over all the
    components is a block-diagonal permutation of lmat (the coarse step of
    the block triangular form: Pothen & Fan, "Computing the block triangular
    form of a sparse matrix", ACM TOMS 16, 1990).  Components are grouped by
    size: each (rows, cols) pair holds k components of size s as two (k, s)
    index arrays.  None when a component has more rows than columns or the
    reverse, which makes lmat singular.

    Labels start as row indices; each round gives every row the smallest
    label two edges away, then jumps labels to their own labels, so a
    component settles in about log of its diameter rounds.
    """
    m = lmat.shape[0]
    if lmat.all():
        every = np.arange(m)[None]
        return [(every, every)]
    pattern = lmat != 0
    if not (pattern.any(axis=0).all() and pattern.any(axis=1).all()):
        return None
    # the edges in row-major and in column-major order
    rows_by_row, cols_by_row = np.divmod(np.flatnonzero(pattern), m)
    cols_by_col, rows_by_col = np.divmod(np.flatnonzero(pattern.T.copy()), m)
    row_starts = np.flatnonzero(np.diff(rows_by_row, prepend=-1))
    col_starts = np.flatnonzero(np.diff(cols_by_col, prepend=-1))
    label = np.arange(m)
    while True:
        col_label = np.minimum.reduceat(label[rows_by_col], col_starts)
        new = np.minimum.reduceat(col_label[cols_by_row], row_starts)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    row_sizes = np.bincount(label, minlength=m)
    if not np.array_equal(row_sizes, np.bincount(col_label, minlength=m)):
        return None
    # rows and columns in the same order: by component size, then label
    row_order = np.lexsort((label, row_sizes[label]))
    col_order = np.lexsort((col_label, row_sizes[col_label]))
    sizes, counts = np.unique(row_sizes[row_sizes > 0], return_counts=True)
    out, start = [], 0
    for size, count in zip(sizes.tolist(), counts.tolist()):
        stop = start + size * count
        out.append(
            (row_order[start:stop].reshape(count, size), col_order[start:stop].reshape(count, size))
        )
        start = stop
    return out


def _solve_blocks(rhs: np.ndarray, blocks) -> np.ndarray:
    """The solution over (rows, cols, block) triples, solving only the blocks
    whose rows rhs touches; the others have a zero right-hand side."""
    y = np.zeros(rhs.shape, dtype=np.result_type(rhs, *(b for _, _, b in blocks)))
    for rows, cols, block in blocks:
        hit = rhs[rows].any(axis=1)
        if hit.any():
            y[cols[hit]] = np.linalg.solve(block[hit], rhs[rows[hit]][..., None])[..., 0]
    return y


def condition_bound(lmat: np.ndarray, blocks: Iterable[np.ndarray]) -> float:
    """Upper bound on cond2(lmat) from an approximate inverse M, else inf.

    M arrives as column blocks, so no second square matrix is ever alive.
    With E = lmat M - I and ||E||_F < 1, lmat is invertible,
    lmat^-1 = M (I + E)^-1 and cond2(lmat) <= ||lmat||_F ||M||_F / (1 - ||E||_F)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 6
    and 14).  ||E||_F is widened by the rounding bound of the product, and
    the bound is inf unless that widened norm is below 1/2.

    An operator that is real up to rounding, as for any real-valued cocycle,
    is multiplied by its real part only, a quarter of the complex work; the
    dropped parts add ||Li||_F ||Mr||_F + ||L||_F ||Mi||_F to ||E||_F.
    """
    m = lmat.shape[0]
    l_norm = np.sqrt(_frob_sq(lmat))
    li_norm = np.sqrt(_frob_sq(lmat.imag))
    lreal = np.ascontiguousarray(lmat.real) if li_norm <= _REAL_RTOL * l_norm else None
    e_sq = mr_sq = mi_sq = 0.0
    col = 0
    for block in blocks:
        width = block.shape[1]
        if lreal is None:
            resid = lmat @ block
        else:
            resid = lreal @ np.ascontiguousarray(block.real)
        resid[col + np.arange(width), np.arange(width)] -= 1.0
        e_sq += _frob_sq(resid)
        mr_sq += _frob_sq(block.real)
        mi_sq += _frob_sq(block.imag)
        col += width
    if col != m:
        raise ValueError(f"approximate inverse has {col} columns, expected {m}")
    dropped = 0.0 if lreal is None else li_norm * np.sqrt(mr_sq) + l_norm * np.sqrt(mi_sq)
    return _bound(l_norm, np.sqrt(mr_sq + mi_sq), np.sqrt(e_sq) + dropped, m)


def block_condition_bound(blocks, columns: Iterable[np.ndarray]) -> float:
    """Upper bound on cond2 of a block-diagonal permutation, else inf.

    blocks are (rows, cols, L_b) triples: index arrays from square_components
    and the (k, s, s) stack lmat[rows][:, cols] they select.  columns are the
    column blocks of an approximate inverse M, as for condition_bound.  Each M_b = M[cols_b][:, rows_b] is gathered
    from them, and since the singular values of the operator are those of
    its blocks, cond2 <= max_b ||L_b||_F * max_b ||M_b||_F / (1 - ||E_b||_F)
    with E_b = L_b M_b - I, once every widened ||E_b||_F is below 1/2.
    """
    m = sum(rows.size for rows, _, _ in blocks)
    gathered = [np.zeros(block.shape, dtype=np.complex128) for _, _, block in blocks]
    col = 0
    for chunk in columns:
        width = chunk.shape[1]
        for (rows, cols, _), mb in zip(blocks, gathered):
            t, u = np.nonzero((rows >= col) & (rows < col + width))
            mb[t, :, u] = chunk[cols[t], rows[t, u, None] - col]
        col += width
    if col != m:
        raise ValueError(f"approximate inverse has {col} columns, expected {m}")
    l_norm, m_norm, e_norm = [], [], []
    for (_, _, block), mb in zip(blocks, gathered):
        resid = block @ mb
        resid[:, np.arange(block.shape[1]), np.arange(block.shape[1])] -= 1.0
        l_norm.append(np.linalg.norm(block, axis=(1, 2)))
        m_norm.append(np.linalg.norm(mb, axis=(1, 2)))
        e_norm.append(np.linalg.norm(resid, axis=(1, 2)))
    return _bound(*map(np.concatenate, (l_norm, m_norm, e_norm)), m)


def _bound(l_norm, m_norm, e_norm, m: int) -> float:
    """max ||L_b|| * max ||M_b|| / (1 - ||E_b||) over the blocks, each E_b
    widened by the rounding bound of its product; inf unless all are < 1/2."""
    slack = 4 * (m + 2) * np.finfo(float).eps
    e_norm = e_norm + slack * l_norm * m_norm
    if not np.all(e_norm < 0.5):
        return float("inf")
    return float((1.0 + slack) * np.max(l_norm) * np.max(m_norm / (1.0 - e_norm)))


# relative size of an imaginary part below which an operator counts as real
_REAL_RTOL = 2.0**-26


def _frob_sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def cluster_values(values: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    """Group real values into clusters whose spread stays below tol.

    Returns (mean, index array) pairs sorted by mean.
    """
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals)
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and vals[idx] - vals[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return [(float(np.mean(vals[c])), np.asarray(c, dtype=int)) for c in clusters]


def orthonormal_columns(b: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the column span of b."""
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    if s.size == 0:
        return u[:, :0]
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


def subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal-angle sine between the column spans of a and b.

    Returns 1.0 when the dimensions differ.
    """
    qa = orthonormal_columns(a)
    qb = orthonormal_columns(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    if qa.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - float(np.min(s)) ** 2)))


def gram_schmidt_step(v: np.ndarray, basis: list[np.ndarray], tol: float) -> np.ndarray | None:
    """Orthonormalize v against basis; None when the residual is negligible."""
    w = np.asarray(v, dtype=np.complex128).copy()
    for b in basis:
        w -= b * np.vdot(b, w)
    # second pass for numerical stability
    for b in basis:
        w -= b * np.vdot(b, w)
    norm = float(np.linalg.norm(w))
    if norm <= tol:
        return None
    return w / norm
