"""Small linear-algebra helpers used across modules: dense solves and
bounds, and sparse tensors held as terms (Terms), with join, the one
contraction over their nonzero entries.  Only this module knows the flat
key format of the terms."""

from __future__ import annotations

import math
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
) -> np.ndarray | None:
    """Solve lmat @ y = rhs when cond2(lmat) <= limit; None when it is not.

    The verdict is the exact rule s[-1] > 0 and s[0] / s[-1] <= limit on the
    singular values s of lmat, but the SVD runs only when the certified bound
    is inconclusive.  approx_inverse(y) yields, left to right, the column
    blocks of a matrix meant to approximate lmat^-1.
    """
    try:
        y = np.linalg.solve(lmat, rhs)
    except np.linalg.LinAlgError:
        y = None
    if y is not None and condition_bound(lmat, approx_inverse(y)) <= limit:
        return y
    return _svd_rule(lmat, rhs, limit, y)


def solve_by_components(
    entries: tuple[np.ndarray, np.ndarray],
    rhs: np.ndarray,
    limit: float,
    inverse_entries: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    dense: Callable[[], np.ndarray],
) -> np.ndarray | None:
    """solve_within_condition for an m x m operator given by its nonzero entries.

    entries are (keys, values): the distinct flat indices r * m + c of the
    nonzero entries, increasing, and their values.  inverse_entries(y) gives
    the entries of a matrix meant to approximate the inverse.  The operator
    is cut into the connected components of its nonzero pattern
    (square_components).  Given several, each block L_b and each certificate
    block M_b is gathered from the entries, only the blocks that rhs touches
    are solved, batched by size, and the bound is taken block by block
    (block_condition_bound).  The dense operator dense() is built only where
    the SVD rule may run: one component is solved and bounded whole by
    solve_within_condition; a component that is not square makes the
    operator singular; a failed solve or an inconclusive bound falls back to
    the SVD.
    """
    m = rhs.size
    rows, cols = np.divmod(entries[0], m)
    parts = square_components(rows, cols, m)
    if parts is None:
        return _svd_rule(dense(), rhs, limit)
    if parts[0][0].shape[1] == m:
        return solve_within_condition(
            dense(), rhs, limit, lambda y: _columns(inverse_entries(y), m)
        )
    blocks = [(r, c, gather(entries, r, c, m)) for r, c in parts]
    try:
        y = _solve_blocks(rhs, blocks)
    except np.linalg.LinAlgError:
        y = None
    if y is not None:
        inv = inverse_entries(y)
        if block_condition_bound(blocks, [gather(inv, c, r, m) for r, c, _ in blocks]) <= limit:
            return y
    return _svd_rule(dense(), rhs, limit, y)


def _svd_rule(lmat: np.ndarray, rhs: np.ndarray, limit: float, y=None) -> np.ndarray | None:
    """The solution y, solved here when None, if the singular values of lmat
    give cond2(lmat) <= limit; None otherwise."""
    s = np.linalg.svd(lmat, compute_uv=False)
    if not (s[-1] > 0 and s[0] / s[-1] <= limit):
        return None
    return y if y is not None else np.linalg.solve(lmat, rhs)


def square_components(
    rows: np.ndarray, cols: np.ndarray, m: int
) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """An m x m matrix split into the connected components of its nonzero pattern.

    The pattern is given as distinct edges (rows[e], cols[e]), one for each
    nonzero entry; a dense matrix passes np.nonzero(lmat).  It is read as a
    bipartite graph, so lmat[rows][:, cols] over all the components is a
    block-diagonal permutation of lmat (the coarse step of the block
    triangular form: Pothen & Fan, "Computing the block triangular form of a
    sparse matrix", ACM TOMS 16, 1990).  Components are grouped by size:
    each (rows, cols) pair holds k components of size s as two (k, s) index
    arrays.  None when a component has more rows than columns or the
    reverse, which makes lmat singular.

    Labels start as row indices; each round gives every row the smallest
    label two edges away, then jumps labels to their own labels, so a
    component settles in about log of its diameter rounds.
    """
    if rows.size == m * m:
        every = np.arange(m)[None]
        return [(every, every)]
    if not (np.bincount(rows, minlength=m).all() and np.bincount(cols, minlength=m).all()):
        return None
    # the edges grouped by row and by column
    by_row, by_col = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
    rows_by_row, cols_by_row = rows[by_row], cols[by_row]
    cols_by_col, rows_by_col = cols[by_col], rows[by_col]
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


def gather(
    entries: tuple[np.ndarray, np.ndarray], rows: np.ndarray, cols: np.ndarray, m: int
) -> np.ndarray:
    """The stack lmat[rows[..., :, None], cols[..., None, :]] of an m x m
    matrix given by its entries (increasing keys r * m + c, and values),
    each key looked up by binary search; a key not found is a zero."""
    keys, values = entries
    want = rows[..., :, None] * m + cols[..., None, :]
    pos = np.searchsorted(keys, want)
    hit = pos < keys.size
    hit[hit] = keys[pos[hit]] == want[hit]
    out = np.zeros(want.shape, dtype=np.complex128)
    out[hit] = values[pos[hit]]
    return out


# entries per column block when a matrix given by entries is written out
# densely: 2 MiB of complex128
_COLUMN_BLOCK = 1 << 17


def _columns(entries: tuple[np.ndarray, np.ndarray], m: int) -> Iterable[np.ndarray]:
    """The m x m matrix with these entries, as dense column blocks, left to right."""
    rows, cols = np.divmod(entries[0], m)
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    width = max(1, _COLUMN_BLOCK // m)
    for start in range(0, m, width):
        stop = min(start + width, m)
        pick = order[np.searchsorted(sorted_cols, start) : np.searchsorted(sorted_cols, stop)]
        block = np.zeros((m, stop - start), dtype=np.complex128)
        block[rows[pick], cols[pick] - start] = entries[1][pick]
        yield block


def _solve_blocks(rhs: np.ndarray, blocks) -> np.ndarray:
    """The solution over (rows, cols, block) triples, solving only the blocks
    whose rows rhs touches; the others have a zero right-hand side."""
    y = np.zeros(rhs.shape, dtype=np.result_type(rhs, *(b for _, _, b in blocks)))
    for rows, cols, block in blocks:
        hit = rhs[rows].any(axis=1)
        if hit.any():
            y[cols[hit]] = np.linalg.solve(block[hit], rhs[rows[hit]][..., None])[..., 0]
    return y


class Terms:
    """A sum of terms of a tensor of the given shape: term t adds values[t]
    at the flat row-major index keys[t].  An index may repeat until
    summed() adds its terms up; summed terms have distinct, increasing keys.
    """

    __slots__ = ("shape", "keys", "values")

    def __init__(self, shape, keys: np.ndarray, values: np.ndarray):
        self.shape, self.keys, self.values = tuple(shape), keys, values

    @classmethod
    def of(cls, a: np.ndarray) -> "Terms":
        """The nonzero entries of a, in row-major order, as summed terms.
        NaN and inf are nonzero, so they are kept."""
        # a complex != 0 and a boolean flatnonzero take half the time of a
        # complex nonzero
        keys = np.flatnonzero(a != 0)
        return cls(a.shape, keys, a.take(keys))

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        """The index of each term as one coordinate array per axis."""
        return np.unravel_index(self.keys, self.shape)

    def summed(self) -> "Terms":
        """The same tensor with one term per index, keys increasing."""
        return Terms(self.shape, *sum_by_key(self.keys, self.values))

    def __getitem__(self, lead: slice) -> "Terms":
        """The summed terms at the indices lead (a slice of step 1) of the
        leading axis, as a tensor of the same rank."""
        start, stop, _ = lead.indices(self.shape[0])
        block = math.prod(self.shape[1:])
        lo, hi = np.searchsorted(self.keys, (start * block, stop * block))
        shape = (stop - start,) + self.shape[1:]
        return Terms(shape, self.keys[lo:hi] - start * block, self.values[lo:hi])

    def dense(self) -> np.ndarray:
        """The summed terms written out as an array."""
        out = np.zeros(math.prod(self.shape), dtype=np.complex128)
        out[self.keys] = self.values
        return out.reshape(self.shape)

    def apply(self, t: np.ndarray, k: int) -> np.ndarray:
        """The summed terms as a map from their last k axes to the others,
        applied to the stack t, whose last k axes are the inputs:
        out[..., o] = sum_i self[o, i] t[..., i]."""
        split = len(self.shape) - k
        inner = math.prod(self.shape[split:])
        rows, cols = np.divmod(self.keys, inner)
        lead = t.shape[: t.ndim - k]
        out = np.zeros(lead + (math.prod(self.shape[:split]),), dtype=np.complex128)
        if rows.size:
            # each run of terms on one output index, that index kept once
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            rows = rows[starts]
            # the gathered inputs are multiplied in place, so no second
            # array of their size is formed
            terms = t.reshape(lead + (inner,))[..., cols].astype(np.complex128, copy=False)
            terms *= self.values
            out[..., rows] = np.add.reduceat(terms, starts, axis=-1)
        return out.reshape(lead + self.shape[:split])


def join(spec: str, x, y, limit: int) -> Terms | None:
    """The terms of the einsum contraction spec of x and y, two dense arrays
    or Terms, over their nonzero entries: one term x[..] y[..] for each pair
    of entries that agree on every letter the operands share, at the output
    index that spec names.  The terms are counted before any is formed, and
    None is returned when there are more than limit.  A shared letter that
    the output drops is summed only by summed().  The operands share at
    least one letter, and a letter appears at most once in an operand.

    The terms come in the order of the entries of x, and for each entry in
    the order of the entries of y that it meets.
    """
    ins, out = spec.split("->")
    xs, ys = ins.split(",")
    x = x if isinstance(x, Terms) else Terms.of(x)
    y = y if isinstance(y, Terms) else Terms.of(y)
    cx, cy = x.coords, y.coords
    size = dict(zip(xs + ys, x.shape + y.shape))
    shared = [c for c in xs if c in ys]
    dims = [size[c] for c in shared]
    kx = _flat_index([cx[xs.index(c)] for c in shared], dims)
    ky = _flat_index([cy[ys.index(c)] for c in shared], dims)
    count = math.prod(dims)
    if int(np.bincount(kx, minlength=count) @ np.bincount(ky, minlength=count)) > limit:
        return None
    a, b = pairs_by_key(kx, ky)
    # each output coordinate is read off the entry of x or of y in the
    # pair, one at a time so that no more than one is alive
    picked = (cx[xs.index(c)][a] if c in xs else cy[ys.index(c)][b] for c in out)
    shape = [size[c] for c in out]
    return Terms(shape, _flat_index(picked, shape), x.values[a] * y.values[b])


def _flat_index(coords: Iterable[np.ndarray], dims: list[int]) -> np.ndarray:
    """The flat row-major index over dims of one coordinate array per axis."""
    coords = iter(coords)
    flat = next(coords)
    for coord, dim in zip(coords, dims[1:]):
        flat = flat * dim + coord
    return flat


def max_gap(left: Terms, right: Terms) -> float:
    """max |L - R| for two tensors of one shape given as terms."""
    keys = np.concatenate((left.keys, right.keys))
    values = np.concatenate((left.values, -right.values))
    return max_abs(sum_by_key(keys, values)[1])


def pairs_by_key(kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with kx[a] == ky[b]: the join of two entry
    lists on a shared index.

    ky is sorted once; searchsorted finds the run of equal keys for each
    kx[a], and repeat expands the runs into pairs.
    """
    order = np.argsort(ky, kind="stable")
    sorted_ky = ky[order]
    lo = np.searchsorted(sorted_ky, kx, side="left")
    runs = np.searchsorted(sorted_ky, kx, side="right") - lo
    a = np.repeat(np.arange(kx.size), runs)
    # pair t sits t - first[a] places into the run that starts at lo[a]
    first = np.cumsum(runs) - runs
    b = order[np.arange(a.size) + np.repeat(lo - first, runs)]
    return a, b


def sum_by_key(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order, each with the sum of its values."""
    # plain np.unique(keys) would import numpy.ma, about 17 ms in a fresh
    # process; with return_inverse it does not
    distinct, inverse = np.unique(keys, return_inverse=True)
    sums = np.empty(distinct.size, dtype=np.complex128)
    # bincount sums real weights only; the parts are stored apart because
    # re + 1j * im would turn the zero partner of an inf into a NaN
    sums.real = np.bincount(inverse, values.real, distinct.size)
    sums.imag = np.bincount(inverse, values.imag, distinct.size)
    return distinct, sums


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


def block_condition_bound(blocks, inverse_blocks: list[np.ndarray]) -> float:
    """Upper bound on cond2 of a block-diagonal permutation, else inf.

    blocks are (rows, cols, L_b) triples: index arrays from square_components
    and the (k, s, s) stack lmat[rows][:, cols] they select.  inverse_blocks
    holds, for each, the stack M_b = M[cols][:, rows] of a matrix M meant to
    approximate lmat^-1.  Since the singular values of the operator are
    those of its blocks, cond2 <= max_b ||L_b||_F * max_b ||M_b||_F / (1 - ||E_b||_F)
    with E_b = L_b M_b - I, once every widened ||E_b||_F is below 1/2.
    """
    m = sum(rows.size for rows, _, _ in blocks)
    l_norm, m_norm, e_norm = [], [], []
    for (_, _, block), mb in zip(blocks, inverse_blocks, strict=True):
        if mb.shape != block.shape:
            raise ValueError(f"inverse block has shape {mb.shape}, expected {block.shape}")
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


def extend_rows(basis: np.ndarray, cands: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows that the rows of cands add to the span of the
    orthonormal rows of basis, as a (k, D) array.

    Each candidate is projected off basis; candidates whose residual norm is
    at most tol are dropped, and the rest are projected again and keep the
    singular directions of singular value above tol.  tol is absolute.  The
    new rows are combinations of the residual rows, so an entry that is zero
    in every candidate and every basis row stays exactly zero; a second
    projection and combination restore the orthonormality that cancellation
    costs.
    """
    w = _project_off(np.asarray(cands, dtype=np.complex128).reshape(len(cands), -1), basis)
    w = _project_off(w[np.linalg.norm(w, axis=1) > tol], basis)
    if not len(w):
        return w
    for _ in range(2):
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        w = (u[:, s > tol].conj().T @ w) / s[s > tol, None]
        w = _project_off(w, basis)
    return w


def _project_off(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """w less its projection on the orthonormal rows of basis.  The
    coefficients w basis^H are read as (basis w^H)^H, so that the candidates
    are conjugated and never the basis."""
    if not (len(w) and len(basis)):
        return w
    return w - (basis @ w.conj().T).conj().T @ basis
