"""Small linear-algebra helpers used across modules: max norms, kernels,
orthonormal extension of a row span, and sparse tensors held as terms
(Terms), with join, the one contraction over their nonzero entries.  Only
this module knows the flat key format of the terms."""

from __future__ import annotations

import math
from typing import Iterable

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
    w = np.asarray(cands, dtype=np.complex128).reshape(len(cands), basis.shape[1])
    w = _project_off(w, basis)
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
