"""Small linear-algebra helpers used across modules: max norms, kernels,
orthonormal extension of a row span, and sparse tensors held as terms
(Terms), with join, the one contraction over their nonzero entries, and
Chain, a contraction of several steps formed run by run, densely or by joins
as runs decides.  Only this module knows the flat key format of the terms."""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

# The most terms that one join of a chain forms (about 100 bytes each while
# formed and summed, under 2 MiB), and the most entries of each dense partial
# result of a run that runs writes out densely (256 KiB).
BUDGET = 2**14


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
    array is the dense array the terms were read from, when Terms.of read
    them, and None otherwise.
    """

    __slots__ = ("shape", "keys", "values", "array")

    def __init__(self, shape, keys: np.ndarray, values: np.ndarray, array=None):
        self.shape, self.keys, self.values = tuple(shape), keys, values
        self.array = array

    @classmethod
    def of(cls, a: np.ndarray) -> "Terms":
        """The nonzero entries of a, in row-major order, as summed terms.
        NaN and inf are nonzero, so they are kept."""
        # a complex != 0 and a boolean flatnonzero take half the time of a
        # complex nonzero; the values are read in place, where a.take(keys)
        # would copy a strided a (a dual's transposes) whole
        keys = np.flatnonzero(a != 0)
        return cls(a.shape, keys, a[np.unravel_index(keys, a.shape)], a)

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        """The index of each term as one coordinate array per axis."""
        return np.unravel_index(self.keys, self.shape)

    def conj(self) -> "Terms":
        """The complex conjugate tensor."""
        return Terms(self.shape, self.keys, self.values.conj())

    def summed(self) -> "Terms":
        """The same tensor with one term per index, keys increasing: these
        terms themselves when they already are."""
        if np.all(self.keys[1:] > self.keys[:-1]):
            return self
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
        out = np.zeros(self.shape, dtype=np.complex128)
        out.reshape(-1)[self.keys] = self.values
        return out

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
    """The terms of the einsum contraction spec of x and y (see Join)."""
    return Join(spec, y)(x, limit)


class Join:
    """The terms of the einsum contraction spec of x and y, two dense arrays
    or Terms, over their nonzero entries: one term x[..] y[..] for each pair
    of entries that agree on every letter the operands share, at the output
    index that spec names.  The terms are counted before any is formed, and
    None is returned when there are more than limit.  A shared letter that
    the output drops is summed only by summed().  The operands share at
    least one letter, and a letter appears at most once in an operand.

    The terms come in the order of the entries of x, and for each entry in
    the order of the entries of y that it meets.  What depends on y alone,
    its entries keyed on the shared letters and sorted by key, is prepared
    when the Join is made, so one Join serves every run of a chain.
    """

    def __init__(self, spec: str, y):
        self.xs, self.ys, self.out = _letters(spec)
        self.y = y if isinstance(y, Terms) else Terms.of(y)
        self.cy = self.y.coords
        self.shared = [c for c in self.xs if c in self.ys]
        self.dims = [self.y.shape[self.ys.index(c)] for c in self.shared]
        ky = _flat_index([self.cy[self.ys.index(c)] for c in self.shared], self.dims)
        self.count_y = np.bincount(ky, minlength=math.prod(self.dims))
        self.order = np.argsort(ky, kind="stable")
        self.sorted_ky = ky[self.order]

    def __call__(self, x, limit: int) -> Terms | None:
        x = x if isinstance(x, Terms) else Terms.of(x)
        cx = x.coords
        kx = _flat_index([cx[self.xs.index(c)] for c in self.shared], self.dims)
        if int(np.bincount(kx, minlength=self.count_y.size) @ self.count_y) > limit:
            return None
        a, b = pairs_by_key(kx, self.order, self.sorted_ky)
        values, other = x.values[a], self.y.values[b]
        # in place unless the product needs a wider dtype: a real inf cast to
        # complex before it is multiplied would gain a NaN imaginary part
        inplace = values.dtype == np.result_type(values, other)
        values = np.multiply(values, other, out=values if inplace else None)
        size = dict(zip(self.xs + self.ys, x.shape + self.y.shape))
        # each output coordinate is read off the entry of x or of y in the
        # pair, one at a time so that no more than one is alive
        picked = (
            cx[self.xs.index(c)][a] if c in self.xs else self.cy[self.ys.index(c)][b]
            for c in self.out
        )
        shape = [size[c] for c in self.out]
        return Terms(shape, _flat_index(picked, shape), values)


class Chain:
    """The contraction of first with the operand of each (spec, operand)
    step in turn, a side of an identity or a convolution; every spec drops
    its shared letters.  It is formed one run of the leading index of first
    at a time, densely or as terms, as runs chooses.  dense, when given,
    writes the contraction out at a run of leading indices in place of the
    tensordots of dense()."""

    def __init__(self, first: Terms, *steps: tuple[str, object], dense=None):
        self.first, self.steps = first, steps
        self._dense = dense

    @cached_property
    def joins(self) -> tuple[Join, ...]:
        """The joins of the steps, prepared on first use, so that a chain
        written out densely never keys or sorts its operands."""
        return tuple(Join(spec, operand) for spec, operand in self.steps)

    def fits(self, lead: slice) -> bool:
        """Whether every dense partial result at the leading indices lead,
        the slice of first and the output of each step, has at most BUDGET
        entries."""
        shape = (lead.stop - lead.start,) + self.first.shape[1:]
        entries = [math.prod(shape)]
        for spec, operand in self.steps:
            xs, ys, out = _letters(spec)
            size = dict(zip(xs + ys, shape + operand.shape))
            shape = tuple(size[c] for c in out)
            entries.append(math.prod(shape))
        return max(entries) <= BUDGET

    def terms(self, lead: slice) -> Terms | None:
        """The terms at the leading indices lead, the running terms summed
        before each further join; None as soon as a join would have more
        than BUDGET terms, before it forms any."""
        terms = self.first[lead]
        for k, step in enumerate(self.joins):
            terms = step(terms.summed() if k else terms, BUDGET)
            if terms is None:
                return None
        return terms

    def dense(self, lead: slice) -> np.ndarray:
        """The same contraction at lead written out densely, one tensordot
        per step, each operand read from the array it came from when there
        is one."""
        if self._dense is not None:
            return self._dense(lead)
        out = self.first[lead].dense() if self.first.array is None else self.first.array[lead]
        for spec, operand in self.steps:
            xs, ys, out_letters = _letters(spec)
            shared = [c for c in xs if c in ys]
            if isinstance(operand, Terms):
                operand = operand.dense() if operand.array is None else operand.array
            axes = [xs.index(c) for c in shared], [ys.index(c) for c in shared]
            out = np.tensordot(out, operand, axes=axes)
            rest = [c for c in xs + ys if c not in shared]
            out = out.transpose([rest.index(c) for c in out_letters])
        return out

    def whole(self) -> Terms:
        """The summed terms of the whole contraction, formed run by run (see
        runs); a run written out densely is read back as terms, keeping only
        its nonzero entries."""
        keys, values = [], []
        for lead, terms in runs((self,), self.terms):
            terms = Terms.of(self.dense(lead)) if terms is None else terms.summed()
            rest = terms.shape[1:]
            keys.append(terms.keys + lead.start * math.prod(rest))
            values.append(terms.values)
        return Terms((self.first.shape[0],) + rest, np.concatenate(keys), np.concatenate(values))


def _letters(spec: str) -> tuple[str, str, str]:
    """The letters of the two operands and of the output of an einsum spec."""
    ins, out = spec.split("->")
    return (*ins.split(","), out)


def _flat_index(coords: Iterable[np.ndarray], dims: list[int]) -> np.ndarray:
    """The flat row-major index over dims of one coordinate array per axis."""
    coords = iter(coords)
    flat = next(coords)
    for coord, dim in zip(coords, dims[1:]):
        flat = flat * dim + coord
    return flat


def runs(
    chains: tuple[Chain, ...], joined: Callable[[slice], T | None]
) -> Iterator[tuple[slice, T | None]]:
    """Each run lead of the leading indices of chains, in order, with
    joined(lead), or with None where the run is to be written out densely.

    This is the one rule between the dense and the join form of every
    contraction of several steps.  A run is dense when every chain fits it
    (Chain.fits): every dense partial result then has at most BUDGET
    entries, and a few BLAS products cost less than the fixed numpy calls
    of the joins.  Otherwise joined(lead) forms its terms, or returns None
    to refuse it, as Chain.terms does when a join would exceed the budget.
    A refused run is halved, so a run never splits the terms of one index;
    an index that joined refuses alone is written out densely too.
    """
    todo = [slice(0, chains[0].first.shape[0])]
    while todo:
        lead = todo.pop()
        dense = all(chain.fits(lead) for chain in chains)
        got = None if dense else joined(lead)
        if got is None and not dense and lead.stop - lead.start > 1:
            mid = (lead.start + lead.stop) // 2
            todo += [slice(mid, lead.stop), slice(lead.start, mid)]
        else:
            yield lead, got


def identity_gap(left: Chain, right: Chain) -> float:
    """max |L - R| for an identity whose two sides are chains over the same
    leading indices, summed and compared one run at a time (runs).  left
    has at least one step, so its dense run is a fresh array, which the
    comparison overwrites."""

    def joined(lead: slice) -> float | None:
        # each side is summed as soon as it is formed, so that only one side
        # is ever held as unsummed terms
        lhs = left.terms(lead)
        lhs = lhs and lhs.summed()
        rhs = lhs and right.terms(lead)
        return None if rhs is None else max_gap(lhs, rhs)

    return worst(
        _gap(left.dense(lead), right.dense(lead)) if got is None else got
        for lead, got in runs((left, right), joined)
    )


def _gap(fresh: np.ndarray, other) -> float:
    """max |fresh - other|, overwriting the temporary fresh instead of allocating."""
    np.subtract(fresh, other, out=fresh)
    return max_abs(fresh)


def worst(residuals) -> float:
    """The largest residual; unlike max(), np.max keeps a NaN from any position."""
    return float(np.max(list(residuals)))


def max_gap(left: Terms, right: Terms) -> float:
    """max |L - R| for two tensors of one shape given as terms.  Each side
    is summed on its own and the sorted keys are merged; a key on one side
    only is compared with 0."""
    left, right = left.summed(), right.summed()
    at = np.searchsorted(right.keys, left.keys)
    hit = at < right.keys.size
    hit[hit] = right.keys[at[hit]] == left.keys[hit]
    gap = left.values.copy()
    gap[hit] -= right.values[at[hit]]
    alone = np.ones(right.keys.size, dtype=bool)
    alone[at[hit]] = False
    # np.max keeps a NaN from either side, where max() may drop it
    return float(np.max((max_abs(gap), max_abs(right.values[alone]))))


def pairs_by_key(
    kx: np.ndarray, order: np.ndarray, sorted_ky: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with kx[a] == ky[b]: the join of two entry
    lists on a shared index, given ky as the stable order that sorts it and
    sorted_ky = ky[order].

    searchsorted finds the run of equal keys for each kx[a], and repeat
    expands the runs into pairs.
    """
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
