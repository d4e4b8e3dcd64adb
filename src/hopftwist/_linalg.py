"""Small linear-algebra helpers used across modules: max norms, kernels,
orthonormal extension of a row span, and sparse tensors held as terms
(Terms), with join, the one contraction over their nonzero entries, and
Chain, a contraction of several steps formed run by run, densely or by joins
as runs decides; uniform turns a seeded random.Random into an array of
draws.  What is derived from a frozen tensor (its terms, the keyed
tables of its joins, a residual of it, the twist by the cocycle whose
inverse it is) is derived once while the tensor lives (derived).  Only this
module knows the flat key format of the terms."""

from __future__ import annotations

import functools
import math
import random
import weakref
from functools import cached_property
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

# The most terms that one join of a chain forms (about 100 bytes each while
# formed and summed, under 2 MiB), and the most entries of each dense partial
# result of a run that runs writes out densely (256 KiB).
BUDGET = 2**14


def frozen(a) -> bool:
    """Whether nothing can change the array a: it is read-only, and so is
    every array it views, down to one that owns its memory.  A read-only
    view can still change through a writeable base, and an array over a
    buffer that is not an array through the buffer."""
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    return owner is None


# what derived computed, by the id of the first of its arrays: a table from
# (what, ids of the other arrays) to weak references to those arrays and the
# value; a table is dropped when its array is
_DERIVED: dict[int, dict] = {}


def derived(arrays: tuple, what, compute: Callable[[], T]) -> T:
    """compute(), a value that depends on the arrays and on the hashable
    what alone, computed once while the arrays live when every one of them
    is frozen, and afresh on every call otherwise.  The value must hold
    none of the arrays, or they would never be dropped."""
    if not all(frozen(a) for a in arrays):
        return compute()
    first, *rest = arrays
    table = _DERIVED.get(id(first))
    if table is None:
        table = _DERIVED[id(first)] = {}
        # nothing to drop when the process exits
        weakref.finalize(first, _DERIVED.pop, id(first), None).atexit = False
    key = (what, *map(id, rest))
    held = table.get(key)
    # one of the others may have died and its id gone to a new array
    if held is None or any(ref() is not a for ref, a in zip(held[0], rest)):
        held = table[key] = (tuple(map(weakref.ref, rest)), compute())
    return held[1]


def uniform(rng: random.Random, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """An array of draws uniform on [-1, 1): one 2 * rng.random() - 1 per
    real number, in row-major order, a complex entry's real part first.  So a
    stack of draws is the draws made one after another, bit for bit."""
    width = np.dtype(dtype).itemsize // 8
    flat = 2 * np.array([rng.random() for _ in range(width * math.prod(shape))]) - 1
    return flat.view(dtype).reshape(shape)


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

    array is the dense array that Terms.of reads the terms from, on first
    use of keys or values, and None for terms given outright; conjugated
    says that they are the terms of conj(array).  block() reads a dense
    slice from that array, so a tensor that is only written out densely is
    never read as terms.
    """

    __slots__ = ("shape", "array", "conjugated", "_keys", "_values")

    def __init__(self, shape, keys, values, array=None, conjugated=False):
        self.shape, self._keys, self._values = tuple(shape), keys, values
        self.array, self.conjugated = array, conjugated

    @classmethod
    def of(cls, a: np.ndarray) -> "Terms":
        """The nonzero entries of a, in row-major order, as summed terms.
        NaN and inf are nonzero, so they are kept."""
        return cls(a.shape, None, None, a)

    @property
    def keys(self) -> np.ndarray:
        self._load()
        return self._keys

    @property
    def values(self) -> np.ndarray:
        self._load()
        return self._values

    def _load(self) -> None:
        if self._keys is None:
            self._keys, self._values = derived(
                (self.array,), ("terms", self.conjugated), self._read
            )

    def _read(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys and values of the nonzero entries of array, or of its
        conjugate."""
        if self.conjugated:
            plain = Terms.of(self.array)
            return plain.keys, plain.values.conj()
        a = self.array
        # a complex != 0 and a boolean flatnonzero take half the time of a
        # complex nonzero; the values are read in place, where a.take(keys)
        # would copy a strided a (a dual's transposes) whole
        keys = np.flatnonzero(a != 0)
        return keys, a[np.unravel_index(keys, a.shape)]

    @property
    def coords(self) -> tuple[np.ndarray, ...]:
        """The index of each term as one coordinate array per axis."""
        return np.unravel_index(self.keys, self.shape)

    def conj(self) -> "Terms":
        """The complex conjugate tensor, read from the same array."""
        values = None if self._keys is None else self._values.conj()
        return Terms(self.shape, self._keys, values, self.array, not self.conjugated)

    def summed(self) -> "Terms":
        """The same tensor with one term per index, keys increasing: these
        terms themselves when they already are."""
        if np.all(self.keys[1:] > self.keys[:-1]):
            return self
        return Terms(self.shape, *sum_by_key(self.keys, self.values))

    def __getitem__(self, lead: slice) -> "Terms":
        """The summed terms at the indices lead (a slice of step 1) of the
        leading axis, as a tensor of the same rank; these terms themselves
        at the whole axis."""
        start, stop, _ = lead.indices(self.shape[0])
        if stop - start == self.shape[0]:
            return self
        block = math.prod(self.shape[1:])
        lo, hi = np.searchsorted(self.keys, (start * block, stop * block))
        shape = (stop - start,) + self.shape[1:]
        return Terms(shape, self.keys[lo:hi] - start * block, self.values[lo:hi])

    def dense(self) -> np.ndarray:
        """The summed terms written out as an array."""
        out = np.zeros(self.shape, dtype=np.complex128)
        out.reshape(-1)[self.keys] = self.values
        return out

    def block(self, lead: slice = slice(None)) -> np.ndarray:
        """The tensor at the indices lead of its leading axis as an array,
        read from array when there is one."""
        if self.array is None:
            return self[lead].dense()
        return np.conj(self.array[lead]) if self.conjugated else self.array[lead]

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
    the order of the entries of y that it meets.  Each operand's entries are
    keyed on the shared letters, and y's are counted per key and stably
    sorted by key, so that an entry of x finds its partners at a place of
    the count table; each output index is the sum of a part read off the
    entry of x and a part read off the entry of y.  That is prepared once
    per frozen tensor (derived), and what depends on y alone once per Join,
    so one Join serves every run of a chain.
    """

    def __init__(self, spec: str, y):
        self.xs, self.ys, self.out = _letters(spec)
        self.y = y if isinstance(y, Terms) else Terms.of(y)
        shared = [c for c in self.xs if c in self.ys]
        self.size = math.prod(self.y.shape[self.ys.index(c)] for c in shared)
        strides = _strides([self.y.shape[self.ys.index(c)] for c in shared])
        self.key_x, key_y = _axes(self.xs, shared, strides), _axes(self.ys, shared, strides)
        self.count, self.start, self.order = _prepared(
            self.y, ("table", key_y), lambda: self._table(key_y)
        )

    def _table(self, key_y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries of y counted per key, the place where each key's run
        starts among them sorted by key, and the stable order that sorts them."""
        (ky,) = _keyed(self.y, (key_y,))
        count = np.bincount(ky, minlength=self.size)
        # numpy sorts 16-bit keys by radix, several times faster
        order = np.argsort(ky.astype(np.uint16) if self.size <= 2**16 else ky, kind="stable")
        return count, np.cumsum(count) - count, order

    def __call__(self, x, limit: int) -> Terms | None:
        x = x if isinstance(x, Terms) else Terms.of(x)
        size = dict(zip(self.xs + self.ys, x.shape + self.y.shape))
        shape = [size[c] for c in self.out]
        stride = dict(zip(self.out, _strides(shape)))
        from_x = [c for c in self.out if c in self.xs]
        kx, px = _keyed(x, (self.key_x, _axes(self.xs, from_x, [stride[c] for c in from_x])))
        runs = self.count[kx]
        if int(runs.sum()) > limit:
            return None
        a, b = pairs_by_count(runs, self.start[kx], self.order)
        from_y = [c for c in self.out if c not in self.xs]
        (py,) = _keyed(self.y, (_axes(self.ys, from_y, [stride[c] for c in from_y]),))
        values, other = x.values[a], self.y.values[b]
        # in place unless the product needs a wider dtype: a real inf cast to
        # complex before it is multiplied would gain a NaN imaginary part
        inplace = values.dtype == np.result_type(values, other)
        values = np.multiply(values, other, out=values if inplace else None)
        return Terms(shape, px[a] + py[b], values)


def _axes(letters: str, which, strides) -> tuple[tuple[int, int], ...]:
    """(axis, stride) for each of the letters which of an operand."""
    return tuple((letters.index(c), s) for c, s in zip(which, strides))


def _strides(shape) -> list[int]:
    """The row-major strides, in entries, of an array of the given shape."""
    return [math.prod(shape[k + 1 :]) for k in range(len(shape))]


def _prepared(terms: Terms, what, compute: Callable[[], T]) -> T:
    """compute(), a value that depends on the keys of terms alone, once per
    frozen array they are read from (derived)."""
    return compute() if terms.array is None else derived((terms.array,), what, compute)


def _keyed(terms: Terms, parts) -> tuple[np.ndarray, ...]:
    """For each part, (axis, stride) pairs (_axes), the flat index of each
    term: the sum over the part of its coordinate on the axis times the
    stride."""

    def compute():
        coords = terms.coords
        out = []
        for part in parts:
            flat = np.zeros(terms.keys.size, dtype=np.intp)
            for axis, stride in part:
                flat += coords[axis] * stride
            out.append(flat)
        return tuple(out)

    return _prepared(terms, ("keyed", parts), compute)


def pairs_by_count(
    runs: np.ndarray, lo: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) of the join of two entry lists on a shared
    key, given, for each entry a of the first, the number runs[a] of entries
    of the second with its key and the place lo[a] where their run starts in
    the stable order that sorts the second by key."""
    a = np.repeat(np.arange(runs.size), runs)
    # pair t sits t - first[a] places into the run that starts at lo[a]
    first = np.cumsum(runs) - runs
    b = order[np.arange(a.size) + np.repeat(lo - first, runs)]
    return a, b


class Chain:
    """The contraction of first with the operand of each (spec, operand)
    step in turn, a side of an identity or a convolution; every spec drops
    its shared letters, and first and the operands are arrays or Terms.  It
    is formed one run of the leading index of first at a time, densely or as
    terms, as runs chooses.  dense, when given, writes the contraction out
    at a run of leading indices in place of the tensordots of dense().  What
    it reads off its specs is worked out once per their shapes (_plan)."""

    def __init__(self, first, *steps: tuple[str, object], dense=None):
        self.first = first if isinstance(first, Terms) else Terms.of(first)
        self.steps = steps
        self._dense = dense
        self._tensordots, self._entries = _plan(
            self.first.shape, tuple((spec, operand.shape) for spec, operand in steps)
        )

    @cached_property
    def joins(self) -> tuple[Join, ...]:
        """The joins of the steps, prepared on first use, so that a chain
        written out densely never keys or sorts its operands."""
        return tuple(Join(spec, operand) for spec, operand in self.steps)

    def fits(self, lead: slice) -> bool:
        """Whether every dense partial result at the leading indices lead,
        the slice of first and the output of each step, has at most BUDGET
        entries."""
        rows = lead.stop - lead.start
        return all((rows * per if keeps else per) <= BUDGET for keeps, per in self._entries)

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
        out = self.first.block(lead)
        for (_, operand), (axes, order) in zip(self.steps, self._tensordots):
            if isinstance(operand, Terms):
                operand = operand.block()
            out = np.tensordot(out, operand, axes=axes).transpose(order)
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


@functools.cache
def _plan(shape: tuple[int, ...], steps: tuple[tuple[str, tuple[int, ...]], ...]):
    """What a chain reads off its specs, once per first shape and (spec,
    operand shape) steps: per step the axes and the transpose of its
    tensordot; per partial result, the slice of first
    and each step's output, whether it keeps the leading index of first,
    and its entries per leading index, or in all when it does not."""
    tensordots = []
    lead = 0
    entries = [(True, math.prod(shape[1:]))]
    for spec, operand in steps:
        xs, ys, out = _letters(spec)
        shared = [c for c in xs if c in ys]
        rest = [c for c in xs + ys if c not in shared]
        tensordots.append(
            ((tuple(xs.index(c) for c in shared), tuple(ys.index(c) for c in shared)),
             tuple(rest.index(c) for c in out))
        )
        size = dict(zip(xs + ys, shape + operand))
        lead = out.index(xs[lead]) if lead is not None and xs[lead] in out else None
        shape = tuple(size[c] for c in out)
        per = math.prod(shape) // shape[lead] if lead is not None else math.prod(shape)
        entries.append((lead is not None, per))
    return tuple(tensordots), tuple(entries)


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
