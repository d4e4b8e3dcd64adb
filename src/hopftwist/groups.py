"""Finite groups as multiplication tables, and their two Hopf *-algebras.

``function_algebra`` builds the commutative algebra of functions on G with
pointwise product and delta-function basis.  ``group_algebra`` builds the
cocommutative convolution algebra with group-element basis.  Both are Kac:
the antipode squares to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

import numpy as np

from .core import FiniteHopfStarAlgebra
from .errors import DimensionMismatch

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class FiniteGroupData:
    """A finite group given by an explicit multiplication table.

    ``table[i, j]`` is the index of g_i g_j; index 0 is the identity.
    ``cyclic_factors`` is set for groups constructed as products of cyclic
    groups and is used by Fourier-transform helpers; it is None otherwise.
    """

    order: int
    table: Array
    labels: tuple[str, ...]
    cyclic_factors: tuple[int, ...] | None = None
    inverse: Array = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        t = np.array(self.table, dtype=np.int64, copy=True)
        if t.shape != (self.order, self.order):
            raise DimensionMismatch("table shape differs from group order")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) != self.order:
            raise DimensionMismatch("label count differs from group order")
        # identity must really be index 0
        if not (np.all(t[0] == np.arange(self.order)) and np.all(t[:, 0] == np.arange(self.order))):
            raise DimensionMismatch("index 0 is not a two-sided identity")
        inv = np.full(self.order, -1, dtype=np.int64)
        for i in range(self.order):
            js = np.where(t[i] == 0)[0]
            if len(js) != 1:
                raise DimensionMismatch(f"element {i} has no unique inverse")
            inv[i] = js[0]
        inv.flags.writeable = False
        object.__setattr__(self, "inverse", inv)

    def multiply(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))


def trivial_group() -> FiniteGroupData:
    return FiniteGroupData(1, [[0]], ("e",), cyclic_factors=())


def cyclic_group(n: int) -> FiniteGroupData:
    if n < 1:
        raise DimensionMismatch("cyclic order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = tuple(f"g{i}" for i in range(n))
    return FiniteGroupData(n, table, labels, cyclic_factors=(n,))


def direct_product(g: FiniteGroupData, h: FiniteGroupData) -> FiniteGroupData:
    """Direct product with index (i, j) -> i * |H| + j."""
    pairs = list(iproduct(range(g.order), range(h.order)))
    index = {p: k for k, p in enumerate(pairs)}
    n = len(pairs)
    table = np.zeros((n, n), dtype=np.int64)
    for a, (i1, j1) in enumerate(pairs):
        for b, (i2, j2) in enumerate(pairs):
            table[a, b] = index[(g.multiply(i1, i2), h.multiply(j1, j2))]
    labels = tuple(f"({g.labels[i]},{h.labels[j]})" for i, j in pairs)
    factors = None
    if g.cyclic_factors is not None and h.cyclic_factors is not None:
        factors = g.cyclic_factors + h.cyclic_factors
    return FiniteGroupData(n, table, labels, cyclic_factors=factors)


def dihedral_group(n: int) -> FiniteGroupData:
    """Symmetries of the regular n-gon, order 2n; index k + n*f for r^k s^f."""
    if n < 1:
        raise DimensionMismatch("dihedral parameter must be positive")
    order = 2 * n
    table = np.zeros((order, order), dtype=np.int64)
    for k, f, l, g in iproduct(range(n), range(2), range(n), range(2)):
        # (r^k s^f)(r^l s^g) = r^(k + (-1)^f l) s^(f + g)
        kk = (k + (l if f == 0 else -l)) % n
        table[k + n * f, l + n * g] = kk + n * ((f + g) % 2)
    labels = tuple(
        f"r{k}" if f == 0 else f"r{k}s" for f in range(2) for k in range(n)
    )
    return FiniteGroupData(order, table, labels)


def symmetric_group_3() -> FiniteGroupData:
    """S_3 realized as the dihedral group of the triangle, relabeled."""
    d3 = dihedral_group(3)
    labels = ("e", "(123)", "(132)", "(23)", "(13)", "(12)")
    return FiniteGroupData(d3.order, d3.table, labels)


def function_algebra(group: FiniteGroupData) -> FiniteHopfStarAlgebra:
    """Functions on G with delta basis: pointwise product, coproduct from
    the group law, star = complex conjugation."""
    n = group.order
    t = group.table
    mul = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    mul[idx, idx, idx] = 1.0
    comul = np.zeros((n, n, n), dtype=np.complex128)
    for h in range(n):
        for k in range(n):
            comul[t[h, k], h, k] = 1.0
    unit = np.ones(n, dtype=np.complex128)
    counit = np.zeros(n, dtype=np.complex128)
    counit[0] = 1.0
    antipode = np.zeros((n, n), dtype=np.complex128)
    antipode[group.inverse, idx] = 1.0
    star = np.eye(n, dtype=np.complex128)
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(f"d[{s}]" for s in group.labels),
        mul=mul,
        unit=unit,
        comul=comul,
        counit=counit,
        antipode=antipode,
        antipode_inv=antipode.copy(),
        star=star,
    )


def group_algebra(group: FiniteGroupData) -> FiniteHopfStarAlgebra:
    """Group algebra with group-element basis: convolution product,
    grouplike coproduct, star g -> g^{-1}."""
    n = group.order
    t = group.table
    mul = np.zeros((n, n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            mul[i, j, t[i, j]] = 1.0
    comul = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    comul[idx, idx, idx] = 1.0
    unit = np.zeros(n, dtype=np.complex128)
    unit[0] = 1.0
    counit = np.ones(n, dtype=np.complex128)
    flip = np.zeros((n, n), dtype=np.complex128)
    flip[group.inverse, idx] = 1.0
    return FiniteHopfStarAlgebra(
        dim=n,
        basis_labels=tuple(f"u[{s}]" for s in group.labels),
        mul=mul,
        unit=unit,
        comul=comul,
        counit=counit,
        antipode=flip,
        antipode_inv=flip.copy(),
        star=flip.copy(),
    )


def klein_four_group() -> FiniteGroupData:
    """Z2 x Z2 with labels recording the two bits."""
    return direct_product(cyclic_group(2), cyclic_group(2))
