"""Finite Hopf *-algebras as dense structure tensors, plus their dual functionals.

Conventions used throughout:

* elements are coefficient vectors over a fixed basis (e_1, ..., e_n);
* linear maps act on coefficient columns from the left, so kappa(a) has
  coefficients ``antipode @ a``;
* the star operation is conjugate-linear: the coefficients of a* are
  ``star @ conj(a)``, which turns involutivity into ``star @ conj(star) = 1``;
* ``mul[i, j, k]`` is the e_k-coefficient of e_i e_j (inputs first);
* ``comul[i, j, k]`` is the (e_j tensor e_k)-coefficient of the coproduct
  of e_i (input first).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import Chain, Terms, max_abs, max_gap, slices, small
from .errors import DimensionMismatch, HostMismatch, NotConvolutionInvertible

Array = np.ndarray


def freeze(a) -> Array:
    """a as a read-only, C-contiguous complex128 array.  An array that is
    already all three, and that no writeable array it views can change, is
    returned as it is, so frozen tensors are shared; anything else is
    copied, so a caller who changes its own array later changes nothing."""
    # a read-only view can still change through a writeable base, and an
    # array over a buffer that is not an array through the buffer
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None and a.dtype == np.complex128 and a.flags.c_contiguous:
        return a
    out = np.array(a, dtype=np.complex128, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScalarContext:
    """Tolerance and seed shared by every numerical routine.

    Comparisons are absolute max-norm comparisons against ``tolerance``.
    """

    tolerance: float = 1e-9
    seed: int = 7

    def __post_init__(self):
        # an infinite tolerance would pass every check
        if not 0 < self.tolerance < math.inf:
            raise DimensionMismatch(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.seed < 0:
            raise DimensionMismatch(f"seed must be non-negative, got {self.seed}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def close(self, residual: float) -> bool:
        return residual <= self.tolerance

    @property
    def loose_tolerance(self) -> float:
        """1e3 * tolerance: the cutoff for intermediate quantities (ranks,
        Gram-Schmidt norms, construction residuals) that carry more rounding
        than the final checks do."""
        return 1e3 * self.tolerance


DEFAULT_CONTEXT = ScalarContext()


@dataclass(frozen=True, eq=False)
class FiniteHopfStarAlgebra:
    """Structure tensors of a finite-dimensional Hopf *-algebra."""

    dim: int
    basis_labels: tuple[str, ...]
    mul: Array
    unit: Array
    comul: Array
    counit: Array
    antipode: Array
    antipode_inv: Array
    star: Array

    def __post_init__(self):
        n = self.dim
        if n <= 0:
            raise DimensionMismatch("dim must be positive")
        if len(self.basis_labels) != n:
            raise DimensionMismatch("label count differs from dim")
        object.__setattr__(self, "basis_labels", tuple(str(s) for s in self.basis_labels))
        shapes = {
            "mul": (n, n, n),
            "unit": (n,),
            "comul": (n, n, n),
            "counit": (n,),
            "antipode": (n, n),
            "antipode_inv": (n, n),
            "star": (n, n),
        }
        for name, shape in shapes.items():
            arr = freeze(getattr(self, name))
            if arr.shape != shape:
                raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)

    def product(self, x: Array, y: Array) -> Array:
        return np.einsum("i,j,ijk->k", x, y, self.mul)

    def star_of(self, x: Array) -> Array:
        """Coefficients of x*; x may be a stack (..., n) of elements."""
        return np.conj(x) @ self.star.T


@dataclass(frozen=True, eq=False)
class DualFunctional:
    """Linear functional on a host algebra, stored by its values on the basis."""

    host: FiniteHopfStarAlgebra
    coeffs: Array

    def __post_init__(self):
        arr = freeze(self.coeffs)
        if arr.shape != (self.host.dim,):
            raise DimensionMismatch("functional length differs from host dim")
        object.__setattr__(self, "coeffs", arr)

    def __call__(self, x: Array) -> complex:
        return complex(np.dot(self.coeffs, x))


def convolve(phi: DualFunctional, psi: DualFunctional) -> DualFunctional:
    """Convolution product (phi * psi)(a) = phi(a_(1)) psi(a_(2))."""
    if phi.host is not psi.host:
        raise HostMismatch("convolution requires a common host algebra")
    return DualFunctional(phi.host, convolve_coeffs(phi.host, phi.coeffs, psi.coeffs))


def convolve_coeffs(host: FiniteHopfStarAlgebra, phi: Array, psi: Array) -> Array:
    """Coefficient-level form of convolve, for tight loops."""
    return host.comul @ psi @ phi


def convolution_inverse(phi: DualFunctional, ctx: ScalarContext = DEFAULT_CONTEXT) -> DualFunctional:
    """The convolution inverse of a unitary functional, which is its dual
    star, accepted by its two-sided residual."""
    host = phi.host
    inv = dual_star(phi)
    left = convolve(phi, inv).coeffs - host.counit
    right = convolve(inv, phi).coeffs - host.counit
    resid = max(max_abs(left), max_abs(right))
    if not ctx.close(resid):
        raise NotConvolutionInvertible(f"not unitary: two-sided inverse residual {resid:.3g}")
    return inv


def dual_star_matrix(host: FiniteHopfStarAlgebra) -> Array:
    """m = star @ conj(antipode), so that phi*(e_i) = conj(sum_j m[j, i] phi_j)."""
    return host.star @ np.conj(host.antipode)


def dual_star(phi: DualFunctional) -> DualFunctional:
    """Involution on the dual: phi*(a) = conj(phi(kappa(a)*))."""
    return DualFunctional(phi.host, dual_star_matrix_apply(phi.host, phi.coeffs))


def dual_star_matrix_apply(host: FiniteHopfStarAlgebra, phi: Array) -> Array:
    """Coefficient-level form of dual_star, for tight loops."""
    return np.conj(dual_star_matrix(host).T @ phi)


@dataclass(frozen=True)
class AxiomReport:
    """Named residuals from a verification pass, judged against one tolerance."""

    subject: str
    checks: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for _, r in self.checks)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.checks), default=0.0)

    def residual(self, name: str) -> float:
        for key, value in self.checks:
            if key == name:
                return value
        raise KeyError(name)

    def failing(self) -> tuple[str, ...]:
        """The checks that keep the report from passing, a NaN residual included."""
        return tuple(name for name, r in self.checks if not r <= self.tolerance)

    def require(self, error: type[Exception], what: str) -> AxiomReport:
        """This report if it passes; otherwise raise error naming the failing checks."""
        if not self.passed:
            raise error(f"{what}: {', '.join(self.failing())}")
        return self


def _gap(fresh: Array, other) -> float:
    """max |fresh - other|, overwriting the temporary fresh instead of allocating."""
    np.subtract(fresh, other, out=fresh)
    return max_abs(fresh)


def _pull_back(m: Array, t: Array) -> Array:
    """r[i, j, l] = sum_pq m[q, i] m[p, j] t[p, q, l]."""
    half = np.tensordot(m, t, axes=([0], [1]))  # [i, p, l]
    return np.tensordot(half, m, axes=([1], [0])).transpose(0, 2, 1)


def _worst(residuals) -> float:
    """The largest residual; unlike max(), np.max keeps a NaN from any position."""
    return float(np.max(list(residuals)))


def identity_gap(left: Chain, right: Chain) -> float:
    """max |L - R| for an identity whose two sides are chains, summed and
    compared one run of leading indices at a time (_linalg.slices).  An
    index whose joins exceed the budget alone is compared densely instead."""

    def part(lead: slice) -> float | None:
        # each side is summed as soon as it is formed, so that only one side
        # is ever held as unsummed terms
        lhs = left.terms(lead)
        lhs = lhs and lhs.summed()
        rhs = lhs and right.terms(lead)
        return None if rhs is None else max_gap(lhs, rhs)

    return _worst(
        _gap(left.dense(lead), right.dense(lead)) if got is None else got
        for lead, got in slices(left.first.shape[0], part)
    )


def verify_hopf_axioms(
    algebra: FiniteHopfStarAlgebra,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    subject: str = "hopf-algebra",
) -> AxiomReport:
    """Residuals of every finitely-checkable Hopf *-algebra axiom.

    The identities with n^4 entries (associativity, coassociativity and
    coproduct-multiplicativity) are sums of products of entries of mul and
    comul, and on a host that is not small (_linalg.small) so are the
    n^3-entry antipode and star identities.  Each of them is summed over
    the nonzero entries only: each side is a chain of term joins, both
    sides are summed and compared one run of the leading index at a time,
    and every join is counted before it forms any term and held under one
    budget (identity_gap).  So where no basis element is over the budget
    alone, no side is ever written out whole.  An element that is over it
    alone is compared densely, an n^3-entry partial result per step, and
    coproduct-multiplicativity then forms its n^4-entry half once (products
    below).  On a small host the
    n^3-entry identities are dense BLAS products, as is every identity with
    at most n^2 entries.
    """
    a = algebra
    n = a.dim
    nn = n * n
    mul, comul = a.mul, a.comul
    m, c = Terms.of(mul), Terms.of(comul)
    eye = np.eye(n, dtype=np.complex128)
    checks: list[tuple[str, float]] = []

    assoc = identity_gap(Chain(m, ("ijp,pkl->ijkl", m)), Chain(m, ("iql,jkq->ijkl", m)))
    checks.append(("associativity", assoc))

    left_unit = np.einsum("i,ijk->jk", a.unit, mul) - eye
    right_unit = np.einsum("j,ijk->ik", a.unit, mul) - eye
    checks.append(("unit-law", max(max_abs(left_unit), max_abs(right_unit))))

    coassoc = identity_gap(Chain(c, ("ipc,pab->iabc", c)), Chain(c, ("iap,pbc->iabc", c)))
    checks.append(("coassociativity", coassoc))

    left_counit = np.einsum("ijk,j->ik", comul, a.counit) - eye
    right_counit = np.einsum("ijk,k->ij", comul, a.counit) - eye
    checks.append(("counit-law", max(max_abs(left_counit), max_abs(right_counit))))

    # Delta(e_i) Delta(e_j) = sum comul[i, p, q] comul[j, r, s] mul[p, r, x]
    # mul[q, s, y], joined on q, then p, then (r, s).  Written out for one
    # e_i it is sum_qr A[q, r, x] B[q, r, j, y], with A = sum_p comul[i, p, q]
    # mul[p, r, x] and the half B = sum_s comul[j, r, s] mul[q, s, y], whose
    # n^4 entries are formed once, for the first element that needs them
    half = []

    def products(lead: slice) -> Array:
        if not half:
            half.append((comul.transpose(1, 0, 2).reshape(nn, n) @ mul).reshape(nn, nn))
        first = (comul[lead.start].T @ mul.reshape(n, nn)).reshape(nn, n)
        return (first.T @ half[0]).reshape(1, n, n, n).transpose(0, 2, 1, 3)

    hom = identity_gap(
        Chain(m, ("ijc,cab->ijab", c)),
        Chain(
            c,
            ("ipq,qsy->ipsy", m),
            ("ipsy,prx->isyrx", m),
            ("isyrx,jrs->ijxy", c),
            dense=products,
        ),
    )
    checks.append(("coproduct-multiplicative", hom))

    unit_coprod = np.einsum("i,ijk->jk", a.unit, comul) - np.outer(a.unit, a.unit)
    checks.append(("coproduct-unital", max_abs(unit_coprod)))

    counit_mul = np.einsum("ijk,k->ij", mul, a.counit) - np.outer(a.counit, a.counit)
    counit_unit = abs(complex(np.dot(a.counit, a.unit)) - 1.0)
    checks.append(("counit-multiplicative", max(max_abs(counit_mul), counit_unit)))

    antipode_target = np.outer(a.counit, a.unit)
    if small(n):
        # Delta(a*) = (* tensor *) Delta(a)
        star_coprod = _gap(
            (a.star.T @ comul.reshape(n, nn)).reshape(n, n, n),
            a.star @ np.conj(comul) @ a.star.T,
        )
        mul_flat = mul.reshape(nn, n)
        anti_left = (a.antipode @ comul).reshape(n, nn) @ mul_flat - antipode_target
        anti_right = (comul @ a.antipode.T).reshape(n, nn) @ mul_flat - antipode_target
        anti_law = max(max_abs(anti_left), max_abs(anti_right))
        anti_hom = _gap(mul @ a.antipode.T, _pull_back(a.antipode, mul))
        # (e_i e_j)* = e_j* e_i*
        star_anti = _gap(np.conj(mul) @ a.star.T, _pull_back(a.star, mul))
    else:
        s, st, k, kt = (Terms.of(x) for x in (a.star, a.star.T, a.antipode, a.antipode.T))
        star_coprod = identity_gap(
            Chain(st, ("ip,pjk->ijk", c)),
            Chain(c.conj(), ("iab,ja->ijb", s), ("ijb,kb->ijk", s)),
        )
        target = Chain(Terms.of(antipode_target))
        anti_law = _worst(
            identity_gap(side, target)
            for side in (
                Chain(c, ("ipb,jp->ijb", k), ("ijb,jbk->ik", m)),
                Chain(c, ("iap,jp->iaj", k), ("iaj,ajk->ik", m)),
            )
        )
        anti_hom = identity_gap(
            Chain(m, ("ijk,lk->ijl", k)), Chain(kt, ("iq,pql->ipl", m), ("ipl,pj->ijl", k))
        )
        star_anti = identity_gap(
            Chain(m.conj(), ("ijk,lk->ijl", s)),
            Chain(st, ("iq,pql->ipl", m), ("ipl,pj->ijl", s)),
        )
    checks.append(("coproduct-star", star_coprod))
    checks.append(("antipode-law", anti_law))
    checks.append(("antipode-antimultiplicative", anti_hom))

    checks.append(("antipode-inverse", max_abs(a.antipode_inv @ a.antipode - eye)))

    # kappa(a*) = (kappa^{-1}(a))*  <=>  antipode @ star = star @ conj(antipode_inv)
    anti_star = a.antipode @ a.star - a.star @ np.conj(a.antipode_inv)
    checks.append(("antipode-star-compatible", max_abs(anti_star)))

    checks.append(("star-involutive", max_abs(a.star @ np.conj(a.star) - eye)))
    checks.append(("star-unit", max_abs(a.star @ np.conj(a.unit) - a.unit)))
    checks.append(("star-antimultiplicative", star_anti))

    return AxiomReport(subject=subject, checks=tuple(checks), tolerance=ctx.tolerance)
