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

from ._linalg import Terms, join, max_abs, max_gap
from .errors import DimensionMismatch, HostMismatch, NotConvolutionInvertible

Array = np.ndarray


def freeze(a) -> Array:
    """Return a read-only complex128 copy of a."""
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


def _support_product(x: Array, y: Array) -> Array:
    """x @ y, summed only over the inner indices where x has a nonzero column.

    The skipped terms are exact zeros, so the result is the full product.
    """
    k = np.flatnonzero(x.any(axis=0))
    if k.size == x.shape[1]:
        return x @ y
    return x[:, k] @ y[k]


def _worst(residuals) -> float:
    """The largest residual; unlike max(), np.max keeps a NaN from any position."""
    return float(np.max(list(residuals)))


def _associativity(mul: Array, m: Terms) -> float:
    """max |(e_i e_j) e_k - e_i (e_j e_k)|; m holds the entries of mul."""
    n = mul.shape[0]
    left = join("ijp,pkl->ijkl", m, m, n**4)
    right = left and join("jkq,iql->ijkl", m, m, n**4)
    if right is not None:
        return max_gap(left, right)
    del left  # no terms stay alive through the dense comparison
    # [j, (k l)] against [l, (j k)]
    mul_rows = mul.reshape(n, n * n)
    mul_by_output = mul.transpose(2, 0, 1).reshape(n, n * n)
    return _worst(
        _gap(
            _support_product(mul[i], mul_rows).reshape(n, n, n),
            _support_product(mul[i].T, mul_by_output).reshape(n, n, n).transpose(1, 2, 0),
        )
        for i in range(n)
    )


def _coassociativity(comul: Array, c: Terms) -> float:
    """max |(Delta (x) id) Delta(e_i) - (id (x) Delta) Delta(e_i)|; c holds
    the entries of comul."""
    n = comul.shape[0]
    left = join("ipc,pab->iabc", c, c, n**4)
    right = left and join("iap,pbc->iabc", c, c, n**4)
    if right is not None:
        return max_gap(left, right)
    del left  # no terms stay alive through the dense comparison
    # [a, (b c)] against [c, (a b)]
    comul_rows = comul.reshape(n, n * n)
    return _worst(
        _gap(
            _support_product(comul[i], comul_rows).reshape(n, n, n),
            _support_product(comul[i].T, comul_rows).reshape(n, n, n).transpose(1, 2, 0),
        )
        for i in range(n)
    )


def _coproduct_multiplicativity(mul: Array, comul: Array, m: Terms, c: Terms) -> float:
    """max |Delta(e_i e_j) - Delta(e_i) Delta(e_j)|, where the right side is
    sum comul[i, p, q] comul[j, r, s] mul[p, r, x] mul[q, s, y], summed as
    the two halves sum_p comul[i, p, q] mul[p, r, x] and
    sum_s comul[j, r, s] mul[q, s, y], joined on (q, r)."""
    n, nn = mul.shape[0], mul.shape[0] ** 2
    left = join("ijc,cab->ijab", m, c, n**4)
    first = left and join("ipq,prx->qrix", c, m, n**4)
    second = first and join("jrs,qsy->qrjy", c, m, n**4)
    right = second and join("qrix,qrjy->ijxy", first.summed(), second.summed(), n**4)
    if right is not None:
        return max_gap(left, right)
    del left, first, second  # no terms stay alive through the dense comparison
    # the half sum_s comul[j, r, s] mul[q, s, y] is laid out as [(q r), (j y)]
    right = (comul.transpose(1, 0, 2).reshape(nn, n) @ mul).reshape(nn, nn)
    # [(q r), x]: sum_p comul[i, p, q] mul[p, r, x]
    mul_rows, comul_rows = mul.reshape(n, nn), comul.reshape(n, nn)
    lefts = (_support_product(comul[i].T, mul_rows).reshape(nn, n) for i in range(n))
    return _worst(
        _gap(
            _support_product(left.T, right).reshape(n, n, n),  # [x, j, y]
            _support_product(mul[i], comul_rows).reshape(n, n, n).transpose(1, 0, 2),
        )
        for i, left in enumerate(lefts)
    )


def verify_hopf_axioms(
    algebra: FiniteHopfStarAlgebra,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    subject: str = "hopf-algebra",
) -> AxiomReport:
    """Residuals of every finitely-checkable Hopf *-algebra axiom.

    The three identities with n^4 entries (associativity, coassociativity
    and coproduct-multiplicativity) are sums of products of entries of mul
    and comul.  Each is summed over the nonzero entries only: the factors
    are joined on their summed index, every product term is keyed by its
    output entry, and both sides are reduced together, so the residual
    max |L - R| never needs a dense side.  Each join counts its terms
    before it forms any (_linalg.join); when one would have more than n^4
    terms, the number of entries the dense form writes per side, that
    identity is compared densely instead, one input basis element e_i at
    a time, each slice product summed over the nonzero support of its e_i
    factor.  Every other contraction is a fixed sequence of pairwise BLAS
    products.
    """
    a = algebra
    n = a.dim
    nn = n * n
    mul, comul = a.mul, a.comul
    m, c = Terms.of(mul), Terms.of(comul)
    eye = np.eye(n, dtype=np.complex128)
    checks: list[tuple[str, float]] = []

    checks.append(("associativity", _associativity(mul, m)))

    left_unit = np.einsum("i,ijk->jk", a.unit, mul) - eye
    right_unit = np.einsum("j,ijk->ik", a.unit, mul) - eye
    checks.append(("unit-law", max(max_abs(left_unit), max_abs(right_unit))))

    checks.append(("coassociativity", _coassociativity(comul, c)))

    left_counit = np.einsum("ijk,j->ik", comul, a.counit) - eye
    right_counit = np.einsum("ijk,k->ij", comul, a.counit) - eye
    checks.append(("counit-law", max(max_abs(left_counit), max_abs(right_counit))))

    hom = _coproduct_multiplicativity(mul, comul, m, c)
    checks.append(("coproduct-multiplicative", hom))

    unit_coprod = np.einsum("i,ijk->jk", a.unit, comul) - np.outer(a.unit, a.unit)
    checks.append(("coproduct-unital", max_abs(unit_coprod)))

    counit_mul = np.einsum("ijk,k->ij", mul, a.counit) - np.outer(a.counit, a.counit)
    counit_unit = abs(complex(np.dot(a.counit, a.unit)) - 1.0)
    checks.append(("counit-multiplicative", max(max_abs(counit_mul), counit_unit)))

    # Delta(a*) = (* tensor *) Delta(a)
    star_coprod = _gap(
        (a.star.T @ comul.reshape(n, nn)).reshape(n, n, n),
        a.star @ np.conj(comul) @ a.star.T,
    )
    checks.append(("coproduct-star", star_coprod))

    antipode_target = np.outer(a.counit, a.unit)
    mul_flat = mul.reshape(nn, n)
    anti_left = (a.antipode @ comul).reshape(n, nn) @ mul_flat - antipode_target
    anti_right = (comul @ a.antipode.T).reshape(n, nn) @ mul_flat - antipode_target
    checks.append(("antipode-law", max(max_abs(anti_left), max_abs(anti_right))))

    anti_hom = _gap(mul @ a.antipode.T, _pull_back(a.antipode, mul))
    checks.append(("antipode-antimultiplicative", anti_hom))

    checks.append(("antipode-inverse", max_abs(a.antipode_inv @ a.antipode - eye)))

    # kappa(a*) = (kappa^{-1}(a))*  <=>  antipode @ star = star @ conj(antipode_inv)
    anti_star = a.antipode @ a.star - a.star @ np.conj(a.antipode_inv)
    checks.append(("antipode-star-compatible", max_abs(anti_star)))

    checks.append(("star-involutive", max_abs(a.star @ np.conj(a.star) - eye)))
    checks.append(("star-unit", max_abs(a.star @ np.conj(a.unit) - a.unit)))

    # (e_i e_j)* = e_j* e_i*
    star_anti = _gap(np.conj(mul) @ a.star.T, _pull_back(a.star, mul))
    checks.append(("star-antimultiplicative", star_anti))

    return AxiomReport(subject=subject, checks=tuple(checks), tolerance=ctx.tolerance)
