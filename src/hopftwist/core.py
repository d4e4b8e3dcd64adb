"""Finite Hopf *-algebras as dense structure tensors, and their duals.

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
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import Chain, Terms, identity_gap, max_abs, worst
from .errors import DimensionMismatch, HostMismatch, NotConvolutionInvertible

Array = np.ndarray


def freeze(a) -> Array:
    """a as a read-only complex128 array.  An array that is already both, and
    that no writeable array it views can change, is returned as it is, so
    frozen tensors and their views (a dual's transposes) are shared: a
    twisted algebra takes its host's coproduct, unit and counit without a
    copy.  Anything else is copied, so a caller who changes its own array
    later changes nothing."""
    # a read-only view can still change through a writeable base, and an
    # array over a buffer that is not an array through the buffer
    owner = a
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is None and a.dtype == np.complex128:
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

    def rng(self) -> random.Random:
        """The seeded generator; _linalg.uniform turns its draws into arrays."""
        return random.Random(self.seed)

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
        """Coefficients of x y.  x may be an (n, k) matrix whose columns are
        elements; the k products x[:, r] y are then its columns."""
        return self.mul.transpose(2, 0, 1) @ y @ x

    def star_of(self, x: Array) -> Array:
        """Coefficients of x*; x may be a stack (..., n) of elements."""
        # the sum is conjugated, not its terms, which fixes the sign of a zero
        # imaginary part, and so the canonical bytes of a dual's star
        return np.conj(x @ np.conj(self.star.T))

    @cached_property
    def _terms(self) -> dict[str, Terms]:
        """The terms of mul, antipode and star, held with the keyed tables of
        their joins; comul's are held by the coalgebra record."""
        return {name: Terms.of(getattr(self, name)) for name in ("mul", "antipode", "star")}

    @cached_property
    def _coalgebra(self) -> _Coalgebra:
        """The coalgebra record (_Coalgebra), made on first use unless a
        twist is handed its host's (_share_coalgebra)."""
        return _Coalgebra(self)

    def _share_coalgebra(self, host: FiniteHopfStarAlgebra) -> None:
        """Hold host's coalgebra record; this algebra was made with host's
        comul, unit and counit arrays, as a twist of host is."""
        if not (self.comul is host.comul and self.unit is host.unit and self.counit is host.counit):
            raise HostMismatch("only an algebra over its host's coalgebra arrays shares its record")
        self.__dict__["_coalgebra"] = host._coalgebra

    @cached_property
    def _dual(self) -> FiniteHopfStarAlgebra:
        """dual(self), made on first use."""
        # the star m^T, m = conj(star) antipode, is held as a view of m: a
        # C-ordered copy would change the order in which star_of's products sum
        m = np.conj(self.star) @ self.antipode
        m.flags.writeable = False
        return FiniteHopfStarAlgebra(
            dim=self.dim,
            basis_labels=self.basis_labels,
            mul=self.comul.transpose(1, 2, 0),
            unit=self.counit,
            comul=self.mul.transpose(2, 0, 1),
            counit=self.unit,
            antipode=self.antipode.T,
            antipode_inv=self.antipode_inv.T,
            star=m.T,
        )


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


def dual(algebra: FiniteHopfStarAlgebra) -> FiniteHopfStarAlgebra:
    """The dual Hopf *-algebra of functionals, by their values on the basis:
    the convolution (phi psi)(a) = phi(a_(1)) psi(a_(2)), the counit as its
    unit, phi -> phi o kappa as its antipode and phi*(a) = conj(phi(kappa(a)*))
    as its star.  Its n^3-entry tensors are transposed views of algebra's.
    It is made once and held by algebra, so it is the same object on every
    call, and so are the terms it holds."""
    return algebra._dual


def convolution_inverse(phi: DualFunctional, ctx: ScalarContext = DEFAULT_CONTEXT) -> DualFunctional:
    """The convolution inverse of a unitary functional, which is its dual
    star, accepted by its two-sided residual."""
    hat = dual(phi.host)
    inv = hat.star_of(phi.coeffs)
    left = hat.product(phi.coeffs, inv) - hat.unit
    right = hat.product(inv, phi.coeffs) - hat.unit
    resid = max(max_abs(left), max_abs(right))
    if not ctx.close(resid):
        raise NotConvolutionInvertible(f"not unitary: two-sided inverse residual {resid:.3g}")
    return DualFunctional(phi.host, inv)


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


class _Coalgebra:
    """What an algebra derives from its coproduct, unit and counit, and the
    projection of the dual onto its center (peterweyl._center).  A twist
    keeps the coproduct, unit and counit, and with them the dual's center,
    so twist_algebra hands the host's record to the twisted algebra.  The
    projection is formed from the product and antipode of the algebra that
    made the record, so it is the same bytes whichever algebra asks first."""

    def __init__(self, a: FiniteHopfStarAlgebra):
        self.comul, self.unit, self.counit = Terms.of(a.comul), a.unit, a.counit
        self.mul, self.antipode, self.center = a.mul, a.antipode, None

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Residuals of coassociativity, the counit law and coproduct-unital."""
        c, comul, unit, counit = self.comul, self.comul.array, self.unit, self.counit
        eye = np.eye(len(unit), dtype=np.complex128)
        coassoc = identity_gap(Chain(c, ("ipc,pab->iabc", c)), Chain(c, ("iap,pbc->iabc", c)))
        left_counit = np.einsum("ijk,j->ik", comul, counit) - eye
        right_counit = np.einsum("ijk,k->ij", comul, counit) - eye
        return {
            "coassociativity": coassoc,
            "counit-law": max(max_abs(left_counit), max_abs(right_counit)),
            "coproduct-unital": max_abs(np.einsum("i,ijk->jk", unit, comul) - np.outer(unit, unit)),
        }


# a NaN or inf entry reads as a non-finite residual, without a warning
@np.errstate(invalid="ignore", over="ignore")
def verify_hopf_axioms(
    algebra: FiniteHopfStarAlgebra,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    subject: str = "hopf-algebra",
) -> AxiomReport:
    """Residuals of every finitely-checkable Hopf *-algebra axiom.

    The identities with n^3 or n^4 entries (associativity, coassociativity,
    coproduct-multiplicativity and the antipode and star identities) are
    sums of products of entries of the structure tensors.  Each side is a
    chain (_linalg.Chain), and both sides are compared one run of the
    leading index at a time (_linalg.identity_gap).  A run is written out
    densely where every partial result fits the budget, and is otherwise
    summed over the nonzero entries only, every join counted before it
    forms any term and held under the budget (_linalg.runs).  So where no
    basis element is over the budget alone, no side is ever written out
    whole.  An element that is over it alone is compared densely, an
    n^3-entry partial result per step, and coproduct-multiplicativity then
    forms its n^4-entry half once (products below).  Every identity with at
    most n^2 entries is a dense BLAS product.

    A tensor is read as terms only for a run that is joined, once while the
    algebra that holds its Terms lives.  The identities of the coalgebra
    alone (coassociativity, the counit law, coproduct-unital) are checked
    once per coalgebra record: a twist keeps the coproduct, unit and counit
    and is handed its host's record, so the twisted algebras of a host share
    the host's residuals.
    """
    a = algebra
    n = a.dim
    nn = n * n
    mul, comul = a.mul, a.comul
    m, c = a._terms["mul"], a._coalgebra.comul
    eye = np.eye(n, dtype=np.complex128)
    checks: list[tuple[str, float]] = []

    assoc = identity_gap(Chain(m, ("ijp,pkl->ijkl", m)), Chain(m, ("iql,jkq->ijkl", m)))
    checks.append(("associativity", assoc))

    left_unit = np.einsum("i,ijk->jk", a.unit, mul) - eye
    right_unit = np.einsum("j,ijk->ik", a.unit, mul) - eye
    checks.append(("unit-law", max(max_abs(left_unit), max_abs(right_unit))))

    coalgebra = a._coalgebra.residuals
    checks.append(("coassociativity", coalgebra["coassociativity"]))
    checks.append(("counit-law", coalgebra["counit-law"]))

    # Delta(e_i) Delta(e_j) = sum comul[i, p, q] comul[j, r, s] mul[p, r, x]
    # mul[q, s, y], joined on q, then p, then (r, s).  Written out for a run
    # of e_i it is sum_qr A[i, q, r, x] B[q, r, j, y], with A = sum_p
    # comul[i, p, q] mul[p, r, x] and the half B = sum_s comul[j, r, s]
    # mul[q, s, y], whose n^4 entries are formed once, for the first run
    # that needs them
    half = []

    def products(lead: slice) -> Array:
        if not half:
            half.append((comul.transpose(1, 0, 2).reshape(nn, n) @ mul).reshape(nn, nn))
        first = (comul[lead].transpose(0, 2, 1) @ mul.reshape(n, nn)).reshape(-1, nn, n)
        return (first.transpose(0, 2, 1) @ half[0]).reshape(-1, n, n, n).transpose(0, 2, 1, 3)

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
    checks.append(("coproduct-unital", coalgebra["coproduct-unital"]))

    counit_mul = np.einsum("ijk,k->ij", mul, a.counit) - np.outer(a.counit, a.counit)
    counit_unit = abs(complex(np.dot(a.counit, a.unit)) - 1.0)
    checks.append(("counit-multiplicative", max(max_abs(counit_mul), counit_unit)))

    # Delta(a*) = (* tensor *) Delta(a)
    s, k = a._terms["star"], a._terms["antipode"]
    star_coprod = identity_gap(
        Chain(a.star.T, ("ip,pjk->ijk", c)),
        Chain(c.conj(), ("iab,ja->ijb", s), ("ijb,kb->ijk", s)),
    )
    target = Chain(np.outer(a.counit, a.unit))
    anti_law = worst(
        identity_gap(side, target)
        for side in (
            Chain(c, ("ipb,jp->ijb", k), ("ijb,jbk->ik", m)),
            Chain(c, ("iap,jp->iaj", k), ("iaj,ajk->ik", m)),
        )
    )
    anti_hom = identity_gap(
        Chain(m, ("ijk,lk->ijl", k)), Chain(a.antipode.T, ("iq,pql->ipl", m), ("ipl,pj->ijl", k))
    )
    # (e_i e_j)* = e_j* e_i*
    star_anti = identity_gap(
        Chain(m.conj(), ("ijk,lk->ijl", s)),
        Chain(a.star.T, ("iq,pql->ipl", m), ("ipl,pj->ijl", s)),
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
