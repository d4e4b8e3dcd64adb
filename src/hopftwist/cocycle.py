"""Dual unitary 2-cocycles on the tensor square of the dual.

A cocycle is stored as the matrix of its values on basis pairs,
sigma[i, j] = sigma(e_i, e_j).  Convolution and the involution on
functionals of the tensor square are implemented at matrix level.  A dual
unitary cocycle has sigma^-1 = sigma*, so the inverse is that closed form,
recomputed from sigma and never trusted from input, and it is accepted only
by its two-sided residual; a sigma that is not unitary is rejected.  The
same holds for the functionals w and v, whose inverses are their dual stars.

A cocycle induced from a small quotient is mostly zeros, so a convolution
too large to write out is summed over the nonzero entries only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import Chain, Terms, identity_gap, max_abs
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    convolution_inverse,
    dual,
    freeze,
)
from .errors import (
    HostMismatch,
    InvalidBicharacter,
    InvalidInverse,
    InvalidMorphism,
    TheoremViolation,
)
from .groups import FiniteGroupData, group_algebra

Array = np.ndarray


def convolve2(host: FiniteHopfStarAlgebra, x: Array, y: Array) -> Array:
    """Convolution of two functionals on the tensor square: the product of
    dual(host) (x) dual(host), leg by leg.

    out[i, j] = sum comul[i, a, b] comul[j, c, d] x[a, c] y[b, d].  One factor
    may carry a trailing axis, such as ``mul`` read as a vector-valued
    functional; that axis comes last in the result.  It is convolve2_terms,
    written out.
    """
    return convolve2_terms(host, x, y).dense()


def convolve2_terms(host: FiniteHopfStarAlgebra, x, y) -> Terms:
    """convolve2 as summed terms, factors given as arrays or Terms: a chain
    on a, then b, then (c, d), formed one run of output rows i at a time,
    densely where its partial results fit the budget and otherwise over the
    nonzero entries of comul and of both factors (_linalg.runs).  A cocycle
    induced from a small quotient then costs a fraction of a dense one, and
    no temporary outgrows the budget."""
    tx, ty = "t" * (len(x.shape) - 2), "t" * (len(y.shape) - 2)
    c = Terms.of(host.comul)
    return Chain(
        c,
        (f"iab,ac{tx}->ibc{tx}", x),
        (f"ibc{tx},bd{ty}->ic{tx}d{ty}", y),
        (f"ic{tx}d{ty},jcd->ij{tx}{ty}", c),
    ).whole()


def twisted_product(host: FiniteHopfStarAlgebra, sig: Array, sig_inv: Array) -> Array:
    """The twisted product m_sigma = sigma * m * sigma^-1, convolved on the
    tensor square: with d3[i, a, b, c] the (e_a (x) e_b (x) e_c)-coefficient
    of (id (x) Delta) Delta(e_i) it is
    sum d3[i,a,b,c] d3[j,d,e,f] sig[a,d] mul[b,e,t] sig_inv[c,f].  The
    half-twisted product mul * sigma^-1 is held as terms, not written out."""
    return convolve2(host, sig, convolve2_terms(host, host.mul, sig_inv))


def identity2(host: FiniteHopfStarAlgebra) -> Array:
    return np.outer(host.counit, host.counit)


def invert2(
    host: FiniteHopfStarAlgebra, x: Array, ctx: ScalarContext
) -> tuple[Array, float]:
    """The convolution inverse on the tensor square of a unitary x, which is
    its dual star, and the two-sided inverse residual that accepts it."""
    inv = dual_star2(host, x)
    resid = max(
        max_abs(convolve2(host, x, inv) - identity2(host)),
        max_abs(convolve2(host, inv, x) - identity2(host)),
    )
    if not ctx.close(resid):
        raise InvalidInverse(f"not unitary: two-sided inverse residual {resid:.3g}")
    return inv, resid


def dual_star2(host: FiniteHopfStarAlgebra, x: Array) -> Array:
    """Involution on tensor-square functionals: the star of dual(host) on
    both legs."""
    # conjugated once, after both products, as star_of does for one leg
    star = np.conj(dual(host).star)
    return np.conj(star @ x @ star.T)


@dataclass(frozen=True, eq=False)
class DualCocycle:
    host: FiniteHopfStarAlgebra
    sigma: Array
    ctx: ScalarContext = DEFAULT_CONTEXT
    sigma_inv: Array = field(init=False)
    inverse_residual: float = field(init=False)

    def __post_init__(self):
        sig = freeze(self.sigma)
        if sig.shape != (self.host.dim, self.host.dim):
            raise InvalidInverse(
                f"cocycle matrix has shape {sig.shape}, host dim {self.host.dim}"
            )
        inv, resid = invert2(self.host, sig, self.ctx)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "sigma_inv", freeze(inv))
        object.__setattr__(self, "inverse_residual", resid)


def trivial_cocycle(host: FiniteHopfStarAlgebra) -> DualCocycle:
    return DualCocycle(host, identity2(host))


def verify_cocycle(
    cocycle: DualCocycle, ctx: ScalarContext = DEFAULT_CONTEXT, subject: str = "cocycle"
) -> AxiomReport:
    host = cocycle.host
    sig, inv = cocycle.sigma, cocycle.sigma_inv
    # invert2 measured it when the cocycle was built
    checks = [("inverse-two-sided", cocycle.inverse_residual)]

    # both sides share p[j, k, t] = sigma(e_j(1), e_k(1)) (e_j(2) e_k(2))_t
    s, p = Terms.of(sig), convolve2_terms(host, sig, host.mul)
    lhs, rhs = Chain(s, ("at,bct->abc", p)), Chain(p, ("abt,tc->abc", s))
    checks.append(("cocycle-identity", identity_gap(lhs, rhs)))

    norm = max(
        max_abs(sig @ host.unit - host.counit),
        max_abs(host.unit @ sig - host.counit),
        max_abs(inv @ host.unit - host.counit),
        max_abs(host.unit @ inv - host.counit),
    )
    checks.append(("normalization", norm))

    # 0 by construction, since the inverse is the dual star; kept so that
    # reports keep their check names
    checks.append(("unitarity", max_abs(dual_star2(host, sig) - inv)))

    return AxiomReport(subject=subject, checks=tuple(checks), tolerance=ctx.tolerance)


def from_bicharacter(
    group: FiniteGroupData,
    beta: Array,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    host: FiniteHopfStarAlgebra | None = None,
) -> DualCocycle:
    """Bicharacter table on a finite group as a cocycle on its group algebra.

    A pre-built group algebra of the same group may be passed as host so the
    cocycle attaches to an existing object instead of a fresh one.
    """
    n = group.order
    beta = np.asarray(beta, dtype=np.complex128)
    if beta.shape != (n, n):
        raise InvalidBicharacter(f"table shape {beta.shape} for group of order {n}")
    # every test reads "not ... <= tol", so a NaN entry fails it
    if not max_abs(np.abs(beta) - 1.0) <= ctx.tolerance:
        raise InvalidBicharacter("table values must be unimodular")
    t = group.table
    # [g, h, k]: beta(g, hk) against beta(g, h) beta(g, k), then beta(gh, k)
    # against beta(g, k) beta(h, k); the first bad triple in (g, h, k) order
    # is reported, its second slot before its first
    second = ~(np.abs(beta[:, t] - beta[:, :, None] * beta[:, None, :]) <= ctx.tolerance)
    first = ~(np.abs(beta[t, :] - beta[:, None, :] * beta[None, :, :]) <= ctx.tolerance)
    bad = second | first
    if bad.any():
        g, h, k = np.unravel_index(np.argmax(bad), bad.shape)
        slot = "second" if second[g, h, k] else "first"
        raise InvalidBicharacter(f"not multiplicative in the {slot} slot at ({g},{h},{k})")
    if host is not None and host.dim != n:
        raise InvalidBicharacter(
            f"supplied host has dimension {host.dim}, group has order {n}"
        )
    cocycle = DualCocycle(host if host is not None else group_algebra(group), beta, ctx=ctx)
    verify_cocycle(cocycle, ctx).require(InvalidBicharacter, "table fails cocycle checks")
    return cocycle


@dataclass(frozen=True, eq=False)
class QuotientMorphism:
    """Surjective Hopf *-algebra morphism, as a matrix on coefficient columns."""

    source: FiniteHopfStarAlgebra
    target: FiniteHopfStarAlgebra
    pi: Array

    def __post_init__(self):
        p = freeze(self.pi)
        if p.shape != (self.target.dim, self.source.dim):
            raise InvalidMorphism(
                f"morphism matrix shape {p.shape}, expected "
                f"{(self.target.dim, self.source.dim)}"
            )
        object.__setattr__(self, "pi", p)


def verify_morphism(
    mor: QuotientMorphism, ctx: ScalarContext = DEFAULT_CONTEXT
) -> AxiomReport:
    s, t, p = mor.source, mor.target, mor.pi
    checks: list[tuple[str, float]] = []

    # pulled[i, r, j] = sum_pq p[p, i] p[q, j] t.mul[p, q, r]
    pulled = np.tensordot(np.tensordot(p, t.mul, axes=([0], [0])), p, axes=([1], [0]))
    prod = s.mul @ p.T - pulled.transpose(0, 2, 1)
    checks.append(("multiplicative", max_abs(prod)))
    checks.append(("unital", max_abs(p @ s.unit - t.unit)))

    coprod = (p.T @ t.comul.reshape(t.dim, -1)).reshape(s.dim, t.dim, t.dim) - (
        p @ s.comul @ p.T
    )
    checks.append(("comultiplicative", max_abs(coprod)))
    checks.append(("counital", max_abs(t.counit @ p - s.counit)))
    checks.append(("star-compatible", max_abs(p @ s.star - t.star @ np.conj(p))))
    checks.append(("antipode-compatible", max_abs(p @ s.antipode - t.antipode @ p)))

    rank = np.linalg.matrix_rank(p, tol=1e-8)
    checks.append(("surjective", 0.0 if rank == t.dim else 1.0))

    return AxiomReport(subject="morphism", checks=tuple(checks), tolerance=ctx.tolerance)


def induce(
    cocycle: DualCocycle,
    mor: QuotientMorphism,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> DualCocycle:
    """Pull a cocycle on the quotient back to the big algebra."""
    if cocycle.host is not mor.target:
        raise HostMismatch("cocycle does not live on the morphism target")
    verify_morphism(mor, ctx).require(InvalidMorphism, "morphism checks failed")
    sigma = mor.pi.T @ cocycle.sigma @ mor.pi
    induced = DualCocycle(mor.source, sigma, ctx=ctx)
    verify_cocycle(induced, ctx).require(TheoremViolation, "induced cocycle fails checks")
    return induced


def _w_checked(cocycle: DualCocycle, ctx: ScalarContext) -> DualFunctional:
    """The functional a -> sigma(a_(1), antipode(a_(2))), which is 1 at the unit."""
    host = cocycle.host
    # w[i] = sum comul[i, j, k] sigma[j, p] antipode[p, k]
    w = host.comul.reshape(host.dim, -1) @ (cocycle.sigma @ host.antipode).reshape(-1)
    value_at_unit = complex(np.dot(w, host.unit))
    if abs(value_at_unit - 1.0) > ctx.loose_tolerance:
        raise TheoremViolation(f"w takes value {value_at_unit:.6g} at the unit")
    return DualFunctional(host, w)


def w_functional(
    cocycle: DualCocycle, ctx: ScalarContext = DEFAULT_CONTEXT
) -> tuple[DualFunctional, DualFunctional]:
    """The functional a -> sigma(a_(1), antipode(a_(2))) and its inverse w*."""
    w_fn = _w_checked(cocycle, ctx)
    return w_fn, convolution_inverse(w_fn, ctx)


def v_functional(
    cocycle: DualCocycle, ctx: ScalarContext = DEFAULT_CONTEXT
) -> tuple[DualFunctional, DualFunctional]:
    """v = (w^-1 (x) w(antipode_inv .)) against the coproduct, and its inverse v*."""
    return _v_from_w(*w_functional(cocycle, ctx), ctx)


def _v_from_w(
    w_fn: DualFunctional, w_inv: DualFunctional, ctx: ScalarContext
) -> tuple[DualFunctional, DualFunctional]:
    """v_functional from a w and w^-1 already at hand."""
    hat = dual(w_fn.host)
    # v = w^-1 (w o antipode_inv), and v(1) its counit in the dual
    v = hat.product(w_inv.coeffs, hat.antipode_inv @ w_fn.coeffs)
    v_fn = DualFunctional(w_fn.host, v)
    value_at_unit = complex(np.dot(v, hat.counit))
    if abs(value_at_unit - 1.0) > ctx.loose_tolerance:
        raise TheoremViolation(f"v takes value {value_at_unit:.6g} at the unit")
    return v_fn, convolution_inverse(v_fn, ctx)
