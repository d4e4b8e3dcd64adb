"""Dual unitary 2-cocycles on the tensor square of the dual.

A cocycle is stored as the matrix of its values on basis pairs,
sigma[i, j] = sigma(e_i, e_j).  Convolution, inversion, and the involution
on functionals of the tensor square are implemented at matrix level; the
inverse is always recomputed from sigma, never trusted from input.

A cocycle induced from a small quotient is mostly zeros, so convolutions
sum only over the rows and columns where a factor is nonzero.  The inverse
builds the n^2 x n^2 convolution operator from its nonzero entries alone
and splits it into the connected components of their pattern: the
singular values of the blocks decide the condition check, with the same
verdict as the SVD of the whole operator, and only the blocks the identity
touches are solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import Terms, conditioning, join, max_abs, solve_by_components
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    convolution_inverse,
    convolve_coeffs,
    dual_star_matrix,
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
    """Convolution of two functionals on the tensor square.

    out[i, j] = sum comul[i, a, b] comul[j, c, d] x[a, c] y[b, d].  One factor
    may carry a trailing axis, such as ``mul`` read as a vector-valued
    functional; that axis comes last in the result.  The sums run only over
    the rows and columns where each factor is nonzero, so a cocycle induced
    from a small quotient costs a fraction of a dense one.
    """
    comul = host.comul
    if np.ndim(x) > 2:
        # swap the legs of both coproducts so the matrix factor goes first
        comul, x, y = comul.transpose(0, 2, 1), y, x
    a, c = _support(x)
    b, d = _support(y)
    t = np.tensordot(comul[:, a][:, :, b], x[a][:, c], axes=([1], [0]))  # [i, b, c]
    t = np.tensordot(t, y[b][:, d], axes=([1], [0]))  # [i, c, d, ...]
    # against comul[j, c, d] this gives [i, ..., j]
    out = np.tensordot(t, comul[:, c][:, :, d], axes=([1, 2], [1, 2]))
    return np.moveaxis(out, -1, 1)


def _support(x: Array) -> tuple[Array | slice, Array | slice]:
    """The indices of the rows and of the columns where x is nonzero (x may
    carry trailing axes); slice(None) for an axis where every index is nonzero."""
    rows = x.any(axis=tuple(range(1, x.ndim)))
    cols = x.any(axis=(0, *range(2, x.ndim)))
    return tuple(slice(None) if keep.all() else np.flatnonzero(keep) for keep in (rows, cols))


def identity2(host: FiniteHopfStarAlgebra) -> Array:
    return np.outer(host.counit, host.counit)


def convolution_matrix2(host: FiniteHopfStarAlgebra, x: Array) -> Array:
    """Matrix of y -> x * y on flattened tensor-square functionals."""
    n = host.dim
    a, c = _support(x)
    t = np.tensordot(host.comul[:, a], x[a][:, c], axes=([1], [0]))  # [i, b, c]
    t = np.tensordot(t, host.comul[:, c], axes=([2], [1]))  # [i, b, j, d]
    return t.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def convolution_entries2(host: FiniteHopfStarAlgebra, x: Array) -> tuple[Array, Array]:
    """The nonzero entries of convolution_matrix2(host, x) as (keys, values),
    each key the flat index of its entry, in increasing order.

    Entry L[(i, j), (b, d)] is sum comul[i, a, b] x[a, c] comul[j, c, d].
    The entries of x are joined with those of comul on a and the terms
    summed per (i, b, c); those sums are joined with the entries of comul
    on c and summed per entry of L.  When a join would have more terms than
    L has entries, L is built densely instead.
    """
    n = host.dim
    half = join("ac,iab->ibc", x, host.comul, n**4)
    terms = half and join("ibc,jcd->ijbd", half.summed(), host.comul, n**4)
    del half  # no terms stay alive through a dense build
    lmat = Terms.of(convolution_matrix2(host, x)) if terms is None else terms.summed()
    keep = lmat.values != 0
    return lmat.keys[keep], lmat.values[keep]


def invert2(
    host: FiniteHopfStarAlgebra, x: Array, ctx: ScalarContext
) -> tuple[Array, float]:
    """Convolution inverse on the tensor square by a flattened linear solve,
    and its two-sided inverse residual.

    The operator is built from its nonzero entries and split into the
    connected components of their pattern.  The condition check reads the
    singular values of the blocks, which are those of the operator, and
    only the blocks that the identity touches are solved.  The dense
    operator is built only when the pattern is one component or is not
    square.
    """
    n = host.dim
    limit = 1.0 / ctx.tolerance
    inv, cond = solve_by_components(
        convolution_entries2(host, x),
        identity2(host).reshape(n * n),
        limit,
        lambda: convolution_matrix2(host, x),
    )
    if inv is None:
        raise InvalidInverse(f"tensor-square convolution operator {conditioning(cond, limit)}")
    inv = inv.reshape(n, n)
    resid = max(
        max_abs(convolve2(host, x, inv) - identity2(host)),
        max_abs(convolve2(host, inv, x) - identity2(host)),
    )
    if not ctx.close(resid):
        raise InvalidInverse(f"two-sided inverse residual {resid:.3g}")
    return inv, resid


def dual_star2(host: FiniteHopfStarAlgebra, x: Array) -> Array:
    """Involution on tensor-square functionals, leg-wise consistent with
    the involution on single-leg functionals."""
    m = dual_star_matrix(host)
    return np.conj(m.T @ x @ m)


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
    p = convolve2(host, sig, host.mul)
    lhs = np.tensordot(sig, p, axes=([1], [2]))
    rhs = p @ sig
    checks.append(("cocycle-identity", max_abs(lhs - rhs)))

    norm = max(
        max_abs(sig @ host.unit - host.counit),
        max_abs(host.unit @ sig - host.counit),
        max_abs(inv @ host.unit - host.counit),
        max_abs(host.unit @ inv - host.counit),
    )
    checks.append(("normalization", norm))

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
    """The functional a -> sigma(a_(1), antipode(a_(2))) and its inverse."""
    w_fn = _w_checked(cocycle, ctx)
    return w_fn, convolution_inverse(w_fn, ctx)


def v_functional(
    cocycle: DualCocycle, ctx: ScalarContext = DEFAULT_CONTEXT
) -> tuple[DualFunctional, DualFunctional]:
    """v = (w^-1 (x) w(antipode_inv .)) against the coproduct, and its inverse."""
    return _v_from_w(*w_functional(cocycle, ctx), ctx)


def _v_from_w(
    w_fn: DualFunctional, w_inv: DualFunctional, ctx: ScalarContext
) -> tuple[DualFunctional, DualFunctional]:
    """v_functional from a w and w^-1 already at hand."""
    host = w_fn.host
    v = convolve_coeffs(host, w_inv.coeffs, w_fn.coeffs @ host.antipode_inv)
    v_fn = DualFunctional(host, v)
    value_at_unit = complex(np.dot(v, host.unit))
    if abs(value_at_unit - 1.0) > ctx.loose_tolerance:
        raise TheoremViolation(f"v takes value {value_at_unit:.6g} at the unit")
    return v_fn, convolution_inverse(v_fn, ctx)
