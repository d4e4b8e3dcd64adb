"""Twisting a Hopf *-algebra by a dual unitary 2-cocycle.

The coalgebra (coproduct, unit, counit) is untouched; product, star, and
antipode are recomputed by contracting the two-step coproduct against the
cocycle, its inverse, and the auxiliary functionals w and v.  The twisted
algebra is a first-class object, so everything downstream (Haar state,
block decomposition, corepresentations) just works on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._linalg import max_abs, max_gap
from .cocycle import (
    DualCocycle,
    _v_from_w,
    twisted_product,
    verify_cocycle,
    w_functional,
)
from .core import (
    DEFAULT_CONTEXT,
    AxiomReport,
    DualFunctional,
    FiniteHopfStarAlgebra,
    ScalarContext,
    freeze,
    verify_hopf_axioms,
)
from .corep import UnitaryCorep, verify_corep
from .errors import BlockMismatch, DecompositionError, HostMismatch, TheoremViolation
from .peterweyl import PeterWeylData, _f_matrices

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class TwistResult:
    original: FiniteHopfStarAlgebra
    cocycle: DualCocycle
    twisted: FiniteHopfStarAlgebra
    transcript: AxiomReport
    w: DualFunctional
    w_inv: DualFunctional
    v: DualFunctional
    v_inv: DualFunctional


def twist_algebra(
    algebra: FiniteHopfStarAlgebra,
    cocycle: DualCocycle,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> TwistResult:
    """Build the twisted Hopf *-algebra and verify every axiom on it.

    The twisted algebra and the residuals of every Hopf axiom on it are
    made once and held by the cocycle; the report is judged at the caller's
    tolerance on every call.  So they are dropped with the cocycle, not
    with the TwistResult: a cocycle that is kept keeps its twist, whose
    product has n^3 entries.  The twisted algebra, which keeps the
    coalgebra, is handed the host's coalgebra record and reads its residuals.
    """
    if cocycle.host is not algebra:
        raise HostMismatch("cocycle lives on a different host algebra")
    a = algebra
    # checked at the caller's tolerance on every call
    w, w_inv = w_functional(cocycle, ctx)
    v, v_inv = _v_from_w(w, w_inv, ctx)

    if cocycle._twist is None:
        mul = twisted_product(a, cocycle._sigma_terms, cocycle._sigma_inv_terms)
        # no one else holds this array: frozen in place, it is taken by the
        # twisted algebra without a copy when it owns its memory
        mul.flags.writeable = False
        # a -> w(a_(1)) a_(2) w^-1(a_(3)).  The antipode is sandwiched by w and
        # w^-1, the star by the dual stars of w^-1 and w; since w^-1 = w*, those
        # are w and w^-1 again, and one matrix serves both
        wrap = _sandwich(a, w.coeffs, w_inv.coeffs)
        star = a.star @ np.conj(wrap)
        # frozen once, so that antipode_inv shares it
        antipode = freeze(a.antipode @ wrap)
        twisted = FiniteHopfStarAlgebra(
            dim=a.dim,
            basis_labels=a.basis_labels,
            mul=mul,
            unit=a.unit,
            comul=a.comul,
            counit=a.counit,
            antipode=antipode,
            # a finite compact quantum group is of Kac type, so S^-1 = S; the
            # axiom report's antipode-inverse check then checks S^2 = id
            antipode_inv=antipode,
            star=star,
        )
        twisted._share_coalgebra(a)
        # the residuals alone, judged below at the caller's tolerance
        object.__setattr__(cocycle, "_twist", (twisted, verify_hopf_axioms(twisted, ctx).checks))
    twisted, checks = cocycle._twist
    transcript = AxiomReport(
        subject="twisted-algebra", checks=checks, tolerance=ctx.tolerance
    ).require(TheoremViolation, "twisted algebra fails")
    return TwistResult(
        original=a,
        cocycle=cocycle,
        twisted=twisted,
        transcript=transcript,
        w=w,
        w_inv=w_inv,
        v=v,
        v_inv=v_inv,
    )


def _sandwich(a: FiniteHopfStarAlgebra, left: Array, right: Array) -> Array:
    """Matrix of x -> left(x_(1)) x_(2) right(x_(3)).

    Entry [q, i] is sum_pr d3[i, p, q, r] left[p] right[r]; d3[i, p, q, r]
    is sum_s comul[i, p, s] comul[s, q, r], so d3 itself is never formed.
    """
    return ((left @ a.comul) @ (a.comul @ right)).T


def _twist_back(
    tw: TwistResult, ctx: ScalarContext = DEFAULT_CONTEXT
) -> tuple[TwistResult, AxiomReport]:
    """Twist the twisted algebra by sigma^{-1}, once that passes as a cocycle there."""
    inverse_cocycle = tw.cocycle._inverse_on(tw.twisted, ctx)
    inverse_report = verify_cocycle(inverse_cocycle, ctx, subject="inverse-cocycle").require(
        TheoremViolation, "inverse fails cocycle checks on the twisted algebra"
    )
    return twist_algebra(tw.twisted, inverse_cocycle, ctx), inverse_report


def roundtrip(
    algebra: FiniteHopfStarAlgebra,
    cocycle: DualCocycle,
    ctx: ScalarContext = DEFAULT_CONTEXT,
    tw: TwistResult | None = None,
) -> dict:
    """Twist by sigma, re-validate sigma^{-1} on the result, twist back.

    The result holds the residuals, the verdict and, under "back", the back
    twist itself.  A cocycle holds its twist (twist_algebra), so a forward
    twist made before is not made again; ``tw``, when given,
    is the forward twist of algebra by cocycle, and the back twist is then
    made on its twisted algebra, so that back.cocycle.host is tw.twisted.
    """
    if tw is None:
        tw = twist_algebra(algebra, cocycle, ctx)
    elif tw.original is not algebra or tw.cocycle is not cocycle:
        raise HostMismatch("tw is not the twist of this algebra by this cocycle")
    back, inverse_report = _twist_back(tw, ctx)
    b = back.twisted
    residual = max(
        # over the nonzero entries, so that no n^3-entry difference is formed
        max_gap(b._terms["mul"], algebra._terms["mul"]),
        max_abs(b.star - algebra.star),
        max_abs(b.antipode - algebra.antipode),
        max_abs(b.antipode_inv - algebra.antipode_inv),
    )
    coalgebra_identical = (
        np.array_equal(b.comul, algebra.comul)
        and np.array_equal(b.unit, algebra.unit)
        and np.array_equal(b.counit, algebra.counit)
    )
    return {
        "residual": residual,
        "coalgebra_identical": coalgebra_identical,
        "inverse_cocycle_residual": inverse_report.max_residual,
        "passed": bool(residual <= ctx.tolerance and coalgebra_identical),
        "back": back,
    }


def _corep_sigma(corep: UnitaryCorep, tw: TwistResult) -> UnitaryCorep:
    """The same matrix of elements read over the twisted algebra."""
    if tw.original is not corep.host:
        raise HostMismatch("twist transcript belongs to a different host")
    return corep._over(tw.twisted)


def twist_corep(
    corep: UnitaryCorep, tw: TwistResult, ctx: ScalarContext = DEFAULT_CONTEXT
) -> tuple[UnitaryCorep, AxiomReport]:
    """Reinterpret the same matrix of elements over the twisted algebra."""
    twisted_corep = _corep_sigma(corep, tw)
    base = verify_corep(twisted_corep, ctx, subject="twisted-corep")
    # twisted antipode of u[i, j] must be the twisted star of u[j, i]
    lhs = np.einsum("li,xyi->xyl", tw.twisted.antipode, corep.u)
    rhs = np.einsum(
        "li,yxi->xyl", tw.twisted.star, np.conj(corep.u)
    )
    checks = base.checks + (("antipode-flip-star", max_abs(lhs - rhs)),)
    report = AxiomReport(subject=base.subject, checks=checks, tolerance=ctx.tolerance)
    return twisted_corep, report


def f_matrix_relation(
    tw: TwistResult,
    pw: PeterWeylData,
    pw_sigma: PeterWeylData,
    ctx: ScalarContext = DEFAULT_CONTEXT,
) -> list[dict]:
    """Per-block comparison of the twisted F-matrix against a*Fa scaling.

    The twisted F-matrix is computed on the SAME matrix coefficients (they
    remain a corep of the twisted algebra), so no basis relabeling enters;
    the twisted Peter-Weyl data is used to confirm the coefficient subspaces
    match block for block.  Each run of blocks of one dimension is taken at
    once, as stacks.
    """
    if pw.host is not tw.original or pw_sigma.host is not tw.twisted:
        raise BlockMismatch("Peter-Weyl data does not match the twist endpoints")
    tol = ctx.loose_tolerance
    rows, rank = _coefficient_rows(pw.blocks, tol)
    rows_sigma, rank_sigma = _coefficient_rows(pw_sigma.blocks, tol)
    # every pair of rows at once, then the squared overlaps summed per pair
    # of blocks; the partner of a block is the twisted block of its
    # dimension whose subspace overlaps most
    overlap = rows.conj() @ rows_sigma.T
    dims, dims_sigma = np.array(pw.dimensions), np.array(pw_sigma.dimensions)
    first, first_sigma = (np.cumsum(d**2) - d**2 for d in (dims, dims_sigma))
    per_pair = np.add.reduceat(np.abs(overlap) ** 2, first, axis=0)
    per_pair = np.add.reduceat(per_pair, first_sigma, axis=1)
    per_pair[dims[:, None] != dims_sigma[None, :]] = -1.0
    partners = np.argmax(per_pair, axis=1)

    out = []
    for d, run in itertools.groupby(range(len(pw.blocks)), key=lambda bi: dims[bi]):
        run = list(run)
        # sine of the largest principal angle between each block's span and
        # its partner's, from the overlap of their rows
        pairs = np.stack([
            overlap[first[bi] : first[bi] + d * d, first_sigma[p] : first_sigma[p] + d * d]
            for bi, p in zip(run, partners[run])
        ])
        cosines = np.linalg.svd(pairs, compute_uv=False)
        gaps = np.sqrt(np.maximum(0.0, 1.0 - cosines.min(axis=1) ** 2))
        q = np.stack([pw.blocks[bi].q for bi in run])
        f_twisted, m_twisted, errors = _f_matrices(tw.twisted, pw_sigma.haar, q, ctx)
        for k, bi in enumerate(run):
            b, partner = pw.blocks[bi], int(partners[bi])
            if per_pair[bi, partner] < 0 or rank[bi] != rank_sigma[partner] or gaps[k] >= 1e-6:
                raise BlockMismatch(
                    f"no twisted block matches the coefficient subspace of block {bi}"
                )
            if errors[k] is not None:
                raise DecompositionError(errors[k])
            a_mat = np.einsum("ijc,c->ij", b.q, tw.v.coeffs)
            target = a_mat.conj().T @ b.f_matrix @ a_mat
            num = complex(np.vdot(target, f_twisted[k]))
            den = complex(np.vdot(target, target))
            c_pi = (num / den).real
            residual = max_abs(f_twisted[k] - c_pi * target)
            out.append(
                {
                    "block": bi,
                    "twisted_block": partner,
                    "dimension": int(d),
                    "a_matrix": a_mat,
                    "c": c_pi,
                    "f_twisted": f_twisted[k],
                    "m_twisted": float(m_twisted[k]),
                    "residual": residual,
                    "passed": bool(c_pi > 0 and residual <= 1e-8),
                }
            )
    return out


def _coefficient_rows(blocks, tol: float) -> tuple[Array, Array]:
    """Orthonormal rows spanning the coefficients of each block, in the
    blocks' order, d^2 rows per block of dimension d, a direction of
    singular value at most tol a row of zeros; and the number of rows
    that are not, per block."""
    rows, rank = [], []
    for _, run in itertools.groupby(blocks, key=lambda c: c.dimension):
        flat = np.stack([c.q.reshape(c.dimension**2, -1) for c in run])
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        keep = s > tol
        rows.append((vh * keep[..., None]).reshape(-1, flat.shape[-1]))
        rank += keep.sum(axis=1).tolist()
    return np.concatenate(rows), np.array(rank)
