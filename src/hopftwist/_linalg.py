"""Small dense linear-algebra helpers used across modules."""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


def max_abs(x) -> float:
    a = np.asarray(x)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


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


def solve_within_condition(
    lmat: np.ndarray,
    rhs: np.ndarray,
    limit: float,
    approx_inverse: Callable[[np.ndarray], Iterable[np.ndarray]],
) -> np.ndarray | None:
    """Solve lmat @ y = rhs when cond2(lmat) <= limit; None when it is not.

    The verdict is the exact rule s[-1] > 0 and s[0] / s[-1] <= limit on the
    singular values s of lmat, but the SVD runs only when the certified bound
    of condition_bound is inconclusive.  approx_inverse(y) yields, left to
    right, the column blocks of a matrix meant to approximate lmat^-1.
    """
    try:
        y = np.linalg.solve(lmat, rhs)
    except np.linalg.LinAlgError:
        y = None
    if y is not None and condition_bound(lmat, approx_inverse(y)) <= limit:
        return y
    s = np.linalg.svd(lmat, compute_uv=False)
    if not (s[-1] > 0 and s[0] / s[-1] <= limit):
        return None
    return y if y is not None else np.linalg.solve(lmat, rhs)


def condition_bound(lmat: np.ndarray, blocks: Iterable[np.ndarray]) -> float:
    """Upper bound on cond2(lmat) from an approximate inverse M, else inf.

    M arrives as column blocks, so no second square matrix is ever alive.
    With E = lmat M - I and ||E||_F < 1, lmat is invertible,
    lmat^-1 = M (I + E)^-1 and cond2(lmat) <= ||lmat||_F ||M||_F / (1 - ||E||_F)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 6
    and 14).  ||E||_F is widened by the rounding bound of the product, and
    the bound is inf unless that widened norm is below 1/2.

    An operator that is real up to rounding, as for any real-valued cocycle,
    is multiplied by its real part only, a quarter of the complex work; the
    dropped parts add ||Li||_F ||Mr||_F + ||L||_F ||Mi||_F to ||E||_F.
    """
    m = lmat.shape[0]
    l_norm = np.sqrt(_frob_sq(lmat))
    li_norm = np.sqrt(_frob_sq(lmat.imag))
    lreal = np.ascontiguousarray(lmat.real) if li_norm <= _REAL_RTOL * l_norm else None
    e_sq = mr_sq = mi_sq = 0.0
    col = 0
    for block in blocks:
        width = block.shape[1]
        if lreal is None:
            resid = lmat @ block
        else:
            resid = lreal @ np.ascontiguousarray(block.real)
        resid[col + np.arange(width), np.arange(width)] -= 1.0
        e_sq += _frob_sq(resid)
        mr_sq += _frob_sq(block.real)
        mi_sq += _frob_sq(block.imag)
        col += width
    if col != m:
        raise ValueError(f"approximate inverse has {col} columns, expected {m}")
    m_norm = np.sqrt(mr_sq + mi_sq)
    dropped = 0.0 if lreal is None else li_norm * np.sqrt(mr_sq) + l_norm * np.sqrt(mi_sq)
    slack = 4 * (m + 2) * np.finfo(float).eps
    e_norm = np.sqrt(e_sq) + dropped + slack * l_norm * m_norm
    if not e_norm < 0.5:
        return float("inf")
    return float((1.0 + slack) * l_norm * m_norm / (1.0 - e_norm))


# relative size of an imaginary part below which an operator counts as real
_REAL_RTOL = 2.0**-26


def _frob_sq(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def cluster_values(values: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    """Group real values into clusters whose spread stays below tol.

    Returns (mean, index array) pairs sorted by mean.
    """
    vals = np.asarray(values, dtype=float)
    order = np.argsort(vals)
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and vals[idx] - vals[clusters[-1][-1]] <= tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return [(float(np.mean(vals[c])), np.asarray(c, dtype=int)) for c in clusters]


def orthonormal_columns(b: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the column span of b."""
    b = np.atleast_2d(np.asarray(b, dtype=np.complex128))
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    if s.size == 0:
        return u[:, :0]
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


def subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal-angle sine between the column spans of a and b.

    Returns 1.0 when the dimensions differ.
    """
    qa = orthonormal_columns(a)
    qb = orthonormal_columns(b)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    if qa.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - float(np.min(s)) ** 2)))


def gram_schmidt_step(v: np.ndarray, basis: list[np.ndarray], tol: float) -> np.ndarray | None:
    """Orthonormalize v against basis; None when the residual is negligible."""
    w = np.asarray(v, dtype=np.complex128).copy()
    for b in basis:
        w -= b * np.vdot(b, w)
    # second pass for numerical stability
    for b in basis:
        w -= b * np.vdot(b, w)
    norm = float(np.linalg.norm(w))
    if norm <= tol:
        return None
    return w / norm
