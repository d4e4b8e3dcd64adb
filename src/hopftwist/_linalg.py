"""Small dense linear-algebra helpers used across modules."""

from __future__ import annotations

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
