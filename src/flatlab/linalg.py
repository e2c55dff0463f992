"""Dense symmetric linear algebra shared by the rest of the package.

Matrices are plain float64 numpy arrays. ``require_symmetric`` pins down
what this package accepts as "symmetric": the elementwise defect must stay
below ``SYMMETRY_RTOL`` relative to the largest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import SeededRng

SYMMETRY_RTOL = 1e-10


def require_finite(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, by the dot product ``np.linalg.norm`` uses."""
    return np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def symmetry_defect(a: np.ndarray) -> float:
    """Largest elementwise deviation of ``a`` from its transpose."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.T)))


def require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = require_finite(a, name)
    defect = symmetry_defect(a)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if defect > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} is not symmetric: defect {defect:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} x {scale:.3e}"
        )
    return a


@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of a power iteration run.

    ``eigenvalue`` is the final Rayleigh-quotient estimate of the
    largest-magnitude eigenvalue. When ``converged`` is False the estimate
    did not stabilize within the iteration budget and must not be trusted
    silently; callers decide whether to retry or fail.
    """

    eigenvalue: float
    iterations: int
    converged: bool


def power_iteration(matvec: Callable[[np.ndarray], np.ndarray], dim: int,
                    tol: float = 1e-10, max_iter: int = 1000,
                    rng: SeededRng | None = None) -> PowerIterationResult:
    """Largest-magnitude eigenvalue of a symmetric operator given as matvec.

    Starts from a random unit vector drawn from ``rng`` and iterates until
    the Rayleigh quotient changes by less than ``tol`` (relative). Only the
    top eigenvalue is produced; no deflation.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    gen = (rng or SeededRng(0)).generator()
    v = gen.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # astronomically unlikely, but keep the contract total
        v = np.zeros(dim)
        v[0] = 1.0
        norm = 1.0
    v /= norm
    estimate = 0.0
    for it in range(1, max_iter + 1):
        w = np.asarray(matvec(v), dtype=float)
        if w.shape != (dim,):
            raise ValueError(f"matvec returned shape {w.shape}, expected ({dim},)")
        new_estimate = float(v @ w)
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            # v is in the kernel; the dominant eigenvalue along this start is 0.
            return PowerIterationResult(0.0, it, True)
        v = w / wnorm
        if it > 1 and abs(new_estimate - estimate) <= tol * max(1.0, abs(new_estimate)):
            return PowerIterationResult(new_estimate, it, True)
        estimate = new_estimate
    return PowerIterationResult(estimate, max_iter, False)


def symmetric_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, with multiplicity) and matching eigenvectors.

    The input must satisfy the symmetry tolerance; it is symmetrized before
    factorization so the decomposition reconstructs the symmetric part
    exactly. Column ``i`` of the returned matrix pairs with eigenvalue ``i``.
    """
    a = require_symmetric(a)
    sym = (a + a.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def symmetric_eigenspectrum(a: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a symmetric matrix, largest first; no eigenvectors."""
    a = require_symmetric(a)
    return np.linalg.eigvalsh((a + a.T) / 2.0)[::-1]
