"""Dense complex linear algebra for small Hermitian problems (dim <= 16)."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, ShapeMismatchError, SingularError

HERMITIAN_TOL = 1e-10


class HermitianEig(NamedTuple):
    """Eigendecomposition M = V diag(values) V^dagger, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


def _dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def hermitian_eig(M: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    M may be a (..., d, d) stack; every member is diagonalised by one ``eigh``.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {M.shape}")
    residue = np.abs(M - _dagger(M)).max()
    if not residue <= tol:  # a nan residue fails too
        raise NotHermitianError(f"max |M - M^dagger| = {residue:.3e} exceeds {tol:.1e}")
    values, vectors = np.linalg.eigh(M)
    return HermitianEig(values, vectors)


def solve_sym(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for symmetric positive-definite G."""
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {G.shape}")
    if b.shape != (G.shape[0],):
        raise ShapeMismatchError(f"rhs shape {b.shape} incompatible with {G.shape}")
    if np.abs(G - G.T).max() > HERMITIAN_TOL:
        raise NotHermitianError("matrix is not symmetric")
    w = np.linalg.eigvalsh(G)
    if w[0] <= 1e-14 * max(w[-1], 0.0):
        raise SingularError(f"min/max eigenvalue ratio {w[0]:.3e}/{w[-1]:.3e}")
    return np.linalg.solve(G, b)


def condition_number(G: np.ndarray) -> float:
    """Spectral condition number of a symmetric PSD matrix (inf if singular)."""
    w = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    if w[0] <= 0.0:
        return np.inf
    return float(w[-1] / w[0])
