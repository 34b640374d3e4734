"""Dense complex linear algebra for small Hermitian problems (dim <= 16)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NotHermitianError, ShapeMismatchError, SingularError

HERMITIAN_TOL = 1e-10


class HermitianEig(NamedTuple):
    """Eigendecomposition M = V diag(values) V^dagger, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


def _dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def is_hermitian(M: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True if M, or every matrix of a (..., d, d) stack, is Hermitian within tol."""
    return np.abs(M - _dagger(M)).max() <= tol


def hermitian_eig(M: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    M may be a (..., d, d) stack; every member is diagonalised by one ``eigh``.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {M.shape}")
    if not is_hermitian(M, tol):
        raise NotHermitianError(
            f"max |M - M^dagger| = {np.abs(M - _dagger(M)).max():.3e} exceeds {tol:.1e}"
        )
    values, vectors = np.linalg.eigh(M)
    return HermitianEig(values, vectors)


def matrix_fn(M: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns V diag(fn(lambda)) V^dagger.  Raises DomainError if fn produces
    non-finite values on any eigenvalue (e.g. log of 0).
    """
    values, vectors = hermitian_eig(M)
    with np.errstate(all="ignore"):
        mapped = np.asarray(fn(values))
    if not np.all(np.isfinite(mapped)):
        bad = values[~np.isfinite(mapped)]
        raise DomainError(f"eigenvalue(s) {bad} outside the domain of {fn!r}")
    return (vectors * mapped) @ vectors.conj().T


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
