"""Dense complex linear algebra for small Hermitian problems (dim <= 16)."""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, ShapeMismatchError, SingularError

HERMITIAN_TOL = 1e-10


class HermitianEig(NamedTuple):
    """Eigendecomposition M = V diag(values) V^dagger, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


@functools.lru_cache(maxsize=None)
def _identity(dim: int, dtype=float) -> np.ndarray:
    """np.eye(dim, dtype=dtype), cached, so returned read-only."""
    eye = np.eye(dim, dtype=dtype)
    eye.setflags(write=False)
    return eye


def _float_or_stack(x):
    """A float for a 0-d result, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


@np.errstate(invalid="ignore")  # an inf entry leaves inf - inf = nan, refused below
def _check_hermitian(M: np.ndarray) -> None:
    """Raise unless M is a square matrix, or stack, with max |M - M^dagger| <= HERMITIAN_TOL."""
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {M.shape}")
    residue = np.abs(M - _dagger(M)).max(initial=0.0)
    if not residue <= HERMITIAN_TOL:  # a nan residue fails too
        raise NotHermitianError(f"max |M - M^dagger| = {residue:.3e} exceeds {HERMITIAN_TOL:.1e}")


def hermitian_eig(M: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    M may be a (..., d, d) stack; every member is diagonalised by one ``eigh``.
    Hermiticity is checked to ``HERMITIAN_TOL``.
    """
    M = np.asarray(M, dtype=complex)
    _check_hermitian(M)
    values, vectors = np.linalg.eigh(M)
    return HermitianEig(values, vectors)


def solve_sym(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve G x = b for symmetric positive-definite G.

    G may be a (N, K, K) stack with b (N, K); the N solutions equal N
    single calls bit for bit.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_hermitian(G)
    if b.shape != G.shape[:-1]:
        raise ShapeMismatchError(f"rhs shape {b.shape} incompatible with {G.shape}")
    w = np.linalg.eigvalsh(G)
    # w[0] <= 1e-14 max(w[-1], 0): a non-positive w[-1] makes w[0] <= w[-1] <= 1e-14 w[-1]
    singular = w[..., 0] <= 1e-14 * w[..., -1]
    if singular.any():
        lo, hi = w[singular][0, [0, -1]]
        raise SingularError(f"min/max eigenvalue ratio {lo:.3e}/{hi:.3e}")
    return np.linalg.solve(G, b[..., None])[..., 0]


def condition_number(G: np.ndarray):
    """Spectral condition number of a symmetric PSD matrix (inf if singular).

    A float for one matrix; an (N,) array for a (N, K, K) stack.
    """
    w = np.linalg.eigvalsh(np.asarray(G, dtype=float))
    lo, hi = w[..., 0], w[..., -1]
    singular = lo <= 0.0
    return _float_or_stack(np.where(singular, np.inf, hi) / np.where(singular, 1.0, lo))
