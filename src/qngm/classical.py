"""Discrete distributions, the classical Fisher metric, KL and rescaled Renyi.

Distributions are probability vectors p with full support.  The free
coordinates of an N-outcome distribution are its first N - 1 probabilities;
p_N = 1 - sum of the rest.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSupportError, ShapeMismatchError
from .linalg import _float_or_stack, _log_sum_exp

ALPHA_KL_CROSSOVER = 1e-6
SUM_TOL = 1e-12


def check_distribution(p: np.ndarray) -> np.ndarray:
    """p as a float array, checked: one (n,) distribution or a (..., n) stack, n >= 2."""
    p = np.asarray(p, dtype=float)
    if p.ndim < 1 or p.shape[-1] < 2:
        raise ShapeMismatchError(f"expected a probability vector of length >= 2, got {p.shape}")
    if np.any(p <= 0.0):
        raise DegenerateSupportError(f"distribution has non-positive entries: {p}")
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0)
    if off.max(initial=0.0) > SUM_TOL:
        raise DegenerateSupportError(f"probabilities sum to {total.flat[off.argmax()]!r}, not 1")
    return p


def probs_from_free(free: np.ndarray) -> np.ndarray:
    """Extend N - 1 free coordinates, or a (..., N - 1) stack of them, to the probabilities."""
    free = np.asarray(free, dtype=float)
    p = np.concatenate([free, 1.0 - free.sum(axis=-1, keepdims=True)], axis=-1)
    if np.any(p <= 0.0):
        raise DegenerateSupportError(f"free coordinates {free} leave the simplex interior")
    return p


def free_from_probs(p: np.ndarray) -> np.ndarray:
    return check_distribution(p)[..., :-1].copy()


def fisher(p: np.ndarray) -> np.ndarray:
    """Fisher metric in the free coordinates: delta_ij / p_i + 1 / p_N; p may be a stack."""
    inv = 1.0 / check_distribution(p)
    eye = np.eye(inv.shape[-1] - 1, dtype=bool)
    return np.where(eye, inv[..., None, :-1], 0.0) + inv[..., -1, None, None]


def _check_pair(p: np.ndarray, q: np.ndarray):
    """p (one distribution or a (..., n) stack) and the anchor q (n,), both checked."""
    p, q = check_distribution(p), check_distribution(q)
    if q.ndim != 1 or p.shape[-1:] != q.shape:
        raise ShapeMismatchError(f"distributions of different sizes: {p.shape} vs {q.shape}")
    return p, q


def kl(p: np.ndarray, q: np.ndarray):
    """Kullback-Leibler divergence sum p ln(p/q); p may be a (..., n) stack, q is one."""
    p, q = _check_pair(p, q)
    return _float_or_stack(np.sum(p * np.log(p / q), axis=-1))


def renyi(p: np.ndarray, q: np.ndarray, alpha: float):
    """Rescaled Renyi divergence (1 / (alpha (alpha - 1))) ln sum p^alpha q^(1-alpha).

    p may be a (..., n) stack; q is one distribution, checked once.  Falls
    back to kl for |alpha - 1| below the crossover where the prefactor
    amplifies rounding error.  Where a term passes the float range, so that
    the sum is not positive and finite, the sum is taken in logs.
    """
    if abs(alpha - 1.0) < ALPHA_KL_CROSSOVER:
        return kl(p, q)
    if abs(alpha) < ALPHA_KL_CROSSOVER:
        raise DegenerateSupportError("renyi index alpha = 0 is not supported")
    p, q = _check_pair(p, q)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by `far` below
        total = np.sum(p**alpha * q ** (1.0 - alpha), axis=-1)
    far = ~((0.0 < total) & (total < np.inf))
    value = np.log(np.where(far, 1.0, total)) / (alpha * (alpha - 1.0))
    if far.any():
        logs = np.log(q) + alpha * (np.log(p) - np.log(q))  # ln p^a q^(1-a)
        value = np.where(far, _log_sum_exp(logs) / alpha / (alpha - 1.0), value)
    return _float_or_stack(value)
