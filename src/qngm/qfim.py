"""Quantum Fisher metric assembly and CPTP monotonicity diagnostics.

The metric of a Petz function f at a state rho with m-representation
tangents X^1 ... X^K is

    G[m, n] = sum_ij <psi_j|X^m|psi_i> <psi_i|X^n|psi_j> / (p_j f(p_i / p_j))

over the eigenpairs {p_i, |psi_i>} of rho.  Eigenvalues below ``rank_tol``
are treated as exact zeros: mixed kernel/support pairs use the continuation
p f(0) in the denominator (requires f(0) > 0), kernel/kernel pairs must have
vanishing numerators and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import petz
from .errors import (
    MetricUndefinedError,
    NumericalError,
    ShapeMismatchError,
)
from .linalg import hermitian_eig
from .states import SIGMA_X, SIGMA_Y, SIGMA_Z, check_density

RANK_TOL = 1e-9
KERNEL_NUMERATOR_TOL = 1e-9
IMAG_TOL = 1e-10
KRAUS_TOL = 1e-10


def metric(
    rho: np.ndarray,
    tangents: Sequence[np.ndarray],
    f: petz.PetzFunction,
    rank_tol: float = RANK_TOL,
) -> np.ndarray:
    """Quantum Fisher metric matrix for the given tangents (m-representations)."""
    rho = check_density(rho)
    dim = rho.shape[0]
    tangents = [np.asarray(x, dtype=complex) for x in tangents]
    for x in tangents:
        if x.shape != rho.shape:
            raise ShapeMismatchError(f"tangent shape {x.shape} does not match state {rho.shape}")

    p, v = hermitian_eig(rho)
    small = p < rank_tol
    big = ~small

    weights = np.zeros((dim, dim))
    if np.any(big):
        pb = p[big]
        ratios = pb[:, None] / pb[None, :]
        denom = pb[None, :] * petz.evaluate(f, ratios)
        weights[np.ix_(big, big)] = 1.0 / denom
    if np.any(small):
        f0 = petz.eval_zero(f)
        if f0 <= 0.0:
            raise MetricUndefinedError(
                f"state is rank-deficient below tol {rank_tol:.1e} and f(0) = {f0}; "
                "a Petz function with f(0) > 0 is required"
            )
        # one index in the kernel: denominator continues to p_big * f(0)
        weights[np.ix_(small, big)] = 1.0 / (p[big][None, :] * f0)
        weights[np.ix_(big, small)] = 1.0 / (p[big][:, None] * f0)

    # basis change: basis[k][i, j] = <psi_i|X^k|psi_j>
    basis = [v.conj().T @ x @ v for x in tangents]
    k = len(tangents)

    if np.any(small):
        idx = np.where(small)[0]
        for m in range(k):
            blk_m = basis[m][np.ix_(idx, idx)]
            for n in range(m, k):
                blk_n = basis[n][np.ix_(idx, idx)]
                worst = np.abs(blk_m.T * blk_n).max()  # |<j|Xm|i><i|Xn|j>|, kernel pairs
                if worst > KERNEL_NUMERATOR_TOL:
                    raise NumericalError(
                        f"kernel/kernel numerator {worst:.3e} exceeds "
                        f"{KERNEL_NUMERATOR_TOL:.1e}; tangents leave the fixed-rank manifold"
                    )

    g = np.empty((k, k), dtype=complex)
    for m in range(k):
        bm = basis[m].T  # bm[i, j] = <psi_j|X^m|psi_i>
        for n in range(m, k):
            bn = basis[n].T
            g[m, n] = np.sum(weights * bm * bn.conj())
            g[n, m] = np.conj(g[m, n])
    if k and np.abs(g.imag).max() > IMAG_TOL:
        raise NumericalError(f"metric has imaginary residue {np.abs(g.imag).max():.3e}")
    g = g.real
    return 0.5 * (g + g.T)


def metric_pure(
    psi: np.ndarray, dpsi: Sequence[np.ndarray], f: petz.PetzFunction
) -> np.ndarray:
    """Pure-state metric (2 / f(0)) [Re<d_n psi|d_m psi> - Re(<psi|d_m psi><d_n psi|psi>)]."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ShapeMismatchError("ket must be normalized")
    f0 = petz.eval_zero(f)
    if f0 <= 0.0:
        raise MetricUndefinedError(f"pure-state metric needs f(0) > 0, got {f0}")
    d = np.column_stack([np.asarray(x, dtype=complex).reshape(-1) for x in dpsi])
    overlaps = d.conj().T @ d  # [m, n] = <d_m psi|d_n psi>
    a = psi.conj() @ d  # a[m] = <psi|d_m psi>
    qgt = overlaps.real - np.outer(a, a.conj()).real
    g = (2.0 / f0) * qgt
    return 0.5 * (g + g.T)


def diagonal(G: np.ndarray) -> np.ndarray:
    """Zero the off-diagonal entries."""
    return np.diag(np.diag(np.asarray(G, dtype=float)))


def regularize_metric(G: np.ndarray, xi: float) -> np.ndarray:
    """(1 - xi) G + xi I."""
    G = np.asarray(G, dtype=float)
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi = {xi} outside [0, 1]")
    return (1.0 - xi) * G + xi * np.eye(G.shape[0])


def check_kraus(kraus: Sequence[np.ndarray], tol: float = KRAUS_TOL) -> List[np.ndarray]:
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    dim = kraus[0].shape[0]
    total = sum(k.conj().T @ k for k in kraus)
    if np.abs(total - np.eye(dim)).max() > tol:
        raise ShapeMismatchError("Kraus operators do not satisfy sum K^dagger K = I")
    return kraus


def apply_channel(kraus: Sequence[np.ndarray], rho: np.ndarray, tangents: Sequence[np.ndarray]):
    """Push state and m-representation tangents through a CPTP map."""
    kraus = check_kraus(kraus)
    rho_out = sum(k @ rho @ k.conj().T for k in kraus)
    pushed = [sum(k @ x @ k.conj().T for k in kraus) for x in tangents]
    return rho_out, pushed


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Single-qubit depolarizing channel with mixing probability p."""
    return [
        np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex),
        np.sqrt(p / 4.0) * SIGMA_X,
        np.sqrt(p / 4.0) * SIGMA_Y,
        np.sqrt(p / 4.0) * SIGMA_Z,
    ]


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    return [
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ]


def haar_random_kraus(rng: np.random.Generator, dim: int, n_kraus: int = 2) -> List[np.ndarray]:
    """Random channel from a Haar-distributed isometry split into blocks."""
    a = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix the phase ambiguity of QR
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)]


def random_density(rng: np.random.Generator, dim: int, floor: float = 0.0) -> np.ndarray:
    """Full-rank random state; `floor` mixes in identity to bound eigenvalues away from 0."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    if floor > 0.0:
        rho = (1.0 - floor) * rho + floor * np.eye(dim) / dim
    return rho


def random_tangent(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian traceless direction with unit Frobenius norm."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    x = 0.5 * (a + a.conj().T)
    x = x - np.trace(x) / dim * np.eye(dim)
    return x / np.linalg.norm(x)


def _sample_channel(rng: np.random.Generator, dim: int) -> List[np.ndarray]:
    kind = rng.integers(0, 3)
    if dim == 2 and kind == 0:
        return depolarizing_kraus(float(rng.uniform(0.0, 1.0)))
    if dim == 2 and kind == 1:
        return amplitude_damping_kraus(float(rng.uniform(0.0, 1.0)))
    return haar_random_kraus(rng, dim, n_kraus=2)


@dataclass(frozen=True)
class Witness:
    """One (state, tangent, channel) triple with its metric values."""

    index: int
    rho: np.ndarray
    tangent: np.ndarray
    kraus: List[np.ndarray]
    before: float
    after: float

    @property
    def violation(self) -> float:
        return self.after - self.before


@dataclass(frozen=True)
class ProbeResult:
    max_violation: float
    witness: Optional[Witness]


def monotonicity_probe(
    f: petz.PetzFunction,
    samples: int,
    seed: int,
    dim: int = 2,
    rank_tol: float = RANK_TOL,
) -> ProbeResult:
    """Search random (state, tangent, channel) triples for metric growth.

    A monotone metric satisfies g_rho(X, X) >= g_channel(rho)(X', X'); the
    probe reports the largest observed difference (after - before) together
    with the witnessing triple when it is positive.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    max_violation = -np.inf
    witness = None
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        rho = random_density(rng, dim)
        x = random_tangent(rng, dim)
        kraus = _sample_channel(rng, dim)
        before = metric(rho, [x], f, rank_tol)[0, 0]
        rho_out, pushed = apply_channel(kraus, rho, [x])
        after = metric(rho_out, pushed, f, rank_tol)[0, 0]
        violation = after - before
        if violation > max_violation:
            max_violation = violation
            if violation > 0.0:
                witness = Witness(i, rho, x, kraus, before, after)
    return ProbeResult(float(max_violation), witness)
