"""Quantum divergences, fidelity-based distances, and the Hessian oracle.

All matrix powers and logs go through the Hermitian eigendecomposition; both
arguments of a divergence must be full rank (regularize first).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import petz, states
from .errors import NumericalError, RankDeficientError, ShapeMismatchError, ValidationError

RANK_EPS = 1e-12
IMAG_TOL = 1e-10


def _real(value: complex, what: str) -> float:
    if abs(np.imag(value)) > IMAG_TOL:
        raise NumericalError(f"{what} has imaginary residue {np.imag(value):.3e}")
    return float(np.real(value))


def _full_rank_eig(rho: np.ndarray):
    w, v = states.check_density(rho)
    if w[0] < RANK_EPS:
        raise RankDeficientError(f"smallest eigenvalue {w[0]:.3e} below {RANK_EPS:.1e}")
    return w, v


def _check_pair(rho_bar: np.ndarray, rho: np.ndarray):
    if rho_bar.shape != rho.shape:
        raise ShapeMismatchError(f"state shapes differ: {rho_bar.shape} vs {rho.shape}")


def _full_rank_pair(rho_bar: np.ndarray, rho: np.ndarray):
    _check_pair(rho_bar, rho)
    return _full_rank_eig(rho_bar), _full_rank_eig(rho)


def quantum_kl(rho_bar: np.ndarray, rho: np.ndarray) -> float:
    """Umegaki relative entropy Tr[rho_bar (ln rho_bar - ln rho)]."""
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    log_bar = (vb * np.log(wb)) @ vb.conj().T
    log_rho = (v * np.log(w)) @ v.conj().T
    return _real(np.trace(rho_bar @ (log_bar - log_rho)), "quantum KL")


def standard_renyi(rho_bar: np.ndarray, rho: np.ndarray, alpha: float) -> float:
    """Rescaled standard Renyi: ln Tr[rho_bar^a rho^(1-a)] / (a (a - 1))."""
    if abs(alpha - 1.0) < petz.ALPHA_EPS:
        return quantum_kl(rho_bar, rho)
    if abs(alpha) < petz.ALPHA_EPS:
        raise NumericalError("standard Renyi index alpha = 0 is not supported")
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    a_pow = (vb * wb**alpha) @ vb.conj().T
    b_pow = (v * w ** (1.0 - alpha)) @ v.conj().T
    tr = _real(np.trace(a_pow @ b_pow), "standard Renyi trace")
    return float(np.log(tr) / (alpha * (alpha - 1.0)))


def sandwiched_renyi(rho_bar: np.ndarray, rho: np.ndarray, alpha: float) -> float:
    """Rescaled sandwiched Renyi:

        ln Tr[(rho^((1-a)/2a) rho_bar rho^((1-a)/2a))^a] / (a (a - 1))
    """
    if abs(alpha - 1.0) < petz.ALPHA_EPS:
        return quantum_kl(rho_bar, rho)
    if abs(alpha) < petz.ALPHA_EPS:
        raise NumericalError("sandwiched Renyi index alpha = 0 is not supported")
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    bread = (v * w ** ((1.0 - alpha) / (2.0 * alpha))) @ v.conj().T
    root_bar = (vb * np.sqrt(wb)) @ vb.conj().T
    # spectrum of rho^c rho_bar rho^c as squared singular values: the tiny
    # eigenvalues keep full relative accuracy, which the Hessian oracle needs
    sigma = np.linalg.svd(bread @ root_bar, compute_uv=False)
    if sigma[-1] <= 0.0:
        raise RankDeficientError("sandwiched core is not positive definite")
    tr = float(np.sum(sigma ** (2.0 * alpha)))
    return float(np.log(tr) / (alpha * (alpha - 1.0)))


def f_divergence(rho_bar: np.ndarray, rho: np.ndarray, F: Callable) -> float:
    """Quantum F-divergence sum_ij p_i F(pbar_j / p_i) |<psibar_j|psi_i>|^2."""
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    overlap2 = np.abs(vb.conj().T @ v) ** 2  # [j, i] = |<psibar_j|psi_i>|^2
    ratio = wb[:, None] / w[None, :]
    return float(np.sum(w[None, :] * F(ratio) * overlap2))


def paired_divergence(f: petz.PetzFunction):
    """The divergence whose coincidence Hessian equals the metric of f.

    The Renyi index comes from ``petz.renyi_index``: sld / rrld / half / bkm
    pair with sandwiched Renyi at a = 1/2 / -1 / 2 / 1 (quantum KL), sw:a with
    sandwiched Renyi at a and st:a with standard Renyi at a.
    """
    index = petz.renyi_index(f)
    if index is None:
        raise ValidationError(f"no divergence pairing for Petz function {f}")
    family, alpha = index
    renyi = {"sandwiched": sandwiched_renyi, "standard": standard_renyi}[family]
    return lambda rb, r: renyi(rb, r, alpha)


def alpha_divergence_F(alpha: float) -> Callable:
    """Scalar kernel of the standard quantum alpha-divergence.

    4 / (1 - a^2) (1 - t^((1+a)/2)) for a != +-1; t ln t at a = 1; -ln t at -1.
    """
    if alpha == 1.0:
        return lambda t: t * np.log(t)
    if alpha == -1.0:
        return lambda t: -np.log(t)
    return lambda t: 4.0 / (1.0 - alpha**2) * (1.0 - t ** ((1.0 + alpha) / 2.0))


def f_divergence_consistency(alpha: float) -> float:
    """Max violation of F(t) + t F(1/t) = (1 - t)^2 / f(t) over ``petz.default_grid()``.

    F is the alpha-divergence kernel; f is the standard-family Petz function
    at the reparameterized index (1 + alpha) / 2.
    """
    grid = petz.default_grid()
    F = alpha_divergence_F(alpha)
    f = petz.standard((1.0 + alpha) / 2.0)
    lhs = F(grid) + grid * F(1.0 / grid)
    rhs = (1.0 - grid) ** 2 / petz.evaluate(f, grid)
    return float(np.abs(lhs - rhs).max())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped into [0, 1]."""
    _check_pair(rho, sigma)
    w, v = states.check_density(rho)
    states.check_density(sigma)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.eigvalsh(root @ sigma @ root)
    value = float(np.sum(np.sqrt(np.clip(lam, 0.0, None))) ** 2)
    return min(max(value, 0.0), 1.0)


def bures_angle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """arccos sqrt(F)."""
    return float(np.arccos(np.clip(np.sqrt(fidelity(rho, sigma)), 0.0, 1.0)))


def bures_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """sqrt(2 (1 - sqrt(F)))."""
    return float(np.sqrt(max(2.0 * (1.0 - np.sqrt(fidelity(rho, sigma))), 0.0)))


def fubini_study(psi: np.ndarray, phi: np.ndarray) -> float:
    """arccos of the normalized overlap magnitude between two kets."""
    psi, phi = np.asarray(psi, dtype=complex), np.asarray(phi, dtype=complex)
    if psi.shape != phi.shape:
        raise ShapeMismatchError(f"kets of different shapes: {psi.shape} vs {phi.shape}")
    np_, nphi = np.linalg.norm(psi), np.linalg.norm(phi)
    if np_ == 0.0 or nphi == 0.0:
        raise ShapeMismatchError("kets must be nonzero")
    overlap = abs(np.vdot(psi, phi)) / (np_ * nphi)
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


def fd_hessian(div: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-3):
    """Finite-difference Hessian of a divergence anchored at theta.

    div maps a parameter vector theta_bar to D(theta_bar || theta) with
    div(theta) = 0 and vanishing first derivatives at coincidence.  Uses the
    centered stencil

        [D(+h e_i + h e_j) + D(-h e_i - h e_j)
         - D(+h e_i) - D(-h e_i) - D(+h e_j) - D(-h e_j)] / (2 h^2)

    whose odd-order error terms cancel; the result is symmetrized.
    """
    theta = np.asarray(theta, dtype=float)
    if not 1e-4 <= h <= 1e-2:
        raise ValidationError(f"step h = {h} outside [1e-4, 1e-2]")
    n = theta.size
    single = np.empty((n, 2))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        single[i, 0] = div(theta + e)
        single[i, 1] = div(theta - e)
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros(n)
            e[i] += h
            e[j] += h
            pair = div(theta + e) + div(theta - e)
            hess[i, j] = hess[j, i] = (
                pair - single[i, 0] - single[i, 1] - single[j, 0] - single[j, 1]
            ) / (2.0 * h * h)
    return 0.5 * (hess + hess.T)

