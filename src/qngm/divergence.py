"""Quantum divergences, fidelity-based distances, and the Hessian oracle.

All matrix powers and logs go through the Hermitian eigendecomposition; both
arguments of a divergence must be full rank (regularize first).  The first
argument of a divergence, fidelity or Bures distance is one (d, d) state or
a (..., d, d) stack; the second is one state, checked and diagonalised once
per call.  A state gives a float, a stack an array of the stack's shape
whose members have the bits of single calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import petz, states
from .errors import (
    DomainError,
    NumericalError,
    RankDeficientError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import _dagger, _float_or_stack, _log_sum_exp

RANK_EPS = 1e-12
IMAG_TOL = 1e-10


def _real(value, what: str):
    residue = np.abs(np.imag(value)).max(initial=0.0)
    if residue > IMAG_TOL:
        raise NumericalError(f"{what} has imaginary residue {residue:.3e}")
    return np.real(value)


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^dagger for eigenvectors v (..., d, d) and values (..., d)."""
    return (v * values[..., None, :]) @ _dagger(v)


def _full_rank_eig(rho: np.ndarray):
    w, v = states.check_density(rho)
    smallest = w[..., 0].min(initial=np.inf)
    if smallest < RANK_EPS:
        raise RankDeficientError(f"smallest eigenvalue {smallest:.3e} below {RANK_EPS:.1e}")
    return w, v


def _check_pair(rho_bar: np.ndarray, rho: np.ndarray):
    """Raise unless rho is one (d, d) state and rho_bar one or a (..., d, d) stack of them."""
    if np.ndim(rho) != 2 or np.shape(rho_bar)[-2:] != np.shape(rho):
        raise ShapeMismatchError(f"state shapes differ: {np.shape(rho_bar)} vs {np.shape(rho)}")


def _full_rank_pair(rho_bar: np.ndarray, rho: np.ndarray):
    _check_pair(rho_bar, rho)
    return _full_rank_eig(rho_bar), _full_rank_eig(rho)


def quantum_kl(rho_bar: np.ndarray, rho: np.ndarray):
    """Umegaki relative entropy Tr[rho_bar (ln rho_bar - ln rho)]."""
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    log_diff = _spectral(vb, np.log(wb)) - _spectral(v, np.log(w))
    tr = np.trace(rho_bar @ log_diff, axis1=-2, axis2=-1)
    return _float_or_stack(_real(tr, "quantum KL"))


def standard_renyi(rho_bar: np.ndarray, rho: np.ndarray, alpha: float):
    """Rescaled standard Renyi: ln Tr[rho_bar^a rho^(1-a)] / (a (a - 1)).

    Where a power passes the float range, so that the trace is not positive
    and finite, the trace is taken in logs as the sum of its positive terms
    wb_i^a w_j^(1-a) |<psibar_i|psi_j>|^2.
    """
    if abs(alpha - 1.0) < petz.ALPHA_EPS:
        return quantum_kl(rho_bar, rho)
    if abs(alpha) < petz.ALPHA_EPS:
        raise NumericalError("standard Renyi index alpha = 0 is not supported")
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by `far` below
        product = _spectral(vb, wb**alpha) @ _spectral(v, w ** (1.0 - alpha))
    tr = np.trace(product, axis1=-2, axis2=-1)
    far = ~((0.0 < tr.real) & (tr.real < np.inf) & np.isfinite(tr.imag))
    tr = _real(np.where(far, 1.0, tr), "standard Renyi trace")
    value = np.log(tr) / (alpha * (alpha - 1.0))
    if far.any():
        with np.errstate(divide="ignore"):  # a zero overlap is a -inf log, which adds nothing
            overlap = np.log(np.abs(_dagger(vb) @ v) ** 2)  # [..., i, j]
        log_w = np.log(w)
        logs = log_w + alpha * (np.log(wb)[..., :, None] - log_w) + overlap
        terms = logs.reshape(*logs.shape[:-2], -1)
        value = np.where(far, _log_sum_exp(terms) / alpha / (alpha - 1.0), value)
    return _float_or_stack(value)


def sandwiched_renyi(rho_bar: np.ndarray, rho: np.ndarray, alpha: float):
    """Rescaled sandwiched Renyi:

        ln Tr[(rho^((1-a)/2a) rho_bar rho^((1-a)/2a))^a] / (a (a - 1))

    A trace that is not positive and finite, as when the power passes the
    float range at large |a|, raises NumericalError.
    """
    if abs(alpha - 1.0) < petz.ALPHA_EPS:
        return quantum_kl(rho_bar, rho)
    if abs(alpha) < petz.ALPHA_EPS:
        raise NumericalError("sandwiched Renyi index alpha = 0 is not supported")
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    bread = _spectral(v, w ** ((1.0 - alpha) / (2.0 * alpha)))
    # spectrum of rho^c rho_bar rho^c as squared singular values: the tiny
    # eigenvalues keep full relative accuracy, which the Hessian oracle needs
    sigma = np.linalg.svd(bread @ _spectral(vb, np.sqrt(wb)), compute_uv=False)
    if (sigma[..., -1] <= 0.0).any():
        raise RankDeficientError("sandwiched core is not positive definite")
    with np.errstate(over="ignore"):  # refused below
        tr = np.sum(sigma ** (2.0 * alpha), axis=-1)
    if not ((0.0 < tr) & (tr < np.inf)).all():
        raise NumericalError(f"sandwiched Renyi trace at alpha = {alpha} is not in (0, inf)")
    return _float_or_stack(np.log(tr) / (alpha * (alpha - 1.0)))


def f_divergence(rho_bar: np.ndarray, rho: np.ndarray, F: Callable):
    """Quantum F-divergence sum_ij p_i F(pbar_j / p_i) |<psibar_j|psi_i>|^2."""
    (wb, vb), (w, v) = _full_rank_pair(rho_bar, rho)
    overlap2 = np.abs(_dagger(vb) @ v) ** 2  # [..., j, i] = |<psibar_j|psi_i>|^2
    ratio = wb[..., :, None] / w
    return _float_or_stack(np.sum(w * F(ratio) * overlap2, axis=(-2, -1)))


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
    Raises DomainError unless a^2 is finite: a nan, an inf, or |a| past
    about 1.3e154.
    """
    alpha = float(alpha)
    if not np.isfinite(alpha * alpha):  # a float product overflows to inf, unlike alpha**2
        raise DomainError(f"alpha-divergence index alpha = {alpha} must have a finite square")
    if alpha == 1.0:
        return lambda t: t * np.log(t)
    if alpha == -1.0:
        return lambda t: -np.log(t)
    return lambda t: 4.0 / (1.0 - alpha**2) * (1.0 - t ** ((1.0 + alpha) / 2.0))


def f_divergence_consistency(alpha: float) -> float:
    """Max violation of F(t) + t F(1/t) = (1 - t)^2 / f(t) over ``petz.default_grid()``.

    F is the alpha-divergence kernel; f is the standard-family Petz function
    at the reparameterized index (1 + alpha) / 2.  The violation is
    absolute, so it grows with the size of the sides at large |alpha|.
    Raises DomainError if either side is not finite on the grid.
    """
    grid = petz.default_grid()
    F = alpha_divergence_F(alpha)
    f = petz.standard((1.0 + alpha) / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        lhs = F(grid) + grid * F(1.0 / grid)
        rhs = (1.0 - grid) ** 2 / petz.evaluate(f, grid)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise DomainError(f"alpha = {alpha}: a side of the F-divergence identity is not finite")
    return float(np.abs(lhs - rhs).max())


def fidelity(rho: np.ndarray, sigma: np.ndarray):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clipped into [0, 1].

    rho may be a (..., d, d) stack; sigma is one state, checked once.
    """
    _check_pair(rho, sigma)
    w, v = states.check_density(rho)
    states.check_density(sigma)
    root = _spectral(v, np.sqrt(np.clip(w, 0.0, None)))
    lam = np.linalg.eigvalsh(root @ sigma @ root)
    root_sum = np.sum(np.sqrt(np.clip(lam, 0.0, None)), axis=-1)
    value = root_sum * root_sum  # a float64 scalar's ** 2 can differ from an array's by an ulp
    return _float_or_stack(np.clip(value, 0.0, 1.0))


def bures_angle(rho: np.ndarray, sigma: np.ndarray):
    """arccos sqrt(F); rho may be a stack, as in ``fidelity``."""
    return _float_or_stack(np.arccos(np.clip(np.sqrt(fidelity(rho, sigma)), 0.0, 1.0)))


def bures_distance(rho: np.ndarray, sigma: np.ndarray):
    """sqrt(2 (1 - sqrt(F))); rho may be a stack, as in ``fidelity``."""
    return _float_or_stack(np.sqrt(np.maximum(2.0 * (1.0 - np.sqrt(fidelity(rho, sigma))), 0.0)))


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


def fd_hessian(div: Callable[[np.ndarray], np.ndarray], theta: np.ndarray, h: float = 1e-3):
    """Finite-difference Hessian of a divergence anchored at theta.

    div maps an (S, n) stack of parameter vectors theta_bar to the (S,)
    values D(theta_bar || theta), with D(theta) = 0 and vanishing first
    derivatives at coincidence.  It is called once, on the whole centered
    stencil of S = 2n + n(n + 1) points, and a result of another shape
    raises ValidationError.  The Hessian is

        [D(+h e_i + h e_j) + D(-h e_i - h e_j)
         - D(+h e_i) - D(-h e_i) - D(+h e_j) - D(-h e_j)] / (2 h^2)

    whose odd-order error terms cancel; the result is symmetrized.
    """
    theta = np.asarray(theta, dtype=float)
    if not 1e-4 <= h <= 1e-2:
        raise ValidationError(f"step h = {h} outside [1e-4, 1e-2]")
    n = theta.size
    steps = h * np.eye(n)
    i, j = np.triu_indices(n)
    offsets = np.concatenate([steps, steps[i] + steps[j]])  # h e_i, then h e_i + h e_j for i <= j
    stencil = theta + np.stack([offsets, -offsets], axis=1).reshape(-1, n)
    values = np.asarray(div(stencil), dtype=float)
    if values.shape != (len(stencil),):
        raise ValidationError(
            f"div returned shape {values.shape} for {len(stencil)} stencil points, "
            f"expected ({len(stencil)},)"
        )
    plus, minus = values.reshape(-1, 2).T  # D at theta + offset and at theta - offset
    pair = plus[n:] + minus[n:]
    hess = np.empty((n, n))
    hess[i, j] = hess[j, i] = (pair - plus[i] - minus[i] - plus[j] - minus[j]) / (2.0 * h * h)
    return 0.5 * (hess + hess.T)
