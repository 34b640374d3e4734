"""Natural-gradient iteration over a parameterized circuit state.

Two update rules share the preconditioned direction G^{-1} grad L:

    trust(eps):  dtheta = -sqrt(2 eps / (grad^T G^{-1} grad)) G^{-1} grad
    lr(eta):     dtheta = -eta G^{-1} grad

Per step the state is delta-regularized before the metric is assembled
(derivatives scale by 1 - delta, exactly) and the metric is xi-regularized
after assembly.  Cost and gradient are those of the bare circuit state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import petz, qfim, states
from .errors import NumericalError, QngmError, ShapeMismatchError
from .linalg import condition_number, solve_sym

GRAD_ZERO = 1e-10
RULES = ("trust", "lr")


@dataclass(frozen=True)
class StateDistance:
    """L(theta) = ||rho_theta - rho_target||_F^2 with rho_target = rho(theta_star)."""

    target_theta: np.ndarray


@dataclass(frozen=True)
class Observable:
    """L(theta) = Tr[rho_theta H] for a Hermitian H."""

    matrix: np.ndarray


CostFunction = Union[StateDistance, Observable]


def cost_and_gradient(
    cost: CostFunction, state: states.CircuitState, theta: np.ndarray
) -> Tuple[float, np.ndarray]:
    rho = states.evaluate(state, theta)
    derivs = states.derivatives(state, theta)
    if isinstance(cost, StateDistance):
        target = states.evaluate(state, np.asarray(cost.target_theta, dtype=float))
        diff = rho - target
        value = float(np.vdot(diff, diff).real)
        grad = np.array([2.0 * np.vdot(diff, d).real for d in derivs])
    elif isinstance(cost, Observable):
        h = np.asarray(cost.matrix, dtype=complex)
        if h.shape != rho.shape:
            raise ShapeMismatchError(f"observable shape {h.shape} vs state {rho.shape}")
        if np.abs(h - h.conj().T).max() > 1e-10:
            raise ShapeMismatchError("observable must be Hermitian for a real-valued cost")
        value = float(np.trace(rho @ h).real)
        grad = np.array([np.trace(d @ h).real for d in derivs])
    else:
        raise TypeError(f"unknown cost function {cost!r}")
    return value, grad


def step_trust(
    G: np.ndarray, grad: np.ndarray, epsilon: float
) -> Tuple[np.ndarray, bool]:
    """Trust-region step; returns (dtheta, converged)."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if np.linalg.norm(grad) < GRAD_ZERO:
        return np.zeros_like(grad), True
    direction = solve_sym(G, grad)
    scale = np.sqrt(2.0 * epsilon / float(grad @ direction))
    return -scale * direction, False


def step_lr(G: np.ndarray, grad: np.ndarray, eta: float) -> Tuple[np.ndarray, bool]:
    """Fixed learning-rate step; returns (dtheta, converged)."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if np.linalg.norm(grad) < GRAD_ZERO:
        return np.zeros_like(grad), True
    return -eta * solve_sym(G, grad), False


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    theta: np.ndarray
    cost: float
    grad_norm: float
    metric_cond: float


@dataclass
class Trajectory:
    records: List[TrajectoryRecord] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def final_cost(self) -> float:
        if not self.records:
            raise NumericalError(f"trajectory has no records (error: {self.error})")
        return self.records[-1].cost

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])


def run(
    state: states.CircuitState,
    cost: CostFunction,
    f: petz.PetzFunction,
    theta0: Sequence[float],
    rule: str = "lr",
    eta: float = 1e-3,
    epsilon: float = 1e-6,
    delta: float = 1e-3,
    xi: float = 1e-3,
    rank_tol: float = qfim.RANK_TOL,
    max_steps: int = 2000,
    grad_tol: float = 1e-10,
    use_diagonal: bool = False,
) -> Trajectory:
    """Iterate the chosen update rule, recording one row per visited theta.

    Any package error aborts the run and is reported on the trajectory's
    ``error`` tag together with the records accumulated so far.
    """
    if rule not in RULES:
        raise ValueError(f"unknown update rule {rule!r}")
    theta = np.asarray(theta0, dtype=float).copy()
    traj = Trajectory()
    try:
        for step in range(max_steps + 1):
            rho = states.evaluate(state, theta)
            rho_reg = states.regularize_state(rho, delta)
            derivs = [(1.0 - delta) * d for d in states.derivatives(state, theta)]
            G = qfim.metric(rho_reg, derivs, f, rank_tol)
            if use_diagonal:
                G = qfim.diagonal(G)
            G = qfim.regularize_metric(G, xi)
            value, grad = cost_and_gradient(cost, state, theta)
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                raise NumericalError(f"non-finite cost or gradient at step {step}")
            grad_norm = float(np.linalg.norm(grad))
            traj.records.append(
                TrajectoryRecord(step, theta.copy(), value, grad_norm, condition_number(G))
            )
            if step == max_steps or grad_norm < grad_tol:
                break
            if rule == "trust":
                dtheta, converged = step_trust(G, grad, epsilon)
            else:
                dtheta, converged = step_lr(G, grad, eta)
            if converged:
                break
            theta = theta + dtheta
    except QngmError as exc:
        traj.error = f"{type(exc).__name__}: {exc}"
    return traj
