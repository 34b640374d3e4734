"""Natural-gradient iteration over a parameterized circuit state.

Two update rules share the preconditioned direction G^{-1} grad L:

    trust(eps):  dtheta = -sqrt(2 eps / (grad^T G^{-1} grad)) G^{-1} grad
    lr(eta):     dtheta = -eta G^{-1} grad

Per step the state is delta-regularized before the metric is assembled
(derivatives scale by 1 - delta, exactly) and the metric is xi-regularized
after assembly.  Cost and gradient are those of the bare circuit state.

Every step function takes one member or a stack of N along a leading axis,
and a stack gives each member the bits of its single call; ``run`` steps N
Petz functions in lockstep as one stack.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import petz, qfim, states
from .errors import NumericalError, QngmError, ShapeMismatchError, ValidationError
from .linalg import HERMITIAN_TOL, _identity, condition_number, solve_sym

GRAD_ZERO = 1e-10
RULES = ("trust", "lr")


def _square(what: str, matrix: np.ndarray) -> np.ndarray:
    """matrix as a complex array, if it is square."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"{what} shape {m.shape} is not square")
    return m


def _matching(what: str, matrix: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """matrix as a complex array, if its shape is that of the state, or of each state in a stack."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != rho.shape[-2:]:
        raise ShapeMismatchError(f"{what} shape {m.shape} vs state {rho.shape[-2:]}")
    return m


@dataclass(frozen=True)
class StateDistance:
    """L(theta) = ||rho_theta - target||_F^2 for a fixed target density matrix."""

    target: np.ndarray

    def __post_init__(self):
        _square("target", self.target)


@dataclass(frozen=True)
class Observable:
    """L(theta) = Tr[rho_theta H] for a Hermitian H."""

    matrix: np.ndarray

    def __post_init__(self):
        h = _square("observable", self.matrix)
        with np.errstate(invalid="ignore"):  # an inf entry leaves a nan residue, which passes
            residue = np.abs(h - h.conj().T).max()
        if residue > HERMITIAN_TOL:
            raise ShapeMismatchError("observable must be Hermitian for a real-valued cost")


CostFunction = Union[StateDistance, Observable]


def cost_and_gradient(
    cost: CostFunction, rho: np.ndarray, derivs: Sequence[np.ndarray]
) -> Tuple[float, np.ndarray]:
    """L and dL/dtheta^k from the state rho and its (K, d, d) derivatives d rho / d theta^k.

    For a stack, rho is (N, d, d) and derivs (N, K, d, d); L is then (N,)
    and the gradient (N, K).  A cost checked that its matrix is square (and
    an ``Observable`` its Hermiticity) when it was made; here only the
    matrix's shape is checked against the state's.
    """
    derivs = np.asarray(derivs, dtype=complex)
    if isinstance(cost, StateDistance):
        diff = rho - _matching("target", cost.target, rho)
        flat = diff.reshape(*diff.shape[:-2], -1)
        value = np.vecdot(flat, flat).real  # per member, the BLAS dot of np.vdot
        grad = 2.0 * np.einsum("...kij,...ij->...k", derivs, diff.conj()).real
    elif isinstance(cost, Observable):
        h = _matching("observable", cost.matrix, rho)
        value = np.trace(rho @ h, axis1=-2, axis2=-1).real
        grad = np.ascontiguousarray(np.einsum("...kij,ji->...k", derivs, h).real)
    else:
        raise ValidationError(*_cost_problems(cost))
    return (float(value), grad) if value.ndim == 0 else (value, grad)


def _cost_problems(cost) -> List[str]:
    """[] for a StateDistance or an Observable, else the one problem, naming the cost's type."""
    if isinstance(cost, (StateDistance, Observable)):
        return []
    return [f"unknown cost function of type {type(cost).__name__}"]


def _norm(grad: np.ndarray) -> np.ndarray:
    """|grad| of each row, with the bits of np.linalg.norm on that row alone.

    Both are the square root of one BLAS dot of a contiguous row; an einsum,
    a norm along an axis or BLAS's dot of a strided row sums in another
    order, so the gradients here are kept contiguous.
    """
    return np.sqrt(np.vecdot(grad, grad))


def _step(G: np.ndarray, grad: np.ndarray, move):
    """(dtheta, converged) for one member or a stack.

    A member with |grad| < GRAD_ZERO has converged and gets a zero step; the
    others get move(grad, G^{-1} grad).  A converged member enters the solve
    as G = I and grad = 1, so its own metric never reaches the solve.
    """
    G, grad = np.asarray(G, dtype=float), np.ascontiguousarray(grad, dtype=float)
    converged = _norm(grad) < GRAD_ZERO
    done = converged[..., None]
    g = np.where(done, 1.0, grad)
    dtheta = move(g, solve_sym(np.where(done[..., None], _identity(G.shape[-1]), G), g))
    return np.where(done, 0.0, dtheta), converged


def _positive(name: str, value: float) -> List[str]:
    """[] if value is positive and finite, else the one problem; nan is a problem too."""
    return [] if 0.0 < value < np.inf else [f"{name} = {value} must be positive and finite"]


def option_problems(
    rule: str,
    eta: float,
    epsilon: float,
    delta: float,
    xi: float,
    rank_tol: float,
    max_steps: int,
    grad_tol: float,
) -> List[str]:
    """Every problem with ``run``'s options, one message naming each bad value; [] if none."""
    problems = [] if rule in RULES else [f"rule {rule!r} must be " + " or ".join(map(repr, RULES))]
    for name, value in (("eta", eta), ("epsilon", epsilon), ("rank_tol", rank_tol)):
        problems += _positive(name, value)
    if not 0.0 <= grad_tol < np.inf:
        problems.append(f"grad_tol = {grad_tol} must be >= 0 and finite")
    for name, value in (("delta", delta), ("xi", xi)):
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} outside [0, 1]")
    if not isinstance(max_steps, numbers.Integral) or max_steps < 0:
        problems.append(f"max_steps = {max_steps} must be an integer >= 0")
    return problems


def _require(problems: List[str]) -> None:
    if problems:
        raise ValidationError("; ".join(problems))


def step_trust(G: np.ndarray, grad: np.ndarray, epsilon: float) -> Tuple[np.ndarray, bool]:
    """Trust-region step; returns (dtheta, converged), or their (N, K) and (N,) stacks."""
    _require(_positive("epsilon", epsilon))

    def move(g, d):
        with np.errstate(over="ignore"):  # finite entries may multiply past the float range
            form = np.vecdot(g, d)
        if not np.isfinite(form).all():
            raise NumericalError("trust-region form grad^T G^-1 grad is not finite")
        return -np.sqrt(2.0 * epsilon / form)[..., None] * d

    return _step(G, grad, move)


def step_lr(G: np.ndarray, grad: np.ndarray, eta: float) -> Tuple[np.ndarray, bool]:
    """Fixed learning-rate step; returns (dtheta, converged), or their (N, K) and (N,) stacks."""
    _require(_positive("eta", eta))
    return _step(G, grad, lambda g, d: -eta * d)


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


def _lockstep(fn, live: List[int], trajectories: List[Trajectory]):
    """fn(rows) for every live member at once, rows indexing ``live``.

    If that raises a QngmError, fn runs on each member alone, as a run of
    that member alone would, and a member that fails there leaves with its
    error.  Returns the members kept and fn's outputs for them.
    """
    try:
        return live, fn(slice(None))
    except QngmError:
        pass
    kept, outputs = [], []
    for row, member in enumerate(live):
        try:
            outputs.append(fn(slice(row, row + 1)))
        except QngmError as exc:
            trajectories[member].error = f"{type(exc).__name__}: {exc}"
        else:
            kept.append(member)
    return kept, tuple(map(np.concatenate, zip(*outputs)))


def run(
    state: states.CircuitState,
    cost: CostFunction,
    f: Union[petz.PetzFunction, Sequence[petz.PetzFunction]],
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
) -> Union[Trajectory, List[Trajectory]]:
    """Iterate the chosen update rule, recording one row per visited theta.

    ``f`` is one Petz function, which gives one Trajectory, or a sequence
    of N, which gives N.  The N runs start at the same theta0 and step in
    lockstep as one stack, and a single run is a stack of one.  Each
    member's records equal those of its run alone, bit for bit.  Each step
    is one call on the stack: it moves the members from their last record
    and measures them at the new theta, and if either part fails, the call
    is replayed member by member.  A member leaves the stack after a record
    whose |grad| is below ``grad_tol`` or GRAD_ZERO (where its step would
    be zero), or when it aborts.  Any package error aborts a member's run
    and is reported on its trajectory's ``error`` tag together with the
    records accumulated so far.  Bad options, and a cost that is neither a
    StateDistance nor an Observable, raise ValidationError before any
    circuit pass, with the problems that ``option_problems`` and
    ``_cost_problems`` list (the CLI checks the same options).  ``xi`` = 1
    makes every metric the identity, so the run is plain gradient descent.
    """
    problems = option_problems(rule, eta, epsilon, delta, xi, rank_tol, max_steps, grad_tol)
    _require(problems + _cost_problems(cost))
    single = isinstance(f, petz.PetzFunction)
    fs = [f] if single else list(f)
    trajectories = [Trajectory() for _ in fs]
    # the members still stepping: member live[i] measured G[i] and grad[i] at theta[i]
    live = list(range(len(fs)))
    theta = np.repeat(np.asarray(theta0, dtype=float)[None], len(fs), axis=0)
    move, size = (step_trust, epsilon) if rule == "trust" else (step_lr, eta)

    def advance(rows):
        """Move the rows by the rule from their last G and grad, then measure them there."""
        th = theta[rows]
        if step:  # step 0 measures theta0
            th = th + move(G[rows], grad[rows], size)[0]
        if not np.isfinite(th).all():
            raise NumericalError(f"non-finite theta at step {step}")
        rho = states.evaluate(state, th)
        derivs = states.derivatives(state, th)
        rho_reg = states.regularize_state(rho, delta)
        G_th = qfim.metric(rho_reg, (1.0 - delta) * derivs, live_fs[rows], rank_tol)
        if use_diagonal:
            G_th = qfim.diagonal(G_th)
        G_th = qfim.regularize_metric(G_th, xi)
        value, grad_th = cost_and_gradient(cost, rho, derivs)
        with np.errstate(over="ignore"):  # finite entries may square past the float range
            norms = _norm(grad_th)  # not finite if an entry is not, so it checks grad too
        if not (np.isfinite(value).all() and np.isfinite(norms).all()):
            raise NumericalError(f"non-finite cost or gradient norm at step {step}")
        return th, G_th, grad_th, value, norms, condition_number(G_th)

    for step in range(max_steps + 1):
        if not live:
            break
        live_fs = [fs[m] for m in live]
        live, measured = _lockstep(advance, live, trajectories)
        if not live:
            break
        theta, G, grad, value, norms, cond = measured
        norms = norms.tolist()
        for member, th, v, n, c in zip(live, theta, value.tolist(), norms, cond.tolist()):
            trajectories[member].records.append(TrajectoryRecord(step, th.copy(), v, n, c))
        going = [not (n < grad_tol or n < GRAD_ZERO) for n in norms]
        if not all(going):
            live = [m for m, g in zip(live, going) if g]
            theta, G, grad = theta[going], G[going], grad[going]
    return trajectories[0] if single else trajectories
