"""Parameterized density operators from small gate circuits.

States are plain complex ndarrays.  A circuit is an immutable gate list over
n <= 4 qubits acting on a product of single-qubit Bloch states; rotations use
the half-angle convention exp(-i phi/2 sigma).  Qubit 0 is the leftmost
tensor factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import NotHermitianError, NumericalError, ShapeMismatchError, ValidationError
from .linalg import HermitianEig, _identity, hermitian_eig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

DENSITY_TOL = 1e-10


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Single-qubit state (1 + x sx + y sy + z sz) / 2; requires |r| <= 1 (nan fails)."""
    if not x * x + y * y + z * z <= 1.0 + 1e-12:
        raise ValidationError(f"Bloch vector ({x}, {y}, {z}) lies outside the ball")
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


@functools.lru_cache(maxsize=None)
def pauli_on(n_qubits: int, wire: int, which: str) -> np.ndarray:
    """Pauli operator on one wire, identity elsewhere; cached, so returned read-only."""
    op = np.array([[1.0]], dtype=complex)
    for w in range(n_qubits):
        op = np.kron(op, PAULI[which] if w == wire else np.eye(2, dtype=complex))
    op.setflags(write=False)
    return op


def check_density(rho: np.ndarray) -> HermitianEig:
    """Check that rho is a density operator; returns its eigendecomposition.

    rho may be a (..., d, d) stack: every member is checked, and the result
    holds the (..., d) values and (..., d, d) vectors of one stacked ``eigh``.
    Hermiticity is checked by ``hermitian_eig``; the trace and the smallest
    eigenvalue are checked to ``DENSITY_TOL``.
    """
    rho = np.asarray(rho, dtype=complex)
    try:
        eig = hermitian_eig(rho)
    except NotHermitianError:
        raise NumericalError("density operator is not Hermitian") from None
    trace = np.trace(rho, axis1=-2, axis2=-1)
    off = np.maximum(np.abs(trace.real - 1.0), np.abs(trace.imag))
    if off.max(initial=0.0) > DENSITY_TOL:
        raise NumericalError(f"density operator has trace {trace.flat[off.argmax()]}")
    if eig.values[..., 0].min(initial=np.inf) < -DENSITY_TOL:
        raise NumericalError("density operator has a negative eigenvalue")
    return eig


@dataclass(frozen=True)
class Gate:
    """One circuit element: 'rz'/'ry' carry a parameter index, 'cnot' does not."""

    kind: str
    wire: int
    param: Optional[int] = None
    target: Optional[int] = None


@dataclass(frozen=True)
class CircuitState:
    n_qubits: int
    initial: np.ndarray
    gates: Tuple[Gate, ...]
    n_params: int
    # (theta stack shape and bytes, rotation suffixes, rho) of the latest
    # circuit pass, read-only: a step evaluates and differentiates at one
    # theta, so one backward sweep serves both
    _latest: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = 2**self.n_qubits
        if self.initial.shape != (dim, dim):
            raise ShapeMismatchError(
                f"initial state shape {self.initial.shape} for {self.n_qubits} qubits"
            )
        check_density(self.initial)
        for g in self.gates:
            if g.kind == "cnot":
                if g.target is None or g.param is not None or g.target == g.wire:
                    raise ShapeMismatchError(
                        f"gate {g}: a cnot needs a target other than its wire and no parameter"
                    )
            elif g.kind not in _GENERATORS:
                raise ShapeMismatchError(f"gate {g} has unknown kind {g.kind!r}")
            elif g.param is None or g.target is not None:
                raise ShapeMismatchError(f"gate {g}: a rotation needs a parameter and no target")
            wires = (g.wire,) if g.target is None else (g.wire, g.target)
            if any(not 0 <= w < self.n_qubits for w in wires):
                raise ShapeMismatchError(f"gate {g} addresses a wire outside the register")
            if g.param is not None and not 0 <= g.param < self.n_params:
                raise ShapeMismatchError(f"gate {g} uses parameter index outside [0, n_params)")

    @functools.cached_property
    def _plan(self) -> "_Plan":
        """The per-circuit constants of the two circuit passes, built on first use."""
        rotations = [g for g in self.gates if g.param is not None]
        gens = [gate_generator(self, g) for g in rotations]
        params = np.array([g.param for g in rotations], dtype=int)
        # rank: rotations of the same parameter later in the circuit, met first by the sweep
        rank = np.array([list(params[j + 1 :]).count(k) for j, k in enumerate(params)], dtype=int)
        layers = [np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1)]
        return _Plan(
            params,
            np.array(gens).reshape(len(rotations), *self.initial.shape),
            tuple((rows, params[rows]) for rows in layers),
        )


class _Plan(NamedTuple):
    """What the passes need of a circuit beyond theta.

    ``params`` (R,) and ``gens`` (R, d, d) are the parameter and the
    generator of each rotation, in gate order.  ``layers`` splits the
    rotations into (rotations, their parameters) pairs: layer r holds the
    r-th rotation of each parameter in the order of the backward sweep, so
    no parameter repeats within a layer, and a circuit whose parameters are
    distinct has one layer.
    """

    params: np.ndarray
    gens: np.ndarray
    layers: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def r3_gates(wire: int, first_param: int) -> Tuple[Gate, ...]:
    """Euler rotation Rz(t3) Ry(t2) Rz(t1) as a gate triple (t1 applied first)."""
    return (
        Gate("rz", wire, param=first_param),
        Gate("ry", wire, param=first_param + 1),
        Gate("rz", wire, param=first_param + 2),
    )


@functools.lru_cache(maxsize=None)
def _cnot(n_qubits: int, control: int, target: int) -> np.ndarray:
    """(I + Z(control)) / 2 + (I - Z(control)) X(target) / 2; cached, so returned read-only."""
    eye, z = _identity(2**n_qubits, complex), pauli_on(n_qubits, control, "z")
    u = 0.5 * (eye + z) + 0.5 * (eye - z) @ pauli_on(n_qubits, target, "x")
    u.setflags(write=False)
    return u


_GENERATORS = {"rz": "z", "ry": "y"}


def gate_generator(state: CircuitState, gate: Gate) -> np.ndarray:
    """Hermitian G with U(phi) = exp(-i phi G / 2) for parameterized gates."""
    return pauli_on(state.n_qubits, gate.wire, _GENERATORS[gate.kind])


def _check_theta(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """theta as a (N, K) stack, if finite; a (K,) theta is a stack of one."""
    theta = np.asarray(theta, dtype=float)
    row = theta.shape[1:] if theta.ndim > 1 else theta.shape
    if row != (state.n_params,):
        raise ShapeMismatchError(f"theta shape {row}, expected ({state.n_params},)")
    if not np.isfinite(theta).all():
        raise NumericalError("theta is not finite")
    return theta if theta.ndim > 1 else theta[None]


def gate_unitary(state: CircuitState, theta: np.ndarray) -> list:
    """The matrix of every gate, in gate order.

    Every rotation is cos(phi/2) I - i sin(phi/2) G, built for the whole
    circuit by one broadcast over the generators; a cnot is its cached
    matrix.  For a (K,) theta a rotation is (d, d), for a (N, K) stack
    (N, d, d); a cnot is (d, d) either way.  Nothing is kept: the circuit
    pass calls this once per theta and keeps what it builds from it.
    """
    theta = np.asarray(theta, dtype=float)
    _check_theta(state, theta)
    plan = state._plan
    half = 0.5 * theta[..., plan.params, None, None]
    rotations = np.cos(half) * _identity(len(state.initial)) - 1j * np.sin(half) * plan.gens
    rotations = iter(rotations.swapaxes(0, -3))  # (R, d, d) or (R, N, d, d)
    return [
        _cnot(state.n_qubits, g.wire, g.target) if g.kind == "cnot" else next(rotations)
        for g in state.gates
    ]


def _circuit_pass(state: CircuitState, stack: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The suffix W_j of every rotation, (R, N, d, d), and rho = W rho_ini W^dagger.

    One backward sweep over the matrices of one ``gate_unitary`` call grows
    the product W of the gates after each rotation, keeps it as that
    rotation's W_j, and ends with the whole circuit W.  rho is (N, d, d), or
    (d, d) for a circuit without rotations.  Both arrays are read-only and
    kept for the latest stack, so a second pass at the same theta is free.
    """
    key = (stack.shape, stack.tobytes())
    latest = state._latest[0]
    if latest is not None and latest[0] == key:
        return latest[1:]
    dim = len(state.initial)
    suffixes = np.empty((len(state._plan.gens), len(stack), dim, dim), dtype=complex)
    slots = iter(suffixes[::-1])  # W_j of each rotation, filled in sweep order
    w = _identity(dim, complex)
    for gate, u in zip(reversed(state.gates), reversed(gate_unitary(state, stack))):
        if gate.param is not None:
            next(slots)[...] = w
        w = w @ u
    rho = w @ state.initial @ w.conj().swapaxes(-1, -2)
    suffixes.setflags(write=False)
    rho.setflags(write=False)
    state._latest[0] = (key, suffixes, rho)
    return suffixes, rho


def evaluate(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """Density operator W rho_ini W^dagger, W = U(theta) the circuit unitary.

    W comes from the backward sweep that ``derivatives`` reads at the same
    theta.  theta (K,) gives rho (d, d); a (N, K) stack gives (N, d, d),
    equal bit for bit to N single calls.  The array is a fresh, writable copy.
    """
    stack = _check_theta(state, theta)
    rho = np.empty((len(stack), *state.initial.shape), dtype=complex)
    rho[...] = _circuit_pass(state, stack)[1]
    return rho if np.ndim(theta) > 1 else rho[0]


def derivatives(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """Analytic d rho / d theta^k for every parameter, stacked with shape (K, d, d).

    Adjoint method (Jones & Gacon, arXiv:2009.02823): gate j inserts
    -(i/2)[G_j, .] after itself, and pushing that through the suffix W_j of
    later gates gives -(i/2)[W_j G_j W_j^dagger, rho].  The circuit pass
    that ``evaluate`` shares gives every W_j and rho; one batched product
    then forms every W_j G_j W_j^dagger, and A_k sums those of the gates of
    parameter k in gate-sweep order.  A (N, K) stack of theta gives
    (N, K, d, d), equal bit for bit to N single calls.
    """
    stack = _check_theta(state, theta)
    plan = state._plan
    n, dim = len(stack), len(state.initial)
    suffixes, rho = _circuit_pass(state, stack)
    terms = suffixes @ plan.gens[:, None] @ suffixes.conj().swapaxes(-1, -2)
    a = np.zeros((n, state.n_params, dim, dim), dtype=complex)
    for rows, params in plan.layers:  # a repeated parameter adds its terms in sweep order
        a[:, params] += terms[rows].swapaxes(0, 1)
    rho = rho[..., None, :, :]
    derivs = -0.5j * (a @ rho - rho @ a)
    return derivs if np.ndim(theta) > 1 else derivs[0]


def regularize_state(rho: np.ndarray, delta: float) -> np.ndarray:
    """Mix toward the maximally mixed state: (1 - delta) rho + delta I / N; rho may be a stack."""
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"delta = {delta} outside [0, 1]")
    n = rho.shape[-1]
    return (1.0 - delta) * rho + delta * _identity(n, complex) / n


def linear_family(rho: np.ndarray, tangents: Sequence[np.ndarray]):
    """theta |-> rho + sum_k theta_k X_k; the canonical family with fixed m-reps.

    theta may be a (..., K) stack.  Each member is its own (1, K) @ (K, d^2)
    product, so it has the bits of a single call; one (N, K) product would
    sum over k in another order.
    """
    flat = np.asarray(tangents, dtype=complex).reshape(len(tangents), np.size(rho))

    def family(theta):
        theta = np.asarray(theta, dtype=float)
        step = (theta[..., None, :] @ flat)[..., 0, :]
        return rho + step.reshape(*theta.shape[:-1], *np.shape(rho))

    return family
