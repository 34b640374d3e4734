"""Parameterized density operators from small gate circuits.

States are plain complex ndarrays.  A circuit is an immutable gate list over
n <= 4 qubits acting on a product of single-qubit Bloch states; rotations use
the half-angle convention exp(-i phi/2 sigma).  Qubit 0 is the leftmost
tensor factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import NotHermitianError, NumericalError, ShapeMismatchError
from .linalg import HermitianEig, hermitian_eig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

DENSITY_TOL = 1e-10


def bloch_state(x: float, y: float, z: float) -> np.ndarray:
    """Single-qubit state (1 + x sx + y sy + z sz) / 2; requires |r| <= 1."""
    if x * x + y * y + z * z > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector ({x}, {y}, {z}) lies outside the ball")
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


@functools.lru_cache(maxsize=None)
def pauli_on(n_qubits: int, wire: int, which: str) -> np.ndarray:
    """Pauli operator on one wire, identity elsewhere; cached, so returned read-only."""
    op = _embed(n_qubits, wire, PAULI[which])
    op.setflags(write=False)
    return op


def check_density(rho: np.ndarray, tol: float = DENSITY_TOL) -> HermitianEig:
    """Check that rho is a density operator; returns its eigendecomposition.

    rho may be a (..., d, d) stack: every member is checked, and the result
    holds the (..., d) values and (..., d, d) vectors of one stacked ``eigh``.
    """
    rho = np.asarray(rho, dtype=complex)
    try:
        eig = hermitian_eig(rho, tol)
    except NotHermitianError:
        raise NumericalError("density operator is not Hermitian") from None
    trace = np.trace(rho, axis1=-2, axis2=-1)
    off = np.maximum(np.abs(trace.real - 1.0), np.abs(trace.imag))
    if off.max() > tol:
        raise NumericalError(f"density operator has trace {trace.flat[off.argmax()]}")
    if eig.values[..., 0].min() < -tol:
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

    def __post_init__(self):
        dim = 2**self.n_qubits
        if self.initial.shape != (dim, dim):
            raise ShapeMismatchError(
                f"initial state shape {self.initial.shape} for {self.n_qubits} qubits"
            )
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


def r3_gates(wire: int, first_param: int) -> Tuple[Gate, ...]:
    """Euler rotation Rz(t3) Ry(t2) Rz(t1) as a gate triple (t1 applied first)."""
    return (
        Gate("rz", wire, param=first_param),
        Gate("ry", wire, param=first_param + 1),
        Gate("rz", wire, param=first_param + 2),
    )


def _embed(n_qubits: int, wire: int, u2: np.ndarray) -> np.ndarray:
    op = np.array([[1.0]], dtype=complex)
    for w in range(n_qubits):
        op = np.kron(op, u2 if w == wire else np.eye(2, dtype=complex))
    return op


@functools.lru_cache(maxsize=None)
def _cnot(n_qubits: int, control: int, target: int) -> np.ndarray:
    """P0(control) + P1(control) X(target); cached, so returned read-only."""
    p0 = _embed(n_qubits, control, np.diag([1.0, 0.0]).astype(complex))
    p1 = _embed(n_qubits, control, np.diag([0.0, 1.0]).astype(complex))
    u = p0 + p1 @ _embed(n_qubits, target, SIGMA_X)
    u.setflags(write=False)
    return u


_GENERATORS = {"rz": "z", "ry": "y"}


def gate_unitary(state: CircuitState, gate: Gate, theta: np.ndarray) -> np.ndarray:
    """The gate's matrix; a rotation is cos(phi/2) I - i sin(phi/2) G."""
    if gate.kind == "cnot":
        return _cnot(state.n_qubits, gate.wire, gate.target)
    if gate.kind not in _GENERATORS:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    half = 0.5 * theta[gate.param]
    g = gate_generator(state, gate)
    return np.cos(half) * np.eye(len(g)) - 1j * np.sin(half) * g


def gate_generator(state: CircuitState, gate: Gate) -> np.ndarray:
    """Hermitian G with U(phi) = exp(-i phi G / 2) for parameterized gates."""
    return pauli_on(state.n_qubits, gate.wire, _GENERATORS[gate.kind])


def _check_theta(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (state.n_params,):
        raise ShapeMismatchError(f"theta shape {theta.shape}, expected ({state.n_params},)")
    return theta


def evaluate(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """Density operator U(theta) rho_ini U(theta)^dagger."""
    theta = _check_theta(state, theta)
    rho = state.initial.astype(complex)
    for gate in state.gates:
        u = gate_unitary(state, gate, theta)
        rho = u @ rho @ u.conj().T
    return rho


def derivatives(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """Analytic d rho / d theta^k for every parameter, stacked with shape (K, d, d).

    Adjoint method (Jones & Gacon, arXiv:2009.02823): gate j inserts
    -(i/2)[G_j, .] after itself, and pushing that through the suffix W_j of
    later gates gives -(i/2)[W_j G_j W_j^dagger, rho].  One backward sweep
    grows W and sums A_k = sum over gates j of parameter k of W_j G_j W_j^dagger;
    at its end W is the whole circuit, so rho = W rho_ini W^dagger.
    """
    theta = _check_theta(state, theta)
    dim = 2**state.n_qubits
    a = np.zeros((state.n_params, dim, dim), dtype=complex)
    w = np.eye(dim, dtype=complex)
    for gate in reversed(state.gates):
        if gate.param is not None:
            a[gate.param] += w @ gate_generator(state, gate) @ w.conj().T
        w = w @ gate_unitary(state, gate, theta)
    rho = w @ state.initial @ w.conj().T
    return -0.5j * (a @ rho - rho @ a)


def regularize_state(rho: np.ndarray, delta: float) -> np.ndarray:
    """Mix toward the maximally mixed state: (1 - delta) rho + delta I / N."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta = {delta} outside [0, 1]")
    n = rho.shape[0]
    return (1.0 - delta) * rho + delta * np.eye(n, dtype=complex) / n


def linear_family(rho: np.ndarray, tangents: Sequence[np.ndarray]):
    """theta |-> rho + sum_k theta_k X_k; the canonical family with fixed m-reps."""
    tangents = np.asarray(tangents, dtype=complex)
    return lambda theta: rho + np.tensordot(np.asarray(theta, dtype=float), tangents, axes=1)
