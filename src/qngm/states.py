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

from .errors import NumericalError, ShapeMismatchError

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


def pauli_on(n_qubits: int, wire: int, which: str) -> np.ndarray:
    """Pauli operator on one wire, identity elsewhere."""
    return _embed(n_qubits, wire, PAULI[which])


def check_density(rho: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise NumericalError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise NumericalError(f"density operator has trace {np.trace(rho)}")
    if np.linalg.eigvalsh(rho)[0] < -tol:
        raise NumericalError("density operator has a negative eigenvalue")
    return rho


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


def gate_unitary(state: CircuitState, gate: Gate, theta: np.ndarray) -> np.ndarray:
    if gate.kind == "cnot":
        return _cnot(state.n_qubits, gate.wire, gate.target)
    phi = theta[gate.param]
    if gate.kind == "rz":
        u2 = np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]], dtype=complex)
    elif gate.kind == "ry":
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        u2 = np.array([[c, -s], [s, c]], dtype=complex)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return _embed(state.n_qubits, gate.wire, u2)


def gate_generator(state: CircuitState, gate: Gate) -> np.ndarray:
    """Hermitian G with U(phi) = exp(-i phi G / 2) for parameterized gates."""
    which = {"rz": "z", "ry": "y"}[gate.kind]
    return pauli_on(state.n_qubits, gate.wire, which)


def evaluate(state: CircuitState, theta: np.ndarray) -> np.ndarray:
    """Density operator U(theta) rho_ini U(theta)^dagger."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (state.n_params,):
        raise ShapeMismatchError(f"theta shape {theta.shape}, expected ({state.n_params},)")
    rho = state.initial.astype(complex)
    for gate in state.gates:
        u = gate_unitary(state, gate, theta)
        rho = u @ rho @ u.conj().T
    return rho


def derivatives(state: CircuitState, theta: np.ndarray) -> list:
    """Analytic d rho / d theta^k for every parameter (m-representations).

    Each parameterized gate inserts -(i/2)[G, .] at its position; the result
    is pushed through the remaining gates and accumulated per index.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (state.n_params,):
        raise ShapeMismatchError(f"theta shape {theta.shape}, expected ({state.n_params},)")
    dim = 2**state.n_qubits
    grads = [np.zeros((dim, dim), dtype=complex) for _ in range(state.n_params)]

    unitaries = [gate_unitary(state, g, theta) for g in state.gates]
    # running[j] = state after gates 0..j
    rho = state.initial.astype(complex)
    running = []
    for u in unitaries:
        rho = u @ rho @ u.conj().T
        running.append(rho)

    for j, gate in enumerate(state.gates):
        if gate.param is None:
            continue
        G = gate_generator(state, gate)
        d = -0.5j * (G @ running[j] - running[j] @ G)
        for u in unitaries[j + 1 :]:
            d = u @ d @ u.conj().T
        grads[gate.param] += d
    return grads


def regularize_state(rho: np.ndarray, delta: float) -> np.ndarray:
    """Mix toward the maximally mixed state: (1 - delta) rho + delta I / N."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta = {delta} outside [0, 1]")
    n = rho.shape[0]
    return (1.0 - delta) * rho + delta * np.eye(n, dtype=complex) / n


def linear_family(rho: np.ndarray, tangents: Sequence[np.ndarray]):
    """theta |-> rho + sum_k theta_k X_k; the canonical family with fixed m-reps."""
    tangents = [np.asarray(x, dtype=complex) for x in tangents]

    def family(theta: np.ndarray) -> np.ndarray:
        out = rho.astype(complex).copy()
        for coef, x in zip(np.asarray(theta, dtype=float), tangents):
            out = out + coef * x
        return out

    return family
