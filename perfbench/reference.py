"""Independent recomputation of the built-in experiments' costs.

The circuits are rebuilt here from Kronecker products of 2x2 matrices, so a
defect in ``qngm.states`` cannot hide by being reproduced in the check.
Conventions follow the package: qubit 0 is the leftmost tensor factor, each
qubit starts in the Bloch state (0.5, 0, 0) and gets Rz(t3) Ry(t2) Rz(t1)
(t1 applied first), rotations use exp(-i phi sigma / 2).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
START = 0.5 * (I2 + 0.5 * X)


def kron_all(factors) -> np.ndarray:
    return reduce(np.kron, factors)


def rz(phi: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def ry(phi: float) -> np.ndarray:
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def on(n: int, ops: dict) -> np.ndarray:
    """Tensor product with ops[w] on wire w and the identity elsewhere."""
    return kron_all([ops.get(w, I2) for w in range(n)])


def cnot(n: int, control: int, target: int) -> np.ndarray:
    return on(n, {control: P0}) + on(n, {control: P1, target: X})


def state(theta, cnots=()) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    n = theta.size // 3
    local = kron_all(
        [rz(theta[3 * w + 2]) @ ry(theta[3 * w + 1]) @ rz(theta[3 * w]) for w in range(n)]
    )
    u = reduce(lambda acc, pair: cnot(n, *pair) @ acc, cnots, local)
    rho0 = kron_all([START] * n)
    return u @ rho0 @ u.conj().T


def heisenberg_cost(theta, omega: float, coupling: float) -> float:
    """Tr[rho H] for the 3-qubit ring behind three CNOTs (0->1, 1->2, 2->0)."""
    rho = state(theta, cnots=((0, 1), (1, 2), (2, 0)))
    h = sum(omega * on(3, {i: Z}) for i in range(3))
    for i, j in ((0, 1), (1, 2), (2, 0)):
        for p in (X, Y, Z):
            h = h + coupling * on(3, {i: p, j: p})
    return float(np.trace(rho @ h).real)


def state_distance_cost(theta, theta_star) -> float:
    """||rho(theta) - rho(theta_star)||_F^2 for the CNOT-free circuit."""
    diff = state(theta) - state(theta_star)
    return float(np.vdot(diff, diff).real)
