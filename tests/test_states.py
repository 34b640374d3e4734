import numpy as np
import pytest

from qngm import states
from qngm.errors import NumericalError, ShapeMismatchError


def single_qubit_circuit(x=0.5, y=0.0, z=0.0):
    return states.CircuitState(1, states.bloch_state(x, y, z), states.r3_gates(0, 0), 3)


def two_qubit_circuit():
    gates = states.r3_gates(0, 0) + states.r3_gates(1, 3) + (
        states.Gate("cnot", 0, target=1),
        states.Gate("cnot", 1, target=0),
    )
    initial = np.kron(states.bloch_state(0.5, 0, 0), states.bloch_state(0.5, 0, 0))
    return states.CircuitState(2, initial, gates, 6)


def test_bloch_state():
    rho = states.bloch_state(0.5, 0.0, 0.0)
    np.testing.assert_allclose(rho, [[0.5, 0.25], [0.25, 0.5]])
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.25, 0.75])
    with pytest.raises(ValueError):
        states.bloch_state(1.0, 0.5, 0.0)


def test_evaluate_identity_at_zero():
    circ = single_qubit_circuit()
    np.testing.assert_allclose(states.evaluate(circ, np.zeros(3)), circ.initial, atol=1e-15)


def test_spectrum_invariance():
    circ = single_qubit_circuit()
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        rho = states.check_density(states.evaluate(circ, theta))
        np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.25, 0.75], atol=1e-12)


def test_derivatives_zero_for_maximally_mixed():
    circ = states.CircuitState(1, np.eye(2, dtype=complex) / 2, states.r3_gates(0, 0), 3)
    for d in states.derivatives(circ, np.array([0.4, 1.1, -0.3])):
        assert np.abs(d).max() < 1e-15


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    for circ in (single_qubit_circuit(), two_qubit_circuit()):
        theta = rng.uniform(-np.pi, np.pi, size=circ.n_params)
        derivs = states.derivatives(circ, theta)
        h = 1e-5
        for k in range(circ.n_params):
            e = np.zeros(circ.n_params)
            e[k] = h
            fd = (states.evaluate(circ, theta + e) - states.evaluate(circ, theta - e)) / (2 * h)
            assert np.abs(derivs[k] - fd).max() < 1e-8
            assert abs(np.trace(derivs[k])) < 1e-12


def test_directional_derivative():
    circ = two_qubit_circuit()
    rng = np.random.default_rng(2)
    theta = rng.uniform(-1, 1, size=6)
    direction = rng.normal(size=6)
    derivs = states.derivatives(circ, theta)
    analytic = sum(direction[k] * derivs[k] for k in range(6))
    t = 1e-6
    fd = (states.evaluate(circ, theta + t * direction) - states.evaluate(circ, theta - t * direction)) / (2 * t)
    assert np.abs(analytic - fd).max() < 1e-7


def test_regularize_state():
    circ = single_qubit_circuit()
    rho = states.evaluate(circ, np.array([0.1, 0.2, 0.3]))
    np.testing.assert_allclose(states.regularize_state(rho, 0.0), rho)
    np.testing.assert_allclose(states.regularize_state(rho, 1.0), np.eye(2) / 2)
    reg = states.regularize_state(rho, 1e-3)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(reg), (1 - 1e-3) * np.array([0.25, 0.75]) + 1e-3 / 2, atol=1e-14
    )
    # pure state: eigenvalues {delta/2, 1 - delta/2}
    pure = states.bloch_state(1.0, 0.0, 0.0)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(states.regularize_state(pure, 1e-3)), [5e-4, 1 - 5e-4], atol=1e-15
    )


def test_regularized_derivatives_scale_exactly():
    circ = single_qubit_circuit()
    theta = np.array([0.5, -0.2, 1.3])
    delta = 1e-3
    derivs = states.derivatives(circ, theta)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (
            states.regularize_state(states.evaluate(circ, theta + e), delta)
            - states.regularize_state(states.evaluate(circ, theta - e), delta)
        ) / (2 * h)
        assert np.abs(fd - (1 - delta) * derivs[k]).max() < 1e-8


def test_cnot_matrix():
    # control on qubit 0 (most significant bit)
    u = states._cnot(2, 0, 1)
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_allclose(u, expected)
    u = states._cnot(2, 1, 0)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    np.testing.assert_allclose(u, expected)
    # bit for bit the matrix of the per-basis-state bit loop, on every wire pair
    for n in (2, 3, 4):
        for control in range(n):
            for target in range(n):
                if control == target:
                    continue
                ref = np.zeros((2**n, 2**n), dtype=complex)
                for basis in range(2**n):
                    bits = [(basis >> (n - 1 - w)) & 1 for w in range(n)]
                    if bits[control]:
                        bits[target] ^= 1
                    ref[sum(b << (n - 1 - w) for w, b in enumerate(bits)), basis] = 1.0
                u = states._cnot(n, control, target)
                assert u.dtype == ref.dtype and u.tobytes() == ref.tobytes()
                assert not u.flags.writeable  # cached, so shared between calls


def test_pauli_on_is_the_kronecker_chain():
    eye = np.eye(2, dtype=complex)
    for which, pauli in states.PAULI.items():
        np.testing.assert_array_equal(
            states.pauli_on(3, 1, which), np.kron(np.kron(eye, pauli), eye)
        )


def test_shape_validation():
    circ = single_qubit_circuit()
    with pytest.raises(ShapeMismatchError):
        states.evaluate(circ, np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        states.CircuitState(1, np.eye(2, dtype=complex) / 2, (states.Gate("rz", 3, param=0),), 1)
    with pytest.raises(ShapeMismatchError):
        states.CircuitState(1, np.eye(2, dtype=complex) / 2, (states.Gate("rz", 0, param=5),), 1)
    with pytest.raises(NumericalError):
        states.check_density(np.eye(2, dtype=complex))  # trace 2


def test_linear_family():
    rng = np.random.default_rng(3)
    rho = np.eye(2, dtype=complex) / 2
    x = np.array([[0.1, 0.2], [0.2, -0.1]], dtype=complex)
    fam = states.linear_family(rho, [x])
    np.testing.assert_allclose(fam(np.array([0.5])), rho + 0.5 * x)
