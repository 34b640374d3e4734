import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qngm import cli, qfim, states
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
        values = states.check_density(states.evaluate(circ, theta)).values
        np.testing.assert_allclose(values, [0.25, 0.75], atol=1e-12)


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
        assert not states.pauli_on(3, 1, which).flags.writeable  # cached, so shared


def kron_gate(n_qubits, gate, theta):
    """A gate's matrix from a chain of np.kron over the wires (CNOT from states)."""
    if gate.kind == "cnot":
        return states._cnot(n_qubits, gate.wire, gate.target)
    phi = theta[gate.param]
    if gate.kind == "rz":
        u2 = np.array([[np.exp(-0.5j * phi), 0], [0, np.exp(0.5j * phi)]], dtype=complex)
    else:
        c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
        u2 = np.array([[c, -s], [s, c]], dtype=complex)
    op = np.array([[1.0]], dtype=complex)
    for w in range(n_qubits):
        op = np.kron(op, u2 if w == gate.wire else np.eye(2, dtype=complex))
    return op


def kron_evaluate(state, theta):
    rho = state.initial.astype(complex)
    for gate in state.gates:
        u = kron_gate(state.n_qubits, gate, theta)
        rho = u @ rho @ u.conj().T
    return rho


def test_gate_matrices_are_reused_only_at_the_same_circuit_and_theta():
    a = single_qubit_circuit()
    gates = (states.Gate("ry", 0, param=0), states.Gate("rz", 0, param=1), states.Gate("ry", 0, param=2))
    b = states.CircuitState(1, a.initial, gates, 3)
    theta = np.array([0.3, -1.1, 0.7])
    for circ, th in ((a, theta), (b, theta), (a, theta), (a, theta + 0.5), (b, theta + 0.5)):
        np.testing.assert_allclose(states.evaluate(circ, th), kron_evaluate(circ, th), atol=1e-14)
        derivs = states.derivatives(circ, th)
        np.testing.assert_allclose(derivs, push_forward_derivatives(circ, th), atol=1e-14)


@pytest.mark.parametrize("name", ["single-qubit", "two-qubit", "three-qubit-heisenberg"])
def test_passes_have_the_bits_of_one_backward_sweep(name):
    # an rz gate enters the sweep as a matrix product, not as elementwise phases
    circ, _, theta0 = cli.build_experiment(cli.ExperimentConfig(experiment=name))
    rng = np.random.default_rng(3)
    for theta in theta0 + rng.normal(size=(5, theta0.size)):
        unitaries = states.gate_unitary(circ, theta)
        a = np.zeros((circ.n_params, *circ.initial.shape), dtype=complex)
        w = np.eye(len(circ.initial), dtype=complex)
        for gate, u in zip(reversed(circ.gates), reversed(unitaries)):
            if gate.param is not None:
                a[gate.param] += w @ states.gate_generator(circ, gate) @ w.conj().T
            w = w @ u
        rho = w @ circ.initial @ w.conj().T
        assert states.evaluate(circ, theta).tobytes() == rho.tobytes()
        assert states.derivatives(circ, theta).tobytes() == (-0.5j * (a @ rho - rho @ a)).tobytes()


def test_gate_unitary_is_the_kronecker_chain():
    theta = np.array([0.0, 0.3, -1.7, np.pi, 5.5])
    for n in (1, 2, 3, 4):
        gates = tuple(
            states.Gate(kind, wire, param=k)
            for wire in range(n)
            for kind in ("rz", "ry")
            for k in range(theta.size)
        )
        circ = states.CircuitState(n, np.eye(2**n, dtype=complex) / 2**n, gates, theta.size)
        for gate, u in zip(gates, states.gate_unitary(circ, theta)):
            assert np.abs(u - kron_gate(n, gate, theta)).max() <= 1e-15


def push_forward_derivatives(state, theta):
    """d rho / d theta^k by pushing each -(i/2)[G, rho_j] through every later gate."""
    dim = 2**state.n_qubits
    grads = np.zeros((state.n_params, dim, dim), dtype=complex)
    unitaries = [kron_gate(state.n_qubits, g, theta) for g in state.gates]
    rho = state.initial.astype(complex)
    running = []  # running[j] = state after gates 0..j
    for u in unitaries:
        rho = u @ rho @ u.conj().T
        running.append(rho)
    for j, gate in enumerate(state.gates):
        if gate.param is None:
            continue
        G = states.pauli_on(state.n_qubits, gate.wire, {"rz": "z", "ry": "y"}[gate.kind])
        d = -0.5j * (G @ running[j] - running[j] @ G)
        for u in unitaries[j + 1 :]:
            d = u @ d @ u.conj().T
        grads[gate.param] += d
    return grads


@st.composite
def random_circuits(draw):
    """A random state behind up to 12 rz/ry/cnot gates on 1-4 qubits; parameters repeat."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    wires = st.integers(0, n - 1)
    gate = st.builds(
        lambda kind, w, p: states.Gate(kind, w, param=p),
        st.sampled_from(["rz", "ry"]),
        wires,
        st.integers(0, k - 1),
    )
    if n > 1:
        gate |= st.builds(
            lambda w, shift: states.Gate("cnot", w, target=(w + shift) % n),
            wires,
            st.integers(1, n - 1),
        )
    gates = draw(st.lists(gate, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circ = states.CircuitState(n, qfim.random_density(rng, 2**n), tuple(gates), k)
    return circ, rng.uniform(-np.pi, np.pi, size=k)


@settings(max_examples=80, deadline=None)
@given(random_circuits())
def test_derivatives_match_push_forward_and_finite_differences(case):
    circ, theta = case
    derivs = states.derivatives(circ, theta)
    assert derivs.shape == (circ.n_params, *circ.initial.shape)
    assert np.abs(derivs - push_forward_derivatives(circ, theta)).max() <= 1e-12
    h = 1e-5
    for k in range(circ.n_params):
        e = np.zeros(circ.n_params)
        e[k] = h
        fd = (states.evaluate(circ, theta + e) - states.evaluate(circ, theta - e)) / (2 * h)
        assert np.abs(derivs[k] - fd).max() < 1e-7


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
    with pytest.raises(NumericalError):
        states.CircuitState(1, np.eye(2, dtype=complex), states.r3_gates(0, 0), 3)  # trace 2


@pytest.mark.parametrize(
    "gate",
    [
        states.Gate("rz", 0),  # rotation without a parameter
        states.Gate("ry", 0, param=0, target=1),  # rotation with a target
        states.Gate("cnot", 0),  # cnot without a target
        states.Gate("cnot", 0, param=0, target=1),  # cnot with a parameter
        states.Gate("cnot", 1, target=1),  # target == wire
        states.Gate("rx", 0, param=0),  # unknown kind
    ],
)
def test_malformed_gate_fails_at_construction(gate):
    with pytest.raises(ShapeMismatchError):
        states.CircuitState(2, np.eye(4, dtype=complex) / 4, (gate,), 1)


def test_linear_family():
    rng = np.random.default_rng(3)
    rho = np.eye(2, dtype=complex) / 2
    x = np.array([[0.1, 0.2], [0.2, -0.1]], dtype=complex)
    fam = states.linear_family(rho, [x])
    np.testing.assert_allclose(fam(np.array([0.5])), rho + 0.5 * x)
    # three tangents against the former accumulation loop; the sum's order
    # differs, so equal within a few ulps of the entries, not bit for bit
    rho = qfim.random_density(rng, 4)
    xs = [qfim.random_tangent(rng, 4) for _ in range(3)]
    theta = rng.normal(size=3)
    loop = rho.copy()
    for coef, x in zip(theta, xs):
        loop = loop + coef * x
    np.testing.assert_allclose(states.linear_family(rho, xs)(theta), loop, rtol=0, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(random_circuits(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stacked_passes_are_single_calls(case, n, seed):
    circ, theta = case
    thetas = np.vstack([theta, np.random.default_rng(seed).uniform(-np.pi, np.pi, (n - 1, theta.size))])
    rho, derivs = states.evaluate(circ, thetas), states.derivatives(circ, thetas)
    dim = circ.initial.shape[0]
    assert rho.shape == (n, dim, dim) and derivs.shape == (n, circ.n_params, dim, dim)
    reg = states.regularize_state(rho, 1e-3)
    for i in range(n):
        assert rho[i].tobytes() == states.evaluate(circ, thetas[i]).tobytes()
        assert derivs[i].tobytes() == states.derivatives(circ, thetas[i]).tobytes()
        assert reg[i].tobytes() == states.regularize_state(rho[i], 1e-3).tobytes()
    with pytest.raises(ShapeMismatchError):
        states.evaluate(circ, thetas[:, :-1])


def test_one_theta_makes_one_gate_unitary_call(monkeypatch):
    circ, _, theta0 = cli.build_experiment(cli.ExperimentConfig(experiment="three-qubit-heisenberg"))
    calls = []
    build = states.gate_unitary
    monkeypatch.setattr(states, "gate_unitary", lambda *args: calls.append(1) or build(*args))
    for theta in (theta0, theta0 + 0.25):
        states.evaluate(circ, theta)
        states.derivatives(circ, theta)
        states.evaluate(circ, theta[None])  # a stack of one is the same theta
    assert len(calls) == 2


def test_the_evaluated_state_is_the_callers_own():
    circ = two_qubit_circuit()
    theta = np.linspace(-1.0, 1.0, circ.n_params)
    rho, derivs = states.evaluate(circ, theta), states.derivatives(circ, theta)
    first = rho.copy()
    rho[...] = 7.0
    assert states.evaluate(circ, theta).tobytes() == first.tobytes()
    assert states.derivatives(circ, theta).tobytes() == derivs.tobytes()
    stack = states.evaluate(circ, np.vstack([theta, theta]))
    stack[0] = 0.0
    assert states.evaluate(circ, theta).tobytes() == first.tobytes()


@settings(max_examples=80, deadline=None)
@given(random_circuits())
def test_evaluate_is_the_kronecker_product_of_gates(case):
    circ, theta = case
    assert np.abs(states.evaluate(circ, theta) - kron_evaluate(circ, theta)).max() <= 1e-13


def test_parameter_free_circuits():
    rho_ini = np.kron(states.bloch_state(0.6, 0, 0), states.bloch_state(0, 0, 0.3))
    for gates in ((states.Gate("cnot", 0, target=1),), ()):
        circ = states.CircuitState(2, rho_ini, gates, 0)
        expected = kron_evaluate(circ, np.zeros(0))
        rho = states.evaluate(circ, np.zeros(0))
        assert rho.shape == (4, 4) and rho.flags.writeable
        np.testing.assert_array_equal(rho, expected)
        assert states.derivatives(circ, np.zeros(0)).shape == (0, 4, 4)
        rho = states.evaluate(circ, np.zeros((3, 0)))
        assert rho.shape == (3, 4, 4) and rho.flags.writeable
        np.testing.assert_array_equal(rho, np.broadcast_to(expected, (3, 4, 4)))
        assert states.derivatives(circ, np.zeros((3, 0))).shape == (3, 0, 4, 4)
