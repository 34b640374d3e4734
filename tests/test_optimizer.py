import numpy as np
import pytest

from qngm import cli, optimizer, petz, qfim, states
from qngm.errors import NumericalError
from qngm.linalg import solve_sym


def experiment(name="single-qubit"):
    config = cli.ExperimentConfig(experiment=name)
    return cli.build_experiment(config)


def cost_and_gradient(cost, circuit, theta):
    """optimizer.cost_and_gradient at the circuit's state for theta."""
    rho, derivs = states.evaluate(circuit, theta), states.derivatives(circuit, theta)
    return optimizer.cost_and_gradient(cost, rho, derivs)


def test_state_distance_minimum():
    circuit, cost, _ = experiment()
    target = np.zeros(circuit.n_params)  # build_experiment's default theta_star
    value, grad = cost_and_gradient(cost, circuit, target)
    assert value == pytest.approx(0.0, abs=1e-14)
    assert np.abs(grad).max() < 1e-12


def test_observable_identity_is_flat():
    circuit, _, theta0 = experiment()
    cost = optimizer.Observable(np.eye(2, dtype=complex))
    rng = np.random.default_rng(0)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=3)
        value, grad = cost_and_gradient(cost, circuit, theta)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.abs(grad).max() < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for name in ("single-qubit", "two-qubit"):
        circuit, cost, theta0 = experiment(name)
        theta = theta0 + rng.normal(scale=0.3, size=theta0.size)
        _, grad = cost_and_gradient(cost, circuit, theta)
        h = 1e-6
        for k in range(theta.size):
            e = np.zeros(theta.size)
            e[k] = h
            lp, _ = cost_and_gradient(cost, circuit, theta + e)
            lm, _ = cost_and_gradient(cost, circuit, theta - e)
            assert abs(grad[k] - (lp - lm) / (2 * h)) < 1e-7


def test_step_trust_identity_metric():
    g = np.array([3.0, 4.0])
    dtheta, converged = optimizer.step_trust(np.eye(2), g, 1e-6)
    assert not converged
    np.testing.assert_allclose(dtheta, -np.sqrt(2e-6) * g / np.linalg.norm(g))


def test_step_trust_constraint_saturation():
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        G = a @ a.T + 0.5 * np.eye(4)
        grad = rng.normal(size=4)
        dtheta, _ = optimizer.step_trust(G, grad, eps)
        assert float(dtheta @ G @ dtheta) == pytest.approx(2 * eps, rel=1e-8)
        # scaling the metric by c scales the step by 1/sqrt(c), same direction
        dthetac, _ = optimizer.step_trust(4.0 * G, grad, eps)
        np.testing.assert_allclose(dthetac, 0.5 * dtheta, rtol=1e-10)


def test_step_zero_gradient_converges():
    dtheta, converged = optimizer.step_trust(np.eye(2), np.zeros(2), 1e-6)
    assert converged and np.all(dtheta == 0)
    dtheta, converged = optimizer.step_lr(np.eye(2), np.zeros(2), 1e-3)
    assert converged and np.all(dtheta == 0)


def test_step_lr_is_plain_gd_for_identity():
    g = np.array([1.0, -2.0])
    dtheta, _ = optimizer.step_lr(np.eye(2), g, 0.1)
    np.testing.assert_allclose(dtheta, -0.1 * g)


def test_lr_first_order_decrease():
    circuit, cost, theta0 = experiment()
    rho = states.regularize_state(states.evaluate(circuit, theta0), 1e-3)
    derivs = [(1 - 1e-3) * d for d in states.derivatives(circuit, theta0)]
    G = qfim.regularize_metric(qfim.metric(rho, derivs, petz.SLD), 1e-3)
    value, grad = cost_and_gradient(cost, circuit, theta0)
    predicted_rate = -float(grad @ solve_sym(G, grad))
    errs = []
    for eta in (1e-3, 5e-4):
        dtheta, _ = optimizer.step_lr(G, grad, eta)
        actual, _ = cost_and_gradient(cost, circuit, theta0 + dtheta)
        errs.append(abs((actual - value) - eta * predicted_rate))
    # halving eta shrinks the first-order mismatch roughly fourfold
    assert errs[1] < errs[0] / 2.0


def test_predicted_decrease_respects_metric_order():
    # larger Petz function -> smaller metric -> larger predicted decrease
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = qfim.random_density(rng, 2, floor=0.1)
        tangents = [qfim.random_tangent(rng, 2) for _ in range(2)]
        grad = rng.normal(size=2)
        g_01 = qfim.metric(rho, tangents, petz.sandwiched(0.1))
        g_sld = qfim.metric(rho, tangents, petz.SLD)
        g_rrld = qfim.metric(rho, tangents, petz.RRLD)
        dec_01 = float(grad @ solve_sym(g_01, grad))
        dec_sld = float(grad @ solve_sym(g_sld, grad))
        dec_rrld = float(grad @ solve_sym(g_rrld, grad))
        assert dec_01 >= dec_sld - 1e-12 >= dec_rrld - 1e-12


def test_run_zero_steps():
    circuit, cost, theta0 = experiment()
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, max_steps=0)
    assert traj.error is None
    assert len(traj.records) == 1
    assert traj.records[0].step == 0


def test_run_descent_all_experiments():
    for name in ("single-qubit", "two-qubit", "three-qubit-heisenberg"):
        circuit, cost, theta0 = experiment(name)
        for diag in (False, True):
            traj = optimizer.run(
                circuit, cost, petz.sandwiched(0.3), theta0,
                rule="lr", eta=1e-3, max_steps=200, use_diagonal=diag,
            )
            assert traj.error is None
            costs = traj.costs()
            frac = np.mean(np.diff(costs) <= 1e-9)
            assert frac >= 0.99, (name, diag, frac)


def test_run_sld_long_descent():
    circuit, cost, theta0 = experiment()
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule="lr", eta=1e-3, max_steps=2000)
    assert traj.error is None
    assert np.all(np.diff(traj.costs()) <= 1e-9)


def test_run_stops_at_minimum():
    circuit, cost, theta0 = experiment()
    target = np.zeros(circuit.n_params)  # build_experiment's default theta_star
    traj = optimizer.run(circuit, cost, petz.SLD, target, max_steps=50)
    assert traj.error is None
    assert len(traj.records) == 1  # gradient norm already below tolerance


def test_run_error_tagged():
    config = cli.ExperimentConfig(bloch=((1.0, 0.0, 0.0),))
    circuit, cost, theta0 = cli.build_experiment(config)
    traj = optimizer.run(circuit, cost, petz.BKM, theta0, delta=0.0, max_steps=10)
    assert traj.error is not None
    assert "MetricUndefined" in traj.error


def test_trajectory_records_monotone_steps():
    circuit, cost, theta0 = experiment()
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule="trust", max_steps=25)
    steps = [r.step for r in traj.records]
    assert steps == list(range(len(steps)))
    assert all(r.metric_cond >= 1.0 for r in traj.records)


def test_final_cost_of_empty_trajectory():
    with pytest.raises(NumericalError):
        optimizer.Trajectory().final_cost


def test_non_finite_cost_aborts_naming_the_step():
    circuit, _, theta0 = experiment()
    cost = optimizer.Observable(np.diag([np.inf, 0.0]).astype(complex))
    with np.errstate(invalid="ignore"):
        traj = optimizer.run(circuit, cost, petz.SLD, theta0, max_steps=5)
    assert traj.records == []
    assert traj.error.startswith("NumericalError") and "step 0" in traj.error


def test_non_finite_theta_aborts_naming_the_step():
    circuit, cost, theta0 = experiment()
    for bad in (np.nan, np.inf):
        traj = optimizer.run(circuit, cost, petz.SLD, np.array([bad, 0.0, 0.0]), max_steps=5)
        assert traj.records == []
        assert traj.error == "NumericalError: non-finite theta at step 0"
    # a step that lands on a non-finite theta is caught before the next record
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule="lr", eta=np.inf, max_steps=5)
    assert len(traj.records) == 1
    assert traj.error == "NumericalError: non-finite theta at step 1"


def counting(calls, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("name", ["three-qubit-heisenberg", "single-qubit"])
def test_run_builds_the_state_once_per_record(monkeypatch, name):
    circuit, cost, theta0 = experiment(name)
    calls = []
    for fn_name in ("evaluate", "derivatives"):
        monkeypatch.setattr(states, fn_name, counting(calls, states, fn_name))
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule="lr", max_steps=4)
    assert traj.error is None and len(traj.records) == 5
    assert calls.count("evaluate") == calls.count("derivatives") == 5
