import warnings

import numpy as np
import pytest

from qngm import cli, optimizer, petz, qfim, states
from qngm.errors import NumericalError, QngmError, ShapeMismatchError, ValidationError
from qngm.linalg import condition_number, solve_sym


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
    dtheta = optimizer.step_trust(np.eye(2), g, 1e-6)
    np.testing.assert_allclose(dtheta, -np.sqrt(2e-6) * g / np.linalg.norm(g))


def test_step_trust_constraint_saturation():
    rng = np.random.default_rng(2)
    eps = 1e-6
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        G = a @ a.T + 0.5 * np.eye(4)
        grad = rng.normal(size=4)
        dtheta = optimizer.step_trust(G, grad, eps)
        assert float(dtheta @ G @ dtheta) == pytest.approx(2 * eps, rel=1e-8)
        # scaling the metric by c scales the step by 1/sqrt(c), same direction
        dthetac = optimizer.step_trust(4.0 * G, grad, eps)
        np.testing.assert_allclose(dthetac, 0.5 * dtheta, rtol=1e-10)


def test_step_zero_gradient_converges():
    # run stops a member below GRAD_ZERO before any step; called anyway, the
    # lr step of a zero gradient is zero and the trust step does not exist
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not optimizer.step_lr(np.eye(2), np.zeros(2), 1e-3).any()
        with pytest.raises(NumericalError, match="grad\\^T G\\^-1 grad is not positive"):
            optimizer.step_trust(np.eye(2), np.zeros(2), 1e-6)
        with pytest.raises(NumericalError, match="not positive"):
            optimizer.step_trust(np.eye(2)[None], np.array([[0.0, 0.0]]), 1e-6)


@pytest.mark.parametrize("size", [0.0, -1.0, np.nan, np.inf])
def test_bad_step_size_is_a_validation_error(size):
    with pytest.raises(ValidationError, match="eta"):
        optimizer.step_lr(np.eye(2), np.ones(2), size)
    with pytest.raises(ValidationError, match="epsilon"):
        optimizer.step_trust(np.eye(2), np.ones(2), size)


def test_step_lr_is_plain_gd_for_identity():
    g = np.array([1.0, -2.0])
    dtheta = optimizer.step_lr(np.eye(2), g, 0.1)
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
        dtheta = optimizer.step_lr(G, grad, eta)
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


def test_non_finite_theta_aborts_naming_the_step(monkeypatch):
    circuit, cost, theta0 = experiment()
    for bad in (np.nan, np.inf):
        traj = optimizer.run(circuit, cost, petz.SLD, np.array([bad, 0.0, 0.0]), max_steps=5)
        assert traj.records == []
        assert traj.error == "NumericalError: non-finite theta at step 0"
    # a step that lands on a non-finite theta is caught before the next record
    def step_to_inf(G, grad, eta):
        return np.full_like(grad, np.inf)

    monkeypatch.setattr(optimizer, "step_lr", step_to_inf)
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule="lr", max_steps=5)
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


@pytest.mark.parametrize(
    "options, name",
    [
        (dict(eta=-1.0, max_steps=0), "eta"),
        (dict(eta=-1.0, max_steps=3), "eta"),
        (dict(rule="trust", epsilon=0.0), "epsilon"),
        (dict(delta=2.0), "delta"),
        (dict(delta=-0.5), "delta"),
        (dict(xi=1.5), "xi"),
        (dict(xi=np.nan), "xi"),
        (dict(rule="sgd"), "rule"),
        (dict(max_steps=-3), "max_steps"),
        (dict(rank_tol=-1.0), "rank_tol"),
        (dict(rank_tol=0.0), "rank_tol"),
        (dict(rank_tol=np.nan), "rank_tol"),
        (dict(rank_tol=np.inf), "rank_tol"),
        (dict(eta=np.nan), "eta"),
        (dict(eta=np.inf), "eta"),
        (dict(rule="trust", epsilon=np.nan), "epsilon"),
        (dict(rule="trust", epsilon=np.inf), "epsilon"),
        (dict(grad_tol=-1.0), "grad_tol"),
        (dict(grad_tol=np.nan), "grad_tol"),
        (dict(grad_tol=np.inf), "grad_tol"),
        (dict(max_steps=1.5), "max_steps"),
        (dict(max_steps=np.nan), "max_steps"),
    ],
)
def test_bad_step_options_fail_before_any_circuit_pass(monkeypatch, options, name):
    circuit, cost, theta0 = experiment()
    calls = []
    for fn_name in ("evaluate", "derivatives"):
        monkeypatch.setattr(states, fn_name, counting(calls, states, fn_name))
    for f in (petz.SLD, [petz.SLD, petz.BKM]):
        with pytest.raises(ValidationError, match=name):
            optimizer.run(circuit, cost, f, theta0, **options)
    assert calls == []


def test_a_sweep_step_makes_one_petz_call(monkeypatch):
    circuit, cost, theta0 = experiment()
    calls = []
    monkeypatch.setattr(petz, "evaluate", counting(calls, petz, "evaluate"))
    fs = [petz.sandwiched(a) for a in (0.1, 0.2, 0.3, 0.4, 0.5, -1.0)]
    steps = 5
    trajectories = optimizer.run(circuit, cost, fs, theta0, rule="lr", max_steps=steps)
    assert all(len(t.records) == steps + 1 and t.error is None for t in trajectories)
    assert len(calls) == steps + 1  # not one per alpha


def test_observable_must_be_hermitian():
    with pytest.raises(ShapeMismatchError, match="Hermitian"):
        optimizer.Observable(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ShapeMismatchError, match="square"):
        optimizer.Observable(np.zeros((2, 3), dtype=complex))
    optimizer.Observable(states.SIGMA_Y)  # Hermitian, though not real


def test_observable_of_another_dimension_aborts_every_member():
    circuit, _, theta0 = experiment()
    cost = optimizer.Observable(states.pauli_on(2, 0, "z"))
    solo = optimizer.run(circuit, cost, petz.SLD, theta0, max_steps=3)
    assert solo.records == []
    assert solo.error == "ShapeMismatchError: observable shape (4, 4) vs state (2, 2)"
    stacked = optimizer.run(circuit, cost, [petz.SLD, petz.BKM], theta0, max_steps=3)
    assert [t.error for t in stacked] == [solo.error] * 2


@pytest.mark.parametrize("dim", [1, 4])
def test_target_of_another_dimension_aborts_every_member(dim):
    circuit, _, theta0 = experiment()
    cost = optimizer.StateDistance(np.eye(dim, dtype=complex) / dim)
    solo = optimizer.run(circuit, cost, petz.SLD, theta0, max_steps=3)
    assert solo.records == []
    assert solo.error == f"ShapeMismatchError: target shape ({dim}, {dim}) vs state (2, 2)"
    stacked = optimizer.run(circuit, cost, [petz.SLD, petz.BKM], theta0, max_steps=3)
    assert [t.error for t in stacked] == [solo.error] * 2


def test_target_must_be_square():
    with pytest.raises(ShapeMismatchError, match="target shape \\(2, 3\\) is not square"):
        optimizer.StateDistance(np.zeros((2, 3), dtype=complex))
    with pytest.raises(ShapeMismatchError, match="not square"):
        optimizer.StateDistance(np.zeros(4, dtype=complex))


def test_unknown_cost_is_a_validation_error():
    circuit, _, theta0 = experiment()
    rho, derivs = states.evaluate(circuit, theta0), states.derivatives(circuit, theta0)
    with pytest.raises(ValidationError, match="unknown cost function"):
        optimizer.cost_and_gradient(np.eye(2), rho, derivs)


def test_an_unknown_cost_is_refused_before_any_circuit_pass(monkeypatch):
    circuit, _, theta0 = experiment()
    passes = []
    monkeypatch.setattr(states, "evaluate", lambda *args: passes.append(args))
    with pytest.raises(ValidationError) as info:
        optimizer.run(circuit, np.eye(2), petz.SLD, theta0, max_steps=3)
    assert str(info.value) == "unknown cost function of type ndarray"
    assert passes == []


@pytest.mark.parametrize("rule", optimizer.RULES)
def test_an_overflowing_gradient_norm_aborts_naming_the_step(rule):
    config = cli.ExperimentConfig(experiment="three-qubit-heisenberg", coupling=1e300)
    circuit, cost, theta0 = cli.build_experiment(config)
    value, grad = cost_and_gradient(cost, circuit, theta0)
    assert np.isfinite(value) and np.isfinite(grad).all()  # only |grad| overflows
    traj = optimizer.run(circuit, cost, petz.SLD, theta0, rule=rule, max_steps=3)
    assert traj.records == []
    assert traj.error == "NumericalError: non-finite cost or gradient norm at step 0"


def test_cost_and_gradient_checks_the_observable_shape():
    circuit, _, theta0 = experiment()
    cost = optimizer.Observable(states.pauli_on(2, 0, "z"))
    rho, derivs = states.evaluate(circuit, theta0), states.derivatives(circuit, theta0)
    message = r"observable shape \(4, 4\) vs state \(2, 2\)"
    with pytest.raises(ShapeMismatchError, match=message):
        optimizer.cost_and_gradient(cost, rho, derivs)
    with pytest.raises(ShapeMismatchError, match=message):
        optimizer.cost_and_gradient(cost, rho[None], derivs[None])


def fingerprint(traj):
    """Everything a trajectory records, for bit-exact comparison."""
    rows = [(r.step, r.theta.tobytes(), r.cost, r.grad_norm, r.metric_cond) for r in traj.records]
    return rows, traj.error


def reference_run(circuit, cost, f, theta0, rule, eta=1e-3, epsilon=1e-6, delta=1e-3,
                  xi=1e-3, max_steps=10, grad_tol=1e-10, use_diagonal=False):  # fmt: skip
    """The former one-member loop over the single-member calls of each layer."""
    theta = np.asarray(theta0, dtype=float).copy()
    traj = optimizer.Trajectory()
    try:
        for step in range(max_steps + 1):
            if not np.all(np.isfinite(theta)):
                raise NumericalError(f"non-finite theta at step {step}")
            rho = states.evaluate(circuit, theta)
            derivs = states.derivatives(circuit, theta)
            G = qfim.metric(states.regularize_state(rho, delta), (1.0 - delta) * derivs, f)
            if use_diagonal:
                G = qfim.diagonal(G)
            G = qfim.regularize_metric(G, xi)
            value, grad = optimizer.cost_and_gradient(cost, rho, derivs)
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                raise NumericalError(f"non-finite cost or gradient norm at step {step}")
            grad_norm = float(np.linalg.norm(grad))
            cond = condition_number(G)
            traj.records.append(optimizer.TrajectoryRecord(step, theta.copy(), value, grad_norm, cond))
            if step == max_steps or grad_norm < grad_tol or grad_norm < optimizer.GRAD_ZERO:
                break
            if rule == "trust":
                theta = theta + optimizer.step_trust(G, grad, epsilon)
            else:
                theta = theta + optimizer.step_lr(G, grad, eta)
    except QngmError as exc:
        traj.error = f"{type(exc).__name__}: {exc}"
    return traj


STACK = [petz.SLD, petz.sandwiched(0.3), petz.standard(0.5), petz.parse("lin:3:rrld:sld")]


@pytest.mark.parametrize("use_diagonal", [False, True])
@pytest.mark.parametrize("rule", optimizer.RULES)
@pytest.mark.parametrize("name", ["single-qubit", "two-qubit", "three-qubit-heisenberg"])
def test_stack_gives_each_member_its_solo_records(name, rule, use_diagonal):
    circuit, cost, theta0 = experiment(name)
    options = dict(rule=rule, max_steps=12, use_diagonal=use_diagonal)
    stacked = optimizer.run(circuit, cost, STACK, theta0, **options)
    assert len(stacked) == len(STACK)
    for f, traj in zip(STACK, stacked):
        assert traj.error is None and len(traj.records) == 13
        assert fingerprint(traj) == fingerprint(optimizer.run(circuit, cost, f, theta0, **options))
        assert fingerprint(traj) == fingerprint(reference_run(circuit, cost, f, theta0, **options))


def test_a_list_of_one_is_the_single_run():
    circuit, cost, theta0 = experiment("two-qubit")
    f = petz.sandwiched(0.3)
    (member,) = optimizer.run(circuit, cost, [f], theta0, max_steps=8)
    assert fingerprint(member) == fingerprint(optimizer.run(circuit, cost, f, theta0, max_steps=8))
    assert optimizer.run(circuit, cost, [], theta0) == []


def test_a_member_below_grad_tol_leaves_the_stack():
    circuit, cost, _ = experiment()
    theta0 = np.array([0.3, 0.2, 0.1])  # near the minimum at 0
    fast, slow = petz.sandwiched(0.1), petz.sandwiched(-1.0)
    options = dict(rule="lr", eta=0.05, max_steps=40)
    # a tolerance the slow member never goes below in 40 steps; the fast one does
    grad_tol = min(r.grad_norm for r in optimizer.run(circuit, cost, slow, theta0, **options).records)
    stacked = optimizer.run(circuit, cost, [fast, slow, fast], theta0, grad_tol=grad_tol, **options)
    lengths = [len(t.records) for t in stacked]
    assert lengths[1] == 41 and lengths[0] == lengths[2] < 41
    for f, traj in zip([fast, slow, fast], stacked):
        solo = optimizer.run(circuit, cost, f, theta0, grad_tol=grad_tol, **options)
        assert traj.error is None and fingerprint(traj) == fingerprint(solo)
        reference = reference_run(circuit, cost, f, theta0, grad_tol=grad_tol, **options)
        assert fingerprint(traj) == fingerprint(reference)


def test_a_member_with_a_vanishing_gradient_leaves_the_stack():
    circuit, cost, _ = experiment()
    theta0 = np.array([0.3, 0.2, 0.1])
    fs = [petz.sandwiched(-1.0), petz.sandwiched(0.1)]
    # a zero grad_tol stops no member, so GRAD_ZERO alone decides
    options = dict(rule="lr", eta=0.2, max_steps=80, grad_tol=0.0)
    stacked = optimizer.run(circuit, cost, fs, theta0, **options)
    # the fast member's |grad| falls below GRAD_ZERO, and run stops it after that record
    assert len(stacked[0].records) == 81 and len(stacked[1].records) < 81
    assert stacked[1].records[-1].grad_norm < optimizer.GRAD_ZERO
    for f, traj in zip(fs, stacked):
        solo = optimizer.run(circuit, cost, f, theta0, **options)
        reference = reference_run(circuit, cost, f, theta0, **options)
        assert traj.error is None and fingerprint(traj) == fingerprint(solo)
        assert fingerprint(traj) == fingerprint(reference)


def test_an_aborting_member_keeps_its_own_error():
    # sw:0.25 runs on the pure state (f(0) > 0); sw:2 and bkm abort (f(0) = 0)
    config = cli.ExperimentConfig(bloch=((1.0, 0.0, 0.0),))
    circuit, cost, theta0 = cli.build_experiment(config)
    fs = [petz.sandwiched(2.0), petz.sandwiched(0.25), petz.BKM]
    stacked = optimizer.run(circuit, cost, fs, theta0, delta=0.0, max_steps=6)
    for f, traj in zip(fs, stacked):
        solo = optimizer.run(circuit, cost, f, theta0, delta=0.0, max_steps=6)
        assert fingerprint(traj) == fingerprint(solo)
    assert [t.error is None for t in stacked] == [False, True, False]
    assert stacked[0].error.startswith("MetricUndefinedError") and stacked[0].records == []
    assert len(stacked[1].records) == 7


@pytest.mark.parametrize("rule", optimizer.RULES)
def test_a_failing_step_is_replayed_member_by_member(monkeypatch, rule):
    circuit, cost, theta0 = experiment("two-qubit")
    options = dict(rule=rule, max_steps=16)
    solos = [optimizer.run(circuit, cost, f, theta0, **options) for f in STACK]
    # the solve of member 1's step from its record 10 fails, wherever it is solved
    doomed = solos[1].records[10]

    def solve(G, grad):
        norms = np.atleast_1d(optimizer._norm(grad)).tolist()
        conds = np.atleast_1d(condition_number(G)).tolist()
        if (doomed.grad_norm, doomed.metric_cond) in zip(norms, conds):
            raise NumericalError("metric is singular")
        return solve_sym(G, grad)

    monkeypatch.setattr(optimizer, "solve_sym", solve)
    stacked = optimizer.run(circuit, cost, STACK, theta0, **options)
    failed = optimizer.run(circuit, cost, STACK[1], theta0, **options)
    assert failed.error == "NumericalError: metric is singular"
    assert fingerprint(failed)[0] == fingerprint(solos[1])[0][:11]
    assert fingerprint(stacked[1]) == fingerprint(failed)
    for n in (0, 2, 3):
        assert fingerprint(stacked[n]) == fingerprint(solos[n])
        assert stacked[n].error is None and len(stacked[n].records) == 17


def test_non_finite_start_aborts_every_member():
    circuit, cost, _ = experiment()
    stacked = optimizer.run(circuit, cost, STACK, np.array([np.nan, 0.0, 0.0]), max_steps=5)
    assert [t.error for t in stacked] == ["NumericalError: non-finite theta at step 0"] * len(STACK)


@pytest.mark.parametrize("name", ["single-qubit", "two-qubit", "three-qubit-heisenberg"])
def test_stacked_cost_and_steps_are_single_calls(name):
    circuit, cost, theta0 = experiment(name)
    rng = np.random.default_rng(5)
    theta = theta0 + rng.normal(scale=0.5, size=(4, theta0.size))
    rho, derivs = states.evaluate(circuit, theta), states.derivatives(circuit, theta)
    value, grad = optimizer.cost_and_gradient(cost, rho, derivs)
    assert value.shape == (4,) and grad.shape == theta.shape
    a = rng.normal(size=(4, theta0.size, theta0.size))
    G = a @ a.swapaxes(-1, -2) + np.eye(theta0.size)
    for n in range(4):
        single_value, single_grad = optimizer.cost_and_gradient(cost, rho[n], derivs[n])
        assert single_value == value[n] and single_grad.tobytes() == grad[n].tobytes()
    for step, option in ((optimizer.step_lr, 1e-3), (optimizer.step_trust, 1e-6)):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            dtheta = step(G, grad, option)
        assert dtheta.shape == grad.shape and dtheta.any(axis=1).all()  # every member moves
        for n in range(4):
            assert step(G[n], grad[n], option).tobytes() == dtheta[n].tobytes()
        # a strided gradient steps as its contiguous copy
        strided = np.empty((4, 2 * theta0.size))[:, ::2]
        strided[...] = grad
        assert step(G, strided, option).tobytes() == dtheta.tobytes()
