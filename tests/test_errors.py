"""Every exception the package raises is one of its own error classes, and
extreme inputs give a package error or finite values, never a warning."""

import ast
import pathlib
import warnings

import numpy as np
import pytest

import qngm
from qngm import classical, cli, divergence, errors, optimizer, petz, states
from qngm.errors import DomainError, NumericalError, QngmError

SOURCE = pathlib.Path(qngm.__file__).parent
# a module's __getattr__ must raise AttributeError for a missing name
EXEMPT = {("__init__.py", "AttributeError")}


def raised_classes():
    """(file, line, raised expression) for every raise with an exception in the package."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.name, node.lineno, ast.unparse(exc)


def test_every_raise_is_a_package_error():
    own = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    found = list(raised_classes())
    assert len(found) > 50  # the walk reached the package's raises
    stray = [(f, n, name) for f, n, name in found if name not in own and (f, name) not in EXEMPT]
    assert stray == []


def _circuit():
    return cli.build_experiment(cli.ExperimentConfig(experiment="single-qubit"))[0]


def _st_over_the_float_range(alpha):
    """f over t in [1e-300, 1e300], checked against t f(1/t) where f(t) and f(1/t) are normal."""
    t = np.logspace(-300, 300, 1201)
    f = petz.standard(alpha)
    value, mirror = petz.evaluate(f, t), petz.evaluate(f, 1.0 / t)
    tiny = np.finfo(float).tiny
    normal = (tiny <= value) & (value < np.inf) & (tiny <= mirror) & (mirror < np.inf)
    assert normal.sum() > 300  # the comparison is not vacuous
    np.testing.assert_allclose(value[normal], t[normal] * mirror[normal], rtol=1e-12, atol=0.0)
    return value


def _steps_1e300_lr():
    dtheta = optimizer.step_lr(np.eye(2), np.array([1e300, 1.0]), 1e-3)
    assert dtheta.tolist() == [-1e297, -1e-3]
    return dtheta


# rescaled Renyi divergence of P_FAR from Q_FAR, frozen with a 40-digit mpmath sum
P_FAR, Q_FAR = np.array([0.5, 0.5]), np.array([0.3, 0.7])
RENYI_FAR = {
    1000.0: 5.1013178274440919338e-4,
    1e4: 5.1075630211576970358e-5,
    1e300: 5.1082562376599072021e-301,
    -1e300: 3.3647223662121286706e-301,
}


def _classical_far(alpha):
    return classical.renyi(P_FAR, Q_FAR, alpha)


def _standard_far(alpha):
    return divergence.standard_renyi(np.diag(P_FAR), np.diag(Q_FAR), alpha)


def _renyi_far(fn, alpha):
    value = fn(alpha)
    assert value == pytest.approx(RENYI_FAR[alpha], rel=1e-12, abs=0.0)
    return value


THETA_BAD = ([np.inf, 0.0, 0.0], [0.0, np.nan, 0.0], [[0.0, 0.0, 0.0], [0.0, 0.0, -np.inf]])

# (call, the QngmError it raises or None for finite values)
EXTREMES = [
    pytest.param(_steps_1e300_lr, None, id="step_lr-1e300"),
    pytest.param(
        lambda: optimizer.step_trust(np.eye(2), np.array([1e300, 1.0]), 1e-6),
        NumericalError,
        id="step_trust-1e300",
    ),
    pytest.param(
        lambda: optimizer.step_trust(np.eye(2)[None], np.array([[1.0, 1e300]]), 1e-6),
        NumericalError,
        id="step_trust-stack-1e300",
    ),
    pytest.param(
        lambda: optimizer.step_trust(np.eye(2), np.zeros(2), 1e-6),
        NumericalError,
        id="step_trust-0",
    ),
    *[
        pytest.param(
            lambda fn=fn, theta=theta: fn(_circuit(), np.array(theta)),
            NumericalError,
            id=f"{fn.__name__}-{i}",
        )
        for fn in (states.evaluate, states.derivatives, states.gate_unitary)
        for i, theta in enumerate(THETA_BAD)
    ],
    *[
        pytest.param(lambda a=a: _st_over_the_float_range(a), None, id=f"st:{a:g}")
        for a in (0.5, 2.0, -1.0, 3.0)
    ],
    *[
        pytest.param(
            lambda a=a: divergence.alpha_divergence_F(a)(petz.default_grid()),
            DomainError,
            id=f"alpha_divergence_F-{a:g}",
        )
        for a in (1e200, -1e200, np.nan, np.inf, -np.inf)
    ],
    pytest.param(
        lambda: divergence.f_divergence_consistency(1e200), DomainError, id="f_divergence-1e200"
    ),
    *[
        pytest.param(
            lambda a=a: divergence.f_divergence_consistency(a),
            DomainError,
            id=f"f_divergence-{a:g}",
        )
        for a in (1000.0, -1000.0)
    ],
    *[
        pytest.param(lambda a=a, fn=fn: _renyi_far(fn, a), None, id=f"{name}-{a:g}")
        for name, fn in (("renyi", _classical_far), ("standard_renyi", _standard_far))
        for a in RENYI_FAR
    ],
    *[
        pytest.param(
            lambda a=a: divergence.sandwiched_renyi(np.diag(P_FAR), np.diag(Q_FAR), a),
            NumericalError,
            id=f"sandwiched_renyi-{a:g}",
        )
        for a in (1e4, 1e300, -1e300)
    ],
]


@pytest.mark.parametrize("call, error", EXTREMES)
def test_an_extreme_input_gives_a_package_error_or_finite_values(call, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except QngmError as exc:
            assert type(exc) is error
        else:
            assert error is None and np.isfinite(result).all()
    assert [str(w.message) for w in caught] == []
