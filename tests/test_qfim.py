import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qngm import classical, cli, divergence, petz, qfim, states
from qngm.errors import (
    MetricUndefinedError,
    NumericalError,
    QngmError,
    ShapeMismatchError,
    ValidationError,
)

FAMILIES = [
    petz.SLD,
    petz.BKM,
    petz.RRLD,
    petz.HALF,
    petz.sandwiched(0.1),
    petz.sandwiched(2.0),
    petz.sandwiched(-1.0),
    petz.standard(0.5),
]


def experiment_circuit():
    return states.CircuitState(1, states.bloch_state(0.5, 0, 0), states.r3_gates(0, 0), 3)


def test_maximally_mixed_closed_form():
    rng = np.random.default_rng(0)
    xs = [qfim.random_tangent(rng, 2) for _ in range(3)]
    g = qfim.metric(np.eye(2, dtype=complex) / 2, xs, petz.sandwiched(0.3))
    expected = 2.0 * np.array([[np.trace(a @ b).real for b in xs] for a in xs])
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_metric_matches_divergence_hessian():
    rng = np.random.default_rng(1)
    for dim in (2, 4):
        for f in FAMILIES:
            rho = qfim.random_density(rng, dim, floor=0.2)
            tangents = [qfim.random_tangent(rng, dim) for _ in range(2)]
            family = states.linear_family(rho, tangents)
            div = divergence.paired_divergence(f)
            hess = divergence.fd_hessian(lambda u: div(family(u), rho), np.zeros(2), h=1e-3)
            g = qfim.metric(rho, tangents, f)
            rel = np.linalg.norm(hess - g) / np.linalg.norm(g)
            assert rel < 1e-3, (dim, str(f), rel)


def _support_power(m, c, rank):
    """m^c for c > 0 on the top-``rank`` eigenspace of m, with 0^c = 0 on the rest.

    m may be a stack, whose members are taken one by one.
    """
    w, v = np.linalg.eigh(m)
    w[..., :-rank] = 0.0
    return (v * w[..., None, :] ** c) @ v.conj().swapaxes(-1, -2)


def _support_renyi(family, rho_bar, rho, a, rank):
    """The rescaled Renyi divergence of ``divergence`` for two states of the given rank.

    rho_bar may be a stack, which gives one value per member.
    """
    if family == "sandwiched":  # the core's spectrum from singular values, as the library does
        core = _support_power(rho, (1.0 - a) / (2.0 * a), rank) @ _support_power(rho_bar, 0.5, rank)
        tr = np.sum(np.linalg.svd(core, compute_uv=False)[..., :rank] ** (2.0 * a), axis=-1)
    else:
        product = _support_power(rho_bar, a, rank) @ _support_power(rho, 1.0 - a, rank)
        tr = np.trace(product, axis1=-2, axis2=-1).real
    return np.log(tr) / (a * (a - 1.0))


# below a ~ 0.1 the sandwiched core's eigenvalues p^(1/a) fall under the
# double-precision resolution of the oracle itself
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(0.15, 0.95), st.data())
def test_rank_deficient_metric_is_the_renyi_hessian(dim, seed, a, data):
    # on a state of rank r < d, the metric's p f(0) continuation is the coincidence
    # Hessian of the paired divergence along the unitary orbit of the state
    rank = data.draw(st.integers(1, dim - 1))
    rng = np.random.default_rng(seed)
    p = np.zeros(dim)
    p[dim - rank :] = 0.05 + (1.0 - 0.05 * rank) * rng.dirichlet(np.ones(rank))
    u = qfim.haar_random_kraus(rng, dim, n_kraus=1)[0]
    rho = (u * p) @ u.conj().T
    hs = [qfim.random_tangent(rng, dim) for _ in range(2)]
    tangents = [-1j * (h @ rho - rho @ h) for h in hs]

    def orbit(theta):  # e^{-iH} rho e^{iH} with H = theta_1 H_1 + theta_2 H_2, for a stack of theta
        w, v = np.linalg.eigh(np.tensordot(theta, hs, axes=1))
        unitary = (v * np.exp(-1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return unitary @ rho @ unitary.conj().swapaxes(-1, -2)

    for f, family in ((petz.sandwiched(a), "sandwiched"), (petz.standard(a), "standard")):
        g = qfim.metric(rho, tangents, f)
        div = lambda theta: _support_renyi(family, orbit(theta), rho, a, rank)
        hess = divergence.fd_hessian(div, np.zeros(2), h=1e-3)
        rel = np.linalg.norm(hess - g) / np.linalg.norm(g)
        assert rel < 1e-4, (str(f), rel)
    for f in (petz.BKM, petz.RRLD, petz.HALF, petz.sandwiched(2.0)):  # f(0) = 0
        with pytest.raises(MetricUndefinedError):
            qfim.metric(rho, tangents, f)


def test_experiment_state_sld_vs_sandwiched_half_hessian():
    circ = experiment_circuit()
    theta0 = np.array([np.pi / 2, np.pi / 2, np.pi / 4])
    rho = states.evaluate(circ, theta0)
    g = qfim.metric(rho, states.derivatives(circ, theta0), petz.SLD)
    div = lambda theta: divergence.sandwiched_renyi(states.evaluate(circ, theta), rho, 0.5)
    hess = divergence.fd_hessian(div, theta0, h=1e-3)
    assert np.linalg.norm(hess - g) / np.linalg.norm(g) < 1e-3


def test_metric_order_transfer():
    ordered = []
    for f in FAMILIES:
        for g in FAMILIES:
            if f is not g and petz.compare(f, g) is petz.Order.LESS:
                ordered.append((f, g))
    assert ordered
    rng = np.random.default_rng(2)
    for _ in range(25):
        for dim in (2, 4):
            rho = qfim.random_density(rng, dim, floor=0.1)
            tangents = [qfim.random_tangent(rng, dim) for _ in range(2)]
            mats = {str(f): qfim.metric(rho, tangents, f) for f in FAMILIES}
            for f, g in ordered:
                delta = mats[str(f)] - mats[str(g)]
                assert np.linalg.eigvalsh(delta).min() >= -1e-9
                delta_diag = qfim.diagonal(mats[str(f)]) - qfim.diagonal(mats[str(g)])
                assert np.linalg.eigvalsh(delta_diag).min() >= -1e-9


def test_classical_reduction():
    p = np.array([0.2, 0.3, 0.5])
    rho = np.diag(p).astype(complex)
    # coordinate tangents of the free-probability parameterization
    tangents = [np.diag([1.0, 0.0, -1.0]).astype(complex), np.diag([0.0, 1.0, -1.0]).astype(complex)]
    expected = classical.fisher(p)
    for f in FAMILIES:
        np.testing.assert_allclose(qfim.metric(rho, tangents, f), expected, atol=1e-10)


def test_metric_realness_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = qfim.random_density(rng, 4, floor=0.05)
        tangents = [qfim.random_tangent(rng, 4) for _ in range(3)]
        g = qfim.metric(rho, tangents, petz.sandwiched(-0.5))
        assert g.dtype == np.float64
        np.testing.assert_allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() >= -1e-8


def test_metric_pure_factors():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    dpsi = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    d = np.column_stack(dpsi)
    a = psi.conj() @ d
    qgt = (d.conj().T @ d).real - np.outer(a, a.conj()).real

    g_sld = qfim.metric_pure(psi, dpsi, petz.SLD)
    np.testing.assert_allclose(g_sld, 4.0 * 0.5 * (qgt + qgt.T), atol=1e-12)
    np.testing.assert_allclose(
        qfim.metric_pure(psi, dpsi, petz.ZERO_PLUS), 0.5 * g_sld, atol=1e-12
    )
    # proportionality f2(0)/f1(0) for admissible pairs
    admissible = [petz.SLD, petz.ZERO_PLUS, petz.sandwiched(0.25), petz.standard(0.5)]
    mats = {str(f): (qfim.metric_pure(psi, dpsi, f), petz.eval_zero(f)) for f in admissible}
    for f1 in admissible:
        for f2 in admissible:
            g1, z1 = mats[str(f1)]
            g2, z2 = mats[str(f2)]
            np.testing.assert_allclose(g1 * z1, g2 * z2, atol=1e-10)


def test_metric_pure_gauge_direction():
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    g = qfim.metric_pure(psi, [1j * psi], petz.SLD)
    assert abs(g[0, 0]) < 1e-14


def test_metric_pure_agrees_with_rank_deficient_metric():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    dpsi = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2)]
    # project out the norm-changing component so the family stays normalized
    dpsi = [d - psi * (psi.conj() @ d).real for d in dpsi]
    rho = np.outer(psi, psi.conj())
    tangents = [np.outer(d, psi.conj()) + np.outer(psi, d.conj()) for d in dpsi]
    for f in (petz.SLD, petz.sandwiched(0.3), petz.ZERO_PLUS):
        g_mixed = qfim.metric(rho, tangents, f)
        g_pure = qfim.metric_pure(psi, dpsi, f)
        np.testing.assert_allclose(g_mixed, g_pure, atol=1e-9)


def test_metric_undefined_and_kernel_checks():
    pure = states.bloch_state(0.0, 0.0, 1.0)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # valid pure-state tangent
    assert qfim.metric(pure, [x], petz.SLD)[0, 0] > 0
    with pytest.raises(MetricUndefinedError):
        qfim.metric(pure, [x], petz.BKM)
    bad = np.diag([1.0, -1.0]).astype(complex)  # nonzero kernel/kernel block
    with pytest.raises(NumericalError):
        qfim.metric(pure, [bad], petz.SLD)


def test_diagonal_and_regularize():
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(qfim.diagonal(g), [[2.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(qfim.regularize_metric(g, 0.0), g)
    np.testing.assert_allclose(qfim.regularize_metric(g, 1.0), np.eye(2))
    w = np.linalg.eigvalsh(qfim.regularize_metric(g, 0.25))
    np.testing.assert_allclose(w, 0.75 * np.linalg.eigvalsh(g) + 0.25)


def test_apply_channel():
    rng = np.random.default_rng(6)
    rho = qfim.random_density(rng, 2)
    xs = [qfim.random_tangent(rng, 2) for _ in range(2)]
    out, pushed = qfim.apply_channel([np.eye(2, dtype=complex)], rho, xs)
    np.testing.assert_allclose(out, rho)
    for a, b in zip(pushed, xs):
        np.testing.assert_allclose(a, b)

    out, pushed = qfim.apply_channel(qfim.depolarizing_kraus(1.0), rho, xs)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)
    for x in pushed:
        assert np.abs(x).max() < 1e-12

    kraus = qfim.haar_random_kraus(rng, 4, n_kraus=3)
    out, pushed = qfim.apply_channel(kraus, qfim.random_density(rng, 4), [qfim.random_tangent(rng, 4)])
    states.check_density(out)
    assert abs(np.trace(pushed[0])) < 1e-12
    assert qfim.apply_channel(kraus, out, [])[1].shape == (0, 4, 4)


def test_check_kraus_rejects_incomplete():
    with pytest.raises(ShapeMismatchError):
        qfim.check_kraus([0.5 * np.eye(2, dtype=complex)])


def test_check_kraus_rejects_nan():
    with pytest.raises(ShapeMismatchError):
        qfim.check_kraus([np.full((2, 2), np.nan)])
    with pytest.warns(RuntimeWarning, match="invalid value"):
        kraus = qfim.depolarizing_kraus(2.0)  # sqrt(1 - 3p/4) of a negative number
    rng = np.random.default_rng(0)
    rho, x = qfim.random_density(rng, 2), qfim.random_tangent(rng, 2)
    with pytest.raises(ShapeMismatchError):
        qfim.apply_channel(kraus, rho, [x])


@pytest.mark.parametrize("xi", [-0.1, 1.5, np.nan])
def test_regularize_metric_rejects_xi_outside_the_unit_interval(xi):
    with pytest.raises(ValidationError, match="xi"):
        qfim.regularize_metric(np.eye(2), xi)


def test_monotone_probe_contracts():
    for f in (petz.SLD, petz.RRLD):
        result = qfim.monotonicity_probe(f, 200, seed=12345)
        assert result.max_violation <= 1e-9
        assert result.witness is None


def test_non_monotone_witness_found():
    result = qfim.monotonicity_probe(petz.sandwiched(0.25), 200, seed=12345)
    assert result.witness is not None
    assert result.witness.violation > 1e-6
    w = result.witness
    # the witness replays: rebuild both metric values from the stored triple
    before = qfim.metric(w.rho, [w.tangent], petz.sandwiched(0.25))[0, 0]
    rho_out, pushed = qfim.apply_channel(w.kraus, w.rho, [w.tangent])
    after = qfim.metric(rho_out, pushed, petz.sandwiched(0.25))[0, 0]
    assert after - before == pytest.approx(w.violation, rel=1e-12)


def test_metric_diagonalises_the_state_once(monkeypatch):
    rng = np.random.default_rng(4)
    rho = qfim.random_density(rng, 4)
    tangents = [qfim.random_tangent(rng, 4) for _ in range(3)]
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
        )
    qfim.metric(rho, tangents, petz.SLD)
    assert calls == ["eigh"]


def _alpha(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_FUNCTIONS = st.recursive(
    st.one_of(
        st.sampled_from(
            [petz.SLD, petz.BKM, petz.RRLD, petz.HALF, petz.ZERO_PLUS, petz.ZERO_MINUS, petz.INFINITY]
        ),
        _alpha(-5.0, 5.0).filter(lambda a: abs(a) >= petz.ALPHA_EPS).map(petz.sandwiched),
        _alpha(-3.0, 3.0).map(petz.standard),
    ),
    lambda inner: st.builds(petz.linear, _alpha(0.0, 1.0), inner, inner),
    max_leaves=3,
)
# (dimension, seed, number of tangents) of a random full-rank state and its tangents
_CASES = st.tuples(st.integers(2, 4), st.integers(0, 2**32 - 1), st.integers(1, 3))
# max|G| is 7.4e5 for st:-3, and G's imaginary rounding residue is 3.6e-10
_LARGE_METRIC_CASE = (4, 416472, 3)


def _state_and_tangents(dim, seed, k):
    rng = np.random.default_rng(seed)
    rho = qfim.random_density(rng, dim, floor=0.01)
    return rho, [qfim.random_tangent(rng, dim) for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(_FUNCTIONS, _CASES)
def test_metric_is_psd_for_operator_monotone_f(f, case):
    assume(petz.is_operator_monotone(f))
    rho, tangents = _state_and_tangents(*case)
    g = qfim.metric(rho, tangents, f)
    assert np.linalg.eigvalsh(g)[0] >= -1e-10 * max(1.0, np.abs(g).max())


@settings(max_examples=60, deadline=None)
@given(_FUNCTIONS, _CASES)
@example(petz.standard(-3.0), _LARGE_METRIC_CASE)
def test_metric_is_unitarily_covariant(f, case):
    rho, tangents = _state_and_tangents(*case)
    dim = rho.shape[0]
    rng = np.random.default_rng(case[1] + 1)
    u = qfim.haar_random_kraus(rng, dim, n_kraus=1)[0]  # a Haar-random unitary
    g = qfim.metric(rho, tangents, f)
    g_u = qfim.metric(u @ rho @ u.conj().T, [u @ x @ u.conj().T for x in tangents], f)
    np.testing.assert_allclose(g_u, g, rtol=1e-8, atol=1e-10 * np.abs(g).max())


def loop_metric(rho, tangents, f, rank_tol=qfim.RANK_TOL):
    """The metric as a loop over the K^2 tangent pairs, without the checks; the reference."""
    p, v = np.linalg.eigh(rho)
    small = p < rank_tol
    big = ~small
    pb = p[big]
    weights = np.zeros((p.size, p.size))
    weights[np.ix_(big, big)] = 1.0 / (pb[None, :] * petz.evaluate(f, pb[:, None] / pb[None, :]))
    if np.any(small):
        f0 = petz.eval_zero(f)
        weights[np.ix_(small, big)] = 1.0 / (pb[None, :] * f0)
        weights[np.ix_(big, small)] = 1.0 / (pb[:, None] * f0)
    basis = [v.conj().T @ x @ v for x in tangents]
    k = len(tangents)
    g = np.empty((k, k), dtype=complex)
    for m in range(k):
        bm = basis[m].T
        for n in range(m, k):
            bn = basis[n].T
            g[m, n] = np.sum(weights * bm * bn.conj())
            g[n, m] = np.conj(g[m, n])
    g = g.real
    return 0.5 * (g + g.T)


def _rank_deficient_state_and_tangents(dim, seed, k, rank):
    """rho of the given rank and tangents with a vanishing kernel/kernel block."""
    rng = np.random.default_rng(seed)
    u = qfim.haar_random_kraus(rng, dim, n_kraus=1)[0]
    p = np.zeros(dim)
    p[:rank] = rng.uniform(0.1, 1.0, size=rank)
    rho = (u * (p / p.sum())) @ u.conj().T
    tangents = []
    for _ in range(k):
        y = qfim.random_tangent(rng, dim)
        y[rank:, rank:] = 0.0
        tangents.append(u @ y @ u.conj().T)
    return rho, tangents


_POSITIVE_AT_ZERO = [f for f in FAMILIES + [petz.ZERO_PLUS] if petz.eval_zero(f) > 0.0]


@settings(max_examples=60, deadline=None)
@given(_FUNCTIONS, _CASES)
@example(petz.standard(-3.0), _LARGE_METRIC_CASE)
def test_metric_matches_the_pair_loop_on_full_rank_states(f, case):
    rho, tangents = _state_and_tangents(*case)
    g = qfim.metric(rho, tangents, f)
    np.testing.assert_allclose(g, loop_metric(rho, tangents, f), rtol=0, atol=1e-12 * np.abs(g).max())
    np.testing.assert_array_equal(qfim.metric(rho, np.stack(tangents), f), g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_POSITIVE_AT_ZERO), _CASES, st.integers(1, 3))
def test_metric_matches_the_pair_loop_on_rank_deficient_states(f, case, rank):
    dim, seed, k = case
    assume(rank < dim)
    rho, tangents = _rank_deficient_state_and_tangents(dim, seed, k, rank)
    g = qfim.metric(rho, tangents, f)
    np.testing.assert_allclose(g, loop_metric(rho, tangents, f), rtol=0, atol=1e-12 * np.abs(g).max())
    np.testing.assert_array_equal(qfim.metric(rho, np.stack(tangents), f), g)


def test_complex_metric_raises_at_any_scale():
    rho = states.bloch_state(0.3, 0.0, 0.2)
    x = states.SIGMA_X
    for scale in (1.0, 1e6):  # the anti-Hermitian 1j X makes G[0, 1] purely imaginary
        with pytest.raises(NumericalError, match="imaginary residue"):
            qfim.metric(rho, [scale * x, scale * 1j * x], petz.SLD)


def test_a_metric_that_is_not_finite_raises_without_a_warning():
    rho = np.diag([10.0, 1.0]).astype(complex) / 11.0
    x = states.SIGMA_X
    for f in (petz.standard(1e6), petz.standard(1e300)):  # f(10) underflows to 0, or is nan
        with pytest.raises(NumericalError, match=r"Petz value f\(t\) = .* not positive and finite"):
            qfim.metric(rho, [x], f)
    # st:300 is about 7e-294 at t = 10, so the weights are about 1e294 and G overflows
    with pytest.raises(NumericalError, match="metric is not finite"):
        qfim.metric(rho, [1e10 * x], petz.standard(300.0))
    with pytest.raises(NumericalError, match="metric is not finite"):
        qfim.metric(rho, [np.full((2, 2), np.inf)], petz.SLD)
    assert np.isfinite(qfim.metric(rho, [x], petz.standard(300.0))).all()


def test_metric_of_no_tangents_is_empty():
    rng = np.random.default_rng(7)
    for rho in (qfim.random_density(rng, 3), states.bloch_state(0.0, 0.0, 1.0)):
        dim = rho.shape[0]
        for tangents in ([], np.zeros((0, dim, dim), dtype=complex)):
            g = qfim.metric(rho, tangents, petz.SLD)
            assert g.shape == (0, 0) and g.dtype == np.float64


@pytest.mark.parametrize("f", [petz.SLD, petz.sandwiched(0.3), []])
@pytest.mark.parametrize("dim, k", [(2, 1), (4, 3), (3, 0)])
def test_metric_of_an_empty_stack_is_empty(f, dim, k):
    g = qfim.metric(np.zeros((0, dim, dim), dtype=complex), np.zeros((0, k, dim, dim)), f)
    assert g.shape == (0, k, k) and g.dtype == np.float64


def test_metric_rejects_a_bad_tangent_shape():
    rho = np.eye(2, dtype=complex) / 2
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for tangents in ([x, np.eye(3)], [x, x[0]], np.zeros((2, 3, 3))):
        with pytest.raises(ShapeMismatchError):
            qfim.metric(rho, tangents, petz.SLD)


# (dimension, number of tangents, one (seed, rank) per state); a rank >= dimension is full rank
_STACKS = st.tuples(
    st.integers(2, 4),
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 4)), min_size=1, max_size=5),
)


def _stack(dim, k, members):
    pairs = [
        _rank_deficient_state_and_tangents(dim, seed, k, rank)
        if rank < dim
        else _state_and_tangents(dim, seed, k)
        for seed, rank in members
    ]
    return np.stack([rho for rho, _ in pairs]), np.stack([np.stack(x) for _, x in pairs])


def _assert_stack_is_single_calls(rho, x, f):
    g = qfim.metric(rho, x, f)
    assert g.shape == x.shape[:2] + x.shape[1:2]
    for n in range(len(rho)):
        np.testing.assert_array_equal(g[n], qfim.metric(rho[n], x[n], f))


@settings(max_examples=60, deadline=None)
@given(_FUNCTIONS, _STACKS)
@example(petz.standard(-3.0), (4, 3, [(0, 4), (416472, 4)]))
def test_stacked_metric_is_single_calls_on_full_rank_stacks(f, case):
    dim, k, members = case
    _assert_stack_is_single_calls(*_stack(dim, k, [(seed, dim) for seed, _ in members]), f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([petz.SLD, petz.ZERO_PLUS]), _STACKS)
def test_stacked_metric_is_single_calls_on_mixed_rank_stacks(f, case):
    _assert_stack_is_single_calls(*_stack(*case), f)


def _bad_member(kind, dim, seed):
    """One (rho, tangents, f, error class) that the metric must reject."""
    rho, x = _state_and_tangents(dim, seed, 2)
    f = petz.SLD
    if kind == "not hermitian":
        rho = rho.copy()
        rho[0, 1] += 1e-6
        error = NumericalError
    elif kind == "trace":
        rho, error = 1.01 * rho, NumericalError
    elif kind == "negative eigenvalue":
        # -0.1 along a kernel direction that the tangents do not touch, so
        # that only the eigenvalue check can reject the member
        pure, x = _rank_deficient_state_and_tangents(dim, seed, 2, 1)
        kernel = np.linalg.eigh(pure)[1][:, 0]
        rho, error = 1.1 * pure - 0.1 * np.outer(kernel, kernel.conj()), NumericalError
    elif kind == "f(0) = 0":
        rho, x = _rank_deficient_state_and_tangents(dim, seed, 2, 1)
        f, error = petz.BKM, MetricUndefinedError
    else:  # tangents with a nonzero kernel/kernel block
        rho, _ = _rank_deficient_state_and_tangents(dim, seed, 2, 1)
        error = NumericalError
    return rho, np.stack(x), f, error


def _raised(call):
    with pytest.raises(QngmError) as info:
        call()
    return type(info.value)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["not hermitian", "trace", "negative eigenvalue", "f(0) = 0", "kernel block"]),
    _STACKS,
    st.data(),
)
def test_stack_with_one_bad_member_raises_as_the_single_call(kind, case, data):
    dim, _, members = case
    rho, x = _stack(dim, 2, [(seed, dim) for seed, _ in members])
    bad_rho, bad_x, f, error = _bad_member(kind, dim, members[0][0])
    j = data.draw(st.integers(0, len(members) - 1))
    rho[j], x[j] = bad_rho, bad_x
    assert _raised(lambda: qfim.metric(bad_rho, bad_x, f)) is error
    assert _raised(lambda: qfim.metric(rho, x, f)) is error


def loop_probe_triples(f, seed):
    """The former triple-at-a-time probe generator; the reference for the chunked one."""
    for i in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        rho = qfim.random_density(rng, 2)
        x = qfim.random_tangent(rng, 2)
        kind = rng.integers(0, 3)  # depolarizing, amplitude damping or Haar random
        if kind == 0:
            kraus = qfim.depolarizing_kraus(float(rng.uniform(0.0, 1.0)))
        elif kind == 1:
            kraus = qfim.amplitude_damping_kraus(float(rng.uniform(0.0, 1.0)))
        else:
            kraus = qfim.haar_random_kraus(rng, 2, n_kraus=2)
        before = qfim.metric(rho, [x], f)[0, 0]
        rho_out = sum(k @ rho @ k.conj().T for k in kraus)
        pushed = [sum(k @ x @ k.conj().T for k in kraus)]
        after = qfim.metric(rho_out, pushed, f)[0, 0]
        yield qfim.Witness(i, rho, x, kraus, before, after)


def triple_by_hand(seed, index):
    """Probe triple ``index``: its own generator, then the 2x2 arithmetic written out."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    x = 0.5 * (a + a.conj().T)
    x = x - np.trace(x) / 2 * np.eye(2)
    x = x / np.linalg.norm(x)
    kind = rng.integers(0, 3)
    if kind == 0:
        p = float(rng.uniform(0.0, 1.0))
        kraus = [np.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex)]
        kraus += [np.sqrt(p / 4.0) * s for s in (states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z)]
    elif kind == 1:
        g = float(rng.uniform(0.0, 1.0))
        kraus = [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - g)]], dtype=complex),
            np.array([[0.0, np.sqrt(g)], [0.0, 0.0]], dtype=complex),
        ]
    else:
        a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))
        kraus = [q[:2], q[2:]]
    return rho, x, kraus


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 10**6).filter(lambda start: start % qfim._CHUNK),
    st.integers(1, 40),
)
@example(seed=7, start=150, count=40)
@example(seed=3, start=2**32 - 30, count=40)  # spawn keys of one word, then of two
def test_each_chunk_member_is_its_own_triple(seed, start, count):
    rho, x, kraus, counts = qfim._draw_chunk(seed, start, count)
    assert rho.shape == x.shape == (count, 2, 2)
    assert kraus.shape == (count, 4, 2, 2) and counts.shape == (count,)
    for n in range(count):
        want_rho, want_x, want_kraus = triple_by_hand(seed, start + n)
        assert rho[n].tobytes() == want_rho.tobytes()
        assert x[n].tobytes() == want_x.tobytes()
        assert counts[n] == len(want_kraus)
        assert kraus[n, : counts[n]].tobytes() == np.stack(want_kraus).tobytes()
        assert not kraus[n, counts[n] :].any()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**256 - 1),
    st.one_of(st.integers(0, 2**40), st.integers(2**32 - 60, 2**32 + 5), st.integers(2**64 - 120, 2**64 - 61)),
    st.integers(1, 60),
)
@example(seed=10**40, start=2**32 - 30, count=60)
@example(seed=0, start=0, count=1)
def test_seed_states_are_numpy_seed_sequence_states(seed, start, count):
    words = qfim._seed_states(seed, start, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    for n in range(count):
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=(start + n,))
        assert words[n].tobytes() == sequence.generate_state(4, np.uint64).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_samplers_give_each_member_its_single_bits(dim, n_kraus, n, seed):
    rng = np.random.default_rng(seed)
    tall = qfim._complex(rng.normal(size=(n, 2, n_kraus * dim, dim)))
    square = tall[:, :dim]  # a strided stack, as the probe's chunks are
    params = rng.uniform(0.0, 1.0, size=n)
    stacks = [
        qfim._density(square),
        qfim._density(square, 0.2),
        qfim._tangent(square),
        qfim._haar_kraus(tall, n_kraus),
        qfim._depolarizing(params),
        qfim._amplitude_damping(params),
    ]
    for k in range(n):
        a, b = square[k].copy(), tall[k].copy()
        singles = [
            qfim._density(a),
            qfim._density(a, 0.2),
            qfim._tangent(a),
            qfim._haar_kraus(b, n_kraus),
            np.stack(qfim.depolarizing_kraus(float(params[k]))),
            np.stack(qfim.amplitude_damping_kraus(float(params[k]))),
        ]
        for stack, single in zip(stacks, singles):
            assert stack[k].shape == single.shape
            assert stack[k].tobytes() == single.tobytes()


@pytest.mark.parametrize("spec", ["sld", "rrld", "sw:0.25"])
def test_chunked_probe_matches_the_triple_loop(spec):
    f = petz.parse(spec)
    n = 250  # crosses two chunk boundaries
    pairs = zip(itertools.islice(qfim.probe_triples(f, 7), n), loop_probe_triples(f, 7))
    for got, want in pairs:
        assert got.index == want.index
        np.testing.assert_array_equal(got.rho, want.rho)
        np.testing.assert_array_equal(got.tangent, want.tangent)
        assert len(got.kraus) == len(want.kraus)
        for a, b in zip(got.kraus, want.kraus):
            np.testing.assert_array_equal(a, b)
        assert (got.before, got.after) == (want.before, want.after)


def _pure_at_150(draw):
    def draw_with_a_pure_state(seed, start, count):
        rho, x, kraus, counts = draw(seed, start, count)
        if start <= 150 < start + count:
            rho[150 - start] = states.bloch_state(0.0, 0.0, 1.0)
        return rho, x, kraus, counts

    return draw_with_a_pure_state


def test_probe_yields_every_triple_before_a_failing_one(monkeypatch):
    monkeypatch.setattr(qfim, "_draw_chunk", _pure_at_150(qfim._draw_chunk))
    triples = qfim.probe_triples(petz.BKM, 7)  # f(0) = 0: the pure state fails
    for got, want in zip(itertools.islice(triples, 150), loop_probe_triples(petz.BKM, 7)):
        assert (got.index, got.before, got.after) == (want.index, want.before, want.after)
    with pytest.raises(MetricUndefinedError):
        next(triples)


def _loop_probe(f, samples, seed):
    """The former monotonicity_probe: the first of equal maxima over the triple loop."""
    worst = max(itertools.islice(loop_probe_triples(f, seed), samples), key=lambda t: t.violation)
    return worst.violation, worst


def _assert_same_witness(got, want):
    assert got.index == want.index
    assert got.rho.tobytes() == want.rho.tobytes()
    assert got.tangent.tobytes() == want.tangent.tobytes()
    assert np.stack(got.kraus).tobytes() == np.stack(want.kraus).tobytes()
    assert (got.before, got.after) == (want.before, want.after)


@pytest.mark.parametrize("spec, seed", [("sld", 7), ("sw:0.25", 2)])  # sw:0.25 grows at 10
@pytest.mark.parametrize("samples", [1, 99, 100, 101, 250])
def test_monotonicity_probe_matches_the_triple_loop(spec, seed, samples):
    f = petz.parse(spec)
    got = qfim.monotonicity_probe(f, samples, seed)
    violation, worst = _loop_probe(f, samples, seed)
    assert np.float64(got.max_violation).tobytes() == np.float64(violation).tobytes()
    if violation > 0.0:
        _assert_same_witness(got.witness, worst)
    else:
        assert got.witness is None


def test_probe_raises_only_on_a_failing_triple_it_samples(monkeypatch):
    monkeypatch.setattr(qfim, "_draw_chunk", _pure_at_150(qfim._draw_chunk))
    got = qfim.monotonicity_probe(petz.BKM, 150, 7)  # f(0) = 0: the pure state fails
    violation, worst = _loop_probe(petz.BKM, 150, 7)
    assert np.float64(got.max_violation).tobytes() == np.float64(violation).tobytes()
    if violation > 0.0:
        _assert_same_witness(got.witness, worst)
    with pytest.raises(MetricUndefinedError):
        qfim.monotonicity_probe(petz.BKM, 151, 7)


@pytest.mark.parametrize(
    "samples, seed, name",
    [(0, 7, "samples"), (-2, 7, "samples"), (2.5, 7, "samples"), (10, -1, "seed"), (10, 1.5, "seed")],
)
def test_bad_probe_input_fails_before_any_draw(monkeypatch, samples, seed, name):
    calls = []
    monkeypatch.setattr(qfim, "_draw_chunk", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match=name):
        qfim.monotonicity_probe(petz.SLD, samples, seed)
    if name == "seed":
        with pytest.raises(ValidationError, match=name):
            qfim.probe_triples(petz.SLD, seed)
    assert calls == []


def test_first_witness_matches_the_triple_loop():
    f = petz.sandwiched(0.25)
    for seed in range(10):
        want = next(t for t in loop_probe_triples(f, seed) if t.violation > 0.0)
        assert cli.first_witness(seed).index == want.index


@settings(max_examples=60, deadline=None)
@given(_STACKS, st.data())
def test_stacked_metric_takes_one_function_per_member(case, data):
    dim, k, members = case
    rho, x = _stack(dim, k, [(seed, dim) for seed, _ in members])
    fs = data.draw(st.lists(_FUNCTIONS, min_size=len(members), max_size=len(members)))
    singles = []
    for n, f in enumerate(fs):
        try:
            singles.append(qfim.metric(rho[n], x[n], f))
        except QngmError as exc:
            singles.append(type(exc))
    errors = [s for s in singles if isinstance(s, type)]
    if errors:  # the stack raises as a member's single call does
        assert _raised(lambda: qfim.metric(rho, x, fs)) in errors
        return
    g = qfim.metric(rho, x, fs)
    for n, single in enumerate(singles):
        np.testing.assert_array_equal(g[n], single)


def test_per_member_functions_on_rank_deficient_stacks():
    members = [_rank_deficient_state_and_tangents(3, seed, 2, 1) for seed in (1, 2)]
    rho, x = np.stack([m[0] for m in members]), np.stack([np.stack(m[1]) for m in members])
    g = qfim.metric(rho, x, [petz.SLD, petz.ZERO_PLUS])
    np.testing.assert_array_equal(g[0], qfim.metric(rho[0], x[0], petz.SLD))
    np.testing.assert_array_equal(g[1], qfim.metric(rho[1], x[1], petz.ZERO_PLUS))
    # f(0) = 0 is rejected on the member that needs it, with that member's f(0)
    with pytest.raises(MetricUndefinedError, match=r"f\(0\) = 0.0;"):
        qfim.metric(rho, x, [petz.SLD, petz.BKM])
    # a full-rank member may have f(0) = 0 beside a rank-deficient one
    full, tangents = _state_and_tangents(3, 5, 2)
    rho[1], x[1] = full, np.stack(tangents)
    g = qfim.metric(rho, x, [petz.SLD, petz.BKM])
    np.testing.assert_array_equal(g[1], qfim.metric(full, tangents, petz.BKM))
    with pytest.raises(ShapeMismatchError):
        qfim.metric(rho, x, [petz.SLD])


def test_a_stack_evaluates_each_petz_kind_once(monkeypatch):
    calls = []
    for kind in ("sld", "sw"):
        entry = petz._KINDS[kind]

        def value(fs, t, u, kind=kind, inner=entry.value):
            calls.append((kind, len(fs)))
            return inner(fs, t, u)

        monkeypatch.setitem(petz._KINDS, kind, entry._replace(value=value))
    members = [_state_and_tangents(2, seed, 2) for seed in (1, 2, 3)]
    rho, x = np.stack([m[0] for m in members]), np.stack([np.stack(m[1]) for m in members])
    qfim.metric(rho[:2], x[:2], [petz.SLD, petz.sandwiched(0.3)])
    assert calls == [("sld", 1), ("sw", 1)]
    calls.clear()
    qfim.metric(rho, x, [petz.sandwiched(0.3), petz.SLD, petz.sandwiched(2.0)])
    assert sorted(calls) == [("sld", 1), ("sw", 2)]


def test_stacked_diagonal_and_regularize():
    g = np.array([[[2.0, -1.0], [-1.0, 2.0]], [[1.0, 0.5], [0.5, 3.0]]])
    for n in range(2):
        assert qfim.diagonal(g)[n].tobytes() == np.diag(np.diag(g[n])).tobytes()
        assert qfim.regularize_metric(g, 0.25)[n].tobytes() == qfim.regularize_metric(g[n], 0.25).tobytes()
