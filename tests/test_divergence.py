from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qngm import classical, divergence, petz, qfim, states
from qngm.errors import RankDeficientError, ShapeMismatchError, ValidationError

KINDS = {
    "qkl": divergence.quantum_kl,
    "sw:0.3": partial(divergence.sandwiched_renyi, alpha=0.3),
    "sw:-0.5": partial(divergence.sandwiched_renyi, alpha=-0.5),
    "sw:2": partial(divergence.sandwiched_renyi, alpha=2.0),
    "st:0.5": partial(divergence.standard_renyi, alpha=0.5),
    "st:2": partial(divergence.standard_renyi, alpha=2.0),
}


def random_state(rng, dim, floor=0.05):
    return qfim.random_density(rng, dim, floor=floor)


def test_zero_at_coincidence():
    rng = np.random.default_rng(0)
    for dim in (2, 4):
        rho = random_state(rng, dim)
        for kind, div in KINDS.items():
            assert abs(div(rho, rho)) < 1e-10, kind


def test_classical_reduction_on_commuting_pair():
    p = np.array([0.2, 0.35, 0.45])
    q = np.array([0.5, 0.2, 0.3])
    rho_bar, rho = np.diag(p).astype(complex), np.diag(q).astype(complex)
    assert divergence.quantum_kl(rho_bar, rho) == pytest.approx(classical.kl(p, q), abs=1e-12)
    for alpha in (0.3, 2.0, -0.5):
        expected = classical.renyi(p, q, alpha)
        assert divergence.standard_renyi(rho_bar, rho, alpha) == pytest.approx(expected, abs=1e-12)
        assert divergence.sandwiched_renyi(rho_bar, rho, alpha) == pytest.approx(
            expected, abs=1e-12
        )


def test_sandwiched_kl_limit():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho_bar, rho = random_state(rng, 2), random_state(rng, 2)
        ref = divergence.quantum_kl(rho_bar, rho)
        for alpha in (1.0 + 1e-6, 1.0 - 1e-6):
            assert abs(divergence.sandwiched_renyi(rho_bar, rho, alpha) - ref) < 1e-5
            assert abs(divergence.standard_renyi(rho_bar, rho, alpha) - ref) < 1e-5


def test_nonnegativity_random_pairs():
    rng = np.random.default_rng(2)
    for dim in (2, 4):
        for _ in range(500):
            rho_bar, rho = random_state(rng, dim), random_state(rng, dim)
            for kind, div in KINDS.items():
                assert div(rho_bar, rho) >= -1e-10, kind


def test_data_processing_quantum_kl():
    rng = np.random.default_rng(3)
    for i in range(50):
        rho_bar, rho = random_state(rng, 2), random_state(rng, 2)
        kraus = qfim.haar_random_kraus(rng, 2)
        before = divergence.quantum_kl(rho_bar, rho)
        after = divergence.quantum_kl(
            sum(k @ rho_bar @ k.conj().T for k in kraus),
            sum(k @ rho @ k.conj().T for k in kraus),
        )
        assert after <= before + 1e-9, i


def test_f_divergence_matches_alpha_divergence_trace():
    # D_F with the alpha kernel reproduces the closed-form trace expression
    rng = np.random.default_rng(4)
    alpha = 0.3
    rho_bar, rho = random_state(rng, 2), random_state(rng, 2)
    F = divergence.alpha_divergence_F(alpha)
    value = divergence.f_divergence(rho_bar, rho, F)
    wb, vb = np.linalg.eigh(rho_bar)
    w, v = np.linalg.eigh(rho)
    a = (vb * wb ** ((1 + alpha) / 2)) @ vb.conj().T
    b = (v * w ** ((1 - alpha) / 2)) @ v.conj().T
    expected = 4.0 / (1 - alpha**2) * (1.0 - np.trace(a @ b).real)
    assert value == pytest.approx(expected, abs=1e-12)


def test_f_divergence_consistency():
    for alpha in (-0.5, 0.0, 0.5, 1.0, 3.0):
        assert divergence.f_divergence_consistency(alpha) < 1e-10, alpha


def test_rank_deficient_rejected():
    pure = states.bloch_state(0.0, 0.0, 1.0)
    mixed = np.eye(2, dtype=complex) / 2
    with pytest.raises(RankDeficientError):
        divergence.quantum_kl(pure, mixed)
    with pytest.raises(RankDeficientError):
        divergence.sandwiched_renyi(mixed, pure, 0.5)
    with pytest.raises(ShapeMismatchError):
        divergence.quantum_kl(mixed, np.eye(4, dtype=complex) / 4)


def test_fidelity_and_distances():
    rng = np.random.default_rng(5)
    rho = random_state(rng, 2)
    assert divergence.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert divergence.bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)
    assert divergence.bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)

    up, down = states.bloch_state(0, 0, 1), states.bloch_state(0, 0, -1)
    assert divergence.fidelity(up, down) == pytest.approx(0.0, abs=1e-12)
    assert divergence.bures_distance(up, down) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert divergence.bures_angle(up, down) == pytest.approx(np.pi / 2, abs=1e-12)

    p, q = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    fid = divergence.fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert fid == pytest.approx(np.sum(np.sqrt(p * q)) ** 2, abs=1e-12)


def test_bures_angle_equals_fubini_study_for_pure():
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        angle = divergence.bures_angle(
            np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2,
            np.outer(phi, phi.conj()) / np.linalg.norm(phi) ** 2,
        )
        assert angle == pytest.approx(divergence.fubini_study(psi, phi), abs=1e-7)
    # unnormalized kets are normalized by the formula
    assert divergence.fubini_study([2.0, 0.0], [0.0, 3.0]) == pytest.approx(np.pi / 2)


def test_bures_angle_distance_small_separation():
    rng = np.random.default_rng(7)
    count = 0
    for _ in range(200):
        rho = random_state(rng, 2)
        sigma = 0.98 * rho + 0.02 * random_state(rng, 2)
        dist = divergence.bures_distance(rho, sigma)
        if dist >= 0.1 or dist < 1e-4:
            continue
        count += 1
        angle = divergence.bures_angle(rho, sigma)
        assert abs(angle - dist) <= dist**3 / 10.0
    assert count > 20


def test_fd_hessian_step_validation():
    with pytest.raises(ValidationError):
        divergence.fd_hessian(lambda t: 0.0, np.zeros(2), h=1e-5)


def test_paired_divergence_needs_a_renyi_index():
    with pytest.raises(ValidationError, match="no divergence pairing"):
        divergence.paired_divergence(petz.linear(0.3, petz.RRLD, petz.SLD))


def test_fd_hessian_quadratic_exact():
    # on an exactly quadratic divergence the stencil recovers the Hessian
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    div = lambda t: 0.5 * np.sum((t @ H) * t, axis=-1)
    np.testing.assert_allclose(divergence.fd_hessian(div, np.zeros(2), h=1e-3), H, atol=1e-9)


def test_fd_hessian_calls_div_once_on_the_whole_stencil():
    shapes = []

    def div(points):
        shapes.append(points.shape)
        return np.zeros(len(points))

    divergence.fd_hessian(div, np.zeros(3))
    assert shapes == [(2 * 3 + 3 * 4, 3)]


@pytest.mark.parametrize(
    "div",
    [
        lambda t: 0.0,  # a callable of one point, summing the stencil away
        lambda t: np.zeros(len(t) - 1),
        lambda t: np.zeros((len(t), 1)),
        lambda t: np.zeros((1, len(t))),
    ],
)
def test_fd_hessian_refuses_a_result_of_the_wrong_shape(div):
    with pytest.raises(ValidationError, match=r"for 10 stencil points, expected \(10,\)"):
        divergence.fd_hessian(div, np.zeros(2))


def _loop_fd_hessian(div, theta, h):
    """The per-point stencil loop: the reference that ``fd_hessian`` must match bit for bit."""
    n = theta.size
    single = np.empty((n, 2))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        single[i, 0] = div(theta + e)
        single[i, 1] = div(theta - e)
    hess = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros(n)
            e[i] += h
            e[j] += h
            pair = div(theta + e) + div(theta - e)
            hess[i, j] = hess[j, i] = (
                pair - single[i, 0] - single[i, 1] - single[j, 0] - single[j, 1]
            ) / (2.0 * h * h)
    return 0.5 * (hess + hess.T)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 4)),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(("sld", "bkm", "rrld", "sw:0.3", "sw:-1", "st:0.5", "st:2")),
    st.sampled_from((1e-4, 1e-3, 1e-2)),
)
def test_fd_hessian_is_the_per_point_loop(dim, n, seed, spec, h):
    rng = np.random.default_rng(seed)
    rho = qfim.random_density(rng, dim, floor=0.2)
    family = states.linear_family(rho, [qfim.random_tangent(rng, dim) for _ in range(n)])
    div = divergence.paired_divergence(petz.parse(spec))
    theta = rng.uniform(-0.01, 0.01, size=n)
    anchor = family(theta)
    stacked = divergence.fd_hessian(lambda u: div(family(u), anchor), theta, h)
    loop = _loop_fd_hessian(lambda u: div(family(u), anchor), theta, h)
    assert stacked.tobytes() == loop.tobytes()


def _stacked_divergences(alpha):
    return {
        "quantum_kl": divergence.quantum_kl,
        "standard_renyi": partial(divergence.standard_renyi, alpha=alpha),
        "sandwiched_renyi": partial(divergence.sandwiched_renyi, alpha=alpha),
        "f_divergence": partial(divergence.f_divergence, F=divergence.alpha_divergence_F(alpha)),
        "fidelity": divergence.fidelity,
        "bures_angle": divergence.bures_angle,
        "bures_distance": divergence.bures_distance,
    }


ALPHAS = st.one_of(
    st.sampled_from((1.0, 1.0 + 1e-9, 0.5, 2.0, -1.0)),
    st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 0.05),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((2, 4)),
    st.sampled_from(((1,), (5,), (2, 3))),
    st.integers(0, 2**32 - 1),
    ALPHAS,
)
def test_a_stack_gives_each_member_the_bits_of_its_single_call(dim, shape, seed, alpha):
    rng = np.random.default_rng(seed)
    rho = random_state(rng, dim)
    # the anchor itself, states near it as on a stencil, and unrelated states
    tangents = [qfim.random_tangent(rng, dim) for _ in range(2)]
    near = states.linear_family(rho, tangents)(rng.uniform(-2e-3, 2e-3, size=(*shape, 2)))
    far = qfim._density(qfim._complex(rng.normal(size=(*shape, 2, dim, dim))), 0.05)
    for stack in (near, far, np.broadcast_to(rho, (*shape, dim, dim))):
        members = stack.reshape(-1, dim, dim)
        for name, div in _stacked_divergences(alpha).items():
            values = div(stack, rho)
            singles = [div(member, rho) for member in members]
            assert all(type(value) is float for value in singles), name
            assert values.shape == shape, name
            assert values.tobytes() == np.array(singles).reshape(shape).tobytes(), name


def test_the_anchor_is_one_state_and_every_member_is_checked():
    rng = np.random.default_rng(8)
    rho = random_state(rng, 2)
    pure = states.bloch_state(0.0, 0.0, 1.0)
    for div in _stacked_divergences(0.5).values():
        with pytest.raises(ShapeMismatchError):
            div(rho, np.stack([rho, rho]))
        with pytest.raises(ShapeMismatchError):
            div(np.stack([rho, rho]), random_state(rng, 4))
    for name in ("quantum_kl", "standard_renyi", "sandwiched_renyi", "f_divergence"):
        with pytest.raises(RankDeficientError):
            _stacked_divergences(0.5)[name](np.stack([rho, pure]), rho)


@pytest.mark.parametrize(
    "renyi",
    [
        classical.renyi,
        lambda p, q, a: divergence.standard_renyi(p[..., None] * np.eye(2), np.diag(q), a),
    ],
    ids=["classical", "standard"],
)
def test_a_renyi_sum_past_the_float_range_is_taken_in_logs(renyi):
    # the first member's sum overflows at alpha = 1000, the second's does not; values frozen
    # with a 40-digit mpmath sum
    p, q = np.array([[0.5, 0.5], [0.31, 0.69]]), np.array([0.3, 0.7])
    stack = renyi(p, q, 1000.0)
    want = [5.1013178274440919338e-4, 3.1617467486151115446e-5]
    np.testing.assert_allclose(stack, want, rtol=1e-12)
    for member, value in zip(p, stack):
        assert np.float64(renyi(member, q, 1000.0)).tobytes() == value.tobytes()
