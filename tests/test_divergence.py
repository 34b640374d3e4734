from functools import partial

import numpy as np
import pytest

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
    div = lambda t: 0.5 * float(t @ H @ t)
    np.testing.assert_allclose(divergence.fd_hessian(div, np.zeros(2), h=1e-3), H, atol=1e-9)
