import numpy as np
import pytest

from qngm import linalg
from qngm.errors import NotHermitianError, ShapeMismatchError, SingularError


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def test_eig_identity():
    values, vectors = linalg.hermitian_eig(np.eye(2))
    np.testing.assert_allclose(values, [1.0, 1.0])
    assert np.abs(vectors.conj().T @ vectors - np.eye(2)).max() < 1e-12


def test_eig_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    values, vectors = linalg.hermitian_eig(sx)
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
    # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
    for col, expected in zip(vectors.T, ([1, -1], [1, 1])):
        e = np.array(expected) / np.sqrt(2)
        assert abs(abs(np.vdot(e, col)) - 1.0) < 1e-12


def test_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4, 8):
        for _ in range(10):
            m = random_hermitian(rng, dim)
            values, vectors = linalg.hermitian_eig(m)
            assert np.all(np.diff(values) >= 0)
            recon = (vectors * values) @ vectors.conj().T
            assert np.linalg.norm(recon - m) <= 1e-12 * np.linalg.norm(m)
            assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(dim)) <= 1e-12


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatchError):
        linalg.hermitian_eig(np.zeros((2, 3)))


def test_solve_sym_examples():
    np.testing.assert_allclose(linalg.solve_sym(np.eye(2), [1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_allclose(linalg.solve_sym(np.diag([2.0, 4.0]), [2.0, 4.0]), [1.0, 1.0])


def test_solve_sym_residual():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        g = a @ a.T + np.eye(5)
        b = rng.normal(size=5)
        x = linalg.solve_sym(g, b)
        assert np.linalg.norm(g @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_sym_errors():
    with pytest.raises(SingularError):
        linalg.solve_sym(np.diag([1.0, 0.0]), [1.0, 1.0])
    with pytest.raises(NotHermitianError):
        linalg.solve_sym(np.array([[1.0, 2.0], [0.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ShapeMismatchError):
        linalg.solve_sym(np.eye(2), [1.0, 2.0, 3.0])


def test_solve_sym_rejects_an_infinite_matrix():
    g = np.array([[1.0, np.inf], [np.inf, 1.0]])
    with pytest.raises(NotHermitianError):
        linalg.solve_sym(g, [1.0, 1.0])  # inf - inf leaves a nan residue, without a warning
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(g)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_an_empty_stack_gives_empty_results(dim):
    values, vectors = linalg.hermitian_eig(np.zeros((0, dim, dim), dtype=complex))
    assert values.shape == (0, dim) and vectors.shape == (0, dim, dim)
    x = linalg.solve_sym(np.zeros((0, dim, dim)), np.zeros((0, dim)))
    assert x.shape == (0, dim) and x.dtype == np.float64


def test_solve_sym_rejects_a_nan_matrix():
    g = np.full((2, 2), np.nan)
    with pytest.raises(NotHermitianError):
        linalg.solve_sym(g, [1.0, 1.0])
    with pytest.raises(NotHermitianError):
        linalg.solve_sym(np.stack([np.eye(2), g]), np.ones((2, 2)))
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(g)


def test_condition_number():
    assert linalg.condition_number(np.diag([1.0, 4.0])) == pytest.approx(4.0)
    assert linalg.condition_number(np.diag([0.0, 1.0])) == np.inf


def test_stacked_solve_and_condition_number_are_single_calls():
    rng = np.random.default_rng(4)
    for k in (1, 3, 9):
        a = rng.normal(size=(5, k, k))
        G = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(k)
        b = rng.normal(size=(5, k))
        x, cond = linalg.solve_sym(G, b), linalg.condition_number(G)
        assert x.shape == (5, k) and cond.shape == (5,)
        for n in range(5):
            assert linalg.solve_sym(G[n], b[n]).tobytes() == x[n].tobytes()
            assert linalg.condition_number(G[n]) == cond[n]
    # a singular member fails the whole stack, as it fails alone
    G[3] = np.diag([0.0] + [1.0] * (k - 1))
    with pytest.raises(SingularError):
        linalg.solve_sym(G, b)
    assert linalg.condition_number(G)[3] == np.inf
    with pytest.raises(ShapeMismatchError):
        linalg.solve_sym(G, b[:, :-1])
