from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qngm import classical, divergence
from qngm.errors import DegenerateSupportError, ShapeMismatchError

# frozen with a 40-digit mpmath evaluation of the defining sums
KL_3QUARTER_HALF = 0.13081203594113695913
KL_NEARPURE_HALF = 0.69313236504988734531


def test_fisher_examples():
    np.testing.assert_allclose(classical.fisher([0.5, 0.5]), [[4.0]])
    np.testing.assert_allclose(classical.fisher([0.25, 0.75]), [[16.0 / 3.0]])
    np.testing.assert_allclose(
        classical.fisher([1 / 3, 1 / 3, 1 / 3]), [[6.0, 3.0], [3.0, 6.0]]
    )


def test_kl_values():
    assert classical.kl([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)
    assert classical.kl([0.75, 0.25], [0.5, 0.5]) == pytest.approx(KL_3QUARTER_HALF, abs=1e-15)
    assert classical.kl([0.999999, 1e-6], [0.5, 0.5]) == pytest.approx(
        KL_NEARPURE_HALF, abs=1e-15
    )
    assert abs(classical.kl([0.999999, 1e-6], [0.5, 0.5]) - np.log(2)) < 2e-5


def test_renyi_zero_at_coincidence():
    p = np.array([0.2, 0.3, 0.5])
    for alpha in (-1.0, 0.3, 0.5, 2.0):
        assert classical.renyi(p, p, alpha) == pytest.approx(0.0, abs=1e-14)


def test_renyi_kl_limit():
    p, q = np.array([0.6, 0.4]), np.array([0.25, 0.75])
    assert abs(classical.renyi(p, q, 0.999999) - classical.kl(p, q)) < 1e-5
    # inside the crossover window the dispatch is exact
    assert classical.renyi(p, q, 1.0 + 1e-9) == classical.kl(p, q)


def test_renyi_hessian_alpha_independent():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5):
        for _ in range(4):
            p = 0.9 * rng.dirichlet(np.ones(n) * 3.0) + 0.1 / n
            ref = classical.fisher(p)
            for alpha in (-1.0, 0.3, 0.5, 2.0):
                hess = divergence.fd_hessian(
                    lambda q: classical.renyi(classical.probs_from_free(q), p, alpha),
                    classical.free_from_probs(p),
                    h=1e-4,
                )
                rel = np.abs(hess - ref).max() / np.abs(ref).max()
                assert rel < 1e-4, (n, alpha, rel)


def test_nonnegativity_random_pairs():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p = 0.95 * rng.dirichlet(np.ones(n)) + 0.05 / n
        q = 0.95 * rng.dirichlet(np.ones(n)) + 0.05 / n
        assert classical.kl(p, q) >= -1e-12
        alpha = float(rng.choice([-1.0, 0.3, 0.5, 2.0]))
        assert classical.renyi(p, q, alpha) >= -1e-12


def test_free_coordinate_round_trip():
    p = np.array([0.1, 0.2, 0.7])
    np.testing.assert_allclose(classical.probs_from_free(classical.free_from_probs(p)), p)
    with pytest.raises(DegenerateSupportError):
        classical.probs_from_free([0.6, 0.7])


def test_errors():
    with pytest.raises(DegenerateSupportError):
        classical.kl([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(DegenerateSupportError):
        classical.check_distribution([0.5, 0.4])
    with pytest.raises(ShapeMismatchError):
        classical.kl([0.5, 0.5], [0.2, 0.3, 0.5])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6),
    st.sampled_from(((1,), (5,), (2, 3))),
    st.integers(0, 2**32 - 1),
    st.one_of(
        st.sampled_from((1.0, 1.0 + 1e-9, 0.5, 2.0, -1.0)),
        st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 0.05),
    ),
)
def test_a_stack_gives_each_member_the_bits_of_its_single_call(n, shape, seed, alpha):
    rng = np.random.default_rng(seed)
    q = 0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n
    free = (0.9 * rng.dirichlet(np.ones(n), size=shape) + 0.1 / n)[..., :-1]
    rows = free.reshape(-1, n - 1)
    p = classical.probs_from_free(free)
    assert p.shape == (*shape, n)
    singles = [classical.probs_from_free(row) for row in rows]
    assert p.tobytes() == np.array(singles).tobytes()
    assert classical.free_from_probs(p).tobytes() == free.tobytes()
    fisher = classical.fisher(p)
    assert fisher.tobytes() == np.array([classical.fisher(m) for m in singles]).tobytes()
    for div in (classical.kl, partial(classical.renyi, alpha=alpha)):
        values = div(p, q)
        members = [div(m, q) for m in singles]
        assert all(type(value) is float for value in members)
        assert values.shape == shape
        assert values.tobytes() == np.array(members).reshape(shape).tobytes()


def test_a_stack_is_checked_member_by_member():
    q = np.array([0.5, 0.5])
    with pytest.raises(DegenerateSupportError, match="sum to"):
        classical.check_distribution([[0.5, 0.5], [0.5, 0.4]])
    with pytest.raises(DegenerateSupportError):
        classical.kl([[0.5, 0.5], [1.0, 0.0]], q)
    with pytest.raises(DegenerateSupportError):
        classical.probs_from_free([[0.3], [1.2]])
    with pytest.raises(ShapeMismatchError):
        classical.renyi(q, np.stack([q, q]), 0.5)  # the anchor is one distribution
    with pytest.raises(ShapeMismatchError):
        classical.kl([[0.2, 0.3, 0.5]], q)
