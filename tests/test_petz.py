import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qngm import petz
from qngm.errors import DomainError, ParseError

GRID = petz.default_grid()

REGISTRY = [
    petz.SLD,
    petz.BKM,
    petz.RRLD,
    petz.HALF,
    petz.ZERO_PLUS,
    petz.ZERO_MINUS,
    petz.INFINITY,
    petz.sandwiched(0.1),
    petz.sandwiched(0.25),
    petz.sandwiched(2.0),
    petz.sandwiched(-0.5),
    petz.sandwiched(-1.0),
    petz.standard(0.5),
    petz.standard(2.0),
    petz.standard(-1.0),
    petz.standard(3.0),
    petz.linear(0.3, petz.RRLD, petz.SLD),
    petz.linear(3.0, petz.RRLD, petz.SLD),
]


def test_eval_point_values():
    assert petz.evaluate(petz.SLD, 3.0) == pytest.approx(2.0)
    assert petz.evaluate(petz.RRLD, 3.0) == pytest.approx(1.5)
    assert petz.evaluate(petz.INFINITY, np.e) == pytest.approx(np.e / (np.e - 1.0), abs=1e-12)
    assert petz.evaluate(petz.HALF, 4.0) == pytest.approx(2.0)
    assert petz.evaluate(petz.ZERO_PLUS, 3.0) == 3.0
    assert petz.evaluate(petz.ZERO_MINUS, 3.0) == 1.0


def test_eval_rejects_nonpositive():
    with pytest.raises(DomainError):
        petz.evaluate(petz.SLD, 0.0)
    with pytest.raises(DomainError):
        petz.evaluate(petz.BKM, -1.0)


def test_sandwiched_special_points():
    assert np.abs(petz.evaluate(petz.sandwiched(0.5), GRID) - petz.evaluate(petz.SLD, GRID)).max() < 1e-12
    assert np.abs(petz.evaluate(petz.sandwiched(2.0), GRID) - np.sqrt(GRID)).max() < 1e-10
    assert np.abs(petz.evaluate(petz.sandwiched(-1.0), GRID) - petz.evaluate(petz.RRLD, GRID)).max() < 1e-10
    # alpha -> 1 dispatches to BKM inside the 1e-6 window
    for alpha in (1.0 + 1e-7, 1.0 - 1e-7):
        assert abs(petz.evaluate(petz.sandwiched(alpha), np.e) - petz.evaluate(petz.BKM, np.e)) < 1e-5


def test_sandwiched_alpha_zero_rejected():
    with pytest.raises(DomainError):
        petz.sandwiched(0.0)


def test_standard_coincidences():
    for alpha, ref in ((2.0, petz.RRLD), (-1.0, petz.RRLD), (1.0, petz.BKM), (0.0, petz.BKM)):
        diff = np.abs(petz.evaluate(petz.standard(alpha), GRID) - petz.evaluate(ref, GRID)).max()
        assert diff < 1e-10, (alpha, diff)


def test_standard_symmetry_about_half():
    for alpha in (0.2, 0.9, 1.7, -0.4):
        a = petz.evaluate(petz.standard(0.5 + alpha), GRID)
        b = petz.evaluate(petz.standard(0.5 - alpha), GRID)
        assert np.abs(a - b).max() < 1e-12


def test_infinity_limit_matches_large_alpha():
    ref = petz.evaluate(petz.INFINITY, GRID)
    for alpha in (1e8, -1e8):
        assert np.abs(petz.evaluate(petz.sandwiched(alpha), GRID) - ref).max() < 1e-6


def test_taylor_window_continuity():
    singular = ("bkm", "sw", "st", "swinf")
    kinked = ("sw0+", "sw0-")  # max/min(t, 1) have no slope-1/2 expansion at t = 1
    for f in REGISTRY:
        assert petz.evaluate(f, 1.0) == 1.0
        if f.kind in kinked:
            continue
        for t in (1.0 + 9e-7, 1.0 - 9e-7):
            expansion = 1.0 + 0.5 * (t - 1.0)
            if f.kind in singular:
                assert petz.evaluate(f, t) == expansion  # fallback is returned verbatim
            else:
                assert abs(petz.evaluate(f, t) - expansion) < 1e-12
        # just outside the window the closed form agrees with the expansion
        for s in (1.0, -1.0):
            t = 1.0 + s * 1.01e-6
            assert abs(petz.evaluate(f, t) - (1.0 + 0.5 * (t - 1.0))) < 1e-9, str(f)


def test_eval_zero_values():
    assert petz.eval_zero(petz.SLD) == 0.5
    assert petz.eval_zero(petz.BKM) == 0.0
    assert petz.eval_zero(petz.RRLD) == 0.0
    assert petz.eval_zero(petz.HALF) == 0.0
    assert petz.eval_zero(petz.ZERO_PLUS) == 1.0
    assert petz.eval_zero(petz.sandwiched(0.25)) == pytest.approx(0.75)
    assert petz.eval_zero(petz.sandwiched(2.0)) == 0.0
    assert petz.eval_zero(petz.standard(0.5)) == pytest.approx(0.25)
    assert petz.eval_zero(petz.linear(3.0, petz.RRLD, petz.SLD)) == pytest.approx(1.5)
    # eval_zero is the actual t -> 0+ limit of evaluate (bkm converges only
    # logarithmically, hence the loose tolerance)
    for f in REGISTRY:
        assert abs(petz.evaluate(f, 1e-12) - petz.eval_zero(f)) < 0.05, str(f)


def test_check_conditions():
    for f in REGISTRY:
        report = petz.check_conditions(f, GRID)
        assert report.all_ok, (str(f), report)
    broken = petz.check_conditions(lambda t: t**2, GRID)
    assert not broken.symmetry_ok
    assert broken.f1_ok


def test_compare_examples():
    assert petz.compare(petz.RRLD, petz.SLD) is petz.Order.LESS
    assert petz.compare(petz.sandwiched(0.1), petz.sandwiched(0.3)) is petz.Order.GREATER
    assert petz.compare(petz.sandwiched(0.5), petz.SLD) is petz.Order.EQUAL


def test_linear_family_crosses_sandwiched_family():
    # affine combinations escape the partial order: these curves cross
    assert (
        petz.compare(petz.linear(3.0, petz.RRLD, petz.SLD), petz.sandwiched(0.1))
        is petz.Order.INCOMPARABLE
    )
    assert (
        petz.compare(petz.linear(2.5, petz.RRLD, petz.SLD), petz.sandwiched(0.1))
        is petz.Order.INCOMPARABLE
    )
    # lin:3 happens to dominate sw:0.25 outright
    assert (
        petz.compare(petz.linear(3.0, petz.RRLD, petz.SLD), petz.sandwiched(0.25))
        is petz.Order.GREATER
    )


def test_monotone_hull_bounds():
    monotone = [f for f in REGISTRY if petz.is_operator_monotone(f)]
    assert len(monotone) >= 8
    for f in monotone:
        assert petz.compare(petz.RRLD, f) in (petz.Order.LESS, petz.Order.EQUAL), str(f)
        assert petz.compare(f, petz.SLD) in (petz.Order.LESS, petz.Order.EQUAL), str(f)


def test_three_regime_ordering():
    for a1 in (0.1, 0.3, 0.49):
        for a2 in (-3.0, -1.0, 0.5, 2.0):
            for a3 in (-0.9, -0.3, -0.1):
                f1, f2, f3 = (petz.sandwiched(a) for a in (a1, a2, a3))
                assert petz.compare(f1, f2) in (petz.Order.GREATER, petz.Order.EQUAL)
                assert petz.compare(f2, f3) in (petz.Order.GREATER, petz.Order.EQUAL)


def test_alpha_monotonicity_within_regimes():
    # alpha1 <= alpha2 within a regime implies f_alpha1 >= f_alpha2
    for a1, a2 in ((0.1, 0.4), (-0.9, -0.2), (0.6, 3.0), (-5.0, -1.0)):
        assert petz.compare(petz.sandwiched(a1), petz.sandwiched(a2)) in (
            petz.Order.GREATER,
            petz.Order.EQUAL,
        )


def test_zero_plus_dominates_family():
    for alpha in (0.1, 0.3, 0.5, 1.0 + 2e-6, 2.0, -0.5, -1.0, -4.0):
        f = petz.sandwiched(alpha)
        assert petz.compare(petz.ZERO_PLUS, f) in (petz.Order.GREATER, petz.Order.EQUAL)


def test_linear_combination_theorem():
    # affine combinations of monotone Petz functions with weight in [0, 1]
    # satisfy the defining identities and stay inside the monotone hull
    for alpha in (0.0, 0.3, 0.7, 1.0):
        f = petz.linear(alpha, petz.RRLD, petz.SLD)
        assert petz.check_conditions(f, GRID).all_ok
        assert petz.is_operator_monotone(f)
        assert np.all(np.diff(petz.evaluate(f, GRID)) > 0)  # scalar-monotone on the grid
    assert petz.is_operator_monotone(petz.linear(3.0, petz.RRLD, petz.SLD)) is None


def test_beta_derivative_nonnegative_grid():
    betas = np.linspace(-3.0, 4.0, 20)
    ts = np.logspace(-2, 2, 20)
    for beta in betas:
        if abs(beta) < 1e-9 or abs(beta - 1.0) < 1e-9:
            continue
        vals = petz.beta_derivative(float(beta), ts)
        assert np.min(vals) >= -1e-12, beta


def test_beta_derivative_matches_finite_difference():
    db = 1e-5
    for beta in (-2.0, -0.5, 0.5, 2.0, 3.5):
        for t in (0.1, 0.7, 1.9, 42.0):
            fd = (
                petz.evaluate(petz.sandwiched(1.0 / (beta + db)), t)
                - petz.evaluate(petz.sandwiched(1.0 / (beta - db)), t)
            ) / (2 * db)
            assert abs(petz.beta_derivative(beta, t) - fd) < 1e-6, (beta, t)


def test_beta_derivative_edges():
    assert petz.beta_derivative(2.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        petz.beta_derivative(1.0, 2.0)
    with pytest.raises(DomainError):
        petz.beta_derivative(2.0, -1.0)


def test_parse_round_trip():
    for text in ("sld", "bkm", "rrld", "half", "sw:0.25", "st:-1", "sw:0+", "sw:0-", "sw:inf"):
        assert petz.to_spec(petz.parse(text)) == text
    nested = petz.parse("lin:0.4:sw:0.25:sld")
    assert nested.kind == "lin" and nested.left.alpha == 0.25
    assert petz.parse("lin:3.0:rrld:sld") == petz.linear(3.0, petz.RRLD, petz.SLD)


def test_parse_errors():
    for text in ("", "sw", "sw:0", "sw:zzz", "lin:0.5:rrld", "foo", "sld:1", "st:"):
        with pytest.raises(ParseError):
            petz.parse(text)


def test_linear_rejects_non_positive_combinations():
    # f(0) = -2 and f(100) = -192: not a Petz function, so not a metric
    with pytest.raises(DomainError, match="lin:5:sld:rrld"):
        petz.linear(5.0, petz.SLD, petz.RRLD)
    with pytest.raises(ParseError, match="lin:5:sld:rrld"):
        petz.parse("lin:5:sld:rrld")
    # positive although its weight lies outside [0, 1]; minimum about 0.9
    designed = petz.parse("lin:3:rrld:sld")
    assert 0.85 < petz.evaluate(designed, GRID).min() < 1.0


def test_to_spec_prints_alpha_exactly():
    a, b = petz.sandwiched(0.1234567), petz.sandwiched(0.12345671)
    assert petz.to_spec(a) == "sw:0.1234567" and petz.to_spec(b) == "sw:0.12345671"
    assert petz.parse(petz.to_spec(b)) == b
    assert petz.to_spec(petz.linear(0.1 + 0.2, petz.RRLD, petz.SLD)) == (
        "lin:0.30000000000000004:rrld:sld"
    )


def _alpha(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_LEAVES = st.one_of(
    st.sampled_from(
        [petz.SLD, petz.BKM, petz.RRLD, petz.HALF, petz.ZERO_PLUS, petz.ZERO_MINUS, petz.INFINITY]
    ),
    _alpha(-10.0, 10.0).filter(lambda a: abs(a) >= petz.ALPHA_EPS).map(petz.sandwiched),
    _alpha(-10.0, 10.0).map(petz.standard),
)
_FUNCTIONS = st.recursive(
    _LEAVES,
    lambda inner: st.builds(petz.linear, _alpha(0.0, 1.0), inner, inner),
    max_leaves=4,
)


@given(_FUNCTIONS)
def test_parse_inverts_to_spec(f):
    assert petz.parse(petz.to_spec(f)) == f
