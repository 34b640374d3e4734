import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qngm import petz
from qngm.errors import DomainError, ParseError, ShapeMismatchError

GRID = petz.default_grid()

# frozen with a 40-digit mpmath evaluation of a (1 - a) (t - 1)^2 / ((t^a - 1) (t^(1-a) - 1))
ST_PAST_AN_OVERFLOWED_FACTOR = [
    (3.0, 1e103, 5.9999999999999999885e-103),
    (-3.0, 1e100, 1.1999999999999999618e-199),
    (7.5, 1e50, 4.8749999999999979543e-274),
    (50.0, 1.6e6, 3.9030703034320548743e-295),
]

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
    for beta, t in ((2.0, np.nan), (2.0, np.inf), (2.0, [0.5, np.nan]), (np.nan, 2.0), (np.inf, 2.0)):
        with pytest.raises(DomainError):
            petz.beta_derivative(beta, t)


def test_parse_round_trip():
    for text in ("sld", "bkm", "rrld", "half", "sw:0.25", "st:-1", "sw:0+", "sw:0-", "sw:inf"):
        assert petz.to_spec(petz.parse(text)) == text
    nested = petz.parse("lin:0.4:sw:0.25:sld")
    assert nested.kind == "lin" and nested.left.alpha == 0.25
    assert petz.parse("lin:3.0:rrld:sld") == petz.linear(3.0, petz.RRLD, petz.SLD)


def test_parse_errors():
    non_finite = ("sw:nan", "st:nan", "sw:1e400", "st:-inf", "st:inf", "lin:nan:sld:rrld")
    for text in ("", "sw", "sw:0", "sw:zzz", "lin:0.5:rrld", "foo", "sld:1", "st:", *non_finite):
        with pytest.raises(ParseError):
            petz.parse(text)


def test_constructors_reject_non_finite_alpha():
    for alpha in (np.nan, np.inf, -np.inf):
        for build in (petz.sandwiched, petz.standard, lambda a: petz.linear(a, petz.SLD, petz.RRLD)):
            with pytest.raises(DomainError, match="must be finite"):
                build(alpha)


def test_every_kind_is_in_the_registry():
    # a kind added to the table must also be added to REGISTRY, and so to the tests above
    assert set(petz._KINDS) == {f.kind for f in REGISTRY}


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


# points inside the Taylor window, just outside it, generic, and extreme enough
# for _eval_sw's rescue branch (|ln t| / |alpha| > 500)
_POINTS = st.one_of(
    st.floats(1.0 - 0.9 * petz.TAYLOR_WINDOW, 1.0 + 0.9 * petz.TAYLOR_WINDOW),
    st.sampled_from([1.0, 1.0 - 2e-6, 1.0 + 2e-6, 1e-300, 1e-30, 1e30, 1e300, np.e**60]),
    st.floats(1e-300, 1e300),
)


@st.composite
def _stacks(draw):
    """N Petz functions (mixed kinds, nested lin) and t of shape (N,), (N, m) or (N, d, d)."""
    n = draw(st.integers(1, 5))
    fs = draw(st.lists(st.one_of(st.sampled_from(REGISTRY), _FUNCTIONS), min_size=n, max_size=n))
    tail = draw(st.sampled_from([(), (draw(st.integers(1, 4)),), (draw(st.integers(1, 4)),) * 2]))
    return fs, draw(arrays(float, (n, *tail), elements=_POINTS))


@given(_stacks(), st.integers(0, 99), st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf]))
@example(([petz.sandwiched(0.1), petz.SLD], np.array([1e30, 1e30])), 0, 0.0)  # sw's rescue
def test_stacked_evaluate_gives_each_member_the_bits_of_its_own_call(case, where, bad_value):
    fs, t = case
    with np.errstate(all="ignore"):  # st overflows at the extremes, alone as in a stack
        stacked = petz.evaluate(fs, t)
        for n, f in enumerate(fs):
            assert stacked[n].tobytes() == np.asarray(petz.evaluate(f, t[n])).tobytes()
    zeros = np.array([petz.eval_zero(f) for f in fs])
    assert petz.eval_zero(fs).tobytes() == zeros.tobytes()
    bad = t.copy()
    bad.flat[where % t.size] = bad_value
    with pytest.raises(DomainError):
        petz.evaluate(fs, bad)
    with pytest.raises(ShapeMismatchError):
        petz.evaluate(fs, t[:-1])
    with pytest.raises(ShapeMismatchError):
        petz.evaluate(fs + [petz.SLD], t)


def test_stacked_evaluate_rejects_a_scalar_t():
    with pytest.raises(ShapeMismatchError):
        petz.evaluate([petz.SLD], 2.0)
    assert petz.evaluate([petz.SLD], [2.0]).tolist() == [1.5]
    assert isinstance(petz.evaluate(petz.SLD, 2.0), float)
    assert isinstance(petz.eval_zero(petz.SLD), float)


def separate_conditions(f, grid):
    """check_conditions from three separate calls of f, the former way."""
    ft, finv = np.asarray(f(grid)), np.asarray(f(1.0 / grid))
    return petz.ConditionReport(
        f1_violation=abs(float(f(np.array(1.0))) - 1.0),
        symmetry_violation=float(np.abs(ft - grid * finv).max()),
        positivity_violation=float(max(0.0, -ft.min())),
    )


def separate_compare(f, g, grid):
    """compare from two separate evaluations, the former way."""
    ft, gt = petz.evaluate(f, grid), petz.evaluate(g, grid)
    le = bool(np.all(ft <= gt + petz.ORDER_TOL))
    ge = bool(np.all(ft >= gt - petz.ORDER_TOL))
    if le and ge:
        return petz.Order.EQUAL
    return petz.Order.LESS if le else petz.Order.GREATER if ge else petz.Order.INCOMPARABLE


def report_bytes(report):
    fields = (report.f1_violation, report.symmetry_violation, report.positivity_violation)
    return np.array(fields).tobytes()


def top_level_calls(patch):
    """Patch petz.evaluate to count the calls not made from inside another call."""
    real, calls, depth = petz.evaluate, [], [0]

    def counted(f, t):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return real(f, t)
        finally:
            depth[0] -= 1

    patch.setattr(petz, "evaluate", counted)
    return lambda: calls.count(0)


_SPECS = st.one_of(st.sampled_from(REGISTRY), _FUNCTIONS).map(petz.to_spec)
_GRIDS = st.one_of(
    st.just(GRID),
    arrays(float, st.integers(1, 20), elements=st.floats(1e-3, 1e3)),
    arrays(float, st.integers(1, 4), elements=st.sampled_from([1.0, 1.0 + 1e-7, 1.0 - 2e-6])),
)


@settings(max_examples=300, deadline=None)
@given(_SPECS, _SPECS, _GRIDS)
@example("lin:0.3:rrld:sld", "sw:0.25", GRID)
def test_each_check_is_one_evaluation_with_the_bits_of_separate_ones(f_spec, g_spec, grid):
    f, g = petz.parse(f_spec), petz.parse(g_spec)
    want = report_bytes(separate_conditions(f, grid)), separate_compare(f, g, grid)
    with pytest.MonkeyPatch.context() as patch:
        count = top_level_calls(patch)
        report = petz.check_conditions(f, grid)
        assert count() == 1
        order = petz.compare(f, g, grid)
        assert count() == 2
    assert (report_bytes(report), order) == want


def test_check_conditions_calls_any_callable_once():
    calls = []

    def square(t):
        calls.append(t)
        return t**2

    assert report_bytes(petz.check_conditions(square, GRID)) == report_bytes(
        separate_conditions(lambda t: t**2, GRID)
    )
    assert len(calls) == 1


@pytest.mark.parametrize("alpha, t, value", ST_PAST_AN_OVERFLOWED_FACTOR)
def test_st_is_not_zeroed_by_an_overflowed_denominator(alpha, t, value):
    got = petz.evaluate(petz.standard(alpha), np.array([t, 2.0]))  # one overflowing point in two
    assert got[0] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert got[1] == petz.evaluate(petz.standard(alpha), 2.0)
