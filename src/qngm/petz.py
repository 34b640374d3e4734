"""The family of Petz functions selecting quantum Fisher metrics.

A Petz function is a positive scalar function on (0, inf) with

    f(1) = 1,        f(t) = t f(1/t).

Implemented variants:

    sld          (1 + t) / 2
    bkm          (t - 1) / ln t
    rrld         2 t / (1 + t)
    half         sqrt(t)
    sw:a         (1 - a) (1 - t^(1/a)) / (1 - t^((1-a)/a))
    st:a         a (1 - a) (t - 1)^2 / ((1 - t^a)(1 - t^(1-a)))
    lin:a:f1:f2  (1 - a) f1(t) + a f2(t)
    sw:0+        max(t, 1)     sw:0-   min(t, 1)     sw:inf   t ln t / (t - 1)

Every variant has the removable singularity value f(1) = 1 and slope
f'(1) = 1/2; inside |t - 1| < 1e-6 the first-order expansion 1 + (t - 1)/2
is returned for the variants whose closed form degenerates there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, ParseError, ShapeMismatchError

TAYLOR_WINDOW = 1e-6
ALPHA_EPS = 1e-6
CONDITION_TOL = 1e-10  # a Petz condition holds if its violation is at most this
ORDER_TOL = 1e-12  # compare's slack between the two functions' values


@dataclass(frozen=True)
class PetzFunction:
    kind: str
    alpha: Optional[float] = None
    left: Optional["PetzFunction"] = None
    right: Optional["PetzFunction"] = None

    def __post_init__(self):
        if self.alpha is not None and not np.isfinite(self.alpha):
            raise DomainError(f"{self.kind} index alpha must be finite, got {self.alpha}")

    def __call__(self, t):
        return evaluate(self, t)

    def __str__(self) -> str:
        return to_spec(self)


SLD = PetzFunction("sld")
BKM = PetzFunction("bkm")
RRLD = PetzFunction("rrld")
HALF = PetzFunction("half")
ZERO_PLUS = PetzFunction("sw0+")
ZERO_MINUS = PetzFunction("sw0-")
INFINITY = PetzFunction("swinf")


def sandwiched(alpha: float) -> PetzFunction:
    """Petz function of the rescaled sandwiched Renyi divergence at index alpha."""
    if abs(alpha) < ALPHA_EPS:
        raise DomainError(
            "sandwiched family is singular at alpha = 0; "
            "use ZERO_PLUS / ZERO_MINUS for the one-sided limits"
        )
    if abs(alpha - 1.0) < ALPHA_EPS:
        return BKM
    return PetzFunction("sw", alpha=float(alpha))


def standard(alpha: float) -> PetzFunction:
    """Petz function of the rescaled standard Renyi divergence at index alpha."""
    if abs(alpha) < ALPHA_EPS or abs(alpha - 1.0) < ALPHA_EPS:
        return BKM
    return PetzFunction("st", alpha=float(alpha))


def linear(alpha: float, f1: PetzFunction, f2: PetzFunction) -> PetzFunction:
    """Affine combination (1 - alpha) f1 + alpha f2.

    It keeps f(1) = 1 and f(t) = t f(1/t) for any alpha, but stays positive
    only for some: always for alpha in [0, 1], outside it only when f1 and f2
    allow.  Raises DomainError, naming the spec, when f(0) < 0 or f <= 0
    somewhere on ``default_grid()``.
    """
    f = PetzFunction("lin", alpha=float(alpha), left=f1, right=f2)
    zero, lowest = eval_zero(f), float(np.min(evaluate(f, default_grid())))
    if not (zero >= 0.0 and lowest > 0.0):
        raise DomainError(
            f"{to_spec(f)} is not a Petz function: f(0) = {zero:g}, min f on grid = {lowest:g}"
        )
    return f


def _index(fs, t):
    """The alphas of a group of one kind as an (n, 1, ...) array, to broadcast over t."""
    return np.array([f.alpha for f in fs]).reshape((-1,) + (1,) * (t.ndim - 1))


def _eval_sw(alpha, t, u):
    # (1 - a)(1 - t^(1/a)) / (1 - t^((1-a)/a)) = (1 - a) expm1(u/a) / expm1((1-a)u/a)
    a = u / alpha
    b = (1.0 - alpha) * u / alpha
    with np.errstate(over="ignore", invalid="ignore"):
        direct = (1.0 - alpha) * np.expm1(a) / np.expm1(b)
        # for exponents beyond float range, factor e^(a-b) = t out of the ratio
        rescued = (1.0 - alpha) * t * np.expm1(-a) / np.expm1(-b)
    return np.where(np.maximum(a, b) > 500.0, rescued, direct)


def _eval_st(alpha, t, u):
    # denominator 1 + t - t^(1-a) - t^a factors as (1 - t^a)(1 - t^(1-a))
    num = alpha * (1.0 - alpha) * np.expm1(u) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.expm1(alpha * u) * np.expm1((1.0 - alpha) * u)
    return num / den


def _eval_lin(fs, t, u):
    weight = _index(fs, t)
    left, right = evaluate([f.left for f in fs], t), evaluate([f.right for f in fs], t)
    return (1.0 - weight) * left + weight * right


class _Kind(NamedTuple):
    """Everything the package knows about one kind of Petz function.

    ``value(fs, t, u)`` is f(t) for t > 0, stacked: fs lists n functions of
    this kind and member i gets fs[i] at t[i].  A kind with an index reads
    it as one (n, 1, ...) array.  A ``taylor`` kind's closed form
    degenerates at t = 1; it is called with t moved out of the Taylor window
    and u = ln t, and 1 + (t - 1)/2 is returned inside the window.  The other fields
    map f to f(0+), its operator-monotone classification (None when not
    covered), its canonical spec, and the (family, alpha) Renyi index of the
    divergence whose coincidence Hessian is its metric (None when unpaired).
    """

    value: Callable
    taylor: bool
    zero: Callable
    monotone: Callable
    spec: Callable
    renyi: Callable


def _fixed(value, taylor, zero, monotone, spec, renyi=None) -> _Kind:
    """A kind without parameters: every field but the value is a constant."""
    return _Kind(value, taylor, lambda f: zero, lambda f: monotone, lambda f: spec, lambda f: renyi)


def _lin_monotone(f: PetzFunction) -> Optional[bool]:
    left, right = is_operator_monotone(f.left), is_operator_monotone(f.right)
    return True if left and right and 0.0 <= f.alpha <= 1.0 else None


# The classification follows Petz (1996), "Monotone metrics on matrix spaces":
# sw:a is operator monotone iff 1/a in [-1, 2], st:a iff a in [-1, 2], and an
# affine combination of monotone functions with weight in [0, 1] is monotone.
_KINDS = {
    "sld": _fixed(lambda fs, t, u: 0.5 * (1.0 + t), False, 0.5, True, "sld", ("sandwiched", 0.5)),
    "bkm": _fixed(lambda fs, t, u: np.expm1(u) / u, True, 0.0, True, "bkm", ("sandwiched", 1.0)),
    "rrld": _fixed(
        lambda fs, t, u: 2.0 * t / (1.0 + t), False, 0.0, True, "rrld", ("sandwiched", -1.0)
    ),
    "half": _fixed(lambda fs, t, u: np.sqrt(t), False, 0.0, True, "half", ("sandwiched", 2.0)),
    "sw0+": _fixed(lambda fs, t, u: np.maximum(t, 1.0), False, 1.0, False, "sw:0+"),
    "sw0-": _fixed(lambda fs, t, u: np.minimum(t, 1.0), False, 0.0, False, "sw:0-"),
    "swinf": _fixed(lambda fs, t, u: t * u / np.expm1(u), True, 0.0, True, "sw:inf"),
    "sw": _Kind(
        lambda fs, t, u: _eval_sw(_index(fs, t), t, u),
        True,
        lambda f: 1.0 - f.alpha if 0.0 < f.alpha < 1.0 else 0.0,
        lambda f: f.alpha <= -1.0 or f.alpha >= 0.5,
        lambda f: f"sw:{alpha_text(f.alpha)}",
        lambda f: ("sandwiched", f.alpha),
    ),
    "st": _Kind(
        lambda fs, t, u: _eval_st(_index(fs, t), t, u),
        True,
        lambda f: f.alpha * (1.0 - f.alpha) if 0.0 < f.alpha < 1.0 else 0.0,
        lambda f: -1.0 <= f.alpha <= 2.0,
        lambda f: f"st:{alpha_text(f.alpha)}",
        lambda f: ("standard", f.alpha),
    ),
    "lin": _Kind(
        _eval_lin,
        False,
        lambda f: (1.0 - f.alpha) * eval_zero(f.left) + f.alpha * eval_zero(f.right),
        _lin_monotone,
        lambda f: f"lin:{alpha_text(f.alpha)}:{to_spec(f.left)}:{to_spec(f.right)}",
        lambda f: None,
    ),
}


def _domain(t, taylor: bool = True):
    """Check t > 0 and finite; returns (Taylor-window mask, t moved out of
    the window, ln of that).  Without ``taylor`` there is no window:
    (None, t, None)."""
    if not ((0.0 < t) & (t < np.inf)).all():  # nan fails both
        raise DomainError("Petz functions are defined on t > 0")
    if not taylor:
        return None, t, None
    near_one = np.abs(t - 1.0) < TAYLOR_WINDOW
    safe = np.where(near_one, 2.0, t)
    return near_one, safe, np.log(safe)


def evaluate(f: Union[PetzFunction, Sequence[PetzFunction]], t):
    """Evaluate a Petz function at t > 0 (scalar or array).

    ``f`` may also be a sequence of N functions, with t of shape (N, ...):
    member n gets f[n] at t[n], with the bits of its own call.  One function
    is a stack of one.  The stack is checked once, and each kind's closed
    form runs once on all members of that kind.
    """
    single = isinstance(f, PetzFunction)
    fs, t = [f] if single else list(f), np.asarray(t, dtype=float)
    stack = t[None] if single else t
    if stack.ndim == 0 or len(stack) != len(fs):
        raise ShapeMismatchError(f"{len(fs)} Petz functions for points of shape {t.shape}")
    groups = {}
    for n, g in enumerate(fs):
        groups.setdefault(g.kind, []).append(n)
    near_one, safe, u = _domain(stack, any(_KINDS[kind].taylor for kind in groups))
    out = np.empty(stack.shape)
    for kind, rows in groups.items():
        entry, group = _KINDS[kind], [fs[n] for n in rows]
        if len(rows) == len(fs):
            rows = slice(None)  # one kind: views, not copies
        if entry.taylor:
            value = entry.value(group, safe[rows], u[rows])
            out[rows] = np.where(near_one[rows], 1.0 + 0.5 * (stack[rows] - 1.0), value)
        else:
            out[rows] = entry.value(group, stack[rows], None)
    if not single:
        return out
    return float(out[0]) if t.ndim == 0 else out[0]


def eval_zero(f: Union[PetzFunction, Sequence[PetzFunction]]):
    """Limit of f(t) as t -> 0+; must be positive for rank-deficient metrics.

    For a sequence of N functions, the (N,) array of their limits.
    """
    single = isinstance(f, PetzFunction)
    out = np.array([_KINDS[g.kind].zero(g) for g in ([f] if single else f)], dtype=float)
    return float(out[0]) if single else out


@dataclass(frozen=True)
class ConditionReport:
    """Max violations of f(1) = 1, f(t) = t f(1/t), and f > 0 over a grid."""

    f1_violation: float
    symmetry_violation: float
    positivity_violation: float

    @property
    def f1_ok(self) -> bool:
        return self.f1_violation <= CONDITION_TOL

    @property
    def symmetry_ok(self) -> bool:
        return self.symmetry_violation <= CONDITION_TOL

    @property
    def positivity_ok(self) -> bool:
        return self.positivity_violation <= CONDITION_TOL

    @property
    def all_ok(self) -> bool:
        return self.f1_ok and self.symmetry_ok and self.positivity_ok


def check_conditions(f: Union[PetzFunction, Callable], grid: np.ndarray) -> ConditionReport:
    """Check the defining Petz identities on a grid (accepts any callable)."""
    grid = np.asarray(grid, dtype=float)
    ft = np.asarray(f(grid), dtype=float)
    finv = np.asarray(f(1.0 / grid), dtype=float)
    return ConditionReport(
        f1_violation=abs(float(f(np.array(1.0))) - 1.0),
        symmetry_violation=float(np.abs(ft - grid * finv).max()),
        positivity_violation=float(max(0.0, -ft.min())),
    )


class Order(enum.Enum):
    LESS = "precedes"
    GREATER = "succeeds"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def default_grid(n: int = 200, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def compare(f: PetzFunction, g: PetzFunction, grid: Optional[np.ndarray] = None) -> Order:
    """Pointwise partial order of two Petz functions on a grid, to ``ORDER_TOL``."""
    if grid is None:
        grid = default_grid()
    ft, gt = evaluate(f, grid), evaluate(g, grid)
    le = bool(np.all(ft <= gt + ORDER_TOL))
    ge = bool(np.all(ft >= gt - ORDER_TOL))
    if le and ge:
        return Order.EQUAL
    if le:
        return Order.LESS
    if ge:
        return Order.GREATER
    return Order.INCOMPARABLE


def beta_derivative(beta: float, t) -> float:
    """d/d(beta) of the sandwiched Petz function reparameterized by alpha = 1/beta.

    Closed form:
        [(1 - t^b)(1 - t^(b-1)) + b(1 - b) t^(b-1) ln(t) (t - 1)]
        / [b^2 (1 - t^(b-1))^2]

    Nonnegative for all beta and t > 0 (the family increases with beta).
    """
    if not np.isfinite(beta) or beta in (0.0, 1.0):
        raise DomainError(f"beta derivative undefined at beta = {beta}")
    t = np.asarray(t, dtype=float)
    near_one, safe, u = _domain(np.atleast_1d(t))
    num = np.expm1(beta * u) * np.expm1((beta - 1.0) * u) + beta * (1.0 - beta) * safe ** (
        beta - 1.0
    ) * u * (safe - 1.0)
    den = beta**2 * np.expm1((beta - 1.0) * u) ** 2
    out = np.where(near_one, 0.0, num / den)
    return float(out[0]) if t.ndim == 0 else out


def is_operator_monotone(f: PetzFunction) -> Optional[bool]:
    """Known operator-monotonicity classification (None when not covered)."""
    return _KINDS[f.kind].monotone(f)


def renyi_index(f: PetzFunction) -> Optional[Tuple[str, float]]:
    """("sandwiched" or "standard", alpha) of the Renyi divergence paired with f.

    Its coincidence Hessian is the metric of f; None when f has no pairing.
    """
    return _KINDS[f.kind].renyi(f)


def parse(text: str) -> PetzFunction:
    """Parse the textual grammar:

    sld | bkm | rrld | half | sw:<alpha> | st:<alpha>
    | lin:<alpha>:<f1>:<f2> | sw:0+ | sw:0- | sw:inf
    """
    tokens = text.strip().lower().split(":")

    def take() -> str:
        if not tokens:
            raise ParseError(f"truncated metric spec {text!r}")
        return tokens.pop(0)

    def number(tok: str) -> float:
        try:
            return float(tok)
        except ValueError:
            raise ParseError(f"expected a number in metric spec {text!r}, got {tok!r}") from None

    def parse_one() -> PetzFunction:
        head = take()
        if head in _NAMED:
            return _NAMED[head]
        if head == "lin":
            alpha = number(take())
            return linear(alpha, parse_one(), parse_one())
        if head not in _FAMILIES:
            raise ParseError(f"unknown metric spec {text!r}")
        arg = take()
        return _NAMED.get(f"{head}:{arg}") or _FAMILIES[head](number(arg))

    try:
        result = parse_one()
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    if tokens:
        raise ParseError(f"trailing tokens {tokens} in metric spec {text!r}")
    return result


def alpha_text(alpha: float) -> str:
    """Shortest text that parses back to the same float, without a trailing '.0'."""
    text = repr(float(alpha))
    return text[:-2] if text.endswith(".0") else text


def to_spec(f: PetzFunction) -> str:
    """Inverse of parse (canonical form)."""
    return _KINDS[f.kind].spec(f)


_NAMED = {to_spec(f): f for f in (SLD, BKM, RRLD, HALF, ZERO_PLUS, ZERO_MINUS, INFINITY)}
_FAMILIES = {"sw": sandwiched, "st": standard}
