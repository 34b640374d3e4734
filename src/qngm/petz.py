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
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, ParseError

TAYLOR_WINDOW = 1e-6
ALPHA_EPS = 1e-6


@dataclass(frozen=True)
class PetzFunction:
    kind: str
    alpha: Optional[float] = None
    left: Optional["PetzFunction"] = None
    right: Optional["PetzFunction"] = None

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


def _taylor(t):
    return 1.0 + 0.5 * (t - 1.0)


def _eval_sw(alpha: float, t, u):
    # (1 - a)(1 - t^(1/a)) / (1 - t^((1-a)/a)) = (1 - a) expm1(u/a) / expm1((1-a)u/a)
    a = u / alpha
    b = (1.0 - alpha) * u / alpha
    with np.errstate(over="ignore", invalid="ignore"):
        direct = (1.0 - alpha) * np.expm1(a) / np.expm1(b)
        # for exponents beyond float range, factor e^(a-b) = t out of the ratio
        rescued = (1.0 - alpha) * t * np.expm1(-a) / np.expm1(-b)
    return np.where(np.maximum(a, b) > 500.0, rescued, direct)


def _eval_st(alpha: float, t, u):
    # denominator 1 + t - t^(1-a) - t^a factors as (1 - t^a)(1 - t^(1-a))
    num = alpha * (1.0 - alpha) * np.expm1(u) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        den = np.expm1(alpha * u) * np.expm1((1.0 - alpha) * u)
    return num / den


def evaluate(f: PetzFunction, t):
    """Evaluate a Petz function at t > 0 (scalar or array)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("Petz functions are defined on t > 0")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)

    if f.kind == "sld":
        out = 0.5 * (1.0 + t)
    elif f.kind == "rrld":
        out = 2.0 * t / (1.0 + t)
    elif f.kind == "half":
        out = np.sqrt(t)
    elif f.kind == "sw0+":
        out = np.maximum(t, 1.0)
    elif f.kind == "sw0-":
        out = np.minimum(t, 1.0)
    elif f.kind == "lin":
        out = (1.0 - f.alpha) * evaluate(f.left, t) + f.alpha * evaluate(f.right, t)
    else:
        # variants with a removable singularity at t = 1
        near_one = np.abs(t - 1.0) < TAYLOR_WINDOW
        safe = np.where(near_one, 2.0, t)
        u = np.log(safe)
        if f.kind == "bkm":
            val = np.expm1(u) / u
        elif f.kind == "swinf":
            val = safe * u / np.expm1(u)
        elif f.kind == "sw":
            val = _eval_sw(f.alpha, safe, u)
        elif f.kind == "st":
            val = _eval_st(f.alpha, safe, u)
        else:
            raise ValueError(f"unknown Petz function kind {f.kind!r}")
        out = np.where(near_one, _taylor(t), val)

    return float(out[0]) if scalar else out


def eval_zero(f: PetzFunction) -> float:
    """Limit of f(t) as t -> 0+; must be positive for rank-deficient metrics."""
    if f.kind == "sld":
        return 0.5
    if f.kind in ("bkm", "rrld", "half", "sw0-", "swinf"):
        return 0.0
    if f.kind == "sw0+":
        return 1.0
    if f.kind == "sw":
        return 1.0 - f.alpha if 0.0 < f.alpha < 1.0 else 0.0
    if f.kind == "st":
        return f.alpha * (1.0 - f.alpha) if 0.0 < f.alpha < 1.0 else 0.0
    if f.kind == "lin":
        return (1.0 - f.alpha) * eval_zero(f.left) + f.alpha * eval_zero(f.right)
    raise ValueError(f"unknown Petz function kind {f.kind!r}")


@dataclass(frozen=True)
class ConditionReport:
    """Max violations of f(1) = 1, f(t) = t f(1/t), and f > 0 over a grid."""

    f1_violation: float
    symmetry_violation: float
    positivity_violation: float
    tol: float = 1e-10

    @property
    def f1_ok(self) -> bool:
        return self.f1_violation <= self.tol

    @property
    def symmetry_ok(self) -> bool:
        return self.symmetry_violation <= self.tol

    @property
    def positivity_ok(self) -> bool:
        return self.positivity_violation <= self.tol

    @property
    def all_ok(self) -> bool:
        return self.f1_ok and self.symmetry_ok and self.positivity_ok


def check_conditions(
    f: Union[PetzFunction, Callable], grid: np.ndarray, tol: float = 1e-10
) -> ConditionReport:
    """Check the defining Petz identities on a grid (accepts any callable)."""
    grid = np.asarray(grid, dtype=float)
    ft = np.asarray(f(grid), dtype=float)
    finv = np.asarray(f(1.0 / grid), dtype=float)
    return ConditionReport(
        f1_violation=abs(float(f(np.array(1.0))) - 1.0),
        symmetry_violation=float(np.abs(ft - grid * finv).max()),
        positivity_violation=float(max(0.0, -ft.min())),
        tol=tol,
    )


class Order(enum.Enum):
    LESS = "precedes"
    GREATER = "succeeds"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def default_grid(n: int = 200, lo: float = 1e-3, hi: float = 1e3) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n)


def compare(
    f: PetzFunction, g: PetzFunction, grid: Optional[np.ndarray] = None, tol: float = 1e-12
) -> Order:
    """Pointwise partial order of two Petz functions on a grid."""
    if grid is None:
        grid = default_grid()
    ft, gt = evaluate(f, grid), evaluate(g, grid)
    le = bool(np.all(ft <= gt + tol))
    ge = bool(np.all(ft >= gt - tol))
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
    if beta in (0.0, 1.0):
        raise DomainError("beta derivative undefined at beta in {0, 1}")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("requires t > 0")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    near_one = np.abs(t - 1.0) < TAYLOR_WINDOW
    safe = np.where(near_one, 2.0, t)
    u = np.log(safe)
    num = np.expm1(beta * u) * np.expm1((beta - 1.0) * u) + beta * (1.0 - beta) * safe ** (
        beta - 1.0
    ) * u * (safe - 1.0)
    den = beta**2 * np.expm1((beta - 1.0) * u) ** 2
    out = np.where(near_one, 0.0, num / den)
    return float(out[0]) if scalar else out


def is_operator_monotone(f: PetzFunction) -> Optional[bool]:
    """Known operator-monotonicity classification (None when not covered).

    sw family: monotone iff 1/alpha in [-1, 2], i.e. alpha in (-inf,-1] u [1/2,inf).
    st family: monotone iff alpha in [-1, 2].  Affine combinations of monotone
    functions with weight in [0, 1] are monotone.
    """
    if f.kind in ("sld", "bkm", "rrld", "half", "swinf"):
        return True
    if f.kind in ("sw0+", "sw0-"):
        return False
    if f.kind == "sw":
        return f.alpha <= -1.0 or f.alpha >= 0.5
    if f.kind == "st":
        return -1.0 <= f.alpha <= 2.0
    if f.kind == "lin":
        lm, rm = is_operator_monotone(f.left), is_operator_monotone(f.right)
        if lm and rm and 0.0 <= f.alpha <= 1.0:
            return True
        return None
    return None


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
        if head == "sld":
            return SLD
        if head == "bkm":
            return BKM
        if head == "rrld":
            return RRLD
        if head == "half":
            return HALF
        if head == "sw":
            arg = take()
            if arg == "0+":
                return ZERO_PLUS
            if arg == "0-":
                return ZERO_MINUS
            if arg == "inf":
                return INFINITY
            return sandwiched(number(arg))
        if head == "st":
            return standard(number(take()))
        if head == "lin":
            alpha = number(take())
            return linear(alpha, parse_one(), parse_one())
        raise ParseError(f"unknown metric spec {text!r}")

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
    if f.kind in ("sld", "bkm", "rrld", "half"):
        return f.kind
    if f.kind == "sw0+":
        return "sw:0+"
    if f.kind == "sw0-":
        return "sw:0-"
    if f.kind == "swinf":
        return "sw:inf"
    if f.kind == "sw":
        return f"sw:{alpha_text(f.alpha)}"
    if f.kind == "st":
        return f"st:{alpha_text(f.alpha)}"
    if f.kind == "lin":
        return f"lin:{alpha_text(f.alpha)}:{to_spec(f.left)}:{to_spec(f.right)}"
    raise ValueError(f.kind)
