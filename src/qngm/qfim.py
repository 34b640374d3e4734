"""Quantum Fisher metric assembly and CPTP monotonicity diagnostics.

The metric of a Petz function f at a state rho with m-representation
tangents X^1 ... X^K is

    G[m, n] = sum_ij <psi_j|X^m|psi_i> <psi_i|X^n|psi_j> / (p_j f(p_i / p_j))

over the eigenpairs {p_i, |psi_i>} of rho.  Eigenvalues below ``rank_tol``
are treated as exact zeros: mixed kernel/support pairs use the continuation
p f(0) in the denominator (requires f(0) > 0), kernel/kernel pairs must have
vanishing numerators and are skipped.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from . import petz
from .errors import (
    MetricUndefinedError,
    NumericalError,
    QngmError,
    ShapeMismatchError,
    ValidationError,
)
from .linalg import _identity
from .states import SIGMA_X, SIGMA_Y, SIGMA_Z, check_density

RANK_TOL = 1e-9
KERNEL_NUMERATOR_TOL = 1e-9
IMAG_TOL = 1e-10
KRAUS_TOL = 1e-10
# probe triples evaluated per stacked call; divides the report's 100 and 500 samples
_CHUNK = 100


@np.errstate(all="ignore")  # what would warn is refused by the checks below
def metric(
    rho: np.ndarray,
    tangents: Sequence[np.ndarray],
    f: Union[petz.PetzFunction, Sequence[petz.PetzFunction]],
    rank_tol: float = RANK_TOL,
) -> np.ndarray:
    """Quantum Fisher metric matrix for the given tangents (m-representations).

    For one state, rho is (d, d) and ``tangents`` a sequence of (d, d)
    matrices or one (K, d, d) array; the result is (K, K).  For a stack of
    N states, rho is (N, d, d), ``tangents`` is (N, K, d, d) and the result
    is (N, K, K), equal bit for bit to N single calls: one stacked ``eigh``
    and one batched GEMM serve the whole stack.  ``f`` is one Petz function
    for every member, or a sequence of N, one per member; either way it goes
    unchanged to one ``petz.evaluate`` call (and one ``petz.eval_zero`` call
    for a rank-deficient stack), which evaluates each kind once.  A Petz
    value at the eigenvalue ratios that is not positive and finite, or a G
    that is not finite, raises NumericalError, with no floating-point warning.
    """
    p, v = check_density(rho)  # p is (..., d), v is (..., d, d)
    batch, dim = p.shape[:-1], p.shape[-1]
    if not isinstance(f, petz.PetzFunction):
        f = list(f)
        if batch != (len(f),):
            raise ShapeMismatchError(f"{len(f)} Petz functions for states {np.shape(rho)}")
    try:
        x = np.asarray(tangents, dtype=complex)
    except ValueError:  # a ragged list
        raise ShapeMismatchError("tangents differ in shape") from None
    if x.shape == (0,):  # an empty list
        x = x.reshape(0, dim, dim)
    if x.shape[:-3] != batch or x.shape[-2:] != (dim, dim) or x.ndim != len(batch) + 3:
        raise ShapeMismatchError(f"tangents of shape {x.shape} do not match states {np.shape(rho)}")
    # basis change: basis[..., k, i, j] = <psi_i|X^k|psi_j>
    basis = v.conj().swapaxes(-1, -2)[..., None, :, :] @ x @ v[..., None, :, :]

    small = p < rank_tol
    deficient = small.any()  # full-rank states skip the kernel handling
    if deficient:
        f0 = np.broadcast_to(petz.eval_zero(f), batch)
        member_deficient = small.any(axis=-1)
        undefined = member_deficient & (f0 <= 0.0)
        if undefined.any():
            raise MetricUndefinedError(
                f"state is rank-deficient below tol {rank_tol:.1e} and f(0) = {f0[undefined][0]}; "
                "a Petz function with f(0) > 0 is required"
            )
        f0 = np.where(member_deficient, f0, 1.0)[..., None, None]
        p = np.where(small, 1.0, p)  # a placeholder: weights touching the kernel are set below
    ratios = p[..., :, None] / p[..., None, :]
    values = petz.evaluate(f, ratios)
    # nan fails too; an empty stack passes
    if not (values.min(initial=np.inf) > 0.0 and values.max(initial=0.0) < np.inf):
        bad = ~((0.0 < values) & (values < np.inf))
        raise NumericalError(
            f"Petz value f(t) = {values[bad][0]:.3e} at eigenvalue ratio t = {ratios[bad][0]:.3e} "
            "is not positive and finite"
        )
    weights = 1.0 / (p[..., None, :] * values)
    if deficient:
        small_i, small_j = small[..., :, None], small[..., None, :]
        # one index in the kernel: denominator continues to p_big * f(0)
        p_big = np.where(small_i, p[..., None, :], p[..., :, None])
        weights = np.where(small_i ^ small_j, 1.0 / (p_big * f0), weights)
        # both indices in the kernel: max over m, n, i, j of |<j|Xm|i><i|Xn|j>|
        # is max over i, j of a[j, i] a[i, j] with a[i, j] = max_m |<i|Xm|j>|
        both = small_i & small_j
        weights[both] = 0.0
        a = np.abs(basis).max(axis=-3, initial=0.0)
        worst = np.where(both, a * a.swapaxes(-1, -2), 0.0).max()
        if worst > KERNEL_NUMERATOR_TOL:
            raise NumericalError(
                f"kernel/kernel numerator {worst:.3e} exceeds "
                f"{KERNEL_NUMERATOR_TOL:.1e}; tangents leave the fixed-rank manifold"
            )

    # G[m, n] = sum_ij weights[j, i] basis[m, i, j] conj(basis[n, i, j]): one GEMM per state
    b = basis.reshape(*basis.shape[:-2], dim * dim)
    w = weights.swapaxes(-1, -2).reshape(*batch, 1, dim * dim)
    g = (b * w) @ b.conj().swapaxes(-1, -2)
    scale = np.abs(g).max(axis=(-2, -1), initial=0.0)
    if not scale.max(initial=0.0) < np.inf:  # nan fails too
        raise NumericalError("metric is not finite")
    residue = np.abs(g.imag).max(axis=(-2, -1), initial=0.0)  # rounding, which scales with |G|
    bad = residue > IMAG_TOL * np.maximum(1.0, scale)
    if bad.any():
        raise NumericalError(f"metric has imaginary residue {residue[bad].max():.3e}")
    g = g.real
    return 0.5 * (g + g.swapaxes(-1, -2))


def metric_pure(
    psi: np.ndarray, dpsi: Sequence[np.ndarray], f: petz.PetzFunction
) -> np.ndarray:
    """Pure-state metric (2 / f(0)) [Re<d_n psi|d_m psi> - Re(<psi|d_m psi><d_n psi|psi>)]."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ShapeMismatchError("ket must be normalized")
    f0 = petz.eval_zero(f)
    if f0 <= 0.0:
        raise MetricUndefinedError(f"pure-state metric needs f(0) > 0, got {f0}")
    d = np.column_stack([np.asarray(x, dtype=complex).reshape(-1) for x in dpsi])
    overlaps = d.conj().T @ d  # [m, n] = <d_m psi|d_n psi>
    a = psi.conj() @ d  # a[m] = <psi|d_m psi>
    qgt = overlaps.real - np.outer(a, a.conj()).real
    g = (2.0 / f0) * qgt
    return 0.5 * (g + g.T)


def diagonal(G: np.ndarray) -> np.ndarray:
    """Zero the off-diagonal entries of G, or of each member of a (N, K, K) stack."""
    G = np.asarray(G, dtype=float)
    return np.where(np.eye(G.shape[-1], dtype=bool), G, 0.0)


def regularize_metric(G: np.ndarray, xi: float) -> np.ndarray:
    """(1 - xi) G + xi I, for one metric or a (N, K, K) stack."""
    G = np.asarray(G, dtype=float)
    if not 0.0 <= xi <= 1.0:
        raise ValidationError(f"xi = {xi} outside [0, 1]")
    return (1.0 - xi) * G + xi * _identity(G.shape[-1])


def check_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """The Kraus operators as one (..., M, d, d) array; sum K^dagger K = I to ``KRAUS_TOL``."""
    kraus = np.asarray(kraus, dtype=complex)
    total = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    if not np.abs(total - np.eye(kraus.shape[-1])).max() <= KRAUS_TOL:  # nan fails too
        raise ShapeMismatchError("Kraus operators do not satisfy sum K^dagger K = I")
    return kraus


def apply_channel(kraus: Sequence[np.ndarray], rho: np.ndarray, tangents: Sequence[np.ndarray]):
    """Push state and m-representation tangents through a CPTP map.

    For one state, ``kraus`` lists M (d, d) operators, rho is (d, d) and
    ``tangents`` is K (d, d) matrices; returns rho' (d, d) and the pushed
    tangents (K, d, d).  For N states every argument gains a leading axis:
    kraus (N, M, d, d), rho (N, d, d), tangents (N, K, d, d).  A shorter
    Kraus list may be padded with zero operators, which add nothing.
    """
    k = check_kraus(kraus)
    kh = k.conj().swapaxes(-1, -2)
    rho_out = (k @ np.asarray(rho, dtype=complex)[..., None, :, :] @ kh).sum(axis=-3)
    x = np.asarray(tangents, dtype=complex).reshape(*k.shape[:-3], 1, -1, *k.shape[-2:])
    pushed = (k[..., None, :, :] @ x @ kh[..., None, :, :]).sum(axis=-4)
    return rho_out, pushed


# the depolarizing channel's Kraus operators, each before its coefficient
_PAULIS = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])


def _complex(draws: np.ndarray) -> np.ndarray:
    """re + 1j im from standard normal draws (..., 2, r, c) that hold re, then im."""
    return draws[..., 0, :, :] + 1j * draws[..., 1, :, :]


def _depolarizing(p) -> np.ndarray:
    """Depolarizing Kraus operators (..., 4, 2, 2) for mixing probabilities p (...)."""
    p = np.asarray(p, dtype=float)
    q = p / 4.0
    c = np.sqrt(np.stack([1.0 - 3.0 * p / 4.0, q, q, q], axis=-1))
    return c[..., None, None] * _PAULIS


def _amplitude_damping(gamma) -> np.ndarray:
    """Amplitude-damping Kraus operators (..., 2, 2, 2) for damping rates gamma (...)."""
    gamma = np.asarray(gamma, dtype=float)
    kraus = np.zeros(gamma.shape + (2, 2, 2), dtype=complex)
    kraus[..., 0, 0, 0] = 1.0
    kraus[..., 0, 1, 1] = np.sqrt(1.0 - gamma)
    kraus[..., 1, 0, 1] = np.sqrt(gamma)
    return kraus


def _haar_kraus(a: np.ndarray, n_kraus: int) -> np.ndarray:
    """Kraus operators (..., n_kraus, d, d): blocks of the QR isometry of a (..., n_kraus d, d)."""
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]  # fix QR's phases
    return q.reshape(*q.shape[:-2], n_kraus, q.shape[-1], q.shape[-1])


def _density(a: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """a a^dagger / Tr(a a^dagger) for a (..., d, d), mixed with I / d by ``floor``."""
    dim = a.shape[-1]
    rho = a @ a.conj().swapaxes(-1, -2)
    rho = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    if floor > 0.0:
        rho = (1.0 - floor) * rho + floor * np.eye(dim) / dim
    return rho


def _tangent(a: np.ndarray) -> np.ndarray:
    """The traceless Hermitian part of a (..., d, d), scaled to unit Frobenius norm.

    The norm is the square root of a BLAS dot per member, the bits of
    np.linalg.norm on that member alone (see ``optimizer._norm``).
    """
    dim = a.shape[-1]
    x = 0.5 * (a + a.conj().swapaxes(-1, -2))
    x = x - (np.trace(x, axis1=-2, axis2=-1) / dim)[..., None, None] * np.eye(dim)
    flat = x.reshape(*x.shape[:-2], dim * dim)
    norm = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return x / norm[..., None, None]


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Single-qubit depolarizing channel with mixing probability p."""
    return list(_depolarizing(p))


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Single-qubit amplitude-damping channel with damping rate gamma."""
    return list(_amplitude_damping(gamma))


def haar_random_kraus(rng: np.random.Generator, dim: int, n_kraus: int = 2) -> List[np.ndarray]:
    """Random channel from a Haar-distributed isometry split into blocks.

    Draws the real, then the imaginary part of a (n_kraus dim, dim)
    Gaussian matrix; the arithmetic is the stacked sampler's.
    """
    return list(_haar_kraus(_complex(rng.normal(size=(2, n_kraus * dim, dim))), n_kraus))


def random_density(rng: np.random.Generator, dim: int, floor: float = 0.0) -> np.ndarray:
    """Full-rank random state; `floor` mixes in identity to bound eigenvalues away from 0.

    Draws the real, then the imaginary part of a (dim, dim) Gaussian matrix
    a and returns a a^dagger over its trace; the arithmetic is the stacked
    sampler's.
    """
    return _density(_complex(rng.normal(size=(2, dim, dim))), floor)


def random_tangent(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian traceless direction with unit Frobenius norm.

    Draws as ``random_density`` does; the arithmetic is the stacked sampler's.
    """
    return _tangent(_complex(rng.normal(size=(2, dim, dim))))


@dataclass(frozen=True)
class Witness:
    """One (state, tangent, channel) triple with its metric values."""

    index: int
    rho: np.ndarray
    tangent: np.ndarray
    kraus: List[np.ndarray]
    before: float
    after: float

    @property
    def violation(self) -> float:
        return self.after - self.before


@dataclass(frozen=True)
class ProbeResult:
    max_violation: float
    witness: Optional[Witness]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), on 32-bit words
_MASK32 = 0xFFFFFFFF
_POOL = 4  # pool words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the hash constant that takes entropy in
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the one that generate_state reads out with
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _powers(init: int, mult: int, n: int) -> List[int]:
    """The hash constant before each of n - 1 steps and after the last: init mult^k mod 2^32."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


# generate_state's constants for its 8 output words, 4 as uint64
_STATE_STEPS = np.array(_powers(_INIT_B, _MULT_B, 2 * _POOL + 1), dtype=np.uint64)


def _hashmix(value, c, c_next):
    """Hash a word with constant c, which steps to c_next; Python ints or uint64 arrays."""
    value = (value ^ c) * c_next & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """Mix hashed word y into pool word x; Python ints or uint64 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _seed_states(seed: int, start: int, count: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``, (count, 4).

    Row n is for i = start + n, with i < 2^64.  The seed's words, padded
    with zeros to the pool size, are mixed into the pool once, as Python
    ints.  The spawn key's words (one for i < 2^32, two above) and the
    eight output words then run as arrays over the chunk: each 32-bit word
    is held in a uint64 and masked after every product, which gives the
    wrap mod 2^32 of numpy's C.  A hash constant depends only on its step's
    position, so every member shares them.
    """
    seed = int(seed)
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_POOL - len(entropy))
    # 4 steps per entropy word take the seed in, then 4 per spawn-key word
    consts = _powers(_INIT_A, _MULT_A, _POOL * len(entropy) + 2 * _POOL + 1)
    steps = zip(consts, consts[1:])
    pool = [_hashmix(word, *next(steps)) for word in entropy[:_POOL]]
    for src in range(_POOL):  # every pool word into every other
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(steps)))
    for word in entropy[_POOL:]:
        pool = [_mix(x, _hashmix(word, *next(steps))) for x in pool]

    spawn = np.array(consts[-2 * _POOL - 1 :], dtype=np.uint64)
    index = np.uint64(start) + np.arange(count, dtype=np.uint64)
    low = (index & _MASK32)[:, None]
    pool = _mix(np.array(pool, dtype=np.uint64), _hashmix(low, spawn[:4], spawn[1:5]))
    two = slice(max(0, _MASK32 + 1 - start), None)  # the members with i >= 2^32
    high = (index[two] >> 32)[:, None]
    if len(high):
        pool[two] = _mix(pool[two], _hashmix(high, spawn[4:8], spawn[5:]))
    words = _hashmix(np.tile(pool, 2), _STATE_STEPS[:-1], _STATE_STEPS[1:])  # the pool, read twice
    return words[:, 0::2] + words[:, 1::2] * (_MASK32 + 1)  # little-endian pairs of 32-bit words


@functools.cache
def _given_state() -> type:
    """A seed sequence that hands over state words computed in advance.

    PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` and
    seeds itself from them.  The class is made on first use, so that
    ``import qngm`` does not import ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return GivenState


def _draw_chunk(seed: int, start: int, count: int):
    """Probe triples start ... start + count - 1, each a function of (seed, index) alone.

    Each triple has its own generator, seeded as by
    ``SeedSequence(entropy=seed, spawn_key=(index,))``: ``_seed_states``
    hashes the chunk's state words in one pass, and each generator is made
    from its words.  The generator makes the raw draws of
    ``random_density`` and ``random_tangent`` at dim 2 and then picks a
    channel: depolarizing, amplitude damping or Haar random (two
    operators), one in three each.  The arithmetic then runs once on the
    stack, grouped by channel kind.  Returns rho (n, 2, 2), X (n, 2, 2),
    the Kraus stack (n, 4, 2, 2), padded with zero operators, and each
    member's operator count (n,).
    """
    gauss = np.empty((count, 2, 2, 2, 2))  # per member: (rho, X) x (re, im) x (2, 2)
    kinds = np.empty(count, dtype=int)
    params = np.zeros(count)  # the depolarizing or damping parameter
    haar = np.zeros((count, 2, 4, 2))  # (re, im) x (4, 2)
    given = _given_state()
    for n, words in enumerate(_seed_states(seed, start, count)):
        rng = np.random.default_rng(given(words))
        gauss[n] = rng.normal(size=(2, 2, 2, 2))
        kinds[n] = kind = rng.integers(0, 3)
        if kind == 2:
            haar[n] = rng.normal(size=(2, 4, 2))
        else:
            params[n] = rng.random()  # rng.uniform(0.0, 1.0), bit for bit: 0 + 1 * random()
    a = _complex(gauss)
    depolarizing, damping, isometry = (kinds == kind for kind in range(3))
    kraus = np.zeros((count, 4, 2, 2), dtype=complex)
    kraus[depolarizing] = _depolarizing(params[depolarizing])
    kraus[damping, :2] = _amplitude_damping(params[damping])
    kraus[isometry, :2] = _haar_kraus(_complex(haar[isometry]), 2)
    return _density(a[:, 0]), _tangent(a[:, 1]), kraus, np.where(depolarizing, 4, 2)


def _contraction(f: petz.PetzFunction, rho: np.ndarray, x: np.ndarray, kraus: np.ndarray):
    """g(X, X) at rho and at the channel's output, for a stack of triples: (before, after).

    One stacked metric call serves both sides; each value has the bits of
    its own single call.
    """
    x = x[:, None]
    rho_out, pushed = apply_channel(kraus, rho, x)
    g = metric(np.concatenate([rho, rho_out]), np.concatenate([x, pushed]), f)[:, 0, 0]
    return g[: len(rho)], g[len(rho) :]


class _Chunk(NamedTuple):
    """Probe triples start ... start + len(rho) - 1 with g(X, X) before and after the channel.

    rho, tangent, kraus and counts are as ``_draw_chunk`` returns them.
    """

    start: int
    rho: np.ndarray
    tangent: np.ndarray
    kraus: np.ndarray
    counts: np.ndarray
    before: np.ndarray
    after: np.ndarray

    def witness(self, n: int) -> Witness:
        kraus = list(self.kraus[n, : self.counts[n]])
        rho, tangent, before, after = self.rho[n], self.tangent[n], self.before[n], self.after[n]
        return Witness(self.start + n, rho, tangent, kraus, before, after)


def _chunks(f: petz.PetzFunction, seed: int, stop: Optional[int]) -> Iterator[_Chunk]:
    """Probe triples 0 ... stop - 1 (endless for None), evaluated ``_CHUNK`` at a time.

    If a chunk's stacked evaluation fails, its triples are replayed one at
    a time, each as a chunk of one, so the first failing triple raises
    after every triple before it is yielded, as by a triple-at-a-time loop.
    """
    starts = itertools.count(0, _CHUNK) if stop is None else range(0, stop, _CHUNK)
    for start in starts:
        draws = _draw_chunk(seed, start, _CHUNK if stop is None else min(_CHUNK, stop - start))
        try:
            values = _contraction(f, *draws[:3])
        except QngmError:  # replay one triple at a time, up to the one that fails
            for n in range(len(draws[0])):
                one = [a[n : n + 1] for a in draws]
                yield _Chunk(start + n, *one, *_contraction(f, *one[:3]))
        else:
            yield _Chunk(start, *draws, *values)


def _require_count(name: str, value, least: int) -> None:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} = {value!r} must be an integer >= {least}")


def probe_triples(f: petz.PetzFunction, seed: int) -> Iterator[Witness]:
    """Endless random qubit (state, tangent, channel) triples; triple i depends on (seed, i) only.

    Triples are drawn ``_CHUNK`` at a time by ``_draw_chunk``, which seeds
    each triple's generator from one vectorised hash of the chunk's seed
    words.  They are evaluated with one ``apply_channel`` over the
    zero-padded Kraus stack and one stacked metric call on the states
    before and after the channel.  If a chunk fails, its triples are
    replayed one at a time from the same arrays, so every triple before the
    failing one is still yielded, as by a triple-at-a-time loop.  A seed
    that is not an integer >= 0 raises ValidationError before any draw.
    """
    _require_count("seed", seed, 0)
    chunks = _chunks(f, seed, None)
    return (chunk.witness(n) for chunk in chunks for n in range(len(chunk.rho)))


def monotonicity_probe(f: petz.PetzFunction, samples: int, seed: int) -> ProbeResult:
    """Search the first ``samples`` probe triples for metric growth.

    A monotone metric satisfies g_rho(X, X) >= g_channel(rho)(X', X'); the
    probe reports the largest observed difference (after - before) together
    with the witnessing triple when it is positive.  The triples are those
    of ``probe_triples``, drawn only up to ``samples``; each chunk's
    differences are reduced with ``argmax``, and only the winning triple, the
    first of equal maxima, becomes a ``Witness``.  A triple that fails
    raises as in the triple-at-a-time loop, and one past ``samples`` is
    never drawn.  ``samples`` must be an integer >= 1 and ``seed`` one >= 0,
    or ValidationError is raised before any draw.
    """
    _require_count("samples", samples, 1)
    _require_count("seed", seed, 0)
    worst = None
    for chunk in _chunks(f, seed, samples):
        violation = chunk.after - chunk.before
        n = int(np.argmax(violation))  # the first of equal maxima
        if worst is None or violation[n] > worst.violation:
            worst = chunk.witness(n)
    return ProbeResult(float(worst.violation), worst if worst.violation > 0.0 else None)
