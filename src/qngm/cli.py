"""Config-driven experiment runner and property-report suite.

Config files are flat ``key = value`` lines with ``#`` comments; command-line
flags of the same names override file values.  Exit codes: 0 ok, 2 config
error, 3 numerical error, 4 property failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import classical, divergence, optimizer, petz, qfim, states
from .errors import (
    ConfigError,
    NumericalError,
    ParseError,
    QngmError,
    ValidationError,
)

# experiment name -> qubit count (None: read config.n_qubits); every experiment
# has 3 parameters per qubit and, on more than one qubit, a CNOT ring w -> w + 1
EXPERIMENTS = {"single-qubit": 1, "two-qubit": 2, "three-qubit-heisenberg": 3, "custom": None}
CSV_HEADER = "step,cost,grad_norm,metric_cond"
SEED_ENV = "QNGM_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PROPERTY = 4


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "single-qubit"
    metric: str = "sld"
    rule: str = "trust"
    epsilon: float = 1e-6
    eta: float = 1e-3
    delta: float = 1e-3
    xi: float = 1e-3
    rank_tol: float = 1e-9
    steps: int = 2000
    grad_tol: float = 1e-10
    seed: int = 0
    diagonal: bool = False
    out: str = "trajectory.csv"
    sweep_alpha: Optional[Tuple[float, ...]] = None
    theta0: Optional[Tuple[float, ...]] = None
    theta_star: Optional[Tuple[float, ...]] = None
    bloch: Optional[Tuple[Tuple[float, float, float], ...]] = None
    omega: float = 1.0
    coupling: float = 0.1
    n_qubits: int = 1


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ParseError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ParseError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_bloch(text: str) -> Tuple[Tuple[float, float, float], ...]:
    out = []
    for chunk in text.split(";"):
        triple = _parse_floats(chunk)
        if len(triple) != 3:
            raise ParseError(f"Bloch vector needs three components, got {chunk!r}")
        out.append(triple)
    return tuple(out)


_PARSERS = {
    str: str.strip,
    bool: _parse_bool,
    Optional[Tuple[float, ...]]: _parse_floats,
    Optional[Tuple[Tuple[float, float, float], ...]]: _parse_bloch,
}


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ParseError(f"unknown config key {key!r}")
    if kind in (float, int):
        try:
            return kind(value)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ParseError(f"flag {key!r}: expected {noun}, got {value!r}") from None
    return _PARSERS[kind](value)


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        try:
            values[key] = _coerce(key, value.strip())
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return values


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check all invariants at once; raises ValidationError listing every violation."""
    problems: List[str] = []
    if config.experiment not in EXPERIMENTS:
        problems.append(f"experiment {config.experiment!r} not in {tuple(EXPERIMENTS)}")
    if config.rule not in optimizer.RULES:
        problems.append(f"rule {config.rule!r} must be " + " or ".join(map(repr, optimizer.RULES)))
    for name, value in (("delta", config.delta), ("xi", config.xi)):
        if not 0.0 <= value < 1.0:
            problems.append(f"{name} = {value} outside [0, 1)")
    for name, value in (("epsilon", config.epsilon), ("eta", config.eta)):
        if value <= 0.0:
            problems.append(f"{name} = {value} must be positive")
    if config.rank_tol <= 0.0:
        problems.append(f"rank_tol = {config.rank_tol} must be positive")
    if config.steps < 0:
        problems.append(f"steps = {config.steps} must be >= 0")
    if config.grad_tol < 0.0:
        problems.append(f"grad_tol = {config.grad_tol} must be >= 0")
    try:
        petz.parse(config.metric)
    except ParseError as exc:
        problems.append(str(exc))
    if config.sweep_alpha and len(set(config.sweep_alpha)) < len(config.sweep_alpha):
        problems.append(f"sweep_alpha {config.sweep_alpha} lists an alpha twice")
    for name in ("theta0", "theta_star", "bloch"):
        vec = getattr(config, name)
        if vec is not None and not np.all(np.isfinite(vec)):
            problems.append(f"{name} has a non-finite entry")
    if config.experiment in EXPERIMENTS:
        n_qubits = EXPERIMENTS[config.experiment] or config.n_qubits
        if not 1 <= n_qubits <= 4:
            problems.append(f"n_qubits = {n_qubits} outside [1, 4]")
        else:
            for name, vec in (("theta0", config.theta0), ("theta_star", config.theta_star)):
                if vec is not None and len(vec) != 3 * n_qubits:
                    problems.append(f"{name} has {len(vec)} entries, expected {3 * n_qubits}")
            if config.bloch is not None:
                if len(config.bloch) != n_qubits:
                    problems.append(
                        f"bloch gives {len(config.bloch)} vectors, expected {n_qubits}"
                    )
                for vec in config.bloch:
                    if sum(c * c for c in vec) > 1.0 + 1e-12:
                        problems.append(f"Bloch vector {vec} outside the unit ball")
    if problems:
        raise ValidationError("; ".join(problems))
    return config


def _env_seed() -> int:
    """The seed from QNGM_SEED, or 0 when it is unset or empty."""
    text = os.environ.get(SEED_ENV)
    if not text:
        return 0
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{SEED_ENV} = {text!r} is not an integer") from None


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a validated config from an optional file plus overriding values."""
    values = _read_config_file(path) if path else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    if "seed" not in values:
        values["seed"] = _env_seed()
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    return validate_config(ExperimentConfig(**values))


def _ring_hamiltonian(n: int, omega: float, coupling: float) -> np.ndarray:
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        h += omega * states.pauli_on(n, i, "z")
        if n > 1:
            j = (i + 1) % n
            if n == 2 and i == 1:
                continue  # a 2-site ring has a single bond
            for p in ("x", "y", "z"):
                h += coupling * states.pauli_on(n, i, p) @ states.pauli_on(n, j, p)
    return h


def build_experiment(config: ExperimentConfig):
    """Instantiate (circuit, cost, theta0) for the configured experiment."""
    n = EXPERIMENTS[config.experiment] or config.n_qubits
    bloch = config.bloch or tuple((0.5, 0.0, 0.0) for _ in range(n))
    initial = np.array([[1.0]], dtype=complex)
    for vec in bloch:
        initial = np.kron(initial, states.bloch_state(*vec))

    gates: List[states.Gate] = []
    for w in range(n):
        gates.extend(states.r3_gates(w, 3 * w))
    if n > 1:
        gates += [states.Gate("cnot", w, target=(w + 1) % n) for w in range(n)]
    circuit = states.CircuitState(n, initial, tuple(gates), 3 * n)

    theta0 = np.array(config.theta0 if config.theta0 else [np.pi / 2, np.pi / 2, np.pi / 4] * n)
    if config.experiment == "two-qubit":
        h = states.pauli_on(2, 0, "z") + 0.1 * states.pauli_on(2, 0, "x") @ states.pauli_on(
            2, 1, "x"
        )
        cost = optimizer.Observable(h)
    elif config.experiment == "three-qubit-heisenberg":
        cost = optimizer.Observable(_ring_hamiltonian(3, config.omega, config.coupling))
    else:
        target = np.array(config.theta_star if config.theta_star else [0.0] * 3 * n)
        cost = optimizer.StateDistance(target)
    return circuit, cost, theta0


def write_csv(path: str, trajectory: optimizer.Trajectory) -> None:
    rows = [CSV_HEADER]
    for r in trajectory.records:
        rows.append(f"{r.step},{r.cost:.17g},{r.grad_norm:.17g},{r.metric_cond:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _run_single(config: ExperimentConfig, metric_spec: str) -> optimizer.Trajectory:
    circuit, cost, theta0 = build_experiment(config)
    traj = optimizer.run(
        circuit,
        cost,
        petz.parse(metric_spec),
        theta0,
        rule=config.rule,
        eta=config.eta,
        epsilon=config.epsilon,
        delta=config.delta,
        xi=config.xi,
        rank_tol=config.rank_tol,
        max_steps=config.steps,
        grad_tol=config.grad_tol,
        use_diagonal=config.diagonal,
    )
    if traj.error is not None:
        raise NumericalError(f"run aborted after {len(traj.records)} records: {traj.error}")
    return traj


def run_experiment(config: ExperimentConfig) -> List[str]:
    """Run one experiment (or an alpha sweep) and write CSV trajectories.

    A sweep runs its alphas in sequence and writes no CSV unless every
    alpha finishes.
    """
    started = time.perf_counter()
    if config.sweep_alpha:
        out_dir = config.out or "."
        os.makedirs(out_dir, exist_ok=True)
        jobs = []
        for alpha in config.sweep_alpha:
            text = petz.alpha_text(alpha)
            name = f"sw_alpha_{text}.csv".replace("-", "m")
            jobs.append((f"sw:{text}", os.path.join(out_dir, name)))
    else:
        jobs = [(config.metric, config.out)]
    trajectories = [_run_single(config, spec) for spec, _ in jobs]
    for (_, path), traj in zip(jobs, trajectories):
        write_csv(path, traj)
    elapsed = time.perf_counter() - started
    for (spec, path), traj in zip(jobs, trajectories):
        print(
            f"{spec}: final cost {traj.final_cost:.6e} "
            f"after {traj.records[-1].step} steps -> {path}"
        )
    print(f"wall time {elapsed:.3f} s")
    return [path for _, path in jobs]


def _property_lines(seed: int, samples: int) -> List[Tuple[str, bool, str]]:
    grid = petz.default_grid()
    checks: List[Tuple[str, bool, str]] = []

    specs = (
        "sld", "bkm", "rrld", "half", "sw:0.1", "sw:0.25", "sw:2", "sw:-1",
        "st:0.5", "st:3", "lin:0.3:rrld:sld", "sw:0+", "sw:0-", "sw:inf",
    )  # fmt: skip
    registry = {spec: petz.parse(spec) for spec in specs}
    worst = 0.0
    for fn in registry.values():
        report = petz.check_conditions(fn, grid)
        worst = max(
            worst, report.f1_violation, report.symmetry_violation, report.positivity_violation
        )
    checks.append(
        ("petz conditions f(1)=1, f(t)=t f(1/t), f>0", worst <= 1e-10, f"max violation {worst:.2e}")
    )

    coincidences = [
        (petz.sandwiched(0.5), petz.SLD),
        (petz.sandwiched(2.0), petz.HALF),
        (petz.sandwiched(-1.0), petz.RRLD),
        (petz.standard(2.0), petz.RRLD),
        (petz.standard(-1.0), petz.RRLD),
        (petz.standard(1.0), petz.BKM),
    ]
    worst = max(
        float(np.abs(petz.evaluate(a, grid) - petz.evaluate(b, grid)).max())
        for a, b in coincidences
    )
    checks.append(("petz coincidence table", worst <= 1e-10, f"max violation {worst:.2e}"))

    monotone = [petz.SLD, petz.BKM, petz.RRLD, petz.HALF, petz.sandwiched(2.0), petz.INFINITY]
    order_ok = all(
        petz.compare(petz.RRLD, fn, grid) in (petz.Order.LESS, petz.Order.EQUAL)
        and petz.compare(fn, petz.SLD, grid) in (petz.Order.LESS, petz.Order.EQUAL)
        for fn in monotone
    )
    checks.append(("rrld <= monotone f <= sld on grid", order_ok, ""))

    dominated = all(
        petz.compare(petz.ZERO_PLUS, petz.sandwiched(a), grid)
        in (petz.Order.GREATER, petz.Order.EQUAL)
        for a in (0.1, 0.3, 0.5, 2.0, -0.5, -1.0, -3.0)
    )
    checks.append(("sw:0+ dominates the sandwiched family", dominated, ""))

    worst = max(divergence.f_divergence_consistency(a) for a in (-0.5, 0.0, 0.5, 1.0, 3.0))
    checks.append(("F-divergence kernel identity", worst <= 1e-10, f"max violation {worst:.2e}"))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3, 5):
        free = rng.dirichlet(np.ones(n) * 5.0)[:-1]
        p = classical.probs_from_free(free)
        for alpha in (-1.0, 0.3, 2.0):
            hess = divergence.fd_hessian(
                lambda q: classical.renyi(classical.probs_from_free(q), p, alpha),
                classical.free_from_probs(p),
                h=1e-4,
            )
            ref = classical.fisher(p)
            worst = max(worst, float(np.abs(hess - ref).max() / np.abs(ref).max()))
    checks.append(
        ("classical Renyi Hessian is alpha-independent", worst <= 1e-4, f"max rel {worst:.2e}")
    )

    worst = 0.0
    for fn in (petz.SLD, petz.BKM, petz.RRLD, petz.sandwiched(2.0)):
        div = divergence.paired_divergence(fn)
        rho = qfim.random_density(rng, 2, floor=0.2)
        tangents = [qfim.random_tangent(rng, 2) for _ in range(2)]
        family = states.linear_family(rho, tangents)
        hess = divergence.fd_hessian(
            lambda u: div(family(u), rho), np.zeros(len(tangents)), h=1e-3
        )
        ref = qfim.metric(rho, tangents, fn)
        worst = max(worst, float(np.linalg.norm(hess - ref) / np.linalg.norm(ref)))
    checks.append(
        ("metric equals divergence Hessian (spot check)", worst <= 1e-3, f"max rel {worst:.2e}")
    )

    for name, fn in (("sld", petz.SLD), ("rrld", petz.RRLD)):
        probe = qfim.monotonicity_probe(fn, samples, seed)
        checks.append(
            (
                f"monotone contraction for {name} ({samples} triples)",
                probe.max_violation <= 1e-9,
                f"max violation {probe.max_violation:.2e}",
            )
        )

    # the witness search gets a guaranteed budget so the default report is conclusive
    probe = qfim.monotonicity_probe(petz.sandwiched(0.25), max(samples, 500), seed)
    found = probe.witness is not None
    detail = (
        f"violation {probe.witness.violation:.3e} at sample {probe.witness.index}"
        if found
        else "no witness found"
    )
    checks.append(("non-monotonicity witness for sw:0.25", found, detail))
    return checks


def run_properties(seed: int, samples: int) -> Tuple[str, bool]:
    """Aggregate the invariant suites into a text report; ok = all passed."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    lines = []
    all_ok = True
    for name, ok, detail in _property_lines(seed, samples):
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        lines.append(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
    lines.append("all properties passed" if all_ok else "one or more properties FAILED")
    return "\n".join(lines), all_ok


_HELP = {
    "metric": "petz spec, e.g. sld or sw:0.25",
    "out": "CSV path (directory for sweeps)",
    "sweep_alpha": "comma-separated alphas; runs sw:<alpha> for each",
    "theta0": "comma-separated initial parameters",
    "bloch": "per-qubit x,y,z triples joined by ';'",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field; values stay text until _coerce."""
    parser.add_argument("--config", default=None, help="flat key = value config file")
    choices = {"experiment": tuple(EXPERIMENTS), "rule": optimizer.RULES}
    for key, kind in _FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_const", const="true", help=_HELP.get(key))
        else:
            parser.add_argument(flag, choices=choices.get(key), help=_HELP.get(key))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qngm", description="quantum natural gradient over Petz-function metrics"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment and write CSV trajectories")
    _add_run_flags(run_parser)
    prop_parser = sub.add_parser("properties", help="run the invariant/property report")
    prop_parser.add_argument("--seed", type=int, default=None)
    prop_parser.add_argument("--samples", type=int, default=500)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {
                key: _coerce(key, getattr(args, key))
                for key in _FIELD_TYPES
                if getattr(args, key) is not None
            }
            config = load_config(args.config, overrides)
            run_experiment(config)
            return EXIT_OK
        seed = args.seed if args.seed is not None else _env_seed()
        report, ok = run_properties(seed, args.samples)
        print(report)
        return EXIT_OK if ok else EXIT_PROPERTY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QngmError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
