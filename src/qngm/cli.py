"""Config-driven experiment runner and property-report suite.

Config files are flat ``key = value`` lines with ``#`` comments; command-line
flags of the same names override file values.  Exit codes: 0 ok, 2 config
error, 3 numerical error, 4 property failure.
"""

from __future__ import annotations

import argparse
import itertools
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
WITNESS_CAP = 20_000  # about 1 triple in 330 is an sw:0.25 witness: a miss has odds ~e^-60

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
    rank_tol: float = qfim.RANK_TOL
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
    """Comma-separated numbers; a value of only empty fields is the empty tuple."""
    tokens = text.replace(" ", "").split(",")
    if not any(tokens):
        return ()
    try:
        return tuple(float(tok) for tok in tokens)
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
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
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


def _sweep_spec(alpha: float) -> str:
    return f"sw:{petz.alpha_text(alpha)}"


def _run_options(config: ExperimentConfig) -> dict:
    """``optimizer.run``'s step options: the config fields of the same names, and steps."""
    names = ("rule", "eta", "epsilon", "delta", "xi", "rank_tol", "grad_tol")
    return dict(max_steps=config.steps, **{name: getattr(config, name) for name in names})


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check all invariants at once; raises ValidationError listing every violation."""
    problems: List[str] = []
    if config.experiment not in EXPERIMENTS:
        problems.append(f"experiment {config.experiment!r} not in {tuple(EXPERIMENTS)}")
    # option_problems names run's keyword max_steps, which is the config's steps
    options = optimizer.option_problems(**_run_options(config))
    problems += [problem.replace("max_steps", "steps") for problem in options]
    for name in ("omega", "coupling", "theta0", "theta_star", "bloch"):
        value = getattr(config, name)
        if value is not None and not np.all(np.isfinite(value)):
            problems.append(f"{name} = {value} must be finite")
    if config.seed < 0:
        problems.append(f"seed = {config.seed} must be >= 0")
    for spec in [config.metric, *map(_sweep_spec, config.sweep_alpha or ())]:
        try:
            petz.parse(spec)
        except ParseError as exc:
            problems.append(str(exc))
    if config.sweep_alpha is not None and not config.sweep_alpha:
        problems.append("sweep_alpha lists no alpha")
    if config.sweep_alpha and len(set(config.sweep_alpha)) < len(config.sweep_alpha):
        problems.append(f"sweep_alpha {config.sweep_alpha} lists an alpha twice")
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
    """omega sum_i Z_i + coupling sum_i (XX + YY + ZZ) on the bonds (i, i + 1 mod n), n >= 3."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        for i in range(n):
            h += omega * states.pauli_on(n, i, "z")
            for p in ("x", "y", "z"):
                h += coupling * states.pauli_on(n, i, p) @ states.pauli_on(n, (i + 1) % n, p)
    if not np.isfinite(h).all():
        raise ConfigError(
            f"omega = {omega} and coupling = {coupling} give a Hamiltonian that is not finite"
        )
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
        z0, x0, x1 = (states.pauli_on(2, w, p) for w, p in ((0, "z"), (0, "x"), (1, "x")))
        cost = optimizer.Observable(z0 + 0.1 * x0 @ x1)
    elif config.experiment == "three-qubit-heisenberg":
        cost = optimizer.Observable(_ring_hamiltonian(3, config.omega, config.coupling))
    else:
        theta_star = np.array(config.theta_star if config.theta_star else [0.0] * 3 * n)
        cost = optimizer.StateDistance(states.evaluate(circuit, theta_star))
    return circuit, cost, theta0


def write_csv(path: str, trajectory: optimizer.Trajectory) -> None:
    rows = [CSV_HEADER]
    for r in trajectory.records:
        rows.append(f"{r.step},{r.cost:.17g},{r.grad_norm:.17g},{r.metric_cond:.17g}")
    # write beside the target and rename, so a failed write leaves no truncated CSV
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def run_experiment(config: ExperimentConfig) -> List[str]:
    """Run one experiment (or an alpha sweep) and write CSV trajectories.

    A sweep runs its alphas in lockstep, as one ``optimizer.run`` over the
    stack of their Petz functions, and writes no CSV unless every alpha
    finishes; an abort reports the first failing alpha.
    """
    started = time.perf_counter()
    if config.sweep_alpha:
        out_dir = config.out or "."
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make directory {out_dir}: {exc.strerror}") from None
        jobs = []
        for alpha in config.sweep_alpha:
            name = f"sw_alpha_{petz.alpha_text(alpha)}.csv".replace("-", "m")
            jobs.append((_sweep_spec(alpha), os.path.join(out_dir, name)))
    else:
        parent = os.path.dirname(config.out) or "."
        if os.path.isdir(config.out):
            raise ConfigError(f"cannot write {config.out}: it is a directory")
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write {config.out}: no directory {parent}")
        jobs = [(config.metric, config.out)]
    circuit, cost, theta0 = build_experiment(config)
    trajectories = optimizer.run(
        circuit,
        cost,
        [petz.parse(spec) for spec, _ in jobs],
        theta0,
        use_diagonal=config.diagonal,
        **_run_options(config),
    )
    for traj in trajectories:
        if traj.error is not None:
            raise NumericalError(f"run aborted after {len(traj.records)} records: {traj.error}")
    for (_, path), traj in zip(jobs, trajectories):
        try:
            write_csv(path, traj)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    elapsed = time.perf_counter() - started
    for (spec, path), traj in zip(jobs, trajectories):
        print(
            f"{spec}: final cost {traj.final_cost:.6e} "
            f"after {traj.records[-1].step} steps -> {path}"
        )
    print(f"wall time {elapsed:.3f} s")
    return [path for _, path in jobs]


def property_checks(seed: int, samples: int) -> List[Tuple[str, bool, Optional[float], str]]:
    """The property report as data: one ``(name, ok, value, detail)`` row per report line.

    ``value`` is the number a check compares with its bound, or None for the
    two ordering checks and for a witness search that finds none; ``detail``
    is printed after the name.  ``samples`` must be an integer >= 1 and
    ``seed`` one >= 0, or ValidationError is raised before any check.
    """
    qfim._require_count("samples", samples, 1)
    qfim._require_count("seed", seed, 0)
    grid = petz.default_grid()

    def bounded(name, value, bound, label="max violation"):
        return name, float(value) <= bound, float(value), f"{label} {value:.2e}"

    specs = (
        "sld", "bkm", "rrld", "half", "sw:0.1", "sw:0.25", "sw:2", "sw:-1",
        "st:0.5", "st:3", "lin:0.3:rrld:sld", "sw:0+", "sw:0-", "sw:inf",
    )  # fmt: skip
    reports = [petz.check_conditions(petz.parse(spec), grid) for spec in specs]
    worst = max(max(r.f1_violation, r.symmetry_violation, r.positivity_violation) for r in reports)
    rows = [bounded("petz conditions f(1)=1, f(t)=t f(1/t), f>0", worst, 1e-10)]

    left, right = zip(
        (petz.sandwiched(0.5), petz.SLD),
        (petz.sandwiched(2.0), petz.HALF),
        (petz.sandwiched(-1.0), petz.RRLD),
        (petz.standard(2.0), petz.RRLD),
        (petz.standard(-1.0), petz.RRLD),
        (petz.standard(1.0), petz.BKM),
    )
    values = petz.evaluate(left + right, np.tile(grid, (2 * len(left), 1)))  # one stacked call
    worst = np.abs(values[: len(left)] - values[len(left) :]).max()
    rows.append(bounded("petz coincidence table", worst, 1e-10))

    below = (petz.Order.LESS, petz.Order.EQUAL)
    monotone = [petz.SLD, petz.BKM, petz.RRLD, petz.HALF, petz.sandwiched(2.0), petz.INFINITY]
    ordered = all(
        petz.compare(petz.RRLD, fn, grid) in below and petz.compare(fn, petz.SLD, grid) in below
        for fn in monotone
    )
    rows.append(("rrld <= monotone f <= sld on grid", ordered, None, ""))
    dominated = all(
        petz.compare(petz.ZERO_PLUS, petz.sandwiched(a), grid)
        in (petz.Order.GREATER, petz.Order.EQUAL)
        for a in (0.1, 0.3, 0.5, 2.0, -0.5, -1.0, -3.0)
    )
    rows.append(("sw:0+ dominates the sandwiched family", dominated, None, ""))

    worst = max(divergence.f_divergence_consistency(a) for a in (-0.5, 0.0, 0.5, 1.0, 3.0))
    rows.append(bounded("F-divergence kernel identity", worst, 1e-10))

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
    rows.append(bounded("classical Renyi Hessian is alpha-independent", worst, 1e-4, "max rel"))

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
    rows.append(bounded("metric equals divergence Hessian (spot check)", worst, 1e-3, "max rel"))

    for name, fn in (("sld", petz.SLD), ("rrld", petz.RRLD)):
        worst = qfim.monotonicity_probe(fn, samples, seed).max_violation
        rows.append(bounded(f"monotone contraction for {name} ({samples} triples)", worst, 1e-9))

    witness = first_witness(seed)
    name = "non-monotonicity witness for sw:0.25"
    if witness is None:
        rows.append((name, False, None, f"no witness in {WITNESS_CAP} triples"))
    else:
        detail = f"violation {witness.violation:.3e} at sample {witness.index}"
        rows.append((name, True, float(witness.violation), detail))
    return rows


def first_witness(seed: int) -> Optional[qfim.Witness]:
    """The first probe triple on which the sw:0.25 metric grows, if any within the cap."""
    triples = itertools.islice(qfim.probe_triples(petz.sandwiched(0.25), seed), WITNESS_CAP)
    return next((t for t in triples if t.violation > 0.0), None)


def run_properties(seed: int, samples: int) -> Tuple[str, bool]:
    """The report text, one line per row of ``property_checks``; ok = every check passed."""
    rows = property_checks(seed, samples)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else "")
        for name, ok, _, detail in rows
    ]
    all_ok = all(ok for _, ok, _, _ in rows)
    lines.append("all properties passed" if all_ok else "one or more properties FAILED")
    return "\n".join(lines), all_ok


_HELP = {
    "experiment": ", ".join(EXPERIMENTS),
    "rule": " or ".join(optimizer.RULES),
    "metric": "petz spec, e.g. sld or sw:0.25",
    "out": "CSV path (directory for sweeps)",
    "sweep_alpha": "comma-separated alphas; runs sw:<alpha> for each",
    "theta0": "comma-separated initial parameters",
    "bloch": "per-qubit x,y,z triples joined by ';'",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field; values stay text until _coerce."""
    parser.add_argument("--config", default=None, help="flat key = value config file")
    for key, kind in _FIELD_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_const", const="true", help=_HELP.get(key))
        else:
            parser.add_argument(flag, help=_HELP.get(key))


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    """'--x -inf' -> '--x=-inf' unless --x is a switch: argparse takes '-inf' for an option."""
    switches = {"--" + key.replace("_", "-") for key, kind in _FIELD_TYPES.items() if kind is bool}
    out: List[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        takes_value = flag.startswith("--") and "=" not in flag and flag not in switches
        if takes_value and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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

    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
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
