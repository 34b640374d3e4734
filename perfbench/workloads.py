"""The three benchmark workloads: inputs from a seed, one op, output checks.

Each workload is set up once per process (its constructor), then its ``op`` is
called in a closed loop.  ``check`` validates the result of one op and
returns a list of problems (empty when the op is correct).  The reference
values used by the checks come from ``reference.py``, which does not call
the package's circuit code.

This module imports ``qngm``; ``run.py`` puts the checkout's ``src`` on the
path before importing it.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

from qngm import classical, cli, divergence, optimizer, petz, qfim, states

import reference

# Ops last 0.1-0.3 s: long enough to average the host's millisecond-scale
# slow spells, so that the tail of op times repeats between runs, and short
# enough that a run times over a hundred of them (README.md, "Noise").
#
# One op of heisenberg3-lr is optimizer.run over this many update steps
# (W1_STEPS + 1 records).
W1_STEPS = 16
# One op of sweep1q-lr is a 6-alpha sweep of this many steps per alpha.
# Criterion 09's ordering is checked from record BURN_IN on, so W2_STEPS
# must exceed it; it held for seeds 0-59 at 60 steps, and a shorter run is
# a prefix of the same trajectory.
W2_STEPS = 24
W2_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, -1.0)
BURN_IN = 10
# Random triples per monotonicity probe in one invariants op (the CLI's
# report uses 500 per metric): two probes make 4 * W3_SAMPLES tiny
# qfim.metric calls, most of the op.
W3_SAMPLES = 100
START_JITTER = 0.2
COST_TOL = 1e-10
ORDER_TOL = 1e-12


def seeded_theta0(seed: int, n_qubits: int) -> tuple:
    """Built-in start [pi/2, pi/2, pi/4] per qubit plus U(-0.2, 0.2) per entry."""
    rng = np.random.default_rng(seed)
    base = np.array([np.pi / 2, np.pi / 2, np.pi / 4] * n_qubits)
    return tuple(float(x) for x in base + rng.uniform(-START_JITTER, START_JITTER, base.size))


def run_with(config, circuit, cost, f, theta0):
    """optimizer.run with a CLI config's run options, passed as the CLI passes them."""
    return optimizer.run(
        circuit,
        cost,
        f,
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


class Heisenberg3:
    """W1: optimizer.run on the 3-qubit Heisenberg ring, rule lr, metric sld."""

    name = "heisenberg3-lr"
    steps = W1_STEPS
    records_per_op = W1_STEPS + 1

    def __init__(self, seed: int, workdir: str):
        self.theta0 = seeded_theta0(seed, 3)
        self.config = cli.load_config(
            overrides={
                "experiment": "three-qubit-heisenberg",
                "rule": "lr",
                "metric": "sld",
                "steps": W1_STEPS,
                "grad_tol": 0.0,
                "theta0": self.theta0,
            }
        )
        self.circuit, self.cost, theta0 = cli.build_experiment(self.config)
        self.f = petz.parse(self.config.metric)
        self.start = np.array(theta0, dtype=float)

    def op(self):
        return run_with(self.config, self.circuit, self.cost, self.f, self.start)

    def check(self, traj) -> list:
        if traj.error is not None:
            return [f"run aborted: {traj.error}"]
        if len(traj.records) != W1_STEPS + 1:
            return [f"{len(traj.records)} records, expected {W1_STEPS + 1}"]
        costs = traj.costs()
        if not np.all(np.isfinite(costs)):
            return ["non-finite cost"]
        last = traj.records[-1]
        expect = reference.heisenberg_cost(last.theta, self.config.omega, self.config.coupling)
        if abs(expect - last.cost) > COST_TOL:
            return [f"final cost {last.cost!r} vs reference {expect!r}"]
        return []

    @staticmethod
    def fingerprint(traj):
        """Everything a trajectory records, for bit-exact comparison."""
        return [
            (r.step, r.theta.tobytes(), r.cost, r.grad_norm, r.metric_cond) for r in traj.records
        ] + [traj.error]


class Sweep1q:
    """W2: the CLI's 6-alpha single-qubit sweep, rule lr."""

    name = "sweep1q-lr"
    steps = W2_STEPS
    records_per_op = len(W2_ALPHAS) * (W2_STEPS + 1)

    def __init__(self, seed: int, workdir: str):
        self.theta0 = seeded_theta0(seed, 1)
        self.out = os.path.join(workdir, "sweep")
        self.argv = [
            "run",
            "--experiment", "single-qubit",
            "--rule", "lr",
            "--sweep-alpha", ",".join(f"{a:g}" for a in W2_ALPHAS),
            "--theta0", ",".join(repr(x) for x in self.theta0),
            "--steps", str(W2_STEPS),
            "--out", self.out,
        ]  # fmt: skip
        self.files = [f"sw_alpha_{a:g}.csv".replace("-", "m") for a in W2_ALPHAS]
        self.expected = None

    def op(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def read_outputs(self) -> dict:
        out = {}
        for name in self.files:
            with open(os.path.join(self.out, name), "rb") as fh:
                out[name] = fh.read()
        return out

    def check(self, result) -> list:
        code, _ = result
        if code != cli.EXIT_OK:
            return [f"cli exit code {code}"]
        try:
            outputs = self.read_outputs()
        except OSError as exc:
            return [f"missing sweep output: {exc}"]
        if self.expected is None:
            problems = self.verify(outputs)
            if problems:
                return problems
            self.expected = outputs
        elif outputs != self.expected:
            return ["sweep CSVs differ from the first op with the same seed"]
        return []

    def fingerprint(self, result):
        return result[0], self.read_outputs()

    def verify(self, outputs: dict) -> list:
        """Full check of one sweep's CSVs; later ops are compared to these bytes."""
        problems = []
        curves = {}
        for alpha, name in zip(W2_ALPHAS, self.files):
            rows = outputs[name].decode().splitlines()
            if rows[0] != cli.CSV_HEADER or len(rows) != W2_STEPS + 2:
                problems.append(f"{name}: {len(rows)} lines or bad header")
                continue
            costs = np.array([float(row.split(",")[1]) for row in rows[1:]])
            if not np.all(np.isfinite(costs)):
                problems.append(f"{name}: non-finite cost")
                continue
            curves[alpha] = costs
            problems += self._check_final(alpha, name, rows)
        if not problems:
            a, b, c = curves[0.1][BURN_IN:], curves[0.5][BURN_IN:], curves[-1.0][BURN_IN:]
            if not (np.all(a <= b + ORDER_TOL) and np.all(b <= c + ORDER_TOL)):
                problems.append("L(0.1) <= L(0.5) <= L(-1) after burn-in does not hold")
        return problems

    def _check_final(self, alpha: float, name: str, rows: list) -> list:
        """Recompute the final cost at the final theta of the same run.

        The CSV holds no theta, so the run is repeated through the library
        API; its rows must match the CSV byte for byte before its final
        theta is trusted.
        """
        config = cli.load_config(
            overrides={
                "experiment": "single-qubit",
                "rule": "lr",
                "steps": W2_STEPS,
                "theta0": self.theta0,
            }
        )
        circuit, cost, theta0 = cli.build_experiment(config)
        traj = run_with(config, circuit, cost, petz.sandwiched(alpha), theta0)
        mine = [f"{r.step},{r.cost:.17g},{r.grad_norm:.17g},{r.metric_cond:.17g}" for r in traj.records]
        if mine != rows[1:]:
            return [f"{name}: CSV differs from the library trajectory"]
        last = traj.records[-1]
        expect = reference.state_distance_cost(last.theta, config.theta_star or (0.0,) * 3)
        if abs(expect - float(rows[-1].split(",")[1])) > COST_TOL:
            return [f"{name}: final cost {rows[-1]} vs reference {expect!r}"]
        return []


def invariant_checks(seed: int, samples: int) -> list:
    """The property report's checks, without its sw:0.25 witness search.

    Same calls and thresholds as ``cli._property_lines``; returns
    ``[(name, ok, value)]``.  The witness search is left out because the
    package misses the witness on about one seed in five (see README.md).
    """
    grid = petz.default_grid()
    registry = (
        petz.SLD, petz.BKM, petz.RRLD, petz.HALF,
        petz.sandwiched(0.1), petz.sandwiched(0.25), petz.sandwiched(2.0),
        petz.sandwiched(-1.0), petz.standard(0.5), petz.standard(3.0),
        petz.linear(0.3, petz.RRLD, petz.SLD),
        petz.ZERO_PLUS, petz.ZERO_MINUS, petz.INFINITY,
    )  # fmt: skip
    checks = []
    worst = max(
        max(r.f1_violation, r.symmetry_violation, r.positivity_violation)
        for r in (petz.check_conditions(fn, grid) for fn in registry)
    )
    checks.append(("petz conditions", worst <= 1e-10, worst))

    coincidences = (
        (petz.sandwiched(0.5), petz.SLD),
        (petz.sandwiched(2.0), petz.HALF),
        (petz.sandwiched(-1.0), petz.RRLD),
        (petz.standard(2.0), petz.RRLD),
        (petz.standard(-1.0), petz.RRLD),
        (petz.standard(1.0), petz.BKM),
    )
    worst = max(
        float(np.abs(petz.evaluate(a, grid) - petz.evaluate(b, grid)).max())
        for a, b in coincidences
    )
    checks.append(("petz coincidence table", worst <= 1e-10, worst))

    below = (petz.Order.LESS, petz.Order.EQUAL)
    monotone = (petz.SLD, petz.BKM, petz.RRLD, petz.HALF, petz.sandwiched(2.0), petz.INFINITY)
    ordered = all(
        petz.compare(petz.RRLD, fn, grid) in below and petz.compare(fn, petz.SLD, grid) in below
        for fn in monotone
    )
    checks.append(("rrld <= monotone f <= sld", ordered, None))
    dominated = all(
        petz.compare(petz.ZERO_PLUS, petz.sandwiched(a), grid)
        in (petz.Order.GREATER, petz.Order.EQUAL)
        for a in (0.1, 0.3, 0.5, 2.0, -0.5, -1.0, -3.0)
    )
    checks.append(("sw:0+ dominates the sandwiched family", dominated, None))

    worst = max(divergence.f_divergence_consistency(a) for a in (-0.5, 0.0, 0.5, 1.0, 3.0))
    checks.append(("F-divergence kernel identity", worst <= 1e-10, worst))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in (2, 3, 5):
        p = classical.probs_from_free(rng.dirichlet(np.ones(n) * 5.0)[:-1])
        ref = classical.fisher(p)
        for alpha in (-1.0, 0.3, 2.0):
            hess = divergence.fd_hessian(
                lambda q: classical.renyi(classical.probs_from_free(q), p, alpha),
                classical.free_from_probs(p),
                h=1e-4,
            )
            worst = max(worst, float(np.abs(hess - ref).max() / np.abs(ref).max()))
    checks.append(("classical Renyi Hessian is alpha-independent", worst <= 1e-4, worst))

    worst = 0.0
    for fn in (petz.SLD, petz.BKM, petz.RRLD, petz.sandwiched(2.0)):
        div = divergence.paired_divergence(fn)
        rho = qfim.random_density(rng, 2, floor=0.2)
        tangents = [qfim.random_tangent(rng, 2) for _ in range(2)]
        family = states.linear_family(rho, tangents)
        hess = divergence.fd_hessian(lambda u: div(family(u), rho), np.zeros(2), h=1e-3)
        ref = qfim.metric(rho, tangents, fn)
        worst = max(worst, float(np.linalg.norm(hess - ref) / np.linalg.norm(ref)))
    checks.append(("metric equals divergence Hessian", worst <= 1e-3, worst))

    for name, fn in (("sld", petz.SLD), ("rrld", petz.RRLD)):
        violation = qfim.monotonicity_probe(fn, samples, seed).max_violation
        checks.append((f"monotone contraction for {name}", violation <= 1e-9, violation))
    return checks


class Invariants:
    """W3: the property report's invariant checks, seeded with the run's seed."""

    name = "invariants"
    steps = None
    records_per_op = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.expected = None

    def op(self):
        return invariant_checks(self.seed, W3_SAMPLES)

    def check(self, checks) -> list:
        problems = [f"{name} fails ({value!r})" for name, ok, value in checks if not ok]
        if self.expected is None:
            self.expected = checks
        elif checks != self.expected:
            problems.append("check values differ from the first op with the same seed")
        return problems

    @staticmethod
    def fingerprint(checks):
        return checks


WORKLOADS = {w.name: w for w in (Heisenberg3, Sweep1q, Invariants)}

