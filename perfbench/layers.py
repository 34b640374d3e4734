"""Per-layer metrics from the spans of traced ops, and the traced run's self-tests.

Every metric is per op: ``<module>.<function>.calls`` counts spans,
``.self_ms`` sums their self time and ``.share`` is self time over the traced
op's wall time.  ``<module>.self_ms`` / ``<module>.share`` sum over every
traced function of a module, reported or not.  Spans opened by the CLI's
sweep threads overlap in wall time, so on sweep1q-lr the shares can add up
to more than 1.
"""

from __future__ import annotations

import statistics
import time

from spans import MODULES

# Spans each workload must produce, checked on every traced op.  They are the
# layers the benchmark's table predicts will move that workload.
MUST_FIRE = {
    "heisenberg3-lr": (
        "states.evaluate",
        "states.derivatives",
        "states.gate_unitary",
        "states.check_density",
        "qfim.metric",
        "linalg.hermitian_eig",
        "linalg.solve_sym",
        "linalg.condition_number",
        "optimizer.run",
        "optimizer.cost_and_gradient",
        "optimizer.step_lr",
    ),
    "sweep1q-lr": (
        "states.evaluate",
        "states.derivatives",
        "states.gate_unitary",
        "qfim.metric",
        "petz.evaluate",
        "linalg.hermitian_eig",
        "linalg.solve_sym",
        "linalg.condition_number",
        "optimizer.run",
        "optimizer.cost_and_gradient",
        "optimizer.step_lr",
        "cli.load_config",
        "cli.build_experiment",
        "cli.write_csv",
        "cli.run_experiment",
    ),
    "invariants": (
        "states.check_density",
        "qfim.metric",
        "qfim.apply_channel",
        "qfim.monotonicity_probe",
        "petz.evaluate",
        "petz.check_conditions",
        "petz.compare",
        "linalg.hermitian_eig",
        "divergence.fd_hessian",
        "divergence.paired_divergence",
        "classical.renyi",
    ),
}

SETUP_SPANS = ("cli.load_config", "cli.build_experiment")


def op_metrics(summary: dict, tracer, op_s: float, records: int) -> dict:
    """Every per-layer value of one traced op, keyed by metric name."""
    out = {}
    modules = dict.fromkeys(MODULES, 0.0)
    for name, (calls, self_s) in summary.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = self_s * 1e3
        out[f"{name}.share"] = self_s / op_s
        modules[name.split(".", 1)[0]] += self_s
    for module, self_s in modules.items():
        out[f"{module}.self_ms"] = self_s * 1e3
        out[f"{module}.share"] = self_s / op_s
    out["linalg.eigendecompositions"] = tracer.eig_calls
    if records:
        out["linalg.eigendecompositions_per_record"] = tracer.eig_calls / records
        out["states.gate_unitary.calls_per_record"] = (
            summary.get("states.gate_unitary", (0,))[0] / records
        )
    out["cli.write_csv.bytes"] = tracer.csv_bytes
    if tracer.wall_s:
        out["cli.run_experiment.cpu_per_wall"] = tracer.cpu_s / tracer.wall_s
    return out


def count_signature(summary: dict, tracer) -> tuple:
    """What must repeat exactly between traced ops of the same inputs."""
    calls = tuple(sorted((name, entry[0]) for name, entry in summary.items()))
    return calls, tracer.eig_calls, tracer.csv_bytes


def traced_setup(tracer, workload_cls, seed: int, workdir: str, repeats: int) -> dict:
    """Median share of the setup spans' self time in repeated in-process workload setups."""
    samples = {name: [] for name in SETUP_SPANS}
    with tracer.installed():
        for _ in range(repeats):
            tracer.reset()
            start = time.perf_counter()
            workload_cls(seed, workdir)
            setup_s = time.perf_counter() - start
            summary = tracer.summary()
            for name in SETUP_SPANS:
                samples[name].append(summary.get(name, (0, 0.0))[1] / setup_s)
    return {f"{name}.setup_share": statistics.median(v) for name, v in samples.items()}


def self_tests(workload_name: str, per_op: list, counts: list, fingerprints: dict) -> list:
    problems = []
    if len(per_op) < 2:
        problems.append(f"only {len(per_op)} traced ops; the repeat check needs 2")
    if fingerprints.get("untraced") != fingerprints.get("traced"):
        problems.append("traced and untraced ops gave different outputs")
    if len(set(counts)) > 1:
        problems.append("span counts differ between traced ops of the same inputs")
    for values in per_op:
        silent = [n for n in MUST_FIRE[workload_name] if not values.get(f"{n}.calls")]
        if silent:
            problems.append(f"spans did not fire: {silent}")
            break
    return problems


def aggregate(per_op: list, names) -> dict:
    """Median over traced ops of each named metric; a span that never ran reads 0."""
    return {name: statistics.median([op.get(name, 0) for op in per_op] or [0]) for name in names}
