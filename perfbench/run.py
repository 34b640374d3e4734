#!/usr/bin/env python3
"""Benchmark for qngm: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload heisenberg3-lr --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the ops run untraced and the end-to-end metrics listed in
BENCHMARK.json are reported; with ``--trace 1`` untraced and traced ops
alternate and the per-layer metrics are reported.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics;
the line before it is a JSON record of the machine, the run and the details
behind the metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TAIL_BEYOND = 10
# An untraced run makes at least this many ops, so op_s_tail is at least
# the 80th percentile; a traced run makes at least 2 traced ops.
MIN_OPS = 5 * TAIL_BEYOND
MIN_TRACED_OPS = 2
# A run stops at this multiple of --seconds even with fewer than its minimum.
HARD_STOP = 2.0
SETUP_REPEATS = 11


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin(cpu):
    """Move this thread, and the threads and processes it starts, to one CPU."""
    os.sched_setaffinity(0, {cpu})


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail(values):
    """Highest integer percentile (nearest rank) with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, n - rank
    return ordered[-1], 100, 0


def quartiles(values):
    if len(values) < 2:
        return {"p50": values[0], "p25": values[0], "p75": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"p50": q2, "p25": q1, "p75": q3}


def machine(seed, cpus):
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
        "cpus": cpus,
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Calibration:
    """A fixed numpy loop timed between ops, so host drift shows in the record."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.h = a + a.conj().T
        self.eigh = np.linalg.eigh
        self.samples = []

    def __call__(self):
        start = time.perf_counter()
        for _ in range(40):
            self.eigh(self.h @ self.h)
        self.samples.append((time.perf_counter() - start) * 1e3)

    def record(self):
        return {"unit": "ms", "count": len(self.samples), **quartiles(self.samples)}


def setup_probe(workload, seed, workdir):
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), workdir],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} exited {code} before its first op")
    return elapsed


class Runner:
    """Closed-loop runner for one workload; counts attempted and failed ops."""

    def __init__(self, workload, seconds, cpus):
        self.workload = workload
        self.cpus = cpus
        self.turn = 0  # loop iterations so far; each runs on one CPU
        self.seconds = seconds
        self.calibration = Calibration()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def checked(self, fn, result_of=lambda out: out):
        """Run one op, time it and check result_of(its output).

        Returns (seconds, output, ok).  The output is None when the op
        raised; an op that raised or failed its check is a failed op but
        its time still counts.  The ops of one loop iteration, with their
        calibration, run on one CPU; iterations take the CPUs the process
        may use in turn (README.md, "Load").
        """
        pin(self.cpus[self.turn % len(self.cpus)])
        self.calibration()
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            out = fn()
            elapsed = time.perf_counter() - start
            problems = self.workload.check(result_of(out))
        except Exception as exc:  # an op that raises is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
            if elapsed is None:
                out, elapsed = None, time.perf_counter() - start
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return elapsed, out, not problems

    def loop(self, body, min_ops):
        """Call body(seconds elapsed) until --seconds have passed and it ran min_ops times."""
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds * HARD_STOP and self.turn:
                break
            if elapsed >= self.seconds and self.turn >= min_ops:
                break
            body(elapsed)
            self.turn += 1


def run_untraced(runner, seed, workdir):
    workload = runner.workload
    runner.checked(workload.op)  # warm-up: caches fill, first-op checks run
    times, setup_samples = [], []

    def body(elapsed):
        # set-up probes are spread over the run so that they see the same
        # host conditions as the ops
        if len(setup_samples) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / runner.seconds):
            setup_samples.append(setup_probe(workload.name, seed, workdir))
        times.append(runner.checked(workload.op)[0])

    runner.loop(body, MIN_OPS)
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup_probe(workload.name, seed, workdir))
    value, pct, beyond = tail(times)
    metrics = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    record = {
        "ops_timed": len(times),
        "op_s": quartiles(times),
        "op_s_mean": statistics.fmean(times),
        "op_s_tail_percentile": pct,
        "op_s_tail_ops_beyond": beyond,
        "failed_ratio": runner.failed / runner.attempted,
        "setup_s_samples": setup_samples,
        "steps_per_op": workload.steps,
        "op_s_p50_per_step": metrics["op_s_p50"] / workload.steps if workload.steps else None,
    }
    return metrics, record, []


def run_traced(runner, package, seed, workdir, names):
    """Alternate untraced and traced ops; per-layer medians plus the self-tests."""
    import layers
    from spans import Tracer

    tracer = Tracer(package)
    workload = runner.workload
    records = workload.records_per_op
    setup = layers.traced_setup(tracer, type(workload), seed, workdir, SETUP_REPEATS)
    plain_ms, traced_ms, per_op, counts, fingerprints = [], [], [], [], {}

    def traced_op():
        with tracer.installed():
            tracer.reset()
            start = time.perf_counter()
            result = workload.op()
            op_s = time.perf_counter() - start
        return result, op_s, tracer.summary()

    def body(_elapsed):
        elapsed, result, ok = runner.checked(workload.op)
        plain_ms.append(elapsed * 1e3)
        if ok:
            fingerprints.setdefault("untraced", workload.fingerprint(result))
        _, out, ok = runner.checked(traced_op, result_of=lambda out: out[0])
        if out is not None:
            result, op_s, summary = out
            traced_ms.append(op_s * 1e3)
            per_op.append(layers.op_metrics(summary, tracer, op_s, records))
            counts.append(layers.count_signature(summary, tracer))
            if ok:
                fingerprints.setdefault("traced", workload.fingerprint(result))

    runner.checked(workload.op)  # warm-up
    runner.loop(body, MIN_TRACED_OPS)

    problems = layers.self_tests(workload.name, per_op, counts, fingerprints)
    metrics = layers.aggregate(per_op, names)
    metrics.update(setup)
    nan = [float("nan")]  # only when every traced op raised
    metrics["bench.untraced_op_ms"] = statistics.median(plain_ms)
    metrics["bench.traced_op_ms"] = statistics.median(traced_ms or nan)
    metrics["trace.overhead_ms"] = metrics["bench.traced_op_ms"] - metrics["bench.untraced_op_ms"]
    record = {
        "ops_untraced": len(plain_ms),
        "ops_traced": len(traced_ms),
        "records_per_op": records,
        "untraced_op_ms": quartiles(plain_ms),
        "traced_op_ms": quartiles(traced_ms or nan),
        "self_tests": problems or "passed",
    }
    return metrics, record, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qngm", "__init__.py")):
        print(f"perfbench: no qngm package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    cpus = sorted(os.sched_getaffinity(0))
    sys.path.insert(0, SRC)
    import qngm
    import workloads

    if os.path.dirname(os.path.abspath(qngm.__file__)) != os.path.join(SRC, "qngm"):
        print(f"perfbench: imported qngm from {qngm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, args.seconds, cpus)
        if args.trace:
            wanted = spec["per_layer"]
            names = [m["name"] for m in wanted]
            values, detail, self_test_problems = run_traced(runner, qngm, args.seed, workdir, names)
        else:
            wanted = spec["end_to_end"]
            values, detail, self_test_problems = run_untraced(runner, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for metrics {missing}", file=sys.stderr)
        return 2
    problems = runner.problems + self_test_problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed, cpus),
        "calibration": runner.calibration.record(),
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
