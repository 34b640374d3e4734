# Natural-gradient descent on the single-qubit state-matching benchmark,
# sweeping the metric family.  Metrics from smaller alpha in (0, 0.5] descend
# faster; the designed affine combination lin:3:rrld:sld beats plain sld.
# The five metrics run in lockstep as one stack: one optimizer.run call, and
# each trajectory is the one its metric gives alone.
#
# Writes one CSV per metric into demo_output/; plot them with e.g.
#   python3 -c "import pandas as pd, matplotlib.pyplot as p; \
#     [p.semilogy(pd.read_csv(f'demo_output/{n}.csv').cost, label=n) \
#      for n in ('sw_0.1','sw_0.5','sw_-1','lin')]; p.legend(); p.show()"

import os

from qngm import cli, optimizer, petz

STEPS = 800
OUTDIR = "demo_output"
SPECS = (
    ("sw:0.1", "sw_0.1"),
    ("sw:0.3", "sw_0.3"),
    ("sw:0.5", "sw_0.5"),
    ("sw:-1", "sw_-1"),
    ("lin:3:rrld:sld", "lin"),
)

config = cli.ExperimentConfig()
circuit, cost, theta0 = cli.build_experiment(config)
os.makedirs(OUTDIR, exist_ok=True)

print(f"single-qubit benchmark, lr rule, eta = 1e-3, {STEPS} steps")
print(f"{'metric':>16s} {'final cost':>12s} {'cost at 200':>12s}")
trajectories = optimizer.run(
    circuit, cost, [petz.parse(spec) for spec, _ in SPECS], theta0,
    rule="lr", eta=1e-3, max_steps=STEPS,
)  # fmt: skip
for (spec, name), traj in zip(SPECS, trajectories):
    cli.write_csv(os.path.join(OUTDIR, f"{name}.csv"), traj)
    costs = traj.costs()
    print(f"{spec:>16s} {costs[-1]:12.6f} {costs[200]:12.6f}")

print()
print("the same sweep via the command line:")
print("  qngm run --sweep-alpha 0.1,0.3,0.5,-1 --rule lr --steps 800 --out demo_output")
