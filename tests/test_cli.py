import functools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qngm import cli, optimizer, petz, states
from qngm.errors import ParseError, ValidationError


def test_defaults_match_paper_values():
    config = cli.load_config()
    assert config.delta == 1e-3
    assert config.xi == 1e-3
    assert config.epsilon == 1e-6
    assert config.eta == 1e-3
    assert config.experiment == "single-qubit"


def test_validation_collects_all_problems():
    with pytest.raises(ValidationError) as err:
        cli.load_config(overrides={"xi": 1.5, "eta": -1.0, "metric": "nonsense"})
    message = str(err.value)
    assert "xi" in message and "eta" in message and "nonsense" in message
    with pytest.raises(ValidationError):
        cli.load_config(overrides={"experiment": "five-qubit"})
    with pytest.raises(ValidationError):
        cli.load_config(overrides={"theta0": (1.0, 2.0)})  # wrong length
    with pytest.raises(ValidationError):
        cli.load_config(overrides={"bloch": ((1.0, 1.0, 0.0),)})


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# single-qubit run\n"
        "experiment = single-qubit\n"
        "metric = sw:0.25\n"
        "rule = lr\n"
        "eta = 0.002   # overridden below\n"
        "steps = 17\n"
    )
    config = cli.load_config(str(path), overrides={"eta": 0.005})
    assert config.metric == "sw:0.25"
    assert config.rule == "lr"
    assert config.eta == 0.005
    assert config.steps == 17


def test_config_file_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = single-qubit\nsteps equals ten\n")
    with pytest.raises(ParseError) as err:
        cli.load_config(str(path))
    assert ":2:" in str(err.value)
    path.write_text("steps = ten\n")
    with pytest.raises(ParseError) as err:
        cli.load_config(str(path))
    assert ":1:" in str(err.value)


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "77")
    assert cli.load_config().seed == 77
    monkeypatch.setenv(cli.SEED_ENV, "x")
    with pytest.raises(ParseError):
        cli.load_config()
    monkeypatch.delenv(cli.SEED_ENV)
    assert cli.load_config().seed == 0


def test_run_experiment_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    config = cli.load_config(overrides={"steps": 12, "out": str(out)})
    paths = cli.run_experiment(config)
    assert paths == [str(out)]
    lines = out.read_text().splitlines()
    assert lines[0] == "step,cost,grad_norm,metric_cond"
    assert len(lines) == 12 + 2  # header + steps + initial record
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) > 0


def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = cli.main(["run", "--steps", "40", "--seed", "5", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sw_half_equivalent_to_sld(tmp_path):
    finals = {}
    for spec in ("sld", "sw:0.5"):
        config = cli.load_config(overrides={"steps": 40, "metric": spec, "out": str(tmp_path / f"{spec.replace(':', '_')}.csv")})
        cli.run_experiment(config)
        lines = (tmp_path / f"{spec.replace(':', '_')}.csv").read_text().splitlines()
        finals[spec] = float(lines[-1].split(",")[1])
    assert finals["sld"] == pytest.approx(finals["sw:0.5"], abs=1e-12)


def test_sweep_writes_one_csv_per_alpha(tmp_path):
    outdir = tmp_path / "sweep"
    config = cli.load_config(
        overrides={"steps": 10, "sweep_alpha": (0.1, 0.5, -1.0), "out": str(outdir)}
    )
    paths = cli.run_experiment(config)
    assert len(paths) == 3
    for p in paths:
        assert os.path.exists(p)
        with open(p) as fh:
            body = fh.read().splitlines()
        assert len(body) == 12


def test_main_exit_codes(tmp_path):
    assert cli.main(["run", "--steps", "3", "--out", str(tmp_path / "ok.csv")]) == 0
    assert cli.main(["run", "--xi", "1.5", "--out", str(tmp_path / "no.csv")]) == 2
    assert cli.main(["run", "--metric", "junk", "--out", str(tmp_path / "no.csv")]) == 2
    # bkm on a pure state without delta-regularization: metric undefined
    code = cli.main(
        [
            "run",
            "--metric", "bkm",
            "--bloch", "1,0,0",
            "--delta", "0",
            "--steps", "5",
            "--out", str(tmp_path / "bkm.csv"),
        ]
    )
    assert code == 3


def test_properties_report(capsys):
    code = cli.main(["properties", "--samples", "60", "--seed", "12345"])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    assert "witness" in captured.out


def test_custom_experiment_runs(tmp_path):
    config = cli.load_config(
        overrides={
            "experiment": "custom",
            "n_qubits": 2,
            "steps": 5,
            "theta_star": tuple([0.0] * 6),
            "out": str(tmp_path / "custom.csv"),
        }
    )
    assert cli.run_experiment(config) == [str(tmp_path / "custom.csv")]


def test_custom_builds_the_builtin_gates():
    for n, name in ((2, "two-qubit"), (3, "three-qubit-heisenberg")):
        custom, _, _ = cli.build_experiment(cli.ExperimentConfig(experiment="custom", n_qubits=n))
        builtin, _, _ = cli.build_experiment(cli.ExperimentConfig(experiment=name))
        assert custom.gates == builtin.gates
        assert custom.n_params == builtin.n_params == 3 * n


def test_ring_hamiltonian_sums_the_read_only_paulis():
    # pauli_on returns cached read-only arrays; h += ... must add into a fresh h
    paulis = {p: np.array(m) for p, m in states.PAULI.items()}

    def on(ops):
        return functools.reduce(np.kron, [ops.get(w, np.eye(2)) for w in range(3)])

    expected = sum(1.5 * on({i: paulis["z"]}) for i in range(3))
    for i in range(3):
        expected = expected + sum(0.25 * on({i: m, (i + 1) % 3: m}) for m in paulis.values())
    for _ in range(2):
        h = cli._ring_hamiltonian(3, 1.5, 0.25)
        np.testing.assert_allclose(h, expected, atol=1e-15)
    assert states.pauli_on(3, 0, "z")[0, 0] == 1.0


# a valid value other than the default for every ExperimentConfig field
FIELD_VALUES = {
    "experiment": "two-qubit",
    "metric": "bkm",
    "rule": "lr",
    "epsilon": "2e-6",
    "eta": "0.002",
    "delta": "0.01",
    "xi": "0.02",
    "rank_tol": "1e-8",
    "steps": "7",
    "grad_tol": "1e-9",
    "seed": "3",
    "diagonal": "true",
    "out": "elsewhere.csv",
    "sweep_alpha": "0.1,0.2",
    "theta0": "0.1,0.2,0.3",
    "theta_star": "0.3,0.2,0.1",
    "bloch": "0,0,1",
    "omega": "2",
    "coupling": "0.5",
    "n_qubits": "2",
}


def test_every_field_is_a_flag_and_a_config_key(tmp_path, monkeypatch, capsys):
    assert set(FIELD_VALUES) == set(cli.ExperimentConfig.__dataclass_fields__)
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    usage = capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "run_experiment", seen.append)
    default = cli.ExperimentConfig()
    for key, text in FIELD_VALUES.items():
        flag = "--" + key.replace("_", "-")
        assert flag in usage
        argv = ["run", flag] if key == "diagonal" else ["run", flag, text]
        assert cli.main(argv) == 0
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key} = {text}\n")
        assert cli.main(["run", "--config", str(path)]) == 0
        by_flag, by_file = seen[-2:]
        assert by_flag == by_file
        assert getattr(by_flag, key) != getattr(default, key), key


def test_bad_flag_value_is_a_config_error(tmp_path):
    assert cli.main(["run", "--xi", "abc", "--out", str(tmp_path / "no.csv")]) == 2
    assert cli.main(["run", "--steps", "1.5", "--out", str(tmp_path / "no.csv")]) == 2


def test_bad_inputs_fail_before_running(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args, **kwargs: runs.append(args))
    out = str(tmp_path / "no.csv")
    heisenberg = ["--experiment", "three-qubit-heisenberg", "--rule", "trust"]
    for flags in (
        ["--theta0", "nan,0,0"],
        ["--theta-star", "0,inf,0"],
        ["--bloch", "nan,0,0"],
        ["--metric", "lin:5:sld:rrld"],
        ["--sweep-alpha", "0.3,0.5,0.3"],
        ["--metric", "sw:nan"],
        ["--metric", "st:-inf"],
        ["--sweep-alpha=nan"],
        [*heisenberg, "--epsilon", "nan"],
        [*heisenberg, "--epsilon", "inf"],
        [*heisenberg, "--omega", "nan"],
        [*heisenberg, "--coupling", "nan"],
        [*heisenberg, "--rank-tol", "nan"],
        [*heisenberg, "--grad-tol", "nan"],
        [*heisenberg, "--eta", "nan"],
        [*heisenberg, "--eta", "inf"],
        [*heisenberg, "--delta", "inf"],
        [*heisenberg, "--xi", "nan"],
    ):
        assert cli.main(["run", *flags, "--steps", "3", "--out", out]) == 2, flags
    assert not os.path.exists(out)
    assert runs == []


def test_sweep_file_names_keep_every_digit(tmp_path):
    config = cli.load_config(
        overrides={"steps": 2, "sweep_alpha": (0.1234567, 0.12345671), "out": str(tmp_path)}
    )
    paths = cli.run_experiment(config)
    assert [os.path.basename(p) for p in paths] == [
        "sw_alpha_0.1234567.csv",
        "sw_alpha_0.12345671.csv",
    ]
    assert all(os.path.exists(p) for p in paths)


def test_failed_sweep_writes_no_csv(tmp_path):
    # sw:0.25 runs on the pure state (f(0) > 0); sw:2 aborts (f(0) = 0)
    outdir = tmp_path / "sweep"
    argv = ["run", "--bloch", "1,0,0", "--delta", "0", "--steps", "5"]
    code = cli.main(argv + ["--sweep-alpha", "0.25,2", "--out", str(outdir)])
    assert code == 3
    assert os.listdir(outdir) == []


def test_failed_write_leaves_the_old_csv(tmp_path, monkeypatch):
    def trajectory(cost):
        return optimizer.Trajectory([optimizer.TrajectoryRecord(0, np.zeros(3), cost, 0.5, 2.0)])

    path = tmp_path / "run.csv"
    cli.write_csv(str(path), trajectory(1.0))
    before = path.read_bytes()
    assert before == b"step,cost,grad_norm,metric_cond\n0,1,0.5,2\n"

    class HalfWrite:
        """A file whose write stores half its text, then fails."""

        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(cli, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="disk full"):
        cli.write_csv(str(path), trajectory(0.25))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.csv"]


def test_properties_bad_seed_env_is_a_config_error(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    assert cli.main(["properties", "--samples", "5"]) == 2


@pytest.mark.parametrize(
    "argv, env",
    [
        (["properties", "--seed", "-1", "--samples", "5"], None),
        (["properties", "--samples", "5"], "-3"),
        (["run", "--seed", "-1", "--steps", "3"], None),
        (["run", "--steps", "3"], "-1"),
    ],
)
def test_a_negative_seed_is_a_config_error(monkeypatch, capsys, argv, env):
    if env is None:
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV, env)
    runs = []
    monkeypatch.setattr(cli, "run_experiment", runs.append)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: seed = -")
    assert runs == []


def test_bad_sweep_alpha_fails_before_running(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args, **kwargs: runs.append(args))
    argv = ["run", "--sweep-alpha=0.5,0", "--steps", "200", "--out", str(tmp_path / "sweep")]
    assert cli.main(argv) == 2
    assert runs == []


def test_an_empty_sweep_is_a_config_error(tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "o"
    argv = ["run", "--experiment", "single-qubit", "--sweep-alpha", ",", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "sweep_alpha lists no alpha" in capsys.readouterr().err
    assert not out.exists() and runs == []


def test_sweep_builds_the_experiment_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_experiment
    monkeypatch.setattr(cli, "build_experiment", lambda cfg: built.append(cfg) or build(cfg))
    config = cli.load_config(
        overrides={"steps": 2, "sweep_alpha": (0.1, 0.5, -1.0), "out": str(tmp_path)}
    )
    assert len(cli.run_experiment(config)) == 3
    assert len(built) == 1


@pytest.mark.parametrize(
    "flag, text, value",
    [
        ("--theta0", "-1,0,0", (-1.0, 0.0, 0.0)),
        ("--theta-star", "-0.5,0,0", (-0.5, 0.0, 0.0)),
        ("--sweep-alpha", "-1,0.5", (-1.0, 0.5)),
    ],
)
def test_flag_value_may_start_with_minus(monkeypatch, flag, text, value):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", seen.append)
    assert cli.main(["run", flag, text]) == 0
    assert cli.main(["run", f"{flag}={text}"]) == 0
    assert seen[0] == seen[1]
    assert getattr(seen[0], flag[2:].replace("-", "_")) == value


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--theta0", "-inf,0,0"], "theta0"),
        (["--experiment", "three-qubit-heisenberg", "--omega", "-inf"], "omega"),
    ],
)
def test_non_finite_value_after_a_flag_is_named(tmp_path, capsys, flags, field):
    assert cli.main(["run", *flags, "--steps", "3", "--out", str(tmp_path / "no.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field} ")


def test_a_switch_takes_no_value(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--diagonal", "-h"])
    assert info.value.code == 0
    assert "--theta0" in capsys.readouterr().out


def test_module_run_prints_nothing_on_stderr():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-m", "qngm.cli", "run", "--help"], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "--theta0" in result.stdout
    assert result.stderr == ""


def test_witness_is_found_for_seeds_0_to_49():
    for seed in range(50):
        witness = cli.first_witness(seed)
        assert witness is not None and witness.violation > 0.0, seed


def test_failed_sweep_reports_the_failing_alpha_as_its_solo_run(tmp_path, capsys):
    argv = ["run", "--bloch", "1,0,0", "--delta", "0", "--steps", "5"]
    assert cli.main(argv + ["--metric", "sw:2", "--out", str(tmp_path / "solo.csv")]) == 3
    solo = capsys.readouterr().err
    assert solo.startswith("numerical error: NumericalError: run aborted after 0 records: ")
    assert cli.main(argv + ["--sweep-alpha", "0.25,2", "--out", str(tmp_path / "sweep")]) == 3
    assert capsys.readouterr().err == solo


@pytest.mark.parametrize("case", ["missing parent", "sweep into a file", "run into a directory"])
def test_an_unwritable_out_is_a_config_error(tmp_path, monkeypatch, capsys, case):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args, **kwargs: runs.append(args))
    argv = ["run", "--steps", "2"]
    if case == "missing parent":
        out = tmp_path / "missing" / "run.csv"
    elif case == "sweep into a file":
        out = tmp_path / "file"
        out.write_text("x")
        argv += ["--sweep-alpha", "0.5"]
    else:
        out = tmp_path / "dir"
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert runs == []  # refused before the run
    assert sorted(tmp_path.rglob("*")) == before  # no .tmp file left


@pytest.mark.parametrize("flag", ["--theta0", "--sweep-alpha", "--bloch"])
@pytest.mark.parametrize("text", ["1,,2,3", "1,2,3,", ",1,2,3"])
def test_an_empty_field_among_numbers_is_a_parse_error(tmp_path, monkeypatch, capsys, flag, text):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args, **kwargs: runs.append(args))
    assert cli.main(["run", flag, text, "--out", str(tmp_path / "no.csv")]) == 2
    assert "expected comma-separated numbers" in capsys.readouterr().err
    assert runs == [] and os.listdir(tmp_path) == []
    with pytest.raises(ParseError):
        cli._parse_floats(text)


class CircuitPass(Exception):
    """Raised by a patched circuit evaluation: the run got past its option checks."""


def _refuse(*args, **kwargs):
    raise CircuitPass


RUN_VALUES = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e-12, 0.5, 1.0, 1.5, 3.0])


@settings(max_examples=300, deadline=None)
@given(
    rule=st.sampled_from(["lr", "trust", "sgd"]),
    floats=st.fixed_dictionaries(
        {},  # an option left out takes its default
        optional={
            name: RUN_VALUES for name in ("eta", "epsilon", "delta", "xi", "rank_tol", "grad_tol")
        },
    ),
    steps=st.integers(-3, 3),
)
@example(rule="lr", floats={"delta": 1.0}, steps=3)
@example(rule="lr", floats={"xi": 1.0}, steps=3)
def test_the_cli_and_the_library_accept_the_same_run_options(rule, floats, steps):
    try:
        cli.load_config(overrides={"rule": rule, "steps": steps, **floats})
    except ValidationError:
        cli_refuses = True
    else:
        cli_refuses = False
    circuit, cost, theta0 = cli.build_experiment(cli.ExperimentConfig())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "evaluate", _refuse)
        patch.setattr(states, "derivatives", _refuse)
        with pytest.raises((ValidationError, CircuitPass)) as outcome:
            optimizer.run(circuit, cost, petz.SLD, theta0, rule=rule, max_steps=steps, **floats)
    assert cli_refuses == (outcome.type is ValidationError)


def test_xi_one_runs_plain_gradient_descent(tmp_path):
    out = tmp_path / "gd.csv"
    argv = ["run", "--rule", "lr", "--eta", "0.01", "--xi", "1", "--steps", "20"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 21
    circuit, cost, theta = cli.build_experiment(cli.ExperimentConfig())
    for row in rows:
        rho, derivs = states.evaluate(circuit, theta), states.derivatives(circuit, theta)
        value, grad = optimizer.cost_and_gradient(cost, rho, derivs)
        assert float(row[1]) == value
        assert float(row[2]) == np.linalg.norm(grad)
        assert float(row[3]) == 1.0
        theta = theta - 0.01 * grad


@pytest.mark.parametrize("seed, samples", [(1.5, 5), (7, 2.5), (-1, 5), (7, 0)])
def test_bad_property_counts_fail_before_any_check(monkeypatch, seed, samples):
    checked = []
    monkeypatch.setattr(petz, "check_conditions", lambda *args: checked.append(args))
    with pytest.raises(ValidationError, match="must be an integer"):
        cli.run_properties(seed, samples)
    assert checked == []


def test_the_report_is_the_rows_of_property_checks(monkeypatch):
    rows = cli.property_checks(7, 100)
    assert [len(row) for row in rows] == [4] * 10
    assert [name for name, _, value, _ in rows if value is None] == [
        "rrld <= monotone f <= sld on grid",
        "sw:0+ dominates the sandwiched family",
    ]
    assert rows[-1][0] == "non-monotonicity witness for sw:0.25" and rows[-1][2] > 0.0
    text, ok = cli.run_properties(7, 100)
    lines = [f"PASS  {name}" + (f"  ({detail})" if detail else "") for name, _, _, detail in rows]
    assert ok is True and all(row[1] is True for row in rows)
    assert text == "\n".join(lines + ["all properties passed"])
    # one failing row fails the report, and a row without detail prints only its name
    fake = [("a", True, 1e-12, "max violation 1.00e-12"), ("b", False, None, "")]
    monkeypatch.setattr(cli, "property_checks", lambda seed, samples: fake)
    assert cli.run_properties(7, 100) == (
        "PASS  a  (max violation 1.00e-12)\nFAIL  b\none or more properties FAILED",
        False,
    )


def test_property_checks_make_at_most_60_petz_evaluations(monkeypatch):
    calls = []
    real = petz.evaluate
    monkeypatch.setattr(petz, "evaluate", lambda f, t: calls.append(f) or real(f, t))
    cli.property_checks(7, 100)
    assert len(calls) <= 60  # nested calls of lin included; 122 when each check evaluated alone


def test_steps_is_named_as_the_flag(tmp_path, capsys):
    assert cli.main(["run", "--steps", "-1", "--out", str(tmp_path / "no.csv")]) == 2
    assert capsys.readouterr().err == "config error: steps = -1 must be an integer >= 0\n"


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--metric", "st:1e6"], "Petz value f(t) = 0.000e+00 at eigenvalue ratio t = "),
        (
            ["--experiment", "three-qubit-heisenberg", "--coupling", "1e300"],
            "non-finite cost or gradient norm at step 0",
        ),
    ],
)
@pytest.mark.parametrize("rule", ["lr", "trust"])
def test_a_non_finite_metric_or_gradient_norm_is_a_numerical_error(
    tmp_path, capsys, flags, reason, rule
):
    out = tmp_path / "run.csv"
    assert cli.main(["run", *flags, "--rule", rule, "--steps", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    prefix = "numerical error: NumericalError: run aborted after 0 records: NumericalError: "
    assert err.startswith(prefix + reason) and err.count("\n") == 1
    assert not out.exists()


def test_an_overflowing_trust_region_form_is_a_numerical_error(tmp_path, capsys):
    # |grad| ~ 1e154 is finite, but grad^T G^-1 grad overflows: every step would be 0
    out = tmp_path / "run.csv"
    argv = ["run", "--experiment", "three-qubit-heisenberg", "--coupling", "1e154"]
    assert cli.main([*argv, "--rule", "trust", "--steps", "3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    prefix = "numerical error: NumericalError: run aborted after 1 records: NumericalError: "
    assert err == prefix + "trust-region form grad^T G^-1 grad is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--omega", "--coupling"])
def test_a_hamiltonian_that_is_not_finite_is_a_config_error(tmp_path, capsys, flag):
    out = tmp_path / "run.csv"
    argv = ["run", "--experiment", "three-qubit-heisenberg", flag, "1e308", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: omega = ") and "a Hamiltonian that is not finite" in err
    assert f"{flag[2:]} = 1e+308" in err and err.count("\n") == 1
    assert not out.exists()
