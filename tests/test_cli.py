import os

import pytest

from qngm import cli
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
        body = open(p).read().splitlines()
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


def test_bad_inputs_fail_before_running(tmp_path):
    out = str(tmp_path / "no.csv")
    for flags in (
        ["--theta0", "nan,0,0"],
        ["--theta-star", "0,inf,0"],
        ["--bloch", "nan,0,0"],
        ["--metric", "lin:5:sld:rrld"],
        ["--sweep-alpha", "0.3,0.5,0.3"],
    ):
        assert cli.main(["run", *flags, "--steps", "3", "--out", out]) == 2, flags
    assert not os.path.exists(out)


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


def test_properties_bad_seed_env_is_a_config_error(monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "abc")
    assert cli.main(["properties", "--samples", "5"]) == 2
