import json
import os
import struct

import pytest

from arw import cli, experiments, gridio
from arw.config import ExperimentConfig, canonicalize, from_ini, load_config
from arw.errors import ConfigParseError, ValidationError

MINIMAL_CONFIG = """
[experiment]
d = 2
policy = explicit
n_values = 25
trials = 2
m_policy = per_L:16
master_seed = 11

[output]
csv = {csv}
report = {report}
"""


def run_cli(*argv):
    return cli.main(list(argv))


def test_lattice_command(capsys, tmp_path):
    report = tmp_path / "lat.json"
    assert run_cli("lattice", "--dim", "2", "--n", "25", "--points", "--report", str(report)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_HL"] == 12
    assert payload["orthogonality"] == [[150, 0], [0, 150]]
    assert len(payload["points"]) == 12
    assert json.loads(report.read_text()) == payload


def test_lattice_command_empty_shell(capsys):
    assert run_cli("lattice", "--dim", "3", "--n", "7") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_HL"] == 0
    assert payload["orthogonality"] is None


def test_lattice_command_rejects_bad_arguments(capsys):
    assert run_cli("lattice", "--dim", "0", "--n", "5") == 2
    assert "d must be >= 1" in capsys.readouterr().err
    assert run_cli("lattice", "--dim", "2", "--n", "-1") == 2
    assert "n must be nonnegative" in capsys.readouterr().err


def test_sample_and_count_roundtrip(tmp_path, capsys):
    out = tmp_path / "field.bin"
    assert run_cli(
        "sample", "--dim", "2", "--n", "25", "--seed", "5", "--trial", "1",
        "--grid", "16", "--out", str(out),
    ) == 0
    grid = gridio.read_grid(str(out))
    assert grid.M == 16 and grid.seed == 5 and grid.trial_index == 1

    report = tmp_path / "count.json"
    assert run_cli("count", "--in", str(out), "--report", str(report)) == 0
    payload = json.loads(report.read_text())
    assert payload["r"] >= 1 and payload["k"] >= 0
    assert sum(payload["domain_volumes"]) == pytest.approx(1.0, abs=1e-9)
    assert set(payload) >= {"k", "r", "alpha", "beta", "certified", "refinement_levels"}


def test_sample_rejects_negative_seed_or_trial(tmp_path, capsys):
    out = tmp_path / "field.bin"
    for seed, trial in (("-3", "0"), ("3", "-1")):
        assert run_cli(
            "sample", "--dim", "2", "--n", "25", "--seed", seed, "--trial", trial,
            "--grid", "16", "--out", str(out),
        ) == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def test_sample_rejects_grid_below_alias_floor(tmp_path, capsys):
    out = tmp_path / "field.bin"
    assert run_cli("sample", "--dim", "2", "--n", "5", "--seed", "1",
                   "--grid", "4", "--out", str(out)) == 2
    assert "required for n=5" in capsys.readouterr().err
    assert not out.exists()


def test_count_rejects_tampered_grid(tmp_path, capsys):
    out = tmp_path / "field.bin"
    run_cli("sample", "--dim", "2", "--n", "25", "--seed", "5", "--trial", "0",
            "--grid", "16", "--out", str(out))
    blob = bytearray(out.read_bytes())
    blob[60] ^= 0xFF  # flip a bit inside the data section
    out.write_bytes(bytes(blob))
    assert run_cli("count", "--in", str(out)) == 2


def test_count_rejects_non_finite_values(tmp_path, capsys):
    out = tmp_path / "field.bin"
    run_cli("sample", "--dim", "2", "--n", "25", "--seed", "5", "--trial", "0",
            "--grid", "16", "--out", str(out))
    blob = bytearray(out.read_bytes())
    for bad in (float("nan"), float("inf")):
        blob[gridio._HEADER.size:gridio._HEADER.size + 8] = struct.pack("<d", bad)
        out.write_bytes(bytes(blob))
        assert run_cli("count", "--in", str(out)) == 2
        assert "non-finite" in capsys.readouterr().err


def test_count_rejects_empty_grid_header(tmp_path, capsys):
    out = tmp_path / "field.bin"
    # a d past NumPy's largest rank must be refused before M**d is formed
    for d, M in ((0, 16), (2, 0), (10**7, 3), (4 * 10**9, 2), (65, 1)):
        header = gridio._HEADER.pack(gridio.MAGIC, gridio.VERSION, d, 25, M, 5, 0)
        out.write_bytes(header + b"\0" * 8)
        assert run_cli("count", "--in", str(out)) == 2
        assert "d >= 1 and M >= 1" in capsys.readouterr().err


def test_count_with_gradient_files(tmp_path):
    from arw import field, lattice

    out = tmp_path / "field.bin"
    run_cli("sample", "--dim", "2", "--n", "25", "--seed", "5", "--trial", "0",
            "--grid", "16", "--out", str(out))
    shell = lattice.enumerate_shell(2, 25)
    sample = field.sample_coefficients(shell, 5, 0)
    grads = []
    for axis in range(2):
        gpath = tmp_path / f"grad{axis}.bin"
        gridio.write_grid(str(gpath), field.eval_grid(sample, 16, (axis,)))
        grads.append(str(gpath))
    assert run_cli("count", "--in", str(out), "--grad-in", grads[0], "--grad-in", grads[1]) == 0


def test_algebra_command(capsys):
    assert run_cli("algebra", "--verify-identities", "--dmax", "6",
                   "--jacobian-example", "2", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["identities"]["d_max"] == 6
    assert payload["jacobian_example"]["passed"] is True


def test_algebra_command_rejects_bad_arguments(capsys):
    assert run_cli("algebra", "--verify-identities", "--dmax", "0") == 2
    assert "D_max must be >= 1" in capsys.readouterr().err
    for d, D in (("0", "2"), ("2", "-1"), ("2", "0")):
        assert run_cli("algebra", "--jacobian-example", d, D) == 2
        assert "needs d >= 1 and D >= 1" in capsys.readouterr().err


def test_config_canonicalization_idempotent(tmp_path):
    text = MINIMAL_CONFIG.format(csv="a.csv", report="r.json")
    canon = canonicalize(text)
    assert canonicalize(canon) == canon


def test_config_roundtrip_every_field():
    config = ExperimentConfig(
        d=3,
        policy="all",
        n_values=(9, 17),
        n_min=3,
        n_max=30,
        trials=7,
        m_policy="fixed:40",
        master_seed=5,
        epsilons=(0.05, 0.125),
        parallelism=2,
        memory_budget_mb=64,
        csv="t.csv",
        report="r.json",
        plots_dir="plots",
    )
    defaults = ExperimentConfig()
    assert all(getattr(config, k) != getattr(defaults, k) for k in vars(defaults))
    assert from_ini(config.to_ini()) == config


def test_config_unknown_key_rejected():
    text = MINIMAL_CONFIG.format(csv="a.csv", report="r.json") + "wibble = 3\n"
    with pytest.raises(ValidationError, match="wibble"):
        from_ini(text)


def test_config_unknown_section_rejected():
    text = MINIMAL_CONFIG.format(csv="a.csv", report="r.json") + "\n[extra]\nx = 1\n"
    with pytest.raises(ValidationError, match="extra"):
        from_ini(text)


def test_config_parse_error_reports_line():
    with pytest.raises(ConfigParseError, match="line"):
        from_ini("not an ini file at all\n")


def test_config_validation_errors():
    with pytest.raises(ValidationError, match="n_values"):
        from_ini("[experiment]\nd = 2\npolicy = explicit\n\n[output]\ncsv = a\nreport = b\n")
    with pytest.raises(ValidationError, match="m_policy"):
        from_ini(
            "[experiment]\nd = 2\npolicy = explicit\nn_values = 25\nm_policy = junk\n"
            "\n[output]\ncsv = a\nreport = b\n"
        )


def test_experiment_run_minimal(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    report_path = tmp_path / "report.json"
    config = tmp_path / "run.ini"
    config.write_text(MINIMAL_CONFIG.format(csv=csv_path, report=report_path))
    assert run_cli("experiment", "--config", str(config)) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3  # header + 2 trials
    payload = json.loads(report_path.read_text())
    assert payload["records"] == 2
    # 2 trials cannot support concentration statistics; degrade, not fail
    assert payload["concentration"] is None


def test_experiment_rerun_identical_csv(tmp_path):
    csv_path = tmp_path / "trials.csv"
    report_path = tmp_path / "report.json"
    config = tmp_path / "run.ini"
    config.write_text(MINIMAL_CONFIG.format(csv=csv_path, report=report_path))
    run_cli("experiment", "--config", str(config))
    rows_a = [
        line.rsplit(",", 1)[0] for line in csv_path.read_text().splitlines()
    ]  # strip wall_time_ms
    run_cli("experiment", "--config", str(config))
    rows_b = [line.rsplit(",", 1)[0] for line in csv_path.read_text().splitlines()]
    assert rows_a == rows_b


@pytest.mark.parametrize("before", [None, "300"])
def test_run_config_restores_memory_budget_env(tmp_path, monkeypatch, before):
    if before is None:
        monkeypatch.delenv("ARW_MEMORY_BUDGET_MB", raising=False)
    else:
        monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", before)
    config = tmp_path / "run.ini"
    text = MINIMAL_CONFIG.format(csv=tmp_path / "trials.csv", report=tmp_path / "report.json")
    config.write_text(text.replace("master_seed = 11", "master_seed = 11\nmemory_budget_mb = 64"))
    assert cli.run_config(str(config)) == 0
    assert json.loads((tmp_path / "report.json").read_text())["config"]["memory_budget_mb"] == 64
    assert os.environ.get("ARW_MEMORY_BUDGET_MB") == before


def test_malformed_memory_budget_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "abc")
    out = tmp_path / "field.bin"
    assert run_cli(
        "sample", "--dim", "2", "--n", "25", "--seed", "5", "--grid", "16", "--out", str(out)
    ) == 2
    assert "ARW_MEMORY_BUDGET_MB" in capsys.readouterr().err
    config = tmp_path / "run.ini"
    config.write_text(MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json"))
    assert run_cli("experiment", "--config", str(config)) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("n_values = 0,5", "n_values must be >= 1"),
        ("n_values = 5,5", "n_values must not repeat"),
        ("epsilons = nan", "epsilons must be positive and finite"),
        ("m_policy = per_L:-4", "must be >= 1"),
        ("m_policy = fixed:0", "must be >= 1"),
        ("n_values = 5,7", "n_values [7] are not sums of 2 squares"),
        ("master_seed = -1", "master_seed must be >= 0"),
    ],
    ids=[
        "n_zero", "n_repeated", "epsilon_nan", "per_L_negative", "fixed_zero", "n_empty_shell",
        "seed_negative",
    ],
)
def test_experiment_rejects_bad_config_values(tmp_path, capsys, line, message):
    key = line.split(" = ")[0]
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    lines = [row for row in text.splitlines() if not row.startswith(key + " =")]
    lines.insert(lines.index("[experiment]") + 1, line)
    config = tmp_path / "bad.ini"
    config.write_text("\n".join(lines) + "\n")
    assert run_cli("experiment", "--config", str(config)) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_experiment_memory_guard_exit_code(tmp_path, capsys):
    # every grid is refused: the outputs are still written, then the run fails
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace("n_values = 25", "n_values = 25,65").replace("trials = 2", "trials = 3")
    text = text.replace("m_policy = per_L:16", "m_policy = fixed:1024\nmemory_budget_mb = 1")
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert run_cli("experiment", "--config", str(config)) == 1
    assert "6 of 6 trials hit the memory guard" in capsys.readouterr().err
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 6
    assert json.loads((tmp_path / "r.json").read_text())["errors"] == 6


def test_parallel_workers_share_memory_budget(tmp_path, capsys):
    # 1 MiB admits a 128^2 grid (48 B/cell) but not its 256^2 refinement, so
    # each trial falls back to M = 128; two workers get 0.5 MiB each, which
    # does not admit 128^2
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace("m_policy = per_L:16", "m_policy = fixed:128\nmemory_budget_mb = 1")
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert run_cli("experiment", "--config", str(config)) == 0
    assert json.loads((tmp_path / "r.json").read_text())["errors"] == 0
    config.write_text(text.replace("master_seed = 11", "master_seed = 11\nparallelism = 2"))
    assert run_cli("experiment", "--config", str(config)) == 1
    assert "2 of 2 trials hit the memory guard" in capsys.readouterr().err
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 2
    assert json.loads((tmp_path / "r.json").read_text())["errors"] == 2


def test_experiment_unknown_key_exit_code(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[experiment]\nd = 2\nbogus = 1\n")
    assert run_cli("experiment", "--config", str(config)) == 2
    assert "bogus" in capsys.readouterr().err


def test_experiment_with_plots(tmp_path):
    csv_path = tmp_path / "trials.csv"
    report_path = tmp_path / "report.json"
    plots = tmp_path / "plots"
    config = tmp_path / "run.ini"
    config.write_text(MINIMAL_CONFIG.format(csv=csv_path, report=report_path))
    assert run_cli(
        "experiment", "--config", str(config), "--trials", "35", "--plots-dir", str(plots)
    ) == 0
    for name in ("count_vs_L.csv", "variance_vs_dim.csv", "tail_vs_dim.csv"):
        series = (plots / name).read_text().splitlines()
        assert series[0] == "x,y,series"
        assert len(series) > 1


def test_run_experiment_matches_cli(tmp_path):
    def outputs(out):
        rows = [line.rsplit(",", 1)[0] for line in (out / "trials.csv").read_text().splitlines()]
        files = sorted((out / "plots").iterdir()) + [out / "report.json"]
        return rows, [(f.name, f.read_text().replace(str(out), "OUT")) for f in files]

    results = []
    for name in ("cli", "direct"):
        out = tmp_path / name
        out.mkdir()
        config = out / "run.ini"
        config.write_text(
            MINIMAL_CONFIG.format(csv=out / "trials.csv", report=out / "report.json")
            .replace("trials = 2", "trials = 35")
            + f"plots_dir = {out / 'plots'}\n"
        )
        if name == "cli":
            assert run_cli("experiment", "--config", str(config)) == 0
        else:
            experiments.run_experiment(load_config(str(config)))
        results.append(outputs(out))
    assert results[0] == results[1]
    report = json.loads((tmp_path / "direct" / "report.json").read_text())
    assert report["concentration"] is not None and len(results[0][1]) == 4


def test_verify_suite_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_suite_fault_injection(capsys):
    assert run_cli("verify", "--fault", "parseval") == 1
    out = capsys.readouterr().out
    assert "parseval_fft_direct  FAIL" in out.replace("   ", "  ") or "FAIL" in out


def test_verify_suite_repeatable(capsys):
    cli.verify_suite()
    first = [(c.name, c.passed) for c in cli.verify_suite()]
    second = [(c.name, c.passed) for c in cli.verify_suite()]
    assert first == second
