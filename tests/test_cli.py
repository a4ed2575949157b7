import dataclasses
import json
import struct

import numpy as np
import pytest

from arw import cli, experiments, field, gridio, lattice, nodal
from arw.config import ExperimentConfig, canonicalize, from_ini, load_config
from arw.errors import AliasError, ConfigParseError, EmptyShell, UnknownPolicy, ValidationError

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


def test_lattice_command_high_dimension_origin(capsys):
    # d above Python's recursion limit; n=0 is the origin alone, which has
    # no equidistribution report
    assert run_cli("lattice", "--dim", "1100", "--n", "0", "--points") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_HL"] == 1
    assert payload["points"] == [[0] * 1100]
    assert payload["equidistribution"] is None
    assert run_cli("lattice", "--dim", "2", "--n", "0") == 0
    assert json.loads(capsys.readouterr().out)["orthogonality"] == [[0, 0], [0, 0]]


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
    assert set(payload) == {
        "M", "alpha", "beta", "certified", "component_diameters", "component_wraps",
        "domain_volumes", "k", "r", "refinement_levels", "zero_hits",
    }


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


def test_alias_floor_checked_before_shell_enumeration(tmp_path, capsys, monkeypatch):
    # enumerating d=3, n=10^8 runs for minutes; M=1 must be refused first
    def refuse(d, n):
        raise AssertionError(f"shell ({d}, {n}) enumerated before the argument checks")

    monkeypatch.setattr(cli.lattice, "enumerate_shell", refuse)
    out = tmp_path / "field.bin"
    assert run_cli("sample", "--dim", "3", "--n", str(10**8), "--seed", "1",
                   "--grid", "1", "--out", str(out)) == 2
    assert "required for n=100000000" in capsys.readouterr().err
    for dim, n, message in (("0", "5", "d must be >= 1"), ("2", "-1", "n must be nonnegative")):
        assert run_cli("sample", "--dim", dim, "--n", n, "--seed", "1",
                       "--grid", "16", "--out", str(out)) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()

    header = gridio._HEADER.pack(gridio.MAGIC, gridio.VERSION, 3, 10**8, 1, 5, 0)
    out.write_bytes(header + b"\0" * 8)
    assert run_cli("count", "--in", str(out)) == 2
    assert "required for n=100000000" in capsys.readouterr().err


def test_sample_rejects_seed_or_trial_past_u64(tmp_path, capsys):
    out = tmp_path / "field.bin"
    for seed, trial in ((str(2**64), "0"), ("3", str(2**64))):
        assert run_cli(
            "sample", "--dim", "2", "--n", "25", "--seed", seed, "--trial", trial,
            "--grid", "16", "--out", str(out),
        ) == 2
        assert "outside the u64 range" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda blob: blob[:10], "truncated header"),
        (lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:], "unsupported version 2"),
        (lambda blob: blob[:-8], "data bytes"),
    ],
    ids=["truncated_header", "unsupported_version", "short_payload"],
)
def test_count_rejects_unreadable_grid_file(tmp_path, capsys, damage, message):
    out = tmp_path / "field.bin"
    run_cli("sample", "--dim", "2", "--n", "25", "--seed", "5", "--trial", "0",
            "--grid", "16", "--out", str(out))
    out.write_bytes(damage(out.read_bytes()))
    assert run_cli("count", "--in", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


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


@pytest.mark.parametrize("header", [{"d": 3}, {"n": 13}, {"seed": 6}, {"trial_index": 1}])
def test_count_rejects_gradient_file_of_another_grid(tmp_path, capsys, header):
    # the file holds the value grid's true d/dx0, so only its header tells
    # them apart; a d=3 file of 16 such slabs broadcasts against the d=2 grid
    out = tmp_path / "v2.bin"
    run_cli("sample", "--dim", "2", "--n", "5", "--seed", "5", "--trial", "0",
            "--grid", "16", "--out", str(out))
    grad = field.eval_grid(field.sample_coefficients(lattice.enumerate_shell(2, 5), 5, 0), 16, (0,))
    if "d" in header:
        grad = dataclasses.replace(grad, values=np.broadcast_to(grad.values, (16,) * 3))
    fake = tmp_path / "grad.bin"
    gridio.write_grid(str(fake), dataclasses.replace(grad, **header))
    assert run_cli("count", "--in", str(out), "--grad-in", str(fake)) == 2
    assert "header does not match the value grid" in capsys.readouterr().err


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


@pytest.mark.parametrize("output", ["", "\n[output]\ncsv = a\nreport = b\n"],
                         ids=["no_output", "with_output"])
def test_config_default_section_rejected(output):
    # configparser would copy [DEFAULT]'s keys into every section
    text = "[DEFAULT]\ntrials = 5\n\n[experiment]\nd = 2\npolicy = explicit\nn_values = 25\n"
    with pytest.raises(ValidationError, match=r"unknown section \[DEFAULT\]"):
        from_ini(text + output)


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
        ("policy = all\nn_min = 3\nn_max = 3", "policy 'all' admits no n in 3 <= n <= 3"),
        ("policy = all\nn_min = 9\nn_max = 3", "must satisfy 1 <= n_min <= n_max"),
        ("d = 1", "experiment.d must be >= 2"),
        ("policy = nope", "experiment.policy 'nope'"),
        ("trials = 0", "experiment.trials must be >= 1"),
        ("parallelism = 0", "experiment.parallelism must be >= 1"),
        ("memory_budget_mb = 64", "unknown key experiment.memory_budget_mb"),
        ("trials = two", "experiment.trials: 'two' is not an integer"),
        ("trials 2", "malformed config at line 3"),
        ("trials = 3\ntrials = 4", "option 'trials' in section 'experiment' already exists"),
    ],
    ids=[
        "n_zero", "n_repeated", "epsilon_nan", "per_L_negative", "fixed_zero", "n_empty_shell",
        "seed_negative", "policy_admits_no_n", "n_range_reversed", "d_one", "policy_unknown",
        "trials_zero", "parallelism_zero", "budget_key", "trials_not_int",
        "line_without_equals", "key_repeated",
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


@pytest.mark.parametrize(
    "config_is_dir, extra, message",
    [
        (False, ["--report", ""], "output.csv and output.report are required"),
        (True, [], "Is a directory"),
    ],
    ids=["report_empty", "config_is_directory"],
)
def test_experiment_rejects_bad_arguments(tmp_path, capsys, config_is_dir, extra, message):
    config = tmp_path / "run.ini"
    config.write_text(MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json"))
    path = tmp_path if config_is_dir else config
    assert run_cli("experiment", "--config", str(path), *extra) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "t.csv").exists()


def test_config_error_messages_name_the_spot(tmp_path, capsys):
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    repeated = tmp_path / "repeated.ini"
    repeated.write_text(text.replace("trials = 2", "trials = 3\ntrials = 4"))
    assert run_cli("experiment", "--config", str(repeated)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 7: option 'trials' in section 'experiment' already exists"]
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run_cli("experiment", "--config", str(folder)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {folder}: Is a directory"]
    assert not (tmp_path / "t.csv").exists()


def test_experiment_runs_auto_refine(tmp_path):
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace("n_values = 25", "n_values = 5").replace("per_L:16", "auto_refine")
    assert "m_policy = auto_refine" in canonicalize(text).splitlines()
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert run_cli("experiment", "--config", str(config)) == 0
    records = experiments.read_trials_csv(str(tmp_path / "t.csv"))
    assert [rec.trial_index for rec in records] == [0, 1]
    shell = lattice.enumerate_shell(2, 5)
    for rec in records:
        sample = field.sample_coefficients(shell, rec.seed, rec.trial_index)
        assert rec.M == nodal.analyze(sample, 5, auto_refine=True).M


def test_experiment_unallocatable_n_exit_code(tmp_path, capsys):
    # NumPy refuses a table of 2^62 + 1 square counts without allocating it
    n = 2**62
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    config = tmp_path / "run.ini"
    config.write_text(text.replace("n_values = 25", f"n_values = {n}"))
    assert run_cli("experiment", "--config", str(config)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"n={n}" in err[0]
    assert not (tmp_path / "t.csv").exists()


def test_experiment_runs_a_sequence_policy(tmp_path):
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace(
        "policy = explicit\nn_values = 25", "policy = top_by_dim\nn_min = 1\nn_max = 40"
    )
    config = tmp_path / "run.ini"
    config.write_text(text.replace("per_L:16", "per_L:4"))
    assert run_cli("experiment", "--config", str(config)) == 0
    expected = lattice.admissible_sequence(2, 1, 40, "top_by_dim")
    column = [rec.n for rec in experiments.read_trials_csv(str(tmp_path / "t.csv"))]
    assert column == [n for n in expected for _ in range(2)]
    assert json.loads((tmp_path / "r.json").read_text())["n_values"] == expected


def test_experiment_memory_guard_exit_code(tmp_path, monkeypatch, capsys):
    # every grid is refused: the outputs are still written, then the run fails
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace("n_values = 25", "n_values = 25,65").replace("trials = 2", "trials = 3")
    text = text.replace("m_policy = per_L:16", "m_policy = fixed:1024")
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert run_cli("experiment", "--config", str(config)) == 1
    assert "6 of 6 trials hit the memory guard" in capsys.readouterr().err
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 1 + 6
    assert json.loads((tmp_path / "r.json").read_text())["errors"] == 6


def test_parallel_workers_share_memory_budget(tmp_path, monkeypatch, capsys):
    # 1 MiB admits a 128^2 grid (48 B/cell) but not its 256^2 refinement, so
    # each trial falls back to M = 128; two forked workers inherit the budget
    # and get 0.5 MiB each, which does not admit 128^2
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    text = MINIMAL_CONFIG.format(csv=tmp_path / "t.csv", report=tmp_path / "r.json")
    text = text.replace("m_policy = per_L:16", "m_policy = fixed:128")
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


def test_verify_rejects_unknown_fault(capsys, monkeypatch):
    # a misspelt negative control must not run the clean suite and pass
    def refuse(fault=None):
        raise AssertionError(f"suite ran with fault {fault!r}")

    monkeypatch.setattr(cli, "verify_suite", refuse)
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--fault", "parsevl")
    assert exc.value.code == 2
    assert "invalid choice: 'parsevl'" in capsys.readouterr().err


def test_verify_suite_refuses_unknown_fault_before_any_check(monkeypatch):
    # called directly, a misspelt fault must not run the clean suite either
    ran = []
    monkeypatch.setattr(cli, "_box_count", lambda d, n: ran.append((d, n)))
    with pytest.raises(ValidationError, match="parsevl"):
        cli.verify_suite(fault="parsevl")
    assert ran == []


@pytest.mark.parametrize(
    "error", [ValidationError, AliasError, ConfigParseError, UnknownPolicy, EmptyShell]
)
def test_validation_errors_exit_2(monkeypatch, capsys, error):
    def fail(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "cmd_lattice", fail)
    assert run_cli("lattice", "--dim", "2", "--n", "5") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad input\n"
    assert captured.out == ""


def test_verify_suite_repeatable(capsys):
    cli.verify_suite()
    first = [(c.name, c.passed) for c in cli.verify_suite()]
    second = [(c.name, c.passed) for c in cli.verify_suite()]
    assert first == second
