import ctypes
import dataclasses
import math
import threading
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from arw import experiments, nodal
from arw.errors import InsufficientTrials, ValidationError
from arw.experiments import (
    MPolicy,
    TrialRecord,
    concentration_report,
    diameter_scaling,
    nu_estimate,
    proof_exponents,
    read_trials_csv,
    run_trials,
    write_trials_csv,
)


def synthetic_record(n, k, d=2, certified=True, trial=0, dim=8, sum_diam=1.0):
    return TrialRecord(
        trial_index=trial,
        seed=0,
        d=d,
        n=n,
        dim_HL=dim,
        M=16,
        k=k,
        r=k,
        min_domain_vol=0.01,
        sum_diameters=sum_diam,
        alpha=0.1,
        beta=0.3,
        certified=certified,
        wall_time_ms=1.0,
    )


def test_mpolicy_parse_and_grid():
    assert str(MPolicy.parse("fixed:64")) == "fixed:64"
    assert MPolicy.parse("fixed:64").grid_size(25) == 64
    assert MPolicy.parse("fixed:8").grid_size(25) == 11  # rounded up to alias-free
    assert MPolicy.parse("per_L:16").grid_size(65) == 144
    assert MPolicy.parse("per_L:16").grid_size(1) == 16
    assert MPolicy.parse("auto_refine").auto_refine
    with pytest.raises(ValidationError):
        MPolicy.parse("nope:3")


def test_run_trials_parallelism_determinism():
    policy = MPolicy.parse("per_L:16")
    seq = run_trials(2, 25, 8, policy, 2024, parallelism=1)
    par = run_trials(2, 25, 8, policy, 2024, parallelism=2)
    assert [rec.trial_index for rec in par] == list(range(8))  # pool.map keeps job order
    for a, b in zip(seq, par):
        assert (a.trial_index, a.k, a.r, a.certified) == (b.trial_index, b.k, b.r, b.certified)
        assert a.min_domain_vol == b.min_domain_vol
        assert a.sum_diameters == b.sum_diameters
        assert a.alpha == b.alpha and a.beta == b.beta


@pytest.mark.parametrize("parallelism", [0, -1])
def test_run_trials_rejects_parallelism_below_one(monkeypatch, parallelism):
    # refused before any trial runs, serially or in a pool
    def refuse(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trial", refuse)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", refuse)
    with pytest.raises(ValidationError, match="parallelism must be >= 1"):
        run_trials(2, 25, 2, MPolicy.parse("per_L:16"), 1, parallelism=parallelism)


def test_run_trials_forks_after_overlapped_analyze(monkeypatch):
    # analyze joins its worker thread, so the pool forks a process with no
    # live threads; with the core-count decision pinned, the forked workers
    # overlap their stages too
    monkeypatch.setattr(nodal, "_spare_core", lambda: True)
    policy = MPolicy.parse("per_L:16")
    assert (2 * policy.grid_size(325)) ** 2 >= nodal._OVERLAP_CELLS
    before = threading.active_count()
    seq = run_trials(2, 325, 4, policy, 1904, parallelism=1)
    assert threading.active_count() == before
    par = run_trials(2, 325, 4, policy, 1904, parallelism=2)
    strip = [dataclasses.replace(rec, wall_time_ms=0.0) for rec in seq]
    assert strip == [dataclasses.replace(rec, wall_time_ms=0.0) for rec in par]


def _blas_threads():
    getter = experiments._openblas().scipy_openblas_get_num_threads64_
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def test_pool_workers_run_one_blas_thread():
    lib = experiments._openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("NumPy's bundled OpenBLAS or its thread-count symbols are absent")
    with ProcessPoolExecutor(max_workers=1, initializer=experiments._share_budget,
                             initargs=(2,)) as pool:
        assert pool.submit(_blas_threads).result() == 1


def test_run_trials_flags_memory_errors(monkeypatch):
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    records = run_trials(2, 25, 1, MPolicy.parse("fixed:4096"), 1, parallelism=1)
    assert len(records) == 1
    assert records[0].error.startswith("MemoryBudgetExceeded")
    assert not records[0].certified
    assert (records[0].M, records[0].k, records[0].r) == (4096, 0, 0)


def test_idle_workers_take_no_budget_share(monkeypatch):
    # 1 MiB admits the 96^2 grid of d=2 n=5 at a half share, not at a
    # quarter; one trial needs one worker, which keeps the whole budget
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    policy = MPolicy.parse("per_L:16")
    one, four = (run_trials(2, 5, 1, policy, 7, parallelism=p) for p in (1, 4))
    assert (one[0].M, one[0].certified) == (96, True)
    strip = [dataclasses.replace(rec, wall_time_ms=0.0) for rec in (*one, *four)]
    assert strip[0] == strip[1]


def test_csv_roundtrip(tmp_path):
    records = run_trials(2, 25, 4, MPolicy.parse("per_L:16"), 7, parallelism=1)
    records.append(synthetic_record(65, 3, certified=False, trial=4))
    records.append(dataclasses.replace(synthetic_record(65, 0, certified=False, trial=5),
                                       error="MemoryBudgetExceeded: refused"))
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(experiments.CSV_COLUMNS)
    assert experiments.CSV_COLUMNS == (
        "trial_index", "seed", "d", "n", "dim_HL", "M", "k", "r", "min_domain_vol",
        "sum_diameters", "alpha", "beta", "certified", "wall_time_ms",
    )
    # every field but `error` round-trips: repr is exact for floats, bools
    # are true/false
    back = read_trials_csv(str(path))
    assert back == [dataclasses.replace(rec, error="") for rec in records]


def test_csv_rows_end_in_newline_only(tmp_path):
    records = [synthetic_record(25, 4, trial=t) for t in range(3)]
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), records)
    data = path.read_bytes()
    # line tools read the last column without a trailing \r
    assert b"\r" not in data
    assert data.count(b"\n") == len(records) + 1
    assert data.split(b"\n")[0].endswith(b",wall_time_ms")
    assert read_trials_csv(str(path)) == records


def _edited_csv(tmp_path, edit):
    """A two-row trials CSV whose lines went through `edit`."""
    path = tmp_path / "trials.csv"
    write_trials_csv(str(path), [synthetic_record(25, 4, trial=t) for t in range(2)])
    path.write_text("".join(edit(line) + "\n" for line in path.read_text().splitlines()))
    return str(path)


def _drop_column(name):
    at = experiments.CSV_COLUMNS.index(name)
    return lambda line: ",".join(cell for i, cell in enumerate(line.split(",")) if i != at)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_column("k"), r"missing columns \['k'\], unknown columns \[\]"),
        (lambda line: line + (",note" if line.startswith("trial_index") else ",x"),
         r"missing columns \[\], unknown columns \['note'\]"),
        (lambda line: line.replace(",true,", ",yes,"),
         r"line 2, column certified: 'yes' is not a valid bool"),
        (lambda line: line.replace("0,0,2,25,8,16,4,", "0,0,2,25,8,16,four,"),
         r"line 2, column k: 'four' is not a valid int"),
        (lambda line: line.replace(",0.3,", ",0.3x,"),
         r"line 2, column beta: '0.3x' is not a valid float"),
        (lambda line: line if line.startswith("trial_index") else line.rsplit(",", 1)[0],
         r"line 2: 13 cells, not 14"),
    ],
    ids=["column_missing", "column_unknown", "bool_not_true_false", "int_malformed",
         "float_malformed", "row_short"],
)
def test_read_trials_csv_rejects_malformed_files(tmp_path, edit, message):
    with pytest.raises(ValidationError, match=message):
        read_trials_csv(_edited_csv(tmp_path, edit))


def test_csv_deterministic_across_parallelism(tmp_path):
    policy = MPolicy.parse("per_L:16")
    paths = []
    for i, workers in enumerate((1, 2)):
        records = run_trials(2, 25, 6, policy, 99, parallelism=workers)
        stripped = [
            experiments.TrialRecord(
                **{**rec.__dict__, "wall_time_ms": 0.0}
            )
            for rec in records
        ]
        path = tmp_path / f"run{i}.csv"
        write_trials_csv(str(path), stripped)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_concentration_report_constant_values():
    records = [synthetic_record(25, 4, trial=t) for t in range(40)]
    report = concentration_report(records, epsilons=[0.01, 0.1])
    stats = report.per_n[0]
    assert stats.variance == 0.0
    assert all(f == 0.0 for f in stats.tail_freqs.values())
    assert stats.median == stats.mean


def test_concentration_report_requires_trials():
    records = [synthetic_record(25, 4, trial=t) for t in range(10)]
    with pytest.raises(InsufficientTrials):
        concentration_report(records, epsilons=[0.1])


def test_concentration_report_rejects_n_without_certified_trials():
    records = [synthetic_record(5, 4), synthetic_record(25, 9, certified=False)]
    with pytest.raises(InsufficientTrials, match="n=25"):
        concentration_report(records, min_trials=0)


def test_concentration_report_synthetic_decay():
    # variance shrinking with dim: tail slope must come out negative
    rng = np.random.default_rng(0)
    records = []
    for n, dim in ((16, 8), (64, 16), (144, 24), (256, 32)):
        sigma = 1.0 / math.sqrt(dim)
        vals = 1.0 + sigma * rng.standard_normal(4000)
        for t, v in enumerate(vals):
            k = max(0, int(round(v * n)))
            records.append(synthetic_record(n, k, dim=dim, trial=t))
    report = concentration_report(records, epsilons=[0.08])
    slope = report.slopes[0.08]
    assert slope is not None and slope < 0


def test_concentration_slope_absent_with_two_points():
    rng = np.random.default_rng(1)
    records = []
    for n, dim in ((16, 8), (64, 8)):
        for t in range(50):
            records.append(synthetic_record(n, int(rng.integers(0, 2 * n)), dim=dim, trial=t))
    report = concentration_report(records, epsilons=[0.01])
    assert report.slopes[0.01] is None


def test_nu_estimate_constant():
    records = [synthetic_record(16, 8, trial=t) for t in range(10)]
    records += [synthetic_record(64, 32, trial=t) for t in range(10)]
    est = nu_estimate(records)
    assert est.nu_hat == pytest.approx(0.5)
    assert est.stabilization_gap == 0.0


def test_nu_estimate_requires_two_levels():
    with pytest.raises(InsufficientTrials):
        nu_estimate([synthetic_record(16, 8, trial=t) for t in range(10)])


def test_diameter_scaling_exact_power_law():
    records = []
    for n in (16, 64, 256, 1024):
        L = math.sqrt(n)
        for t in range(5):
            records.append(synthetic_record(n, 4, sum_diam=3.0 * L, trial=t))
    assert diameter_scaling(records, 2) == pytest.approx(1.0, abs=1e-12)


def test_diameter_scaling_constant_is_flat():
    records = []
    for n in (16, 64, 256):
        for t in range(5):
            records.append(synthetic_record(n, 4, sum_diam=2.5, trial=t))
    assert diameter_scaling(records, 2) == pytest.approx(0.0, abs=1e-12)


def test_diameter_scaling_needs_three_levels():
    records = [synthetic_record(16, 4, trial=t) for t in range(5)]
    records += [synthetic_record(64, 4, trial=t) for t in range(5)]
    with pytest.raises(InsufficientTrials):
        diameter_scaling(records, 2)


def test_bad_arguments_raise_validation_error():
    with pytest.raises(ValidationError, match="trials"):
        run_trials(2, 25, 0, MPolicy.parse("per_L:16"), 1)
    with pytest.raises(ValidationError, match="d must be >= 2"):
        proof_exponents(1)


def test_proof_exponents_d2():
    e = proof_exponents(2)
    assert e.a == 6
    assert e.b == 7
    assert e.k == Fraction(3, 2)
    assert e.g == Fraction(15, 4)
    assert e.t == e.h == Fraction(15, 2)
    assert e.r == 1
    assert e.c_exponent == 15


def test_proof_exponents_d3():
    assert proof_exponents(3).c_exponent == 24


def test_proof_exponents_inequalities_exact():
    for d in range(2, 11):
        e = proof_exponents(d)
        assert e.satisfied, e.inequalities()
        # c exponent ties to the rho/tau exponents: c = 2h = 2t
        assert e.c_exponent == 2 * e.h == 2 * e.t


def test_scaled_count():
    rec = synthetic_record(25, 10)
    assert rec.scaled_count == pytest.approx(10 / 25.0)
