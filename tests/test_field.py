import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from arw import field, gridio, lattice
from arw.errors import AliasError, DegenerateIntegral, MemoryBudgetExceeded, ValidationError
from arw.rng import stream

from oracles import chi_square_tail_bound, full_spectrum_grid, mc_sphere_cosine_average


@pytest.fixture
def shell_2_25():
    return lattice.enumerate_shell(2, 25)


def test_sampling_deterministic(shell_2_25):
    s1 = field.sample_coefficients(shell_2_25, 42, 0)
    s2 = field.sample_coefficients(shell_2_25, 42, 0)
    assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)
    s3 = field.sample_coefficients(shell_2_25, 42, 1)
    assert not np.array_equal(s1.a, s3.a)


def test_sampling_shape(shell_2_25):
    sample = field.sample_coefficients(shell_2_25, 7, 0)
    assert len(sample.coeffs) == 6  # dim 12, half set 6
    assert sample.a.shape == (6,)


def test_coefficient_mean_zero():
    shell = lattice.enumerate_shell(2, 25)
    total, count = 0.0, 0
    for t in range(2000):
        sample = field.sample_coefficients(shell, 3, t)
        total += float(np.sum(sample.a))
        count += sample.a.size
    assert abs(total / count) < 3.0 / math.sqrt(count)


def test_eval_grid_single_mode():
    shell = lattice.enumerate_shell(2, 1)
    cosx = field.pure_mode(shell, (1, 0), "cos")
    grid = field.eval_grid(cosx, 8)
    for j in range(8):
        assert grid.values[j, 0] == pytest.approx(math.cos(2 * math.pi * j / 8), abs=1e-12)
        assert np.allclose(grid.values[j, :], grid.values[j, 0], atol=1e-12)


def test_eval_grid_matches_direct(shell_2_25):
    rng = np.random.default_rng(0)
    for d, n in ((2, 25), (2, 65), (3, 9)):
        shell = lattice.enumerate_shell(d, n)
        sample = field.sample_coefficients(shell, 11, 0)
        M = field.min_alias_free_M(n) + 2
        grid = field.eval_grid(sample, M)
        idx = rng.integers(0, M, size=(100, d))
        direct = field.eval_points(sample, idx / M)
        assert np.max(np.abs(grid.values[tuple(idx.T)] - direct)) < 1e-9


def test_eval_grid_zero_coeffs(shell_2_25):
    zero = field.sample_from_arrays(shell_2_25, np.zeros(6), np.zeros(6))
    assert np.all(field.eval_grid(zero, 16).values == 0.0)


def test_eval_grid_alias_error(shell_2_25):
    with pytest.raises(AliasError):
        field.eval_grid(field.sample_coefficients(shell_2_25, 1, 0), 10)


def test_eval_grid_memory_budget(shell_2_25, monkeypatch):
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    with pytest.raises(MemoryBudgetExceeded):
        field.eval_grid(field.sample_coefficients(shell_2_25, 1, 0), 512)


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_memory_budget_rejects_malformed_env(shell_2_25, monkeypatch, value):
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", value)
    with pytest.raises(ValidationError, match="ARW_MEMORY_BUDGET_MB"):
        field.memory_budget_bytes()
    with pytest.raises(ValidationError):
        field.eval_grid(field.sample_coefficients(shell_2_25, 1, 0), 16)


def test_eval_grid_matches_points_every_derivative():
    # every vertex, at the alias floor (odd M) and one above it (even M)
    for d, n in ((2, 25), (3, 9), (4, 6)):
        sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 29, d)
        tags = [()] + [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i, d)]
        for M in (field.min_alias_free_M(n), field.min_alias_free_M(n) + 1):
            points = np.stack(np.meshgrid(*[np.arange(M)] * d, indexing="ij"), axis=-1) / M
            for tag in tags:
                grid = field.eval_grid(sample, M, tag).values
                direct = field.eval_points(sample, points, tag)
                scale = max(1.0, float(np.max(np.abs(direct))))
                assert np.max(np.abs(grid - direct)) <= 1e-9 * scale, (d, M, tag)


def test_eval_grid_even_slice_of_doubled_grid():
    for d, n, M in ((2, 1105, 67), (2, 65, 144), (3, 17, 20)):
        sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 37, 0)
        for tag in ((), (0,)):
            fine = field.eval_grid(sample, 2 * M, tag).values[(slice(None, None, 2),) * d]
            coarse = field.eval_grid(sample, M, tag).values
            scale = max(1.0, float(np.max(np.abs(coarse))))
            assert np.max(np.abs(fine - coarse)) <= 1e-12 * scale


def _last_axis_bins(shell):
    return int(np.abs(shell.half_points[:, -1]).max()) + 1


def _spy_last_axis(monkeypatch):
    """Record the input shape of every irfft `eval_grid` makes; each one
    should build a plan's (2*bins) x M table from a (2*bins, bins) input.
    The table is built with the cached plan, so a caller clears
    `field._plan` wherever it clears the shapes."""
    shapes = []

    def irfft(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return field_fft.irfft(x, *args, **kwargs)

    field_fft = field.sfft
    monkeypatch.setattr(field, "sfft", types.SimpleNamespace(irfft=irfft))
    return shapes


def test_last_axis_product_matches_full_fft_and_points(monkeypatch):
    # the alias floor and M one below, at and one above 16*bins, even and
    # odd M; every first and second derivative; irfft runs only to build
    # the table, and the product finishes every grid
    shapes = _spy_last_axis(monkeypatch)
    rng = np.random.default_rng(12)
    for d, n in ((1, 25), (2, 25), (3, 5), (4, 3)):
        sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 41, d)
        bins = _last_axis_bins(sample.shell)
        tags = [()] + [(i,) for i in range(d)] + [(i, j) for i in range(d) for j in range(i, d)]
        for M in (field.min_alias_free_M(n), 16 * bins - 1, 16 * bins, 16 * bins + 1):
            idx = rng.integers(0, M, size=(64, d))
            for tag in tags:
                shapes.clear()
                field._plan.cache_clear()
                grid = field.eval_grid(sample, M, tag).values
                assert shapes == [(2 * bins, bins)], (d, M, shapes)
                full = full_spectrum_grid(sample.shell, sample.a, sample.b, M, tag)
                direct = field.eval_points(sample, idx / M, tag)
                scale = max(1.0, float(np.max(np.abs(full))))
                assert np.max(np.abs(grid - full)) <= 1e-9 * scale, (d, M, tag)
                assert np.max(np.abs(grid[tuple(idx.T)] - direct)) <= 1e-9 * scale, (d, M, tag)


def test_even_slice_of_doubled_grid_matches_grid_below_16_bins():
    # per_L:16 at a square n (n=25), and a 2M pair around 16*bins at
    # n=1105: the coarse grids have fewer than 16*bins points per axis
    for n, M in ((25, 80), (1105, 272)):
        sample = field.sample_coefficients(lattice.enumerate_shell(2, n), 43, 0)
        assert M < 16 * _last_axis_bins(sample.shell) <= 2 * M
        for tag in ((), (0,), (1,)):
            coarse = field.eval_grid(sample, M, tag).values
            fine = field.eval_grid(sample, 2 * M, tag).values[::2, ::2]
            scale = max(1.0, float(np.max(np.abs(coarse))))
            assert np.max(np.abs(fine - coarse)) <= 1e-12 * scale, (n, tag)


def test_grids_are_the_blocks_they_are_finished_in():
    # any block of rows finishes exactly as in the whole grid, on M that
    # are not multiples of the product's tile and in blocks of one row
    for d, n, M in ((2, 1105, 67), (2, 1105, 300), (2, 27625, 333), (3, 17, 9), (3, 401, 41)):
        sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 46, 0)
        rows, finish = field._spectrum_rows(sample, M, (0,))
        whole = field.eval_grid(sample, M, (0,)).values.reshape(len(rows), M)
        for step in (1, 7, 109):
            blocks = [finish(rows[a:a + step]) for a in range(0, len(rows), step)]
            assert np.array_equal(np.concatenate(blocks), whole), (d, n, M, step)


def test_cached_plan_keeps_grids_and_shells_apart():
    # warm and cold plans give the same bits, every plan belongs to one
    # shell, and a plan's arrays cannot be written through
    for d, n, M in ((2, 325, 576), (2, 25, 80), (3, 5, 50), (3, 5, 40)):
        sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 44, 0)
        for tag in [()] + [(i,) for i in range(d)]:
            field._plan.cache_clear()
            cold = field.eval_grid(sample, M, tag).values
            warm = field.eval_grid(sample, M, tag).values
            assert field._plan.cache_info().hits >= 1
            assert cold.tobytes() == warm.tobytes(), (d, n, M, tag)
    # same d, M and shell size, different n: each shell gets its own plan
    # and its own grid, whichever shell warmed the cache before it
    M = 64
    shells = [lattice.enumerate_shell(2, n) for n in (5, 13)]
    assert shells[0].dim_HL == shells[1].dim_HL
    samples = [field.sample_coefficients(shell, 45, 0) for shell in shells]
    cold = []
    for s in samples:
        field._plan.cache_clear()
        cold.append(field.eval_grid(s, M).values)
    for s, other, grid in zip(samples, samples[::-1], cold):
        field.eval_grid(other, M)
        assert np.array_equal(field.eval_grid(s, M).values, grid)
    plans = [field._plan(2, M, shell.half_points.tobytes()) for shell in shells]
    assert plans[0] is not plans[1]
    assert not np.array_equal(cold[0], cold[1])
    for flip, on_plane, index, dfts, bins, table in plans:
        assert table.shape == (2 * bins, M)  # 64 is a whole number of tiles
        for array in [flip, on_plane, *index, *dfts, table]:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]


def test_one_bin_rows_of_the_product_keep_irfft_zeros():
    # the pure mode of lambda = (0, 1) puts one bin c in every spectrum row,
    # so each grid row is exactly Re c * irfft(unit) + Im c * irfft(i * unit):
    # it has irfft's exact zeros and is within rounding of irfft(c * unit)
    shell = lattice.enumerate_shell(2, 1)
    k = next(i for i, lam in enumerate(shell.half_points) if lam[0] == 0)
    for kind in ("cos", "sin"):
        sample = field.pure_mode(shell, (0, 1), kind)
        for M in (3, 5, 8, 31, 32, 48, 64):  # from the alias floor to 16 * bins and up
            unit = np.array([0.0, 1.0])
            table = [field.sfft.irfft(z * unit, n=M, norm="forward") for z in (1.0, 1j)]
            for tag in ((), (1,), (1, 1)):
                amp = field._amplitudes(sample, tag)[k]
                c = amp if shell.half_points[k][1] > 0 else np.conj(amp)
                row = field.sfft.irfft(c * unit, n=M, norm="forward")
                grid = field.eval_grid(sample, M, tag).values
                exact = c.real * table[0] + c.imag * table[1]
                assert np.array_equal(grid, np.broadcast_to(exact, (M, M))), (kind, M, tag)
                assert np.array_equal(grid == 0.0, np.broadcast_to(row == 0.0, (M, M)))
                assert np.max(np.abs(grid - row)) <= 4e-16 * np.max(np.abs(row))
    cos_x1 = field.eval_grid(field.pure_mode(shell, (0, 1), "cos"), 32).values
    assert np.count_nonzero(cos_x1 == 0.0) == 2 * 32


@pytest.mark.parametrize(
    "d, n, M",
    [(2, 1105, 1088), (3, 17, 160), (2, 25, 80)],
    ids=["d2-1105", "d3-17", "d2-25-square"],
)
def test_half_shift_flips_odd_n(d, n, M):
    # lambda_1 + ... + lambda_d = |lambda|^2 = n (mod 2), so
    # f(x + (1/2, ..., 1/2)) = (-1)^n f(x), and so is every derivative;
    # on an even M the shift is a roll by M/2 along every axis
    sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 5150, 0)
    for tag in [()] + [(i,) for i in range(d)]:
        values = field.eval_grid(sample, M, tag).values
        rolled = np.roll(values, M // 2, axis=tuple(range(d)))
        scale = max(1.0, float(np.max(np.abs(values))))
        assert np.max(np.abs(rolled - (-1) ** n * values)) <= 1e-12 * scale, tag


def test_grids_do_not_depend_on_blas_threads():
    # eval_grid's last-axis product runs in BLAS, and records must not
    # depend on its thread count, also where M is not a whole number of tiles
    script = (
        "import hashlib, json\n"
        "from arw import field, lattice\n"
        "out = []\n"
        "for d, n, M, tags in ((2, 1105, 1088, 3), (2, 325, 576, 3), (2, 65, 288, 3),\n"
        "                      (3, 17, 160, 4), (2, 5, 96, 2), (2, 1105, 300, 3),\n"
        "                      (2, 27625, 333, 3)):\n"
        "    sample = field.sample_coefficients(lattice.enumerate_shell(d, n), 77, 1)\n"
        "    for tag in ([()] + [(i,) for i in range(d)])[:tags]:\n"
        "        values = field.eval_grid(sample, M, tag).values\n"
        "        out.append(hashlib.sha256(values.tobytes()).hexdigest())\n"
        "print(json.dumps(out))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert len(digests[0]) == 21
    assert digests[0] == digests[1]


def test_bad_arguments_raise_validation_error(shell_2_25):
    sample = field.sample_coefficients(shell_2_25, 1, 0)
    calls = [
        lambda: field.sample_from_arrays(shell_2_25, np.zeros(5), np.zeros(5)),
        lambda: field.pure_mode(shell_2_25, (1, 1)),
        lambda: field.pure_mode(shell_2_25, (3, 4), "tan"),
        lambda: field.eval_grid(sample, 16, (2,)),
        lambda: field.limiting_kernel(1, [0.5]),
        lambda: field.parseval_norm(sample, field.eval_grid(sample, 16, (0,))),
        lambda: field.local_bound_ratio(sample, [0.0, 0.0], 0.0),
        lambda: field.sample_coefficients(shell_2_25, -1, 0),
        lambda: field.sample_coefficients(shell_2_25, 1, -1),
        lambda: stream(1, 0, -2),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_eval_point_at_zero(shell_2_25):
    sample = field.sample_coefficients(shell_2_25, 5, 0)
    expected = sample.normalization * float(np.sum(sample.a))
    assert field.eval_point(sample, [0.0, 0.0]) == pytest.approx(expected, rel=1e-12)


def test_gradient_of_cosine():
    shell = lattice.enumerate_shell(2, 1)
    cosx = field.pure_mode(shell, (1, 0), "cos")
    grad = field.gradient_at(cosx, [0.25, 0.62])
    assert grad == pytest.approx([-2 * math.pi, 0.0], abs=1e-12)


def test_hessian_trace_eigenfunction():
    for d, n in ((2, 65), (3, 9)):
        shell = lattice.enumerate_shell(d, n)
        sample = field.sample_coefficients(shell, 17, 0)
        rng = np.random.default_rng(1)
        for x in rng.random((5, d)):
            f0 = field.eval_point(sample, x)
            trace = float(np.trace(field.hessian_at(sample, x)))
            assert abs(trace + 4 * math.pi**2 * n * f0) <= 1e-8 * (1 + abs(f0)) * n


def test_derivative_grids_match_direct():
    shell = lattice.enumerate_shell(2, 25)
    sample = field.sample_coefficients(shell, 23, 0)
    rng = np.random.default_rng(2)
    M = 16
    for tag in ((0,), (1,), (0, 0), (0, 1), (1, 1)):
        grid = field.eval_grid(sample, M, tag)
        idx = rng.integers(0, M, size=(30, 2))
        direct = field.eval_points(sample, idx / M, tag)
        assert np.max(np.abs(grid.values[tuple(idx.T)] - direct)) < 1e-8


def test_covariance_kernel_normalization(shell_2_25):
    assert field.covariance_kernel(shell_2_25, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(3)
    for t in rng.random((100, 2)):
        assert abs(field.covariance_kernel(shell_2_25, t)) <= 1.0 + 1e-12


def test_covariance_kernel_d2_n1():
    shell = lattice.enumerate_shell(2, 1)
    rng = np.random.default_rng(4)
    for t in rng.random((20, 2)):
        expected = 0.5 * (math.cos(2 * math.pi * t[0]) + math.cos(2 * math.pi * t[1]))
        assert field.covariance_kernel(shell, t) == pytest.approx(expected, abs=1e-12)


def test_scaled_kernel(shell_2_25):
    assert field.scaled_kernel(shell_2_25, [0.3, 0.4], [0.3, 0.4]) == pytest.approx(1.0)
    shell1 = lattice.enumerate_shell(2, 1)
    assert field.scaled_kernel(shell1, [0.25, 0.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)


def test_scaled_covariance_matrix(shell_2_25):
    mat = field.scaled_covariance_matrix(shell_2_25)
    assert np.allclose(mat, (4 * math.pi**2 / 2) * np.eye(2), atol=0)


def test_limiting_kernel_closed_forms():
    assert field.limiting_kernel(3, [0.0, 0.0, 0.0]) == 1.0
    assert field.limiting_kernel(10, [1e-80] + [0.0] * 9) == 1.0
    for r in (0.2, 0.9, 2.3):
        z = 2 * math.pi * r
        sinc = math.sin(z) / z
        assert field.limiting_kernel(3, [r, 0.0, 0.0]) == pytest.approx(sinc, abs=1e-13)
        s4 = 3 * (math.sin(z) - z * math.cos(z)) / z**3  # the average over S^4
        assert field.limiting_kernel(5, [r, 0.0, 0.0, 0.0, 0.0]) == pytest.approx(s4, abs=1e-13)


def test_limiting_kernel_mc_oracle_d2():
    for r in (0.4, 1.1):
        est, se = mc_sphere_cosine_average(2, r, 10**6, seed=8)
        val = field.limiting_kernel(2, [r, 0.0])
        assert abs(val - est) <= 3 * se


def test_parseval(shell_2_25):
    for trial in range(5):
        sample = field.sample_coefficients(shell_2_25, 77, trial)
        grid = field.eval_grid(sample, 16)
        coef, grid_norm = field.parseval_norm(sample, grid)
        assert grid_norm == pytest.approx(coef, rel=1e-9)


def test_parseval_single_mode(shell_2_25):
    a = np.zeros(6)
    a[0] = 1.0
    sample = field.sample_from_arrays(shell_2_25, a, np.zeros(6))
    coef, grid_norm = field.parseval_norm(sample, field.eval_grid(sample, 16))
    assert coef**2 == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert grid_norm == pytest.approx(coef, rel=1e-9)


def test_norm_tail_chi_square():
    # ||f||^2 ~ chi^2_16 / 16; P{||f|| > 2} = P{chi^2_16 > 64} is tiny
    assert chi_square_tail_bound(16, 64.0) < 1e-6
    shell = lattice.enumerate_shell(2, 65)
    worst = max(field.sample_coefficients(shell, 1234, t).coef_norm() for t in range(3000))
    assert worst <= 2.0


def test_translate_evaluates_shifted(shell_2_25):
    sample = field.sample_coefficients(shell_2_25, 19, 0)
    shift = np.array([3 / 16, 5 / 16])
    moved = field.translate(sample, shift)
    rng = np.random.default_rng(5)
    for x in rng.random((20, 2)):
        assert field.eval_point(moved, x) == pytest.approx(
            field.eval_point(sample, (x + shift) % 1.0), abs=1e-10
        )


def test_local_bound_ratio_cosine():
    shell = lattice.enumerate_shell(2, 1)
    cosx = field.pure_mode(shell, (1, 0), "cos")
    rf, rg, rh = field.local_bound_ratio(cosx, [0.0, 0.0], 1.0)
    assert rf > 0 and math.isfinite(rf)
    assert rg >= 0 and rh > 0


def test_local_bound_ratio_degenerate(shell_2_25):
    zero = field.sample_from_arrays(shell_2_25, np.zeros(6), np.zeros(6))
    with pytest.raises(DegenerateIntegral):
        field.local_bound_ratio(zero, [0.1, 0.2], 1.0)


def test_grid_io_roundtrip(tmp_path, shell_2_25):
    sample = field.sample_coefficients(shell_2_25, 55, 3)
    grid = field.eval_grid(sample, 16)
    path = tmp_path / "field.bin"
    gridio.write_grid(str(path), grid)
    back = gridio.read_grid(str(path))
    assert back.d == 2 and back.n == 25 and back.M == 16
    assert back.seed == 55 and back.trial_index == 3
    assert np.array_equal(back.values, grid.values)
    raw = path.read_bytes()
    assert raw[:4] == b"ARWG"
    assert len(raw) == 40 + 16 * 16 * 8


def test_grid_io_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(Exception):
        gridio.read_grid(str(path))


def test_empirical_covariance_matches_kernel():
    shell = lattice.enumerate_shell(2, 25)
    rng = np.random.default_rng(6)
    pairs = rng.random((10, 2, 2))
    trials = 20000
    # vectorized: stack all coefficient draws once
    basis_a = np.stack([field.sample_coefficients(shell, 404, t).a for t in range(trials)])
    basis_b = np.stack([field.sample_coefficients(shell, 404, t).b for t in range(trials)])
    lam = shell.half_points.astype(float)
    norm = math.sqrt(2.0 / shell.dim_HL)
    for x, y in pairs:
        px = 2 * math.pi * lam @ x
        py = 2 * math.pi * lam @ y
        fx = norm * (basis_a @ np.cos(px) + basis_b @ np.sin(px))
        fy = norm * (basis_a @ np.cos(py) + basis_b @ np.sin(py))
        emp = float(np.mean(fx * fy))
        assert abs(emp - field.covariance_kernel(shell, x - y)) <= 4.0 / math.sqrt(trials)
        assert abs(float(np.mean(fx))) <= 4.0 / math.sqrt(trials)


def test_scaled_kernel_converges_to_limit():
    # admissible d=3 sequence with growing dim: sup deviation over fixed
    # pairs is non-increasing (20% slack)
    ns = [2, 6, 14, 66]
    dims = [lattice.enumerate_shell(3, n).dim_HL for n in ns]
    assert dims == sorted(dims)
    rng = np.random.default_rng(9)
    us = rng.uniform(-1, 1, size=(50, 3))
    vs = us + rng.uniform(-1, 1, size=(50, 3))
    sups = []
    for n in ns:
        shell = lattice.enumerate_shell(3, n)
        dev = max(
            abs(field.scaled_kernel(shell, u, v) - field.limiting_kernel(3, u - v))
            for u, v in zip(us, vs)
        )
        sups.append(dev)
    for prev, cur in zip(sups, sups[1:]):
        assert cur <= 1.2 * prev
