import dataclasses
import itertools
import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from arw import field, lattice, nodal
from arw.errors import PerturbationTooLarge, Uncertified, ValidationError

from oracles import (
    flood_fill_components,
    flood_fill_components_nd,
    flood_fill_domains,
    flood_fill_domains_nd,
    main_mask,
)


def make_sample(d, n, seed, trial=0):
    return field.sample_coefficients(lattice.enumerate_shell(d, n), seed, trial)


def cosine_sample():
    return field.pure_mode(lattice.enumerate_shell(2, 1), (1, 0), "cos")


def test_sign_grid_constant():
    shell = lattice.enumerate_shell(2, 1)
    ones = field.sample_from_arrays(shell, np.array([math.sqrt(2), 0.0]), np.zeros(2))
    grid = field.eval_grid(ones, 8)  # cos(2 pi x1), has zeros
    sg = nodal.sign_grid(grid)
    assert sg.signs.shape == (8, 8)
    assert sg.zero_hits == 16  # two zero columns of height 8


def test_sign_grid_rejects_derivative():
    sample = make_sample(2, 25, 1)
    with pytest.raises(ValueError):
        nodal.sign_grid(field.eval_grid(sample, 16, (0,)))


def test_count_domains_cosine():
    sg = nodal.sign_grid(field.eval_grid(cosine_sample(), 16))
    r, volumes, labels = nodal.count_domains(sg)
    assert r == 2
    assert volumes.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(np.sort(volumes) - 0.5) <= 1.0 / 16 + 1e-12)
    assert labels.min() == 1 and labels.max() == 2


def test_count_domains_strips():
    for D in (1, 2, 3, 5):
        shell = lattice.enumerate_shell(2, D * D)
        sinDx = field.pure_mode(shell, (D, 0), "sin")
        sg = nodal.sign_grid(field.eval_grid(sinDx, 16 * D))
        r, volumes, _ = nodal.count_domains(sg)
        assert r == 2 * D


def test_count_domains_constant_sign():
    shell = lattice.enumerate_shell(2, 1)
    # f = cos + 3 has no zeros: sign grid all positive
    a = np.array([math.sqrt(2), 0.0])
    sample = field.sample_from_arrays(shell, a, np.zeros(2))
    values = field.eval_grid(sample, 8).values + 3.0
    grid = field.FieldGrid(d=2, n=1, M=8, values=values)
    sg = nodal.sign_grid(grid)
    r, volumes, _ = nodal.count_domains(sg)
    assert r == 1 and volumes[0] == pytest.approx(1.0)
    k, *_ = nodal.count_components(sg)
    assert k == 0


def test_count_components_cosine_wraps():
    sg = nodal.sign_grid(field.eval_grid(cosine_sample(), 16))
    k, cells, diams, wraps, labels = nodal.count_components(sg)
    assert k == 2
    assert wraps.all()
    assert np.all(diams == 0.5)


def test_count_components_strips():
    for D in (1, 2, 4):
        shell = lattice.enumerate_shell(2, D * D)
        sinDx = field.pure_mode(shell, (D, 0), "sin")
        sg = nodal.sign_grid(field.eval_grid(sinDx, 16 * D))
        k, *_ = nodal.count_components(sg)
        assert k == 2 * D


def test_localized_component_geometry():
    # single small blob: one non-wrapping component with small diameter
    signs = np.ones((16, 16), dtype=bool)
    signs[7:9, 7:9] = False
    values = np.where(signs, 1.0, -1.0)
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=16, values=values))
    k, cells, diams, wraps, labels = nodal.count_components(sg)
    r, volumes, _ = nodal.count_domains(sg)
    assert k == 1 and r == 2
    assert not wraps[0]
    assert diams[0] == pytest.approx(math.hypot(3, 3) / 16)


def test_blob_across_seam_not_wrapping():
    signs = np.ones((16, 16), dtype=bool)
    signs[15, 7] = signs[0, 7] = False  # straddles the x-seam
    values = np.where(signs, 1.0, -1.0)
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=16, values=values))
    k, cells, diams, wraps, labels = nodal.count_components(sg)
    assert k == 1
    assert not wraps[0]
    r, _, _ = nodal.count_domains(sg)
    assert r == 2


def assert_matches_d2_oracle(sg):
    k, cells, diams, wraps, labels = nodal.count_components(sg)
    oracle_k, segments, widths, oracle_wraps, oracle_labels = flood_fill_components(
        sg.signs, main_mask(sg)
    )
    assert k == oracle_k
    assert np.array_equal(labels, oracle_labels)
    assert np.array_equal(cells, segments)
    assert np.array_equal(wraps, oracle_wraps)
    lifted = np.sqrt(np.sum(widths.astype(float) ** 2, axis=1)) / sg.M
    assert diams == pytest.approx(np.where(oracle_wraps, 0.5, lifted), rel=1e-12)


def test_flood_fill_oracle_small_grids():
    for n in (5, 13, 25):
        shell = lattice.enumerate_shell(2, n)
        for trial in range(25):
            sample = field.sample_coefficients(shell, 321, trial)
            sg = nodal.sign_grid(field.eval_grid(sample, 32))
            r, _, labels = nodal.count_domains(sg)
            oracle_r, oracle = flood_fill_domains(sg.signs, main_mask(sg))
            assert r == oracle_r and np.array_equal(labels, oracle)
            assert_matches_d2_oracle(sg)


def test_d2_saddle_grids_match_component_oracle():
    # labels, segment counts, wraps and lifted widths on grids with
    # checkerboard cells, where a cell holds two zero-curve segments
    rng = np.random.default_rng(5)
    for M in range(1, 18):
        for _ in range(12):
            values = rng.standard_normal((M, M))
            assert_matches_d2_oracle(nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=values)))
    saddles = on_seam = 0
    for n, M in ((65, 24), (65, 32), (325, 48)):
        shell = lattice.enumerate_shell(2, n)
        for trial in range(6):
            sg = nodal.sign_grid(field.eval_grid(field.sample_coefficients(shell, 4242, trial), M))
            split = np.concatenate(sg.saddle_cells)
            saddles += len(split)
            on_seam += np.count_nonzero(split // M == M - 1) + np.count_nonzero(split % M == M - 1)
            assert_matches_d2_oracle(sg)
    assert saddles > 100 and on_seam > 10


def assert_matches_nd_oracles(sg):
    r, volumes, labels = nodal.count_domains(sg)
    dom_labels, _, _ = flood_fill_domains_nd(sg.signs)
    assert r == dom_labels.max()
    assert np.array_equal(labels, dom_labels)
    k, cells, diams, wraps, comp_labels = nodal.count_components(sg)
    oracle_labels, oracle_wraps, oracle_widths = flood_fill_components_nd(sg.signs)
    assert k == len(oracle_wraps)
    assert np.array_equal(comp_labels, oracle_labels)
    assert np.array_equal(cells, np.bincount(oracle_labels.ravel(), minlength=k + 1)[1:])
    assert np.array_equal(wraps, oracle_wraps)
    lifted = np.sqrt(np.sum(oracle_widths.astype(float) ** 2, axis=1)) / sg.M
    assert diams == pytest.approx(np.where(oracle_wraps, 0.5, lifted), rel=1e-12)
    return r, k


def test_flood_fill_oracle_d3_grids():
    for i in range(20):
        n, M = (9, 17)[i % 2], 16 + 2 * (i % 5)
        sample = make_sample(3, n, 77, trial=i)
        assert_matches_nd_oracles(nodal.sign_grid(field.eval_grid(sample, M)))


def test_d3_blob_across_seam_and_wrapping_slab():
    M = 12
    signs = np.ones((M, M, M), dtype=bool)
    signs[[M - 1, 0], 5:7, 5:7] = False  # straddles the x-seam
    sg = nodal.sign_grid(field.FieldGrid(d=3, n=1, M=M, values=np.where(signs, 1.0, -1.0)))
    assert assert_matches_nd_oracles(sg) == (2, 1)
    _, cells, diams, wraps, _ = nodal.count_components(sg)
    assert not wraps[0] and cells[0] == 26  # 3^3 cells around the blob, less its all-minus core
    assert diams[0] == pytest.approx(math.sqrt(27) / M)

    signs = np.zeros((M, M, M), dtype=bool)
    signs[4:8] = True  # slab: two zero sheets, each wrapping in y and z
    sg = nodal.sign_grid(field.FieldGrid(d=3, n=1, M=M, values=np.where(signs, 1.0, -1.0)))
    assert assert_matches_nd_oracles(sg) == (2, 2)
    _, _, diams, wraps, _ = nodal.count_components(sg)
    assert wraps.all() and np.all(diams == 0.5)


def test_d2_sampled_grids_without_saddles_match_nd_oracles():
    # with no checkerboard cell, d=2 counting is plain face adjacency, so
    # the any-d oracles also pin labels, wraps and lifted widths on real fields
    for n, M in ((25, 96), (65, 144)):
        checked = 0
        for trial in range(20):
            sg = nodal.sign_grid(field.eval_grid(make_sample(2, n, 4242, trial=trial), M))
            if any(cells.size for cells in sg.saddle_cells):
                continue
            assert_matches_nd_oracles(sg)
            checked += 1
            if checked == 3:
                break
        assert checked == 3


def test_d2_torus_identity_random_grids():
    # Jordan curves on T^2: a contractible closed curve adds one region, and
    # m >= 1 disjoint essential curves cut the torus into m annuli, so
    # r = k + 1 - [some component wraps]; in d=2 the gate r-1 <= k <= r+1
    # can never fail.  Gaussian magnitudes make the center sign, and so the
    # saddle split, vary.
    rng = np.random.default_rng(2024)
    for M in range(1, 18):
        for _ in range(12):
            values = rng.standard_normal((M, M))
            sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=values))
            r, _, _ = nodal.count_domains(sg)
            k, _, _, wraps, _ = nodal.count_components(sg)
            assert r == k + 1 - wraps.any(), (M, k, r)


def test_local_components_bounded_by_local_domains():
    # two small blobs inside a ball of radius < 1/2: the components lying
    # in the ball cannot outnumber the domains contained in it (k' <= r')
    signs = np.ones((20, 20), dtype=bool)
    signs[4:6, 4:6] = False
    signs[9:11, 9:11] = False
    values = np.where(signs, 1.0, -1.0)
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=20, values=values))
    k, cells, diams, wraps, labels = nodal.count_components(sg)
    r, volumes, dom_labels = nodal.count_domains(sg)
    local_components = sum(
        1 for i in range(k) if not wraps[i] and diams[i] < 0.5
    )
    # domains fully inside the ball: the two minus blobs
    minus_domains = sum(1 for v in volumes if v < 0.5)
    assert k == 2 and r == 3
    assert local_components <= minus_domains


def test_checkerboard_saddle_resolution():
    # hand-built saddle: cell (2,2) sees a sign checkerboard; the center
    # mean decides whether the two minus vertices join through the cell
    values = np.ones((8, 8))
    values[3, 2] = values[2, 3] = -1.4  # center mean negative
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=8, values=values))
    k, *_ = nodal.count_components(sg)
    r, _, _ = nodal.count_domains(sg)
    # minus diagonal connects: one dumbbell domain inside the plus sea,
    # bounded by a single closed curve
    assert r == 2
    assert k == 1

    values[3, 2] = values[2, 3] = -0.7  # center mean positive: disconnect
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=8, values=values))
    k, *_ = nodal.count_components(sg)
    r, _, _ = nodal.count_domains(sg)
    # two isolated minus vertices, each with its own boundary curve
    assert r == 3
    assert k == 2


def test_sign_grid_rejects_wrong_shape():
    grid = field.FieldGrid(d=2, n=1, M=2, values=np.ones((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        nodal.sign_grid(grid)
    with pytest.raises(ValueError, match="shape"):
        nodal.sign_grid(field.FieldGrid(d=3, n=1, M=4, values=np.ones((4, 4))))


def test_sign_grid_saddle_split_matches_corner_mean():
    # reference: the full-grid corner sum, in the same association order
    rng = np.random.default_rng(99)
    split_cells = 0
    for M in (1, 2, 3, 5, 8, 13, 21):
        for trial in range(10):
            # small integers make corner sums exactly zero; zeros count as +
            values = rng.integers(-2, 3, size=(M, M)).astype(float)
            if trial % 2:
                values *= rng.standard_normal((M, M))
            sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=values))
            signs = values >= 0.0
            s10 = np.roll(signs, -1, 0)
            s11 = np.roll(s10, -1, 1)
            amb = (signs == s11) & (s10 == np.roll(signs, -1, 1)) & (signs != s10)
            center = values + np.roll(values, -1, axis=0)
            center_plus = center + np.roll(center, -1, axis=1) >= 0.0
            main = amb & (center_plus == signs)
            anti = amb & (center_plus != signs)
            for cells, split in zip(sg.saddle_cells, (main, anti)):
                assert cells.dtype == np.intp and np.array_equal(cells, np.flatnonzero(split))
                assert not cells.flags.writeable
            split_cells += int(amb.sum())
    assert split_cells > 0


def test_d2_sign_grid_retains_one_byte_per_cell():
    # the saddle split is kept only as sorted cell indices, so a d=2 sign
    # grid holds its bool signs, the index arrays and a few small objects
    M = 1088
    value = field.eval_grid(make_sample(2, 1105, 5150), M)
    tracemalloc.start()
    try:
        sg = nodal.sign_grid(value)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    indices = sum(cells.nbytes for cells in sg.saddle_cells)
    assert retained <= M * M + indices + (1 << 14)


def test_d2_sign_grid_peak_is_five_bytes_per_cell():
    # the checkerboard test reads three crossed edges per cell: the signs,
    # two edge masks and two temporaries at once, never a fourth rolled copy
    M = 1088
    value = field.eval_grid(make_sample(2, 1105, 5150), M)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        nodal.sign_grid(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * M * M + (1 << 14)


@pytest.mark.parametrize("d, sizes", [(1, range(1, 30)), (2, range(1, 20)), (3, range(1, 9)),
                                      (4, range(1, 6))])
def test_domain_kernel_matches_count_domains(d, sizes):
    rng = np.random.default_rng(100 + d)
    for M in sizes:
        for _ in range(3):
            values = rng.integers(-1, 2, size=(M,) * d).astype(float)  # exact zeros count as +
            values += rng.random(values.shape) * (rng.random(values.shape) < 0.3)
            sg = nodal.sign_grid(field.FieldGrid(d=d, n=1, M=M, values=values))
            r, volumes, labels = nodal.count_domains(sg)
            kr, kvolumes, comp, lengths = nodal._domains(sg)
            assert kr == r
            assert kvolumes.dtype == volumes.dtype and np.array_equal(kvolumes, volumes)
            # the kernel's nodes are each row's maximal same-sign runs, in raster order
            rows = sg.signs.reshape(-1, M)
            heads = np.ones(rows.shape, dtype=bool)
            heads[:, 1:] = rows[:, 1:] != rows[:, :-1]
            assert np.array_equal(lengths, np.diff(np.flatnonzero(heads), append=rows.size))
            assert np.array_equal(np.repeat(comp + 1, lengths), labels.ravel())
            # and both against flood fills that share no code with the kernel
            if d == 2:
                _, oracle = flood_fill_domains(sg.signs, main_mask(sg))
            else:
                oracle, _, _ = flood_fill_domains_nd(sg.signs)
            assert np.array_equal(labels, oracle)
            cells = np.bincount(oracle.ravel(), minlength=r + 1)[1:]
            assert np.array_equal(kvolumes, cells / float(M**d))


@pytest.mark.parametrize("d, sizes", [(1, range(1, 30)), (2, range(1, 20)), (3, range(1, 9)),
                                      (4, range(1, 6))])
def test_component_kernel_matches_count_components(d, sizes):
    rng = np.random.default_rng(200 + d)
    for M in sizes:
        for _ in range(3):
            values = rng.integers(-1, 2, size=(M,) * d).astype(float)  # exact zeros count as +
            values += rng.random(values.shape) * (rng.random(values.shape) < 0.3)
            sg = nodal.sign_grid(field.FieldGrid(d=d, n=1, M=M, values=values))
            k, cells, diams, wraps, labels = nodal.count_components(sg)
            kk, kcells, kdiams, kwraps, comp, starts, lengths = nodal._components(sg)
            assert kk == k
            for ours, public in ((kcells, cells), (kdiams, diams), (kwraps, wraps)):
                assert ours.dtype == public.dtype and np.array_equal(ours, public)
            # the kernel's nodes are runs in raster order, each inside one row,
            # and a d=2 saddle cell lies in two of them
            assert np.all(np.diff(starts) >= 0) and np.all(starts % M + lengths <= M)
            saddles = sum(map(len, sg.saddle_cells)) if d == 2 else 0
            assert lengths.sum() == np.count_nonzero(labels) + saddles
            assert np.array_equal(np.bincount(comp, weights=lengths, minlength=k), cells)
            # and the public results against flood fills that share no code with the kernel
            if d == 2:
                _, segments, widths, oracle_wraps, oracle = flood_fill_components(
                    sg.signs, main_mask(sg)
                )
            else:
                oracle, oracle_wraps, widths = flood_fill_components_nd(sg.signs)
                segments = np.bincount(oracle.ravel(), minlength=k + 1)[1:]
            assert labels.dtype == np.int32 and np.array_equal(labels, oracle)
            assert np.array_equal(cells, segments)
            assert np.array_equal(wraps, oracle_wraps)
            lifted = np.sqrt(np.sum(widths.astype(float) ** 2, axis=1)) / M
            assert diams == pytest.approx(np.where(oracle_wraps, 0.5, lifted), rel=1e-12)


def test_component_runs_wind_across_last_axis_seam():
    # two zero curves along the rows: each is one run of M cells that only
    # the column M-1 -> column 0 seam closes on itself
    M = 12
    signs = np.ones((M, M), dtype=bool)
    signs[3:6] = False
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=np.where(signs, 1.0, -1.0)))
    assert_matches_d2_oracle(sg)
    k, cells, diams, wraps, comp, starts, lengths = nodal._components(sg)
    assert k == 2 and wraps.all() and np.all(diams == 0.5)
    assert np.array_equal(cells, [M, M])
    assert np.array_equal(starts, [2 * M, 5 * M]) and np.array_equal(lengths, [M, M])
    assert np.array_equal(comp, [0, 1])


def test_component_runs_split_at_a_seam_saddle():
    # the saddle cell (i, M-1) has its two minus corners at (i+1, M-1) and
    # (i, 0): its first segment ends the run from column M-2, and its second
    # is a one-cell run that crosses the seam to column 0
    M, i = 6, 2
    saddle = i * M + M - 1
    for minus, on_main, expected_k in ((-1.0, True, 2), (-3.0, False, 1)):
        values = np.ones((M, M))
        values[i, 0] = values[i + 1, M - 1] = minus  # corner mean 0 is +: main
        sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=values))
        split, other = sg.saddle_cells if on_main else sg.saddle_cells[::-1]
        assert split.tolist() == [saddle] and other.size == 0
        assert_matches_d2_oracle(sg)
        k, _, _, wraps, comp, starts, lengths = nodal._components(sg)
        assert k == expected_k and not wraps.any()
        row = starts // M == i
        assert starts[row].tolist() == [i * M, saddle - 1, saddle]
        assert lengths[row].tolist() == [1, 2, 1]
        # the one-cell run and the column 0 run are one curve
        assert comp[starts == saddle][0] == comp[starts == i * M][0]


def assert_domains_match_oracles(values):
    """count_domains' r, volumes and int32 labels against the flood fills."""
    d, M = values.ndim, values.shape[0]
    sg = nodal.sign_grid(field.FieldGrid(d=d, n=1, M=M, values=values))
    r, volumes, labels = nodal.count_domains(sg)
    assert labels.dtype == np.int32 and labels.shape == values.shape
    if d == 2:
        _, oracle = flood_fill_domains(sg.signs, main_mask(sg))
    else:
        oracle, _, _ = flood_fill_domains_nd(sg.signs)
    assert np.array_equal(labels, oracle)
    assert np.array_equal(volumes, np.bincount(oracle.ravel())[1:] / float(M**d))
    return r


def test_domain_runs_one_vertex_each():
    # at odd M the seams join equal signs, so only even M has a closed form
    for M in (2, 3, 4, 5):
        _, j = np.indices((M, M))
        # columns alternate: every vertex is its own run, and rows join them
        r = assert_domains_match_oracles(np.where(j % 2, -1.0, 1.0))
        assert M % 2 or r == M
        i, j, k = np.indices((M, M, M))
        r = assert_domains_match_oracles(np.where((i + j + k) % 2, -1.0, 1.0))
        assert M % 2 or r == M**3
    # d=2 checkerboard: every cell is a saddle whose corner mean is 0, so the
    # + diagonals join all + vertices and each - vertex stays alone
    M = 6
    i, j = np.indices((M, M))
    plus = (i + j) % 2 == 0
    sg = nodal.sign_grid(field.FieldGrid(d=2, n=1, M=M, values=np.where(plus, 1.0, -1.0)))
    r, volumes, labels = nodal.count_domains(sg)
    expected = np.ones((M, M), dtype=np.int32)
    expected[~plus] = np.arange(2, 2 + M * M // 2)
    assert r == 1 + M * M // 2 == flood_fill_domains(sg.signs, main_mask(sg))[0]
    assert labels.dtype == np.int32 and np.array_equal(labels, expected)
    assert np.array_equal(volumes, np.r_[M * M // 2, np.ones(M * M // 2)] / float(M * M))


def test_domain_runs_one_per_row():
    rng = np.random.default_rng(31)
    for d, M in ((2, 1), (2, 7), (2, 12), (3, 6)):
        rows = np.where(rng.random((M,) * (d - 1)) < 0.5, -1.0, 1.0)
        assert_domains_match_oracles(np.repeat(rows[..., None], M, axis=-1))  # constant rows
        stripes = np.where(np.arange(M) // 3 % 2, -1.0, 1.0)
        assert_domains_match_oracles(np.broadcast_to(stripes.reshape((M,) + (1,) * (d - 1)),
                                                     (M,) * d).copy())


def test_domain_runs_joined_only_across_seams():
    M = 8
    values = np.ones((M, M))
    values[[6, 7, 0, 1], 3] = -1.0  # rows M-1 and 0 hold the only link of the band
    assert assert_domains_match_oracles(values) == 2
    values = np.ones((M, M))
    values[4, [6, 7, 0, 1]] = -1.0  # one run ends at column M-1, the other starts at 0
    assert assert_domains_match_oracles(values) == 2
    for axis in range(3):
        values = np.ones((M, M, M))
        line = [2, 2, 2]
        line[axis] = [6, 7, 0, 1]
        values[tuple(line)] = -1.0
        assert assert_domains_match_oracles(values) == 2


def test_domain_runs_tiny_grids_and_zeros():
    for values in ([0.0], [-1.0], [1.0, 1.0], [1.0, -1.0], [0.0, -2.0], [-2.0, 0.0], [0.0, 0.0]):
        values = np.array(values)
        r = assert_domains_match_oracles(values)
        assert r == (1 if len(set(values >= 0)) == 1 else 2)
    rng = np.random.default_rng(8)
    for d, M in ((1, 9), (2, 1), (2, 2), (2, 9), (3, 1), (3, 2), (3, 5)):
        for _ in range(4):
            assert_domains_match_oracles(rng.integers(-1, 2, size=(M,) * d).astype(float))


@pytest.mark.parametrize(
    "d, n, M, product",
    [(2, 5, 1000, True), (2, 1105, 300, False), (3, 5, 50, True), (3, 5, 40, False)],
    ids=["2-1000", "2-300", "3-50", "3-40"],
)
def test_stability_margins_blocks_keep_mu_exact(d, n, M, product):
    step = nodal._MARGIN_BLOCK_CELLS // M
    rows = M ** (d - 1)
    assert rows > step and rows % step != 0  # several blocks, the last one partial
    sample = make_sample(d, n, 3)
    bins = int(sample.shell.half_points[:, -1].max()) + 1
    assert (16 * bins <= M) == product  # the last axis by the product or by irfft
    L = sample.shell.L
    gradnorm = nodal.gradient_norm_grid(sample, M)
    assert np.array_equal(gradnorm, np.sqrt(sum(
        np.square(field.eval_grid(sample, M, (axis,)).values) for axis in range(d)
    )))
    for where in (0, rows * M - 1):  # the first vertex, then the partial last block's last
        values = np.full((M,) * d, 1e3)
        values.ravel()[where] = 1e-9
        grid = field.FieldGrid(d=d, n=n, M=M, values=values)
        mu = nodal.stability_margins(sample, grid).mu
        expected = float(np.min(np.maximum(np.abs(values), gradnorm / (2 * np.pi * L))))
        assert mu == expected
        assert expected < 1e3  # the minimum sits at `where`


def test_mixed_recurrence_is_the_all_sign_reduction():
    # every ordered nonempty axis subset at d = 1..4: mixed exactly where
    # the corners j + {0,1}^axes are neither all + nor all -
    rng = np.random.default_rng(17)
    for shape in ((11,), (9, 7), (5, 6, 4), (3, 4, 5, 3)):
        d = len(shape)
        for density in (0.0, 0.2, 0.5, 0.9):
            signs = rng.random(shape) < density
            crossed = [signs != np.roll(signs, -1, axis) for axis in range(d)]
            assert not nodal._mixed(crossed, ()).any()  # one vertex
            for size in range(1, d + 1):
                for axes in itertools.permutations(range(d), size):
                    pos, neg = signs, ~signs
                    for axis in axes:
                        pos = pos & np.roll(pos, -1, axis)
                        neg = neg & np.roll(neg, -1, axis)
                    expected = ~(pos | neg)
                    assert np.array_equal(nodal._mixed(crossed, axes), expected), (shape, axes)
                    # one step more from the mask over the other axes
                    head = nodal._mixed(crossed, axes[:-1])
                    assert np.array_equal(nodal._mixed(crossed, axes[-1:], head), expected)


def test_components_send_each_seam_pair_once(monkeypatch):
    # a d=3 trial grid has hundreds of seam faces between a few patches;
    # the merge gets each (patch, patch) pair once per seam axis
    seen = []
    merge = nodal._merge_patches

    def spy(d, cells, links):
        seen.extend(links)
        return merge(d, cells, links)

    monkeypatch.setattr(nodal, "_merge_patches", spy)
    nodal._components(nodal.sign_grid(field.eval_grid(make_sample(3, 17, 777), 64)))
    assert len(seen) == 3
    for pa, pb, rel in seen:
        assert len(set(zip(pa.tolist(), pb.tolist()))) == len(pa) > 0
        assert len({tuple(row) for row in rel.tolist()}) == 1


def merge_patches(cells, links):
    """`nodal._merge_patches` in d=2 on (pa, pb, rel) tuples, one link each."""
    pa, pb, rel = (np.array(part) for part in zip(*links))
    return nodal._merge_patches(2, np.asarray(cells, dtype=float), [(pa, pb, rel)])


def test_merge_patches_wraps_and_lifts():
    M = 8
    # ring 0 -> 1 -> 2 -> 0 with zero net offset: consistent, no wrap
    count, cells, wraps, comp, lift = merge_patches(
        [1, 2, 3], [(0, 1, (3, 0)), (1, 2, (5, -1)), (2, 0, (-8, 1))]
    )
    assert count == 1 and cells.tolist() == [6] and wraps.tolist() == [False]
    assert comp.tolist() == [0, 0, 0]
    # the same ring closing with net offset M e_0 winds around the torus
    count, _, wraps, _, _ = merge_patches(
        [1, 2, 3], [(0, 1, (3, 0)), (1, 2, (5, -1)), (2, 0, (0, 1))]
    )
    assert count == 1 and wraps.tolist() == [True]
    # a chain given out of order: lift differences equal the declared rels,
    # measured from the first patch
    links = [(3, 4, (0, M)), (0, 1, (1, 2)), (2, 3, (-M, 0)), (1, 2, (4, -3))]
    count, _, wraps, comp, lift = merge_patches([1] * 5, links)
    assert count == 1 and wraps.tolist() == [False] and comp.tolist() == [0] * 5
    assert lift.shape == (2, 5) and lift[:, 0].tolist() == [0, 0]
    for a, b, rel in links:
        assert tuple(lift[:, b] - lift[:, a]) == rel


def test_merge_patches_numbers_components_by_first_patch():
    M = 8
    # components {0, 3}, {1, 5} (a repeated link, and a ring through 5 and 1
    # whose two lifts disagree by M e_0), {2} and {4}
    links = [(3, 0, (0, M)), (3, 0, (0, M)), (5, 1, (M, 0)), (1, 5, (0, 0))]
    count, cells, wraps, comp, lift = merge_patches([1, 2, 3, 4, 5, 6], links)
    assert count == 4
    assert comp.tolist() == [0, 1, 2, 0, 3, 1]
    assert cells.dtype == np.int64 and cells.tolist() == [5, 8, 3, 5]
    assert wraps.tolist() == [False, True, False, False]
    assert lift[:, 3].tolist() == [0, -M] and lift[:, [0, 2, 4]].tolist() == [[0] * 3] * 2


def test_counts_do_not_depend_on_csgraph_label_order(monkeypatch):
    # csgraph does not document the order of its component labels: permute
    # them at every call and both counts must return the same values
    rng = np.random.default_rng(31)
    grids = []
    for d, M in ((1, 23), (2, 17), (2, 9), (3, 7), (4, 4)):
        for _ in range(3):
            values = rng.integers(-1, 2, size=(M,) * d).astype(float)  # exact zeros count as +
            values += rng.random(values.shape) * (rng.random(values.shape) < 0.3)
            grids.append(nodal.sign_grid(field.FieldGrid(d=d, n=1, M=M, values=values)))
    expected = [(nodal.count_domains(sg), nodal.count_components(sg)) for sg in grids]
    sparse_components = nodal._sparse_components

    def permuted(graph, directed):
        number, labels = sparse_components(graph, directed=directed)
        return number, rng.permutation(number)[labels]

    monkeypatch.setattr(nodal, "_sparse_components", permuted)
    for sg, counts in zip(grids, expected):
        for before, after in zip(counts, (nodal.count_domains(sg), nodal.count_components(sg))):
            for want, got in zip(before, after):
                assert np.asarray(got).dtype == np.asarray(want).dtype
                assert np.array_equal(got, want)


def test_stability_margins_cosine():
    cosx = cosine_sample()
    for M in (8, 16, 32):
        margins = nodal.stability_margins(cosx, field.eval_grid(cosx, M))
        assert margins.mu >= 1 / math.sqrt(2) - 1e-12
    assert margins.alpha == pytest.approx(margins.mu / 2)
    assert margins.beta == pytest.approx(math.pi * margins.mu)


def test_stability_margins_zero_field():
    shell = lattice.enumerate_shell(2, 1)
    zero = field.sample_from_arrays(shell, np.zeros(2), np.zeros(2))
    grid = field.eval_grid(zero, 16)
    margins = nodal.stability_margins(zero, grid)
    assert margins.mu == 0.0
    # the gradient rows come from the sample, so the grid must be its M^d
    cube = field.FieldGrid(d=3, n=1, M=16, values=np.zeros((16, 16, 16)))
    with pytest.raises(ValueError):
        nodal.stability_margins(zero, cube)


def test_margin_dichotomy_holds_at_vertices():
    sample = make_sample(2, 65, 5)
    grid = field.eval_grid(sample, 32)
    gradnorm = nodal.gradient_norm_grid(sample, 32)
    margins = nodal.stability_margins(sample, grid)
    L = math.sqrt(65)
    ok = (np.abs(grid.values) > margins.alpha) | (gradnorm > margins.beta * L)
    assert ok.all()


def test_analyze_deterministic_field():
    shell = lattice.enumerate_shell(2, 16)
    sin4 = field.pure_mode(shell, (4, 0), "sin")
    summary = nodal.analyze(sin4, 64)
    assert (summary.k, summary.r) == (8, 8)
    assert summary.certified
    assert summary.domain_volumes.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("d, n, M", [(2, 65, 48), (3, 9, 24)])
def test_analyze_summary_keeps_no_grid(d, n, M):
    # a summary holds per-domain and per-component arrays, never a grid
    summary = nodal.analyze(make_sample(d, n, 11), M)
    for f in dataclasses.fields(summary):
        assert np.size(getattr(summary, f.name)) < summary.M**d, f.name


def test_analyze_counts_through_the_kernels(monkeypatch):
    # the public counts write label grids; a trial counts without them
    def refuse(sg):
        raise AssertionError("a label grid on the trial path")

    monkeypatch.setattr(nodal, "count_domains", refuse)
    monkeypatch.setattr(nodal, "count_components", refuse)
    for d, n, M in ((2, 65, 48), (3, 9, 12)):
        summary = nodal.analyze(make_sample(d, n, 12), M)
        assert summary.k > 0 and summary.r > 0


def test_analyze_builds_no_gradient_grid(monkeypatch):
    # margins reduce row blocks of the derivative syntheses: one eval_grid
    # call per pass, at 2M and each doubling after it, and no derivative or
    # |grad f| grid, also when every pass takes its grid's margins
    def refuse(sample, M):
        raise AssertionError("a gradient grid on the trial path")

    calls = []
    real = nodal.eval_grid

    def spy(sample, M, derivative=()):
        calls.append((M, tuple(derivative)))
        return real(sample, M, derivative)

    monkeypatch.setattr(nodal, "gradient_norm_grid", refuse)
    monkeypatch.setattr(nodal, "eval_grid", spy)
    for (d, n, M), auto_refine in itertools.product(((2, 65, 48), (3, 9, 12)), (False, True)):
        calls.clear()
        summary = nodal.analyze(make_sample(d, n, 12), M, auto_refine=auto_refine)
        passes = summary.refinement_levels
        assert passes >= 2 if auto_refine else passes == 1
        assert calls == [(2**level * M, ()) for level in range(1, passes + 1)]
        assert summary.M == 2**passes * M and summary.mu > 0.0


def test_analyze_budget_admits_M_not_2M(monkeypatch):
    sample = make_sample(2, 25, 13)
    M = 128
    fine = nodal.analyze(sample, M)
    assert (fine.M, fine.refinement_levels) == (2 * M, 1)
    fine_margins = nodal.stability_margins(sample, field.eval_grid(sample, 2 * M))
    assert (fine.alpha, fine.mu) == (fine_margins.alpha, fine_margins.mu)

    # 1 MiB admits 128^2 cells and refuses 256^2
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    summary = nodal.analyze(sample, M)
    assert (summary.M, summary.refinement_levels) == (M, 0)
    value = field.eval_grid(sample, M)
    margins = nodal.stability_margins(sample, value)
    assert (summary.alpha, summary.beta, summary.mu) == (margins.alpha, margins.beta, margins.mu)
    # the M grid alone: counts of a direct synthesis, never certified
    # because no doubling was checked
    sg = nodal.sign_grid(value)
    r, _, _ = nodal.count_domains(sg)
    k, *_ = nodal.count_components(sg)
    assert (summary.k, summary.r) == (k, r)
    assert summary.certified is False


def test_budget_refused_pure_mode_is_uncertified(monkeypatch):
    # cos(2 pi 5x) has a large vertex margin and gate-consistent counts,
    # but a refused 2M grid leaves no doubling to check
    pure = field.pure_mode(lattice.enumerate_shell(2, 25), (5, 0), "cos")
    M = 128
    assert nodal.analyze(pure, M).certified
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    summary = nodal.analyze(pure, M)
    assert (summary.M, summary.refinement_levels, summary.k, summary.r) == (M, 0, 10, 10)
    assert summary.mu > 0.5
    assert summary.certified is False


def test_auto_refine_stops_at_budget(monkeypatch):
    sample = make_sample(2, 25, 13)
    M = 64
    # 1 MiB admits 128^2 cells and refuses 256^2: one doubling, never three
    # equal counts, so the trial is not certified
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "1")
    summary = nodal.analyze(sample, M, auto_refine=True)
    assert (summary.M, summary.refinement_levels) == (2 * M, 1)
    assert not summary.certified


@pytest.mark.parametrize("d, n, M", [(2, 1105, 544), (3, 17, 80)])
def test_memory_charge_covers_analyze_peak(monkeypatch, d, n, M):
    monkeypatch.delenv("ARW_MEMORY_BUDGET_MB", raising=False)
    sample = make_sample(d, n, 5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        summary = nodal.analyze(sample, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the default budget admits the refinement grid (160^3 cells at d=3) ...
    assert summary.M == 2 * M
    # ... and the per-cell charge covers what analyze really holds at its peak
    assert peak <= field.ANALYZE_BYTES_PER_CELL * summary.M**d


def _force_path(monkeypatch, overlap):
    """Pin analyze's core-count decision; returns a list that gains one
    entry per worker thread pool analyze opens."""
    opened = []

    class Executor(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nodal, "_spare_core", lambda: overlap)
    monkeypatch.setattr(nodal, "ThreadPoolExecutor", Executor)
    return opened


def assert_same_summary(a, b):
    for f in dataclasses.fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


@pytest.mark.parametrize("d, n, M", [(2, 325, 304), (2, 1105, 544), (3, 9, 32)])
@pytest.mark.parametrize("auto_refine", [False, True])
def test_overlapped_analyze_equals_serial(monkeypatch, d, n, M, auto_refine):
    # 2M and every doubling after it are above the overlap floor; each pass
    # moves its stages (the coarse count on the first, then the margins) to
    # one worker thread, and every summary field stays the same
    assert (2 * M) ** d >= nodal._OVERLAP_CELLS
    sample = make_sample(d, n, 1901)
    summaries = {}
    for overlap in (False, True):
        opened = _force_path(monkeypatch, overlap)
        summaries[overlap] = nodal.analyze(sample, M, auto_refine=auto_refine)
        passes = summaries[overlap].refinement_levels
        assert passes >= 2 if auto_refine else passes == 1
        assert len(opened) == (passes if overlap else 0)
    assert_same_summary(summaries[False], summaries[True])


def test_analyze_below_overlap_floor_stays_serial(monkeypatch):
    sample = make_sample(2, 65, 1902)
    M = 144
    assert (2 * M) ** 2 < nodal._OVERLAP_CELLS
    serial = nodal.analyze(sample, M)
    opened = _force_path(monkeypatch, True)
    assert_same_summary(nodal.analyze(sample, M), serial)
    assert opened == []


def test_overlapped_analyze_leaves_no_thread(monkeypatch):
    opened = _force_path(monkeypatch, True)
    sample = make_sample(2, 325, 1903)
    before = threading.active_count()
    nodal.analyze(sample, 304)
    assert opened == [{"max_workers": 1}]
    assert threading.active_count() == before

    def fail(sample, grid_value):
        raise ValueError("margins failed")

    # a stage that raises on the worker thread raises from analyze, and the
    # thread is joined all the same
    monkeypatch.setattr(nodal, "stability_margins", fail)
    with pytest.raises(ValueError, match="margins failed"):
        nodal.analyze(sample, 304)
    assert len(opened) == 2
    assert threading.active_count() == before


def test_d3_kernel_field_with_several_components(monkeypatch):
    # Random d=3 trials on affordable grids have k = 1, r = 2.  The
    # covariance-kernel field (all a = 1, b = 0) has bounded nodal domains;
    # a small random field from the same shell keeps it generic.  Shells
    # n < 5 give k > 1 on at most one coarse grid up to M = 16; at n = 5,
    # M = 7 is the first grid with k > 1.  Small-n counts still depend on
    # the grid (this field has k = 1 at M = 8, 12 and 16, and trial 0's at
    # every even M up to 16), so analyze runs at M = 32, where both levels
    # give k = 3.
    shell = lattice.enumerate_shell(3, 5)
    rand = field.sample_coefficients(shell, 0, 1)
    sample = field.sample_from_arrays(shell, 1.0 + 0.05 * np.asarray(rand.a), 0.05 * np.asarray(rand.b))
    for M in range(field.min_alias_free_M(5), 7):
        sg = nodal.sign_grid(field.eval_grid(sample, M))
        assert nodal.count_components(sg)[0] == 1
    sg = nodal.sign_grid(field.eval_grid(sample, 7))
    assert sg.zero_hits == 0
    r, k = assert_matches_nd_oracles(sg)
    assert (k, r) == (3, 4)
    assert r - 1 <= k <= r + 2

    # the same field through analyze, with 2M above the overlap floor, on
    # the serial and the overlapped path
    M = 32
    assert (2 * M) ** 3 >= nodal._OVERLAP_CELLS
    summaries = {}
    for overlap in (False, True):
        opened = _force_path(monkeypatch, overlap)
        summaries[overlap] = nodal.analyze(sample, M)
        assert len(opened) == overlap
    assert_same_summary(summaries[False], summaries[True])
    summary = summaries[True]
    assert summary.zero_hits == 0
    assert (summary.k, summary.r, summary.certified) == (3, 4, True)


def test_analyze_gate_random():
    summary = nodal.analyze(make_sample(2, 65, 7), 144)
    if summary.certified:
        assert summary.r - 1 <= summary.k <= summary.r + 1


def test_analyze_degenerate_uncertified():
    shell = lattice.enumerate_shell(2, 1)
    coscos = field.sample_from_arrays(shell, np.array([math.sqrt(2), math.sqrt(2)]), np.zeros(2))
    summary = nodal.analyze(coscos, 16, auto_refine=True)
    assert not summary.certified


def test_analyze_auto_refine_stabilizes():
    shell = lattice.enumerate_shell(2, 16)
    sin4 = field.pure_mode(shell, (4, 0), "sin")
    summary = nodal.analyze(sin4, 64, auto_refine=True)
    assert (summary.k, summary.r) == (8, 8)
    assert summary.refinement_levels >= 2
    assert summary.certified


# analyze summaries of seed 5150, trial 0 on the paths the per_L:16 golden
# records miss: (d, n, M, auto_refine, budget MiB) -> (M, k, r,
# refinement_levels, certified), alpha, mu.  A 20 MiB budget refuses
# 1088^2 cells and admits 544^2.
ANALYZE_PINS = [
    ((2, 65, 17, True, None), (136, 14, 14, 3, True), 0.027484753700363414, 0.05496950740072683),
    ((2, 25, 11, True, None), (44, 6, 6, 2, True), 0.09198402403816497, 0.18396804807632994),
    ((3, 9, 7, True, None), (28, 1, 2, 2, True), 0.033041893436723535, 0.06608378687344707),
    ((2, 1105, 544, False, "20"), (544, 148, 148, 0, False), 0.010077979160656508,
     0.020155958321313016),
]


@pytest.mark.parametrize("case, want, alpha, mu", ANALYZE_PINS, ids=[
    "auto-d2-n65", "auto-d2-n25", "auto-d3-n9", "refused-d2-n1105"])
def test_analyze_reproduces_pinned_summaries(monkeypatch, case, want, alpha, mu):
    d, n, M, auto_refine, budget = case
    if budget:
        monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", budget)
    else:
        monkeypatch.delenv("ARW_MEMORY_BUDGET_MB", raising=False)
    got = nodal.analyze(make_sample(d, n, 5150), M, auto_refine=auto_refine)
    assert (got.M, got.k, got.r, got.refinement_levels, got.certified) == want
    # BLAS kernels of another machine may differ in the last bit
    assert got.alpha == pytest.approx(alpha, rel=1e-12, abs=0.0)
    assert got.mu == pytest.approx(mu, rel=1e-12, abs=0.0)


def test_budget_refused_analyze_overlaps_its_margins(monkeypatch):
    # the budget refuses 2M; the M grid alone is above the overlap floor, so
    # its margins run beside its count, and every summary field stays the same
    monkeypatch.setenv("ARW_MEMORY_BUDGET_MB", "20")
    sample = make_sample(2, 1105, 5150)
    M = 544
    assert M**2 >= nodal._OVERLAP_CELLS
    summaries = {}
    for overlap in (False, True):
        opened = _force_path(monkeypatch, overlap)
        summaries[overlap] = nodal.analyze(sample, M)
        assert len(opened) == overlap
    assert_same_summary(summaries[False], summaries[True])
    assert (summaries[True].M, summaries[True].refinement_levels) == (M, 0)


def test_translation_equivariance():
    sample = make_sample(2, 25, 31)
    M = 32
    base = nodal.analyze(sample, M)
    moved = nodal.analyze(field.translate(sample, np.array([5 / M, 11 / M])), M)
    assert (base.k, base.r, base.certified) == (moved.k, moved.r, moved.certified)
    assert np.allclose(np.sort(base.domain_volumes), np.sort(moved.domain_volumes), atol=0)
    assert np.allclose(
        np.sort(base.component_diameters), np.sort(moved.component_diameters), atol=1e-12
    )


def test_sign_flip_symmetry():
    sample = make_sample(2, 25, 13)
    flipped = field.sample_from_arrays(sample.shell, -np.asarray(sample.a), -np.asarray(sample.b))
    a = nodal.analyze(sample, 32)
    b = nodal.analyze(flipped, 32)
    assert (a.k, a.r) == (b.k, b.r)
    assert np.allclose(np.sort(a.domain_volumes), np.sort(b.domain_volumes), atol=0)


def _volumes_pair_up(volumes):
    ordered = np.sort(volumes)
    return ordered.size % 2 == 0 and np.array_equal(ordered[0::2], ordered[1::2])


@pytest.mark.parametrize(
    "d, n, M, trials",
    [(2, 5, 96, 3), (2, 65, 144, 3), (2, 1105, 1088, 1), (3, 17, 160, 1)],
    ids=["d2-5", "d2-65", "d2-1105", "d3-17"],
)
def test_half_shift_pairs_domains_at_odd_n(d, n, M, trials):
    # at odd n, f(x + (1/2, ..., 1/2)) = -f(x); on an even M that is a roll
    # by M/2 that flips every sign, so each domain has a twin of the other
    # sign and the same volume, and r is even.  In d=2 the shift maps some
    # component across the torus, so one wraps and k = r is even too.
    # Exact zeros count as +, which breaks the flip: such a trial is skipped,
    # with a warning.
    skipped = []
    for trial in range(trials):
        sg = nodal.sign_grid(field.eval_grid(make_sample(d, n, 5150, trial), M))
        if sg.zero_hits:
            skipped.append(trial)
            continue
        rolled = np.roll(sg.signs, M // 2, axis=tuple(range(d)))
        assert np.array_equal(rolled, ~sg.signs), trial
        r, volumes, _ = nodal.count_domains(sg)
        assert r % 2 == 0 and _volumes_pair_up(volumes), (trial, r)
        if d == 2:
            k, *_ = nodal.count_components(sg)
            assert k == r, (trial, k, r)
    if skipped:
        warnings.warn(f"trials {skipped} skipped: their grids hold exact zeros")
    assert len(skipped) < trials


def test_half_shift_pairing_fails_on_odd_M():
    # the control: on an odd M the half shift is no grid translation, and
    # the domain volumes of the same fields do not pair up
    for n, M in ((5, 97), (65, 145)):
        for trial in range(3):
            sg = nodal.sign_grid(field.eval_grid(make_sample(2, n, 5150, trial), M))
            _, volumes, _ = nodal.count_domains(sg)
            assert not _volumes_pair_up(volumes), (n, M, trial)


def assert_raster_ordered(labels, count):
    """Labels 1..count first occur in increasing raster order."""
    ids, first = np.unique(labels.ravel(), return_index=True)
    first = first[ids > 0]
    assert np.array_equal(ids[ids > 0], np.arange(1, count + 1))
    assert np.all(np.diff(first) > 0)


def test_label_determinism():
    for d, n, M in ((2, 65, 144), (3, 17, 40)):
        sg = nodal.sign_grid(field.eval_grid(make_sample(d, n, 3), M))
        r1, v1, l1 = nodal.count_domains(sg)
        r2, v2, l2 = nodal.count_domains(sg)
        assert r1 == r2 and np.array_equal(l1, l2) and np.array_equal(v1, v2)
        assert_raster_ordered(l1, r1)
        assert np.array_equal(v1, np.bincount(l1.ravel(), minlength=r1 + 1)[1:] / M**d)
        k, *_, comp_labels = nodal.count_components(sg)
        assert_raster_ordered(comp_labels, k)


def test_bessel_zeros():
    assert nodal.bessel_first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-10)
    assert nodal.bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)


def test_faber_krahn_constants():
    assert nodal.faber_krahn_constant(2) == pytest.approx(2.404825557695773**2 / (4 * math.pi), rel=1e-12)
    assert nodal.faber_krahn_constant(3) == pytest.approx(math.pi / 6, rel=1e-10)


def test_faber_krahn_cosine():
    summary = nodal.analyze(cosine_sample(), 32)
    min_vol, bound, passed = nodal.faber_krahn_check(summary, 2, 1)
    assert min_vol == pytest.approx(0.5, abs=1 / 32 + 1e-12)
    assert bound == pytest.approx(0.4602, abs=1e-3)
    assert passed


def test_faber_krahn_requires_certified():
    shell = lattice.enumerate_shell(2, 1)
    coscos = field.sample_from_arrays(shell, np.array([math.sqrt(2), math.sqrt(2)]), np.zeros(2))
    summary = nodal.analyze(coscos, 16)
    with pytest.raises(Uncertified):
        nodal.faber_krahn_check(summary, 2, 1)


def test_perturb_zero():
    sample = make_sample(2, 65, 2025, trial=1)
    res = nodal.perturb_and_compare(sample, 0.0, 4, 144)
    assert res.n_before == res.n_after
    assert np.all(res.diam_shifts == 0.0)


def test_perturb_small_keeps_counts():
    sample = make_sample(2, 65, 2025, trial=1)
    res = nodal.perturb_and_compare(sample, 1e-4, 4, 144)
    assert res.n_before == res.n_after
    assert res.matched == res.n_before
    bound = 2 * res.alpha / res.beta + res.grid_slack
    assert np.all(res.diam_shifts <= bound)


def test_perturb_cosine_explicit():
    res = nodal.perturb_and_compare(cosine_sample(), 1e-4, 9, 32)
    assert (res.n_before, res.n_after) == (2, 2)


def test_perturb_too_large():
    with pytest.raises(PerturbationTooLarge):
        nodal.perturb_and_compare(make_sample(2, 65, 2025, trial=1), 10.0, 4, 144)


@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
def test_perturb_rejects_scale_outside_zero_to_inf(monkeypatch, scale):
    # refused before the base sample is analyzed
    monkeypatch.setattr(nodal, "analyze", None)
    with pytest.raises(ValidationError, match="perturbation scale"):
        nodal.perturb_and_compare(make_sample(2, 65, 2025, trial=1), scale, 4, 144)


def test_perturb_builds_no_gradient_grid(monkeypatch):
    # sup |grad g| is the maximum over the row blocks the margins reduce
    def refuse(sample, M):
        raise AssertionError("a |grad g| grid")

    monkeypatch.setattr(nodal, "gradient_norm_grid", refuse)
    sample = make_sample(2, 65, 2025, trial=1)
    res = nodal.perturb_and_compare(sample, 1e-4, 4, 144)
    assert res.n_before == res.n_after == res.matched
    with pytest.raises(PerturbationTooLarge):
        nodal.perturb_and_compare(sample, 10.0, 4, 144)


def test_perturb_uncertified_rejected():
    shell = lattice.enumerate_shell(2, 1)
    coscos = field.sample_from_arrays(shell, np.array([math.sqrt(2), math.sqrt(2)]), np.zeros(2))
    with pytest.raises(Uncertified):
        nodal.perturb_and_compare(coscos, 1e-4, 4, 16)
