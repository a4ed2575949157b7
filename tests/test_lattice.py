import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arw import lattice
from arw.errors import EmptyShell, UnknownPolicy, ValidationError

from oracles import box_counts


def test_shell_2_25_explicit():
    shell = lattice.enumerate_shell(2, 25)
    pts = {tuple(p) for p in shell.points}
    expected = {(5, 0), (-5, 0), (0, 5), (0, -5)}
    expected |= {(sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)}
    assert pts == expected
    assert shell.dim_HL == 12
    assert shell.half_points.shape == (6, 2)


def test_shell_3_7_empty():
    shell = lattice.enumerate_shell(3, 7)
    assert shell.is_empty and shell.dim_HL == 0
    with pytest.raises(EmptyShell):
        shell.require_nonempty()


def test_shell_2_1_units():
    shell = lattice.enumerate_shell(2, 1)
    assert {tuple(p) for p in shell.points} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_shell_4_6_count():
    assert lattice.enumerate_shell(4, 6).dim_HL == 96
    assert lattice.representation_count(4, 6) == 96
    assert lattice.jacobi_four_square_count(6) == 96


def test_points_lexicographic_and_antipodal():
    shell = lattice.enumerate_shell(3, 9)
    pts = [tuple(p) for p in shell.points]
    assert pts == sorted(pts)
    assert {tuple(-p) for p in shell.points} == set(pts)
    # half set: first nonzero coordinate positive, one per +- pair
    assert 2 * shell.half_points.shape[0] == shell.dim_HL
    for p in shell.half_points:
        first = next(v for v in p if v != 0)
        assert first > 0


def test_enumeration_depth_does_not_grow_with_d():
    # more coordinates than Python's recursion limit
    d = 1100
    assert lattice.enumerate_shell(2000, 0).points.tolist() == [[0] * 2000]
    units = [tuple(-1 if i == j else 0 for i in range(d)) for j in range(d)]
    units += [tuple(-v for v in p) for p in reversed(units)]
    assert lattice._enumerate_points(d, 1) == units
    assert [lattice._enumerate_points(1, n) for n in (0, 2, 9)] == [[(0,)], [], [(-3,), (3,)]]
    with pytest.raises(ValidationError):
        lattice.equidistribution_report(lattice.enumerate_shell(3, 0))


def test_representation_count_examples():
    assert lattice.representation_count(2, 65) == 16
    assert lattice.representation_count(2, 3) == 0
    assert lattice.representation_count(5, 1) == 10


def test_representation_count_matches_box_small():
    for d in (1, 2, 3, 4, 5):
        counts = box_counts(d, 60)
        for n in range(1, 61):
            assert lattice.representation_count(d, n) == counts[n]


def test_representation_count_matches_enumeration():
    for d in (2, 3, 4):
        for n in range(1, 40):
            assert lattice.representation_count(d, n) == lattice.enumerate_shell(d, n).dim_HL


def test_legendre_three_square_oracle():
    for n in range(1, 200):
        assert (lattice.representation_count(3, n) == 0) == lattice.legendre_three_square_excluded(n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=120), st.permutations([0, 1, 2]), st.tuples(*[st.sampled_from([1, -1])] * 3))
def test_shell_signed_permutation_invariance(n, perm, signs):
    shell = lattice.enumerate_shell(3, n)
    pts = {tuple(p) for p in shell.points}
    mapped = {tuple(s * p[i] for s, i in zip(signs, perm)) for p in pts}
    assert mapped == pts


def test_orthogonality_sums_examples():
    assert np.array_equal(
        lattice.orthogonality_sums(lattice.enumerate_shell(2, 25)),
        np.diag([150, 150]),
    )
    assert np.array_equal(
        lattice.orthogonality_sums(lattice.enumerate_shell(2, 1)), np.diag([2, 2])
    )
    assert np.array_equal(
        lattice.orthogonality_sums(lattice.enumerate_shell(3, 2)), np.diag([8, 8, 8])
    )


def test_orthogonality_identity_range():
    for d, n_max in ((2, 200), (3, 80), (4, 40)):
        for n in range(1, n_max + 1):
            shell = lattice.enumerate_shell(d, n)
            if shell.is_empty:
                continue
            expected = np.eye(d, dtype=np.int64) * (n * shell.dim_HL // d)
            assert n * shell.dim_HL % d == 0
            assert np.array_equal(lattice.orthogonality_sums(shell), expected)


def test_equidistribution_d2_n1():
    report = lattice.equidistribution_report(lattice.enumerate_shell(2, 1))
    assert report.moment_deviations[(4, 0)] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert report.moment_deviations[(2, 0)] == 0.0
    assert report.angular_star_discrepancy is not None


def test_equidistribution_degree2_exact_zero():
    for d, n in ((2, 65), (3, 9), (4, 10)):
        report = lattice.equidistribution_report(lattice.enumerate_shell(d, n))
        for i in range(d):
            alpha = tuple(2 if j == i else 0 for j in range(d))
            assert report.moment_deviations[alpha] == 0.0


def test_equidistribution_d3_n2():
    report = lattice.equidistribution_report(lattice.enumerate_shell(3, 2))
    assert report.moment_deviations[(4, 0, 0)] == pytest.approx(1.0 / 30.0, abs=1e-15)


def test_equidistribution_d3_only_has_no_angles():
    report = lattice.equidistribution_report(lattice.enumerate_shell(3, 2))
    assert report.angular_star_discrepancy is None


def test_star_discrepancy_bounds():
    values = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    disc = lattice.star_discrepancy(values)
    assert 0.0 < disc <= 1.0
    assert disc == pytest.approx(0.1, abs=1e-12)


def test_admissible_sequence_congruence_d3():
    assert lattice.admissible_sequence(3, 1, 10, "congruence_d3") == [1, 2, 3, 5, 6, 9, 10]


def test_admissible_sequence_d5_all():
    assert lattice.admissible_sequence(5, 1, 5, "all") == [1, 2, 3, 4, 5]


def test_admissible_sequence_top_by_dim():
    seq = lattice.admissible_sequence(2, 1, 100, "top_by_dim")
    assert 65 in seq
    assert seq == sorted(seq)


def test_admissible_sequence_bounded_two_adic():
    seq = lattice.admissible_sequence(4, 1, 32, "bounded_two_adic", v_max=1)
    assert all(n % 4 != 0 for n in seq)


def test_admissible_sequence_diagnostic_threshold():
    seq = lattice.admissible_sequence(2, 1, 30, "diagnostic_threshold", threshold=0.2)
    for n in seq:
        report = lattice.equidistribution_report(lattice.enumerate_shell(2, n))
        assert report.max_dev4 <= 0.2


@pytest.mark.parametrize("d, n_min, n_max", [(1, 1, 80), (2, 1, 300), (2, 17, 129), (3, 1, 200),
                                          (4, 5, 100), (6, 1, 60)])
def test_admissible_sequence_matches_per_n_counts(d, n_min, n_max):
    # every policy's list, from the one r_d table, against a filter of the
    # per-n representation counts
    sizes = {n: lattice.representation_count(d, n) for n in range(n_min, n_max + 1)}
    kept = [n for n, size in sizes.items() if size > 0]
    windows = {}
    for n in kept:
        windows.setdefault(n.bit_length(), []).append(n)
    expected = {
        "all": kept,
        "congruence_d3": [n for n in kept if n % 8 not in (0, 4, 7)],
        "bounded_two_adic": [n for n in kept if n % 4 != 0],  # v_max = 1
        "top_by_dim": [min(w, key=lambda n: (-sizes[n], n)) for w in windows.values()],
    }
    for policy, seq in expected.items():
        assert lattice.admissible_sequence(d, n_min, n_max, policy) == seq, policy
    reports = {
        n: lattice.equidistribution_report(lattice.enumerate_shell(d, n)).max_dev4
        for n in kept if n <= 40
    }
    assert lattice.admissible_sequence(d, n_min, min(n_max, 40), "diagnostic_threshold") == [
        n for n, dev in reports.items() if dev <= 0.05
    ]


def test_admissible_sequence_overflows_only_in_range(monkeypatch):
    from arw.errors import Overflow

    # r_14 first passes INT64_MAX at m = 1139 and is back below it at 1140
    # and 1141, so only a range holding 1139 overflows
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    assert lattice.admissible_sequence(14, 1140, 1141, "all") == [1140, 1141]
    with pytest.raises(Overflow):
        lattice.admissible_sequence(14, 1139, 1141, "all")
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    assert lattice.admissible_sequence(17, 1, 329, "all") == list(range(1, 330))
    with pytest.raises(Overflow):
        lattice.admissible_sequence(17, 300, 330, "all")


def test_rep_table_builds_deep_levels_without_recursion(monkeypatch):
    # r_d(5) = 4 d (d - 1) + 32 C(d, 5): 5 = 1 + 4 (two nonzero coordinates,
    # one of them +-2) or 1 + 1 + 1 + 1 + 1 (five +-1); 3000 levels would
    # pass the interpreter's recursion limit if each called the one below
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    expected = 4 * 3000 * 2999 + 32 * math.comb(3000, 5)
    assert expected == 64_584_251_916_007_200
    assert lattice.representation_count(3000, 5) == expected
    assert lattice.admissible_sequence(3000, 1, 3, "all") == [1, 2, 3]
    assert sorted(lattice._REP_TABLE_CACHE) == list(range(1, 3001))


def test_admissible_sequence_unknown_policy():
    with pytest.raises(UnknownPolicy):
        lattice.admissible_sequence(2, 1, 10, "bogus")


def test_overflow_raised_not_wrapped():
    from arw.errors import Overflow

    with pytest.raises(Overflow):
        lattice.enumerate_shell(2, 2**63)
    with pytest.raises(Overflow):
        lattice.representation_count(3, 2**63 + 1)
    # counts past 2^63 that the int64 dot product would wrap
    for d, n in ((24, 100), (8, 10**6), (40, 30)):
        with pytest.raises(Overflow):
            lattice.representation_count(d, n)
    # here the r_k tables themselves leave int64 before m = 40
    with pytest.raises(Overflow):
        lattice.representation_count(128, 40)
    assert lattice.representation_count(16, 400) == 3108370662205774624


# includes perfect-square n_max and n_max <= 1
@pytest.mark.parametrize(
    "d, n_max", [(3, 50), (2, 200), (4, 30), (5, 12), (2, 196), (3, 49), (2, 0), (4, 1)]
)
def test_ball_moment_sweep_matches_per_shell(d, n_max):
    counts, sums = lattice.ball_moment_sweep(d, n_max)
    assert counts.dtype == sums.dtype == np.int64
    assert counts.shape == (n_max + 1,) and sums.shape == (n_max + 1, d, d)
    for n in range(n_max + 1):
        shell = lattice.enumerate_shell(d, n)
        assert counts[n] == shell.dim_HL
        if not shell.is_empty:
            assert np.array_equal(sums[n], lattice.orthogonality_sums(shell))


@pytest.mark.parametrize("d, n_max", [(2, 200), (3, 50), (4, 30), (5, 12)])
def test_ball_moment_sweep_slabs(monkeypatch, d, n_max):
    # two rows of the inner block per slab: the block has 2K + 1 rows, an
    # odd number, so several slabs run and the last one holds one row
    side = 2 * math.isqrt(n_max) + 1
    monkeypatch.setattr(lattice, "_SLAB_POINTS", 2 * side ** (d - 2))
    slabs = []
    meshgrid = np.meshgrid

    def spy(*axes, **kwargs):
        slabs.append(len(axes[0]))  # rows in this slab
        return meshgrid(*axes, **kwargs)

    monkeypatch.setattr(np, "meshgrid", spy)
    counts, sums = lattice.ball_moment_sweep(d, n_max)
    monkeypatch.undo()
    assert slabs == [2] * (side // 2) + [1]
    for n in range(n_max + 1):
        shell = lattice.enumerate_shell(d, n)
        assert counts[n] == shell.dim_HL
        if not shell.is_empty:
            assert np.array_equal(sums[n], lattice.orthogonality_sums(shell))


def test_ball_moment_sweep_d2_large():
    n_max = 10**5
    counts, sums = lattice.ball_moment_sweep(2, n_max)
    assert np.array_equal(counts, lattice._rep_table(2, n_max))
    n = np.arange(n_max + 1)
    assert np.all(n * counts % 2 == 0)
    assert np.array_equal(sums, (n * counts // 2)[:, None, None] * np.eye(2, dtype=np.int64))
    assert sums.flags.c_contiguous and sums.shape == (n_max + 1, 2, 2)


def test_equidistribution_reports_match_committed_values():
    # reports computed before the degree-4 sums came from S4; keys, key
    # order and values must be unchanged
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "equidistribution_reports.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert len(doc["shells"]) == 320
    for d, n, values, max_dev4, angular in doc["shells"]:
        report = lattice.equidistribution_report(lattice.enumerate_shell(d, n))
        assert [list(key) for key in report.moment_deviations] == doc["keys"][str(d)], (d, n)
        assert list(report.moment_deviations.values()) == values, (d, n)
        assert report.max_dev4 == max_dev4 and report.angular_star_discrepancy == angular, (d, n)


def test_rep_table_grows_geometrically(monkeypatch):
    # a loop over rising n must not rebuild the r_2 table once per n
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    builds, last = 0, None
    for n in range(1, 4001):
        assert lattice.representation_count(4, n) == lattice.jacobi_four_square_count(n)
        table = lattice._REP_TABLE_CACHE[2]
        if table is not last:
            builds, last = builds + 1, table
    assert builds <= 2 + math.log2(4000)


def test_rep_table_per_square_overflow(monkeypatch):
    from arw.errors import Overflow

    # exact r_17 on 0..330 in Python integers: it first passes INT64_MAX at m = 330
    exact = [1] + [0] * 330
    for _ in range(17):
        exact = [
            sum(exact[m - a * a] * (2 if a else 1) for a in range(math.isqrt(m) + 1))
            for m in range(331)
        ]
    assert max(exact[:330]) <= lattice.INT64_MAX < exact[330]
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    assert lattice._rep_table(17, 329).tolist() == exact[:330]
    # r_16 stays within INT64_MAX // 2, so the level check passes and the
    # per-square check is the one that must catch the wrap
    monkeypatch.setattr(lattice, "_REP_TABLE_CACHE", {})
    assert int(lattice._rep_table(16, 330).max()) <= lattice.INT64_MAX // 2
    with pytest.raises(Overflow):
        lattice._rep_table(17, 330)
