"""Lattice points on spheres: enumeration, counting, and equidistribution.

The frequency set of a toral eigenfunction with eigenvalue 4*pi^2*n is the
set of integer vectors of squared norm n.  This module enumerates those
shells exactly, counts them without enumeration, filters n-sequences by
number-theoretic admissibility policies, and measures how uniformly the
normalized points cover the unit sphere.

All shell arithmetic is exact: enumeration and moment computations use
Python/NumPy integers with explicit 64-bit overflow guards, and rational
comparisons use `fractions.Fraction`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby
from typing import Optional

import numpy as np

from .errors import EmptyShell, Overflow, UnknownPolicy, ValidationError

INT64_MAX = 2**63 - 1


def _check_n(n: int) -> None:
    if n > INT64_MAX:
        raise Overflow(f"n={n} exceeds the signed 64-bit range")
    if n < 0:
        raise ValidationError("n must be nonnegative")


def check_shell_args(d: int, n: int) -> None:
    """Validate a shell's dimension and squared radius without enumerating it."""
    if d < 1:
        raise ValidationError("d must be >= 1")
    _check_n(n)


@dataclass(frozen=True)
class LatticeShell:
    """All integer vectors with squared norm n in dimension d.

    `points` is a (N, d) int64 array in lexicographic order; `half_points`
    keeps one representative per antipodal pair, chosen by the
    first-nonzero-coordinate-positive rule.  dim_HL equals N.
    """

    d: int
    n: int
    points: np.ndarray = field(repr=False)
    half_points: np.ndarray = field(repr=False)

    @property
    def dim_HL(self) -> int:
        return int(self.points.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.dim_HL == 0

    @property
    def L(self) -> float:
        """Radius of the shell (sqrt of n)."""
        return math.sqrt(self.n)

    def require_nonempty(self) -> None:
        if self.is_empty:
            raise EmptyShell(f"no integer vectors of squared norm {self.n} in dimension {self.d}")


def _enumerate_points(d: int, n: int) -> list[tuple[int, ...]]:
    """All integer d-vectors with squared norm exactly n, lexicographic."""
    if d == 1:
        r = math.isqrt(n)
        return [(v,) for v in sorted({-r, r})] if r * r == n else []
    out: list[tuple[int, ...]] = []
    point = [0] * d
    pen, last = d - 2, d - 1

    def rec(k: int, rem: int) -> None:
        # point[:k] is fixed and point[k:] is zero, with k <= pen.  In
        # lexicographic order the first nonzero coordinate j < pen takes its
        # negative values for ascending j, then the last two coordinates run
        # through their circle, then j takes its positive values for
        # descending j.  A zero coordinate is a loop step, not a call, so
        # the depth is the number of nonzero coordinates, not d.
        if rem == 0:
            out.append(tuple(point))
            return
        r = math.isqrt(rem)
        for j in range(k, pen):
            for v in range(-r, 0):
                point[j] = v
                rec(j + 1, rem - v * v)
            point[j] = 0
        for v in range(-r, r + 1):
            rest = rem - v * v
            s = math.isqrt(rest)
            if s * s == rest:
                point[pen] = v
                if s:
                    point[last] = -s
                    out.append(tuple(point))
                    point[last] = s
                out.append(tuple(point))
                point[last] = 0
        point[pen] = 0
        for j in range(pen - 1, k - 1, -1):
            for v in range(1, r + 1):
                point[j] = v
                rec(j + 1, rem - v * v)
            point[j] = 0

    rec(0, n)
    return out


@lru_cache(maxsize=512)
def enumerate_shell(d: int, n: int) -> LatticeShell:
    """Enumerate the shell of squared radius n in Z^d.

    An empty shell (n not a sum of d squares) is a valid result, not an
    error.  Raises Overflow if n exceeds the 64-bit contract.
    """
    check_shell_args(d, n)
    pts = _enumerate_points(d, n)
    points = np.array(pts, dtype=np.int64).reshape(len(pts), d)
    if len(pts):
        # first nonzero coordinate positive picks one of each +-pair
        first_nz = np.argmax(points != 0, axis=1)
        half_mask = points[np.arange(len(pts)), first_nz] > 0
        half = points[half_mask]
    else:
        half = points.copy()
    points.setflags(write=False)
    half.setflags(write=False)
    return LatticeShell(d=d, n=n, points=points, half_points=half)


def _square_count_table(n_max: int) -> np.ndarray:
    """R1[m] = number of integers a with a^2 = m, for 0 <= m <= n_max."""
    try:
        table = np.zeros(n_max + 1, dtype=np.int64)
    except (ValueError, MemoryError):  # NumPy refuses or fails the allocation
        raise Overflow(
            f"n={n_max}: a table of {n_max + 1} square counts cannot be allocated"
        ) from None
    table[0] = 1
    a = 1
    while a * a <= n_max:
        table[a * a] = 2
        a += 1
    return table


_REP_TABLE_CACHE: dict[int, np.ndarray] = {}


def _rep_table(k: int, n_max: int) -> np.ndarray:
    """Table of r_k(m) for m <= n_max, by iterated convolution with R1.

    A cached table too short for n_max is rebuilt at least twice as long,
    so a loop over rising n rebuilds O(log n) times, not once per n.  Each
    level needs the one below it at its own size, so the sizes are planned
    from level k down to the highest level whose cached table is long
    enough (or to level 1), and the levels are then built upward in a loop.
    """
    plan = []  # (level, size) to build, from the top down
    level, size = k, n_max
    while level >= 1:
        cached = _REP_TABLE_CACHE.get(level)
        if cached is not None and len(cached) > size:
            break
        size = size if cached is None else max(size, 2 * len(cached))
        plan.append((level, size))
        level -= 1
    table = _REP_TABLE_CACHE.get(level)
    for level, size in reversed(plan):
        if level == 1:
            table = _square_count_table(size)
        else:
            prev = table[: size + 1]
            # r_k(m + 1) >= 2 * r_(k-1)(m), so past this bound the table overflows
            if int(prev[:size].max(initial=0)) > INT64_MAX // 2:
                raise Overflow(f"r_{level}(m) exceeds 64-bit range for some m <= {size}")
            twice = 2 * prev[:size]
            table = prev.copy()  # a = 0 term
            for a in range(1, math.isqrt(size) + 1):
                sq = a * a
                table[sq:] += twice[: size + 1 - sq]
                # both addends are nonnegative, so a sum past int64 wraps negative
                if table[sq:].min() < 0:
                    raise Overflow(f"r_{level}(m) exceeds 64-bit range for some m <= {size}")
        _REP_TABLE_CACHE[level] = table
    return table[: n_max + 1]


def representation_count(d: int, n: int) -> int:
    """Number of ways to write n as an ordered sum of d squares of integers.

    Computed without materializing points: split d into halves and combine
    the two square-count tables (meet in the middle); each table is built
    by convolving the 1-D square-count function with itself.
    """
    check_shell_args(d, n)
    if n == 0:
        return 1
    h = d // 2
    if h == 0:
        r = math.isqrt(n)
        return 2 if r * r == n else 0
    left = _rep_table(h, n)
    right = _rep_table(d - h, n)[::-1]
    # coordinates lie in [-isqrt(n), isqrt(n)] and the last is fixed up to
    # sign, so r_d(n) <= 2 (2 isqrt(n) + 1)^(d-1); that also bounds every
    # partial sum of the dot, whose terms are nonnegative
    if 2 * (2 * math.isqrt(n) + 1) ** (d - 1) <= INT64_MAX:
        total = int(np.dot(left, right))
    else:  # the int64 dot could wrap, so sum in Python integers
        total = sum(map(operator.mul, left.tolist(), right.tolist()))
    if total > INT64_MAX:
        raise Overflow("representation count exceeds 64-bit range")
    return total


def jacobi_four_square_count(n: int) -> int:
    """Jacobi's count of representations by four squares: 8 * sum of
    divisors of n not divisible by 4.  Independent divisor-sum oracle."""
    if n <= 0:
        raise ValidationError("n must be positive")
    total = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            if i % 4 != 0:
                total += i
            j = n // i
            if j != i and j % 4 != 0:
                total += j
        i += 1
    return 8 * total


def legendre_three_square_excluded(n: int) -> bool:
    """True iff n has the form 4^a (8b + 7), i.e. is not a sum of three
    squares.  Direct factoring oracle."""
    if n <= 0:
        raise ValidationError("n must be positive")
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def orthogonality_sums(shell: LatticeShell) -> np.ndarray:
    """Exact integer matrix S with S[i, j] = sum over the shell of
    lambda_i * lambda_j.  By the shell's signed-permutation symmetry this
    equals (n * N / d) * I; callers verify that identity, this computes
    the sums themselves."""
    shell.require_nonempty()
    bound = shell.n * shell.dim_HL
    if bound > INT64_MAX:
        raise Overflow("orthogonality sums exceed 64-bit range")
    pts = shell.points
    return pts.T @ pts


@dataclass(frozen=True)
class EquidistributionReport:
    """Moment deviations of the projected shell from the uniform sphere.

    Keys of `moment_deviations` are even multi-indices of total degree 2
    or 4 (tuples of length d).  Degree-2 diagonal deviations are exactly
    zero for every shell; degree-4 deviations measure equidistribution.
    """

    d: int
    n: int
    moment_deviations: dict[tuple[int, ...], float]
    max_dev4: float
    angular_star_discrepancy: Optional[float] = None


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample against the uniform law on [0, 1)."""
    u = np.sort(np.asarray(values, dtype=float))
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def equidistribution_report(shell: LatticeShell) -> EquidistributionReport:
    """Degree-2/4 moment deviations from the sphere, plus the angular star
    discrepancy when d = 2.

    The empirical moments (1/N) sum (lambda/sqrt(n))^alpha are exact: with
    the squared coordinates as Python ints, the degree-2 sums are their
    column sums.  The shell is invariant under signed permutations of the
    axes, so every degree-4 diagonal sum equals S4 = sum(lambda_1^4), taken
    from the first column, and every off-diagonal sum sum(lambda_i^2
    lambda_j^2) equals (N n^2 - d S4) / (d (d - 1)), since all d^2 of them
    add up to sum(|lambda|^4) = N n^2.  The sphere's moments are
    E[z_i^2] = 1/d, E[z_i^4] = 3/(d(d+2)) and E[z_i^2 z_j^2] = 1/(d(d+2)).
    """
    shell.require_nonempty()
    d, n, N = shell.d, shell.n, shell.dim_HL
    if n == 0:
        raise ValidationError("the n=0 shell is the origin alone; it has no directions")
    sq = shell.points.astype(object) ** 2
    deg2 = sq.sum(axis=0)
    S4 = int((sq[:, 0] ** 2).sum())

    def alpha(*axes: int) -> tuple[int, ...]:
        key = [0] * d
        for a in axes:
            key[a] += 2
        return tuple(key)

    ball = Fraction(1, d * (d + 2))
    diag = float(abs(Fraction(S4, n * n * N) - 3 * ball))
    deviations = {alpha(i): float(abs(Fraction(deg2[i], n * N) - Fraction(1, d))) for i in range(d)}
    deviations.update((alpha(i, i), diag) for i in range(d))
    max_dev4 = diag
    if d > 1:
        off = float(abs(Fraction(N * n * n - d * S4, d * (d - 1) * n * n * N) - ball))
        deviations.update((alpha(i, j), off) for i in range(d) for j in range(i + 1, d))
        max_dev4 = max(diag, off)
    angular = None
    if d == 2:
        pts = shell.points.astype(float)
        angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        angular = star_discrepancy(angles / (2.0 * np.pi))
    return EquidistributionReport(
        d=d,
        n=n,
        moment_deviations=deviations,
        max_dev4=max_dev4,
        angular_star_discrepancy=angular,
    )


POLICIES = ("all", "congruence_d3", "bounded_two_adic", "top_by_dim", "diagnostic_threshold")


def admissible_sequence(
    d: int,
    n_min: int,
    n_max: int,
    policy: str,
    *,
    v_max: int = 1,
    threshold: float = 0.05,
) -> list[int]:
    """Ascending n values kept by a number-theoretic admissibility policy.

    Policies encode the relevant conditions verbatim; they filter, they do
    not prove equidistribution.  Every policy also drops n whose shell is
    empty, since those carry no eigenfunctions.  An empty result is valid.
    """
    if n_min > n_max:
        raise ValidationError("n_min must be <= n_max")
    if policy not in POLICIES:
        raise UnknownPolicy(f"policy {policy!r}; expected one of {POLICIES}")
    _check_n(n_max)

    ns = range(max(n_min, 1), n_max + 1)
    if not ns:
        return []
    check_shell_args(d, n_max)
    try:
        count_of = _rep_table(d, n_max).tolist().__getitem__  # every shell size at once
    except Overflow:
        # r_d passes int64 somewhere up to n_max: count per n, so that only
        # an n in range whose count overflows raises
        count_of = partial(representation_count, d)
    sizes = {n: count_of(n) for n in ns}
    candidates = [n for n, size in sizes.items() if size > 0]

    if policy == "all":
        return candidates
    if policy == "congruence_d3":
        return [n for n in candidates if n % 8 not in (0, 4, 7)]
    if policy == "bounded_two_adic":
        return [n for n in candidates if (n & -n).bit_length() - 1 <= v_max]
    if policy == "top_by_dim":
        # one window per dyadic range [2^k, 2^(k+1)); max keeps the first,
        # i.e. smallest, n of a tie
        return [max(window, key=sizes.get) for _, window in groupby(candidates, int.bit_length)]
    # diagnostic_threshold
    return [
        n for n in candidates
        if equidistribution_report(enumerate_shell(d, n)).max_dev4 <= threshold
    ]


_SLAB_POINTS = 2**16  # inner-block cells that ball_moment_sweep buckets at once


def ball_moment_sweep(d: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and second-moment matrices of every shell up to n_max at once.

    Writes each point of the ball as (x1, y) with y in the inner block
    [-K, K]^(d-1), K = isqrt(n_max), so |(x1, y)|^2 = x1^2 + |y|^2.  The
    inner block's points of norm <= n_max are bucketed by norm into three
    tables: their count, sum(y_i) and sum(y_i * y_j).  The block is bucketed
    in slabs of whole rows along y_1, of about _SLAB_POINTS cells each, so
    no array spans the whole block.  Each x1 then adds those tables shifted
    by c = x1^2 and cut off at n_max: the count to counts, c * count to the
    (0, 0) entry, x1 * sum(y_i) to the (0, i) and (i, 0) entries, and
    sum(y_i * y_j) to the inner entries.  At d=2 the inner block is the axis
    itself, which reaches only the K + 1 squares, so each x1 adds at the
    bins c + a^2 alone and no row is shifted.

    Returns (counts, sums): counts[n] = #shell(n), sums[n] = the d x d
    matrix of sum(lambda_i * lambda_j) over shell(n), both int64.  Exact:
    every partial sum is an integer below 2^53, so the float64 bucketing is
    integer-exact, the tables and the shifted adds are int64, and the order
    of summation cannot change a result.

    This is how per-shell orthogonality can be audited over ranges where
    enumerating each shell separately would be quadratically wasteful.
    """
    if d < 2:
        raise ValidationError("d must be >= 2")
    _check_n(n_max)
    if n_max * representation_count(d, n_max) > 2**52:
        raise Overflow("moment sums too large for exact float64 accumulation")
    K = math.isqrt(n_max)
    nbins = n_max + 1

    axis = np.arange(-K, K + 1, dtype=np.int32)
    count = np.zeros(nbins, dtype=np.int64)
    first = np.zeros((d - 1, nbins))
    second = np.zeros((d - 1, d - 1, nbins))
    rows = max(1, _SLAB_POINTS // len(axis) ** (d - 2))
    for lo in range(0, len(axis), rows):
        grids = np.meshgrid(axis[lo : lo + rows], *([axis] * (d - 2)), indexing="ij", sparse=True)
        norms = sum(g * g for g in grids)
        keep = norms <= n_max
        inner = [np.broadcast_to(g, norms.shape)[keep] for g in grids]
        idx = norms[keep]  # never empty: y = (y_1, 0, ..., 0) is in every row
        top = int(idx.max()) + 1
        count[:top] += np.bincount(idx)
        for i, yi in enumerate(inner):
            first[i, :top] += np.bincount(idx, weights=yi)
            for j in range(i, d - 1):
                yy = np.multiply(yi, inner[j], dtype=np.float64)
                second[i, j, :top] += np.bincount(idx, weights=yy)
    first = first.astype(np.int64)
    for i in range(d - 1):
        second[i + 1 :, i] = second[i, i + 1 :]
    second = second.astype(np.int64)

    if d == 2:
        # one row of (count, sum(y), sum(y), sum(y^2)) per bin the inner
        # block reaches, weighted by (c, x1, x1, 1) into the flattened 2 x 2
        # sums; c + a^2 is distinct for distinct a, so each x1's fancy-index
        # adds touch a bin at most once
        at = np.flatnonzero(count)
        table = np.stack([count[at], first[0, at], first[0, at], second[0, 0, at]], 1)
        del count, first, second  # free the dense tables before the outputs
        counts = np.zeros(nbins, dtype=np.int64)
        sums = np.zeros((nbins, 4), dtype=np.int64)
        for x1 in range(-K, K + 1):
            c = x1 * x1
            m = int(np.searchsorted(at, nbins - c))
            bins = c + at[:m]
            counts[bins] += table[:m, 0]
            sums[bins] += table[:m] * (c, x1, x1, 1)
        return counts, sums.reshape(nbins, 2, 2)

    # norm on the last axis, so each shifted add runs over contiguous rows
    counts = np.zeros(nbins, dtype=np.int64)
    sums = np.zeros((d, d, nbins), dtype=np.int64)
    for x1 in range(-K, K + 1):
        c = x1 * x1
        m = nbins - c
        counts[c:] += count[:m]
        sums[0, 0, c:] += c * count[:m]
        cross = x1 * first[:, :m]
        sums[0, 1:, c:] += cross
        sums[1:, 0, c:] += cross
        sums[1:, 1:, c:] += second[:, :, :m]
    return counts, np.ascontiguousarray(sums.transpose(2, 0, 1))
