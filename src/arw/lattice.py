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
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import EmptyShell, Overflow, UnknownPolicy, ValidationError

INT64_MAX = 2**63 - 1


def _check_n(n: int) -> None:
    if n > INT64_MAX:
        raise Overflow(f"n={n} exceeds the signed 64-bit range")
    if n < 0:
        raise ValidationError("n must be nonnegative")


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
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(k: int, rem: int) -> None:
        if k == 1:
            r = math.isqrt(rem)
            if r * r == rem:
                if r > 0:
                    out.append(tuple(prefix) + (-r,))
                    out.append(tuple(prefix) + (r,))
                else:
                    out.append(tuple(prefix) + (0,))
            return
        bound = math.isqrt(rem)
        for v in range(-bound, bound + 1):
            prefix.append(v)
            rec(k - 1, rem - v * v)
            prefix.pop()

    rec(d, n)
    # the recursion ascends coordinate-by-coordinate except in the base
    # case, where -r comes before r; that is already lexicographic.
    return out


@lru_cache(maxsize=512)
def enumerate_shell(d: int, n: int) -> LatticeShell:
    """Enumerate the shell of squared radius n in Z^d.

    An empty shell (n not a sum of d squares) is a valid result, not an
    error.  Raises Overflow if n exceeds the 64-bit contract.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    _check_n(n)
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
    table = np.zeros(n_max + 1, dtype=np.int64)
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
    so a loop over rising n rebuilds O(log n) times, not once per n.
    """
    cached = _REP_TABLE_CACHE.get(k)
    if cached is not None and len(cached) > n_max:
        return cached[: n_max + 1]
    size = n_max if cached is None else max(n_max, 2 * len(cached))
    if k == 1:
        table = _square_count_table(size)
    else:
        prev = _rep_table(k - 1, size)
        # r_k(m + 1) >= 2 * r_(k-1)(m), so past this bound the table overflows
        if int(prev[:size].max(initial=0)) > INT64_MAX // 2:
            raise Overflow(f"r_{k}(m) exceeds 64-bit range for some m <= {size}")
        table = prev.copy()  # a = 0 term
        a = 1
        while a * a <= size:
            sq = a * a
            table[sq:] += 2 * prev[: size + 1 - sq]
            # both addends are nonnegative, so a sum past int64 wraps negative
            if table[sq:].min() < 0:
                raise Overflow(f"r_{k}(m) exceeds 64-bit range for some m <= {size}")
            a += 1
    _REP_TABLE_CACHE[k] = table
    return table[: n_max + 1]


def representation_count(d: int, n: int) -> int:
    """Number of ways to write n as an ordered sum of d squares of integers.

    Computed without materializing points: split d into halves and combine
    the two square-count tables (meet in the middle); each table is built
    by convolving the 1-D square-count function with itself.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    _check_n(n)
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


def _even_multi_indices(d: int) -> list[tuple[int, ...]]:
    idx: list[tuple[int, ...]] = []
    for i in range(d):
        alpha = [0] * d
        alpha[i] = 2
        idx.append(tuple(alpha))
    for i in range(d):
        alpha = [0] * d
        alpha[i] = 4
        idx.append(tuple(alpha))
    for i in range(d):
        for j in range(i + 1, d):
            alpha = [0] * d
            alpha[i] = 2
            alpha[j] = 2
            idx.append(tuple(alpha))
    return idx


def _sphere_moment(d: int, alpha: tuple[int, ...]) -> Fraction:
    """Uniform-sphere moment of zeta^alpha for the even multi-indices used
    here: E[z_i^2] = 1/d, E[z_i^4] = 3/(d(d+2)), E[z_i^2 z_j^2] = 1/(d(d+2))."""
    degree = sum(alpha)
    if degree == 2:
        return Fraction(1, d)
    if max(alpha) == 4:
        return Fraction(3, d * (d + 2))
    return Fraction(1, d * (d + 2))


def _empirical_moment(shell: LatticeShell, alpha: tuple[int, ...]) -> Fraction:
    """(1/N) * sum over the shell of (lambda/sqrt(n))^alpha, exactly."""
    pts = shell.points
    num = 0
    for row in pts:
        term = 1
        for lam, a in zip(row.tolist(), alpha):
            if a:
                term *= lam**a
        num += term
    power = sum(alpha) // 2
    return Fraction(num, shell.n**power * shell.dim_HL)


def star_discrepancy(values: np.ndarray) -> float:
    """Star discrepancy of a sample against the uniform law on [0, 1)."""
    u = np.sort(np.asarray(values, dtype=float))
    n = len(u)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def equidistribution_report(shell: LatticeShell) -> EquidistributionReport:
    """Degree-2/4 moment deviations from the sphere, plus the angular star
    discrepancy when d = 2."""
    shell.require_nonempty()
    deviations: dict[tuple[int, ...], float] = {}
    max_dev4 = 0.0
    for alpha in _even_multi_indices(shell.d):
        dev = abs(_empirical_moment(shell, alpha) - _sphere_moment(shell.d, alpha))
        deviations[alpha] = float(dev)
        if sum(alpha) == 4:
            max_dev4 = max(max_dev4, float(dev))
    angular = None
    if shell.d == 2:
        pts = shell.points.astype(float)
        angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        angular = star_discrepancy(angles / (2.0 * np.pi))
    return EquidistributionReport(
        d=shell.d,
        n=shell.n,
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

    candidates = [n for n in range(max(n_min, 1), n_max + 1) if representation_count(d, n) > 0]

    if policy == "all":
        return candidates
    if policy == "congruence_d3":
        return [n for n in candidates if n % 8 not in (0, 4, 7)]
    if policy == "bounded_two_adic":
        kept = []
        for n in candidates:
            v, m = 0, n
            while m % 2 == 0:
                m //= 2
                v += 1
            if v <= v_max:
                kept.append(n)
        return kept
    if policy == "top_by_dim":
        kept = []
        lo = max(n_min, 1)
        k = lo.bit_length() - 1
        while 2**k <= n_max:
            window = [n for n in candidates if 2**k <= n < 2 ** (k + 1)]
            if window:
                dims = [representation_count(d, n) for n in window]
                kept.append(window[int(np.argmax(dims))])  # ties: first, i.e. smallest n
            k += 1
        return kept
    # diagnostic_threshold
    kept = []
    for n in candidates:
        report = equidistribution_report(enumerate_shell(d, n))
        if report.max_dev4 <= threshold:
            kept.append(n)
    return kept


def ball_moment_sweep(d: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and second-moment matrices of every shell up to n_max at once.

    Writes each point of the ball as (x1, y) with y in the inner block
    [-K, K]^(d-1), K = isqrt(n_max), so |(x1, y)|^2 = x1^2 + |y|^2.  The
    inner block's points of norm <= n_max are bucketed once by norm into
    three tables: their count, sum(y_i) and sum(y_i * y_j).  Each x1 then
    adds those tables shifted by c = x1^2 and cut off at n_max: the count
    to counts, c * count to the (0, 0) entry, x1 * sum(y_i) to the (0, i)
    and (i, 0) entries, and sum(y_i * y_j) to the inner entries.

    Returns (counts, sums): counts[n] = #shell(n), sums[n] = the d x d
    matrix of sum(lambda_i * lambda_j) over shell(n), both int64.  Exact:
    every partial sum is an integer below 2^53, so float64 accumulation
    is integer-exact and the order of summation cannot change a result.

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
    grids = np.meshgrid(*([axis] * (d - 1)), indexing="ij", sparse=True)
    norms = sum(g * g for g in grids)
    keep = norms <= n_max
    inner = [np.broadcast_to(g, norms.shape)[keep] for g in grids]
    idx = norms[keep]
    count = np.bincount(idx, minlength=nbins).astype(np.float64)
    first = np.stack([np.bincount(idx, weights=y, minlength=nbins) for y in inner])
    second = np.empty((d - 1, d - 1, nbins))
    for i, yi in enumerate(inner):
        for j in range(i, d - 1):
            yy = np.multiply(yi, inner[j], dtype=np.float64)
            second[i, j] = second[j, i] = np.bincount(idx, weights=yy, minlength=nbins)

    # norm on the last axis, so each shifted add runs over contiguous rows
    counts = np.zeros(nbins)
    sums = np.zeros((d, d, nbins))
    for x1 in range(-K, K + 1):
        c = x1 * x1
        m = nbins - c
        counts[c:] += count[:m]
        sums[0, 0, c:] += c * count[:m]
        sums[0, 1:, c:] += x1 * first[:, :m]
        sums[1:, 0, c:] += x1 * first[:, :m]
        sums[1:, 1:, c:] += second[:, :, :m]
    return counts.astype(np.int64), sums.transpose(2, 0, 1).astype(np.int64, order="C")
