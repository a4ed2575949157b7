"""Sampling and evaluation of Gaussian toral eigenfunctions.

A sample is a pair of i.i.d. standard normal coefficient vectors (a, b)
over the half shell, defining

    f(x) = sqrt(2/N) * sum over half shell of
           (a * cos(2*pi*lambda.x) + b * sin(2*pi*lambda.x)),

with N the shell size.  Evaluation is available both on regular periodic
grids and pointwise (direct summation), and the two must agree.  Grids
are built by pruned real synthesis (Markel 1971): the field has at most
2*sqrt(n) + 1 distinct frequencies per axis, so the leading axes are
expanded by small DFT matrices over those frequencies and only the last
axis runs a real inverse FFT; no full M^d complex spectrum is formed.

Complex amplitude convention (single source of truth): the value placed at
frequency +lambda is (a - i*b)/2 * sqrt(2/N), and its conjugate sits at
-lambda.  Each derivative along axis m multiplies the +lambda amplitude by
2*pi*i*lambda_m, so a second derivative carries -4*pi^2*lambda_i*lambda_j.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy import special

from . import rng
from .errors import (
    AliasError,
    DegenerateIntegral,
    MemoryBudgetExceeded,
    ValidationError,
)
from .lattice import LatticeShell, orthogonality_sums

DEFAULT_MEMORY_BUDGET_MB = 512
# What one M^d grid costs against the budget: the tracemalloc peak of a
# whole `nodal.analyze` per cell of its finest grid, which is 39 B at d=2
# (n=1105) and d=3 (n=17), and 43 B on a 96^2 grid where fixed costs show,
# rounded up.
ANALYZE_BYTES_PER_CELL = 48


# Processes that share the budget evenly; a pool worker of
# `experiments.run_trials` sets it to the pool's size.
_budget_shares = 1


def memory_budget_bytes() -> int:
    """This process's grid memory budget: ARW_MEMORY_BUDGET_MB (a positive
    integer number of MiB) if set, else 512 MiB, split evenly among the
    processes that share it."""
    mb = os.environ.get("ARW_MEMORY_BUDGET_MB", "")
    value = DEFAULT_MEMORY_BUDGET_MB
    if mb:
        try:
            value = int(mb)
        except ValueError:
            value = 0
        if value <= 0:
            raise ValidationError(f"ARW_MEMORY_BUDGET_MB must be a positive integer, got {mb!r}")
    return value * 2**20 // _budget_shares


def min_alias_free_M(n: int) -> int:
    """Smallest grid size that keeps all shell frequencies alias-free."""
    return 2 * math.isqrt(n) + 1


@dataclass(frozen=True)
class WaveSample:
    """One draw of coefficients over a shell, with seed provenance.

    `a` and `b` are aligned with `shell.half_points` (lexicographic order).
    Regenerating with the same (seed, trial_index) reproduces the arrays
    bit for bit.
    """

    shell: LatticeShell
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    seed: int
    trial_index: int

    @property
    def coeffs(self) -> dict[tuple[int, ...], tuple[float, float]]:
        return {
            tuple(int(v) for v in lam): (float(a), float(b))
            for lam, a, b in zip(self.shell.half_points, self.a, self.b)
        }

    @property
    def normalization(self) -> float:
        return math.sqrt(2.0 / self.shell.dim_HL)

    def coef_norm(self) -> float:
        """L2 norm of f from coefficients: sqrt((1/N) * sum(a^2 + b^2))."""
        return math.sqrt(float(np.sum(self.a**2) + np.sum(self.b**2)) / self.shell.dim_HL)

    def coeff_l1_bound(self) -> float:
        """sqrt(2/N) * sum(|a|+|b|): a sup-norm bound for f, and for the
        gradient and Hessian after scaling by (2*pi*L) and (2*pi*L)^2."""
        return self.normalization * float(np.sum(np.abs(self.a)) + np.sum(np.abs(self.b)))


@dataclass(frozen=True)
class FieldGrid:
    """Values of f (or one derivative component) on a regular periodic grid.

    Index j maps to the point j/M, last axis fastest (C order).
    `derivative_tag` is a tuple of differentiated axes: () for the value,
    (i,) for d/dx_i, (i, j) for the second derivative.
    """

    d: int
    n: int
    M: int
    values: np.ndarray = field(repr=False)
    derivative_tag: tuple[int, ...] = ()
    seed: int = 0
    trial_index: int = 0

    @property
    def h(self) -> float:
        return 1.0 / self.M


def sample_coefficients(shell: LatticeShell, seed: int, trial_index: int) -> WaveSample:
    """Draw i.i.d. N(0,1) coefficient pairs in fixed half-shell order from
    the (seed, trial_index) stream."""
    shell.require_nonempty()
    a, b = rng.normal_pairs(seed, trial_index, shell.half_points.shape[0])
    a.setflags(write=False)
    b.setflags(write=False)
    return WaveSample(shell=shell, a=a, b=b, seed=seed, trial_index=trial_index)


def sample_from_arrays(
    shell: LatticeShell, a: np.ndarray, b: np.ndarray, seed: int = 0, trial_index: int = 0
) -> WaveSample:
    """Wrap explicit coefficient arrays (deterministic fixtures, sums)."""
    shell.require_nonempty()
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    if a.shape != (shell.half_points.shape[0],) or b.shape != a.shape:
        raise ValidationError("coefficient arrays must match the half shell")
    a.setflags(write=False)
    b.setflags(write=False)
    return WaveSample(shell=shell, a=a, b=b, seed=seed, trial_index=trial_index)


def pure_mode(shell: LatticeShell, lam: tuple[int, ...], kind: str = "cos") -> WaveSample:
    """Sample whose field is exactly cos(2*pi*lam.x) or sin(2*pi*lam.x).

    The ensemble normalization is cancelled by scaling the coefficient, so
    deterministic fixtures have unit amplitude.
    """
    shell.require_nonempty()
    half = [tuple(int(v) for v in row) for row in shell.half_points]
    lam_t = tuple(int(v) for v in lam)
    neg = tuple(-v for v in lam_t)
    a = np.zeros(len(half))
    b = np.zeros(len(half))
    sign = 1.0
    if lam_t in half:
        k = half.index(lam_t)
    elif neg in half:
        k, sign = half.index(neg), -1.0
    else:
        raise ValidationError(f"{lam} is not in the shell")
    scale = math.sqrt(shell.dim_HL / 2.0)
    if kind == "cos":
        a[k] = scale  # cos is even: sign flip is immaterial
    elif kind == "sin":
        b[k] = sign * scale
    else:
        raise ValidationError("kind must be 'cos' or 'sin'")
    return sample_from_arrays(shell, a, b)


def _amplitudes(sample: WaveSample, derivative: tuple[int, ...]) -> np.ndarray:
    """Complex amplitude at +lambda for every half-shell frequency."""
    amp = (sample.a - 1j * sample.b) * (0.5 * sample.normalization)
    lam = sample.shell.half_points
    for axis in derivative:
        if not 0 <= axis < sample.shell.d:
            raise ValidationError(f"derivative axis {axis} out of range")
        amp = amp * (2j * np.pi * lam[:, axis])
    return amp


def eval_grid(sample: WaveSample, M: int, derivative: tuple[int, ...] = ()) -> FieldGrid:
    """Evaluate on the M^d periodic grid by pruned real synthesis.

    Each +-lambda pair is folded onto its member with lambda_d >= 0.  The
    leading axes are expanded one at a time by an M x k DFT matrix over
    that axis's k distinct frequencies (k <= 2*sqrt(n) + 1), and one real
    inverse FFT of length M along the last axis finishes the grid.
    Requires M alias-free (M >= 2*floor(sqrt(n)) + 1), which also keeps
    every folded lambda_d below the Nyquist bin M/2.
    """
    shell = sample.shell
    d = shell.d
    if M < min_alias_free_M(shell.n):
        raise AliasError(f"M={M} < {min_alias_free_M(shell.n)} required for n={shell.n}")
    cells = M**d
    if cells * ANALYZE_BYTES_PER_CELL > memory_budget_bytes():
        raise MemoryBudgetExceeded(f"grid {M}^{d} exceeds the memory budget")
    amp = _amplitudes(sample, derivative)
    lam = shell.half_points
    flip = lam[:, -1] < 0
    lam = np.where(flip[:, None], -lam, lam)
    amp = np.where(flip, np.conj(amp), amp)
    # the real FFT keeps only the real part of the last axis's zero bin, so
    # a pair on the lambda_d = 0 plane enters once, doubled
    amp = np.where(lam[:, -1] == 0, 2.0 * amp, amp)
    index, dfts = [], []
    for axis in range(d - 1):
        freqs, inverse = np.unique(lam[:, axis], return_inverse=True)
        index.append(inverse)
        phase = np.mod(np.outer(np.arange(M), freqs), M)  # exact integer phases
        dfts.append(np.exp((2j * np.pi / M) * phase))
    shape = [dft.shape[1] for dft in dfts] + [int(lam[:, -1].max()) + 1]
    spectrum = np.zeros(shape, dtype=np.complex128)
    spectrum[tuple(index) + (lam[:, -1],)] = amp
    for axis, dft in enumerate(dfts):
        spectrum = np.moveaxis(np.tensordot(dft, spectrum, axes=(1, axis)), 0, axis)
    values = sfft.irfft(spectrum, n=M, axis=-1, norm="forward")
    values.setflags(write=False)
    return FieldGrid(
        d=d,
        n=shell.n,
        M=M,
        values=values,
        derivative_tag=tuple(derivative),
        seed=sample.seed,
        trial_index=sample.trial_index,
    )


def eval_points(
    sample: WaveSample, x: np.ndarray, derivative: tuple[int, ...] = ()
) -> np.ndarray:
    """Direct summation at points x of shape (..., d); the oracle the FFT
    path must match."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    amp = _amplitudes(sample, derivative)
    phases = 2.0 * np.pi * pts @ sample.shell.half_points.T.astype(float)
    vals = 2.0 * (np.exp(1j * phases) @ amp).real
    return vals.reshape(np.asarray(x, dtype=float).shape[:-1])


def eval_point(sample: WaveSample, x, derivative: tuple[int, ...] = ()) -> float:
    return float(eval_points(sample, np.asarray(x, dtype=float), derivative))


def gradient_at(sample: WaveSample, x) -> np.ndarray:
    d = sample.shell.d
    return np.array([eval_point(sample, x, (i,)) for i in range(d)])


def hessian_at(sample: WaveSample, x) -> np.ndarray:
    d = sample.shell.d
    out = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            out[i, j] = out[j, i] = eval_point(sample, x, (i, j))
    return out


def translate(sample: WaveSample, shift) -> WaveSample:
    """Coefficients of x -> f(x + shift), same shell."""
    theta = 2.0 * np.pi * (sample.shell.half_points.astype(float) @ np.asarray(shift, dtype=float))
    ct, st = np.cos(theta), np.sin(theta)
    return sample_from_arrays(
        sample.shell,
        sample.a * ct + sample.b * st,
        -sample.a * st + sample.b * ct,
        seed=sample.seed,
        trial_index=sample.trial_index,
    )


def covariance_kernel(shell: LatticeShell, t) -> float:
    """K(t) = (1/N) * sum over the full shell of cos(2*pi*lambda.t)."""
    shell.require_nonempty()
    t = np.asarray(t, dtype=float)
    return float(np.mean(np.cos(2.0 * np.pi * shell.points.astype(float) @ t)))


def scaled_kernel(shell: LatticeShell, u, v) -> float:
    """Covariance of the wave rescaled by L: K((u - v)/L)."""
    shell.require_nonempty()
    diff = (np.asarray(u, dtype=float) - np.asarray(v, dtype=float)) / shell.L
    return covariance_kernel(shell, diff)


def scaled_covariance_matrix(shell: LatticeShell) -> np.ndarray:
    """Gradient covariance of the rescaled wave: exactly (4*pi^2/d) * I.

    Derived from the integer orthogonality sums, not from floating
    summation; the integer identity is asserted on the way.
    """
    shell.require_nonempty()
    sums = orthogonality_sums(shell)
    expected = np.eye(shell.d, dtype=np.int64) * (shell.n * shell.dim_HL // shell.d)
    if shell.n * shell.dim_HL % shell.d != 0 or not np.array_equal(sums, expected):
        raise AssertionError("orthogonality identity failed; shell enumeration is broken")
    return (4.0 * np.pi**2 / shell.d) * np.eye(shell.d)


def limiting_kernel(d: int, x) -> float:
    """Average of cos(2*pi*x.zeta) over the unit sphere in R^d.

    Radial, with the closed form Gamma(d/2) * (pi*r)^(1-d/2) *
    J_(d/2-1)(2*pi*r) at r = |x|.  Below 2*pi*r = 1e-8 the series
    1 - (2*pi*r)^2/(2d) + ... rounds to 1.0; there the closed form's power
    can overflow while its Bessel factor underflows.
    """
    if d < 2:
        raise ValidationError("d must be >= 2")
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if 2.0 * np.pi * r < 1e-8:
        return 1.0
    nu = d / 2.0 - 1.0
    return float(special.gamma(d / 2.0) * (np.pi * r) ** -nu * special.jv(nu, 2.0 * np.pi * r))


def parseval_norm(sample: WaveSample, grid: FieldGrid) -> tuple[float, float]:
    """(coefficient L2 norm, grid L2 norm); equal to 1e-9 relative when the
    grid is alias-free."""
    if grid.derivative_tag != ():
        raise ValidationError("parseval_norm expects a value grid")
    if grid.M < min_alias_free_M(sample.shell.n):
        raise AliasError("grid is not alias-free for this shell")
    coef = sample.coef_norm()
    grid_norm = math.sqrt(float(np.mean(grid.values**2)))
    return coef, grid_norm


def local_bound_ratio(
    sample: WaveSample, x0, r: float, points_per_axis: int = 32
) -> tuple[float, float, float]:
    """Ratios of squared value/gradient/Hessian at x0 to the local L2 mass
    on the ball of radius r/L, in the eigenfunction scaling: the value
    ratio divides by L^d * integral, the gradient by L^(d+2), the Hessian
    by L^(d+4).  The integral uses a midpoint grid of >= 32 points per
    axis over the bounding cube, masked to the ball."""
    if r <= 0:
        raise ValidationError("r must be positive")
    m = max(32, points_per_axis)
    shell = sample.shell
    d = shell.d
    L = shell.L
    rad = r / L
    x0 = np.asarray(x0, dtype=float)
    axes = [x0[i] - rad + (np.arange(m) + 0.5) * (2.0 * rad / m) for i in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    inside = np.sum((mesh - x0) ** 2, axis=1) <= rad * rad
    cell = (2.0 * rad / m) ** d
    f_vals = eval_points(sample, mesh[inside])
    integral = float(np.sum(f_vals**2) * cell)
    if integral < 1e-30:
        raise DegenerateIntegral("local L2 mass is numerically zero")
    f0 = eval_point(sample, x0)
    g0 = gradient_at(sample, x0)
    h0 = hessian_at(sample, x0)
    ratio_f = f0**2 / (L**d * integral)
    ratio_grad = float(np.sum(g0**2)) / (L ** (d + 2) * integral)
    ratio_hess = float(np.sum(h0**2)) / (L ** (d + 4) * integral)
    return ratio_f, ratio_grad, ratio_hess
