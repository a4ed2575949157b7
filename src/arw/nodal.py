"""Nodal topology of sampled fields on periodic grids.

Domains are face-connected sets of same-sign vertices; the zero set is
tracked through mixed cells (grid hypercubes whose 2^d corners carry both
signs).  Domains need only connectivity: `_domains` links the sign grid's
same-sign runs along the last axis (run-based labeling, He, Chao &
Suzuki, 2008) to the runs they touch, across the periodic seams and the
d=2 saddle diagonals too, and labels them in one sparse
connected-components pass.  Zero-set components also need their lifts to
Z^d, for winding and diameters.  `_components` works on the runs of mixed
cells along the last axis that share mixed faces (a d=2 saddle cell's two
segments end one run and start the next), labels in-grid patches of runs
with the same connected-components pass (`_label`, the one csgraph call),
then merges them across the seams in `_merge_patches` by min-label
propagation, one array step per hop, which gives each patch its
component and lift and detects components that wind around the torus
(inconsistent lift).  A run spans one row from its first cell to its
last, so the lifted component boxes behind the diameters reduce over
runs.  A trial's counts build no label grid; only the public counts map
their components back onto the grid.

Each `analyze` pass runs its grid's margins (after the coarse count, on
the first 2M grid) on a second thread while the calling thread counts
that grid, when it has at least `_OVERLAP_CELLS` cells and the process
has two cores to itself; NumPy releases the GIL inside its kernels, and on
smaller grids the two threads mostly contend for it instead.

Counting on a grid is a discretization heuristic: two features closer than
one cell can merge.  The `certified` flag rests on agreement of the
counts under grid doubling, the operational stand-in for continuum
counting, together with a positive vertex margin and the
component/domain consistency gate (`analyze`).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import field as field_module
from . import rng
from .errors import MemoryBudgetExceeded, PerturbationTooLarge, Uncertified, ValidationError
from .field import FieldGrid, WaveSample, _spectrum_rows, eval_grid, sample_from_arrays

# Counts may move by max(1, this fraction of the count) across a grid doubling.
_DRIFT_TOLERANCE = 0.02
# stability_margins synthesizes and reduces the gradient in row blocks of
# about this many cells.
_MARGIN_BLOCK_CELLS = 1 << 15
# analyze overlaps the coarse count and the margins with the fine count
# only from this many finest cells: the two threads contend for the GIL
# between NumPy calls, so small grids lose.  Median analyze time per trial,
# serial -> overlapped (2-core VM, one BLAS thread, 3-5 alternating
# rounds): 96^2 2.2-3.1 -> 3.8-4.1 ms, 288^2 5.4-6.0 -> 6.2-6.7 ms, 384^2
# and 48^3 level, 448^2 9.5-11.5 -> 8.9-10.5 ms, 608^2 18-22 -> 15-16 ms,
# 1088^2 57-64 -> 40-41 ms, 64^3 22-25 -> 17-20 ms, 160^3 207-237 ->
# 150-189 ms.
_OVERLAP_CELLS = 1 << 17


@dataclass(frozen=True)
class SignGrid:
    """Vertex signs of a value grid; exact zeros count as + and are tallied.

    In d=2, `saddle_cells` splits the checkerboard (saddle-straddling)
    cells, once for both counts, by the sign of the cell-center value of
    the multilinear interpolant (the corner mean), as two arrays of sorted
    flat cell indices: `main` cells have v00-v11 matching the center,
    `anti` cells v10-v01.  The matching diagonal links two domain patches,
    and the cell's zero set becomes the two segments that cut off the
    corners of the other diagonal.  It is None in other dimensions.
    """

    d: int
    M: int
    signs: np.ndarray = field(repr=False)  # True where f >= 0
    saddle_cells: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    zero_hits: int = 0


def sign_grid(grid: FieldGrid) -> SignGrid:
    if grid.derivative_tag != ():
        raise ValueError("sign_grid expects a value grid")
    values = grid.values
    if values.shape != (grid.M,) * grid.d:
        raise ValueError(f"grid of shape {values.shape} declared as M={grid.M}, d={grid.d}")
    if not np.all(np.isfinite(values)):
        raise ValueError("grid contains non-finite values")
    signs = values >= 0.0
    signs.setflags(write=False)
    saddle_cells = None
    if grid.d == 2:
        # a checkerboard cell: three of its edges change sign (so the fourth does)
        down = signs != np.roll(signs, -1, 0)
        amb = down & np.roll(down, -1, 1) & (signs != np.roll(signs, -1, 1))
        # the corner sum, in this association order, only where it decides
        # (2-D np.nonzero costs ms per call even on sparse masks)
        cells = np.flatnonzero(amb)
        i, j = divmod(cells, grid.M)
        i1, j1 = (i + 1) % grid.M, (j + 1) % grid.M
        center = (values[i, j] + values[i1, j]) + (values[i, j1] + values[i1, j1])
        on_main = (center >= 0.0) == signs[i, j]
        saddle_cells = (cells[on_main], cells[~on_main])
        for at in saddle_cells:
            at.setflags(write=False)
    return SignGrid(
        d=grid.d,
        M=grid.M,
        signs=signs,
        saddle_cells=saddle_cells,
        zero_hits=int(np.count_nonzero(values == 0.0)),
    )


def _sparse_components(graph, directed):
    """`scipy.sparse.csgraph.connected_components`, imported on the first
    count so that `import arw` loads no SciPy."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(graph, directed=directed)


def _label(near, far, count: int):
    """Connected components of the graph on `count` nodes with the edges
    near[i]-far[i], in one sparse pass: (number, component of each node),
    the components 0-based in order of their smallest node."""
    from scipy.sparse import coo_matrix

    graph = coo_matrix((np.ones(len(near)), (near, far)), shape=(count, count))
    number, group = _sparse_components(graph, directed=False)
    # csgraph does not document its label order
    first = np.full(number, count)
    np.minimum.at(first, group, np.arange(count))
    return number, np.argsort(np.argsort(first))[group]


def _merge_patches(d: int, cells, links):
    """Merge in-grid zero-set patches into periodic components, with the
    lifts `_components` needs for winding and diameters.

    A patch is a set of runs of mixed cells joined inside the grid;
    patches are numbered from 0 in order of their first run and the kernel
    never sees the grid.  Per patch, `cells` is its cell count, a d=2
    saddle cell counting once per segment.  `links` lists array triples
    (pa, pb, rel) declaring lift(pb) = lift(pa) + rel across the periodic
    seams.

    Min-label propagation, one array step per hop over the links in both
    directions: each patch takes the smallest patch it can reach, with the
    lift along the hop that brought it, so it ends at its component's
    first patch, whose lift stays 0.  A component winds around the torus
    iff one of its links disagrees with the final lifts; otherwise every
    path gives the same lifts.

    Returns (count, cells, wraps, comp, lift).  Components are 0-based and
    ordered by their first patch; per component, `cells` counts its cells
    (int64) and `wraps` marks those with no consistent lift.  Per patch,
    `comp` is its component and `lift[:, patch]` its offset in Z^d from
    the component's first patch; `lift` is (d, npatch).
    """
    npatch = len(cells)
    pa, pb, rel = (np.concatenate(part) for part in zip(*links))
    src, dst = np.concatenate([pa, pb]), np.concatenate([pb, pa])
    rel = np.concatenate([rel, -rel]).T
    root = np.arange(npatch)
    lift = np.zeros((d, npatch), dtype=np.int64)
    while True:
        label = root[src]
        best = root.copy()
        np.minimum.at(best, dst, label)
        hop = (label == best[dst]) & (label < root[dst])
        if not hop.any():
            break
        lift[:, dst[hop]] = lift[:, src[hop]] + rel[:, hop]
        root = best
    wraps = np.zeros(npatch, dtype=bool)
    wraps[root[dst[(lift[:, dst] != lift[:, src] + rel).any(axis=0)]]] = True
    first = root == np.arange(npatch)
    comp = (np.cumsum(first) - 1)[root]
    count = int(np.count_nonzero(first))
    cells = np.bincount(comp, weights=cells, minlength=count).astype(np.int64)
    return count, cells, wraps[first], comp, lift


def _domains(sg: SignGrid):
    """count_domains without its label grid, on the sign grid's runs.

    The nodes are the maximal same-sign runs along the last axis, found by
    one full-grid `!=` (column 0 always starts a run).  Two runs on
    neighbouring rows of a leading axis touch when they share a column,
    and every shared column range starts at a run start of one of the two
    rows; so the vertices one row over in both directions from every run
    start, where their sign matches, find every touching same-sign pair
    with one `searchsorted` each, row M-1 meeting row 0.  Each row's last
    run also meets its first across the last axis's seam, and in d=2 each
    saddle cell links the runs at the ends of its matching diagonal.
    Domains need no lifts, so all these pairs go into one
    connected-components pass (`_label`), and the components are numbered
    by their first run.

    Returns (r, volumes, comp, lengths): the 0-based component and the
    length of each run, in raster order.
    """
    d, M = sg.d, sg.M
    signs = sg.signs.ravel()
    size = signs.size
    head = np.empty(size, dtype=bool)
    head[0] = True
    np.not_equal(signs[1:], signs[:-1], out=head[1:])
    head[::M] = True
    starts = np.flatnonzero(head)
    del head
    lengths = np.diff(starts, append=size)
    nrun = len(starts)

    def run_at(sites) -> np.ndarray:
        """Index of the run holding each flat vertex index in `sites`."""
        return np.searchsorted(starts, sites, side="right") - 1

    # same-sign (run, run) pairs; the periodic seams wrap row M-1 to row 0
    runs = np.arange(nrun)
    run_sign = signs[starts]
    pairs = []
    for axis in range(d - 1):
        stride = M ** (d - 1 - axis)  # flat step between neighbouring rows along `axis`
        index = (starts // stride) % M
        for step, edge in ((stride, M - 1), (-stride, 0)):
            sites = starts + step - M * step * (index == edge)  # one row over, at the start
            same = signs[sites] == run_sign
            pairs.append((runs[same], run_at(sites[same])))
    row_first = run_at(np.arange(0, size, M))
    row_last = np.append(row_first[1:], nrun) - 1
    same = run_sign[row_last] == run_sign[row_first]
    pairs.append((row_last[same], row_first[same]))
    if d == 2:
        # saddle cell (i, j) links (i, j)-(i+1, j+1) on `main`, (i+1, j)-(i, j+1) on `anti`
        for cells, corners in zip(sg.saddle_cells, (((0, 0), (1, 1)), ((1, 0), (0, 1)))):
            i, j = divmod(cells, M)
            pairs.append(tuple(run_at((i + di) % M * M + (j + dj) % M) for di, dj in corners))
    r, comp = _label(*(np.concatenate(side) for side in zip(*pairs)), nrun)
    return r, np.bincount(comp, weights=lengths) / float(M**d), comp, lengths


def count_domains(sg: SignGrid) -> tuple[int, np.ndarray, np.ndarray]:
    """Face-connected same-sign regions with periodic wrap.

    In d=2, saddle cells additionally connect the diagonal that matches
    the cell-center sign, so a domain is not split by a neck narrower
    than one cell when the interpolant keeps it connected.  Returns
    (r, volumes, labels); labels are int32, 1-based in order of first
    raster occurrence across both signs, volumes are cell counts * h^d.
    The labels repeat each run's component along the run.
    """
    r, volumes, comp, lengths = _domains(sg)
    labels = np.repeat((comp + 1).astype(np.int32), lengths)
    return r, volumes, labels.reshape(sg.signs.shape)


def _mixed(crossed, axes, mixed=None) -> np.ndarray:
    """True at j when the vertices j + {0,1}^axes (periodic) carry both
    signs, from the edge masks crossed[a] = signs != roll(signs, -1, a):
    corners are mixed iff an edge of a spanning tree of them is crossed,
    so adding axis b gives mixed | roll(mixed, -1, b) | crossed[b].
    `mixed`, when given, is the mask over the axes already spanned."""
    for axis in axes:
        mixed = crossed[axis] if mixed is None else mixed | np.roll(mixed, -1, axis) | crossed[axis]
    return np.zeros_like(crossed[0]) if mixed is None else mixed  # one vertex is never mixed


def _components(sg: SignGrid):
    """count_components without its label grid, on runs of mixed cells.

    Cell j spans the vertices j + {0,1}^d.  Every mask is `_mixed` of the
    per-axis crossing masks, freed before the int32 run-id grid: over the
    leading axes the last-axis faces (base vertex j, between cells
    j - e_{d-1} and j), one step more the mixed cells, over all axes but
    a leading one that axis's crossed faces.  The nodes are the maximal
    runs of mixed cells along the last axis joined through mixed faces: a
    run starts at column 0 or behind an unmixed face, and a d=2 saddle
    cell's first segment ends a run and its second starts the next.  The
    run-id grid maps each crossed leading-axis face to the runs on either
    side (a saddle's second segment is run-id + 1, found by
    `searchsorted`).  `_label` groups runs into in-grid patches, numbered
    by their first run; faces across the row and column seams go to
    `_merge_patches` as links, each (patch, patch) pair once per axis.
    Runs span one row from first cell to last, so the component boxes
    reduce over runs.

    Returns (k, cells, diameters, wraps, comp, starts, lengths): per run,
    in raster order, its 0-based component, first cell (flat index) and
    cell count.
    """
    d, M = sg.d, sg.M
    signs = sg.signs
    crossed = [signs != np.roll(signs, -1, axis) for axis in range(d)]
    face = _mixed(crossed, range(d - 1))
    sites = np.flatnonzero(_mixed(crossed, [d - 1], face))
    faces = [np.flatnonzero(_mixed(crossed, [b for b in range(d) if b != a])) for a in range(d - 1)]
    del crossed  # before the run-id grid
    face = face.reshape(-1, M)
    # a column 0 face joins the row's column M-1 cell to its column 0 cell
    # across the seam; the run breaks there
    wrap = np.flatnonzero(face[:, 0]) * M
    face[:, 0] = False
    # runs opened at each mixed cell: one behind an unmixed face, one more
    # for a saddle cell's second segment
    twin = np.zeros(len(sites), dtype=bool)
    if d == 2:
        main, anti = sg.saddle_cells
        both = np.concatenate(sg.saddle_cells)
        twin[np.searchsorted(sites, both)] = True
    opened = np.add(~face.ravel()[sites], twin, dtype=np.int32)
    run = np.cumsum(opened, dtype=np.int32) - twin - 1  # the run of each cell's first segment
    starts = np.repeat(sites, opened)
    nrun = len(starts)
    lengths = np.bincount(run, minlength=nrun)
    lengths[run[twin] + 1] += 1
    run_of = np.empty(signs.size, dtype=np.int32)
    run_of[sites] = run

    # crossed leading-axis faces link runs on neighbouring rows
    rows, cols, seams = [np.empty(0, np.int32)], [np.empty(0, np.int32)], []  # d=1: none
    for axis, dst in enumerate(faces):
        stride = M ** (d - 1 - axis)
        at_seam = (dst // stride) % M == 0
        src = dst - stride + M * stride * at_seam
        a, b = run_of[src], run_of[dst]
        if d == 2:
            # the center sign hands a saddle cell's +e_0 face to its second
            # segment on `anti`, its -e_0 face to its second segment on `main`
            # (all four edges of a saddle cell change sign: both are in `dst`)
            a[np.searchsorted(dst, (anti + M) % M**2)] += 1
            b[np.searchsorted(dst, main)] += 1
        rows.append(a[~at_seam])
        cols.append(b[~at_seam])
        seams.append((a[at_seam], b[at_seam], axis))
    # the last-axis seam: each row's column M-1 run meets its column 0 run
    a = run_of[wrap + (M - 1)]
    if d == 2:
        # a column M-1 saddle cell's second segment holds its seam face
        a[np.searchsorted(wrap, both[both % M == M - 1] - (M - 1))] += 1
    seams.append((a, run_of[wrap], d - 1))
    del face, faces, run_of  # before csgraph, where the call peaks
    npatch, patch = _label(np.concatenate(rows), np.concatenate(cols), nrun)
    cells = np.bincount(patch, weights=lengths, minlength=npatch)
    step = M * np.eye(d, dtype=np.int64)
    links = []
    for a, b, axis in seams:
        pa, pb = np.divmod(np.unique(patch[a] * npatch + patch[b]), npatch)
        links.append((pa, pb, np.broadcast_to(step[axis], (len(pa), d))))

    k, comp_cells, wraps, comp, lift = _merge_patches(d, cells, links)
    comp, lift = comp[patch], np.take(lift, patch, axis=1)
    # lifted box [lo, hi] of each component, one 1-D reduction per axis;
    # a run's last-axis extent is its first cell to its last
    lo = np.full((d, k), np.iinfo(np.int64).max)
    hi = np.full((d, k), np.iinfo(np.int64).min)
    for axis, coord in enumerate(np.unravel_index(starts, signs.shape)):
        lifted = coord + lift[axis]
        np.minimum.at(lo[axis], comp, lifted)
        np.maximum.at(hi[axis], comp, lifted + (lengths - 1 if axis == d - 1 else 0))
    h = 1.0 / M
    diameters = h * np.sqrt(np.sum((hi - lo + 1).astype(float) ** 2, axis=0))
    diameters[wraps] = 0.5
    return k, comp_cells, diameters, wraps, comp, starts, lengths


def count_components(
    sg: SignGrid,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Components of the mixed-cell set (discrete zero set).

    A cell is mixed iff its 2^d corner vertices carry both signs; mixed
    cells belong to the same component when the zero set crosses their
    shared face (the face is itself sign-mixed).  In d=2, checkerboard
    cells are resolved into two separate zero-curve segments by the
    center sign (marching-squares disambiguation).  Returns
    (k, cells, diameters, wraps, labels); diameters are lifted
    bounding-box diagonals in torus units, with wrapping components
    assigned the lower bound 1/2.  Labels are int32, 1-based in raster
    order of the components' first cells (0 off the zero set); a d=2
    checkerboard cell takes the component of its segment touching the S
    face.  They are `_components`' runs written back onto the grid.
    """
    k, cells, diameters, wraps, comp, starts, lengths = _components(sg)
    # a saddle cell ends one run and starts the next; it keeps the first's label
    shared = np.zeros(len(starts), dtype=bool)
    shared[1:] = starts[1:] == starts[:-1] + lengths[:-1] - 1
    starts, lengths = starts + shared, lengths - shared
    offset = np.cumsum(lengths) - lengths
    cells_of_runs = np.repeat(starts - offset, lengths) + np.arange(lengths.sum())
    labels = np.zeros(sg.signs.size, dtype=np.int32)
    labels[cells_of_runs] = np.repeat(comp + 1, lengths)
    return k, cells, diameters, wraps, labels.reshape(sg.signs.shape)


@dataclass(frozen=True)
class Margins:
    """Vertex dichotomy margins.

    mu is the vertex margin min over vertices of max(|f|, |grad f|/(2 pi L));
    alpha/beta split it so every vertex has |f| > alpha or |grad f| > beta*L
    with slack mu/2.  They certify nothing alone: `analyze` certifies a
    trial by mu together with the gate and the drift test.
    """

    alpha: float
    beta: float
    mu: float


def _gradient_norm_blocks(sample: WaveSample, M: int):
    """Yield (rows, |grad f| on those grid rows) over blocks of about
    _MARGIN_BLOCK_CELLS cells; each block synthesizes only its rows of the
    d first derivatives (`field._spectrum_rows`)."""
    d = sample.shell.d
    derivatives = [_spectrum_rows(sample, M, (axis,)) for axis in range(d)]
    step = max(1, _MARGIN_BLOCK_CELLS // M)
    for start in range(0, M ** (d - 1), step):
        rows = slice(start, start + step)
        (spectrum, finish), *rest = derivatives
        total = np.square(finish(spectrum[rows]))  # 0.0 + x^2 == x^2
        for spectrum, finish in rest:
            total += np.square(finish(spectrum[rows]))
        yield rows, np.sqrt(total, out=total)


def gradient_norm_grid(sample: WaveSample, M: int) -> np.ndarray:
    """|grad f| on the M^d grid, assembled from the row blocks that
    `stability_margins` reduces; equal to the norm of the d derivative
    grids of `eval_grid`."""
    d = sample.shell.d
    out = np.empty((M ** (d - 1), M))
    for rows, gradnorm in _gradient_norm_blocks(sample, M):
        out[rows] = gradnorm
    return out.reshape((M,) * d)


def stability_margins(sample: WaveSample, grid_value: FieldGrid) -> Margins:
    """Margins (alpha, beta) and the vertex margin mu of one value grid.

    mu = min over vertices of max(|f|, |grad f| / (2 pi L)) is reduced
    over row blocks of the grid: each block synthesizes only its rows of
    the d first derivatives (`field._spectrum_rows`), so no derivative or
    |grad f| grid is built.  The minimum of the block minima is exact.
    """
    if grid_value.derivative_tag != ():
        raise ValueError("stability_margins expects a value grid")
    shell = sample.shell
    L = shell.L
    M = grid_value.M
    values = grid_value.values
    if values.shape != (M,) * shell.d:
        raise ValueError(f"grid of shape {values.shape} for a d={shell.d} sample at M={M}")
    values = values.reshape(-1, M)
    lows = []
    for rows, scaled in _gradient_norm_blocks(sample, M):
        scaled /= 2.0 * np.pi * L
        lows.append(np.maximum(np.abs(values[rows]), scaled, out=scaled).min())
    mu = float(np.min(lows))
    return Margins(alpha=mu / 2.0, beta=np.pi * mu, mu=mu)


@dataclass(frozen=True)
class NodalSummary:
    """Counts and geometry of one field's nodal picture on its finest grid."""

    k: int
    r: int
    domain_volumes: np.ndarray = field(repr=False)
    component_diameters: np.ndarray = field(repr=False)
    component_wraps: np.ndarray = field(repr=False)
    alpha: float = 0.0
    beta: float = 0.0
    certified: bool = False
    refinement_levels: int = 0
    zero_hits: int = 0
    M: int = 0
    mu: float = 0.0


def _count(value: FieldGrid) -> NodalSummary:
    """Counts and geometry of one grid, before margins and certification."""
    sg = sign_grid(value)
    r, volumes, *_ = _domains(sg)
    k, _, diameters, wraps, *_ = _components(sg)
    return NodalSummary(
        k=k,
        r=r,
        domain_volumes=volumes,
        component_diameters=diameters,
        component_wraps=wraps,
        zero_hits=sg.zero_hits,
        M=value.M,
    )


def _coarse(value: FieldGrid, M: int) -> tuple[int, int]:
    """(k, r) of the M grid, read from the 2M grid's even-index vertices."""
    coarse = _count(replace(value, M=M, values=value.values[(slice(None, None, 2),) * value.d]))
    return coarse.k, coarse.r


def _spare_core() -> bool:
    """True when this process has a core to itself beyond its share: a
    pool worker of `experiments.run_trials` shares the cores it may run on
    with the pool's other workers."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cores // field_module._budget_shares >= 2


def _mu_floor(sample: WaveSample) -> float:
    # synthesis noise scale: treat vertex margins at rounding level as zero.
    # eval_grid's two last-axis paths (irfft, or the product with a table of
    # unit-bin irffts when 16 * bins <= M) agree to about 1e-15 relative.
    b1 = 2.0 * np.pi * sample.shell.L * sample.coeff_l1_bound()
    return 1e-10 * max(1.0, b1)


def _drift_ok(prev: tuple[int, int], cur: tuple[int, int]) -> bool:
    budget = max(1, math.ceil(_DRIFT_TOLERANCE * max(cur)))
    return abs(cur[0] - prev[0]) <= budget and abs(cur[1] - prev[1]) <= budget


def _settled(history: list[tuple[int, int]]) -> bool:
    return len(history) >= 3 and history[-1] == history[-2] == history[-3]


def analyze(sample: WaveSample, M: int, auto_refine: bool = False) -> NodalSummary:
    """Full nodal pipeline: signs, domains, components, margins.

    One refinement loop.  The first grid is 2M, or M when the memory
    budget refuses 2M.  Every pass counts its grid and, beside that count,
    runs the other stages in this order: on the first 2M grid the M count,
    read from its even-index vertices through a strided view, then the
    margins of the pass's grid, which reduce row blocks of its gradient
    with no derivative grid.  The loop stops after one pass; with
    `auto_refine` it doubles the grid until (k, r) are unchanged for two
    consecutive refinements or the budget refuses the next doubling.  The
    summary reports the counts, geometry and margins of the finest grid,
    but keeps no grid.

    The other stages run on one worker thread while the calling thread
    counts, when the pass's grid has at least `_OVERLAP_CELLS` cells and
    the process has two cores to itself: its CPU affinity divided by the
    pool workers that share it (`field._budget_shares`); otherwise they
    run in order on the calling thread.  The thread is joined before the
    next pass, also when a stage raises, so none outlives the call; the
    summary is the same either way.

    Certification is heuristic, not a proof.  A summary is certified when
    all of these hold: the vertex margin is positive (above FFT noise), the
    component/domain counts satisfy the consistency gate
    r - 1 <= k <= r + d - 1, and the counts are stable under refinement:
    unchanged over the last two doublings with `auto_refine`, otherwise
    moved by at most max(1, _DRIFT_TOLERANCE * count) across the one
    doubling.  A trial whose memory budget refuses a doubling that test
    needs is never certified.  The gate constrains only d >= 3: in d=2 the
    counts always satisfy r = k + 1 - [some component wraps] (Jordan
    curves on the torus), so there certification rests on the margin and
    the drift test.  Degenerate fields yield certified=False, never an
    error.
    """
    history = []
    try:
        value = eval_grid(sample, 2 * M)
    except MemoryBudgetExceeded:
        value = eval_grid(sample, M)
    while True:
        stages = [lambda: _coarse(value, M)] if value.M == 2 * M and not history else []
        stages.append(lambda: stability_margins(sample, value))
        if value.values.size >= _OVERLAP_CELLS and _spare_core():
            # the pool's thread is joined when the block exits, also on error
            with ThreadPoolExecutor(max_workers=1) as pool:
                side = pool.submit(lambda: [stage() for stage in stages])
                summary = _count(value)
                *done, margins = side.result()
        else:
            *done, margins = [stage() for stage in stages]
            summary = _count(value)
        history += [*done, (summary.k, summary.r)]
        if not auto_refine or _settled(history):
            break
        try:
            value = eval_grid(sample, 2 * value.M)
        except MemoryBudgetExceeded:
            break
    stabilized = _settled(history) if auto_refine else len(history) == 2 and _drift_ok(*history)

    gate = summary.r - 1 <= summary.k <= summary.r + sample.shell.d - 1
    certified = gate and stabilized and margins.mu > _mu_floor(sample)
    return replace(
        summary,
        alpha=margins.alpha,
        beta=margins.beta,
        certified=bool(certified),
        refinement_levels=len(history) - 1,
        mu=margins.mu,
    )


def bessel_first_zero(nu: float) -> float:
    """First positive zero of the Bessel function J_nu, by bracketed
    root-finding (J_nu is positive on (0, j_{nu,1}))."""
    from scipy import special
    from scipy.optimize import brentq

    x = max(nu, 0.0) + 0.5
    step = 0.5
    while special.jv(nu, x) > 0:
        x += step
    return float(brentq(lambda t: special.jv(nu, t), x - step, x, xtol=1e-12))


def faber_krahn_constant(d: int) -> float:
    """c_d = vol(unit ball) * (j_{d/2-1,1} / (2 pi))^d: the volume of the
    ball whose first Dirichlet eigenvalue is 4 pi^2."""
    j1 = bessel_first_zero(d / 2.0 - 1.0)
    ball = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return ball * (j1 / (2.0 * math.pi)) ** d


def faber_krahn_check(summary: NodalSummary, d: int, n: int) -> tuple[float, float, bool]:
    """Smallest domain volume against the eigenvalue ball bound c_d * n^(-d/2);
    the 0.8 factor absorbs grid discretization."""
    if not summary.certified:
        raise Uncertified("faber_krahn_check requires a certified summary")
    bound = faber_krahn_constant(d) * float(n) ** (-d / 2.0)
    min_vol = float(np.min(summary.domain_volumes))
    return min_vol, bound, bool(min_vol >= 0.8 * bound)


@dataclass(frozen=True)
class PerturbationResult:
    n_before: int
    n_after: int
    diam_shifts: np.ndarray  # diam_before - diam_after per matched component
    matched: int
    alpha: float
    beta: float
    grid_slack: float  # 2 h sqrt(d) at the matching grid


def perturb_and_compare(
    sample: WaveSample,
    perturbation_scale: float,
    perturb_seed: int,
    M: int,
) -> PerturbationResult:
    """Add a small random perturbation from the same eigenspace and compare
    nodal components.

    The perturbation g is drawn from the (perturb_seed, trial_index)
    stream and rescaled to L2 norm `perturbation_scale`; its sup norms are
    verified on the grid against alpha/2 and beta*L/2 before comparing.
    Components are matched by overlap of their mixed-cell sets.
    """
    if not 0.0 <= perturbation_scale < math.inf:
        raise ValidationError(f"perturbation scale {perturbation_scale!r} is not in [0, inf)")
    base = analyze(sample, M)
    if not base.certified:
        raise Uncertified("base sample is not certified")
    alpha, beta = base.alpha, base.beta
    shell = sample.shell
    L = shell.L

    ga, gb = rng.normal_pairs(perturb_seed, sample.trial_index, shell.half_points.shape[0])
    raw = sample_from_arrays(shell, ga, gb)
    raw_norm = raw.coef_norm()
    scale = perturbation_scale / raw_norm if raw_norm > 0 else 0.0
    g = sample_from_arrays(shell, ga * scale, gb * scale)

    sup_g = float(np.max(np.abs(eval_grid(g, base.M).values)))
    sup_grad_g = max(float(block.max()) for _, block in _gradient_norm_blocks(g, base.M))
    if sup_g >= alpha / 2.0 or sup_grad_g >= beta * L / 2.0:
        raise PerturbationTooLarge(
            f"sup|g|={sup_g:.3g} vs alpha/2={alpha / 2:.3g}, "
            f"sup|grad g|={sup_grad_g:.3g} vs beta*L/2={beta * L / 2:.3g}"
        )

    perturbed = sample_from_arrays(
        shell, np.asarray(sample.a) + ga * scale, np.asarray(sample.b) + gb * scale
    )
    # same shell, M and budget: both analyses end on the same grid, whose
    # deterministic recount gives the labels behind their diameters
    pert = analyze(perturbed, M)
    lab_b, lab_a = (
        count_components(sign_grid(eval_grid(s, base.M)))[4].ravel() for s in (sample, perturbed)
    )
    both = (lab_b > 0) & (lab_a > 0)
    pair_ids = lab_b[both].astype(np.int64) * (pert.k + 1) + lab_a[both]
    uniq, counts = np.unique(pair_ids, return_counts=True)
    overlap_b, overlap_a = np.divmod(uniq, pert.k + 1)
    # each base component takes the perturbed one sharing the most mixed
    # cells, the smaller perturbed id on a tie; shifts in base-id order
    order = np.lexsort((overlap_a, -counts, overlap_b))
    bid, first = np.unique(overlap_b[order], return_index=True)
    aid = overlap_a[order][first]
    shifts = base.component_diameters[bid - 1] - pert.component_diameters[aid - 1]
    h = 1.0 / base.M
    return PerturbationResult(
        n_before=base.k,
        n_after=pert.k,
        diam_shifts=shifts.astype(float),
        matched=int(bid.size),
        alpha=alpha,
        beta=beta,
        grid_slack=2.0 * h * math.sqrt(shell.d),
    )
