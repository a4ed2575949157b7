"""Independent oracles for the test suite.

These deliberately avoid the library's own code paths: counts come from
plain box scans, topology from a pure-Python BFS flood fill, and integrals
from Monte Carlo.  Slow is fine; independent is the point.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np


def box_counts(d: int, n_max: int) -> np.ndarray:
    """counts[n] = #{v in Z^d : |v|^2 = n} by scanning the whole box."""
    K = math.isqrt(n_max)
    axis = np.arange(-K, K + 1, dtype=np.int64)
    counts = np.zeros(n_max + 1, dtype=np.int64)
    if d == 1:
        norms = axis * axis
        np.add.at(counts, norms[norms <= n_max], 1)
        return counts
    inner = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
    inner_n = np.einsum("ij,ij->i", inner, inner)
    for x in axis:
        tot = inner_n + x * x
        sel = tot <= n_max
        counts += np.bincount(tot[sel], minlength=n_max + 1)
    return counts


def main_mask(sg) -> np.ndarray:
    """The `main` checkerboard cells of a d=2 sign grid, which it keeps as
    sorted flat cell indices, as the M x M mask the d=2 flood fills take."""
    mask = np.zeros(sg.signs.shape, dtype=bool)
    mask.flat[sg.saddle_cells[0]] = True
    return mask


def _cell_faces(signs: np.ndarray, i: int, j: int) -> dict[str, bool]:
    M0, M1 = signs.shape
    s00 = signs[i, j]
    s10 = signs[(i + 1) % M0, j]
    s01 = signs[i, (j + 1) % M1]
    s11 = signs[(i + 1) % M0, (j + 1) % M1]
    return {
        "E": s10 != s11,
        "W": s00 != s01,
        "N": s01 != s11,
        "S": s00 != s10,
        "mixed": not (s00 == s10 == s01 == s11),
        "amb": (s00 == s11) and (s10 == s01) and (s00 != s10),
        "s00": s00,
    }


def _cell_segments(signs: np.ndarray, main: np.ndarray, i: int, j: int):
    """Zero-curve segments of one cell as lists of incident face names.
    `main` marks the checkerboard cells whose center sign matches s00; a
    checkerboard cell lists its segment touching the S face first."""
    faces = _cell_faces(signs, i, j)
    if not faces["mixed"]:
        return []
    if not faces["amb"]:
        return [[name for name in ("E", "W", "N", "S") if faces[name]]]
    if main[i, j]:
        return [["S", "E"], ["W", "N"]]
    return [["W", "S"], ["E", "N"]]


def flood_fill_components(signs: np.ndarray, main: np.ndarray):
    """Zero-set components of a d=2 sign grid: BFS on marching-squares
    segments, tracking each segment's lifted cell coordinate in Z^2.

    Returns (k, segments, widths, wraps, labels).  Components are numbered
    in raster order of their cells, and within a checkerboard cell its
    segment touching the S face comes first.  `segments[c]` counts the
    component's segments, `widths` are its lifted bounding-box extents in
    cells, a component wraps when two paths give one segment different
    lifts, and `labels` gives each mixed cell the 1-based component of its
    S-touching segment (of its only segment, if it has one).
    """
    M0, M1 = signs.shape
    segments: dict[tuple[int, int], list[list[str]]] = {}
    for i in range(M0):
        for j in range(M1):
            segs = _cell_segments(signs, main, i, j)
            if segs:
                segments[(i, j)] = segs

    def seg_with_face(cell, name):
        for idx, seg in enumerate(segments.get(cell, [])):
            if name in seg:
                return idx
        return None

    opposite = {"E": "W", "W": "E", "N": "S", "S": "N"}
    step = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}
    comp_of: dict[tuple[int, int, int], int] = {}
    lift: dict[tuple[int, int, int], tuple[int, int]] = {}
    sizes, widths, wraps = [], [], []
    for cell, segs in segments.items():
        for idx in range(len(segs)):
            start = (cell[0], cell[1], idx)
            if start in comp_of:
                continue
            comp = len(sizes)
            comp_of[start] = comp
            lift[start] = cell
            lo, hi = list(cell), list(cell)
            size, wrapped = 1, False
            queue = deque([start])
            while queue:
                node = queue.popleft()
                ci, cj, cidx = node
                for name in segments[(ci, cj)][cidx]:
                    di, dj = step[name]
                    nb = ((ci + di) % M0, (cj + dj) % M1)
                    nidx = seg_with_face(nb, opposite[name])
                    if nidx is None:
                        continue
                    other = (nb[0], nb[1], nidx)
                    lifted = (lift[node][0] + di, lift[node][1] + dj)
                    if other not in comp_of:
                        comp_of[other] = comp
                        lift[other] = lifted
                        lo = [min(a, b) for a, b in zip(lo, lifted)]
                        hi = [max(a, b) for a, b in zip(hi, lifted)]
                        size += 1
                        queue.append(other)
                    elif lift[other] != lifted:
                        wrapped = True
            sizes.append(size)
            widths.append([b - a + 1 for a, b in zip(lo, hi)])
            wraps.append(wrapped)

    labels = np.zeros(signs.shape, dtype=np.int64)
    for i, j in segments:
        labels[i, j] = comp_of[(i, j, 0)] + 1
    return (
        len(sizes),
        np.array(sizes, dtype=np.int64),
        np.array(widths, dtype=np.int64).reshape(-1, 2),
        np.array(wraps, dtype=bool),
        labels,
    )


def flood_fill_domains(signs: np.ndarray, main: np.ndarray):
    """Same-sign regions of a d=2 sign grid: BFS over vertices with face
    adjacency, periodic wrap, and the diagonal saddle links matching the
    center sign (v00-v11 on `main` checkerboard cells, v10-v01 on the
    others).  Returns (count, labels): labels are 1-based in order of first
    raster occurrence, since the BFS starts from vertices in raster order."""
    M0, M1 = signs.shape
    diagonals: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(M0):
        for j in range(M1):
            faces = _cell_faces(signs, i, j)
            if not faces["amb"]:
                continue
            if main[i, j]:
                a, b = (i, j), ((i + 1) % M0, (j + 1) % M1)
            else:
                a, b = ((i + 1) % M0, j), (i, (j + 1) % M1)
            diagonals.setdefault(a, []).append(b)
            diagonals.setdefault(b, []).append(a)

    labels = np.zeros(signs.shape, dtype=np.int64)
    count = 0
    for i in range(M0):
        for j in range(M1):
            if labels[i, j]:
                continue
            count += 1
            sign = signs[i, j]
            queue = deque([(i, j)])
            labels[i, j] = count
            while queue:
                ci, cj = queue.popleft()
                neighbors = [
                    ((ci + 1) % M0, cj),
                    ((ci - 1) % M0, cj),
                    (ci, (cj + 1) % M1),
                    (ci, (cj - 1) % M1),
                ] + diagonals.get((ci, cj), [])
                for ni, nj in neighbors:
                    if not labels[ni, nj] and signs[ni, nj] == sign:
                        labels[ni, nj] = count
                        queue.append((ni, nj))
    return count, labels


def mc_sphere_cosine_average(d: int, r: float, samples: int, seed: int) -> tuple[float, float]:
    """(estimate, standard error) of the sphere average of cos(2 pi r zeta_1)
    by Monte Carlo over uniform sphere points."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    vals = np.cos(2.0 * np.pi * r * z[:, 0])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


def chi_square_tail_bound(dof: int, threshold: float) -> float:
    """P{chi^2_dof > threshold} for even dof, by the exact finite sum
    e^(-x/2) * sum_{k<dof/2} (x/2)^k / k!."""
    assert dof % 2 == 0
    x = threshold / 2.0
    term = math.exp(-x)
    total = term
    for k in range(1, dof // 2):
        term *= x / k
        total += term
    return total


def _periodic_flood(shape, nodes, steps):
    """BFS on the periodic grid of `shape`, tracking lifts to Z^d.

    `nodes` lists native index tuples in raster order; `steps(node)` lists
    the unit moves (axis, +-1) along which `node` is linked.  Returns
    (labels, wraps, widths): labels are 1-based in order of first raster
    occurrence (0 = not a node), a component wraps when two paths give one
    node different lifts, and widths are lifted bounding-box extents.
    """
    labels = np.zeros(shape, dtype=np.int64)
    lift: dict[tuple, tuple] = {}
    wraps: list[bool] = []
    widths: list[list[int]] = []
    for start in nodes:
        if labels[start]:
            continue
        comp = len(wraps) + 1
        labels[start] = comp
        lift[start] = start
        lo, hi = list(start), list(start)
        wrapped = False
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for axis, step in steps(node):
                lifted = list(lift[node])
                lifted[axis] += step
                nb = tuple(c % m for c, m in zip(lifted, shape))
                if labels[nb] == 0:
                    labels[nb] = comp
                    lift[nb] = tuple(lifted)
                    lo = [min(a, b) for a, b in zip(lo, lifted)]
                    hi = [max(a, b) for a, b in zip(hi, lifted)]
                    queue.append(nb)
                elif lift[nb] != tuple(lifted):
                    wrapped = True
        wraps.append(wrapped)
        widths.append([b - a + 1 for a, b in zip(lo, hi)])
    return labels, np.array(wraps, dtype=bool), np.array(widths, dtype=np.int64).reshape(-1, len(shape))


def flood_fill_domains_nd(signs: np.ndarray):
    """Same-sign vertex regions under periodic face adjacency, any d
    (no saddle links, as in d >= 3).  Returns `_periodic_flood`'s triple."""
    shape = signs.shape
    d = len(shape)

    def steps(node):
        out = []
        for axis in range(d):
            for step in (1, -1):
                nb = list(node)
                nb[axis] = (nb[axis] + step) % shape[axis]
                if signs[tuple(nb)] == signs[node]:
                    out.append((axis, step))
        return out

    nodes = [tuple(int(c) for c in idx) for idx in np.ndindex(shape)]
    return _periodic_flood(shape, nodes, steps)


def _signs_at(signs: np.ndarray, base, axes) -> set[bool]:
    """Signs of the vertices base + {0,1}^axes (periodic)."""
    shape = signs.shape
    seen = set()
    for bits in itertools.product((0, 1), repeat=len(axes)):
        v = list(base)
        for axis, bit in zip(axes, bits):
            v[axis] += bit
        seen.add(bool(signs[tuple(c % m for c, m in zip(v, shape))]))
    return seen


def flood_fill_components_nd(signs: np.ndarray):
    """Zero-set components for d >= 3: mixed cells (corners of both signs),
    glued across a shared face exactly when the face's own vertices carry
    both signs.  Cell j spans vertices j + {0,1}^d.  Returns
    `_periodic_flood`'s triple over cells."""
    shape = signs.shape
    d = len(shape)
    every = tuple(range(d))

    def crossed(cell, axis):
        # face between `cell` and `cell + e_axis`
        base = list(cell)
        base[axis] += 1
        return len(_signs_at(signs, base, [a for a in every if a != axis])) == 2

    def steps(cell):
        out = []
        for axis in range(d):
            if crossed(cell, axis):
                out.append((axis, 1))
            below = list(cell)
            below[axis] = (below[axis] - 1) % shape[axis]
            if crossed(tuple(below), axis):
                out.append((axis, -1))
        return out

    nodes = [
        tuple(int(c) for c in idx)
        for idx in np.ndindex(shape)
        if len(_signs_at(signs, idx, every)) == 2
    ]
    return _periodic_flood(shape, nodes, steps)


def full_spectrum_grid(shell, a, b, M: int, derivative=()) -> np.ndarray:
    """f (or one derivative) on the M^d grid from the whole complex M^d
    spectrum and one inverse `ifftn`: no pruning, no real transform."""
    lam = shell.half_points.astype(np.int64)
    amp = (np.asarray(a) - 1j * np.asarray(b)) * (0.5 * math.sqrt(2.0 / shell.dim_HL))
    for axis in derivative:
        amp = amp * (2j * math.pi * lam[:, axis])
    spectrum = np.zeros((M,) * shell.d, dtype=np.complex128)
    np.add.at(spectrum, tuple((lam % M).T), amp)
    np.add.at(spectrum, tuple((-lam % M).T), np.conj(amp))
    return np.fft.ifftn(spectrum, norm="forward").real
