"""Binary serialization of field grids.

Layout: magic "ARWG", u32 version=1, u32 d, u64 n, u32 M, u64 seed,
u64 trial_index, then M^d little-endian float64 values, last axis fastest.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import IoError, ValidationError
from .field import FieldGrid

MAGIC = b"ARWG"
VERSION = 1
_HEADER = struct.Struct("<4sIIQIQQ")
# The largest ndarray rank (NPY_MAXDIMS in NumPy 2); a header's d is checked
# against it before M**d or the reshape can run on it.
MAX_RANK = 64


def write_grid(path: str, grid: FieldGrid) -> None:
    header = _HEADER.pack(MAGIC, VERSION, grid.d, grid.n, grid.M, grid.seed, grid.trial_index)
    data = np.ascontiguousarray(grid.values, dtype="<f8")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(data.tobytes())
    except OSError as exc:
        raise IoError(str(exc)) from exc


def read_grid(path: str) -> FieldGrid:
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise IoError(f"{path}: truncated header")
            magic, version, d, n, M, seed, trial_index = _HEADER.unpack(raw)
            if magic != MAGIC:
                raise IoError(f"{path}: bad magic {magic!r}")
            if version != VERSION:
                raise IoError(f"{path}: unsupported version {version}")
            body = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if d < 1 or M < 1 or d > MAX_RANK:
        raise ValidationError(
            f"{path}: grid needs d >= 1 and M >= 1, and d <= {MAX_RANK}, got d={d}, M={M}"
        )
    expected = M**d * 8
    if len(body) != expected:
        raise IoError(f"{path}: expected {expected} data bytes, got {len(body)}")
    values = np.frombuffer(body, dtype="<f8").reshape((M,) * d).astype(float)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: grid contains non-finite values")
    values.setflags(write=False)
    return FieldGrid(d=d, n=n, M=M, values=values, seed=seed, trial_index=trial_index)
