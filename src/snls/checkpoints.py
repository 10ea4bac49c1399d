"""The append-only frame log, CSV exports, and atomic manifest persistence.

Frame log layout (little-endian): one header
    magic "SNLS" | version u32 | n u64 | r_max f64
followed by frame records, each
    t f64 | n complex128 ('<c16', i.e. re f64, im f64)
one record being the numpy dtype [('t', '<f8'), ('u', '<c16', (n,))].

The log is append-only and the reader drops a truncated final record.
Each record is flushed as it is appended and the log is fsync'd once per
_FRAME_BLOCK records and on close: a killed process loses no record, a
power loss at most one block, and a resume recomputes what was lost.
The manifest is written through a temp file plus rename.  The reader
maps the intact records read-only, so a loaded trajectory holds its
frames once, in the page cache; a fresh log is therefore written to a new
file, never over one that may still be mapped.

densities.csv holds one row per stored frame, written with repr(float), so
read_density_csv returns each value with the bits it was written with.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .evolve import _DENSITY_KEYS
from .radial import _FRAME_BLOCK, RadialGrid

__all__ = [
    "TrajectoryFrameWriter",
    "read_trajectory_frames",
    "write_manifest",
    "read_manifest",
    "DENSITY_CSV_COLUMNS",
    "read_density_csv",
]

MAGIC = b"SNLS"
VERSION = 1
_HEADER = struct.Struct("<4sIQd")

# t, then one column per key of evolve._DENSITY_KEYS
DENSITY_CSV_COLUMNS = ("t", "mass", "energy", "Hsc", "Hsc_md", "Hsc_p1", "s_density", "boundary_mass")


def _atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _record_dtype(n: int) -> np.dtype:
    """One frame-log record: time, then the n complex samples."""
    return np.dtype([("t", "<f8"), ("u", "<c16", (n,))])


class TrajectoryFrameWriter:
    """Append-only frame log; one header, then (t, samples) records.

    Every append writes and flushes its record, so a killed process loses
    none; every _FRAME_BLOCK-th append and close() fsync the file (group
    commit), so a power loss loses at most the last _FRAME_BLOCK records,
    which a resume recomputes.
    """

    def __init__(self, path, grid: RadialGrid, append: bool = False):
        self.grid = grid
        self._record = np.zeros((), dtype=_record_dtype(grid.n))
        self._appended = 0
        mode = "ab" if append and Path(path).exists() else "wb"
        if mode == "wb":
            # a new inode: truncating the old one in place would pull the pages from under a live mapping (SIGBUS)
            Path(path).unlink(missing_ok=True)
        self._f = open(path, mode)
        if mode == "wb":
            # made durable by the first fsync; a log cut short of its header counts as no log
            self._f.write(_HEADER.pack(MAGIC, VERSION, grid.n, grid.r_max))
            self._f.flush()

    def append(self, t: float, values: np.ndarray) -> None:
        self._record["t"] = t
        self._record["u"] = values
        self._f.write(self._record)  # its buffer: the record's bytes, not a copy
        self._f.flush()
        self._appended += 1
        if self._appended % _FRAME_BLOCK == 0:
            os.fsync(self._f.fileno())

    def close(self):
        try:
            os.fsync(self._f.fileno())
        finally:
            self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def has_frame_log(path) -> bool:
    """Whether path holds at least a whole frame-log header; a shorter file is a log whose creation was cut."""
    return os.path.isfile(path) and os.path.getsize(path) >= _HEADER.size


def _read_header(path) -> RadialGrid:
    with open(path, "rb") as f:
        buf = f.read(_HEADER.size)
    if len(buf) < _HEADER.size:
        raise ValueError(f"truncated header: {len(buf)} < {_HEADER.size} bytes")
    magic, version, n, r_max = _HEADER.unpack(buf)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a frame log")
    if version != VERSION:
        raise ValueError(f"unsupported frame log version {version}")
    return RadialGrid(r_max=r_max, n=int(n))


def read_trajectory_frames(path):
    """Return (grid, times, frames); a truncated final record is dropped, and a corrupt log is a ValueError.

    frames is a read-only view of the mapped file (rows 8 + 16n bytes
    apart), times a copy.
    """
    grid = _read_header(path)
    dtype = _record_dtype(grid.n)
    count = (os.path.getsize(path) - _HEADER.size) // dtype.itemsize
    if count == 0:  # np.memmap rejects a zero-length map
        return grid, np.empty(0), np.empty((0, grid.n), dtype=np.complex128)
    log = np.memmap(path, dtype=dtype, mode="r", offset=_HEADER.size, shape=(count,))
    times, frames = np.array(log["t"], dtype=float), np.asarray(log["u"])
    finite = np.isfinite(times).all() and all(
        np.isfinite(frames[lo:lo + _FRAME_BLOCK]).all() for lo in range(0, count, _FRAME_BLOCK))
    if not (finite and (np.diff(times) > 0).all()):
        raise ValueError("corrupt frame log: a non-finite time or sample, or times that do not strictly increase")
    return grid, times, frames


def truncate_trajectory_frames(path, n_frames: int) -> None:
    """Drop all records past the first n_frames (resume housekeeping).

    Safe under a live mapping of the same log as long as n_frames is at
    least its record count: only bytes beyond the mapped extent go.
    """
    grid = _read_header(path)
    with open(path, "r+b") as f:
        f.truncate(_HEADER.size + n_frames * _record_dtype(grid.n).itemsize)


def write_manifest(path, obj: dict) -> None:
    _atomic_write_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def read_manifest(path) -> dict:
    with open(path) as f:
        return json.load(f)


def density_csv_header() -> str:
    return ",".join(DENSITY_CSV_COLUMNS)


def density_csv_row(t: float, stats: dict) -> str:
    return ",".join(repr(float(v)) for v in (t, *(stats[k] for k in _DENSITY_KEYS)))


def density_csv_text(times, densities: dict) -> str:
    """A whole densities.csv: the header, then one row per time."""
    rows = (density_csv_row(t, {k: v[m] for k, v in densities.items()}) for m, t in enumerate(times))
    return "\n".join((density_csv_header(), *rows)) + "\n"


def read_density_csv(path) -> tuple[np.ndarray, dict]:
    """(times, densities) of a densities.csv; a ValueError unless it is the header and whole rows.

    A whole row holds one number per column and ends in a newline; a torn
    last line is dropped, as the frame-log reader drops a truncated record.
    """
    lines = Path(path).read_text().split("\n")
    rows = [line.split(",") for line in lines[1:-1]]
    if lines[0] != density_csv_header() or any(len(r) != len(DENSITY_CSV_COLUMNS) for r in rows):
        raise ValueError(f"{path}: not a header followed by whole rows")
    cols = np.array([[float(v) for v in r] for r in rows], dtype=float).reshape(-1, len(DENSITY_CSV_COLUMNS))
    cols = np.ascontiguousarray(cols.T)  # one contiguous series per column
    return cols[0], dict(zip(_DENSITY_KEYS, cols[1:]))
