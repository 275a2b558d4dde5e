"""File formats: CSV and binary signals/spectra, map CSV and WMAP, and PGM export.

CSV signals carry a ``t,re,im`` header (``u,re,im`` for spectra) with one
row per sample; the time column must be uniform to within 1e-9 of a step.
Every CSV row, the header too, ends in CRLF, and every value is its Python
``repr``, so written values reload bit for bit, signed zeros included.
The binary format is magic ``WSIG``, a version byte, start/step as 64-bit
floats, the count as a 64-bit unsigned integer, then interleaved (re, im)
64-bit floats, all little-endian.

Time-frequency maps export as ``u,w,re,im`` CSV (row-major over u, then w),
as binary ``WMAP`` (magic, version byte, start/step/count of the u grid and
then of the w grid, then the interleaved (re, im) values in the CSV's row
order, all little-endian) and as 16-bit P5 PGM magnitude images with the
linear scaling factor recorded in a JSON sidecar.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError
from .signals import SampledSignal, UniformGrid
from .windowed import TFMap

_MAGIC = b"WSIG"
_MAP_MAGIC = b"WMAP"
_VERSION = 1
_GRID_FORMAT = "<ddQ"  # start, step, count

#: rows the CSV writers format per write (4,096 values of a map block);
#: keeps a write's memory flat
_CSV_BLOCK_ROWS = 1024
#: how every CSV reader parses fields: no comments, '"' quotes
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"')

#: allowed deviation of loaded sample coordinates from a uniform grid,
#: relative to the step
_UNIFORM_TOL = 1e-9

#: axis magnitude from which the squared points in the transforms' chirps overflow
_AXIS_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


def _checked_grid(path, start: float, step: float, count: int) -> UniformGrid:
    grid = UniformGrid(start, step, count)
    if not max(abs(grid.start), abs(grid.stop)) < _AXIS_LIMIT:
        raise FormatError(f"{path}: axis points too large: their squares overflow")
    return grid


def _grid_from_axis(path, axis_values: np.ndarray) -> UniformGrid:
    n = axis_values.shape[0]
    if n < 2:
        raise FormatError(f"{path}: need at least two samples to define a grid")
    start = float(axis_values[0])
    step = float(axis_values[-1] - axis_values[0]) / (n - 1)
    if not step > 0:
        raise FormatError(f"{path}: axis values must be strictly increasing")
    expected = start + step * np.arange(n)
    dev = float(np.max(np.abs(axis_values - expected)))
    if dev > _UNIFORM_TOL * step:
        raise FormatError(f"{path}: axis is not uniform: max deviation {dev:.3e} "
                          f"exceeds {_UNIFORM_TOL:g} * step")
    return _checked_grid(path, start, step, n)


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _write_csv(path, header: list[str], nrows: int, block_fields):
    """Write ``header`` and ``nrows`` rows as ``csv.writer`` would, a block at a time.

    ``block_fields(rows)`` returns the text columns of the rows in the
    slice ``rows``.  No field needs quoting: every one is a float ``repr``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, nrows, _CSV_BLOCK_ROWS):
            cols = block_fields(slice(lo, min(lo + _CSV_BLOCK_ROWS, nrows)))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def write_signal_csv(path, sig: SampledSignal, axis: str = "t"):
    """Write one sample per row under an ``axis,re,im`` header."""
    pts, vals = sig.grid.points(), sig.values
    _write_csv(path, [axis, "re", "im"], pts.shape[0],
               lambda rows: [_reprs(pts[rows]), _reprs(vals.real[rows]),
                             _reprs(vals.imag[rows])])


def _rejected(line: str, col: int | None = None) -> bool:
    """Whether loadtxt rejects the line, or only its column ``col``."""
    try:
        np.loadtxt([line], usecols=col, **_LOADTXT)
    except ValueError:
        return True
    return False


def _bad_line(path, nfields: int) -> str | None:
    """Why the first line loadtxt rejects fails, by its line number in the
    file (the header is line 1); a second read, made on the error path only."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                fields = line.rstrip("\n").encode("utf-8").split(b",")
            except UnicodeEncodeError:  # an undecodable byte, escaped on reading
                return f"line {lineno} is not UTF-8"
            if lineno == 1 or fields == [b""]:  # loadtxt skips empty lines
                continue
            if len(fields) != nfields:
                return f"line {lineno}: expected {nfields} fields, got {len(fields)}"
            if _rejected(line):  # loadtxt's own parse, so that the two reads agree
                col = next((c for c in range(nfields) if _rejected(line, c)), None)
                if col is not None:
                    return (f"line {lineno}, column {col + 1}: "
                            f"{fields[col].decode()!r} is not a number")


def _read_rows(path, expected_header):
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
            if not line:
                raise FormatError(f"{path}: empty file")
            header = line.rstrip("\n").split(",")
            if [h.strip().strip('"') for h in header] != expected_header:
                raise FormatError(f"{path}: expected header {','.join(expected_header)}, "
                                  f"got {','.join(header)}")
            # a header without rows is reported below; the filters are process-wide,
            # so only loadtxt's warning about it is silenced
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, ndmin=2, **_LOADTXT)
    except ValueError as exc:  # non-numeric field, ragged row, bytes not UTF-8
        reason = _bad_line(path, len(expected_header)) or str(exc).partition("; use")[0]
        raise FormatError(f"{path}: {reason}") from None
    if data.shape[0] == 0:
        raise FormatError(f"{path}: no samples")
    if data.shape[1] != len(expected_header):
        raise FormatError(f"{path}: expected {len(expected_header)} fields")
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite value")
    return data


def _complex_columns(data: np.ndarray) -> np.ndarray:
    """The last two columns as (re, im) of complex values, signed zeros kept."""
    return np.ascontiguousarray(data[:, -2:]).view(np.complex128)[:, 0]


def read_signal_csv(path, axis: str = "t") -> SampledSignal:
    """Load a CSV signal, verifying the header and grid uniformity."""
    data = _read_rows(path, [axis, "re", "im"])
    return SampledSignal(_grid_from_axis(path, data[:, 0]), _complex_columns(data))


def read_spectrum_csv(path) -> SampledSignal:
    return read_signal_csv(path, axis="u")


def _write_bin(path, magic: bytes, grids, values: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<B", _VERSION))
        for g in grids:
            fh.write(struct.pack(_GRID_FORMAT, g.start, g.step, g.count))
        fh.write(np.ascontiguousarray(values, dtype="<c16").data)


def _read_bin(path, magic: bytes, naxes: int):
    """Checked grids and values of a binary file with ``naxes`` grid headers."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    fields = "<" + _GRID_FORMAT[1:] * naxes
    header_bytes = 5 + struct.calcsize(fields)
    if len(raw) < header_bytes:
        raise FormatError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<B", raw, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    axes = struct.unpack_from(fields, raw, 5)
    if len(raw) - header_bytes != 16 * math.prod(axes[2::3]):
        raise FormatError(f"{path}: truncated payload")
    try:
        grids = [_checked_grid(path, *axes[k : k + 3]) for k in range(0, len(axes), 3)]
    except ValueError as exc:  # non-finite start or step, degenerate grid
        raise FormatError(f"{path}: {exc}") from None
    values = np.frombuffer(raw, dtype="<c16", offset=header_bytes)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: non-finite value")
    return grids, values.reshape([g.count for g in grids])


def write_signal_bin(path, sig: SampledSignal):
    """Write the little-endian WSIG binary form."""
    _write_bin(path, _MAGIC, [sig.grid], sig.values)


def read_signal_bin(path) -> SampledSignal:
    (grid,), values = _read_bin(path, _MAGIC, 1)
    return SampledSignal(grid, values)


def read_spectrum_bin(path) -> SampledSignal:
    return read_signal_bin(path)


def write_tfmap_csv(path, tfmap: TFMap):
    """Row-major export over u, then w."""
    nw = tfmap.wgrid.count
    ustr = np.array(_reprs(tfmap.ugrid.points()), dtype=object)
    wstr = np.array(_reprs(tfmap.wgrid.points()), dtype=object)
    flat = tfmap.values.reshape(-1)

    def block_fields(rows):
        k = np.arange(rows.start, rows.stop)
        return [ustr[k // nw].tolist(), wstr[k % nw].tolist(),
                _reprs(flat.real[rows]), _reprs(flat.imag[rows])]

    _write_csv(path, ["u", "w", "re", "im"], flat.shape[0], block_fields)


def read_tfmap_csv(path) -> TFMap:
    data = _read_rows(path, ["u", "w", "re", "im"])
    uvals = np.unique(data[:, 0])
    wvals = np.unique(data[:, 1])
    nu, nw = uvals.shape[0], wvals.shape[0]
    if nu * nw != data.shape[0]:
        raise FormatError(f"{path}: rows do not form a full u x w lattice")
    # exact: a written file repeats the same repr of each grid point
    if not ((data[:, 0].reshape(nu, nw) == uvals[:, None]).all()
            and (data[:, 1].reshape(nu, nw) == wvals).all()):
        raise FormatError(f"{path}: rows are not in row-major order over u, then w")
    ugrid = _grid_from_axis(path, uvals)
    wgrid = _grid_from_axis(path, wvals)
    vals = _complex_columns(data).reshape(nu, nw)
    return TFMap(ugrid, wgrid, vals)


def write_tfmap_bin(path, tfmap: TFMap):
    """Write the little-endian WMAP binary form."""
    _write_bin(path, _MAP_MAGIC, [tfmap.ugrid, tfmap.wgrid], tfmap.values)


def read_tfmap_bin(path) -> TFMap:
    (ugrid, wgrid), values = _read_bin(path, _MAP_MAGIC, 2)
    return TFMap(ugrid, wgrid, values)


def _grid_dict(grid: UniformGrid) -> dict:
    return {"start": grid.start, "step": grid.step, "count": grid.count}


def write_tfmap_pgm(path, tfmap: TFMap) -> dict:
    """16-bit P5 magnitude image, |V| scaled linearly onto [0, 65535].

    The scale factor and grids go to a JSON sidecar at ``<path>.json``.
    Returns the sidecar dictionary.
    """
    mag = np.abs(tfmap.values)
    vmax = float(mag.max())
    scale = 65535.0 / vmax if vmax > 0 else 0.0
    pixels = np.round(mag * scale).astype(">u2")
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())
    sidecar = {
        "schema": 1,
        "scale": scale,
        "max_magnitude": vmax,
        "rows": rows,
        "cols": cols,
        "ugrid": _grid_dict(tfmap.ugrid),
        "wgrid": _grid_dict(tfmap.wgrid),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar
