"""File formats: CSV and binary signals/spectra, map CSV, and PGM export.

CSV signals carry a ``t,re,im`` header (``u,re,im`` for spectra) with one
row per sample; the time column must be uniform to within 1e-9 of a step.
The binary format is magic ``WSIG``, a version byte, start/step as 64-bit
floats, the count as a 64-bit unsigned integer, then interleaved (re, im)
64-bit floats, all little-endian.

Time-frequency maps export as ``u,w,re,im`` CSV (row-major over u, then w)
and as 16-bit P5 PGM magnitude images with the linear scaling factor
recorded in a JSON sidecar.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .olct import OlctSpectrum
from .signals import SampledSignal, UniformGrid
from .windowed import TFMap

_MAGIC = b"WSIG"
_VERSION = 1
_HEADER_BYTES = 4 + 1 + 24  # magic, version, start, step, count

#: allowed deviation of loaded sample coordinates from a uniform grid,
#: relative to the step
_UNIFORM_TOL = 1e-9


def _grid_from_axis(axis_values: np.ndarray) -> UniformGrid:
    n = axis_values.shape[0]
    if n < 2:
        raise FormatError("need at least two samples to define a grid")
    start = float(axis_values[0])
    step = float(axis_values[-1] - axis_values[0]) / (n - 1)
    if not step > 0:
        raise FormatError("axis values must be strictly increasing")
    expected = start + step * np.arange(n)
    dev = float(np.max(np.abs(axis_values - expected)))
    if dev > _UNIFORM_TOL * step:
        raise FormatError(
            f"axis is not uniform: max deviation {dev:.3e} exceeds "
            f"{_UNIFORM_TOL:g} * step"
        )
    return UniformGrid(start, step, n)


def write_signal_csv(path, sig: SampledSignal | OlctSpectrum, axis: str = "t"):
    """Write one sample per row under an ``axis,re,im`` header."""
    pts = sig.grid.points()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, "re", "im"])
        for x, z in zip(pts, sig.values):
            writer.writerow([repr(float(x)), repr(float(z.real)), repr(float(z.imag))])


def _read_rows(path, expected_header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != expected_header:
            raise FormatError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise FormatError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric row") from None
    if not rows:
        raise FormatError(f"{path}: no samples")
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite value")
    return data


def read_signal_csv(path, axis: str = "t") -> SampledSignal:
    """Load a CSV signal, verifying the header and grid uniformity."""
    data = _read_rows(path, [axis, "re", "im"])
    return SampledSignal(_grid_from_axis(data[:, 0]), data[:, 1] + 1j * data[:, 2])


def read_spectrum_csv(path) -> OlctSpectrum:
    sig = read_signal_csv(path, axis="u")
    return OlctSpectrum(sig.grid, sig.values)


def write_signal_bin(path, sig: SampledSignal | OlctSpectrum):
    """Write the little-endian WSIG binary form."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<ddQ", sig.grid.start, sig.grid.step, sig.grid.count))
        inter = np.empty(2 * sig.grid.count, dtype="<f8")
        inter[0::2] = sig.values.real
        inter[1::2] = sig.values.imag
        fh.write(inter.tobytes())


def read_signal_bin(path) -> SampledSignal:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<B", raw, 4)
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    start, step, count = struct.unpack_from("<ddQ", raw, 5)
    body = raw[_HEADER_BYTES:]
    if len(body) != 16 * count:
        raise FormatError(f"{path}: truncated payload")
    inter = np.frombuffer(body, dtype="<f8")
    try:
        return SampledSignal(UniformGrid(start, step, count), inter[0::2] + 1j * inter[1::2])
    except ValueError as exc:  # non-finite or degenerate grid, non-finite samples
        raise FormatError(f"{path}: {exc}") from None


def read_spectrum_bin(path) -> OlctSpectrum:
    sig = read_signal_bin(path)
    return OlctSpectrum(sig.grid, sig.values)


def write_tfmap_csv(path, tfmap: TFMap):
    """Row-major export over u, then w."""
    upts = tfmap.ugrid.points()
    wpts = tfmap.wgrid.points()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "w", "re", "im"])
        for i, u in enumerate(upts):
            for j, w in enumerate(wpts):
                z = tfmap.values[i, j]
                writer.writerow(
                    [repr(float(u)), repr(float(w)),
                     repr(float(z.real)), repr(float(z.imag))]
                )


def read_tfmap_csv(path) -> TFMap:
    data = _read_rows(path, ["u", "w", "re", "im"])
    uvals = np.unique(data[:, 0])
    wvals = np.unique(data[:, 1])
    nu, nw = uvals.shape[0], wvals.shape[0]
    if nu * nw != data.shape[0]:
        raise FormatError(f"{path}: rows do not form a full u x w lattice")
    ugrid = _grid_from_axis(uvals)
    wgrid = _grid_from_axis(wvals)
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(nu, nw)
    return TFMap(ugrid, wgrid, vals)


def _grid_dict(grid: UniformGrid) -> dict:
    return {"start": grid.start, "step": grid.step, "count": grid.count}


def write_tfmap_pgm(path, tfmap: TFMap, sidecar_path=None) -> dict:
    """16-bit P5 magnitude image, |V| scaled linearly onto [0, 65535].

    The scale factor and grids go to a JSON sidecar (default: path + .json).
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
    if sidecar_path is None:
        sidecar_path = str(path) + ".json"
    Path(sidecar_path).write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar
