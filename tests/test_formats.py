import csv
import json
import struct
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import BINARY_CORRUPTIONS, corrupt_binary
from hypothesis import given, settings, strategies as st

from wolct import FormatError, SampledSignal, TFMap, UniformGrid, gaussian, validate, wolct
from wolct.formats import (
    _CSV_BLOCK_ROWS,
    read_signal_bin,
    read_signal_csv,
    read_spectrum_csv,
    read_tfmap_bin,
    read_tfmap_csv,
    write_signal_bin,
    write_signal_csv,
    write_tfmap_bin,
    write_tfmap_csv,
    write_tfmap_pgm,
)


@pytest.fixture
def sig(rng):
    grid = UniformGrid.symmetric(0.1, 129)
    return SampledSignal(grid, rng.normal(size=129) + 1j * rng.normal(size=129))


def test_csv_round_trip(tmp_path, sig):
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert back.grid.count == sig.grid.count
    assert back.grid.step == pytest.approx(sig.grid.step, rel=1e-15)
    assert np.array_equal(back.values, sig.values)  # repr round-trips floats


def test_csv_header_checked(tmp_path, sig):
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig, axis="u")
    with pytest.raises(FormatError):
        read_signal_csv(path, axis="t")
    spec = read_spectrum_csv(path)
    assert np.array_equal(spec.values, sig.values)


def test_csv_rejects_nonuniform_axis(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n1.0,1.0,0.0\n2.5,1.0,0.0\n")
    with pytest.raises(FormatError):
        read_signal_csv(path)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,re,im\n0.0,one,0.0\n")
    with pytest.raises(FormatError):
        read_signal_csv(path)
    path.write_text("")
    with pytest.raises(FormatError):
        read_signal_csv(path)


def test_csv_grid_errors_name_the_file(tmp_path):
    path = tmp_path / "one_row.csv"
    path.write_text("t,re,im\n0.0,1.0,0.0\n")
    with pytest.raises(FormatError, match="one_row.csv: need at least two samples"):
        read_signal_csv(path)


@pytest.mark.parametrize("raw, where", [
    (b"t,re,im\n0.0,one,0.0\n1.0,1.0,0.0\n", "line 2, column 2: 'one' is not a number"),
    (b"t,re,im\r\n0.0,1.0,0.0\r\n1.0,1.0\r\n", "line 3: expected 3 fields, got 2"),
    (b"t,re,im\r0.0,1.0,0.0\r1.0,1.0\r", "line 3: expected 3 fields, got 2"),
    (b"t,re,im\n0.0,1.0,0.0\n\n1.0,1.0,0.0\n2.0,x,0.0\n", "line 5, column 2: 'x' is not a number"),
    (b"t,re,im\n0.0,1.0,0.0\n\xff\xfe,1.0,0.0\n", "line 3 is not UTF-8"),
], ids=["non-numeric", "short-row", "cr-line-ends", "after-empty-line", "not-utf8"])
def test_csv_row_errors_give_file_line_numbers(tmp_path, raw, where):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(FormatError) as err:
        read_signal_csv(path)
    assert str(err.value) == f"{path}: {where}"


def test_bin_round_trip(tmp_path, sig):
    path = tmp_path / "sig.wsig"
    write_signal_bin(path, sig)
    back = read_signal_bin(path)
    assert back.grid == sig.grid
    assert np.array_equal(back.values, sig.values)
    raw = path.read_bytes()
    assert raw[:4] == b"WSIG"
    assert raw[4] == 1


def test_bin_rejects_corruption(tmp_path, sig):
    path = tmp_path / "sig.wsig"
    write_signal_bin(path, sig)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.wsig"
    bad.write_bytes(b"XSIG" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        read_signal_bin(bad)
    bad.write_bytes(bytes(raw[:-8]))
    with pytest.raises(FormatError):
        read_signal_bin(bad)


def test_tfmap_csv_round_trip(tmp_path):
    grid = UniformGrid.symmetric(0.1, 65)
    vmap = wolct(gaussian(grid, 1.0), gaussian(grid, 0.8),
                 validate((0, 1, -1, 0, 0, 0)))
    path = tmp_path / "map.csv"
    write_tfmap_csv(path, vmap)
    head = path.read_text().splitlines()[0]
    assert head == "u,w,re,im"
    back = read_tfmap_csv(path)
    assert back.ugrid.count == vmap.ugrid.count
    assert back.wgrid.count == vmap.wgrid.count
    assert np.array_equal(back.values, vmap.values)


def test_tfmap_csv_rejects_rows_out_of_order(tmp_path):
    tfmap = TFMap(UniformGrid(0.0, 1.0, 3), UniformGrid(0.0, 1.0, 2),
                  np.arange(6.0).reshape(3, 2))
    path = tmp_path / "map.csv"
    write_tfmap_csv(path, tfmap)
    lines = path.read_bytes().split(b"\r\n")
    lines[1], lines[2] = lines[2], lines[1]
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(FormatError, match="order"):
        read_tfmap_csv(path)


def test_pgm_export(tmp_path):
    grid = UniformGrid.symmetric(0.1, 65)
    vmap = wolct(gaussian(grid, 1.0), gaussian(grid, 0.8),
                 validate((0, 1, -1, 0, 0, 0)))
    path = tmp_path / "map.pgm"
    sidecar = write_tfmap_pgm(path, vmap)
    raw = path.read_bytes()
    header = f"P5\n{vmap.wgrid.count} {vmap.ugrid.count}\n65535\n".encode()
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=">u2").reshape(
        vmap.ugrid.count, vmap.wgrid.count
    )
    assert pixels.max() == 65535  # linear scaling reaches full range
    on_disk = json.loads((tmp_path / "map.pgm.json").read_text())
    assert on_disk == sidecar
    assert sidecar["schema"] == 1
    # scale * max magnitude hits the top pixel value
    assert sidecar["scale"] * sidecar["max_magnitude"] == pytest.approx(65535.0)


def reference_signal_csv(path, sig, axis):
    """The row-by-row writer the block writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis, "re", "im"])
        for x, z in zip(sig.grid.points(), sig.values):
            writer.writerow([repr(float(x)), repr(float(z.real)), repr(float(z.imag))])


def reference_tfmap_csv(path, tfmap):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "w", "re", "im"])
        for i, u in enumerate(tfmap.ugrid.points()):
            for j, w in enumerate(tfmap.wgrid.points()):
                z = tfmap.values[i, j]
                writer.writerow([repr(float(u)), repr(float(w)),
                                 repr(float(z.real)), repr(float(z.imag))])


SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300,
                  float("nan"), float("inf"), float("-inf")]
FINITE_SPECIAL = [x for x in SPECIAL_VALUES if np.isfinite(x)]


@st.composite
def float_arrays(draw, n, finite=False):
    """n floats over many decades with drawn special values spliced in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    extra = st.one_of(st.sampled_from(FINITE_SPECIAL if finite else SPECIAL_VALUES),
                      st.floats(allow_nan=not finite, allow_infinity=not finite))
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), extra), max_size=8)):
        x[i] = v
    return x


@st.composite
def csv_grids(draw, n):
    return UniformGrid(draw(st.floats(-1e6, 1e6)), draw(st.floats(1e-6, 10.0)), n)


def block_sizes():
    """Lengths on both sides of one and two writer blocks."""
    b = _CSV_BLOCK_ROWS
    return st.one_of(st.integers(2, 40), st.integers(b - 2, b + 2),
                     st.integers(2 * b - 1, 2 * b + 1))


@st.composite
def complex_arrays(draw, n, finite=False):
    z = np.empty(n, dtype=np.complex128)  # re + 1j*im would lose signed zeros
    z.real, z.imag = draw(float_arrays(n, finite)), draw(float_arrays(n, finite))
    return z


@st.composite
def tfmaps(draw, finite=False):
    b = _CSV_BLOCK_ROWS
    nw = draw(st.one_of(st.integers(2, 9), st.integers(b - 1, b + 1),
                        st.integers(b + 2, b + 40)))
    nu = draw(st.integers(2, 3 if nw > 9 else 2 * b // nw + 2))
    vals = draw(complex_arrays(nu * nw, finite)).reshape(nu, nw)
    # maps refuse non-finite values; the writer reads only grids and values
    return (TFMap if finite else SimpleNamespace)(
        ugrid=draw(csv_grids(nu)), wgrid=draw(csv_grids(nw)), values=vals)


def _signbits_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_signal_csv_bytes_match_reference_writer(data):
    n = data.draw(block_sizes())
    # signals refuse non-finite samples; the writer reads only grid and values
    sig = SimpleNamespace(grid=data.draw(csv_grids(n)), values=data.draw(complex_arrays(n)))
    axis = data.draw(st.sampled_from(["t", "u"]))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_signal_csv(got, sig, axis=axis)
        reference_signal_csv(want, sig, axis)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=15, deadline=None)
@given(tfmaps())
def test_tfmap_csv_bytes_match_reference_writer(tfmap):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_tfmap_csv(got, tfmap)
        reference_tfmap_csv(want, tfmap)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_csv_writers_reload_bit_for_bit(data):
    n = data.draw(block_sizes())
    sig = SampledSignal(UniformGrid.symmetric(0.1, n),
                        data.draw(complex_arrays(n, finite=True)))
    grid = UniformGrid.symmetric(0.25, 3)
    tfmap = TFMap(grid, UniformGrid(-1.0, 0.5, 5), data.draw(complex_arrays(15, finite=True))
                  .reshape(3, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_signal_csv(path, sig)
        assert _signbits_equal(read_signal_csv(path).values, sig.values)
        write_signal_csv(path, sig, axis="u")
        assert _signbits_equal(read_spectrum_csv(path).values, sig.values)
        write_tfmap_csv(path, tfmap)
        assert _signbits_equal(read_tfmap_csv(path).values, tfmap.values)


def test_tfmap_csv_write_memory_is_flat(tmp_path):
    rng = np.random.default_rng(7)
    tfmap = TFMap(UniformGrid.symmetric(0.025, 1025), UniformGrid(-12.8, 0.1, 256),
                  rng.normal(size=(1025, 256)) + 1j * rng.normal(size=(1025, 256)))
    tracemalloc.start()
    try:
        write_tfmap_csv(tmp_path / "map.csv", tfmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_tfmap_csv_read_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(7)
    tfmap = TFMap(UniformGrid.symmetric(0.025, 257), UniformGrid(-3.2, 0.1, 64),
                  rng.normal(size=(257, 64)) + 1j * rng.normal(size=(257, 64)))
    write_tfmap_csv(tmp_path / "map.csv", tfmap)
    tracemalloc.start()
    try:
        back = read_tfmap_csv(tmp_path / "map.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, tfmap.values)
    assert peak < 8 * tfmap.values.nbytes


@settings(max_examples=20, deadline=None)
@given(tfmaps(finite=True))
def test_tfmap_bin_round_trip_is_exact(tfmap):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.wmap"
        write_tfmap_bin(path, tfmap)
        back = read_tfmap_bin(path)
    assert back.ugrid == tfmap.ugrid and back.wgrid == tfmap.wgrid
    assert _signbits_equal(back.values, tfmap.values)


def test_tfmap_bin_layout(tmp_path):
    ugrid, wgrid = UniformGrid(-1.5, 0.5, 3), UniformGrid(0.25, 2.0, 2)
    vals = np.arange(6).reshape(3, 2) + 1j * np.arange(10, 16).reshape(3, 2)
    write_tfmap_bin(tmp_path / "map.wmap", TFMap(ugrid, wgrid, vals))
    raw = (tmp_path / "map.wmap").read_bytes()
    assert raw[:5] == b"WMAP\x01"
    assert struct.unpack_from("<ddQddQ", raw, 5) == (-1.5, 0.5, 3, 0.25, 2.0, 2)
    body = np.frombuffer(raw[53:], dtype="<f8")
    assert body.tolist() == [0, 10, 1, 11, 2, 12, 3, 13, 4, 14, 5, 15]


@pytest.mark.parametrize("case", BINARY_CORRUPTIONS)
def test_tfmap_bin_rejects_corruption(tmp_path, case):
    grid = UniformGrid.symmetric(0.25, 5)
    write_tfmap_bin(tmp_path / "map.wmap", TFMap(grid, grid, np.ones((5, 5))))
    bad = tmp_path / "bad.wmap"
    bad.write_bytes(corrupt_binary((tmp_path / "map.wmap").read_bytes(), case))
    with pytest.raises(FormatError):
        read_tfmap_bin(bad)
