import contextlib
import io
import json
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolct import SampledSignal, UniformGrid, chirp, gaussian, modulate, rect
from wolct.cli import main
from wolct.formats import (
    read_signal_csv,
    read_spectrum_csv,
    read_tfmap_csv,
    write_signal_bin,
    write_signal_csv,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wolct.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def gauss_csv(tmp_path):
    grid = UniformGrid.symmetric(0.05, 512)
    path = tmp_path / "gauss.csv"
    write_signal_csv(path, gaussian(grid, 1.0))
    return path


def test_transform_fourier_magnitude(tmp_path, gauss_csv):
    out = tmp_path / "spec.csv"
    r = run_cli("transform", "--params", "0,1,-1,0,0,0",
                "--in", str(gauss_csv), "--out", str(out))
    assert r.returncode == 0, r.stderr
    spec = read_spectrum_csv(out)
    k = int(np.argmin(np.abs(spec.grid.points())))
    assert abs(spec.grid.point(k)) < 1e-9
    assert abs(abs(spec.values[k]) - 1.0) < 1e-8


def test_transform_round_trip_file(tmp_path, gauss_csv):
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"
    assert run_cli("transform", "--params", "2,3,1,2,1,-1",
                   "--in", str(gauss_csv), "--out", str(spec)).returncode == 0
    assert run_cli("transform", "--inverse", "--params", "2,3,1,2,1,-1",
                   "--in", str(spec), "--out", str(back)).returncode == 0
    orig = read_signal_csv(gauss_csv)
    rec = read_signal_csv(back)
    rel = np.linalg.norm(rec.values - orig.values) / np.linalg.norm(orig.values)
    assert rel <= 1e-6


def test_transform_fast_check(tmp_path, gauss_csv):
    out = tmp_path / "spec.csv"
    r = run_cli("transform", "--params", "2,3,1,2,1,-1", "--fast", "--check",
                "--in", str(gauss_csv), "--out", str(out))
    assert r.returncode == 0
    assert "max |fast - direct|" in r.stdout
    dev = float(r.stdout.split("=")[1])
    assert dev <= 1e-9


def test_fast_ignores_count(tmp_path, gauss_csv):
    # --count shapes only the inverse output grid; any N takes the fast path
    plain = tmp_path / "plain.csv"
    counted = tmp_path / "counted.csv"
    assert run_cli("transform", "--params", "2,3,1,2,1,-1", "--fast",
                   "--in", str(gauss_csv), "--out", str(plain)).returncode == 0
    r = run_cli("transform", "--params", "2,3,1,2,1,-1", "--fast", "--count", "1000",
                "--in", str(gauss_csv), "--out", str(counted))
    assert r.returncode == 0, r.stderr
    assert counted.read_bytes() == plain.read_bytes()


def test_missing_file_exits_2(tmp_path):
    r = run_cli("transform", "--params", "0,1,-1,0,0,0",
                "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2
    assert r.stderr.strip()


def test_bad_determinant_exits_3(tmp_path, gauss_csv):
    r = run_cli("transform", "--params", "1,1,1,1,0,0",
                "--in", str(gauss_csv), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 3


def test_fast_with_degenerate_b_exits_4(tmp_path, gauss_csv):
    r = run_cli("transform", "--params", "1,0,0,1,0,0", "--fast",
                "--in", str(gauss_csv), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 4


def test_config_file_params(tmp_path, gauss_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"olct_params": [0, 1, -1, 0, 0, 0]}))
    out = tmp_path / "spec.csv"
    r = run_cli("transform", "--config", str(cfg),
                "--in", str(gauss_csv), "--out", str(out))
    assert r.returncode == 0


def test_wolct_chirp_ridge(tmp_path):
    # instantaneous frequency of exp(i t^2 / 2) is t, so at the Fourier
    # parameters the per-column peak frequency must track w
    grid = UniformGrid.symmetric(0.05, 257)
    sig = tmp_path / "chirp.csv"
    write_signal_csv(sig, chirp(grid, 1.0))
    out = tmp_path / "map.csv"
    pgm = tmp_path / "map.pgm"
    r = run_cli("wolct", "--params", "0,1,-1,0,0,0", "--in", str(sig),
                "--window", "gaussian:1.0", "--out", str(out), "--pgm", str(pgm))
    assert r.returncode == 0, r.stderr
    vmap = read_tfmap_csv(out)
    w = vmap.wgrid.points()
    central = np.abs(w) <= 4.0
    ridges = vmap.ugrid.points()[np.argmax(np.abs(vmap.values), axis=0)][central]
    drift = np.diff(ridges)
    assert np.all(drift >= -vmap.ugrid.step)       # monotone up to one bin
    assert ridges[-1] - ridges[0] > 5.0            # and actually drifting
    assert pgm.exists() and (tmp_path / "map.pgm.json").exists()


def test_wolct_zero_signal(tmp_path):
    grid = UniformGrid.symmetric(0.05, 257)
    sig = tmp_path / "zero.csv"
    write_signal_csv(sig, SampledSignal(grid, np.zeros(257)))
    out = tmp_path / "map.csv"
    r = run_cli("wolct", "--params", "0,1,-1,0,0,0", "--in", str(sig),
                "--window", "gaussian:1.0", "--out", str(out))
    assert r.returncode == 0
    vmap = read_tfmap_csv(out)
    assert np.all(vmap.values == 0.0)


def test_wolct_zero_window_exits_5(tmp_path):
    grid = UniformGrid.symmetric(0.05, 257)
    sig = tmp_path / "sig.csv"
    win = tmp_path / "win.csv"
    write_signal_csv(sig, gaussian(grid, 1.0))
    write_signal_csv(win, SampledSignal(grid, np.zeros(257)))
    r = run_cli("wolct", "--params", "0,1,-1,0,0,0", "--in", str(sig),
                "--window", f"file:{win}", "--out", str(tmp_path / "m.csv"))
    assert r.returncode == 5


def test_convolve_rect_triangle(tmp_path):
    grid = UniformGrid.symmetric(0.05, 513)
    f = rect(grid, 1.0)
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    write_signal_csv(p1, f)
    write_signal_csv(p2, f)
    out = tmp_path / "conv.csv"
    r = run_cli("convolve", "--params", "0,1,-1,0,0,0",
                "--in1", str(p1), "--in2", str(p2), "--out", str(out))
    assert r.returncode == 0, r.stderr
    got = read_signal_csv(out)
    # classical convolution oracle for the a = 0 specialization
    want = np.convolve(f.values, f.values) * grid.step
    z = round(grid.start / grid.step)
    assert np.max(np.abs(got.values - want[np.arange(513) - z])) <= 1e-10


def test_correlate_peak_is_energy(tmp_path):
    grid = UniformGrid.symmetric(0.05, 513)
    f = gaussian(grid, 0.8)
    p1 = tmp_path / "f.csv"
    write_signal_csv(p1, f)
    out = tmp_path / "corr.csv"
    r = run_cli("convolve", "--correlate", "--params", "0,1,-1,0,0,0",
                "--in1", str(p1), "--in2", str(p1), "--out", str(out))
    assert r.returncode == 0
    got = read_signal_csv(out)
    energy = np.sum(np.abs(f.values) ** 2) * grid.step
    assert abs(got.values[256] - energy) <= 1e-12


def test_convolve_grid_mismatch_exits_6(tmp_path):
    g1 = UniformGrid.symmetric(0.05, 513)
    g2 = UniformGrid.symmetric(0.05, 257)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_signal_csv(p1, gaussian(g1, 1.0))
    write_signal_csv(p2, gaussian(g2, 1.0))
    r = run_cli("convolve", "--params", "0,1,-1,0,0,0",
                "--in1", str(p1), "--in2", str(p2), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 6


def test_no_params_exits_2(tmp_path, gauss_csv):
    r = run_cli("transform", "--in", str(gauss_csv), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2


def test_config_mirrors_grid_overrides(tmp_path, gauss_csv):
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "olct_params": [2, 3, 1, 2, 1, -1],
        "span": 12.775,
        "count": 512,
    }))
    assert run_cli("transform", "--config", str(cfg),
                   "--in", str(gauss_csv), "--out", str(spec)).returncode == 0
    assert run_cli("transform", "--inverse", "--config", str(cfg),
                   "--in", str(spec), "--out", str(back)).returncode == 0
    orig = read_signal_csv(gauss_csv)
    rec = read_signal_csv(back)
    assert rec.grid.count == orig.grid.count
    rel = np.linalg.norm(rec.values - orig.values) / np.linalg.norm(orig.values)
    assert rel <= 1e-6


def test_verify_bad_params_exits_3():
    r = run_cli("verify", "--params", "1,1,1,1,0,0")
    assert r.returncode == 3


MALFORMED_INPUTS = {
    "wsig_header_cut": (b"WSIG\x01" + struct.pack("<d", -1.6), ".wsig"),
    "csv_nan_sample": (b"t,re,im\n-0.1,1.0,0.0\n0.0,nan,0.0\n0.1,1.0,0.0\n", ".csv"),
    "csv_ragged_row": (b"t,re,im\n-0.1,1.0,0.0\n0.0,1.0\n0.1,1.0,0.0\n", ".csv"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, case):
    raw, suffix = MALFORMED_INPUTS[case]
    path = tmp_path / ("in" + suffix)
    path.write_bytes(raw)
    fmt = "bin" if suffix == ".wsig" else "csv"
    r = run_cli("transform", "--params", "2,3,1,2,1,-1", "--format", fmt,
                "--in", str(path), "--out", str(tmp_path / ("o" + suffix)))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ")


def _valid_files(directory: Path):
    sig = modulate(gaussian(UniformGrid.symmetric(0.25, 33), 1.0), 0.7)
    write_signal_csv(directory / "sig.csv", sig)
    write_signal_bin(directory / "sig.wsig", sig)
    return (directory / "sig.csv").read_text(), (directory / "sig.wsig").read_bytes()


def _mutate_csv(text: str, kind: str, pick: int) -> bytes:
    if kind == "truncate":
        return text[: pick % (len(text) + 1)].encode()
    lines = text.splitlines()
    row = pick % len(lines)
    fields = lines[row].split(",")
    field = (pick // len(lines)) % len(fields)
    if kind == "nan":
        fields[field] = "nan"
    else:
        del fields[field]
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def _mutate_wsig(raw: bytes, kind: str, pick: int) -> bytes:
    if kind == "truncate":
        return raw[: pick % (len(raw) + 1)]
    # fields after the magic and version byte: start, step, count, then samples
    off = 5 + 8 * (pick % ((len(raw) - 5) // 8))
    middle = struct.pack("<d", float("nan")) if kind == "nan" else b""
    return raw[:off] + middle + raw[off + 8 :]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["csv", "bin"]), st.sampled_from(["truncate", "nan", "drop"]),
       st.integers(0, 10**6))
def test_mutated_input_files_exit_0_or_2(fmt, kind, pick):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        text, raw = _valid_files(tmp)
        path = tmp / "mutated"
        path.write_bytes(_mutate_csv(text, kind, pick) if fmt == "csv"
                         else _mutate_wsig(raw, kind, pick))
        err = io.StringIO()
        # an escaping exception would reach the user as a traceback
        with contextlib.redirect_stderr(err):
            rc = main(["transform", "--params", "2,3,1,2,1,-1", "--format", fmt,
                       "--in", str(path), "--out", str(tmp / "out")])
        assert rc in (0, 2)
        assert (rc == 2) == err.getvalue().startswith("error: ")
