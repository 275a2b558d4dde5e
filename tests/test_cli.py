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

from conftest import BINARY_CORRUPTIONS, corrupt_binary, valid_params
from wolct import (
    SampledSignal,
    UniformGrid,
    chirp,
    default_wgrid,
    gaussian,
    modulate,
    rect,
    validate,
    wolct,
)
from wolct.windowed import DEFAULT_W_STRIDE
from wolct.cli import build_parser, main
from wolct.formats import (
    read_signal_bin,
    read_signal_csv,
    read_spectrum_csv,
    read_tfmap_bin,
    read_tfmap_csv,
    write_signal_bin,
    write_signal_csv,
    write_tfmap_pgm,
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
    "csv_huge_axis": (b"t,re,im\n0.0,1.0,0.0\n1e300,1.0,0.0\n", ".csv"),
    "csv_not_utf8": (b"t,re,im\n0.0,1.0,0.0\n\377\376,1.0,0.0\n", ".csv"),
    "csv_header_only": (b"t,re,im\n", ".csv"),
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


BAD_ARGUMENTS = {
    "inverse_count_1": ["transform", "--inverse", "--in", "{spec}",
                        "--span", "3", "--count", "1"],
    "inverse_count_0": ["transform", "--inverse", "--in", "{spec}",
                        "--span", "3", "--count", "0"],
    "inverse_span_negative": ["transform", "--inverse", "--in", "{spec}",
                              "--span", "-3", "--count", "65"],
    "inverse_count_1_config": ["transform", "--inverse", "--in", "{spec}",
                               "--config", "{count_config}"],
    "inverse_span_alone": ["transform", "--inverse", "--in", "{spec}", "--span", "5"],
    "inverse_count_alone": ["transform", "--inverse", "--in", "{spec}", "--count", "64"],
    "convolve_origin_off_lattice": ["convolve", "--in1", "{off}", "--in2", "{off}"],
    "wolct_wstride_0": ["wolct", "--in", "{sig}", "--window", "gaussian:1", "--wstride", "0"],
    "binary_config": ["transform", "--in", "{sig}", "--config", "{binary_config}"],
    "window_gaussian_huge": ["wolct", "--in", "{sig}", "--window", "gaussian:1e300"],
    "window_gaussian_tiny": ["wolct", "--in", "{sig}", "--window", "gaussian:1e-300"],
    "window_gaussian_negative": ["wolct", "--in", "{sig}", "--window", "gaussian:-1"],
    "window_rect_0": ["wolct", "--in", "{sig}", "--window", "rect:0"],
    "transform_check_direct": ["transform", "--check", "--in", "{sig}"],
    "transform_check_b0": ["transform", "--check", "--in", "{sig}",
                           "--params", "1,0,0,1,0,0"],
    "transform_check_inverse": ["transform", "--inverse", "--check", "--in", "{spec}"],
    "transform_check_inverse_fast": ["transform", "--inverse", "--fast", "--check",
                                     "--in", "{spec}"],
    "transform_inverse_fast": ["transform", "--inverse", "--fast", "--in", "{spec}"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_exits_2(tmp_path, case):
    sig = gaussian(UniformGrid.symmetric(0.25, 33), 1.0)
    files = {name: tmp_path / name for name in
             ("sig", "spec", "off", "count_config", "binary_config")}
    write_signal_csv(files["sig"], sig)
    write_signal_csv(files["off"], gaussian(UniformGrid(-0.75, 0.5, 4), 1.0))
    write_signal_csv(files["spec"], sig, axis="u")
    files["count_config"].write_text(json.dumps({"span": 3.0, "count": 1}))
    files["binary_config"].write_bytes(b"\xff\xfe\x00\x01")
    args = [a.format(**files) for a in BAD_ARGUMENTS[case]]
    # a row's own --params comes later and wins
    r = run_cli(args[0], "--params", "2,3,1,2,1,-1", "--out", str(tmp_path / "o.csv"),
                *args[1:])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


#: with b = 1e-11, a 1e150 axis puts kernel phases far past float64 precision;
#: so does u0 = 1e16 on any axis, but not in the chirp operators, which carry
#: no offset phase: (exit code, arguments)
PHASE_COMMANDS = {
    "transform": (2, ["transform", "--in", "{big}"]),
    "transform_fast": (2, ["transform", "--fast", "--in", "{big}"]),
    "wolct": (2, ["wolct", "--in", "{big}", "--window", "gaussian:1"]),
    "convolve": (2, ["convolve", "--in1", "{big}", "--in2", "{big}"]),
    "offset_transform": (2, ["transform", "--in", "{sig}"]),
    "offset_transform_fast": (2, ["transform", "--fast", "--in", "{sig}"]),
    "offset_wolct": (2, ["wolct", "--in", "{sig}", "--window", "gaussian:1"]),
    "offset_convolve": (0, ["convolve", "--in1", "{sig}", "--in2", "{sig}"]),
}


@pytest.mark.parametrize("case", sorted(PHASE_COMMANDS))
def test_phase_past_float64_precision_exits_2(tmp_path, case):
    big, sig = tmp_path / "big.csv", tmp_path / "sig.csv"
    big.write_bytes(b"t,re,im\n0.0,1.0,0.0\n1e150,1.0,0.0\n")
    write_signal_csv(sig, gaussian(UniformGrid.symmetric(0.05, 513), 1.0))
    code, args = PHASE_COMMANDS[case]
    args = [a.format(big=big, sig=sig) for a in args]
    params = "2,3,1,2,1e16,0" if case.startswith("offset") else "1,1e-11,0,1,0,0"
    r = run_cli(*args, f"--params={params}", "--out", str(tmp_path / "o.csv"))
    assert r.returncode == code, r.stderr
    if code:
        assert r.stderr.startswith("error: kernel phase reaches ")
        assert r.stderr.count("\n") == 1


#: true results near 1e310, past the float64 range
HUGE_COMMANDS = {
    "transform": ["transform", "--in", "{sig}"],
    "transform_fast": ["transform", "--fast", "--in", "{sig}"],
    "wolct": ["wolct", "--in", "{sig}", "--window", "gaussian:1e10"],
    "convolve": ["convolve", "--in1", "{sig}", "--in2", "{sig}"],
    "correlate": ["convolve", "--correlate", "--in1", "{sig}", "--in2", "{sig}"],
}


@pytest.mark.parametrize("case", sorted(HUGE_COMMANDS))
def test_result_past_float64_range_exits_2(tmp_path, case):
    sig = tmp_path / "huge.csv"
    sig.write_bytes(b"t,re,im\n0.0,1e300,0.0\n1e10,1e300,0.0\n")
    args = [a.format(sig=sig) for a in HUGE_COMMANDS[case]]
    r = run_cli(*args, "--params=0,1,-1,0,0,0", "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2
    assert r.stderr == ("error: values must be finite; a result past the float64 "
                        "range overflows to inf or nan\n")
    assert not (tmp_path / "o.csv").exists()


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


def run_main(*args):
    """Exit code and stderr of an in-process run; an escaping exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([str(a) for a in args])
    return rc, err.getvalue()


PARAMS = [2, 3, 1, 2, 1, -1]


def test_wolct_format_bin_writes_wmap(tmp_path):
    sig = modulate(gaussian(UniformGrid.symmetric(0.25, 65), 1.0), 0.7)
    write_signal_bin(tmp_path / "sig.wsig", sig)
    rc, err = run_main("wolct", "--params", "2,3,1,2,1,-1", "--format", "bin",
                       "--in", tmp_path / "sig.wsig", "--window", "gaussian:1",
                       "--out", tmp_path / "map.wmap", "--pgm", tmp_path / "map.pgm")
    assert (rc, err) == (0, "")
    assert (tmp_path / "map.wmap").read_bytes()[:4] == b"WMAP"
    got = read_tfmap_bin(tmp_path / "map.wmap")
    want = wolct(sig, gaussian(sig.grid, 1.0), validate(PARAMS),
                 wgrid=default_wgrid(sig.grid, 4))
    assert got.ugrid == want.ugrid and got.wgrid == want.wgrid
    assert np.array_equal(got.values, want.values)
    write_tfmap_pgm(tmp_path / "want.pgm", want)
    assert (tmp_path / "map.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


@pytest.mark.parametrize("case", BINARY_CORRUPTIONS)
def test_corrupt_wsig_exits_2(tmp_path, case):
    write_signal_bin(tmp_path / "sig.wsig", gaussian(UniformGrid.symmetric(0.25, 33), 1.0))
    bad = tmp_path / "bad.wsig"
    bad.write_bytes(corrupt_binary((tmp_path / "sig.wsig").read_bytes(), case))
    rc, err = run_main("transform", "--params", "2,3,1,2,1,-1", "--format", "bin",
                       "--in", bad, "--out", tmp_path / "o.wsig")
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


BAD_CONFIGS = {
    "verify_seed_text": (["verify"], {"seed": "x"}),
    "verify_seed_negative": (["verify"], {"seed": -1}),
    "verify_seed_float": (["verify"], {"seed": 7.5}),
    "params_text_entry": (["transform", "--in", "{sig}"], {"olct_params": ["a", 1, 1, 1, 1, 1]}),
    "params_bool_entry": (["transform", "--in", "{sig}"], {"olct_params": PARAMS[:5] + [True]}),
    "params_nan_entry": (["transform", "--in", "{sig}"], {"olct_params": [float("nan")] + PARAMS[1:]}),
    "params_text": (["transform", "--in", "{sig}"], {"olct_params": "2,3,1,2,1,-1"}),
    "wstride_text": (["wolct", "--in", "{sig}", "--window", "gaussian:1"],
                     {"olct_params": PARAMS, "wstride": "x"}),
    "format_xml": (["wolct", "--in", "{sig}", "--window", "gaussian:1"],
                   {"olct_params": PARAMS, "format": "xml"}),
    "unknown_key": (["transform", "--in", "{sig}"], {"olct_params": PARAMS, "window": 1}),
    "count_text": (["transform", "--inverse", "--in", "{spec}", "--span", "3"],
                   {"olct_params": PARAMS, "count": "x"}),
    "span_huge": (["transform", "--inverse", "--in", "{spec}"],
                  {"olct_params": PARAMS, "span": 1e300, "count": 65}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_value_exits_2(tmp_path, case):
    argv, cfg = BAD_CONFIGS[case]
    files = {"sig": tmp_path / "sig.csv", "spec": tmp_path / "spec.csv"}
    sig = gaussian(UniformGrid.symmetric(0.25, 33), 1.0)
    write_signal_csv(files["sig"], sig)
    write_signal_csv(files["spec"], sig, axis="u")
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    rc, err = run_main(*[a.format(**files) for a in argv], "--config", tmp_path / "cfg.json",
                       "--out", tmp_path / "out")
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_takes_config_params(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"olct_params": [1, 1, 1, 1, 0, 0]}))
    assert run_main("verify", "--config", tmp_path / "cfg.json")[0] == 3


def test_config_format_and_wstride_apply_and_flags_win(tmp_path):
    sig = gaussian(UniformGrid.symmetric(0.25, 65), 1.0)
    write_signal_bin(tmp_path / "sig.wsig", sig)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"olct_params": [1, 1, 1, 1, 0, 0], "format": "bin", "wstride": 8}))
    rc, err = run_main("wolct", "--config", tmp_path / "cfg.json", "--params", "2,3,1,2,1,-1",
                       "--wstride", "16", "--in", tmp_path / "sig.wsig",
                       "--window", "gaussian:1", "--out", tmp_path / "map.wmap")
    assert (rc, err) == (0, "")
    assert read_tfmap_bin(tmp_path / "map.wmap").wgrid == default_wgrid(sig.grid, 16)


def test_wolct_default_stride_is_the_library_default(tmp_path):
    sig = gaussian(UniformGrid.symmetric(0.25, 65), 1.0)
    write_signal_bin(tmp_path / "sig.wsig", sig)
    rc, err = run_main("wolct", "--format", "bin", "--params", "2,3,1,2,1,-1",
                       "--in", tmp_path / "sig.wsig", "--window", "gaussian:1",
                       "--out", tmp_path / "map.wmap")
    assert (rc, err) == (0, "")
    assert read_tfmap_bin(tmp_path / "map.wmap").wgrid == default_wgrid(sig.grid)
    args = build_parser().parse_args(["wolct", "--in", "x", "--window", "w", "--out", "y"])
    assert args.flags["wstride"].help.endswith(f"(default {DEFAULT_W_STRIDE})")


def _json_scalars():
    return st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))


def _non_integers():
    return st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=5))


def _bad_six_lists():
    """Six entries, one of which is not a real number."""
    return st.tuples(st.lists(st.floats(), min_size=5, max_size=5),
                     st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([1])),
                     st.integers(0, 5)).map(lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :])


CONFIG_VALUES = {
    "olct_params": st.one_of(
        st.just(PARAMS),
        valid_params().map(lambda p: list(p.as_tuple())),
        st.lists(st.floats(), max_size=5),
        st.lists(st.floats(), min_size=7, max_size=8),
        _bad_six_lists(),
        _json_scalars(),
    ),
    "seed": _json_scalars(),
    "format": st.one_of(st.sampled_from(["csv", "bin", "xml", "CSV"]), _json_scalars()),
    "span": st.one_of(st.floats(), _json_scalars()),
    # counts stay small: a valid count is the length of the inverse's output
    "count": st.one_of(st.integers(-3, 300), _non_integers()),
    "wstride": st.one_of(st.integers(-3, 10**40), _non_integers()),
    "window": _json_scalars(),  # not a config key
}

CONFIG_COMMANDS = {
    "transform": ["transform", "--in", "{sig}"],
    "inverse": ["transform", "--inverse", "--in", "{spec}"],
    "wolct": ["wolct", "--in", "{sig}", "--window", "gaussian:1"],
    "convolve": ["convolve", "--in1", "{sig}", "--in2", "{sig}"],
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(CONFIG_COMMANDS)),
       # olct_params always, so that most configs get past the parameters
       st.dictionaries(st.sampled_from(sorted(CONFIG_VALUES)), st.just(None))
       .flatmap(lambda keys: st.fixed_dictionaries(
           {k: CONFIG_VALUES[k] for k in {"olct_params", *keys}})))
def test_random_config_exits_0_or_2(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sig = modulate(gaussian(UniformGrid.symmetric(0.25, 33), 1.0), 0.7)
        if cfg.get("format") == "bin":
            files = {"sig": tmp / "sig.wsig", "spec": tmp / "sig.wsig"}
            write_signal_bin(files["sig"], sig)
        else:
            files = {"sig": tmp / "sig.csv", "spec": tmp / "spec.csv"}
            write_signal_csv(files["sig"], sig)
            write_signal_csv(files["spec"], sig, axis="u")
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        rc, err = run_main(*[a.format(**files) for a in CONFIG_COMMANDS[command]],
                           "--config", tmp / "cfg.json", "--out", tmp / "out")
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
