"""Batch command-line front end.

Subcommands: ``transform`` (forward/inverse, direct or fast), ``wolct``
(time-frequency map with CSV/PGM export), ``verify`` (the identity suite),
and ``convolve`` (chirp convolution/correlation).

Exit codes are a stable contract:

* 0 success (``verify``: every case within tolerance)
* 1 verification failure or unclassified library error
* 2 I/O or file-format error
* 3 parameter determinant violation
* 4 degenerate b together with ``--fast``
* 5 zero window
* 6 grid mismatch

Diagnostics go to stderr; stdout carries data and tables only.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .errors import (
    DegenerateB,
    DeterminantViolation,
    FormatError,
    GridMismatch,
    WolctError,
    ZeroWindow,
)
from . import formats
from .chirpops import olct_convolve, olct_correlate
from .identities import SuiteConfig, render_table, run_suite, suite_report
from .olct import iolct, olct_b0, olct_direct, olct_fast
from .params import OlctParams, validate
from .signals import SampledSignal, UniformGrid, gaussian, rect
from .windowed import default_wgrid, wolct


def _parse_params(text: str) -> OlctParams:
    parts = text.split(",")
    if len(parts) != 6:
        raise FormatError(
            f"--params wants six comma-separated values, got {len(parts)}"
        )
    try:
        vals = [float(x) for x in parts]
    except ValueError:
        raise FormatError(f"--params has a non-numeric entry: {text!r}") from None
    return validate(vals)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    return cfg


def _config(args) -> dict:
    if getattr(args, "config", None) and not hasattr(args, "_config_cache"):
        args._config_cache = _load_config(args.config)
    return getattr(args, "_config_cache", {})


def _setting(args, name, default=None):
    """Flag value if given, else the config file's, else the default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return _config(args).get(name, default)


def _resolve_params(args) -> OlctParams:
    if args.params:
        return _parse_params(args.params)
    raw = _config(args).get("olct_params")
    if raw is not None:
        if not isinstance(raw, list) or len(raw) != 6:
            raise FormatError("config olct_params must be a list of six numbers")
        return validate(raw)
    raise FormatError("no parameters given; use --params or a config file")


def _read_signal(path, fmt: str) -> SampledSignal:
    if fmt == "bin":
        return formats.read_signal_bin(path)
    return formats.read_signal_csv(path)


def _write_gridded(path, obj, fmt: str, axis: str):
    if fmt == "bin":
        formats.write_signal_bin(path, obj)
    else:
        formats.write_signal_csv(path, obj, axis=axis)


def _parse_window(spec: str, grid: UniformGrid) -> SampledSignal:
    kind, _, rest = spec.partition(":")
    if kind == "file":
        if not rest:
            raise FormatError("window spec file: needs a path")
        return formats.read_signal_csv(rest)
    try:
        value = float(rest)
    except ValueError:
        raise FormatError(f"bad window spec {spec!r}") from None
    if kind == "gaussian":
        return gaussian(grid, value)
    if kind == "rect":
        return rect(grid, value)
    raise FormatError(f"unknown window kind {kind!r}; use gaussian:|rect:|file:")


def _add_common(sub):
    sub.add_argument("--params", help="a,b,c,d,u0,w0 (comma-separated)")
    sub.add_argument("--config", help="JSON config mirroring the flags")
    sub.add_argument("--format", choices=("csv", "bin"),
                     help="signal/spectrum file format (default csv)")


def _cmd_transform(args) -> int:
    p = _resolve_params(args)
    fmt = _setting(args, "format", "csv")
    span = _setting(args, "span")
    count = _setting(args, "count")
    if args.inverse:
        spec = (formats.read_spectrum_bin(args.infile) if fmt == "bin"
                else formats.read_spectrum_csv(args.infile))
        tgrid = None
        if span is not None and count is not None:
            tgrid = UniformGrid.symmetric(2.0 * span / (count - 1), count)
        sig = iolct(spec, p, tgrid)
        _write_gridded(args.out, sig, fmt, axis="t")
        return 0

    sig = _read_signal(args.infile, fmt)
    if p.is_b_zero:
        if args.fast:
            raise DegenerateB("fast path undefined for b = 0 parameters")
        out = olct_b0(sig, p)
    elif args.fast:
        out = olct_fast(sig, p)
        if args.check:
            direct = olct_direct(sig, p)
            dev = float(np.max(np.abs(out.values - direct.values)))
            print(f"max |fast - direct| = {dev:.6e}")
    else:
        out = olct_direct(sig, p)
    _write_gridded(args.out, out, fmt, axis="u")
    return 0


def _cmd_wolct(args) -> int:
    p = _resolve_params(args)
    sig = _read_signal(args.infile, _setting(args, "format", "csv"))
    win = _parse_window(args.window, sig.grid)
    wgrid = default_wgrid(sig.grid, int(_setting(args, "wstride", 4)))
    vmap = wolct(sig, win, p, wgrid=wgrid)
    formats.write_tfmap_csv(args.out, vmap)
    if args.pgm:
        formats.write_tfmap_pgm(args.pgm, vmap)
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    seed = _setting(args, "seed")
    if seed is not None:
        kwargs["seed"] = int(seed)
    if args.params:
        kwargs["params"] = _parse_params(args.params).as_tuple()
    config = SuiteConfig(**kwargs)
    reports = run_suite(config)
    print(render_table(reports))
    if args.out:
        payload = json.dumps(suite_report(reports, config), indent=2) + "\n"
        with open(args.out, "w") as fh:
            fh.write(payload)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_convolve(args) -> int:
    p = _resolve_params(args)
    fmt = _setting(args, "format", "csv")
    f = _read_signal(args.in1, fmt)
    g = _read_signal(args.in2, fmt)
    out = olct_correlate(f, g, p) if args.correlate else olct_convolve(f, g, p)
    _write_gridded(args.out, out, fmt, axis="t")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolct",
        description="offset canonical transform toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="forward or inverse transform of a signal file")
    _add_common(tr)
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--inverse", action="store_true")
    tr.add_argument("--fast", action="store_true",
                    help="chirp-FFT path on the induced output grid")
    tr.add_argument("--check", action="store_true",
                    help="with --fast, print the deviation from the direct path")
    tr.add_argument("--span", type=float, help="inverse output grid half-span")
    tr.add_argument("--count", type=int, help="inverse output grid point count")
    tr.set_defaults(fn=_cmd_transform)

    wo = sub.add_parser("wolct", help="time-frequency map of a signal file")
    _add_common(wo)
    wo.add_argument("--in", dest="infile", required=True)
    wo.add_argument("--window", required=True,
                    help="gaussian:SIGMA | rect:HALFWIDTH | file:PATH")
    wo.add_argument("--out", required=True, help="map CSV path")
    wo.add_argument("--pgm", help="optional 16-bit magnitude PGM path")
    wo.add_argument("--wstride", type=int,
                    help="shift-lattice coarsening (default 4)")
    wo.set_defaults(fn=_cmd_wolct)

    ve = sub.add_parser("verify", help="run the identity verification suite")
    _add_common(ve)
    ve.add_argument("--seed", type=int)
    ve.add_argument("--out", help="JSON report path")
    ve.set_defaults(fn=_cmd_verify)

    co = sub.add_parser("convolve", help="chirp convolution or correlation")
    _add_common(co)
    co.add_argument("--in1", required=True)
    co.add_argument("--in2", required=True)
    co.add_argument("--correlate", action="store_true")
    co.add_argument("--out", required=True)
    co.set_defaults(fn=_cmd_convolve)
    return parser


#: exit code of each failure, first match wins, so subclasses come first
_EXIT_CODES = (
    (OSError, 2), (FormatError, 2), (DeterminantViolation, 3), (DegenerateB, 4),
    (ZeroWindow, 5), (GridMismatch, 6), (WolctError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t_start = time.perf_counter()
    try:
        rc = args.fn(args)
    except (OSError, WolctError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    elapsed = time.perf_counter() - t_start
    if getattr(args, "command", "") == "verify":
        print(f"suite wall time: {elapsed:.1f} s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
