"""Batch command-line front end.

Subcommands: ``transform`` (forward/inverse, direct or fast), ``wolct``
(time-frequency map with CSV or WMAP and PGM export), ``verify`` (the
identity suite), and ``convolve`` (chirp convolution/correlation).
``--format bin`` reads WSIG signals and writes WSIG signals or WMAP maps.

``--config`` names a JSON object that fills the flags not given on the
command line.  Each value passes its flag's own type and choices checks;
a bad value or an unknown key is a format error.

Exit codes are a stable contract:

* 0 success (``verify``: every case within tolerance)
* 1 verification failure or unclassified library error
* 2 I/O or file-format error, a ``convolve`` grid whose origin is off its
  sample lattice, a kernel phase past float64 precision, or a result past
  the float64 range (nan or inf)
* 3 parameter determinant violation
* 4 degenerate b (b = 0) on any path but the plain forward ``transform``
* 5 zero window
* 6 grid mismatch

Diagnostics go to stderr; stdout carries data and tables only.  A failure
prints exactly one ``error:`` line: numpy's overflow and invalid-value
warnings are silenced while a command runs, since the result check reports
them as the error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import (
    DegenerateB,
    DeterminantViolation,
    FormatError,
    GridMismatch,
    InvalidShapeParam,
    LatticeViolation,
    NonFiniteValues,
    PhaseOverflow,
    WolctError,
    ZeroWindow,
)
from . import formats
from .chirpops import olct_convolve, olct_correlate
from .identities import SuiteConfig, render_table, run_suite, suite_report
from .olct import iolct, olct_b0, olct_direct, olct_fast
from .params import OlctParams, validate
from .signals import SampledSignal, UniformGrid, gaussian, rect
from .windowed import DEFAULT_W_STRIDE, default_wgrid, wolct


def _parse_params(text: str) -> OlctParams:
    parts = text.split(",")
    if len(parts) != 6:
        raise FormatError(f"--params wants six comma-separated values, got {len(parts)}")
    try:
        vals = [float(x) for x in parts]
    except ValueError:
        raise FormatError(f"--params has a non-numeric entry: {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise FormatError(f"--params has a non-finite entry: {text!r}")
    return validate(vals)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    return cfg


#: keys a --config file may set: ``olct_params`` stands for ``--params``,
#: each other key for the flag of its name
_CONFIG_KEYS = ("olct_params", "seed", "format", "span", "count", "wstride")


def _apply_config(args) -> None:
    """Fill each flag not given on the command line from the --config file.

    A value goes through its flag's own ``type`` and ``choices``, as its text
    would on the command line.  Keys for a flag that this subcommand lacks
    are ignored.
    """
    for key, value in _load_config(args.config).items():
        if key not in _CONFIG_KEYS:
            raise FormatError(f"{args.config}: unknown config key {key!r}")
        if key == "olct_params":
            if not (isinstance(value, list) and len(value) == 6
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            for x in value)):
                raise FormatError("config olct_params must be a list of six numbers")
            key, value = "params", ",".join(map(repr, value))
        action = args.flags.get(key)
        if action is None:
            continue
        text = str(value)
        try:
            value = action.type(text) if action.type else text
        except ValueError:
            raise FormatError(f"config {key}: invalid value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise FormatError(f"config {key}: {value!r} is not one of "
                              f"{', '.join(action.choices)}")
        if getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_params(args) -> OlctParams:
    if args.params:
        return _parse_params(args.params)
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
    shapes = {"gaussian": gaussian, "rect": rect}
    if kind not in shapes:
        raise FormatError(f"unknown window kind {kind!r}; use gaussian:|rect:|file:")
    try:
        return shapes[kind](grid, value)
    except InvalidShapeParam as exc:
        raise FormatError(f"bad window spec {spec!r}: {exc}") from None


def _add_common(sub):
    sub.add_argument("--params", help="a,b,c,d,u0,w0 (comma-separated)")
    sub.add_argument("--config", help="JSON config mirroring the flags")
    sub.add_argument("--format", choices=("csv", "bin"),
                     help="file format: csv (default) or bin (WSIG signals, WMAP maps)")


def _cmd_transform(args) -> int:
    if args.inverse and args.fast or args.check and not args.fast:
        raise FormatError("--fast is for a forward transform and --check needs --fast")
    p = _resolve_params(args)
    fmt = args.format or "csv"
    if args.inverse:
        spec = (formats.read_spectrum_bin(args.infile) if fmt == "bin"
                else formats.read_spectrum_csv(args.infile))
        tgrid = None
        if (args.span is None) != (args.count is None):
            raise FormatError("--span and --count go together; give both or neither")
        if args.span is not None:
            if args.count < 2 or not 0 < args.span < formats._AXIS_LIMIT:
                raise FormatError(
                    f"--span must be positive and below {formats._AXIS_LIMIT:.3g}"
                    " and --count at least 2"
                )
            tgrid = UniformGrid.symmetric(2.0 * args.span / (args.count - 1), args.count)
        sig = iolct(spec, p, tgrid)
        _write_gridded(args.out, sig, fmt, axis="t")
        return 0

    sig = _read_signal(args.infile, fmt)
    if args.fast:
        out = olct_fast(sig, p)
        if args.check:
            direct = olct_direct(sig, p)
            dev = float(np.max(np.abs(out.values - direct.values)))
            print(f"max |fast - direct| = {dev:.6e}")
    elif p.is_b_zero:
        out = olct_b0(sig, p)
    else:
        out = olct_direct(sig, p)
    _write_gridded(args.out, out, fmt, axis="u")
    return 0


def _cmd_wolct(args) -> int:
    p = _resolve_params(args)
    fmt = args.format or "csv"
    sig = _read_signal(args.infile, fmt)
    win = _parse_window(args.window, sig.grid)
    wstride = DEFAULT_W_STRIDE if args.wstride is None else args.wstride
    if wstride < 1:
        raise FormatError(f"--wstride must be at least 1, got {wstride}")
    vmap = wolct(sig, win, p, wgrid=default_wgrid(sig.grid, wstride))
    (formats.write_tfmap_bin if fmt == "bin" else formats.write_tfmap_csv)(args.out, vmap)
    if args.pgm:
        formats.write_tfmap_pgm(args.pgm, vmap)
    return 0


def _cmd_verify(args) -> int:
    kwargs = {}
    if args.seed is not None:
        if args.seed < 0:
            raise FormatError(f"--seed must be non-negative, got {args.seed}")
        kwargs["seed"] = args.seed
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
    fmt = args.format or "csv"
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
                    help="with --fast on a forward transform, print the deviation "
                         "from the direct path")
    tr.add_argument("--span", type=float, help="inverse output grid half-span")
    tr.add_argument("--count", type=int, help="inverse output grid point count")
    tr.set_defaults(fn=_cmd_transform)

    wo = sub.add_parser("wolct", help="time-frequency map of a signal file")
    _add_common(wo)
    wo.add_argument("--in", dest="infile", required=True)
    wo.add_argument("--window", required=True,
                    help="gaussian:SIGMA | rect:HALFWIDTH | file:PATH")
    wo.add_argument("--out", required=True,
                    help="map path: CSV, or WMAP with --format bin")
    wo.add_argument("--pgm", help="optional 16-bit magnitude PGM path")
    wo.add_argument("--wstride", type=int,
                    help=f"shift-lattice coarsening (default {DEFAULT_W_STRIDE})")
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
    for subparser in sub.choices.values():
        subparser.set_defaults(flags={a.dest: a for a in subparser._actions})
    return parser


#: exit code of each failure, first match wins, so subclasses come first
_EXIT_CODES = (
    (OSError, 2), (FormatError, 2), (LatticeViolation, 2), (PhaseOverflow, 2),
    (NonFiniteValues, 2), (DeterminantViolation, 3), (DegenerateB, 4),
    (ZeroWindow, 5), (GridMismatch, 6), (WolctError, 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t_start = time.perf_counter()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.config:
                _apply_config(args)
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
