"""Span recorder for the traced benchmark run.

The benchmark traces the library from the outside: :class:`Tracer` wraps
the public functions of each layer and replaces the module attributes that
refer to them in every loaded ``wolct`` module, so that call sites which
imported a name (``from .olct import kernel``) go through the wrapper too.
Nothing inside ``src/`` changes.

A span holds a name, start, end, parent span, op id and thread.  Parents
come from a per-thread stack, so self time (duration minus the durations of
direct children) is computed per thread even when the verification suite
runs its cases on a thread pool.  Spans stay in memory; the benchmark
writes them out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

OLCT = ("kernel", "olct_values", "olct_direct", "iolct", "olct_fast")
WINDOWED = ("wolct", "reconstruct", "wolct_at")
CHIRPOPS = ("olct_convolve", "olct_correlate")
CHECKERS = (
    "check_shift", "check_modulation", "check_shift_modulation",
    "check_inversion", "check_orthogonality", "check_parity",
    "check_conjugate_swap", "check_convolution_theorem",
    "check_correlation_theorem", "check_corollary", "check_parseval",
    "check_round_trip",
)
FORMATS = (
    "read_signal_csv", "write_signal_csv", "read_spectrum_csv",
    "read_signal_bin", "write_signal_bin", "read_spectrum_bin",
    "read_tfmap_csv", "write_tfmap_csv", "write_tfmap_pgm",
)
#: the CLI commands the ``cli`` workload runs
CLI_COMMANDS = ("transform", "wolct", "convolve")


def _kernel_entries(args, kwargs) -> int:
    # kernel(p, t, u): one value per element of the broadcast shape
    return int(np.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))))


def _tf_points(args, kwargs) -> int:
    # wolct_at(f, phi, p, us, ws)
    return int(np.size(args[3]))


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(args[0])


#: wrapped function -> extra per-call count, keyed "<module>.<function>"
_COUNTERS = {
    "olct.kernel": ("entries", _kernel_entries),
    "windowed.wolct_at": ("points", _tf_points),
    **{f"formats.{name}": ("bytes", _file_bytes) for name in FORMATS},
}

_TARGETS = {
    "olct": OLCT,
    "windowed": WINDOWED,
    "chirpops": CHIRPOPS,
    "identities": CHECKERS + ("run_suite",),
    "formats": FORMATS,
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    count: int | None = None


class Tracer:
    """Records spans for wrapped library functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, opened, count=None):
        end = time.perf_counter()
        sid, parent, start = opened
        self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, self.op,
                               threading.get_ident(), count))

    def wrap(self, name: str, fn):
        """``fn`` wrapped to record one span named ``name`` per call."""
        counter = _COUNTERS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            count = None
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs)
                return out
            finally:
                self._close(name, opened, count)

        return traced

    def install(self):
        """Replace every ``wolct`` module attribute bound to a traced function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wolct" or n.startswith("wolct."))]
        for modname, names in _TARGETS.items():
            mod = sys.modules[f"wolct.{modname}"]
            for name in names:
                orig = getattr(mod, name)
                wrapper = self.wrap(f"{modname}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([vars(s) for s in self.spans], fh)

    def absorb(self, path, op: int):
        """Add the spans another process wrote with :meth:`dump`, under op
        ``op`` and with span ids renumbered into this tracer's sequence."""
        with open(path) as fh:
            raw = json.load(fh)
        ids = {d["sid"]: next(self._ids) for d in raw}
        for d in raw:
            d.update(sid=ids[d["sid"]], parent=ids.get(d["parent"]), op=op)
            self.spans.append(Span(**d))


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    Per-op values are medians over the traced ops of a run.
    """
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for fn in OLCT:
        add(f"olct.{fn}.calls", "count/op")
        add(f"olct.{fn}.{'total_s' if fn == 'olct_direct' else 'self_s'}", "s/op")
        if fn == "kernel":
            add("olct.kernel.entries", "count/op")
    for fn in WINDOWED:
        add(f"windowed.{fn}.calls", "count/op")
        add(f"windowed.{fn}.self_s", "s/op")
    add("windowed.wolct_at.points", "count/op")
    for fn in CHIRPOPS:
        add(f"chirpops.{fn}.calls", "count/op")
        add(f"chirpops.{fn}.self_s", "s/op")
    for fn in CHECKERS:
        add(f"identities.{fn}.calls", "count/op")
        add(f"identities.{fn}.self_s", "s/op")
    add("identities.run_suite.total_s", "s/op")
    add("identities.pool_efficiency", "ratio", "higher")
    for fn in FORMATS:
        add(f"formats.{fn}.calls", "count/op")
        add(f"formats.{fn}.s", "s/op")
        add(f"formats.{fn}.bytes", "bytes/op")
    for cmd in CLI_COMMANDS:
        add(f"cli.main.{cmd}.s", "s/op")
    add("cli.startup_s", "s")
    add("trace.overhead_frac", "ratio")
    return out


def _op_stats(spans: list[Span]) -> dict[str, float]:
    """Sums of every per-op statistic over the spans of one op."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    by_id = {s.sid: s for s in spans}
    stats: dict[str, float] = {}

    def bump(key, value):
        stats[key] = stats.get(key, 0.0) + value

    checker_span_time = 0.0
    checker_threads = set()
    for s in spans:
        dur = s.end - s.start
        self_s = dur - child_time.get(s.sid, 0.0)
        module, _, fn = s.name.partition(".")
        bump(f"{s.name}.calls", 1)
        bump(f"{s.name}.self_s", self_s)
        bump(f"{s.name}.total_s", dur)
        bump(f"{s.name}.s", dur)
        if s.count is not None:
            bump(f"{s.name}.{_COUNTERS[s.name][0]}", s.count)
        if module == "identities" and fn.startswith("check_"):
            # only outermost checker spans count towards pool occupancy
            parent = by_id.get(s.parent)
            while parent is not None and not parent.name.startswith("identities.check_"):
                parent = by_id.get(parent.parent)
            if parent is None:
                checker_span_time += dur
                checker_threads.add(s.thread)
    # the workers are the threads the outermost checkers ran on
    suite = stats.get("identities.run_suite.total_s", 0.0)
    stats["identities.pool_efficiency"] = (
        checker_span_time / (len(checker_threads) * suite) if suite > 0 else 0.0)
    return stats


def summarize(spans: list[Span], ops: list[int]) -> dict[str, float]:
    """Per-layer metrics (medians over ``ops``) except the two that the
    caller measures itself: ``cli.startup_s`` and ``trace.overhead_frac``."""
    per_op = {op: [] for op in ops}
    for s in spans:
        if s.op in per_op:
            per_op[s.op].append(s)
    stats = [_op_stats(per_op[op]) for op in ops]
    out = {}
    for name, _, _ in layer_metrics():
        if name in ("cli.startup_s", "trace.overhead_frac"):
            continue
        out[name] = statistics.median(st.get(name, 0.0) for st in stats) if stats else 0.0
    return out
