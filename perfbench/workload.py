"""One benchmark workload, run as its own process by ``run.py``.

Each workload is one closed-loop caller running one op at a time against
the public ``wolct`` API (``verify``, ``transform``) or the ``wolct`` CLI
(``cli``).  Inputs come from the seed alone.  Every op is checked by
tolerance against an oracle, outside the timed region.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--size full|tiny] [--setup-only]

``run.py`` starts this with the BLAS thread variables pinned to 1 and
``src`` on ``PYTHONPATH``.  The process prints one JSON object: the
monotonic-clock instant it became ready, then (unless ``--setup-only``) the
op durations, the durations of the reference blocks run before the first
and after each untraced op (``reference.py``), failures, peak memory,
observed errors and either the set-up times of the set-up-only processes
it started between ops or, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import wolct
from wolct import formats
from wolct.params import OlctParams
from wolct.signals import SampledSignal, UniformGrid, gaussian, modulate

import spans

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"

#: distinct seeded input sets built during set-up; op i uses set i % POOL
POOL = 16

#: grid half-span shared by every workload, as in the suite's default
SPAN = 12.8

#: input sizes; ``tiny`` exists for the benchmark's self-tests only
SIZES = {
    "full": {"verify": (513, 1025), "transform": 2049, "cli": 1025},
    "tiny": {"verify": (257, 513), "transform": 257, "cli": 129},
}

#: the cases that carry a recorded correction at every seed
CORRECTED = {
    "SHIFT_MODULATION", "CONJUGATE_SWAP", "CONVOLUTION_THM",
    "CORRELATION_THM", "COROLLARY1", "ROUND_TRIP_OLCT",
}

#: agreement demanded of the fast path, the chirp operators and the CLI
#: against their oracles, relative to the largest oracle magnitude
EXACT_TOL = 1e-9
#: round trips through quadrature inverses
ROUND_TRIP_TOL = 1e-6


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def _rel_dev(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"shape {got.shape} != {want.shape}")
    scale = float(np.max(np.abs(want)))
    if not scale > 0 or not np.all(np.isfinite(got)):
        raise CheckFailed("oracle is zero or output is not finite")
    return float(np.max(np.abs(got - want))) / scale


def _within(label: str, dev: float, tol: float) -> float:
    if not dev <= tol:
        raise CheckFailed(f"{label}: relative deviation {dev:.3e} > {tol:g}")
    return dev


def _grid(count: int) -> UniformGrid:
    return UniformGrid.symmetric(2.0 * SPAN / (count - 1), count)


def random_params(rng: np.random.Generator) -> OlctParams:
    """Valid parameters with either sign of b, |b| in [0.5, 3], offsets in [-2, 2]."""
    while True:
        a = rng.uniform(-2.0, 2.0)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        c = rng.uniform(-2.0, 2.0)
        if abs(a) < 0.1 or abs((1.0 + b * c) / a) > 10.0:
            continue
        return OlctParams(a, b, c, (1.0 + b * c) / a,
                          rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_signals(rng: np.random.Generator, grid: UniformGrid):
    """A modulated Gaussian f, a window phi and a second operand g."""
    f = modulate(gaussian(grid, rng.uniform(0.7, 1.3), rng.uniform(-1.0, 1.0)),
                 rng.uniform(-2.0, 2.0))
    phi = gaussian(grid, rng.uniform(0.7, 1.3))
    g = gaussian(grid, rng.uniform(0.6, 1.2), rng.uniform(-1.0, 1.0))
    return f, phi, g


def _sample_indices(n: int, peak: int, k: int = 33) -> np.ndarray:
    return np.unique(np.append(np.linspace(0, n - 1, k).round().astype(int), peak))


class Workload:
    """Inputs built at construction (set-up); ``run`` is one timed op and
    ``check`` its untimed oracle comparison, returning the observed error."""

    #: whether ``op_peak_rss_mb`` needs this process's memory sampled
    SAMPLES_RSS = True
    #: threads that run the reference block at once, as the op does
    REF_THREADS = 1

    def clear(self):
        """Drop what an op left behind, outside the timed region."""

    def close(self):
        """Stop what set-up started."""

    def op_peak_rss_mb(self, sampled_mb: float | None) -> float:
        """Peak resident memory of the last op, given this process's."""
        return sampled_mb


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """``run_suite(SuiteConfig(seed=S+i))`` with every other default."""

    # the suite's default pool has two workers on the 2-CPU reference machine
    REF_THREADS = 2

    def __init__(self, seed: int, size: str, workdir: Path):
        coarse, fine = SIZES[size]["verify"]
        # at full size coarse and fine equal the SuiteConfig defaults
        self.configs = [wolct.SuiteConfig(seed=seed + i, coarse=coarse, fine=fine)
                        for i in range(POOL)]

    def run(self, i: int, tracer):
        return wolct.run_suite(self.configs[i % POOL])

    def check(self, i: int, reports) -> float:
        if len(reports) != len(wolct.identities.CASE_ORDER):
            raise CheckFailed(f"{len(reports)} reports, expected 14")
        failed = [r.case.name for r in reports if not r.passed]
        if failed:
            raise CheckFailed(f"cases failed: {failed}")
        corrected = {r.case.name for r in reports if r.corrected is not None}
        if corrected != CORRECTED:
            raise CheckFailed(f"corrected cases {sorted(corrected)}")
        return max(r.rel_residual for r in reports)


# ---------------------------------------------------------------------------
# transform


def brute_convolve(f: SampledSignal, g: SampledSignal, p: OlctParams, js) -> np.ndarray:
    """sum_m f_m g(t_j - t_m) exp(-i a/(2b) t_m (t_j - t_m)) h at outputs js."""
    t, h, n = f.grid.points(), f.grid.step, f.grid.count
    out = []
    for j in js:
        k = np.round((t[j] - t - f.grid.start) / h).astype(int)
        ok = (k >= 0) & (k < n)
        gv = np.where(ok, g.values[np.clip(k, 0, n - 1)], 0.0)
        out.append(np.sum(f.values * gv * np.exp(-1j * p.a / (2 * p.b) * t * (t[j] - t))) * h)
    return np.array(out)


def brute_correlate(f: SampledSignal, g: SampledSignal, p: OlctParams, js) -> np.ndarray:
    """sum_m conj(f_m) g(t_m + t_j) exp(i a/(2b) t_m (t_m + t_j)) h at outputs js."""
    t, h, n = f.grid.points(), f.grid.step, f.grid.count
    out = []
    for j in js:
        k = np.round((t + t[j] - f.grid.start) / h).astype(int)
        ok = (k >= 0) & (k < n)
        gv = np.where(ok, g.values[np.clip(k, 0, n - 1)], 0.0)
        out.append(np.sum(np.conj(f.values) * gv * np.exp(1j * p.a / (2 * p.b) * t * (t + t[j]))) * h)
    return np.array(out)


class Transform(Workload):
    """The large-N primitives on one seeded parameter set per op."""

    def __init__(self, seed: int, size: str, workdir: Path):
        grid = _grid(SIZES[size]["transform"])
        self.inputs = []
        for i in range(POOL):
            rng = np.random.default_rng([seed, i])
            p = random_params(rng)
            self.inputs.append((p, *random_signals(rng, grid)))

    def run(self, i: int, tracer):
        p, f, phi, g = self.inputs[i % POOL]
        out = {"fast": wolct.olct_fast(f, p), "direct": wolct.olct_direct(f, p)}
        out["back"] = wolct.iolct(out["direct"], p, f.grid)
        out["rec"] = wolct.reconstruct(wolct.wolct(f, phi, p), phi, phi, p)
        # the operators use only a/(2b); zeroed offsets keep p0 a plain LCT
        p0 = OlctParams(p.a, p.b, p.c, p.d)
        out["conv"] = wolct.olct_convolve(f, g, p0)
        out["corr"] = wolct.olct_correlate(f, g, p0)
        return out

    def check(self, i: int, out) -> float:
        p, f, phi, g = self.inputs[i % POOL]
        if out["fast"].grid != out["direct"].grid:
            raise CheckFailed("fast and direct output grids differ")
        devs = [
            _within("fast vs olct_values",
                    _rel_dev(out["fast"].values, out["direct"].values), EXACT_TOL),
            _within("iolct round trip", _rel_dev(out["back"].values, f.values),
                    ROUND_TRIP_TOL),
            _within("reconstruct round trip", _rel_dev(out["rec"].values, f.values),
                    ROUND_TRIP_TOL),
        ]
        p0 = OlctParams(p.a, p.b, p.c, p.d)
        for key, brute in (("conv", brute_convolve), ("corr", brute_correlate)):
            vals = out[key].values
            js = _sample_indices(vals.shape[0], int(np.argmax(np.abs(vals))))
            devs.append(_within(f"{key} vs brute-force sum",
                                _rel_dev(vals[js], brute(f, g, p0, js)), EXACT_TOL))
        return max(devs)


# ---------------------------------------------------------------------------
# cli


# The benchmark writes the CLI's input files itself, so that a change to the
# library's writers cannot change the inputs.


def _write_csv(path: Path, sig: SampledSignal):
    rows = [f"{x!r},{z.real!r},{z.imag!r}" for x, z in
            zip(sig.grid.points().tolist(), sig.values.tolist())]
    path.write_text("t,re,im\n" + "\n".join(rows) + "\n")


def _write_wsig(path: Path, sig: SampledSignal):
    inter = np.empty(2 * sig.grid.count, dtype="<f8")
    inter[0::2] = sig.values.real
    inter[1::2] = sig.values.imag
    path.write_bytes(b"WSIG" + struct.pack("<BddQ", 1, sig.grid.start, sig.grid.step,
                                           sig.grid.count) + inter.tobytes())


class Cli(Workload):
    """Five ``python -m wolct.cli`` subprocesses per op, one at a time."""

    SAMPLES_RSS = False

    def __init__(self, seed: int, size: str, workdir: Path):
        grid = _grid(SIZES[size]["cli"])
        self.workdir = workdir
        self.inputs = []
        for i in range(POOL):
            rng = np.random.default_rng([seed, i])
            p = random_params(rng)
            f, _, g = random_signals(rng, grid)
            sigma = float(rng.uniform(0.7, 1.3))
            d = workdir / f"in{i}"
            d.mkdir()
            _write_csv(d / "sig.csv", f)
            _write_wsig(d / "sig.wsig", f)
            _write_csv(d / "g.csv", g)
            self.inputs.append((p, f, g, sigma, d))
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.op_peak_kb = 0

    def commands(self, i: int, out: Path) -> list[list[str]]:
        p, f, g, sigma, d = self.inputs[i % POOL]
        # "--params=" keeps argparse from reading a leading minus as a flag
        pv = "--params=" + ",".join(repr(x) for x in p.as_tuple())
        return [
            ["transform", "--fast", pv, "--in", str(d / "sig.csv"),
             "--out", str(out / "spec.csv")],
            ["transform", "--inverse", pv, "--in", str(out / "spec.csv"),
             "--out", str(out / "back.csv")],
            ["transform", "--fast", "--format", "bin", pv,
             "--in", str(d / "sig.wsig"), "--out", str(out / "spec.wsig")],
            ["wolct", pv, "--in", str(d / "sig.csv"),
             "--window", f"gaussian:{sigma!r}", "--out", str(out / "map.csv"),
             "--pgm", str(out / "map.pgm")],
            ["convolve", pv, "--in1", str(d / "sig.csv"),
             "--in2", str(d / "g.csv"), "--out", str(out / "conv.csv")],
        ]

    def run(self, i: int, tracer):
        out = self.workdir / "op"
        out.mkdir()
        self.op_peak_kb = 0
        for k, argv in enumerate(self.commands(i, out)):
            if tracer is None:
                cmd = [sys.executable, "-m", "wolct.cli", *argv]
            else:
                span_file = out / f"spans{k}.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *argv]
            self.launcher.stdin.write(json.dumps(cmd) + "\n")
            self.launcher.stdin.flush()
            reply = json.loads(self.launcher.stdout.readline())
            self.op_peak_kb = max(self.op_peak_kb, reply["maxrss_kb"])
            if reply["rc"] != 0:
                raise CheckFailed(f"wolct {argv[0]} exited {reply['rc']}: "
                                  f"{reply['stderr'].strip()}")
            if tracer is not None:
                tracer.absorb(span_file, i)
        return out

    def check(self, i: int, out: Path) -> float:
        p, f, g, sigma, d = self.inputs[i % POOL]
        spec = wolct.olct_fast(f, p)
        devs = []
        for got in (formats.read_spectrum_csv(out / "spec.csv"),
                    formats.read_spectrum_bin(out / "spec.wsig")):
            devs.append(self._compare("spectrum", got, spec))
        devs.append(self._compare("inverse", formats.read_signal_csv(out / "back.csv"),
                                  wolct.iolct(spec, p)))
        devs.append(self._compare("convolve", formats.read_signal_csv(out / "conv.csv"),
                                  wolct.olct_convolve(f, g, p)))
        tfmap = formats.read_tfmap_csv(out / "map.csv")
        devs.append(self._check_map(tfmap, f, p, sigma))
        self._check_pgm(out / "map.pgm", tfmap)
        return max(devs)

    @staticmethod
    def _compare(label: str, got, want) -> float:
        if got.grid.count != want.grid.count or not np.allclose(
                [got.grid.start, got.grid.step], [want.grid.start, want.grid.step],
                rtol=1e-12, atol=0.0):
            raise CheckFailed(f"{label}: grid {got.grid} != {want.grid}")
        js = _sample_indices(want.grid.count, int(np.argmax(np.abs(want.values))))
        return _within(label, _rel_dev(got.values[js], want.values[js]), EXACT_TOL)

    @staticmethod
    def _check_map(tfmap, f: SampledSignal, p: OlctParams, sigma: float) -> float:
        want_u = wolct.induced_output_grid(p, f.grid)
        if tfmap.ugrid.count != want_u.count or tfmap.wgrid.count != f.grid.count // 4:
            raise CheckFailed(f"map shape {tfmap.values.shape}")
        rng = np.random.default_rng(0)
        mag = np.abs(tfmap.values)
        ks = np.append(rng.integers(0, mag.shape[0], 32), np.argmax(mag) // mag.shape[1])
        ls = np.append(rng.integers(0, mag.shape[1], 32), np.argmax(mag) % mag.shape[1])
        want = wolct.wolct_at(f, gaussian(f.grid, sigma), p,
                              tfmap.ugrid.points()[ks], tfmap.wgrid.points()[ls])
        return _within("map", _rel_dev(tfmap.values[ks, ls], want), EXACT_TOL)

    @staticmethod
    def _check_pgm(path: Path, tfmap):
        raw = path.read_bytes()
        head = raw.split(b"\n", 3)
        if len(head) != 4 or head[0] != b"P5" or head[2] != b"65535":
            raise CheckFailed("PGM header is not 16-bit P5")
        cols, rows = (int(x) for x in head[1].split())
        meta = json.loads(Path(str(path) + ".json").read_text())
        vmax = float(np.max(np.abs(tfmap.values)))
        if ((rows, cols) != tfmap.values.shape
                or (meta["rows"], meta["cols"]) != (rows, cols)
                or len(head[3]) != 2 * rows * cols
                or abs(meta["max_magnitude"] - vmax) > EXACT_TOL * vmax
                or abs(meta["scale"] * vmax - 65535.0) > 65535.0 * EXACT_TOL
                or int(np.frombuffer(head[3], ">u2").max()) != 65535):
            raise CheckFailed("PGM header, pixels and sidecar disagree")

    def clear(self):
        shutil.rmtree(self.workdir / "op", ignore_errors=True)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)

    def op_peak_rss_mb(self, sampled_mb: float | None) -> float:
        """Peak of the op's largest CLI child process."""
        return self.op_peak_kb / 1024.0


# ---------------------------------------------------------------------------
# the timed loop

WORKLOADS = {"verify": Verify, "transform": Transform, "cli": Cli}


class RssSampler:
    """Peak resident size of this process since :meth:`reset`, sampled
    every 2 ms by a background thread.

    ``ru_maxrss`` cannot be reset, and on the suite's thread pool its
    lifetime peak depends on how the cases happened to overlap.
    """

    PERIOD_S = 0.002

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        return int(os.pread(self._fd, 128, 0).split()[1]) * self._page

    def _poll(self):
        while not self._stop.wait(self.PERIOD_S):
            rss = self._rss()
            with self._lock:
                self._peak = max(self._peak, rss)

    def reset(self):
        with self._lock:
            self._peak = self._rss()

    def peak_mb(self) -> float:
        rss = self._rss()
        with self._lock:
            return max(self._peak, rss) / 2**20

    def close(self):
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{v: os.environ.get(v, "unset") for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WOLCT_THREADS")},
    }


def cli_startup_s(repeats: int = 5) -> float:
    """Median wall time of a bare ``python -c "import wolct.cli"``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wolct.cli"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_setup(argv: list[str]) -> float:
    """Seconds from starting a set-up-only workload process to its ready."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *argv,
                           "--seconds", "0", "--setup-only"],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - started


class Reference:
    """The reference process (``reference.py``), which times one block of
    fixed work on ``threads`` threads per call."""

    def __init__(self, threads: int):
        self.threads = threads
        self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        self.proc.stdin.write(f"{self.threads}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def judge(work: Workload, i: int, out) -> tuple[float | None, str | None]:
    """The observed error of op ``i``, or why it failed.

    ``out`` is what the op returned or the exception it raised.
    """
    try:
        if isinstance(out, Exception):
            raise out
        return work.check(i, out), None
    except Exception as exc:  # any error in an op or its check is a failure
        traceback.print_exception(exc, file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def measure(work: Workload, seconds: float, trace: bool, setup_argv=None) -> dict:
    """Closed loop of ops until ``seconds`` of op time is spent.

    With ``trace`` the ops alternate untraced and traced, and each kind
    gets half the time.  A reference block (``reference.py``, in its own
    process) is timed before the loop and at once after each untraced op,
    so that the two blocks on either side of an untraced op sample the
    host's speed at the op's moment.
    With ``setup_argv``, each op is followed by one untimed set-up-only
    process of the same workload, so that the set-up times sample the same
    stretch of the run as the ops.
    """
    tracer = spans.Tracer() if trace else None
    sampler = RssSampler() if work.SAMPLES_RSS else None
    reference = Reference(work.REF_THREADS)
    setups = []
    times = {False: [], True: []}
    peaks, plain_passed = [], 0
    traced_ops, errors, failures = [], [], []
    i = 0
    try:
        refs = [reference.time()]
        while True:
            traced = trace and i % 2 == 1
            if traced:
                tracer.op = i
                traced_ops.append(i)
                tracer.install()
            if sampler:
                sampler.reset()
            t0 = time.perf_counter()
            try:
                out = work.run(i, tracer if traced else None)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            times[traced].append(time.perf_counter() - t0)
            if traced:
                tracer.uninstall()
            else:
                peaks.append(work.op_peak_rss_mb(sampler and sampler.peak_mb()))
                refs.append(reference.time())
            error, failure = judge(work, i, out)
            if failure is None:
                errors.append(error)
                plain_passed += not traced
            else:
                failures.append(f"op {i}: {failure}")
            work.clear()
            if setup_argv:
                setups.append(time_setup(setup_argv))
            i += 1
            if trace:
                if min(sum(times[False]), sum(times[True])) >= seconds / 2:
                    break
            elif sum(times[False]) >= seconds:
                break
    finally:
        reference.close()
        if sampler:
            sampler.close()
    result = {
        "setups": setups,
        "durations": times[False],
        "ref_durations": refs,
        "plain_passed": plain_passed,
        "peak_rss_mb": statistics.median(peaks),
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:5],
        "max_error": max(errors, default=None),
    }
    if trace:
        layers = spans.summarize(tracer.spans, traced_ops)
        layers["cli.startup_s"] = cli_startup_s() if isinstance(work, Cli) else 0.0
        plain = statistics.median(times[False])
        layers["trace.overhead_frac"] = (statistics.median(times[True]) - plain) / plain
        result["layers"] = layers
        result["traced_durations"] = times[True]
        tracer.dump(WORK / f"spans-{type(work).__name__.lower()}.json")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        work = WORKLOADS[args.workload](args.seed, args.size, workdir)
        result = {"ready": time.monotonic()}
        try:
            if not args.setup_only:
                try:  # warm-up, untimed; a broken op shows again in the timed loop
                    work.run(0, None)
                except Exception as exc:
                    traceback.print_exception(exc, file=sys.stderr)
                work.clear()
                # set-up times are end-to-end metrics, reported untraced only
                setup_argv = None if args.trace else [
                    "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
                result.update(measure(work, args.seconds, bool(args.trace), setup_argv))
                result["info"] = machine_info()
        finally:
            work.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
