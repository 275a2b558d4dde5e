"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify|transform|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own process
(``workload.py``) with the BLAS thread variables pinned to 1 and ``src`` on
``PYTHONPATH``; nothing is installed or built.  Set-up is timed from
process start to ready: for the workload process itself and for the
set-up-only process that it starts after each op, so that the set-ups
are spread over the run like the ops.  ``setup_s`` is their median.

Op times are gated in units of the host's speed at the op's moment: a
fixed reference block (``workload.reference_block``) is timed before the first and
after each untraced op, and ``op_ref_p50`` and ``ops_per_ref`` use the
op's wall time divided by the mean of the two blocks on either side.
The plain wall-clock ``op_s_p50`` and ``ops_per_s`` are printed in the
report next to them.

The output is a human-readable report (every metric with its unit and
sample count, the observed errors and the machine), then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a run ends within this many seconds or fails
DEADLINE_S = 170.0

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = (("setup_s", "s"), ("op_ref_p50", "ref"), ("ops_per_ref", "1/ref"),
              ("peak_rss_mb", "MB"))


class RunFailed(Exception):
    """A workload process failed or ran out of time."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in PINNED})
    # the suite keeps its default pool of min(8, nproc) workers
    env.pop("WOLCT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run a workload process; return its JSON result and its start instant."""
    cmd = [sys.executable, str(HERE / "workload.py"), *argv]
    started = time.monotonic()
    # its own process group, so that a timeout also ends the CLI children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed("workload process ran out of time") from None
    if proc.returncode != 0:
        raise RunFailed(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def source_info() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "wolct").glob("*.py")))
    return {"git_commit": commit or "unknown (not a git checkout)",
            "src_wolct_lines": lines,
            "WOLCT_THREADS_inherited": os.environ.get("WOLCT_THREADS", "unset")}


def host_ratios(ops: list[float], refs: list[float]) -> list[float]:
    """Each op's wall time over the mean of the reference blocks timed just
    before and just after it; ``refs`` has one more entry than ``ops``."""
    return [2.0 * op / (before + after) for op, before, after in zip(ops, refs, refs[1:])]


def report(args, setups: list[float], res: dict) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    plain = res["durations"]
    refs = res["ref_durations"]
    ratios = host_ratios(plain, refs)
    op_time = sum(plain) + sum(res.get("traced_durations", []))
    ok = res["attempted"] - res["failed"]
    e2e = {
        "setup_s": statistics.median(setups),
        "op_ref_p50": statistics.median(ratios),
        "ops_per_ref": res["plain_passed"] / sum(ratios),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_ref_p50": f"median of {len(ratios)} untraced ops, "
        "op time / reference-block time",
        "ops_per_ref": f"{res['plain_passed']} untraced ops passed in "
        f"{sum(ratios):.4f} reference blocks of op time",
        "peak_rss_mb": f"median over {len(plain)} ops of the op's peak, "
        + ("largest CLI child" if args.workload == "cli" else "workload process"),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, unit in END_TO_END:
        print(f"  {name:<12} {e2e[name]:>12.6g} {unit:<5} {notes[name]}")
    print(f"  {'op_s_p50':<12} {statistics.median(plain):>12.6g} {'s':<5} "
          f"wall clock, median of {len(plain)} untraced ops (not gated)")
    print(f"  {'ops_per_s':<12} {ok / op_time:>12.6g} {'1/s':<5} "
          f"wall clock, {ok} ops passed in {op_time:.3f} s of op time (not gated)")
    print(f"  {'ref_s_p50':<12} {statistics.median(refs):>12.6g} {'s':<5} "
          f"median of {len(refs)} reference blocks")
    print(f"  {'fail_ratio':<12} {res['failed'] / res['attempted']:>12.6g} {'ratio':<5} "
          f"{res['failed']} of {res['attempted']} ops failed")
    print(f"  max_error    {res['max_error']!s:>12} (observed; gated at 1e-9 "
          "against oracles, 1e-6 for round trips, per-case suite tolerances)")
    for line in res["failures"]:
        print(f"  failure: {line}")
    print("info " + json.dumps({**res["info"], **source_info()}))
    if not args.trace:
        return {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print(f"  per-layer metrics: medians over {len(res['traced_durations'])} traced ops")
    metrics = {}
    for name, unit, _ in layer_metrics():
        value = res["layers"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<46} {value:>14.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=("verify", "transform", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the self-tests only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wolct" / "__init__.py").is_file():
        print(f"error: no wolct sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        res, started = spawn(["--workload", args.workload, "--seed", str(args.seed),
                              "--size", args.size, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report(args, [res["ready"] - started, *res["setups"]], res)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
