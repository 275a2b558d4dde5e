"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They check that each workload's gate counts a failure when fed a corrupted
output, that a tiny-size smoke run of every workload prints every metric
named in ``BENCHMARK.json``, and that the benchmark refuses to run without
the library sources.  The file name keeps the repository's own test run
from collecting these.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402
from spans import Span, layer_metrics, summarize  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _nudge(values: np.ndarray, rel: float) -> np.ndarray:
    """Copy of ``values`` with the largest sample off by ``rel`` relative."""
    out = np.array(values)
    k = int(np.argmax(np.abs(out)))
    out[k] *= 1.0 + rel
    return out


def _passes(work, out) -> bool:
    error, failure = workload.judge(work, 0, out)
    return failure is None


# ---------------------------------------------------------------------------
# gates


def test_verify_gate_counts_flipped_status_and_lost_correction(tmp_path):
    work = workload.Verify(seed=5, size="tiny", workdir=tmp_path)
    reports = work.run(0, None)
    assert _passes(work, reports)
    flipped = list(reports)
    flipped[0] = dataclasses.replace(flipped[0], passed=not flipped[0].passed)
    assert not _passes(work, flipped)
    k = next(i for i, r in enumerate(reports) if r.corrected is not None)
    lost = list(reports)
    lost[k] = dataclasses.replace(lost[k], corrected=None)
    assert not _passes(work, lost)


@pytest.fixture(scope="module")
def transform_op(tmp_path_factory):
    work = workload.Transform(seed=5, size="tiny", workdir=tmp_path_factory.mktemp("t"))
    return work, work.run(0, None)


@pytest.mark.parametrize("key, rel", [
    ("fast", 1e-6), ("direct", 1e-6), ("conv", 1e-6), ("corr", 1e-6),
    # the round trips are gated at 1e-6, so a sample off by 1e-5 must fail
    ("back", 1e-5), ("rec", 1e-5),
])
def test_transform_gate_counts_one_bad_sample(transform_op, key, rel):
    work, out = transform_op
    assert _passes(work, out)
    bad = dict(out)
    bad[key] = type(out[key])(out[key].grid, _nudge(out[key].values, rel))
    assert not _passes(work, bad)


def _cli(workdir: Path) -> "workload.Cli":
    with pytest.MonkeyPatch.context() as mp:
        # the CLI children need the environment run.py gives a workload
        mp.setenv("PYTHONPATH", run.child_env()["PYTHONPATH"])
        return workload.Cli(seed=5, size="tiny", workdir=workdir)


@pytest.fixture(scope="module")
def cli_op(tmp_path_factory):
    work = _cli(tmp_path_factory.mktemp("c"))
    yield work, work.run(0, None)
    work.close()


def _corrupted_copy(out: Path, tmp_path: Path, name: str, edit) -> Path:
    dst = tmp_path / "op"
    shutil.copytree(out, dst)
    edit(dst / name)
    return dst


def _truncate(path: Path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _nudge_csv(path: Path):
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    k = int(np.argmax([abs(complex(r[-2], r[-1])) for r in rows]))
    rows[k][-2] *= 1.0 + 1e-6
    rows[k][-1] *= 1.0 + 1e-6
    path.write_text("\n".join([lines[0]] + [",".join(map(repr, r)) for r in rows]) + "\n")


def _bad_sidecar(path: Path):
    side = Path(str(path) + ".json")
    meta = json.loads(side.read_text())
    meta["rows"] += 1
    side.write_text(json.dumps(meta))


@pytest.mark.parametrize("name, edit", [
    ("spec.csv", _truncate),
    ("map.csv", _truncate),
    ("back.csv", _truncate),
    ("conv.csv", _nudge_csv),
    ("spec.csv", _nudge_csv),
    ("map.pgm", _bad_sidecar),
])
def test_cli_gate_counts_corrupted_output(cli_op, tmp_path, name, edit):
    work, out = cli_op
    assert _passes(work, out)
    assert not _passes(work, _corrupted_copy(out, tmp_path, name, edit))


def test_cli_gate_counts_nonzero_exit(tmp_path):
    work = _cli(tmp_path)
    try:
        shutil.rmtree(work.inputs[0][-1])
        with pytest.raises(workload.CheckFailed, match="exited 2"):
            work.run(0, None)
    finally:
        work.close()


# ---------------------------------------------------------------------------
# per-layer statistics


@pytest.mark.parametrize("threads, expected", [((1, 1), 1.0), ((1, 2), 0.5)])
def test_pool_efficiency_counts_the_threads_the_checkers_ran_on(threads, expected):
    # a 4 s suite whose two outermost 2 s checkers ran on ``threads``; the
    # nested checker span is not outermost and does not count
    spans = [Span(0, "identities.run_suite", 0.0, 4.0, None, 0, 1),
             Span(1, "identities.check_parseval", 0.0, 2.0, 0, 0, threads[0]),
             Span(2, "identities.check_round_trip", 2.0, 4.0, 0, 0, threads[1]),
             Span(3, "identities.check_parseval", 2.5, 3.0, 2, 0, threads[1])]
    stats = summarize(spans, [0])
    assert stats["identities.pool_efficiency"] == pytest.approx(expected)


# ---------------------------------------------------------------------------
# host-speed ratios


def test_host_ratios_cancel_host_speed_with_the_blocks_on_either_side():
    # the host halves its speed during the second op: the op and the
    # block after it take twice as long, the block before it does not
    assert run.host_ratios([3.0, 6.0, 8.0], [1.0, 2.0, 4.0, 4.0]) == [2.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# the benchmark as the harness runs it


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_every_metric():
    assert [m["name"] for m in BENCH["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        layer_metrics()
    assert [w["name"] for w in BENCH["workloads"]] == list(workload.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert m["name"] in proc.stdout.rsplit("\n", 2)[0]
    assert "fail_ratio" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
