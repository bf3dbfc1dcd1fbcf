"""Tests of the benchmark itself.

Run from the root of the source tree:

    PYTHONPATH=src python3 -m pytest -q perfbench

The counters below must repeat exactly across runs at a fixed seed; a
later change may move them only on purpose, and must then say so.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
# workload -> {per-layer metric: exact value at SEED}
EXACT = {
    "packet-stochastic": {
        "swarm.population": 1611705.0,
        "swarm.copy.calls_per_op": 3.0,
        "swarm.cancel_pairs.calls_per_op": 2.0,
    },
    "meanfield-3d": {
        "lattice.field_laplacian.calls_per_op": 4.0,
        "frames.write_frame.calls": 5.0,
    },
    "green-relax": {
        "lattice.relax_to_green.iterations": 7299.0,
    },
    "born-urn": {
        "measure.urn_events": 254.0,
        "measure.labels_kept": 36.0,
    },
}


def traced_run(name: str, tmp_path: Path) -> dict:
    """One traced run with the shortest budget: one untraced and one traced solve."""
    work = tmp_path / f"{name}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    result = bench.measure(WORKLOADS[name], SEED, 1e-3, True, str(work),
                           str(work / "spans.csv"))
    assert result["correct"], result["report"]
    return result["metrics"]


@pytest.mark.parametrize("name", sorted(EXACT))
def test_counters_repeat_exactly(name, tmp_path):
    first = traced_run(name, tmp_path)
    second = traced_run(name, tmp_path)
    for metric, value in EXACT[name].items():
        assert first[metric] == value, metric
        assert second[metric] == value, metric
    assert set(first) == set(bench.PER_LAYER)
    assert first["trace.coverage"] >= bench.MIN_COVERAGE


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in bench.PER_LAYER.items()}


def test_tracer_restores_bindings():
    from qswarm import dynamics, swarm

    originals = (dynamics.cancel_pairs, swarm.cancel_pairs, swarm.SwarmState.copy)
    tracer = Tracer()
    with tracer:
        assert dynamics.cancel_pairs is not originals[0]
        assert swarm.SwarmState.copy is not originals[2]
    assert (dynamics.cancel_pairs, swarm.cancel_pairs, swarm.SwarmState.copy) == originals


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans.extend([
        ("outer", 0.0, 10.0, -1, 0),
        ("inner", 1.0, 4.0, 0, 0),
        ("inner", 5.0, 7.0, 0, 0),
    ])
    table = tracer.aggregate()
    assert table["outer"] == [1, 10.0, 5.0]
    assert table["inner"] == [2, 5.0, 5.0]
    assert tracer.root_seconds() == 10.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(1109) == 99.0
    assert bench.tail_percentile(200) == 90.0
    assert bench.tail_percentile(10**4) == 99.9


def test_refuses_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "born-urn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
