#!/usr/bin/env python3
"""qswarm benchmark.

Run from the root of a qswarm source tree:

    python3 perfbench/run.py --workload packet-stochastic --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a plain-text report.  The exit status is 0 when the run completed, also
when a check failed (``correct`` is then false), and 2 when the source tree
or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
NAMES = ("packet-stochastic", "meanfield-3d", "green-relax", "born-urn")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_qswarm():
    """Import qswarm from this tree's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qswarm" / "__init__.py").is_file():
        raise ImportError(f"no qswarm package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import qswarm

    if Path(qswarm.__file__).resolve().parent != src / "qswarm":
        raise ImportError(f"qswarm imported from {qswarm.__file__}, not from {src}")
    return qswarm


def cache_sizes() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    parts = []
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        parts.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}={size}")
    return " ".join(parts) or "unknown"


def machine_context() -> list[str]:
    import numpy
    import scipy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    pins = " ".join(f"{k}={os.environ.get(k)}" for k in THREAD_PINS)
    return [
        f"machine: nproc={os.cpu_count()} affinity={affinity} caches: {cache_sizes()}",
        f"software: python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} platform={platform.platform()}",
        f"thread pins: {pins}",
    ]


def run_one(args) -> int:
    try:
        qswarm = import_qswarm()
    except ImportError as exc:
        return fail(str(exc))
    import bench
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{wl.name}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = bench.measure(wl, args.seed, args.seconds, bool(args.trace), str(workdir),
                               str(WORKDIR / f"spans-{wl.name}.csv"))
    finally:
        shutil.rmtree(workdir)

    print(f"workload: {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} qswarm={qswarm.__version__}")
    for line in machine_context() + result["report"]:
        print(line)
    for name, value in result["metrics"].items():
        print(f"{name}: {value:.10g} {result['units'][name]}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    if not (ROOT / "src" / "qswarm" / "__init__.py").is_file():
        return fail(f"no qswarm package under {ROOT / 'src'}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with status {proc.returncode}")
        print("\n".join(lines[:-1]))
        print()
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
