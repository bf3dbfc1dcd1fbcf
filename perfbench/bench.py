"""One benchmark run of one workload: set-up, timed solves, checks, metrics.

An untraced run (``trace=False``) reports the end-to-end metrics.  A traced
run splits its time between untraced and traced solves and reports the
per-layer metrics, the tracing overhead and the exact counters.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback

import numpy as np

from tracer import Tracer

clock = time.perf_counter

SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 9, 1000, 1.0
TRACED_SETUPS = 3
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
MIN_COVERAGE = 0.5

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span name, statistic); statistic is one of
#   calls_per_op  calls per operation in the traced solves
#   ms            mean inclusive milliseconds per call
#   self_ms       mean self milliseconds per call
#   calls         calls per solve
#   setup_ms      mean inclusive milliseconds per call in the traced set-ups
# Metrics with span name None come from the workload or the run itself.
PER_LAYER = {
    "op_p50_ms": ("ms", None, None),
    "op_tail_ms": ("ms", None, None),
    "dynamics.step_stochastic.ms": ("ms", "dynamics.step_stochastic", "ms"),
    "dynamics.step_stochastic.self_ms": ("ms", "dynamics.step_stochastic", "self_ms"),
    "swarm.copy.calls_per_op": ("count", "swarm.SwarmState.copy", "calls_per_op"),
    "swarm.copy.ms": ("ms", "swarm.SwarmState.copy", "ms"),
    "swarm.cancel_pairs.calls_per_op": ("count", "swarm.cancel_pairs", "calls_per_op"),
    "swarm.cancel_pairs.ms": ("ms", "swarm.cancel_pairs", "ms"),
    "swarm.resample.ms": ("ms", "swarm.resample", "ms"),
    "swarm.resample_factor": ("ratio", None, None),
    "swarm.population": ("count", None, None),
    "dynamics.cohorts_in_flight": ("count", None, None),
    "dynamics.photon_samples": ("count", None, None),
    "lattice.field_laplacian.calls_per_op": ("count", "lattice.field_laplacian", "calls_per_op"),
    "lattice.field_laplacian.ms": ("ms", "lattice.field_laplacian", "ms"),
    "dynamics.step_meanfield.ms": ("ms", "dynamics.step_meanfield", "ms"),
    "dynamics.step_meanfield.self_ms": ("ms", "dynamics.step_meanfield", "self_ms"),
    "dynamics.meanfield_update.self_ms": ("ms", "dynamics.meanfield_update", "self_ms"),
    "dynamics.meanfield_gbps_computed": ("GB/s", None, None),
    "frames.write_frame.calls": ("count", "frames.write_frame", "calls"),
    "frames.write_frame.ms": ("ms", "frames.write_frame", "ms"),
    "frames.write_frame.bytes": ("B", None, None),
    "lattice.relax_to_green.iterations": ("count", None, None),
    "lattice.relax_to_green.sweep_us": ("us", None, None),
    "lattice.diffuse_field.ms": ("ms", "lattice.diffuse_field", "ms"),
    "lattice.sweep_gbps_computed": ("GB/s", None, None),
    "measure.measure_swarm.ms": ("ms", "measure.measure_swarm", "ms"),
    "measure.reduce_state.ms": ("ms", "measure.reduce_state", "ms"),
    "measure.swarm_discrete_state.ms": ("ms", "measure.swarm_discrete_state", "ms"),
    "measure.born_measure.ms": ("ms", "measure.born_measure", "ms"),
    "measure.labels_kept": ("count", None, None),
    "measure.urn_events": ("count", None, None),
    "scenario.load_scenario.ms": ("ms", "scenario.load_scenario", "setup_ms"),
    "scenario.build_initial.ms": ("ms", "scenario.build_initial", "setup_ms"),
    "scenario.build_potential.ms": ("ms", "scenario.build_potential", "setup_ms"),
    "swarm.sample_from_wavefunction.ms": ("ms", "swarm.sample_from_wavefunction", "setup_ms"),
    "oracle.check_s": ("s", None, None),
    "trace.run_s": ("s", None, None),
    "trace.untraced_run_s": ("s", None, None),
    "trace.overhead_s": ("s", None, None),
    "trace.coverage": ("ratio", None, None),
    "trace.spans_per_op": ("count", None, None),
}
# self seconds per solve, summed over each layer's spans
PER_LAYER.update({f"{layer}.self_s": ("s", None, None)
                  for layer in ("lattice", "swarm", "dynamics", "measure", "frames",
                                "scenario", "oracle")})
PER_LAYER["trace.unattributed_s"] = ("s", None, None)


def tail_percentile(ops_per_solve: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in one solve.

    Fixed by the solve's size, so every run of a workload reports the same
    percentile however many solves fit in its time.
    """
    for pct in TAIL_LADDER:
        if ops_per_solve * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return 50.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Solves of one workload in one process, with their checks."""

    def __init__(self, wl, ctx):
        self.wl, self.ctx = wl, ctx
        self.first = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def solves(self, budget_s: float, tracer: Tracer | None = None, probe=None):
        """Solve repeatedly until ``budget_s`` has passed; at least once.

        Returns (run seconds per solve, op seconds per solve).  A solve
        that raises counts as failed and ends the phase; a solve whose
        output differs from the first solve's output counts as failed,
        since the input is the same.
        """
        run_s, ops = [], []
        start = clock()
        while not run_s or clock() - start < budget_s:
            op_times: list[float] = []
            self.attempted += 1
            if tracer is not None:
                tracer.solve += 1
            t0 = clock()
            try:
                out = self.wl.solve(self.ctx, op_times, probe)
            except Exception:  # the same input raises again: stop solving
                self.failed += 1
                self.errors.append(traceback.format_exc())
                break
            run_s.append(clock() - t0)
            ops.append(op_times)
            if self.first is None:
                self.first = out
            elif not self.wl.same(self.first, out):
                self.failed += 1
                self.errors.append("output differs from the first solve's output")
        return run_s, ops

    def check(self):
        """Full check of the first output; a failure fails every solve."""
        if self.first is None:
            return False, "no solve completed", 0.0
        t0 = clock()
        try:
            ok, detail = self.wl.check(self.ctx, self.first)
        except Exception:
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed = self.attempted
        return ok, detail, clock() - t0


def op_stats(ops: list[list[float]]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): per solve, then the median over solves."""
    pct = tail_percentile(len(ops[0]))
    per_solve = np.array([np.percentile(o, [50, pct]) for o in ops]) * 1e3
    return float(np.median(per_solve[:, 0])), float(np.median(per_solve[:, 1])), pct


def op_report(ops: list[list[float]]) -> list[str]:
    p50, tail, pct = op_stats(ops)
    return [f"op_p50_ms: {p50:.6g} ms", f"op_tail_ms: {tail:.6g} ms (p{pct:g} of each "
            f"solve's {len(ops[0])} operations, median over {len(ops)} solves)"]


def setup_times(wl, text: str, workdir: str):
    """Set up repeatedly; returns (seconds per set-up, last context)."""
    times = []
    ctx = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        t0 = clock()
        ctx = wl.setup(text, workdir)
        times.append(clock() - t0)
    return times, ctx


def measure(wl, seed: int, seconds: float, trace: bool, workdir: str,
            spans_path: str) -> dict:
    """One run; returns a dict with the result fields and a report.

    Frames go to ``workdir``; a traced run writes one solve's spans to
    ``spans_path``.
    """
    text = wl.scenario_text(seed)
    report: list[str] = []
    setups, ctx = setup_times(wl, text, workdir)
    run = Run(wl, ctx)
    if not trace:
        run_s, ops = run.solves(seconds)
        rss = peak_rss_mb()
        ok, detail, check_s = run.check()
        metrics = {}
        report.append("solve seconds: " + " ".join(f"{t:.4f}" for t in run_s))
        if run_s:
            metrics = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(run_s),
                "peak_rss_mb": rss,
            }
            report.extend(op_report(ops))
        report.append(f"setups: {len(setups)}; solves: {len(run_s)}; "
                      f"check ({check_s:.2f} s): {'PASS' if ok else 'FAIL'} {detail}")
        units = END_TO_END
    else:
        metrics, lines = traced_metrics(wl, text, workdir, run, seconds, spans_path)
        report.extend(lines)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
    report.append(f"fail_ratio: {run.failed}/{run.attempted} = "
                  f"{run.failed / max(run.attempted, 1):.4g}")
    for err in run.errors[:3]:
        report.append("error: " + err.strip().replace("\n", "\n  "))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "units": units,
        "report": report,
    }


def traced_metrics(wl, text, workdir, run: Run, seconds: float, spans_path: str):
    """Half the time untraced, half traced; per-layer metrics from the spans."""
    lines = []
    tracer = Tracer()
    with tracer:
        for _ in range(TRACED_SETUPS):
            wl.setup(text, workdir)
    setup_table = tracer.aggregate()
    tracer.clear()

    plain_s, plain_ops = run.solves(seconds / 2)
    probe: list = []
    with tracer:
        traced_s, traced_ops = run.solves(seconds / 2, tracer, probe)
    ok, detail, check_s = run.check()
    lines.append(f"solves: {len(plain_s)} untraced, {len(traced_s)} traced; "
                 f"check ({check_s:.2f} s): {'PASS' if ok else 'FAIL'} {detail}")
    if not traced_s or not plain_s:
        return {}, lines

    table = tracer.aggregate()
    n_solves = len(traced_s)
    n_ops = sum(len(o) for o in traced_ops)
    coverage = tracer.root_seconds() / sum(traced_s)
    if coverage < MIN_COVERAGE:
        run.failed = run.attempted
        run.errors.append(f"traced spans cover {coverage:.3f} of traced run_s, "
                          f"below {MIN_COVERAGE}")
    written = tracer.write(spans_path, solve=0)
    lines.append(f"wrote {written} spans of traced solve 0 to {spans_path}")

    def stat(name, kind):
        calls, incl, self_s = (setup_table if kind == "setup_ms" else table).get(
            name, (0, 0.0, 0.0))
        if calls == 0:
            return 0.0
        return {"calls_per_op": calls / n_ops, "ms": incl / calls * 1e3,
                "setup_ms": incl / calls * 1e3, "self_ms": self_s / calls * 1e3,
                "calls": calls / n_solves}[kind]

    metrics = {name: stat(span, kind) for name, (_, span, kind) in PER_LAYER.items() if span}
    metrics.update({name: 0.0 for name, (_, span, _) in PER_LAYER.items() if not span})
    metrics.update(wl.layer_metrics(run.ctx, run.first, probe, table))
    metrics["op_p50_ms"], metrics["op_tail_ms"], _ = op_stats(plain_ops)  # untraced
    layer_self = {}
    for name, (_, _, self_s) in table.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    for layer, total in layer_self.items():
        metrics[f"{layer}.self_s"] = total / n_solves
    traced_med, plain_med = statistics.median(traced_s), statistics.median(plain_s)
    metrics.update({
        "oracle.check_s": check_s,
        "trace.run_s": traced_med,
        "trace.untraced_run_s": plain_med,
        "trace.overhead_s": traced_med - plain_med,
        "trace.coverage": coverage,
        "trace.spans_per_op": len(tracer.spans) / n_ops,
        "trace.unattributed_s": (sum(traced_s) - tracer.root_seconds()) / n_solves,
    })

    lines.append(f"{'span':44s} {'calls/solve':>12s} {'incl s/solve':>13s} {'self s/solve':>13s}")
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:44s} {calls / n_solves:12.1f} {incl / n_solves:13.6f} "
                     f"{self_s / n_solves:13.6f}")
    return metrics, lines
