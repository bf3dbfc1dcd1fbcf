"""The benchmark's four workloads.

Each workload turns a seed into scenario text, sets up from that text
through qswarm's public calls, runs one timed solve, and checks the
solve's output against ground truth.  Calls into qswarm go through module
attributes (``dynamics.step_stochastic``, never a name bound at import
time), so that the tracer's wrappers see them.

A solve appends the wall seconds of each operation it times to
``op_times``.  In a traced run it also appends one record per operation to
``probe``, for the layer counters that only the state shows.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy import stats

from qswarm import dynamics, frames, lattice, measure, oracle, scenario, swarm
from qswarm.cli import step_rng

clock = time.perf_counter


@dataclass
class Context:
    """What set-up hands to the solve and the check."""

    sc: scenario.Scenario
    psi0: oracle.ComplexField
    V: dynamics.PotentialField
    state: swarm.SwarmState | None = None
    extra: object = None


class PacketStochastic:
    """Acceptance-2 packet: 1D, 256 periodic cells, K = 1e6, dt_phot = 2."""

    name = "packet-stochastic"
    max_error = 0.05  # the acceptance-2 bound

    def scenario_text(self, seed: int) -> str:
        return (
            "lattice.dims = 256\n"
            "lattice.boundary = periodic\n"
            "initial.kind = gaussian\n"
            "initial.width = 8\n"
            "potential.kind = zero\n"
            "step.dt = 0.1\n"
            "step.dt_phot = 2.0\n"
            "run.mode = stochastic\n"
            f"run.duration = {float(np.sqrt(3.0) * 8.0**2)!r}\n"  # the width doubles
            "run.samples = 1000000\n"
            f"run.seed = {seed}\n"
        )

    def setup(self, text: str, workdir: str) -> Context:
        sc = scenario.load_scenario(text, self.name)
        psi0 = scenario.build_initial(sc)
        V = scenario.build_potential(sc)
        # the budget of acceptance 2: A = K / sum|psi0|
        sc.step.A = sc.samples / float(np.abs(psi0.psi).sum())
        state = swarm.sample_from_wavefunction(
            psi0.psi, sc.lattice, sc.samples, step_rng(sc.seed, 0))
        return Context(sc, psi0, V, state)

    def solve(self, ctx: Context, op_times: list, probe: list | None = None):
        sc, V = ctx.sc, ctx.V
        state = ctx.state
        for k in range(1, sc.steps + 1):
            rng = step_rng(sc.seed, k)
            t0 = clock()
            state = dynamics.step_stochastic(state, V, sc.step, rng)
            op_times.append(clock() - t0)
            if probe is not None:
                cohorts = state.photons["p0"]
                probe.append((len(cohorts), sum(float(c.counts.sum()) for c in cohorts),
                              state.scale["p0"]))
        return state

    def check(self, ctx: Context, out) -> tuple[bool, str]:
        sc = ctx.sc
        psi, _ = swarm.reconstruct_wavefunction(out)
        ref = oracle.reference_evolve(ctx.psi0, ctx.V, sc.steps * sc.step.dt, 0.05)
        err = oracle.density_error(psi, ref)
        return err <= self.max_error, f"density_error={err:.4g} (bound {self.max_error})"

    def same(self, a, b) -> bool:
        return np.array_equal(a.fields["p0"], b.fields["p0"]) and a.scale == b.scale

    def layer_metrics(self, ctx: Context, out, probe: list, table: dict) -> dict:
        rec = np.asarray(probe[:ctx.sc.steps], dtype=float)  # the first traced solve
        scales = np.concatenate([[ctx.state.scale["p0"]], rec[:, 2]])
        return {
            "swarm.population": out.population(),
            "dynamics.cohorts_in_flight": float(rec[:, 0].mean()),
            "dynamics.photon_samples": float(rec[:, 1].mean()),
            "swarm.resample_factor": float(np.mean(scales[1:] / scales[:-1])),
        }


class MeanField3D:
    """64^3 reflecting box, Gaussian with momentum, a FRAME every 50 steps."""

    name = "meanfield-3d"
    max_error = 1e-3
    bytes_per_cell = 9 * 8  # read 4 fields and V, write 4 fields, float64

    def scenario_text(self, seed: int) -> str:
        return (
            "lattice.dims = 64 64 64\n"
            "lattice.boundary = reflecting\n"
            "initial.kind = gaussian\n"
            "initial.width = 4\n"
            "initial.momentum = 0.3 0 0\n"
            "potential.kind = box\n"
            "potential.width = 48\n"
            "potential.v0 = 1\n"
            "step.dt = 0.1\n"
            "run.mode = meanfield\n"
            "run.steps = 200\n"
            "output.every = 50\n"
            f"run.seed = {seed}\n"
        )

    def setup(self, text: str, workdir: str) -> Context:
        sc = scenario.load_scenario(text, self.name)
        psi0 = scenario.build_initial(sc)
        V = scenario.build_potential(sc)
        state = swarm.sample_from_wavefunction(
            psi0.psi, sc.lattice, sc.samples, step_rng(sc.seed, 0), deterministic=True)
        return Context(sc, psi0, V, state, extra=workdir)

    def _emit(self, ctx: Context, state, k: int) -> str:
        psi, _ = swarm.reconstruct_wavefunction(state, "p0")
        path = os.path.join(ctx.extra, f"density_{k:06d}.frame")
        frames.write_frame(path, np.abs(psi) ** 2, k * ctx.sc.step.dt)
        return path

    def solve(self, ctx: Context, op_times: list, probe: list | None = None):
        """Steps and frames as ``qswarm run`` makes them: frame 0, then every 50."""
        sc, V, p = ctx.sc, ctx.V, ctx.sc.step
        state = ctx.state
        paths = [self._emit(ctx, state, 0)]
        for k in range(1, sc.steps + 1):
            t0 = clock()
            state = dynamics.step_meanfield(state, V, p)
            op_times.append(clock() - t0)
            if k % sc.output_every == 0 or k == sc.steps:
                paths.append(self._emit(ctx, state, k))
        return state, paths

    def check(self, ctx: Context, out) -> tuple[bool, str]:
        state, paths = out
        sc = ctx.sc
        T = sc.steps * sc.step.dt
        H = oracle.hamiltonian(sc.lattice, ctx.V).tocsr().astype(complex)
        exact = spla.expm_multiply(-1j * T * H, ctx.psi0.psi.ravel())
        psi, _ = swarm.reconstruct_wavefunction(state)
        err = oracle.density_error(psi.ravel(), exact)
        last = frames.read_frame(paths[-1])
        frame_ok = len(paths) == 5 and np.array_equal(last.values, np.abs(psi) ** 2)
        return (err <= self.max_error and frame_ok,
                f"density_error={err:.4g} (bound {self.max_error}) frames_ok={frame_ok}")

    def same(self, a, b) -> bool:
        return np.array_equal(a[0].fields["p0"], b[0].fields["p0"])

    def layer_metrics(self, ctx: Context, out, probe: list, table: dict) -> dict:
        calls, incl, _ = table.get("dynamics.step_meanfield", (0, 0.0, 0.0))
        step_s = incl / calls
        return {
            "swarm.population": out[0].population(),
            "dynamics.meanfield_gbps_computed":
                self.bytes_per_cell * ctx.sc.lattice.ncells / step_s / 1e9,
            "frames.write_frame.bytes": float(sum(os.path.getsize(p) for p in out[1])),
        }


class GreenRelax:
    """Acceptance-7 relaxation: 33^3 absorbing lattice, unit central source."""

    name = "green-relax"
    tol = 1e-9
    max_fit_dev = 0.10
    bytes_per_cell = 4 * 8  # read F, source and absorption, write F, float64

    def scenario_text(self, seed: int) -> str:
        return (
            "lattice.dims = 33 33 33\n"
            "lattice.boundary = absorbing\n"
            "initial.kind = delta\n"
            "potential.kind = zero\n"
            "potential.charge = 1\n"
            "potential.stay_prob = 0.5\n"
            "potential.relax_steps = 20000\n"
            "step.dt = 1\n"
            f"run.seed = {seed}\n"
        )

    def setup(self, text: str, workdir: str) -> Context:
        sc = scenario.load_scenario(text, self.name)
        psi0 = scenario.build_initial(sc)  # a unit delta at the centre cell
        V = scenario.build_potential(sc)  # zero: no bulk absorption
        source = lattice.FieldGrid(sc.lattice, sc.potential_params["charge"] * psi0.density())
        return Context(sc, psi0, V, extra=source)

    def solve(self, ctx: Context, op_times: list, probe: list | None = None):
        """One ``relax_to_green`` call; an operation is one sweep.

        The sweeps run inside the call, so each is timed as the interval
        between successive entries into ``lattice.diffuse_field``, which
        every sweep calls once.  The last sweep ends when the call returns.
        """
        p = ctx.sc.potential_params
        stamps: list[float] = []
        inner = lattice.diffuse_field

        def clocked(*args, **kwargs):
            stamps.append(clock())
            return inner(*args, **kwargs)

        lattice.diffuse_field = clocked
        try:
            res = lattice.relax_to_green(ctx.extra, ctx.V.grid, p["stay_prob"],
                                         p["relax_steps"], tol=self.tol)
        finally:
            stamps.append(clock())
            lattice.diffuse_field = inner
        op_times.extend(np.diff(stamps).tolist())
        return res

    def check(self, ctx: Context, out) -> tuple[bool, str]:
        dev = radial_fit_deviation(out.field.values, 3, 8)
        ok = out.converged and dev <= self.max_fit_dev
        return ok, (f"converged={out.converged} iterations={out.iterations} "
                    f"fit_dev={dev:.4g} (bound {self.max_fit_dev})")

    def same(self, a, b) -> bool:
        return a.iterations == b.iterations and np.array_equal(a.field.values, b.field.values)

    def layer_metrics(self, ctx: Context, out, probe: list, table: dict) -> dict:
        calls, incl, _ = table.get("lattice.relax_to_green", (0, 0.0, 0.0))
        sweep_s = incl / (calls * out.iterations)
        return {
            "lattice.relax_to_green.iterations": float(out.iterations),
            "lattice.relax_to_green.sweep_us": sweep_s * 1e6,
            "lattice.sweep_gbps_computed":
                self.bytes_per_cell * ctx.sc.lattice.ncells / sweep_s / 1e9,
        }


class BornUrn:
    """``qswarm born-test``: 10^4 position measurements of one fixed swarm."""

    name = "born-urn"
    draws = 10**4
    min_p = 0.001

    def scenario_text(self, seed: int) -> str:
        return (
            "lattice.dims = 256\n"
            "lattice.boundary = periodic\n"
            "initial.kind = gaussian\n"
            "initial.width = 8\n"
            "initial.momentum = 0.5\n"
            "step.dt = 0.1\n"
            "run.samples = 100000\n"
            f"run.seed = {seed}\n"
        )

    def setup(self, text: str, workdir: str) -> Context:
        sc = scenario.load_scenario(text, self.name)
        psi0 = scenario.build_initial(sc)
        q = measure.AmplitudeQuantum.for_lattice(sc.lattice.ncells)  # eps = 1/16
        base = swarm.sample_from_wavefunction(
            psi0.psi, sc.lattice, sc.samples, step_rng(sc.seed, 0), deterministic=True)
        return Context(sc, psi0, None, base, extra=q)

    def solve(self, ctx: Context, op_times: list, probe: list | None = None):
        seed, q, base = ctx.sc.seed, ctx.extra, ctx.state
        cells = []
        for k in range(self.draws):
            rng = step_rng(seed, k + 1)
            t0 = clock()
            cell, _ = measure.measure_swarm(base, q, rng)
            op_times.append(clock() - t0)
            cells.append(cell)
        return np.ravel_multi_index(np.array(cells).T, ctx.sc.lattice.dims)

    def _urn(self, ctx: Context):
        reduced = measure.reduce_state(measure.swarm_discrete_state(ctx.state), ctx.extra)
        return reduced.labels, measure.elementary_event_counts(reduced, ctx.extra)

    def check(self, ctx: Context, out) -> tuple[bool, str]:
        """Chi-square of the draws against the urn's own weights."""
        labels, events = self._urn(ctx)
        where = {label: i for i, label in enumerate(labels)}
        if not all(int(c) in where for c in out):
            return False, "a draw landed outside the reduced state's labels"
        observed = np.bincount([where[int(c)] for c in out], minlength=len(labels))
        _, pval = stats.chisquare(observed, events / events.sum() * len(out))
        return pval > self.min_p, f"chi2 p={pval:.4g} (bound > {self.min_p})"

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def layer_metrics(self, ctx: Context, out, probe: list, table: dict) -> dict:
        labels, events = self._urn(ctx)
        return {
            "swarm.population": ctx.state.population(),
            "measure.labels_kept": float(len(labels)),
            "measure.urn_events": float(events.sum()),
        }


def radial_fit_deviation(F: np.ndarray, rlo: int, rhi: int) -> float:
    """Largest relative deviation of the shell-averaged field from C/r + D.

    Shells are |r - R| < 1/2 around the centre cell, for R = rlo..rhi.
    """
    grids = np.meshgrid(*[np.arange(n) - n // 2 for n in F.shape], indexing="ij")
    r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    radii = np.arange(rlo, rhi + 1, dtype=float)
    prof = np.array([F[(r >= R - 0.5) & (r < R + 0.5)].mean() for R in radii])
    A = np.stack([1.0 / radii, np.ones_like(radii)], axis=1)
    (C, D), *_ = np.linalg.lstsq(A, prof, rcond=None)
    fit = C / radii + D
    return float(np.max(np.abs(prof - fit) / fit))


WORKLOADS = {w.name: w for w in (PacketStochastic(), MeanField3D(), GreenRelax(), BornUrn())}
