"""Scenario runner and reporting.

Subcommands:

    qswarm run <config>            evolve and emit FRAME files + summary
    qswarm born-test <config>      Born-rule measurement statistics
    qswarm green-test <config>     diffusion-equilibrium Coulomb check
    qswarm bench <config>          O(n N) step-time scaling table
    qswarm compare <A> <B>         density distance of two FRAME files

Common flags: --seed, --out, --mode.  The default output
directory can also be set with the QSWARM_OUT environment variable.
Reports are plain text, one ``KEY: value`` per line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time as _time

import numpy as np
from scipy import stats as sstats

from . import __version__
from .dynamics import PotentialField, step_meanfield, step_stochastic
from .errors import ConfigError, QswarmError
from .frames import read_frame, write_frame
from .lattice import FieldGrid, LatticeSpec, relax_to_green
from .measure import (AmplitudeQuantum, elementary_event_counts, measure_swarm,
                      reduce_state, swarm_discrete_state)
from .oracle import density_error, reference_evolve
from .scenario import Scenario, build_initial, build_potential, load_scenario_file
from .swarm import reconstruct_wavefunction, sample_from_wavefunction


def step_rng(seed: int, step: int):
    """Deterministic per-step random stream derived from (seed, step)."""
    return np.random.default_rng([int(seed), int(step)])


def _outdir(args) -> str:
    out = args.out or os.environ.get("QSWARM_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_pgm(path, values: np.ndarray) -> None:
    """Grayscale portable graymap export of a 2D field."""
    v = np.asarray(values, dtype=float)
    top = v.max()
    img = np.zeros_like(v, dtype=int) if top <= 0 else np.rint(v / top * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{v.shape[1]} {v.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def _emit(outdir, tag, index, values, t, scenario):
    write_frame(os.path.join(outdir, f"{tag}_{index:06d}.frame"), values, t)
    if scenario.output_pgm and values.ndim == 2:
        _write_pgm(os.path.join(outdir, f"{tag}_{index:06d}.pgm"), values)


def run(scenario: Scenario, outdir: str) -> dict:
    """Evolve a scenario and write the frame sequence plus a summary."""
    spec = scenario.lattice
    psi0 = build_initial(scenario)
    V = build_potential(scenario)
    p = scenario.step
    mode = scenario.mode
    every = scenario.output_every

    frames = 0
    wall = 0.0

    def emit(index, density, t, state=None):
        nonlocal frames
        _emit(outdir, "density", index, density, t, scenario)
        if scenario.output_types and state is not None:
            for pid in state.particles():
                for j in range(4):
                    _emit(outdir, f"{pid}_type{j + 1}", index, state.fields[pid][j], t, scenario)
        frames += 1

    if mode == "oracle":
        psi = psi0
        emit(0, psi.density(), 0.0)
        t0 = _time.perf_counter()
        for k in range(1, scenario.steps + 1):
            psi = reference_evolve(psi, V, p.dt, p.dt)
            if k % every == 0 or k == scenario.steps:
                emit(k, psi.density(), k * p.dt)
        wall = _time.perf_counter() - t0
        norm = float(np.linalg.norm(psi.psi))
        population = 0.0
    else:
        rng0 = step_rng(scenario.seed, 0)
        deterministic = mode == "meanfield"
        state = sample_from_wavefunction(
            psi0.psi, spec, scenario.samples, rng0, deterministic=deterministic)
        psi, _ = reconstruct_wavefunction(state, "p0")
        emit(0, np.abs(psi) ** 2, 0.0, state)
        t0 = _time.perf_counter()
        for k in range(1, scenario.steps + 1):
            if deterministic:
                state = step_meanfield(state, V, p)
            else:
                state = step_stochastic(state, V, p, step_rng(scenario.seed, k))
            if k % every == 0 or k == scenario.steps:
                psi, _ = reconstruct_wavefunction(state, "p0")
                emit(k, np.abs(psi) ** 2, k * p.dt, state)
        wall = _time.perf_counter() - t0
        _, norm = reconstruct_wavefunction(state, "p0")
        population = state.population()

    nsteps = max(1, scenario.steps)
    return {
        "MODE": mode,
        "STEPS": scenario.steps,
        "FRAMES": frames,
        "FINAL_NORM": f"{norm:.9g}",
        "POPULATION": f"{population:.9g}",
        "WALL_PER_STEP": f"{wall / nsteps:.6g}",
    }


def born_test(scenario: Scenario, draws: int, outdir: str) -> dict:
    """Repeated position measurement of fresh swarm copies; urn statistics.

    Draws are scored against the urn weights l_j / sum(l) that
    :func:`born_measure` samples, not against the undiscretised |lambda_j|^2.
    """
    if draws < 1000:
        raise ConfigError("born-test needs draws >= 1000")
    spec = scenario.lattice
    psi0 = build_initial(scenario)
    q = AmplitudeQuantum.for_lattice(spec.ncells)
    rng = step_rng(scenario.seed, 0)
    base = sample_from_wavefunction(psi0.psi, spec, scenario.samples, rng,
                                    deterministic=True)
    reduced = reduce_state(swarm_discrete_state(base), q)
    labels = reduced.labels
    events = elementary_event_counts(reduced, q)
    theory = events / events.sum()

    counts: dict[int, int] = {}
    with open(os.path.join(outdir, "meas.log"), "w") as log:
        for k in range(draws):
            cell, _ = measure_swarm(base, q, step_rng(scenario.seed, k + 1))
            flat = int(np.ravel_multi_index(cell, spec.dims))
            counts[flat] = counts.get(flat, 0) + 1
            pt = theory[labels.index(flat)] if flat in labels else 0.0
            log.write(f"MEAS {k} {flat} {pt:.9g}\n")

    observed = np.array([counts.get(l, 0) for l in labels], dtype=float)
    chi2, pval = sstats.chisquare(observed, theory * draws)
    report = {
        "DRAWS": draws,
        "LABELS": len(labels),
        "CHI2": f"{chi2:.6g}",
        "P_VALUE": f"{pval:.6g}",
    }
    for l, obs, th in zip(labels, observed, theory):
        freq = obs / draws
        sd = np.sqrt(th * (1 - th) / draws)
        z = 0.0 if sd == 0 else (freq - th) / sd
        report[f"LABEL_{l}"] = f"freq={freq:.6g} theory={th:.6g} z={z:+.3f}"
    return report


def radial_profile(values: np.ndarray, rmax: int):
    """Shell-averaged intensity around the array center for r = 1..rmax."""
    dims = values.shape
    center = [n // 2 for n in dims]
    grids = np.meshgrid(*[np.arange(n) - c for n, c in zip(dims, center)],
                        indexing="ij")
    r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    radii = np.arange(1, rmax + 1)
    prof = np.empty(len(radii))
    for i, rr in enumerate(radii):
        shell = (r >= rr - 0.5) & (r < rr + 0.5)
        prof[i] = values[shell].mean()
    return radii, prof


def green_test(scenario: Scenario, outdir: str, tol: float = 1e-7) -> dict:
    """Relax a central point source to equilibrium and test the 1/r law."""
    spec = scenario.lattice
    if spec.ndim != 3:
        raise ConfigError("green-test needs a 3D lattice")
    source = np.zeros(spec.dims)
    source[tuple(n // 2 for n in spec.dims)] = scenario.potential_params["charge"]
    res = relax_to_green(
        FieldGrid(spec, source), FieldGrid(spec),
        scenario.potential_params["stay_prob"],
        scenario.potential_params["relax_steps"], tol=tol,
    )
    report = {"CONVERGED": res.converged, "ITERATIONS": res.iterations}

    rhi = 8
    max_r = min(spec.dims) // 2 - 1
    if max_r < rhi:
        report["WARNING"] = "window truncated"
        rhi = max_r
    rlo = min(3, rhi)
    if not source.any() or res.field.values.max() == 0.0:
        report["MAX_REL_DEV"] = "0"
        return report

    radii, prof = radial_profile(res.field.values, rhi)
    window = (radii >= rlo) & (radii <= rhi)
    rw, fw = radii[window].astype(float), prof[window]
    if rw.size >= 2:
        # log-log slope of the radial falloff
        slope, intercept = np.polyfit(np.log(rw), np.log(fw), 1)
        # Coulomb fit F = C/r + D (D absorbs the grounded-boundary image term)
        Amat = np.stack([1.0 / rw, np.ones_like(rw)], axis=1)
        (C, D), *_ = np.linalg.lstsq(Amat, fw, rcond=None)
        fit = C / rw + D
        report["EXPONENT"] = f"{slope:.4f}"
        report["COULOMB_C"] = f"{C:.6g}"
        report["MAX_REL_DEV"] = f"{float(np.max(np.abs(fw - fit) / fit)):.6g}"
    for rr, ff in zip(radii, prof):
        report[f"PROFILE_R{rr}"] = f"{ff:.9g}"
    write_frame(os.path.join(outdir, "green.frame"), res.field.values, 0.0)
    return report


def bench_scaling(scenario: Scenario, particle_counts, steps: int = 10) -> dict:
    """Wall time per stochastic step for n independent identical particles."""
    if not particle_counts:
        raise ConfigError("bench needs a non-empty particle list")
    if min(particle_counts) < 1:
        raise ConfigError(f"bench particle counts must be >= 1, got {particle_counts}")
    if steps < 1:
        raise ConfigError(f"bench needs steps >= 1, got {steps}")
    spec = scenario.lattice
    psi0 = build_initial(scenario)
    V = build_potential(scenario)
    p = scenario.step
    times = []
    for n in particle_counts:
        rng = step_rng(scenario.seed, 0)
        state = sample_from_wavefunction(psi0.psi, spec, scenario.samples, rng, pid="p0")
        for j in range(1, n):
            extra = sample_from_wavefunction(psi0.psi, spec, scenario.samples, rng,
                                             pid=f"p{j}")
            state.add_particle(f"p{j}", extra.fields[f"p{j}"], extra.scale[f"p{j}"])
        state = step_stochastic(state, V, p, step_rng(scenario.seed, 0))  # warm-up
        t0 = _time.perf_counter()
        for k in range(1, steps + 1):
            state = step_stochastic(state, V, p, step_rng(scenario.seed, k))
        times.append((_time.perf_counter() - t0) / steps)

    ns = np.asarray(particle_counts, dtype=float)
    ts = np.asarray(times)
    report = {"N_CELLS": spec.ncells, "STEPS": steps}
    for n, t in zip(particle_counts, times):
        report[f"TIME_N{n}"] = f"{t:.6g}"
    if len(ns) >= 2:
        coef = np.polyfit(ns, ts, 1)
        pred = np.polyval(coef, ns)
        ss_res = float(np.sum((ts - pred) ** 2))
        ss_tot = float(np.sum((ts - ts.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        report["LINEAR_R2"] = f"{r2:.6f}"
        report["SLOPE"] = f"{coef[0]:.6g}"
    return report


def compare(path_a, path_b) -> dict:
    fa, fb = read_frame(path_a), read_frame(path_b)
    err = density_error(FieldGrid(LatticeSpec(fa.dims), fa.values),
                        FieldGrid(LatticeSpec(fb.dims), fb.values))
    return {"DENSITY_ERROR": f"{err:.9g}"}


def _print_report(report: dict) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")


def _load(args) -> Scenario:
    scenario = load_scenario_file(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        scenario.seed = args.seed
    if getattr(args, "mode", None):
        scenario.mode = args.mode
    return scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qswarm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mode_flag=True):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        if mode_flag:
            sp.add_argument("--mode", choices=("meanfield", "stochastic", "oracle"),
                            default=None)

    sp = sub.add_parser("run", help="evolve a scenario, emit FRAME files")
    sp.add_argument("config")
    common(sp)

    sp = sub.add_parser("born-test", help="Born-rule measurement statistics")
    sp.add_argument("config")
    sp.add_argument("--draws", type=int, default=10000)
    common(sp, mode_flag=False)

    sp = sub.add_parser("green-test", help="Coulomb / Green-function check")
    sp.add_argument("config")
    common(sp, mode_flag=False)

    sp = sub.add_parser("bench", help="O(nN) step-time scaling")
    sp.add_argument("config")
    sp.add_argument("--particles", default="1,2,4,8")
    sp.add_argument("--steps", type=int, default=10)
    common(sp, mode_flag=False)

    sp = sub.add_parser("compare", help="density distance of two FRAME files")
    sp.add_argument("frame_a")
    sp.add_argument("frame_b")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _print_report(run(_load(args), _outdir(args)))
        elif args.command == "born-test":
            _print_report(born_test(_load(args), args.draws, _outdir(args)))
        elif args.command == "green-test":
            _print_report(green_test(_load(args), _outdir(args)))
        elif args.command == "bench":
            try:
                counts = [int(x) for x in args.particles.replace(",", " ").split()]
            except ValueError as exc:
                raise ConfigError(
                    f"--particles needs integers, got {args.particles!r}") from exc
            _print_report(bench_scaling(_load(args), counts, args.steps))
        elif args.command == "compare":
            _print_report(compare(args.frame_a, args.frame_b))
    except QswarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
