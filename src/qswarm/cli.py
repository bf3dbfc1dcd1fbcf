"""Scenario runner and reporting.

Subcommands:

    qswarm run <config>            evolve and emit FRAME files + summary
    qswarm born-test <config>      Born-rule measurement statistics
    qswarm green-test <config>     diffusion-equilibrium Coulomb check
    qswarm compare <A> <B>         density distance of two FRAME files

``born-test`` draws every label from one ``default_rng([seed, 1])`` stream.

Flags: --seed (run, born-test), --out (run, born-test, green-test;
default: the current directory), --mode (run).
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
from .dynamics import step_meanfield, step_stochastic
from .errors import ConfigError, QswarmError
from .frames import read_frame, write_frame
from .lattice import FieldGrid, relax_to_green
from .measure import (AmplitudeQuantum, born_measure, elementary_event_counts,
                      reduce_state, swarm_discrete_state)
from .oracle import density_error, reference_evolve
from .scenario import Scenario, build_initial, build_potential, load_scenario_file
from .swarm import reconstruct_wavefunction, sample_from_wavefunction

BORN_CHUNK = 2**16  # most labels born-test holds at once


def step_rng(seed: int, step: int):
    """Deterministic per-step random stream derived from (seed, step)."""
    return np.random.default_rng([int(seed), int(step)])


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_pgm(path, values: np.ndarray) -> None:
    """Grayscale portable graymap export of a 2D field."""
    v = np.asarray(values, dtype=float)
    top = v.max()
    img = np.zeros_like(v, dtype=int) if top <= 0 else np.rint(v / top * 255).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{v.shape[1]} {v.shape[0]}\n255\n")
        for row in img:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")


def run(scenario: Scenario, outdir: str) -> dict:
    """Evolve a scenario and write the frame sequence plus a summary.

    All modes share one loop over output intervals; a mode supplies only how
    it advances one interval and which fields it emits."""
    psi0 = build_initial(scenario)
    V = build_potential(scenario)
    p, mode = scenario.step, scenario.mode
    if mode == "oracle":
        state = psi0

        def advance(psi, k, n):  # one factorisation per output interval
            return reference_evolve(psi, V, n * p.dt, p.dt)

        def fields(psi):
            return {"density": psi.density()}
    else:
        deterministic = mode == "meanfield"
        state = sample_from_wavefunction(psi0.psi, scenario.lattice, scenario.samples,
                                         step_rng(scenario.seed, 0), deterministic=deterministic)

        def advance(state, k, n):
            for j in range(k + 1, k + n + 1):
                state = (step_meanfield(state, V, p) if deterministic
                         else step_stochastic(state, V, p, step_rng(scenario.seed, j)))
            return state

        def fields(state):
            psi, _ = reconstruct_wavefunction(state, "p0")
            out = {"density": np.abs(psi) ** 2}
            if scenario.output_types:
                out.update((f"{pid}_type{j + 1}", state.fields[pid][j])
                           for pid in state.particles() for j in range(4))
            return out

    def emit(k):
        for tag, values in fields(state).items():
            path = os.path.join(outdir, f"{tag}_{k:06d}")
            write_frame(path + ".frame", values, k * p.dt)
            if scenario.output_pgm:
                _write_pgm(path + ".pgm", values)

    emit(0)
    k, frames = 0, 1
    t0 = _time.perf_counter()
    while k < scenario.steps:
        n = min(scenario.output_every, scenario.steps - k)
        state = advance(state, k, n)
        k += n
        emit(k)
        frames += 1
    wall = _time.perf_counter() - t0
    if mode == "oracle":
        norm, population = float(np.linalg.norm(state.psi)), 0.0
    else:
        norm, population = reconstruct_wavefunction(state, "p0")[1], state.population()
    return {
        "MODE": mode,
        "STEPS": scenario.steps,
        "FRAMES": frames,
        "FINAL_NORM": f"{norm:.9g}",
        "POPULATION": f"{population:.9g}",
        "WALL_PER_STEP": f"{wall / max(1, scenario.steps):.6g}",
    }


def born_test(scenario: Scenario, draws: int, outdir: str) -> dict:
    """Repeated Born draws from the initial swarm's urn; urn statistics.

    The swarm is reduced once, and every draw comes from one stream,
    ``step_rng(seed, 1)``: draw k is the cell that the k-th successive
    :func:`measure_swarm` of the initial swarm on that stream returns.  The
    draws are taken ``BORN_CHUNK`` at a time.  They are scored against the
    urn weights l_j / sum(l), not against the undiscretised |lambda_j|^2.
    """
    if draws < 1000:
        raise ConfigError("born-test needs draws >= 1000")
    spec = scenario.lattice
    psi0 = build_initial(scenario)
    q = AmplitudeQuantum.for_lattice(spec.ncells)
    base = sample_from_wavefunction(psi0.psi, spec, scenario.samples,
                                    step_rng(scenario.seed, 0), deterministic=True)
    reduced = reduce_state(swarm_discrete_state(base), q)
    labels = reduced.labels
    events = elementary_event_counts(reduced, q)
    theory = events / events.sum()

    weight = dict(zip(labels.tolist(), theory))
    rng = step_rng(scenario.seed, 1)
    counts = np.zeros(spec.ncells, dtype=np.int64)
    with open(os.path.join(outdir, "meas.log"), "w") as log:
        for start in range(0, draws, BORN_CHUNK):
            cells = born_measure(reduced, q, rng, size=min(BORN_CHUNK, draws - start))
            counts += np.bincount(cells, minlength=spec.ncells)
            log.writelines(f"MEAS {k} {flat} {weight[flat]:.9g}\n"
                           for k, flat in enumerate(cells.tolist(), start))

    observed = counts[labels].astype(float)
    chi2, pval = sstats.chisquare(observed, theory * draws)  # p is nan for one label
    report = {
        "DRAWS": draws,
        "LABELS": len(labels),
        "CHI2": f"{chi2:.6g}",
        "P_VALUE": f"{pval if len(labels) > 1 else 1.0:.6g}",  # one label takes every draw
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


def coulomb_fit(r: np.ndarray, prof: np.ndarray) -> tuple[float, float, float]:
    """Fit a radial profile by C/r + D (D absorbs the grounded boundary's image
    term); return C, the largest relative deviation and the log-log slope of
    prof - D, which reads -1 where the 1/r law holds."""
    (C, D), *_ = np.linalg.lstsq(np.stack([1.0 / r, np.ones_like(r)], axis=1), prof, rcond=None)
    slope, _ = np.polyfit(np.log(r), np.log(prof - D), 1)
    fit = C / r + D
    return C, float(np.max(np.abs(prof - fit) / fit)), slope


def green_test(scenario: Scenario, outdir: str) -> dict:
    """Relax a central point source to equilibrium and test the 1/r law."""
    spec = scenario.lattice
    if spec.ndim != 3:
        raise ConfigError("green-test needs a 3D lattice")
    source = np.zeros(spec.dims)
    source[tuple(n // 2 for n in spec.dims)] = scenario.potential_params["charge"]
    res = relax_to_green(
        FieldGrid(spec, source), FieldGrid(spec),
        scenario.potential_params["stay_prob"],
        scenario.potential_params["relax_steps"], tol=1e-7,
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
    window = radii >= rlo
    if np.count_nonzero(window) >= 2:
        C, dev, slope = coulomb_fit(radii[window], prof[window])
        report["EXPONENT"] = f"{slope:.4f}"
        report["COULOMB_C"] = f"{C:.6g}"
        report["MAX_REL_DEV"] = f"{dev:.6g}"
    for rr, ff in zip(radii, prof):
        report[f"PROFILE_R{rr}"] = f"{ff:.9g}"
    write_frame(os.path.join(outdir, "green.frame"), res.field.values, 0.0)
    return report


def compare(path_a, path_b) -> dict:
    fa, fb = read_frame(path_a), read_frame(path_b)
    err = density_error(fa.values, fb.values)
    return {"DENSITY_ERROR": f"{err:.9g}"}


def _print_report(report: dict) -> None:
    for key, value in report.items():
        print(f"{key}: {value}")


def _load(args) -> Scenario:
    scenario = load_scenario_file(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        scenario.seed = seed
    if getattr(args, "mode", None):
        scenario.mode = args.mode
    return scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qswarm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="evolve a scenario, emit FRAME files")
    sp.add_argument("config")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=".")
    sp.add_argument("--mode", choices=("meanfield", "stochastic", "oracle"), default=None)

    sp = sub.add_parser("born-test", help="Born-rule measurement statistics")
    sp.add_argument("config")
    sp.add_argument("--draws", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=".")

    sp = sub.add_parser("green-test", help="Coulomb / Green-function check")
    sp.add_argument("config")
    sp.add_argument("--out", default=".")

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
        elif args.command == "compare":
            _print_report(compare(args.frame_a, args.frame_b))
    except QswarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
