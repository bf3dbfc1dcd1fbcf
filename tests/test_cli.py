"""Command-line entry points: runs, reports and file outputs."""

import re

import numpy as np
import pytest

from qswarm import read_frame, sample_from_wavefunction, scenario
from qswarm.cli import main


def write_cfg(tmp_path, text, name="scen.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GAUSS_1D = """
lattice.dims = 32
initial.kind = gaussian
initial.width = 4
step.dt = 0.1
run.steps = {steps}
run.samples = 20000
output.every = {every}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = {}
    for line in out.out.splitlines():
        key, _, value = line.partition(":")
        report[key.strip()] = value.strip()
    return code, report, out.err


def test_zero_steps_single_frame(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    code, report, _ = run_cli(capsys, "run", cfg, "--out", str(tmp_path))
    assert code == 0
    assert report["STEPS"] == "0"
    assert report["FRAMES"] == "1"
    fr = read_frame(tmp_path / "density_000000.frame")
    x = np.arange(32.0) - 15.5
    expect = np.exp(-(x**2) / 32)
    expect /= expect.sum()
    assert np.allclose(fr.values, expect, atol=1e-12)
    assert fr.time == 0.0


def test_run_meanfield_emits_frames(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=10, every=5))
    code, report, _ = run_cli(capsys, "run", cfg, "--out", str(tmp_path))
    assert code == 0
    assert report["MODE"] == "meanfield"
    assert report["FRAMES"] == "3"  # steps 0, 5, 10
    fr = read_frame(tmp_path / "density_000010.frame")
    assert fr.time == pytest.approx(1.0)
    assert fr.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert float(report["FINAL_NORM"]) == pytest.approx(1.0, rel=1e-3)


def test_run_stochastic_deterministic_given_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=5, every=5) + "step.A = 500\n")
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        code, _, _ = run_cli(capsys, "run", cfg, "--mode", "stochastic",
                             "--seed", "7", "--out", str(out))
        assert code == 0
        outs.append(read_frame(out / "density_000005.frame").values)
    assert np.array_equal(outs[0], outs[1])


def test_run_per_type_frames(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=1, every=1) + "output.types = true\n")
    code, _, _ = run_cli(capsys, "run", cfg, "--out", str(tmp_path))
    assert code == 0
    for j in range(1, 5):
        assert (tmp_path / f"p0_type{j}_000001.frame").exists()


def test_run_pgm_export(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "lattice.dims = 8 8\ninitial.kind = gaussian\ninitial.width = 2\n"
        "step.dt = 0.1\nrun.steps = 0\noutput.pgm = true\n",
    )
    code, _, _ = run_cli(capsys, "run", cfg, "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "density_000000.pgm").read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "8 8"
    assert lines[2] == "255"
    pixels = np.array([int(v) for row in lines[3:] for v in row.split()])
    assert pixels.size == 64 and pixels.max() == 255 and pixels.min() >= 0


def test_born_test_report(tmp_path, capsys):
    from qswarm import write_frame

    cases = [
        # uniform two-cell state: survives the 1/sqrt(N) quantum undistorted
        (np.array([1.0, 1.0]), {0: 0.5, 1: 0.5}),
        # at eps = 1/2 the urn weights rint(|lambda|^2 / eps^2) are (2, 1, 1),
        # so draws follow (0.5, 0.25, 0.25), not |lambda|^2 = (0.4, 0.3, 0.3)
        (np.sqrt([0.4, 0.3, 0.3, 0.0]), {0: 0.5, 1: 0.25, 2: 0.25}),
    ]
    for values, urn in cases:
        out = tmp_path / f"n{values.size}"
        out.mkdir()
        write_frame(out / "init.frame", values, 0.0)
        cfg = write_cfg(
            out,
            "lattice.dims = {n}\ninitial.kind = file\ninitial.file = {f}\n"
            "step.dt = 0.1\nrun.samples = 10000\n".format(n=values.size,
                                                          f=out / "init.frame"),
        )
        code, report, _ = run_cli(capsys, "born-test", cfg, "--draws", "2000",
                                  "--seed", "4", "--out", str(out))
        assert code == 0
        assert report["DRAWS"] == "2000"
        assert report["LABELS"] == str(len(urn))
        assert float(report["P_VALUE"]) > 0.001
        log = (out / "meas.log").read_text().splitlines()
        assert len(log) == 2000
        first = log[0].split()
        assert first[0] == "MEAS" and int(first[2]) in urn
        for line in log:
            _, _, label, prob = line.split()
            assert float(prob) == pytest.approx(urn[int(label)])
        for label, p in urn.items():
            freq = sum(l.split()[2] == str(label) for l in log) / 2000
            assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / 2000)
            assert f"theory={p:.6g} " in report[f"LABEL_{label}"]


def test_born_test_one_label_reports_p_value_1(tmp_path, capsys):
    """A delta state's urn has one label: every draw lands on it, and the
    chi-square, with no degree of freedom, reports P_VALUE 1, not nan."""
    cfg = write_cfg(tmp_path, "lattice.dims = 8\ninitial.kind = delta\nstep.dt = 0.1\n"
                              "run.samples = 1000\n")
    code, report, _ = run_cli(capsys, "born-test", cfg, "--draws", "1000",
                              "--out", str(tmp_path))
    assert code == 0
    assert report["LABELS"] == "1"
    assert report["CHI2"] == "0" and report["P_VALUE"] == "1"
    assert report["LABEL_4"].startswith("freq=1 theory=1 ")


def test_born_test_log_matches_measure_swarm(tmp_path, capsys):
    """born-test draws from the urn it reduced once, on one stream; draw k is
    the cell of the k-th successive measure_swarm of the initial swarm on
    step_rng(seed, 1)."""
    from qswarm import AmplitudeQuantum, build_initial, load_scenario_file, measure_swarm
    from qswarm.cli import step_rng

    cfg = write_cfg(tmp_path, "lattice.dims = 6 5\ninitial.kind = gaussian\n"
                              "initial.width = 2\nstep.dt = 0.1\nrun.samples = 5000\n")
    code, _, _ = run_cli(capsys, "born-test", cfg, "--draws", "1000", "--seed", "3",
                         "--out", str(tmp_path))
    assert code == 0
    labels = [int(line.split()[2]) for line in (tmp_path / "meas.log").read_text().splitlines()]
    sc = load_scenario_file(cfg)
    base = sample_from_wavefunction(build_initial(sc).psi, sc.lattice, sc.samples,
                                    step_rng(3, 0), deterministic=True)
    q = AmplitudeQuantum.for_lattice(sc.lattice.ncells)
    rng = step_rng(3, 1)
    for k in range(len(labels)):
        cell, _ = measure_swarm(base, q, rng)
        assert labels[k] == np.ravel_multi_index(cell, sc.lattice.dims)


def test_born_test_draws_in_chunks(tmp_path, capsys, monkeypatch):
    """born-test holds at most BORN_CHUNK labels at once, and the chunking
    does not change what it writes or reports."""
    from qswarm import cli

    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    whole, chunked = tmp_path / "whole", tmp_path / "chunked"
    _, report, _ = run_cli(capsys, "born-test", cfg, "--draws", "1000",
                           "--out", str(whole))

    sizes, born_measure = [], cli.born_measure

    def recording(s, q, rng, size=None):
        sizes.append(size)
        return born_measure(s, q, rng, size)

    monkeypatch.setattr(cli, "born_measure", recording)
    monkeypatch.setattr(cli, "BORN_CHUNK", 300)
    _, report_chunked, _ = run_cli(capsys, "born-test", cfg, "--draws", "1000",
                                   "--out", str(chunked))
    assert sizes == [300, 300, 300, 100]
    assert report_chunked == report
    assert (chunked / "meas.log").read_text() == (whole / "meas.log").read_text()


@pytest.mark.parametrize("mode", ["oracle", "meanfield", "stochastic"])
def test_run_frames_match_per_step_loop(tmp_path, capsys, mode):
    """Every mode runs one output interval at a time; its frames equal a
    library loop of single steps, bit for bit.  The oracle evolves each
    interval with one reference_evolve call."""
    from qswarm import (build_initial, build_potential, load_scenario_file,
                        reconstruct_wavefunction, reference_evolve, step_meanfield,
                        step_stochastic)
    from qswarm.cli import step_rng

    cfg = write_cfg(tmp_path, "lattice.dims = 8 6\nlattice.boundary = reflecting\n"
                              "initial.kind = gaussian\ninitial.width = 1.5\n"
                              "initial.momentum = 0.5 0\npotential.kind = harmonic\n"
                              "potential.strength = 0.1\nstep.dt = 0.05\nrun.samples = 5000\n"
                              "run.steps = 7\noutput.every = 3\n")
    code, report, _ = run_cli(capsys, "run", cfg, "--mode", mode, "--out", str(tmp_path))
    assert code == 0
    assert report["FRAMES"] == "4"  # steps 0, 3, 6, 7
    sc = load_scenario_file(cfg)
    psi, V, p = build_initial(sc), build_potential(sc), sc.step
    state = sample_from_wavefunction(psi.psi, sc.lattice, sc.samples, step_rng(sc.seed, 0),
                                     deterministic=mode == "meanfield")
    for k in range(8):
        if k and mode == "oracle":
            psi = reference_evolve(psi, V, p.dt, p.dt)
        elif k and mode == "meanfield":
            state = step_meanfield(state, V, p)
        elif k:
            state = step_stochastic(state, V, p, step_rng(sc.seed, k))
        if k in (0, 3, 6, 7):
            density = (psi.density() if mode == "oracle"
                       else np.abs(reconstruct_wavefunction(state, "p0")[0]) ** 2)
            fr = read_frame(tmp_path / f"density_{k:06d}.frame")
            assert np.array_equal(fr.values, density) and fr.time == k * p.dt
    if mode == "oracle":
        assert float(report["FINAL_NORM"]) == pytest.approx(1.0, abs=1e-12)
    else:
        assert report["POPULATION"] == f"{state.population():.9g}"


def test_born_test_needs_draws(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    code, _, err = run_cli(capsys, "born-test", cfg, "--draws", "10",
                           "--out", str(tmp_path))
    assert code == 2
    assert "draws" in err


def test_green_test_small_lattice_truncated(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "lattice.dims = 9 9 9\nlattice.boundary = absorbing\n"
        "initial.kind = delta\nstep.dt = 0.01\n"
        "potential.kind = coulomb_relaxed\npotential.relax_steps = 2000\n",
    )
    code, report, _ = run_cli(capsys, "green-test", cfg, "--out", str(tmp_path))
    assert code == 0
    assert report["WARNING"] == "window truncated"
    assert report["CONVERGED"] == "True"
    assert (tmp_path / "green.frame").exists()
    # field decays away from the source
    assert float(report["PROFILE_R1"]) > float(report["PROFILE_R3"]) > 0


def test_green_test_coulomb_fit(tmp_path, capsys):
    """A lattice wide enough for the r = 3..8 window reports the fit."""
    cfg = write_cfg(
        tmp_path,
        "lattice.dims = 19 19 19\nlattice.boundary = absorbing\n"
        "initial.kind = delta\nstep.dt = 0.01\n",
    )
    code, report, _ = run_cli(capsys, "green-test", cfg, "--out", str(tmp_path))
    assert code == 0
    assert report["CONVERGED"] == "True" and "WARNING" not in report
    assert abs(float(report["EXPONENT"]) + 1) <= 0.02 and float(report["COULOMB_C"]) > 0
    assert float(report["MAX_REL_DEV"]) <= 0.10


def test_green_test_zero_charge(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "lattice.dims = 9 9 9\nlattice.boundary = absorbing\n"
        "initial.kind = delta\nstep.dt = 0.01\n"
        "potential.kind = coulomb_relaxed\npotential.charge = 0\n"
        "potential.relax_steps = 100\n",
    )
    code, report, _ = run_cli(capsys, "green-test", cfg, "--out", str(tmp_path))
    assert code == 0
    assert report["MAX_REL_DEV"] == "0"


def test_green_test_rejects_1d(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    code, _, err = run_cli(capsys, "green-test", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "3D" in err


def test_compare_identical_and_different(tmp_path, capsys):
    from qswarm import write_frame

    a = tmp_path / "a.frame"
    b = tmp_path / "b.frame"
    write_frame(a, np.array([1.0, 2.0, 3.0]), 0.0)
    write_frame(b, np.array([3.0, 2.0, 1.0]), 0.0)
    code, report, _ = run_cli(capsys, "compare", str(a), str(a))
    assert code == 0 and float(report["DENSITY_ERROR"]) == 0.0
    code, report, _ = run_cli(capsys, "compare", str(a), str(b))
    assert code == 0 and float(report["DENSITY_ERROR"]) > 0.1
    # any two frames of one shape compare, one with a 1-cell axis too
    c = tmp_path / "c.frame"
    write_frame(c, np.array([[1.0], [2.0], [3.0]]), 0.0)
    code, report, _ = run_cli(capsys, "compare", str(c), str(c))
    assert code == 0 and float(report["DENSITY_ERROR"]) == 0.0
    code, _, err = run_cli(capsys, "compare", str(a), str(c))
    assert code == 2 and "shape mismatch" in err


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lattice.dims = 8\nbroken line\n")
    code, _, err = run_cli(capsys, "run", cfg, "--out", str(tmp_path))
    assert code == 2
    assert "error:" in err and ":2:" in err

    # non-finite numbers are rejected at the input edge, never as a traceback
    bad_frame = tmp_path / "nan.frame"
    bad_frame.write_text("FRAME v1 1 4 0\n0.5 nan 0.5 0.5\n")
    base = GAUSS_1D.format(steps=2, every=1)
    delta = "initial.kind = delta\nstep.dt = 0.1\nrun.steps = 1\n"
    for text in (
        base.replace("lattice.dims = 32", "lattice.dims = nan"),
        base.replace("initial.width = 4", "initial.width = nan"),
        base + "step.dt_phot = nan\n",
        base + "step.max_population = 100\n",  # a deleted key is an unknown key
        base + "output.pgm = true\n",  # images need a 2D lattice
        base + "run.duration = 100\n",  # next to its run.steps
        "lattice.dims = 4\ninitial.kind = file\n"
        f"initial.file = {bad_frame}\nstep.dt = 0.1\nrun.steps = 1\n",
        "lattice.dims = 4\ninitial.kind = file\n"
        f"initial.file = {tmp_path / 'absent.frame'}\nstep.dt = 0.1\n",
        # initial.center / initial.momentum need one number per axis, and a
        # delta off a non-periodic lattice is a domain error
        "lattice.dims = 8 8\ninitial.kind = gaussian\ninitial.momentum = 0.3\n"
        "step.dt = 0.1\nrun.steps = 1\n",
        "lattice.dims = 8 8\ninitial.center = 1\n" + delta,
        "lattice.dims = 8\ninitial.center = 0 0 0\n" + delta,
        "lattice.dims = 8\nlattice.boundary = absorbing\ninitial.center = 100\n" + delta,
        "lattice.dims = 8\nlattice.boundary = reflecting\ninitial.center = -10\n" + delta,
        "lattice.dims = 8\ninitial.center = 1e300\n" + delta,
        # an unknown boundary, and more cells than an array can index
        "lattice.dims = 8\nlattice.boundary = foo\n" + delta,
        "lattice.dims = 1e30\n" + delta,
    ):
        cfg = write_cfg(tmp_path, text, name="bad.cfg")
        for mode in ("meanfield", "stochastic"):
            code, _, err = run_cli(capsys, "run", cfg, "--mode", mode,
                                   "--out", str(tmp_path))
            assert code == 2, text
            assert err.startswith("error:")

    # a drawn sample count must fit in int64; a deterministic one is free
    cfg = write_cfg(tmp_path, base.replace("run.samples = 20000", "run.samples = 1e30"),
                    name="huge.cfg")
    code, _, err = run_cli(capsys, "run", cfg, "--mode", "stochastic", "--out", str(tmp_path))
    assert code == 2 and err.startswith("error:") and "int64" in err
    code, _, _ = run_cli(capsys, "run", cfg, "--mode", "meanfield", "--out", str(tmp_path))
    assert code == 0

    cfg = write_cfg(tmp_path, base, name="ok.cfg")
    code, _, err = run_cli(capsys, "run", cfg, "--seed", "-1", "--out", str(tmp_path))
    assert code == 2 and "--seed" in err

    # unreadable input files: missing, a directory, not UTF-8 text
    binary = tmp_path / "bin.frame"
    binary.write_bytes(b"\xff\xfe\x00")
    binary_cfg = tmp_path / "bin.cfg"
    binary_cfg.write_bytes(b"lattice.dims = 4\n\xff\xfe\n")
    frame_cfg = write_cfg(tmp_path, "lattice.dims = 4\ninitial.kind = file\n"
                          f"initial.file = {binary}\nstep.dt = 0.1\n", name="binframe.cfg")
    for argv in (
        ("run", str(tmp_path / "absent.cfg")),
        ("run", str(tmp_path)),
        ("run", str(binary_cfg)),
        ("run", frame_cfg),
        ("compare", str(binary), str(binary)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:")


@pytest.mark.parametrize("extra, message", [
    ("lattice.h = 1e-10", "2\\*\\*53"),
    ("step.dt = 1e300", "2\\*\\*53"),
    ("potential.kind = harmonic\npotential.strength = 1e300", "2\\*\\*53"),
    ("lattice.h = 1e-300", "cell spacing"),
    ("step.dt = 1e308", "2\\*\\*53"),
    ("potential.kind = box\npotential.v0 = 1e308", "2\\*\\*53"),
    ("potential.kind = box\npotential.v0 = -1e308", "2\\*\\*53"),
    ("step.A = 1e308", "2\\*\\*53"),
], ids=["h-1e-10", "dt-1e300", "harmonic-1e300", "h-1e-300", "dt-1e308", "v0-1e308",
        "v0-minus-1e308", "A-1e308"])
def test_stochastic_counts_past_the_exact_range_exit_2(tmp_path, capsys, extra, message):
    """A stochastic step whose counts would pass 2**53, where float64 counts
    stop being exact integers, is a memory-budget error (exit 2), never a
    wrapped int64 draw, a NaN norm or an infinite population.  So is an
    emission, spawn or resample rate whose product with the counts passes
    the float range (inf, or NaN on an empty cell), with no numpy warning on
    the way.  A cell spacing so small that the emission rate is not finite
    is a config error."""
    text = "lattice.dims = 8\ninitial.kind = gaussian\ninitial.width = 2\n" \
           "run.steps = 2\nrun.samples = 1000\n" + extra + "\n"
    if "step.dt" not in extra:
        text += "step.dt = 0.1\n"
    cfg = write_cfg(tmp_path, text)
    code, report, err = run_cli(capsys, "run", cfg, "--mode", "stochastic",
                                "--out", str(tmp_path))
    assert code == 2, report
    assert err.startswith("error:")
    assert re.search(message, err), err


# Every key the scenario loader reads.
CONFIG_KEYS = (
    "lattice.dims", "lattice.h", "lattice.boundary",
    "initial.kind", "initial.center", "initial.width", "initial.momentum", "initial.file",
    "potential.kind", "potential.strength", "potential.width", "potential.v0",
    "potential.charge", "potential.stay_prob", "potential.relax_steps", "potential.file",
    "step.dt", "step.dt_phot", "step.A",
    "run.mode", "run.duration", "run.steps", "run.seed", "run.samples",
    "output.every", "output.types", "output.pgm",
)
FUZZ_TOKENS = ("nan", "inf", "-1", "0", "0.5", "1e30", "1e200", "-1e200", "1e308", "-1e308",
               "1e-170", "foo", "")
FUZZ_BASE = {
    "lattice.dims": "8",
    "initial.kind": "gaussian",
    "initial.width": "2",
    "step.dt": "0.1",
    "run.steps": "1",
    "run.samples": "1000",
}
# keys that only one kind reads are fuzzed under that kind
COULOMB = {"potential.kind": "coulomb_relaxed", "lattice.boundary": "absorbing"}
FUZZ_CONTEXT = {
    "initial.file": {"initial.kind": "file"},
    "potential.strength": {"potential.kind": "harmonic"},
    "potential.width": {"potential.kind": "box"},
    "potential.v0": {"potential.kind": "box"},
    "potential.charge": COULOMB,
    "potential.stay_prob": COULOMB,
    "potential.relax_steps": COULOMB,
    "potential.file": {"potential.kind": "file"},
    "run.duration": {"run.steps": None},  # the duration sets the step count
}


def test_config_keys_are_every_key_read():
    assert sorted(scenario.KEYS) == sorted(CONFIG_KEYS) and len(CONFIG_KEYS) == 27


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_config_fuzz_exits_0_or_2(tmp_path, capsys, key):
    """Every key with every bad token, in both swarm modes: the run either
    succeeds or exits 2 with an ``error:`` line, and raises nothing.  Only a
    huge step count or duration is skipped: a long run is valid input."""
    cfg_path = tmp_path / "fuzz.cfg"
    for token in FUZZ_TOKENS:
        if key in ("run.steps", "run.duration") and token in ("1e30", "1e200", "1e308"):
            continue
        cfg = {**FUZZ_BASE, **FUZZ_CONTEXT.get(key, {}), key: token}
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items() if v is not None))
        for mode in ("meanfield", "stochastic"):
            code, _, err = run_cli(capsys, "run", str(cfg_path), "--mode", mode,
                                   "--out", str(tmp_path))
            assert code in (0, 2), (key, token, mode)
            if code == 2:
                assert err.startswith("error:"), (key, token, mode, err)


def test_removed_threads_flag_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    # green-test draws nothing, so it takes no seed; the bench command is gone
    for argv in (["green-test", cfg, "--seed", "1"], ["bench", cfg]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
