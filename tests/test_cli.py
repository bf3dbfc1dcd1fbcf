"""Command-line entry points: runs, reports and file outputs."""

import numpy as np
import pytest

from qswarm import read_frame
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


def test_bench_report(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        GAUSS_1D.format(steps=0, every=1).replace("run.samples = 20000",
                                                  "run.samples = 1000")
        + "step.A = 200\n",
    )
    code, report, _ = run_cli(capsys, "bench", cfg, "--particles", "1,2",
                              "--steps", "2", "--out", str(tmp_path))
    assert code == 0
    assert report["N_CELLS"] == "32"
    assert float(report["TIME_N1"]) > 0
    assert float(report["TIME_N2"]) > 0
    assert "LINEAR_R2" in report


def test_bench_empty_particle_list(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    code, _, err = run_cli(capsys, "bench", cfg, "--particles", "",
                           "--out", str(tmp_path))
    assert code == 2
    assert "particle" in err

    # non-integer or non-positive counts and fewer than one step exit 2,
    # never with a traceback or a report of a run that did not happen
    for flags, word in (
        (("--particles", "a,b"), "particle"),
        (("--particles", "0"), "particle"),
        (("--particles", "-1"), "particle"),
        (("--particles", "1,-2"), "particle"),
        (("--steps", "0"), "steps"),
        (("--steps", "-3"), "steps"),
    ):
        code, report, err = run_cli(capsys, "bench", cfg, *flags, "--out", str(tmp_path))
        assert code == 2, flags
        assert err.startswith("error:") and word in err
        assert not report


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
    ):
        cfg = write_cfg(tmp_path, text, name="bad.cfg")
        for mode in ("meanfield", "stochastic"):
            code, _, err = run_cli(capsys, "run", cfg, "--mode", mode,
                                   "--out", str(tmp_path))
            assert code == 2, text
            assert err.startswith("error:")

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


def test_removed_threads_flag_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GAUSS_1D.format(steps=0, every=1))
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--threads", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
