"""Scenario config parsing and construction of initial state / potential."""

import numpy as np
import pytest

from qswarm import (
    Boundary,
    ConfigError,
    build_initial,
    build_potential,
    load_scenario,
    load_scenario_file,
    parse_config,
    write_frame,
)

BASE = """
lattice.dims = 32
initial.kind = gaussian
initial.width = 4
step.dt = 0.1
run.steps = 5
"""


def with_key(key, value, drop=None):
    """BASE with ``key`` set to ``value`` and the ``drop`` key removed."""
    lines = [l for l in BASE.splitlines() if l.split(" = ")[0] not in (key, drop)]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def test_parse_basic():
    cfg = parse_config("a.b = 1\n# comment\n\nc = hello world\n")
    assert cfg == {"a.b": "1", "c": "hello world"}


def test_parse_error_names_line():
    with pytest.raises(ConfigError, match=r"cfg:3"):
        parse_config("a = 1\n\nnot a pair\n", name="cfg")


def test_parse_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= 3\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")


def test_unknown_key_rejected():
    # the drift conversion rule, its mass, the phase-compensation switch,
    # the emission-rate override, the photon stay probability and the
    # population cap were removed; their keys are unknown
    for extra in ("lattice.color = blue", "step.drift_rule = true", "step.mass = 1",
                  "step.phase_compensation = false", "step.r_emit = 2", "step.p_phot = 1",
                  "step.max_population = 100"):
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(BASE + extra + "\n")


def test_missing_required():
    with pytest.raises(ConfigError, match="lattice.dims"):
        load_scenario("initial.kind = delta\nstep.dt = 0.1\n")
    with pytest.raises(ConfigError, match="initial.kind"):
        load_scenario("lattice.dims = 8\nstep.dt = 0.1\n")
    with pytest.raises(ConfigError, match="step.dt"):
        load_scenario("lattice.dims = 8\ninitial.kind = delta\n")


def test_bad_number_and_choice():
    with pytest.raises(ConfigError, match="expected a number"):
        load_scenario(BASE.replace("step.dt = 0.1", "step.dt = fast"))
    with pytest.raises(ConfigError, match="run.mode"):
        load_scenario(BASE + "run.mode = quantum\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        load_scenario(BASE + "output.types = maybe\n")
    for key in ("lattice.dims", "initial.width", "step.dt_phot", "step.A"):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key}.*finite"):
                load_scenario(with_key(key, bad))
    with pytest.raises(ConfigError, match="finite"):
        load_scenario(with_key("initial.center", "0 nan"))
    with pytest.raises(ConfigError, match="expected an integer"):
        load_scenario(with_key("run.steps", "2.6"))
    with pytest.raises(ConfigError, match="expected integers"):
        load_scenario(with_key("lattice.dims", "32.5"))
    for key, bad in (("run.steps", "-1"), ("run.duration", "-5"), ("run.samples", "-5"),
                     ("run.samples", "0"), ("output.every", "0"), ("run.seed", "-1")):
        with pytest.raises(ConfigError, match=f"{key}.*must be >="):
            load_scenario(with_key(key, bad, drop="run.steps"))
    for key in ("initial.width", "potential.width"):
        for bad in ("0", "-5"):
            with pytest.raises(ConfigError, match=f"{key}.*must be > 0"):
                load_scenario(with_key(key, bad))
    # the lower bounds themselves are accepted
    s = load_scenario(with_key("run.steps", "0") + "run.samples = 1\noutput.every = 1\n")
    assert (s.steps, s.samples, s.output_every) == (0, 1, 1)
    assert load_scenario(with_key("run.duration", "0", drop="run.steps")).steps == 0


def test_defaults():
    s = load_scenario(BASE)
    assert s.lattice.dims == (32,)
    assert s.lattice.h == 1.0
    assert s.lattice.boundary is Boundary.PERIODIC
    assert s.mode == "meanfield"
    assert s.potential_kind == "zero"
    assert s.seed == 0
    assert s.steps == 5
    assert s.output_every == 1


def test_duration_to_steps():
    s = load_scenario(BASE.replace("run.steps = 5", "run.duration = 2.0"))
    assert s.steps == 20
    # the two keys exclude each other: neither silently wins
    with pytest.raises(ConfigError, match="run.steps and run.duration"):
        load_scenario(BASE + "run.duration = 100\n")


def test_pgm_needs_a_2d_lattice():
    for dims in ("32", "8 8 8"):
        with pytest.raises(ConfigError, match="output.pgm = true needs a 2D lattice"):
            load_scenario(with_key("lattice.dims", dims) + "output.pgm = true\n")
    assert load_scenario(with_key("lattice.dims", "8 8") + "output.pgm = true\n").output_pgm
    assert not load_scenario(BASE + "output.pgm = false\n").output_pgm


def test_multidim_lattice():
    s = load_scenario(
        "lattice.dims = 8 8 8\nlattice.boundary = absorbing\n"
        "initial.kind = delta\nstep.dt = 0.01\n"
    )
    assert s.lattice.dims == (8, 8, 8)
    assert s.lattice.boundary is Boundary.ABSORBING


# ---------------------------------------------------------------------------
# initial states

def test_initial_delta():
    s = load_scenario("lattice.dims = 9\ninitial.kind = delta\nstep.dt = 0.1\n")
    psi = build_initial(s).psi
    assert psi[4] == 1.0 and np.count_nonzero(psi) == 1


@pytest.mark.parametrize("n", [10, 18, 34])
def test_initial_delta_default_center_is_middle_cell(n):
    """The default delta sits on cell n // 2, where relaxed potentials put
    their point source, also when n = 2 (mod 4): half a cell rounds up."""
    s = load_scenario(f"lattice.dims = {n} {n}\ninitial.kind = delta\nstep.dt = 0.01\n")
    psi = build_initial(s).psi
    assert psi[n // 2, n // 2] == 1.0 and np.count_nonzero(psi) == 1


def test_initial_delta_offcenter():
    s = load_scenario(
        "lattice.dims = 9\ninitial.kind = delta\ninitial.center = 2\nstep.dt = 0.1\n"
    )
    psi = build_initial(s).psi
    assert psi[6] == 1.0
    # a periodic lattice wraps the center onto the same cell
    s = load_scenario(
        "lattice.dims = 9\ninitial.kind = delta\ninitial.center = -7\nstep.dt = 0.1\n"
    )
    psi = build_initial(s).psi
    assert psi[6] == 1.0 and np.count_nonzero(psi) == 1


def test_initial_gaussian():
    s = load_scenario(BASE + "initial.momentum = 0.3\n")
    psi = build_initial(s).psi
    x = s.lattice.coordinates(0)
    expect = np.exp(-(x**2) / 64 + 0.3j * x)
    expect /= np.linalg.norm(expect)
    assert np.allclose(psi, expect)


def test_initial_plane_wave():
    k = 2 * np.pi / 16
    s = load_scenario(
        f"lattice.dims = 16\ninitial.kind = plane_wave\n"
        f"initial.momentum = {k}\nstep.dt = 0.1\n"
    )
    psi = build_initial(s).psi
    assert np.allclose(np.abs(psi), 1 / 4)


@pytest.mark.parametrize("kind", ["gaussian", "plane_wave"])
def test_initial_momentum_past_the_float_range_names_the_key(kind):
    """The phase k*x is largest at an axis's end, (n - 1)/2 * h: a momentum
    that takes it past the float range is a ConfigError naming the key, not
    numpy's warning and a NaN wave function; a k that keeps it a float still
    builds."""
    text = f"initial.kind = {kind}\nstep.dt = 0.1\n"
    for dims, k in (("8", "1e308"), ("8", "-1e308"), ("4 8", "0 1e308")):
        s = load_scenario(f"lattice.dims = {dims}\ninitial.momentum = {k}\n" + text)
        with pytest.raises(ConfigError, match="initial.momentum"):
            build_initial(s)
    # 3.5 = (8 - 1)/2 is the last cell's x, and 3.5 * 5e307 is below 1.8e308
    s = load_scenario("lattice.dims = 8\ninitial.momentum = 5e307\n" + text)
    assert np.isfinite(build_initial(s).psi).all()
    # a delta reads no momentum, so none is out of range
    s = load_scenario("lattice.dims = 8\ninitial.kind = delta\ninitial.momentum = 1e308\n"
                      "step.dt = 0.1\n")
    assert build_initial(s).psi[4] == 1.0


def test_initial_from_file(tmp_path):
    vals = np.arange(1.0, 9.0)
    path = tmp_path / "init.frame"
    write_frame(path, vals, 0.0)
    s = load_scenario(
        f"lattice.dims = 8\ninitial.kind = file\ninitial.file = {path}\nstep.dt = 0.1\n"
    )
    psi = build_initial(s).psi
    assert np.allclose(psi, vals / np.linalg.norm(vals))


def test_initial_file_dims_mismatch(tmp_path):
    path = tmp_path / "init.frame"
    write_frame(path, np.ones(8), 0.0)
    s = load_scenario(
        f"lattice.dims = 16\ninitial.kind = file\ninitial.file = {path}\nstep.dt = 0.1\n"
    )
    with pytest.raises(ConfigError, match="dims"):
        build_initial(s)


def test_initial_file_missing_path():
    s = load_scenario("lattice.dims = 8\ninitial.kind = file\nstep.dt = 0.1\n")
    with pytest.raises(ConfigError, match="initial.file"):
        build_initial(s)


# ---------------------------------------------------------------------------
# potentials

def test_potential_zero():
    s = load_scenario(BASE)
    assert not build_potential(s).grid.values.any()


def test_potential_harmonic():
    s = load_scenario(BASE + "potential.kind = harmonic\npotential.strength = 0.5\n")
    v = build_potential(s).grid.values
    x = s.lattice.coordinates(0)
    assert np.allclose(v, 0.5 * x**2)


def test_potential_box():
    s = load_scenario(
        BASE + "potential.kind = box\npotential.width = 8\npotential.v0 = 10\n"
    )
    v = build_potential(s).grid.values
    x = s.lattice.coordinates(0)
    assert np.all(v[np.abs(x) <= 4] == 0.0)
    assert np.all(v[np.abs(x) > 4] == 10.0)


def test_potential_relaxed_center_attractive():
    s = load_scenario(
        "lattice.dims = 17 17 17\nlattice.boundary = absorbing\n"
        "initial.kind = delta\nstep.dt = 0.01\n"
        "potential.kind = coulomb_relaxed\npotential.charge = 2\n"
        "potential.relax_steps = 4000\n"
    )
    v = build_potential(s).grid.values
    assert v[8, 8, 8] < 0  # attractive well at the source
    assert abs(v[8, 8, 8]) > abs(v[8, 8, 12])  # decays with distance


def test_potential_relaxed_unconverged_rejected():
    """Without an absorbing edge the relaxation has no fixed point."""
    s = load_scenario(
        "lattice.dims = 16\ninitial.kind = delta\nstep.dt = 0.01\n"
        "potential.kind = coulomb_relaxed\n"
    )
    with pytest.raises(ConfigError, match="potential.relax_steps = 20000"):
        build_potential(s)


def test_potential_past_the_float_range_names_its_key():
    """A harmonic strength or a relaxed charge whose V would pass the float
    range is a ConfigError naming the key, not numpy's overflow warning."""
    coulomb = ("lattice.dims = 8\nlattice.boundary = absorbing\ninitial.kind = delta\n"
               "step.dt = 0.1\npotential.kind = coulomb_relaxed\n")
    for text, key in ((BASE + "potential.kind = harmonic\n", "strength"), (coulomb, "charge")):
        for value in ("1e308", "-1e308"):
            s = load_scenario(text + f"potential.{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"potential.{key}"):
                build_potential(s)
    # the largest |V| is at a corner, 15.5 cells from the centre of 32
    s = load_scenario(BASE + "potential.kind = harmonic\npotential.strength = 1e305\n")
    assert build_potential(s).grid.values.max() == 1e305 * 15.5**2
    s = load_scenario(coulomb + "potential.charge = 1e300\n")
    assert np.isfinite(build_potential(s).grid.values).all()


def test_potential_file_roundtrip(tmp_path):
    vals = np.linspace(-1, 1, 32)
    path = tmp_path / "v.frame"
    write_frame(path, vals, 0.0)
    s = load_scenario(BASE + f"potential.kind = file\npotential.file = {path}\n")
    assert np.allclose(build_potential(s).grid.values, vals)


def test_potential_file_dims_mismatch(tmp_path):
    path = tmp_path / "v.frame"
    write_frame(path, np.ones(8), 0.0)
    s = load_scenario(BASE + f"potential.kind = file\npotential.file = {path}\n")
    with pytest.raises(ConfigError, match=r"potential file dims \(8,\) do not match lattice \(32,\)"):
        build_potential(s)


def test_potential_file_missing_path():
    s = load_scenario(BASE + "potential.kind = file\n")
    with pytest.raises(ConfigError, match="potential.kind = file needs potential.file"):
        build_potential(s)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scen.cfg"
    path.write_text(BASE)
    s = load_scenario_file(path)
    assert s.lattice.dims == (32,)
    with pytest.raises(ConfigError, match=str(path)):
        path.write_text(BASE + "bogus line without equals\n")
        load_scenario_file(path)
