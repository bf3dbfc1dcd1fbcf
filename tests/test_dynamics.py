"""Mean-field and stochastic integrators."""

import numpy as np
import pytest

from qswarm import (
    AmplitudeQuantum,
    Boundary,
    ConfigError,
    FieldGrid,
    LatticeSpec,
    MemoryBudgetError,
    PotentialField,
    StepParams,
    SwarmState,
    calibrated_emission_rate,
    cancel_pairs,
    check_meanfield_stability,
    diffuse_field,
    diffusion_coefficient,
    field_laplacian,
    measure_swarm,
    reconstruct_wavefunction,
    resample,
    sample_from_wavefunction,
    step_meanfield,
    step_stochastic,
)
from qswarm.dynamics import _diffuse_counts, meanfield_update


def state_from_counts(counts, spec, scale=1.0):
    s = SwarmState(spec)
    s.add_particle("p0", np.asarray(counts, dtype=float), scale)
    return s


# ---------------------------------------------------------------------------
# StepParams / calibration

def test_step_params_validation():
    with pytest.raises(ConfigError):
        StepParams(dt=0.0)
    with pytest.raises(ConfigError):
        StepParams(dt=0.1, p_phot=1.5)
    with pytest.raises(ConfigError):
        StepParams(dt=0.1, dt_phot=0.05)
    with pytest.raises(ConfigError):
        StepParams(dt=0.1, A=0.0)
    assert StepParams(dt=0.1).dt_phot == 0.1
    assert StepParams(dt=0.1, dt_phot=0.5).n_age == 5


def test_calibration_matches_diffusion_coefficient():
    """One photon hop acts as I + c*Lap; the emission rate must be 1/c."""
    spec = LatticeSpec((16,))
    p = StepParams(dt=0.1, p_phot=1.0)  # n_age = 1
    c = diffusion_coefficient(spec, stay_prob=0.0)
    assert calibrated_emission_rate(spec, p) == pytest.approx(1.0 / c)
    # the underlying identity: D - I = c * Lap, exactly
    rng = np.random.default_rng(0)
    f = FieldGrid(spec, rng.random(spec.dims))
    moved = diffuse_field(f, 0.0).values - f.values
    assert np.allclose(moved, c * field_laplacian(f).values, atol=1e-12)


def test_calibration_needs_hop_rate():
    spec = LatticeSpec((16,))
    with pytest.raises(ConfigError):
        calibrated_emission_rate(spec, StepParams(dt=0.1, p_phot=0.0))


def test_stability_bound():
    spec = LatticeSpec((16,))
    V = PotentialField.zero(spec)
    check_meanfield_stability(spec, V, StepParams(dt=0.5))  # dt = h^2/(2d)
    with pytest.raises(ConfigError):
        check_meanfield_stability(spec, V, StepParams(dt=0.51))
    strong = PotentialField(FieldGrid(spec, np.full(spec.dims, 4.0)))
    with pytest.raises(ConfigError):
        check_meanfield_stability(spec, strong, StepParams(dt=0.5))


# ---------------------------------------------------------------------------
# mean-field stepper

def test_meanfield_uniform_state_unchanged():
    spec = LatticeSpec((8,))
    counts = np.zeros((4, 8))
    counts[0] = 5.0
    out = meanfield_update(counts, PotentialField.zero(spec), spec,
                           StepParams(dt=0.3))
    assert np.array_equal(out, counts)


def test_meanfield_reproduces_complex_update():
    """The staggered four-field step is exactly a Schrodinger update on
    (s1-s3) + i(s2-s4)."""
    rng = np.random.default_rng(5)
    spec = LatticeSpec((32,))
    V = PotentialField(FieldGrid(spec, rng.standard_normal(spec.dims)))
    p = StepParams(dt=0.05)
    counts = rng.random((4, *spec.dims)) * 10

    out = meanfield_update(counts, V, spec, p)

    def lap(v):
        return field_laplacian(FieldGrid(spec, v)).values

    re = counts[0] - counts[2]
    im = counts[1] - counts[3]
    v = V.grid.values
    re_new = re - p.dt * (lap(im) - v * im)
    im_new = im + p.dt * (lap(re_new) - v * re_new)
    assert np.allclose(out[0] - out[2], re_new, atol=1e-12)
    assert np.allclose(out[1] - out[3], im_new, atol=1e-12)
    assert np.all(out >= 0)


def test_meanfield_norm_drift():
    """Unitarity proxy: relative norm drift per step below 1e-3 with V=0."""
    spec = LatticeSpec((64,))
    x = np.arange(64.0)
    psi = np.exp(-((x - 32) ** 2) / 64 + 0.4j * x)
    psi /= np.linalg.norm(psi)
    s = sample_from_wavefunction(psi, spec, 10**5, np.random.default_rng(0),
                                 deterministic=True)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.2)
    _, prev = reconstruct_wavefunction(s)
    for _ in range(50):
        s = step_meanfield(s, V, p)
        _, norm = reconstruct_wavefunction(s)
        assert abs(norm - prev) / prev <= 1e-3
        prev = norm


# ---------------------------------------------------------------------------
# stochastic stepper

def test_stochastic_empty_swarm():
    spec = LatticeSpec((8,))
    s = state_from_counts(np.zeros((4, 8)), spec)
    out = step_stochastic(s, PotentialField.zero(spec),
                          StepParams(dt=0.1), np.random.default_rng(0))
    assert out.population() == 0


def test_stochastic_single_sample_conversion():
    """One type-1 sample with a forced emission: after two steps exactly one
    type-2 sample sits at the same cell (the converted photon; its paired
    compensation sample is of type 4)."""
    spec = LatticeSpec((8,))
    counts = np.zeros((4, 8))
    counts[0, 3] = 1.0
    s = state_from_counts(counts, spec)
    p = StepParams(dt=1.0, p_phot=0.0, r_emit=1.0, dt_phot=1.0)
    rng = np.random.default_rng(0)
    V = PotentialField.zero(spec)
    s = step_stochastic(s, V, p, rng, normalize=False)
    s = step_stochastic(s, V, p, rng, normalize=False)
    f = s.fields["p0"]
    assert f[1].sum() == 1.0 and f[1, 3] == 1.0


def test_stochastic_potential_events():
    """With emission off, V > 0 spawns the predecessor type, V < 0 its
    negation."""
    spec = LatticeSpec((4,))
    V = PotentialField(FieldGrid(spec, np.array([1.0, 0, -1.0, 0])))
    p = StepParams(dt=1.0, r_emit=0.0)
    counts = np.zeros((4, 4))
    counts[0, 0] = 1.0  # type 1 where V=+1
    counts[0, 2] = 1.0  # type 1 where V=-1
    s = state_from_counts(counts, spec)
    out = step_stochastic(s, V, p, np.random.default_rng(0), normalize=False)
    f = out.fields["p0"]
    assert f[3, 0] == 1.0  # type 4 spawned (predecessor of type 1)
    assert f[1, 2] == 1.0  # negated predecessor = type 2


def test_stochastic_locality():
    """Support grows at most one cell per photon hop per step."""
    spec = LatticeSpec((31,))
    counts = np.zeros((4, 31))
    counts[0, 15] = 1000.0
    s = state_from_counts(counts, spec)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.1, dt_phot=0.1)
    for step in range(1, 6):
        s = step_stochastic(s, V, p, np.random.default_rng(step), normalize=False)
        occupied = np.nonzero(s.fields["p0"].sum(axis=0))[0]
        assert occupied.min() >= 15 - step and occupied.max() <= 15 + step


def test_stochastic_conversion_shifts_type():
    """Photon cohorts convert to the cyclic successor type: each quarter
    cycle multiplies the encoded amplitude contribution by i (the paired
    compensation sample lands on type j-1, not on j+1)."""
    spec = LatticeSpec((4,))
    V = PotentialField.zero(spec)
    p = StepParams(dt=1.0, p_phot=0.0, r_emit=1.0, dt_phot=1.0)
    for j in range(4):
        counts = np.zeros((4, 4))
        counts[j, 1] = 1.0
        s = state_from_counts(counts, spec)
        rng = np.random.default_rng(0)
        s = step_stochastic(s, V, p, rng, normalize=False)
        s = step_stochastic(s, V, p, rng, normalize=False)
        assert s.fields["p0"][(j + 1) % 4, 1] >= 1.0


def test_stochastic_population_cap():
    spec = LatticeSpec((8,))
    counts = np.zeros((4, 8))
    counts[0] = 100.0
    s = state_from_counts(counts, spec)
    p = StepParams(dt=0.5, r_emit=2.0, max_population=100.0)
    with pytest.raises(MemoryBudgetError):
        step_stochastic(s, PotentialField.zero(spec), p, np.random.default_rng(0))


def test_stochastic_matches_meanfield_in_expectation():
    """V=0, small dt: expected counts after two stochastic steps from a cold
    start (the first step only launches photons) match one mean-field step,
    within three standard errors, over >= 1e3 seeded runs on 16 cells."""
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi = np.exp(-((x - 8.0) ** 2) / 8 + 0.7j * x)
    psi /= np.linalg.norm(psi)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.01)
    K = 20000

    base = sample_from_wavefunction(psi, spec, K, np.random.default_rng(0),
                                    deterministic=True)
    mf = step_meanfield(base, V, p).fields["p0"] / base.scale["p0"]
    target = (mf[0] - mf[2]) + 1j * (mf[1] - mf[3])

    n = 1200
    acc = np.zeros((4, 16))
    acc2 = np.zeros((4, 16))
    for seed in range(n):
        rng = np.random.default_rng([77, seed])
        s = sample_from_wavefunction(psi, spec, K, rng)
        s = step_stochastic(s, V, p, rng, normalize=False)
        s = step_stochastic(s, V, p, rng, normalize=False)
        f = s.fields["p0"] / s.scale["p0"]
        acc += f
        acc2 += f * f
    mean = acc / n
    se = np.sqrt(np.maximum(acc2 / n - mean**2, 0.0) / n)
    got = (mean[0] - mean[2]) + 1j * (mean[1] - mean[3])
    se_re = np.sqrt(se[0] ** 2 + se[2] ** 2)
    se_im = np.sqrt(se[1] ** 2 + se[3] ** 2)
    assert np.all(np.abs((got - target).real) <= 3 * np.maximum(se_re, 1e-12))
    assert np.all(np.abs((got - target).imag) <= 3 * np.maximum(se_im, 1e-12))


def test_stochastic_deterministic_given_seed():
    spec = LatticeSpec((16,))
    x = np.arange(16.0)
    psi = np.exp(-((x - 8.0) ** 2) / 8).astype(complex)
    psi /= np.linalg.norm(psi)
    V = PotentialField.zero(spec)
    p = StepParams(dt=0.1, A=1000.0)
    outs = []
    for _ in range(2):
        s = sample_from_wavefunction(psi, spec, 5000, np.random.default_rng([3, 0]))
        for k in range(1, 6):
            s = step_stochastic(s, V, p, np.random.default_rng([3, k]))
        outs.append(s.fields["p0"])
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("boundary", list(Boundary), ids=lambda b: b.value)
@pytest.mark.parametrize("dims", [(7,), (5, 6), (4, 5, 3)], ids=["1d", "2d", "3d"])
def test_diffuse_counts_stack_matches_per_type_calls(dims, boundary):
    """A cohort's (4, *dims) counts move in one call exactly as four per-type
    calls from the same seed would move them, and leave the same stream."""
    spec = LatticeSpec(dims, boundary=boundary)
    counts = np.random.default_rng(5).integers(0, 6, size=(4, *dims)).astype(float)
    counts[2] = 0.0  # an empty type draws nothing
    rng_stack, rng_types = np.random.default_rng(9), np.random.default_rng(9)
    stacked = _diffuse_counts(counts, spec, 0.7, rng_stack)
    per_type = np.stack([_diffuse_counts(counts[j], spec, 0.7, rng_types) for j in range(4)])
    assert np.array_equal(stacked, per_type)
    assert rng_stack.random() == rng_types.random()


def test_steps_leave_their_input_unchanged():
    """States share photon cohorts, so no operation may write its input's
    fields, cohorts, scale or time."""
    spec = LatticeSpec((12,), boundary="reflecting")
    x = np.arange(12.0)
    psi = np.exp(-((x - 6.0) ** 2) / 8 + 0.5j * x)
    psi /= np.linalg.norm(psi)
    V = PotentialField(FieldGrid(spec, np.linspace(-1.0, 1.0, 12)))
    p = StepParams(dt=0.1, dt_phot=0.3, A=2000.0)
    rng = np.random.default_rng(4)
    s = sample_from_wavefunction(psi, spec, 2000, rng)
    for _ in range(2):
        s = step_stochastic(s, V, p, rng)
    assert len(s.photons["p0"]) == 2  # cohorts in flight

    def snapshot(state):
        return (
            {k: v.copy() for k, v in state.fields.items()},
            [(c.counts.copy(), c.pending.copy(), c.age) for c in state.photons["p0"]],
            dict(state.scale),
            state.time,
        )

    before = snapshot(s)
    for op in (
        lambda: step_stochastic(s, V, p, rng),
        lambda: step_stochastic(s, V, StepParams(dt=0.1, dt_phot=0.3), rng),
        lambda: step_meanfield(s, V, StepParams(dt=0.1)),
        lambda: cancel_pairs(s),
        lambda: resample(s, 500.0, rng),
        lambda: measure_swarm(s, AmplitudeQuantum(0.1), rng),
    ):
        op()
        fields, cohorts, scale, time = snapshot(s)
        assert fields.keys() == before[0].keys()
        assert all(np.array_equal(fields[k], before[0][k]) for k in fields)
        assert len(cohorts) == len(before[1])
        for (c, pend, age), (c0, pend0, age0) in zip(cohorts, before[1]):
            assert np.array_equal(c, c0) and np.array_equal(pend, pend0) and age == age0
        assert scale == before[2] and time == before[3]
